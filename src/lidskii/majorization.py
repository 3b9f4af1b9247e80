"""Majorization and submajorization predicates on real vectors.

x is submajorized by y (x <w y) when every partial sum of x sorted
non-increasingly is dominated by the matching partial sum of y; majorization
additionally requires equal totals.  Verdicts carry the minimum slack over
partial sums so fuzz harnesses can report margins.
"""

from dataclasses import dataclass

import numpy as np

PARTIAL_SUM_TOL = 1e-10


@dataclass(frozen=True)
class MajorizationVerdict:
    """Outcome of a (sub)majorization test.

    ``margin`` is the minimum slack over compared partial sums (negative
    when violated).  ``first_violation_index`` is the 1-based length of the
    first violated prefix, or the full length when only the trace condition
    fails; it is None exactly when the relation holds.
    """

    holds: bool
    strict: bool
    first_violation_index: int | None
    margin: float


def _as_finite_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


def sort_desc(x) -> np.ndarray:
    """Entries of x rearranged in non-increasing order."""
    return np.sort(_as_finite_vector(x))[::-1].copy()


def submajorizes(y, x, tol: float = PARTIAL_SUM_TOL) -> MajorizationVerdict:
    """Test x <w y (x submajorized by y).

    Unequal lengths compare the first min(len(x), len(y)) partial sums.
    The slack tolerance is absolute-plus-relative in the partial sums.
    """
    xs = sort_desc(x)
    ys = sort_desc(y)
    m = min(xs.size, ys.size)
    cx = np.cumsum(xs[:m])
    cy = np.cumsum(ys[:m])
    slack = cy - cx
    scale = 1.0 + max(np.max(np.abs(cx)), np.max(np.abs(cy)))
    margin = float(np.min(slack))
    holds = margin >= -tol * scale
    if holds:
        first_violation = None
    else:
        first_violation = int(np.argmax(slack < -tol * scale)) + 1
    differ = xs.size != ys.size or bool(np.max(np.abs(xs - ys)) > tol * scale)
    return MajorizationVerdict(holds, holds and differ, first_violation, margin)


def majorizes(y, x, tol: float = PARTIAL_SUM_TOL) -> MajorizationVerdict:
    """Test x < y: submajorization plus equality of totals."""
    xs = _as_finite_vector(x)
    ys = _as_finite_vector(y)
    if xs.size != ys.size:
        raise ValueError(f"length mismatch: {xs.size} vs {ys.size}")
    verdict = submajorizes(ys, xs, tol)
    trace_gap = abs(float(np.sum(xs)) - float(np.sum(ys)))
    trace_ok = trace_gap <= tol * (1.0 + abs(float(np.sum(ys))))
    if verdict.holds and trace_ok:
        return verdict
    if verdict.holds and not trace_ok:
        # partial sums fine, totals differ: flag the full-length prefix
        return MajorizationVerdict(False, False, xs.size, verdict.margin)
    return MajorizationVerdict(False, False, verdict.first_violation_index, verdict.margin)

