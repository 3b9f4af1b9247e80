"""Sampled descent curves used as non-minimality witnesses.

A curve starts at the candidate point (t = 0) and stays on the constraint
set (a unitary orbit, a singular-value orbit, or a product of spheres).
Emitted witnesses are trimmed to a prefix whose sampled objective values
decrease monotonically (within a tiny slack) so the drop is verifiable.
"""

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

CURVE_SAMPLES = 64
DROP_TOL = 1e-10  # relative threshold for a verified drop
MONOTONE_SLACK = 1e-12


def _same(P):
    return P


@dataclass
class DescentCurve:
    """Sampled curve.  ``point_fn`` maps an array of n parameters to a stack
    of n raw points, ``value_fn`` maps such a stack to its n objective
    values, and ``as_point`` turns one raw point into the constraint-set
    object (the identity for matrices, a FrameSequence for frames)."""

    kind: str  # "givens" | "phase" | "gradient_flow" | "escape"
    param: int | None
    ts: np.ndarray
    values: np.ndarray
    verified_drop: float
    point_fn: Callable = field(repr=False, compare=False)
    value_fn: Callable = field(repr=False, compare=False)
    as_point: Callable = field(default=_same, repr=False, compare=False)

    def point(self, t: float):
        return self.as_point(self.point_fn(np.array([float(t)]))[0])

    def sample(self, t: float):
        """Return (point on the constraint set, objective value) at t."""
        P = self.point_fn(np.array([float(t)]))
        return self.as_point(P[0]), float(self.value_fn(P)[0])


def log_grid(t_max: float) -> np.ndarray:
    """``CURVE_SAMPLES`` geometrically spaced parameters from 1e-6 t_max to
    t_max."""
    return np.geomspace(t_max * 1e-6, t_max, CURVE_SAMPLES)


def build_curve(kind, param, point_fn, value_fn, ts, as_point=_same) -> DescentCurve:
    """Evaluate the objective along [0] + ts, all samples as one stack."""
    ts_full = np.concatenate([[0.0], np.asarray(ts, dtype=float)])
    values = np.asarray(value_fn(point_fn(ts_full)), dtype=float)
    drop = float(values[0] - values.min())
    return DescentCurve(kind, param, ts_full, values, drop, point_fn, value_fn, as_point)


def trim_to_descent(curve: DescentCurve, drop_req: float):
    """Restrict a curve to its monotone decreasing prefix.

    Returns the trimmed curve when the prefix verifies a drop larger than
    ``drop_req``, else None.  The emitted samples end at the prefix minimum,
    so they decrease monotonically within ``MONOTONE_SLACK * (1 + |f(0)|)``.
    """
    vals = curve.values
    slack = MONOTONE_SLACK * (1.0 + abs(float(vals[0])))
    end = len(vals)
    for i in range(1, len(vals)):
        if vals[i] > vals[i - 1] + slack:
            end = i
            break
    prefix = vals[:end]
    am = int(np.argmin(prefix))
    if am < 1:
        return None
    drop = float(vals[0] - vals[am])
    if drop <= drop_req:
        return None
    return replace(
        curve,
        ts=curve.ts[: am + 1].copy(),
        values=vals[: am + 1].copy(),
        verified_drop=drop,
    )
