"""Sampled descent curves used as non-minimality witnesses.

A curve starts at the candidate point (t = 0) and stays on the constraint
set (a unitary orbit, a singular-value orbit, or a product of spheres).
Every emitted witness passes one gate, ``trim_to_descent``: it keeps the
curve's prefix whose sampled objective values decrease monotonically and
accepts it only when that prefix drops the objective by more than
``DROP_TOL |f(0)|``.  Both the drop and the monotonicity slack scale with
the curve's own start value, so a rescaled candidate gets the same answer;
``DROP_TOL`` and ``MONOTONE_SLACK`` are read here and nowhere else.
"""

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

CURVE_SAMPLES = 64
DROP_TOL = 1e-10  # a verified drop exceeds DROP_TOL |f(0)|
MONOTONE_SLACK = 1e-12  # a monotone step rises by at most MONOTONE_SLACK |f(0)|


def _same(P):
    return P


@dataclass
class DescentCurve:
    """Sampled curve: ``values[i]`` is the objective at ``point(ts[i])``.
    ``point_fn`` maps an array of n parameters to a stack of n raw points,
    and ``as_point`` turns one raw point into the constraint-set object (the
    identity for matrices, a FrameSequence for frames)."""

    kind: str  # "givens" | "phase" | "gradient_flow" | "escape"
    param: int | None
    ts: np.ndarray
    values: np.ndarray
    verified_drop: float
    point_fn: Callable = field(repr=False, compare=False)
    as_point: Callable = field(default=_same, repr=False, compare=False)

    def point(self, t: float):
        return self.as_point(self.point_fn(np.array([float(t)]))[0])


def log_grid(t_max: float) -> np.ndarray:
    """``CURVE_SAMPLES`` geometrically spaced parameters from 1e-6 t_max to
    t_max."""
    return np.geomspace(t_max * 1e-6, t_max, CURVE_SAMPLES)


def build_curve(kind, param, point_fn, value, ts, as_point=_same) -> DescentCurve:
    """Evaluate the objective along [0] + ts, all samples as one stack;
    ``value`` maps a stack of n raw points to their n objective values."""
    ts_full = np.concatenate([[0.0], np.asarray(ts, dtype=float)])
    values = np.asarray(value(point_fn(ts_full)), dtype=float)
    drop = float(values[0] - values.min())
    return DescentCurve(kind, param, ts_full, values, drop, point_fn, as_point)


def trim_to_descent(curve: DescentCurve):
    """The witness gate: restrict a curve to its monotone decreasing prefix.

    With f(0) the curve's start value, the prefix ends before the first
    sample that rises by more than ``MONOTONE_SLACK |f(0)|``.  Returns the
    prefix, cut at its minimum, when it drops the objective by more than
    ``DROP_TOL |f(0)|``, else None.  Every ``not_local_min`` witness of the
    certifiers and every ``escape_move`` curve is an output of this gate.
    """
    vals = curve.values
    scale = abs(float(vals[0]))
    slack = MONOTONE_SLACK * scale
    end = len(vals)
    for i in range(1, len(vals)):
        if vals[i] > vals[i - 1] + slack:
            end = i
            break
    am = int(np.argmin(vals[:end]))
    if am < 1:
        return None
    drop = float(vals[0] - vals[am])
    if drop <= DROP_TOL * scale:
        return None
    return replace(
        curve,
        ts=curve.ts[: am + 1].copy(),
        values=vals[: am + 1].copy(),
        verified_drop=drop,
    )
