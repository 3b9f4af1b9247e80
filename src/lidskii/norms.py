"""Unitarily invariant norms as symmetric gauge functions of singular values.

Supported kinds: Schatten-p (p >= 1, inf allowed), Ky Fan-k, spectral and
Frobenius.  Strict convexity is classified structurally by kind: exactly the
Schatten norms with 1 < p < inf (Frobenius included as p = 2).
"""

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .matrices import square_stack

# exponent beyond which (sum s^p)^(1/p) is evaluated in stabilized form
_LARGE_P = 50.0


@dataclass(frozen=True)
class NormSpec:
    kind: str  # "schatten" | "kyfan" | "spectral" | "frobenius"
    p: float | None = None
    k: int | None = None

    def __post_init__(self):
        if self.kind == "schatten":
            # written so that a NaN p fails too; p = inf is allowed
            if self.p is None or not self.p >= 1.0:
                raise ValueError("schatten norms require p >= 1")
        elif self.kind == "kyfan":
            if self.k is None or int(self.k) < 1:
                raise ValueError("kyfan norms require a positive integer k")
        elif self.kind not in ("spectral", "frobenius"):
            raise ValueError(f"unknown norm kind: {self.kind!r}")

    @property
    def strictly_convex(self) -> bool:
        if self.kind == "frobenius":
            return True
        if self.kind == "schatten":
            return 1.0 < self.p < math.inf
        return False

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "schatten":
            out["p"] = float(self.p)
        elif self.kind == "kyfan":
            out["k"] = int(self.k)
        return out


def schatten(p: float) -> NormSpec:
    return NormSpec("schatten", p=float(p))


def kyfan(k: int) -> NormSpec:
    return NormSpec("kyfan", k=int(k))


def spectral() -> NormSpec:
    return NormSpec("spectral")


def frobenius() -> NormSpec:
    return NormSpec("frobenius")


def parse_norm(text: str) -> NormSpec:
    """Parse CLI norm syntax: schatten:2 | kyfan:3 | spectral | frobenius."""
    body = text.strip().lower()
    if body in ("spectral", "frobenius"):
        return NormSpec(body)
    if ":" in body:
        kind, _, arg = body.partition(":")
        if kind == "schatten":
            return schatten(math.inf if arg in ("inf", "infinity") else float(arg))
        if kind == "kyfan":
            return kyfan(int(arg))
    raise ValueError(f"cannot parse norm spec {text!r}")


def is_strictly_convex(norm: NormSpec) -> bool:
    return norm.strictly_convex


def gauge(norm: NormSpec, s) -> np.ndarray | float:
    """Symmetric gauge value for non-negative singular values.

    ``s`` may carry leading batch axes; the gauge is applied along the last
    axis.  Entries are assumed sorted non-increasingly (required for kyfan).
    """
    s = np.asarray(s, dtype=float)
    if norm.kind == "frobenius":
        out = np.sqrt(np.sum(s * s, axis=-1))
    elif norm.kind == "spectral":
        out = s[..., 0]
    elif norm.kind == "kyfan":
        k = min(int(norm.k), s.shape[-1])
        out = np.sum(s[..., :k], axis=-1)
    else:  # schatten
        p = norm.p
        if math.isinf(p):
            out = s[..., 0]
        elif p <= _LARGE_P:
            out = _root(np.sum(s**p, axis=-1), 1.0 / p)
        else:
            # factor out the peak so s^p cannot overflow
            m = np.max(s, axis=-1, keepdims=True)
            safe = np.where(m > 0, m, 1.0)
            out = m[..., 0] * _root(np.sum((s / safe) ** p, axis=-1), 1.0 / p)
    if np.ndim(out) == 0:
        return float(out)
    return out


def _root(x, q):
    """x ** q through the C library's pow, for a scalar or elementwise.

    NumPy raises a float64 scalar to a power with the C library but an array
    with its own SIMD pow where the CPU has one, and the two can differ in
    the last bit.  Taking every root from the C library keeps a stacked
    gauge equal, bitwise, to the gauge of each row on its own.
    """
    if np.ndim(x) == 0:
        return x**q
    return np.fromiter(map(math.pow, x.ravel().tolist(), repeat(q)), float, x.size).reshape(x.shape)


def gauge_from_eigs(norm: NormSpec, lam) -> np.ndarray | float:
    """Gauge applied to Hermitian eigenvalues: sort |lam| descending first."""
    lam = np.asarray(lam, dtype=float)
    s = np.sort(np.abs(lam), axis=-1)[..., ::-1]
    return gauge(norm, s)


def evaluate(norm: NormSpec, A) -> np.ndarray | float:
    """Value of the unitarily invariant norm on a square matrix (a float) or
    on every matrix of a ``(..., d, d)`` stack (an array)."""
    return gauge(norm, np.linalg.svd(square_stack(A), compute_uv=False))


def distance_from(norm: NormSpec, S):
    """The objective X -> norm(S - X), on a matrix or a stack of matrices."""

    def value(X):
        return evaluate(norm, S - X)

    return value


def norm_gradient(norm: NormSpec, A) -> np.ndarray:
    """Gradient of A -> norm(A) for smooth (Schatten, 1 < p < inf) norms, on
    a square matrix or on every matrix of a ``(..., d, d)`` stack.

    At A = 0 the norm is not differentiable; the zero matrix is returned.
    """
    if not norm.strictly_convex:
        raise ValueError("norm gradient implemented for strictly convex norms only")
    W, s, Xh = np.linalg.svd(square_stack(A))
    total = np.asarray(gauge(norm, s))[..., np.newaxis]
    p = 2.0 if norm.kind == "frobenius" else norm.p
    # a zero matrix has s = 0: dividing by 1 instead of 0 gives it f = 0
    f = (s / (total + (total == 0.0))) ** (p - 1.0)
    return (W * f[..., np.newaxis, :]) @ Xh
