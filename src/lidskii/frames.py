"""Frame operator distances on products of spheres.

A frame configuration is a sequence of k vectors in C^d with prescribed
squared norms a_i; its frame operator is the PSD matrix sum of the rank-one
outer products.  The objective is norm(S - S_G) for a fixed PSD target S.
This module provides the water-filling PSD relaxation lower bound, the
closed-form minimizer (``relaxation_minimizer``), the structural tests every
local minimizer must pass (each vector an eigenvector of S - S_G, commuting
spectra, aligned eigenvalues, per-cluster linear independence), the escape
construction off dependent clusters, the global-optimality certificate for
the single-eigenvalue case, and projected gradient descent on the spheres,
which runs seeded restarts in lockstep (``descend_restarts``).

The minimizer is the Schur-Horn frame, in S's eigenbasis, for the spectrum
mu that ``_optimal_spectrum`` water-fills blockwise (first-order check:
``gradient_norm``).  Beyond Frobenius its optimality is measured, not proven:
in Schatten 3 and 1.5 it is the best block partition; no descent beats it.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .curves import build_curve, trim_to_descent
from .majorization import sort_desc
from .matrices import (
    NULLSPACE_TOL,
    as_hermitian,
    as_rng,
    check_tol,
    cluster_desc,
    commutator,
    conj_t,
    eigh,
    eigvalsh_desc,
    frob,
    gap_threshold,
)
from .norms import NormSpec, evaluate, frobenius

SPHERE_TOL = 1e-8
ESCAPE_T_MAX = 0.49


@dataclass
class FrameSequence:
    """k vectors in C^d (columns of ``vectors``) with squared norms ``norms``."""

    vectors: np.ndarray  # (d, k) complex
    norms: np.ndarray  # (k,) positive

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.complex128)
        if self.vectors.ndim != 2:
            raise ValueError("frame vectors must form a d x k array")
        self.norms = np.asarray(self.norms, dtype=float).ravel()
        if self.norms.size != self.vectors.shape[1]:
            raise ValueError("one squared norm per vector is required")
        _check_norms(self.norms)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def count(self) -> int:
        return self.vectors.shape[1]

    def sphere_residuals(self) -> np.ndarray:
        actual = np.sum(np.abs(self.vectors) ** 2, axis=0)
        return np.abs(actual - self.norms) / self.norms

    def validate(self, tol: float = SPHERE_TOL) -> "FrameSequence":
        res = self.sphere_residuals()
        if not np.max(res) <= tol:  # a NaN residual fails too
            raise ValueError(
                f"frame vector off its sphere: worst relative residual {np.max(res):.3e}"
            )
        return self


def _check_norms(a):
    if not np.all((a > 0) & np.isfinite(a)):
        raise ValueError("prescribed squared norms must be positive and finite")


def frame(vectors, norms=None) -> FrameSequence:
    """Build a FrameSequence; squared norms default to the actual ones."""
    V = np.asarray(vectors, dtype=np.complex128)
    if V.ndim != 2:
        raise ValueError("frame vectors must form a d x k array")
    if norms is None:
        norms = np.sum(np.abs(V) ** 2, axis=0)
    return FrameSequence(V, norms)


def random_frame(d: int, a, seed) -> FrameSequence:
    """Uniform random configuration on the product of spheres."""
    a = np.asarray(a, dtype=float).ravel()
    rng = as_rng(seed)
    V = rng.standard_normal((d, a.size)) + 1j * rng.standard_normal((d, a.size))
    V *= np.sqrt(a / np.sum(np.abs(V) ** 2, axis=0))
    return FrameSequence(V, a)


def frame_operator(G: FrameSequence) -> np.ndarray:
    """S_G = sum g_i g_i^H, PSD with trace sum a_i."""
    return _gram(G.vectors)


def _gram(V):
    """Hermitian V V^H for a d x k matrix or each of a stack of them."""
    S = V @ conj_t(V)
    return (S + conj_t(S)) / 2.0


def _target(S, G: FrameSequence):
    """S as a Hermitian matrix, checked against the dimension of the frame G."""
    S = as_hermitian(S)
    if S.shape[0] != G.dim:
        raise ValueError(f"dim mismatch: {S.shape[0]} vs {G.dim}")
    return S


def frame_operator_distance(norm: NormSpec, S, G: FrameSequence) -> float:
    """norm(S - S_G), the generalized frame operator distance."""
    return evaluate(norm, _target(S, G) - frame_operator(G))


def water_fill(lam, t: float):
    """Unique level c <= lam_1 with sum (lam_i - c)^+ = t, plus the spectrum.

    ``lam`` must be non-negative (sorted internally).  The complementary
    spectrum min(c, lam_i) of the residual is non-increasing by construction.
    """
    lam = np.asarray(lam, dtype=float).ravel()
    if lam.size == 0:
        raise ValueError("empty spectrum")
    if np.any(lam < -1e-12 * np.max(np.abs(lam))):
        raise ValueError("water filling requires a non-negative spectrum")
    if not 0 < t < np.inf:
        raise ValueError(f"total mass must be positive and finite, got {t}")
    lam = np.maximum(sort_desc(lam), 0.0)
    c = _level(lam, t)
    return c, np.maximum(lam - c, 0.0)


def _level(lam, t):
    """The water level of a non-increasing ``lam`` at mass t: as
    sum (lam_i - c)^+ >= lam_1 + ... + lam_r - r c for every r, with equality
    where the filled entries end, it is max_r (lam_1 + ... + lam_r - t) / r."""
    return float(np.max((np.cumsum(lam) - t) / np.arange(1, lam.size + 1)))


def psd_lower_bound(norm: NormSpec, S, t: float):
    """Minimum of norm(S - A) over PSD A with trace t, and its minimizer.

    The minimizer clips the spectrum of S at the water-filling level in the
    eigenbasis of S.  Because every frame operator of total mass t is such
    an A, the value lower-bounds the frame distance for all configurations
    with sum a_i = t.
    """
    S = as_hermitian(S)
    lam, V = _psd_eigh(S)
    _c, spec = water_fill(lam, t)
    Aop = (V * spec[np.newaxis, :]) @ V.conj().T
    Aop = (Aop + Aop.conj().T) / 2.0
    return evaluate(norm, S - Aop), Aop


def _psd_eigh(S):
    """``eigh`` of a PSD S, its eigenvalues clipped at 0 (ValueError if not PSD)."""
    lam, V = eigh(S)
    if lam[-1] < -1e-10 * abs(lam[0]):
        raise ValueError("target must be positive semidefinite")
    return np.maximum(lam, 0.0), V


def relaxation_minimizer(S, a) -> FrameSequence:
    """The frame with squared norms a whose operator is closest to S.

    The frame operators of k vectors with squared norms a are the PSD
    matrices whose spectrum mu, padded with zeros to length k, majorizes a
    (Antezana, Massey, Ruiz, Stojanoff, Illinois J. Math. 2007), and by
    Lidskii the best of them with spectrum mu shares S's eigenbasis.  So the
    frame is G = V_S diag(sqrt(mu)) W for ``_optimal_spectrum``'s mu, with W
    real orthogonal and diag(W^T diag(mu) W) = a (``_schur_horn_rotation``).
    When a is majorized by the water-filled spectrum of S, mu is that
    spectrum and G attains ``psd_lower_bound``.  Raises ValueError for a
    non-PSD S.
    """
    a = np.asarray(a, dtype=float).ravel()
    _check_norms(a)
    lam, V = _psd_eigh(S)
    mu = _optimal_spectrum(lam, a)
    m = mu.size
    W = _schur_horn_rotation(np.pad(mu, (0, a.size - m)), a)
    G = (V[:, :m] * np.sqrt(mu)) @ W[:m]
    # the sphere retraction of the descents: a norm off by the rounding of
    # mu's partial sums is put back on its sphere
    G *= np.sqrt(a / np.sum(np.abs(G) ** 2, axis=0))
    return FrameSequence(G, a)


def _optimal_spectrum(lam, a):
    """The non-increasing mu >= 0 of length m = min(d, k) closest to lam[:m]
    (``lam`` the clipped spectrum of S) whose partial sums are at least
    those, B_j, of a sorted non-increasingly, and whose total is sum(a).

    By the KKT conditions mu water-fills consecutive blocks of lam, at
    levels that do not decrease from block to block.  From p on, the block
    ends at the largest j whose water level of lam[p:j] at mass B_j - B_p is
    the least; the last block takes the rest of sum(a), summed in a's own
    order as ``psd_lower_bound`` sums it.  One block is the water-filled
    spectrum.
    """
    m = min(lam.size, a.size)
    bounds = np.append(np.cumsum(sort_desc(a))[: m - 1], np.sum(a))
    mu, p, filled = np.empty(m), 0, 0.0
    while p < m:
        levels = np.array([_level(lam[p:j], bounds[j - 1] - filled) for j in range(p + 1, m + 1)])
        j = p + 1 + int(np.flatnonzero(levels == levels.min())[-1])
        mu[p:j] = np.maximum(lam[p:j] - levels[j - p - 1], 0.0)
        p, filled = j, bounds[j - 1]
    return mu


def _schur_horn_rotation(lam, a):
    """Real orthogonal W with diag(W^T diag(lam) W) = a, for a non-increasing
    ``lam`` that majorizes ``a``.

    With b = a sorted non-increasingly and x the current diagonal (first
    ``lam``), each step is a T-transform (Marshall and Olkin, *Inequalities*,
    2.B.1): j is the last index with x_j > b_j before the last x_l < b_l
    (a surplus after it is rounding, as the totals agree), l the first
    index after j with x_l < b_l, and a Givens rotation in the (j, l) plane
    moves min(x_j - b_j, b_l - x_l) from x_j to x_l.  x stays
    non-increasing and majorizes b, and each step sets one more entry to b,
    so at most k - 1 steps are taken.  Every set of coordinates joined by
    earlier rotations holds at most one unmatched entry, so entry (j, l) of
    W^T diag(lam) W is still 0 and the rotation changes only x_j and x_l.
    The columns are put back in the order of ``a``.
    """
    order = np.argsort(-a, kind="stable")
    b = a[order]
    x = np.array(lam, dtype=float)
    W = np.eye(a.size)
    for _ in range(a.size - 1):
        below = np.flatnonzero(x < b)
        above = np.flatnonzero(x[: below[-1]] > b[: below[-1]]) if below.size else below
        if above.size == 0:
            break
        j = above[-1]
        l = below[below > j][0]
        over, under = x[j] - b[j], b[l] - x[l]
        delta = min(over, under)
        s2 = delta / (x[j] - x[l])
        c, s = np.sqrt(1.0 - s2), np.sqrt(s2)
        W[:, [j, l]] = W[:, [j, l]] @ np.array([[c, -s], [s, c]])
        x[j] = b[j] if over <= under else x[j] - delta
        x[l] = b[l] if under <= over else x[l] + delta
    out = np.empty_like(W)
    out[:, order] = W
    return out


def fitted_eigenvalues(S, G: FrameSequence):
    """Rayleigh quotients c_j of S - S_G on each frame vector, with relative
    residuals ||(S - S_G) g_j - c_j g_j|| / ||g_j||."""
    S = _target(S, G)
    E = S - frame_operator(G)
    V = G.vectors
    norms2 = np.sum(np.abs(V) ** 2, axis=0)
    Ev = E @ V
    fitted = np.real(np.sum(np.conj(V) * Ev, axis=0)) / norms2
    resid = np.linalg.norm(Ev - V * fitted[np.newaxis, :], axis=0) / np.sqrt(norms2)
    return fitted, resid


@dataclass
class ClusterInfo:
    value: float
    indices: np.ndarray
    span_dim: int
    independence_required: bool
    independent: bool


@dataclass
class FodStructureReport:
    eigvec_residuals: np.ndarray
    fitted_values: np.ndarray
    commute_residual: float
    lidskii_aligned: bool
    clusters: list
    verdict: str  # "consistent_with_local_min" | "violates_structure"
    witness: str | None


def _fitted_clusters(fitted, vectors, *scale):
    """Fitted-eigenvalue clusters, ascending, at the gap threshold of ``scale``,
    with the rank of each cluster's span."""
    order = np.argsort(fitted)[::-1]
    groups_desc = []
    for idx in cluster_desc(fitted[order], *scale):
        groups_desc.append(order[idx])
    clusters = []
    for members in reversed(groups_desc):
        members = np.sort(members)
        cols = vectors[:, members]
        sv = np.linalg.svd(cols, compute_uv=False)
        rank = int(np.sum(sv > NULLSPACE_TOL * sv[0])) if sv[0] > 0 else 0
        clusters.append((float(np.mean(fitted[members])), members, rank))
    return clusters


def structure_check(norm: NormSpec, S, G0: FrameSequence, tol: float = 1e-6) -> FodStructureReport:
    """Evaluate the structural conditions a local minimizer must satisfy.

    Checks, in order: each vector is an eigenvector of S - S_G, S and S_G
    commute (within ``tol * |S|_F |S_G|_F``), the spectrum of S - S_G equals
    the sorted difference of spectra, and every fitted-eigenvalue cluster
    below some other eigenvalue of S - S_G is linearly independent.  The
    residuals are held to ``tol * (|S|_F + |S_G|_F)``, the gaps to the
    ``gap_threshold`` of the spectra of S and S_G.  The verdict, the same for
    a rescaled or rotated input, carries the first failed condition.
    """
    if not norm.strictly_convex:
        raise ValueError("structure conditions apply to strictly convex norms")
    tol = check_tol(tol)
    if G0.count == 0:
        raise ValueError("empty frame")
    G0.validate()
    S = _target(S, G0)
    S0 = frame_operator(G0)
    E = S - S0
    fitted, resid = fitted_eigenvalues(S, G0)
    commute_residual = frob(commutator(S, S0))
    lamE = eigvalsh_desc(E)
    lamS, lamS0 = eigvalsh_desc(S), eigvalsh_desc(S0)
    scale = frob(S) + frob(S0)
    aligned = bool(np.max(np.abs(lamE - sort_desc(lamS - lamS0))) <= tol * scale)
    gap = gap_threshold(lamS, lamS0)
    clusters = []
    for value, members, rank in _fitted_clusters(fitted, G0.vectors, lamS, lamS0):
        required = bool(np.any(lamE > value + gap))
        clusters.append(
            ClusterInfo(value, members, rank, required, rank == members.size)
        )
    verdict, witness = "consistent_with_local_min", None
    worst = int(np.argmax(resid))
    if resid[worst] > tol * scale:
        verdict = "violates_structure"
        witness = f"eigenvector_residual(j={worst}, residual={resid[worst]:.3e})"
    elif commute_residual > tol * frob(S) * frob(S0):
        verdict = "violates_structure"
        witness = f"commutator(residual={commute_residual:.3e})"
    elif not aligned:
        verdict = "violates_structure"
        witness = "lidskii_alignment"
    else:
        for info in clusters:
            if info.independence_required and not info.independent:
                verdict = "violates_structure"
                witness = f"dependent_cluster(value={info.value:.6g})"
                break
    return FodStructureReport(
        resid, fitted, commute_residual, aligned, clusters, verdict, witness
    )


def certify_uniform_eigenvalue(norm: NormSpec, S, G0: FrameSequence, tol: float = 1e-8) -> str:
    """Global certificate when S - S_G acts as one scalar on every vector.

    Requires k >= d.  When a common fitted eigenvalue c1 exists, a true
    local minimizer must have spectrum ((lam_i(S) - c1)^+): then the
    configuration meets the PSD relaxation bound and is globally optimal.
    Returns "certified_global", "not_applicable" (no common eigenvalue), or
    "violates" (common eigenvalue but wrong spectrum).  Residuals are held
    to ``tol * (|S|_F + |S_G|_F)``, as in ``structure_check``.
    """
    if not norm.strictly_convex:
        raise ValueError("certification requires a strictly convex norm")
    tol = check_tol(tol)
    if G0.count < G0.dim:
        raise ValueError("the single-eigenvalue certificate requires k >= d")
    G0.validate()
    S = _target(S, G0)
    lamS = eigvalsh_desc(S)
    if lamS[-1] < -tol * abs(lamS[0]):
        raise ValueError("target must be positive semidefinite")
    S0 = frame_operator(G0)
    E = S - S0
    V = G0.vectors
    c1 = float(np.sum(np.real(np.sum(np.conj(V) * (E @ V), axis=0))) / np.sum(G0.norms))
    resid = np.linalg.norm(E @ V - c1 * V, axis=0) / np.sqrt(
        np.sum(np.abs(V) ** 2, axis=0)
    )
    scale = frob(S) + frob(S0)
    if np.max(resid) > tol * scale:
        return "not_applicable"
    expected = sort_desc(np.maximum(lamS - c1, 0.0))
    if np.max(np.abs(eigvalsh_desc(S0) - expected)) > tol * scale:
        return "violates"
    return "certified_global"


@dataclass
class DescentOptions:
    """Descent settings; ``max_iters`` None is the objective's own budget
    (20000 iterations for the squared Frobenius distance, 4000 for a norm)."""

    max_iters: int | None = None
    grad_tol: float = 1e-9
    armijo_c: float = 1e-4
    backtrack: float = 0.5


@dataclass
class DescentTrace:
    """Iteration log: the objective at the start and after each accepted
    step, the last gradient norm, and why the descent stopped.

    ``stop`` is "converged" (gradient norm below ``grad_tol``),
    "stalled_line_search", "max_iters" or, for a non-Frobenius norm,
    "no_progress": over the last 100 iterations the gradient norm set no new
    minimum and the value fell by at most 1e-15 (1 + value).  Only
    "converged" sets ``converged``.  Each step backtracks from a
    Barzilai-Borwein step, so ``iterations`` counts accepted steps of
    varying length (see ``_kernels.lockstep_descent``)."""

    objective: np.ndarray
    grad_norm: float
    iterations: int
    converged: bool
    stop: str


def descend_restarts(norm: NormSpec, S, a, seeds, opts: DescentOptions | None = None):
    """Descend one seeded restart per entry of ``seeds``, all in lockstep as
    one ``(B, d, k)`` stack; returns (FrameSequence, DescentTrace) pairs in
    seed order.  Each restart gives bitwise the result it gives on its own.

    The Frobenius norm descends the squared distance as ``gradient_descent``
    does.  Every other smooth strictly convex norm descends the norm value
    (default budget 4000 iterations) with the same retraction,
    Barzilai-Borwein step and gradient-norm test, and Armijo backtracking on
    the norm value itself (a step within 1e-15 (1 + value) of the current
    value is also accepted).  It adds a no-progress stop (see
    ``DescentTrace``): at an attainable target the norm is not
    differentiable at the optimum, so the gradient norm does not fall below
    ``grad_tol`` and without it a descent would run to the budget.
    """
    objective = _objective(norm)
    S = as_hermitian(S)
    a = np.asarray(a, dtype=float).ravel()
    _check_norms(a)
    opts = opts or DescentOptions()
    max_iters = objective.max_iters if opts.max_iters is None else opts.max_iters
    G0 = np.stack([random_frame(S.shape[0], a, s).vectors for s in seeds])
    G, traces, gnorms, stops = _kernels.lockstep_descent(
        objective, S, G0, a, max_iters, opts.grad_tol, opts.armijo_c, opts.backtrack
    )
    stops = [_kernels.STOPS[code] for code in stops.tolist()]
    if "diverged" in stops or not all(np.isfinite(t).all() for t in traces):
        raise FloatingPointError("frame descent diverged to a non-finite objective")
    return [
        (
            FrameSequence(G[i], a),
            DescentTrace(trace, float(gnorms[i]), len(trace) - 1, stop == "converged", stop),
        )
        for i, (trace, stop) in enumerate(zip(traces, stops))
    ]


def _objective(norm: NormSpec):
    """The descent objective: the squared distance for Frobenius, else the norm."""
    return _kernels.SquaredFrobenius if norm.kind == "frobenius" else _kernels.NormDistance(norm)


def gradient_norm(norm: NormSpec, S, G: FrameSequence) -> float:
    """The descent's gradient norm at G, bitwise its iteration 0 from G."""
    V = np.ascontiguousarray(G.vectors)[np.newaxis]
    X = _target(S, G) - V @ conj_t(V)
    return float(np.sqrt(_kernels._riemannian_gradient(_objective(norm), X, V, G.norms)[1][0]))


def gradient_descent(S, a, seed=0, opts: DescentOptions | None = None):
    """Projected gradient descent for the squared Frobenius frame distance.

    The Euclidean gradient with respect to g_i is -4 (S - S_G) g_i; steps
    retract onto the spheres by rescaling, with Armijo backtracking from a
    Barzilai-Borwein step built from the last move (alternating BB1 and
    BB2), or from 1 / (8 lam_1(S_G) + 1) on the first iteration and where
    the BB quotient is not a finite positive number.  Runs until the
    Riemannian gradient norm falls below ``grad_tol``, the line search
    stalls or the iteration budget is spent; the objective trace is
    non-increasing within line-search resolution.  Deterministic per seed.
    """
    return descend_restarts(frobenius(), S, a, [seed], opts)[0]


def escape_move(S, G0: FrameSequence, cluster_index: int):
    """Descent curve off a linearly dependent fitted-eigenvalue cluster.

    Applicable when the cluster's vectors are dependent and some eigenvalue
    of S - S_G strictly exceeds the cluster value: a kernel combination of
    the cluster is traded against an eigenvector of the larger eigenvalue,
    staying on the spheres while the spectrum strictly drops in majorization
    order.  Returns None when the preconditions fail or the curve does not
    pass ``curves.trim_to_descent``; sampled values use the Frobenius norm
    (the guarantee covers every strictly convex norm).
    """
    norm = frobenius()
    G0.validate()
    S = _target(S, G0)
    S0 = frame_operator(G0)
    E = S - S0
    fitted, _resid = fitted_eigenvalues(S, G0)
    lamS, lamS0 = eigvalsh_desc(S), eigvalsh_desc(S0)
    clusters = _fitted_clusters(fitted, G0.vectors, lamS, lamS0)
    if not 0 <= cluster_index < len(clusters):
        raise ValueError(f"cluster index {cluster_index} out of range")
    c_val, members, rank = clusters[cluster_index]
    if rank >= members.size:
        return None
    lamE, VE = eigh(E)
    above = np.where(lamE > c_val + gap_threshold(lamS, lamS0))[0]
    if above.size == 0:
        return None
    target = above[0]  # largest eigenvalue strictly above the cluster
    h = VE[:, target].copy()
    # scaled kernel combination: sum conj(z_l) sqrt(a_l) g_l = 0
    cols = G0.vectors[:, members] * np.sqrt(G0.norms[members])[np.newaxis, :]
    w_span, sv, vt = np.linalg.svd(cols)
    # right null vector of cols is conj(vt[-1]), so cols @ conj(z) = 0 here
    z = vt[-1].copy()
    z = z * (0.5 / np.max(np.abs(z)))
    # keep the spheres exact: h must be orthogonal to the traded vectors,
    # i.e. to the actual span (rank many left singular vectors)
    q = w_span[:, :rank]
    h = h - q @ (q.conj().T @ h)
    hn = np.linalg.norm(h)
    if hn < 1e-8:
        return None
    h = h / hn

    a = G0.norms

    def point(ts):
        t = ts[:, np.newaxis]
        V = np.repeat(G0.vectors[np.newaxis], ts.size, axis=0)
        for pos, ell in enumerate(members):
            zl = z[pos]
            if zl == 0:
                continue
            V[:, :, ell] = (
                np.sqrt(1.0 - t * t * abs(zl) ** 2) * G0.vectors[:, ell]
                + t * zl * np.sqrt(a[ell]) * h
            )
        return V

    def value(V):
        return evaluate(norm, S - _gram(V))

    ts = np.geomspace(ESCAPE_T_MAX * 1e-4, ESCAPE_T_MAX, 64)
    curve = build_curve(
        "escape", cluster_index, point, value, ts, lambda V: FrameSequence(V, a)
    )
    return trim_to_descent(curve)
