"""Distance minimization over singular-value orbits of general matrices.

The orbit of a non-negative non-increasing vector s is every matrix with
singular values s.  The additive singular-value inequality produces the
global minimizer of norm(A - C) on the orbit by writing the candidate in
the singular frames of A.  Local minimizers (for strictly convex norms) are
exactly the matrices admitting a joint SVD with A; the certifier checks the
two Hermitian products, decomposes B in A's singular blocks under the rule
of ``eig_orbit`` (the joint decomposition must describe B within
``tol |B|_F``), and rejects bad candidates with phase or rotation curves
that act on B itself.  A candidate whose products are not Hermitian is
rejected with a two-sided gradient flow when its sampled drop verifies, and
is ``inconclusive`` otherwise.
"""

from dataclasses import dataclass

import numpy as np

from . import eig_orbit
from ._kernels import _blockwise, _frobenius_rows
from .curves import DescentCurve, build_curve, log_grid, trim_to_descent
from .majorization import sort_desc
from .matrices import (
    _haar_qr,
    as_rng,
    check_tol,
    cluster_desc,
    conj_t,
    frob,
    require_square,
    skew_exp,
    svd,
    svdvals,
)
from .norms import NormSpec, distance_from, evaluate, gauge, norm_gradient

ZERO_SV_REL = 1e-9


@dataclass
class JointSVD:
    """Joint singular frames: U^H A V = diag(alpha), U^H B V = diag(beta),
    each within its Frobenius residual.

    alpha is s(A); beta is real and may carry signs or a non-monotone order,
    which is exactly what certification inspects afterwards.  residual_b is
    B's mass off A's singular blocks and the skew-Hermitian part of its
    blocks over nonzero singular values.
    """

    U: np.ndarray
    V: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    residual_a: float
    residual_b: float


@dataclass
class SvCertificate:
    verdict: str  # "certified_global" | "not_local_min" | "inconclusive"
    hermitian_residuals: tuple
    joint: JointSVD | None
    descent_witness: DescentCurve | None
    psi: float


def _pair(A, B):
    A = require_square(A)
    B = require_square(B)
    if A.shape != B.shape:
        raise ValueError(f"dim mismatch: {A.shape} vs {B.shape}")
    return A, B


def orbit_distance(norm: NormSpec, A, C) -> float:
    """norm(A - C), the objective on the singular-value orbit."""
    A, C = _pair(A, C)
    return evaluate(norm, A - C)


def _target(s, d):
    """The target singular values, checked against the dimension d and sorted
    non-increasingly."""
    s = np.asarray(s, dtype=float).ravel()
    if s.size != d:
        raise ValueError(f"length mismatch: {s.size} vs {d}")
    if np.any(s < 0):
        raise ValueError("target singular values must be non-negative")
    return sort_desc(s)


def global_minimizer(A, s) -> np.ndarray:
    """Matrix with singular values s minimizing norm(A - C) on the orbit.

    Shares the singular frames of A, so the difference has singular values
    |s(A) - s| sorted non-increasingly.
    """
    A = require_square(A)
    s = _target(s, A.shape[0])
    V, sa, U = svd(A)
    return (V.conj().T * s[np.newaxis, :]) @ U


def hermitian_residuals(A, B):
    """Frobenius defects of A^H B and A B^H from being Hermitian."""
    A, B = _pair(A, B)
    P = A.conj().T @ B
    Q = A @ B.conj().T
    return frob(P - P.conj().T), frob(Q - Q.conj().T)


def joint_svd(A, B, tol: float = 1e-8) -> JointSVD:
    """Simultaneous diagonalization of a pair with Hermitian products.

    Requires A^H B and A B^H Hermitian within ``tol * |A|_F |B|_F``, which
    does not change when A or B is rescaled.  The SVD of A gives its blocks,
    the ``cluster_desc`` groups of s(A) and a kernel of the singular values
    at most ``ZERO_SV_REL * s_1(A)`` (all of it when A = 0); B's block over
    a nonzero singular value is replaced by its Hermitian part and
    diagonalized, its kernel block gets an SVD.  As in ``eig_orbit``, the
    result must describe B within ``tol * |B|_F``, in B's own units, so a
    block that barely registers in A^H B cannot be replaced by its Hermitian
    part.  Raises ValueError when a test fails.
    """
    tol = check_tol(tol)
    A, B = _pair(A, B)
    rA, rB = hermitian_residuals(A, B)
    if max(rA, rB) > tol * frob(A) * frob(B):
        raise ValueError(
            f"joint SVD requires Hermitian products: residuals ({rA:.3e}, {rB:.3e})"
        )
    joint = _joint_blocks(A, B)
    if joint.residual_b > tol * frob(B):
        raise ValueError(
            f"B is not diagonal in A's singular frames: residual {joint.residual_b:.3e} "
            "exceeds tol |B|_F"
        )
    return joint


def _joint_blocks(A, B):
    """The block stage of ``joint_svd``, after its products test: the
    JointSVD from the Hermitian part of each block of B over a nonzero
    singular value of A and an SVD of the block over A's kernel."""
    d = A.shape[0]
    V0, alpha, U0 = svd(A)
    B1 = V0 @ B @ U0.conj().T
    WL = np.zeros((d, d), dtype=np.complex128)
    WR = np.zeros((d, d), dtype=np.complex128)
    beta = np.empty(d)
    for idx in cluster_desc(alpha):
        blk = B1[np.ix_(idx, idx)]
        if float(np.max(alpha[idx])) > ZERO_SV_REL * alpha[0]:
            w, W = np.linalg.eigh((blk + blk.conj().T) / 2.0)
            WL[np.ix_(idx, idx)] = W[:, ::-1]
            WR[np.ix_(idx, idx)] = W[:, ::-1]
            beta[idx] = w[::-1]
        else:
            Vb, g, Ub = svd(blk)
            WL[np.ix_(idx, idx)] = Vb.conj().T
            WR[np.ix_(idx, idx)] = Ub.conj().T
            beta[idx] = g
    U = V0.conj().T @ WL
    V = U0.conj().T @ WR
    residual_a = frob(U.conj().T @ A @ V - np.diag(alpha))
    residual_b = frob(U.conj().T @ B @ V - np.diag(beta))
    return JointSVD(U, V, alpha, beta, residual_a, residual_b)


def _nonhermitian_witness(norm, A, B):
    """Descent witness when A^H B or A B^H is not Hermitian, or None.

    Tries the two-sided flows B(t) = exp(t D1) B exp(t D2) along the
    skew-Hermitian parts of P B^H and B^H P, for P the norm gradient and
    then A - B, and returns the first that passes ``trim_to_descent``.
    """
    value = distance_from(norm, A)

    def flow(P):
        d1 = P @ B.conj().T
        d1 = (d1 - d1.conj().T) / 2.0
        d2 = B.conj().T @ P
        d2 = (d2 - d2.conj().T) / 2.0
        nrm = np.sqrt(frob(d1) ** 2 + frob(d2) ** 2)
        if nrm == 0.0:
            return None
        D = np.stack([d1 / nrm, d2 / nrm])

        def point(ts):
            E = skew_exp(D, ts[:, np.newaxis])
            return E[:, 0] @ B @ E[:, 1]

        return trim_to_descent(build_curve("gradient_flow", None, point, value, log_grid(1.0)))

    for P in (norm_gradient(norm, A - B), A - B):
        curve = flow(P)
        if curve is not None:
            return curve
    return None


def certify_local(norm: NormSpec, A, B, tol: float = 1e-8, seed=0) -> SvCertificate:
    """Certify or reject a candidate local minimizer on its singular orbit.

    Certification route: Hermitian products (within ``tol * |A|_F |B|_F``,
    as in ``joint_svd``) -> a joint SVD that describes B within
    ``tol * |B|_F``, as ``eig_orbit`` requires of its joint eigenbasis (else
    ``inconclusive``) -> beta must be non-negative (else the phase curve
    U W(t) U^H B drops the objective) and monotonically aligned with alpha
    (else the Givens curve P_U(t) B P_V(t)^H, lifted from the diagonal pair
    by both joint frames, drops it).  Both curves start at B and keep its
    singular values.  Non-Hermitian products get a two-sided gradient flow.
    Each rejection needs its curve to pass ``curves.trim_to_descent`` and is
    ``inconclusive`` otherwise.  ``seed`` is accepted for compatibility;
    nothing reads it.
    """
    if not norm.strictly_convex:
        raise ValueError("certification requires a strictly convex norm")
    tol = check_tol(tol)
    A, B = _pair(A, B)
    psi0 = evaluate(norm, A - B)
    rA, rB = hermitian_residuals(A, B)
    scale = frob(A) * frob(B)
    if max(rA, rB) > tol * scale:
        joint, witness = None, _nonhermitian_witness(norm, A, B)
    else:
        joint = _joint_blocks(A, B)
        if joint.residual_b > tol * frob(B):
            # the products pass, but the joint SVD leaves more than
            # tol |B|_F of B undescribed: there is none to certify from
            return SvCertificate("inconclusive", (rA, rB), None, None, psi0)
        U, V, beta = joint.U, joint.V, joint.beta
        value = distance_from(norm, A)
        ell = int(np.argmin(beta))
        if beta[ell] < -tol * float(np.max(np.abs(beta))):
            # |alpha_ell - e^{it} beta_ell| strictly decreases on [0, pi], so
            # turning the phase of the negative pair by W(t) drops the
            # objective while the singular values stay fixed
            UhB = U.conj().T @ B

            def point(ts):
                w = np.ones((ts.size, beta.size), dtype=np.complex128)
                w[:, ell] = np.exp(1j * ts)
                return U @ (w[:, :, np.newaxis] * UhB)

            curve = build_curve("phase", ell, point, value, log_grid(np.pi))
        else:
            # beta >= 0, non-increasing inside each cluster of alpha: a
            # misordering across a gap is one of the Hermitian diagonal pair,
            # whose Givens rotation both joint frames lift
            j = eig_orbit._first_inversion(joint.alpha, np.maximum(beta, 0.0))
            if j is None:
                return SvCertificate("certified_global", (rA, rB), joint, None, psi0)

            def point(ts):
                PU, PV = (eig_orbit.plane_rotations(X, j, ts) for X in (U, V))
                return PU @ B @ conj_t(PV)

            curve = build_curve("givens", j, point, value, log_grid(eig_orbit.GIVENS_T_MAX))
        witness = trim_to_descent(curve)
    verdict = "not_local_min" if witness else "inconclusive"
    return SvCertificate(verdict, (rA, rB), joint, witness, psi0)


def equality_case(A, B, tol: float = 1e-7) -> bool:
    """Equality in the additive singular-value inequality.

    True iff sorted |s(A) - s(B)| equals s(A - B) within
    ``tol * max(s_1(A), s_1(B))``, which holds exactly when A and B admit a
    joint SVD.
    """
    A, B = _pair(A, B)
    sa, sb = svdvals(A), svdvals(B)
    lhs = sort_desc(np.abs(sa - sb))
    rhs = svdvals(A - B)
    return bool(np.max(np.abs(lhs - rhs)) <= tol * max(sa[0], sb[0]))


def sv_orbit_sample_values(norm: NormSpec, A, s, n: int, seed) -> np.ndarray:
    """Objective values over n Haar samples X^H D_s Y of the orbit.

    The samples are taken in blocks of 512 (``_kernels.SAMPLE_BLOCK``; the
    last block holds the rest), which bounds the memory.  A block of m
    samples draws the Gaussians of all its X's with one
    ``standard_normal((m, 2, d, d))`` (real, then imaginary part of each
    sample), then those of its Y's the same way, all on the calling thread.
    That is the stream one ``haar_unitary(d, rng)`` per sample reads, the
    block's X's before its Y's.  A pool thread (``_kernels._blockwise``)
    turns each draw into unitaries with the stacked QR of ``haar_qr`` and
    forms the residuals A - X^H D_s Y.  Under the Frobenius norm the same
    thread takes each value from the residual's entries; under every other
    norm it takes the singular values, and the gauge runs on the calling
    thread, once per block.  The values and the state left in a shared
    Generator are those of the per-sample loop.
    """
    A = require_square(A)
    d = A.shape[0]
    s = _target(s, d)
    rng = as_rng(seed)
    entrywise = norm.kind == "frobenius"

    def draw(block):
        m = block.stop - block.start
        return rng.standard_normal((m, 2, d, d)), rng.standard_normal((m, 2, d, d))

    def work(gx, gy):
        Xs, Ys = (_haar_qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0)) for g in (gx, gy))
        # conj_t(Xs) written out: a pool thread calls no public function
        Bs = np.conj(np.swapaxes(Xs, -1, -2)) @ (s[:, np.newaxis] * Ys)
        R = A[np.newaxis] - Bs
        return _frobenius_rows(R) if entrywise else np.linalg.svd(R, compute_uv=False)

    vals = np.empty(n)
    for block, w in _blockwise(n, draw, work):
        vals[block] = w if entrywise else np.asarray(gauge(norm, w))
    return vals
