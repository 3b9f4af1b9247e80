"""Distance minimization over singular-value orbits of general matrices.

The orbit of a non-negative non-increasing vector s is every matrix with
singular values s.  The additive singular-value inequality produces the
global minimizer of norm(A - C) on the orbit by writing the candidate in
the singular frames of A.  Local minimizers (for strictly convex norms) are
exactly the matrices admitting a joint SVD with A; the certifier checks the
two Hermitian products, runs the block-diagonal joint decomposition, and
rejects bad candidates with explicit phase or rotation curves.  A candidate
whose products are not Hermitian is rejected with a two-sided gradient flow
when its sampled drop verifies, and is ``inconclusive`` otherwise.
"""

from dataclasses import dataclass

import numpy as np

from . import eig_orbit
from ._kernels import _blockwise
from .curves import (
    DROP_TOL,
    DescentCurve,
    build_curve,
    log_grid,
    trim_to_descent,
)
from .majorization import sort_desc
from .matrices import (
    GAP_TOL,
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
ZERO_SV_ABS = 1e-12


@dataclass
class JointSVD:
    """Joint singular frames: U^H A V = diag(alpha), U^H B V = diag(beta).

    alpha is s(A); beta is real and may carry signs or a non-monotone order,
    which is exactly what certification inspects afterwards.
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


def joint_svd(A, B, tol: float = 1e-8, gap_tol: float = GAP_TOL) -> JointSVD:
    """Simultaneous diagonalization of a pair with Hermitian products.

    Requires A^H B and A B^H Hermitian within ``tol * |A|_F |B|_F``, which
    does not change when A or B is rescaled.  The off-block mass of B and
    the Hermitian defect of each block of B over a nonzero singular value
    of A are held to ``tol * |B|_F``, in B's own units, so a block that
    barely registers in A^H B cannot be replaced by its Hermitian part.  The
    algorithm reduces A to a scalar block form via its SVD, checks that B is
    block diagonal with Hermitian blocks wherever the singular value of A is
    nonzero, diagonalizes those blocks, and takes an SVD of the block over
    the kernel of A.
    """
    tol = check_tol(tol)
    A, B = _pair(A, B)
    d = A.shape[0]
    rA, rB = hermitian_residuals(A, B)
    if max(rA, rB) > tol * frob(A) * frob(B):
        raise ValueError(
            f"joint SVD requires Hermitian products: residuals ({rA:.3e}, {rB:.3e})"
        )
    V0, alpha, U0 = svd(A)
    B1 = V0 @ B @ U0.conj().T
    zero_cut = max(ZERO_SV_REL * float(alpha[0]), ZERO_SV_ABS)
    clusters = cluster_desc(alpha, gap_tol)
    # off-block mass signals numerical inconsistency with the hypothesis
    mask = np.zeros((d, d), dtype=bool)
    for idx in clusters:
        mask[np.ix_(idx, idx)] = True
    off_mass = frob(np.where(mask, 0.0, B1))
    if off_mass > tol * frob(B):
        raise ValueError(f"off-diagonal block mass {off_mass:.3e} exceeds tolerance")
    WL = np.zeros((d, d), dtype=np.complex128)
    WR = np.zeros((d, d), dtype=np.complex128)
    beta = np.empty(d)
    for idx in clusters:
        blk = B1[np.ix_(idx, idx)]
        if float(np.max(alpha[idx])) >= zero_cut:
            herm_defect = frob(blk - blk.conj().T)
            if herm_defect > tol * frob(B):
                raise ValueError(
                    f"non-Hermitian diagonal block (defect {herm_defect:.3e})"
                )
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


def phase_descent_curve(norm: NormSpec, A, joint: JointSVD, ell: int) -> DescentCurve:
    """Curve B(t) = U W(t) D_beta V^H rotating a negative beta entry.

    With beta[ell] < 0 the distance |alpha_ell - e^{it} beta_ell| strictly
    decreases on [0, pi], so the objective strictly decreases while the
    singular values of B(t) stay fixed.
    """
    A = require_square(A)
    beta = joint.beta
    if not beta[ell] < 0:
        raise ValueError(f"beta[{ell}] = {beta[ell]} is not negative")
    U, V = joint.U, joint.V
    Db = np.diag(beta.astype(np.complex128))

    def point(ts):
        w = np.ones((ts.size, beta.size), dtype=np.complex128)
        w[:, ell] = np.exp(1j * ts)
        return U @ (w[:, :, np.newaxis] * Db) @ V.conj().T

    return build_curve("phase", ell, point, distance_from(norm, A), log_grid(np.pi))


def _nonhermitian_witness(norm, A, B, psi0):
    """Descent witness when A^H B or A B^H is not Hermitian, or None.

    Tries the two-sided flows B(t) = exp(t D1) B exp(t D2) along the
    skew-Hermitian parts of P B^H and B^H P, for P the norm gradient and
    then A - B, and returns the first whose trimmed drop verifies.
    """
    drop_req = DROP_TOL * (1.0 + psi0)
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

        return trim_to_descent(
            build_curve("gradient_flow", None, point, value, log_grid(1.0)), drop_req
        )

    for P in (norm_gradient(norm, A - B), A - B):
        curve = flow(P)
        if curve is not None:
            return curve
    return None


def certify_local(norm: NormSpec, A, B, tol: float = 1e-8, seed=0) -> SvCertificate:
    """Certify or reject a candidate local minimizer on its singular orbit.

    Certification route: Hermitian products (within ``tol * |A|_F |B|_F``,
    as in ``joint_svd``) -> joint SVD -> beta must be non-negative (else a
    phase curve drops the objective) and monotonically aligned with alpha
    (else the problem reduces to the Hermitian orbit on the diagonal pair
    and a Givens curve drops it).  Non-Hermitian products get a two-sided
    gradient flow, or ``inconclusive`` when neither flow's drop verifies;
    products that pass while ``joint_svd`` finds B off A's blocks, or a
    block of B non-Hermitian, also give ``inconclusive``.  ``seed`` is
    accepted for compatibility; nothing reads it.
    """
    if not norm.strictly_convex:
        raise ValueError("certification requires a strictly convex norm")
    tol = check_tol(tol)
    A, B = _pair(A, B)
    psi0 = evaluate(norm, A - B)
    rA, rB = hermitian_residuals(A, B)
    scale = frob(A) * frob(B)
    if max(rA, rB) > tol * scale:
        witness = _nonhermitian_witness(norm, A, B, psi0)
        if witness is not None:
            return SvCertificate("not_local_min", (rA, rB), None, witness, psi0)
        return SvCertificate("inconclusive", (rA, rB), None, None, psi0)
    try:
        joint = joint_svd(A, B, tol=tol)
    except ValueError:
        # the products pass, but B mixes singular blocks of A, or has a
        # non-Hermitian block, by more than tol |B|_F: there is no joint SVD
        # to certify from
        return SvCertificate("inconclusive", (rA, rB), None, None, psi0)
    beta = joint.beta
    neg_tol = tol * float(np.max(np.abs(beta)))
    ell = int(np.argmin(beta))
    if beta[ell] < -neg_tol:
        curve = phase_descent_curve(norm, A, joint, ell)
        trimmed = trim_to_descent(curve, DROP_TOL * (1.0 + psi0))
        return SvCertificate("not_local_min", (rA, rB), joint, trimmed or curve, psi0)
    # beta >= 0: misordering against alpha reduces to the Hermitian orbit
    # problem for the diagonal pair
    inner = eig_orbit.certify_local(
        norm, np.diag(joint.alpha), np.diag(np.maximum(beta, 0.0)), tol
    )
    if inner.verdict == "not_local_min" and inner.descent_witness is not None:
        U, V = joint.U, joint.V
        inner_curve = inner.descent_witness

        def point(ts):
            return U @ inner_curve.point_fn(ts) @ V.conj().T

        curve = build_curve(
            inner_curve.kind, inner_curve.param, point, distance_from(norm, A), inner_curve.ts[1:]
        )
        trimmed = trim_to_descent(curve, DROP_TOL * (1.0 + psi0))
        return SvCertificate("not_local_min", (rA, rB), joint, trimmed or curve, psi0)
    return SvCertificate("certified_global", (rA, rB), joint, None, psi0)


def equality_case(A, B, tol: float = 1e-7) -> bool:
    """Equality in the additive singular-value inequality.

    True iff sorted |s(A) - s(B)| equals s(A - B) within tol, which holds
    exactly when A and B admit a joint SVD.
    """
    A, B = _pair(A, B)
    lhs = sort_desc(np.abs(svdvals(A) - svdvals(B)))
    rhs = svdvals(A - B)
    scale = 1.0 + float(rhs[0]) if rhs.size else 1.0
    return bool(np.max(np.abs(lhs - rhs)) <= tol * scale)


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
    takes the singular values of A - X^H D_s Y; the gauge runs on the
    calling thread, once per block.  The values and the state left in a
    shared Generator are those of the per-sample loop.
    """
    A = require_square(A)
    d = A.shape[0]
    s = _target(s, d)
    rng = as_rng(seed)

    def draw(block):
        m = block.stop - block.start
        return rng.standard_normal((m, 2, d, d)), rng.standard_normal((m, 2, d, d))

    def work(gx, gy):
        Xs, Ys = (_haar_qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0)) for g in (gx, gy))
        # conj_t(Xs) written out: a pool thread calls no public function
        Bs = np.conj(np.swapaxes(Xs, -1, -2)) @ (s[:, np.newaxis] * Ys)
        return np.linalg.svd(A[np.newaxis] - Bs, compute_uv=False)

    vals = np.empty(n)
    for block, sv in _blockwise(n, draw, work):
        vals[block] = np.asarray(gauge(norm, sv))
    return vals
