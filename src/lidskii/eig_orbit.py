"""Distance minimization over unitary orbits of Hermitian matrices.

For a fixed Hermitian S and a spectrum mu, the orbit is the set of Hermitian
G with eigenvalues mu, and the objective is norm(S - G).  The additive
eigenvalue inequality pins down the global minimum: align an eigenbasis of S
(eigenvalues non-increasing) with mu non-increasing.  Candidates are
certified by checking commutation with S plus monotone alignment of the two
spectra in a joint eigenbasis.  A misaligned candidate is rejected with a
two-plane rotation curve along which the objective strictly drops, a
non-commuting one with the norm-adapted commutator flow; either rejection
needs its curve to pass ``curves.trim_to_descent``, and the candidate is
``inconclusive`` otherwise.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .curves import DescentCurve, build_curve, log_grid, trim_to_descent
from .majorization import sort_desc
from .matrices import (
    as_hermitian,
    as_rng,
    check_tol,
    cluster_desc,
    commutator,
    conj_t,
    eigh,
    frob,
    gap_threshold,
    haar_unitary,
    skew_exp,
)
from .norms import NormSpec, distance_from, evaluate, gauge_from_eigs, norm_gradient

@dataclass
class EigCertificate:
    verdict: str  # "certified_global" | "not_local_min" | "inconclusive"
    commutator_residual: float
    joint_basis: np.ndarray | None
    alignment_ok: bool
    descent_witness: DescentCurve | None
    phi: float


def _pair(S, G):
    S = as_hermitian(S)
    G = as_hermitian(G)
    if S.shape != G.shape:
        raise ValueError(f"dim mismatch: {S.shape} vs {G.shape}")
    return S, G


def orbit_distance(norm: NormSpec, S, G) -> float:
    """norm(S - G), the objective on the orbit."""
    S, G = _pair(S, G)
    return evaluate(norm, S - G)


def _spectrum(mu, d):
    """The target spectrum, checked against the dimension d and sorted
    non-increasingly."""
    mu = sort_desc(mu)
    if mu.size != d:
        raise ValueError(f"length mismatch: spectrum {mu.size}, matrix {(d, d)}")
    return mu


def global_minimizer(S, mu) -> np.ndarray:
    """Hermitian matrix with spectrum mu minimizing norm(S - G) on its orbit.

    Built as sum mu_i v_i v_i^H over an eigenbasis of S sorted so that both
    spectra are non-increasing; then the eigenvalues of the difference are
    the sorted componentwise differences, which is optimal for every
    unitarily invariant norm.
    """
    S = as_hermitian(S)
    mu = _spectrum(mu, S.shape[0])
    lam, V = eigh(S)
    G = (V * mu[np.newaxis, :]) @ V.conj().T
    return (G + G.conj().T) / 2.0


def joint_diagonalize(S, G0):
    """Joint eigenbasis of a (numerically) commuting Hermitian pair.

    Diagonalizes S, then re-diagonalizes the compression of G0 inside every
    near-degenerate eigenvalue cluster of S.  Within each cluster the G0
    eigenvalues come out non-increasing, so any remaining increase in nu
    happens across a strict eigenvalue gap of S.

    Returns ``(lam, nu, V, off_residual)``.
    """
    S, G0 = _pair(S, G0)
    lam, V = eigh(S)
    d = lam.size
    nu = np.empty(d)
    for idx in cluster_desc(lam):
        cols = V[:, idx]
        block = cols.conj().T @ G0 @ cols
        block = (block + block.conj().T) / 2.0
        w, W = np.linalg.eigh(block)
        V[:, idx] = cols @ W[:, ::-1]
        nu[idx] = w[::-1]
    off = V.conj().T @ G0 @ V - np.diag(nu)
    return lam, nu, V, frob(off)


def _first_inversion(lam, nu):
    """Smallest j with nu[j] < nu[j+1] across a strict gap of lam, or None."""
    lam = np.asarray(lam, dtype=float)
    nu = np.asarray(nu, dtype=float)
    lam_thresh, nu_thresh = gap_threshold(lam), gap_threshold(nu)
    for j in range(nu.size - 1):
        if nu[j + 1] - nu[j] > nu_thresh and lam[j] - lam[j + 1] > lam_thresh:
            return j
    return None


def _sym(G):
    return (G + conj_t(G)) / 2.0


GIVENS_T_MAX = np.pi / 2 * 0.9999


def plane_rotations(V, j: int, ts):
    """The stack of unitaries V R(t) V^H over ts, where R(t) rotates the j-th
    against the (j+1)-th coordinate by the angle t."""
    R = np.tile(np.eye(V.shape[0], dtype=np.complex128), (ts.size, 1, 1))
    c, s = np.cos(ts), np.sin(ts)
    R[:, j, j] = c
    R[:, j + 1, j + 1] = c
    R[:, j, j + 1] = s
    R[:, j + 1, j] = -s
    return V @ R @ conj_t(V)


def _noncommuting_witness(norm, S, G0):
    """The norm-adapted commutator flow exp(tK) G0 exp(-tK), through the
    witness gate, or None.

    For the smooth strictly convex norms the gradient P = f(S - G0) has f
    strictly increasing, so [P, G0] = 0 would force [S, G0] = 0: at a
    non-commuting candidate the flow K = [P, G0] is non-zero and descends to
    first order.
    """
    P = norm_gradient(norm, S - G0)
    K = P @ G0 - G0 @ P
    size = frob(K)
    if size == 0.0:
        return None
    K = K / size

    def point(ts):
        E = skew_exp(K, ts)
        return _sym(E @ G0 @ conj_t(E))

    curve = build_curve("gradient_flow", None, point, distance_from(norm, S), log_grid(1.0))
    return trim_to_descent(curve)


def certify_local(norm: NormSpec, S, G0, tol: float = 1e-8, seed=0) -> EigCertificate:
    """Certify or reject a candidate local minimizer on its unitary orbit.

    For strictly convex norms local minimizers coincide with global ones:
    the certificate is ``certified_global`` iff the pair commutes, that is
    ``|[S, G0]|_F <= tol * |S|_F |G0|_F`` (scale-free), and the spectra are
    monotonically aligned in a joint basis, up to degeneracy clusters.  A
    commuting pair whose ``joint_diagonalize`` leaves more than
    ``tol * |G0|_F`` of G0 off the diagonal gives ``inconclusive``: the
    rule of ``sv_orbit.certify_local``.  A misaligned commuting
    candidate is rejected with a Givens curve, a non-commuting one with its
    commutator flow; either is ``inconclusive`` when its curve does not
    pass ``trim_to_descent``.  ``seed`` is accepted; nothing reads it.
    """
    if not norm.strictly_convex:
        raise ValueError("certification requires a strictly convex norm")
    tol = check_tol(tol)
    S, G0 = _pair(S, G0)
    phi0 = evaluate(norm, S - G0)
    scale = frob(S) * frob(G0)
    resid = frob(commutator(S, G0))
    if resid > tol * scale:
        V, witness = None, _noncommuting_witness(norm, S, G0)
    else:
        lam, nu, V, off = joint_diagonalize(S, G0)
        if off > tol * frob(G0):
            return EigCertificate("inconclusive", resid, None, False, None, phi0)
        j = _first_inversion(lam, nu)
        if j is None:
            return EigCertificate("certified_global", resid, V, True, None, phi0)
        # lam[j] > lam[j+1] with nu[j] < nu[j+1]: G0 turned by U(t), which
        # rotates the j-th against the (j+1)-th joint eigenvector, strictly
        # shrinks every strictly convex norm on all of t in (0, pi/2)
        def point(ts):
            U = plane_rotations(V, j, ts)
            return _sym(U @ G0 @ conj_t(U))

        curve = build_curve("givens", j, point, distance_from(norm, S), log_grid(GIVENS_T_MAX))
        witness = trim_to_descent(curve)
    verdict = "not_local_min" if witness else "inconclusive"
    return EigCertificate(verdict, resid, V, False, witness, phi0)


def random_orbit_point(mu, seed) -> np.ndarray:
    """Haar-random Hermitian matrix with the given spectrum."""
    mu = sort_desc(mu)
    U = haar_unitary(mu.size, seed)
    G = (U.conj().T * mu[np.newaxis, :]) @ U
    return (G + G.conj().T) / 2.0


def orbit_sample_values(norm: NormSpec, S, mu, n: int, seed) -> np.ndarray:
    """Objective values norm(S - G) over n Haar samples G of the orbit.

    All n Gaussians are drawn as one ``(n, d, d)`` batch on the calling
    thread.  Under the Frobenius norm ``_kernels.orbit_frobenius`` takes
    each value from the entries of S - G; under every other norm
    ``_kernels.orbit_spectra`` returns the spectra and the gauge runs on
    them.  Either kernel works the batch in blocks on its thread pool and
    returns the values of one stacked call, bit for bit.
    """
    S = as_hermitian(S)
    d = S.shape[0]
    mu = _spectrum(mu, d)
    rng = as_rng(seed)
    gaussians = (
        rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    ) / np.sqrt(2.0)
    if norm.kind == "frobenius":
        return _kernels.orbit_frobenius(S, mu.astype(np.complex128), gaussians)
    spectra = _kernels.orbit_spectra(S, mu.astype(np.complex128), gaussians)
    return np.asarray(gauge_from_eigs(norm, spectra))
