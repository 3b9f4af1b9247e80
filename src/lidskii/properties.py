"""Seeded fuzz suites for the package invariants.

Each suite draws deterministic instances from a child seed and returns one
margin per check (positive margins mean slack was left; negative means
violation), or a ``(margins, findings)`` pair when it also records findings.
``SUITES`` names every suite once, in run order, with its small-scale
counts; ``run_all`` runs them at the requested scale and counts failures
and the worst margin of each.  Results are plain data, so summaries
serialize bit-stably for a fixed seed.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _kernels, eig_orbit, frames, majorization as mj, sv_orbit
from .matrices import (
    as_rng,
    commutant_is_trivial,
    dilate,
    eigh,
    eigvalsh_desc,
    frob,
    haar_unitary,
    pair_submersion_test,
    random_general,
    random_hermitian,
    skew_exp,
    svd,
    svdvals,
    unit_skew,
)
from .norms import evaluate, frobenius, gauge_from_eigs, kyfan, schatten, spectral

ALL_NORMS = (frobenius(), schatten(1.5), schatten(3), schatten(1), spectral(), kyfan(2))
CONVEX_NORMS = (frobenius(), schatten(1.5), schatten(4))


@dataclass
class PropertyResult:
    name: str
    count: int
    failures: int
    worst_margin: float
    findings: list

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _result(name, margins, findings):
    margins = np.asarray(margins, dtype=float)
    failures = int(np.sum(margins < 0))
    worst = float(np.min(margins)) if margins.size else 0.0
    return PropertyResult(name, int(margins.size), failures, worst, findings)


def _rand_dim(rng, lo=2, hi=6):
    return int(rng.integers(lo, hi + 1))


# ---------------------------------------------------------------------------
# majorization


def prop_majorization_reflexivity(n, seed):
    rng = as_rng(seed)
    margins = []
    for _ in range(n):
        x = rng.standard_normal(_rand_dim(rng, 2, 8)) * 3.0
        v = mj.majorizes(x, x)
        margins.append(1.0 if (v.holds and not v.strict) else -1.0)
    return margins


def prop_majorization_entrywise(n, seed):
    rng = as_rng(seed)
    margins = []
    for _ in range(n):
        d = _rand_dim(rng, 2, 8)
        x = rng.standard_normal(d) * 2.0
        y = x + np.abs(rng.standard_normal(d))
        v = mj.submajorizes(y, x)
        margins.append(v.margin if v.holds else -1.0)
    return margins


def _majorized_sample(rng, y):
    # convex combinations of permutations of y are majorized by y
    d = y.size
    x = np.zeros(d)
    w = rng.dirichlet(np.ones(4))
    for wk in w:
        x += wk * rng.permutation(y)
    return x


def prop_majorization_abs(n, seed):
    rng = as_rng(seed)
    margins = []
    for _ in range(n):
        y = rng.standard_normal(_rand_dim(rng, 2, 8)) * 2.0
        x = _majorized_sample(rng, y)
        if not mj.majorizes(y, x).holds:
            margins.append(-1.0)
            continue
        v = mj.submajorizes(np.abs(y), np.abs(x))
        # the verdict already carries the scaled tolerance; raw margins can
        # sit a few ulp below zero on exact-tie prefixes
        margins.append(max(v.margin, 1e-16) if v.holds else -1.0)
    return margins


def prop_majorization_rigidity(n, seed):
    rng = as_rng(seed)
    margins = []
    for _ in range(n):
        d = _rand_dim(rng, 2, 8)
        y = rng.standard_normal(d) * 2.0
        if rng.random() < 0.5:
            x = rng.permutation(y)
        else:
            x = rng.permutation(y) * rng.choice([-1.0, 1.0], size=d)
        same_abs = np.allclose(mj.sort_desc(np.abs(x)), mj.sort_desc(np.abs(y)))
        if not (mj.majorizes(y, x).holds and same_abs):
            continue  # premise does not apply
        gap = float(np.max(np.abs(mj.sort_desc(x) - mj.sort_desc(y))))
        margins.append(1e-12 - gap)
    return margins


def lidskii_eig_margins(n, dims, seed, tol=1e-8):
    """Normalized slack of (lam(A) - lam(B)) < lam(A - B) over random pairs."""
    rng = as_rng(seed)
    margins = np.empty(n)
    per = int(np.ceil(n / len(dims)))
    idx = 0
    for d in dims:
        m = min(per, n - idx)
        if m <= 0:
            break
        Z = rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))
        A = (Z + np.conj(np.swapaxes(Z, -1, -2))) / 2.0
        Z = rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))
        B = (Z + np.conj(np.swapaxes(Z, -1, -2))) / 2.0
        lamA = np.linalg.eigvalsh(A)[..., ::-1]
        lamB = np.linalg.eigvalsh(B)[..., ::-1]
        lamAB = np.linalg.eigvalsh(A - B)[..., ::-1]
        diff = np.sort(lamA - lamB, axis=-1)[..., ::-1]
        cx = np.cumsum(diff, axis=-1)
        cy = np.cumsum(lamAB, axis=-1)
        scale = 1.0 + np.maximum(
            np.max(np.abs(cx), axis=-1), np.max(np.abs(cy), axis=-1)
        )
        slack = np.min(cy - cx, axis=-1) / scale
        trace_gap = np.abs(cx[:, -1] - cy[:, -1]) / scale
        margins[idx : idx + m] = np.minimum(slack, tol - trace_gap) + tol
        idx += m
    # bind the public predicate on a thin subsample
    for i in range(0, n, max(1, n // 20)):
        d = dims[i % len(dims)]
        A = random_hermitian(d, rng)
        B = random_hermitian(d, rng)
        v = mj.majorizes(
            eigvalsh_desc(A - B), mj.sort_desc(eigvalsh_desc(A) - eigvalsh_desc(B)), tol
        )
        if not v.holds:
            margins[0] = min(margins[0], -1.0)
    return margins


def prop_lidskii_sv_closure(n, seed):
    rng = as_rng(seed)
    margins = []
    tol = 1e-8
    for _ in range(n):
        d = _rand_dim(rng, 2, 8)
        A = random_general(d, rng)
        B = random_general(d, rng)
        x = np.abs(svdvals(A) - svdvals(B))
        v = mj.submajorizes(svdvals(A - B), x, tol)
        margins.append(v.margin + tol if v.holds else v.margin)
    return margins


# ---------------------------------------------------------------------------
# norms


def prop_norm_unitary_invariance(n, seed):
    rng = as_rng(seed)
    margins = []
    for i in range(n):
        d = _rand_dim(rng)
        A = random_general(d, rng)
        U = haar_unitary(d, rng)
        V = haar_unitary(d, rng)
        norm = ALL_NORMS[i % len(ALL_NORMS)]
        base = evaluate(norm, A)
        err = abs(evaluate(norm, U @ A @ V) - base)
        margins.append(1e-9 * (1.0 + base) - err)
    return margins


def _shrunk_pair(rng, d, min_gap=0.0):
    B = random_general(d, rng)
    V, s, U = svd(B)
    u = rng.uniform(0.2, 0.8, size=d)
    A = (V.conj().T * (s * u)[np.newaxis, :]) @ U
    gap = float(np.sum(s - s * u))
    if gap <= min_gap:
        return None
    return A, B


def prop_norm_submaj_monotonicity(n, seed):
    rng = as_rng(seed)
    margins = []
    for i in range(n):
        d = _rand_dim(rng)
        pair = _shrunk_pair(rng, d)
        if pair is None:
            continue
        A, B = pair
        norm = ALL_NORMS[i % len(ALL_NORMS)]
        margins.append(evaluate(norm, B) - evaluate(norm, A) + 1e-9)
    return margins


def prop_norm_strict_monotonicity(n, seed):
    rng = as_rng(seed)
    margins = []
    for i in range(n):
        d = _rand_dim(rng)
        pair = _shrunk_pair(rng, d, min_gap=1e-6)
        if pair is None:
            continue
        A, B = pair
        norm = CONVEX_NORMS[i % len(CONVEX_NORMS)]
        margins.append(evaluate(norm, B) - evaluate(norm, A))
    return margins


def prop_norm_triangle_homogeneity(n, seed):
    rng = as_rng(seed)
    margins = []
    for i in range(n):
        d = _rand_dim(rng)
        A = random_general(d, rng)
        B = random_general(d, rng)
        c = float(rng.standard_normal()) * 2.0
        norm = ALL_NORMS[i % len(ALL_NORMS)]
        na, nb = evaluate(norm, A), evaluate(norm, B)
        tri = na + nb - evaluate(norm, A + B)
        hom = abs(evaluate(norm, c * A) - abs(c) * na)
        margins.append(min(tri + 1e-9 * (1 + na + nb), 1e-9 * (1 + na) - hom))
    return margins


# ---------------------------------------------------------------------------
# matrix core


def prop_eigh_reconstruction(n, seed):
    rng = as_rng(seed)
    margins = []
    for _ in range(n):
        d = _rand_dim(rng, 2, 8)
        M = random_hermitian(d, rng, scale=float(rng.uniform(0.5, 5.0)))
        lam, V = eigh(M)
        defect = frob(M - (V * lam[np.newaxis, :]) @ V.conj().T)
        margins.append(1e-9 * (1.0 + frob(M)) - defect)
    return margins


def prop_svd_reconstruction(n, seed):
    rng = as_rng(seed)
    margins = []
    for _ in range(n):
        d = _rand_dim(rng, 2, 8)
        A = random_general(d, rng, scale=float(rng.uniform(0.5, 5.0)))
        V, s, U = svd(A)
        defect = frob(A - (V.conj().T * s[np.newaxis, :]) @ U)
        margins.append(1e-9 * (1.0 + frob(A)) - defect)
    return margins


def dilate_spectrum_margins(n, seed, dmax=6, tol=1e-9):
    rng = as_rng(seed)
    margins = []
    for _ in range(n):
        d = _rand_dim(rng, 1, dmax)
        C = random_general(d, rng, scale=float(rng.uniform(0.5, 3.0)))
        s = svdvals(C)
        expected = np.concatenate([s, -s[::-1]])
        lam = eigvalsh_desc(dilate(C))
        err = float(np.max(np.abs(lam - expected)))
        margins.append(tol * (1.0 + s[0]) - err)
    return np.asarray(margins)


def _degenerate_commutant_pair(d, rng):
    # block-diagonal in a shared Haar basis: a common spectral projection
    U = haar_unitary(d, rng)
    split = int(rng.integers(1, d))
    lamS = np.concatenate([rng.uniform(2, 3, split), rng.uniform(0, 1, d - split)])
    lamG = np.concatenate([rng.uniform(5, 6, split), rng.uniform(3, 4, d - split)])
    S = (U * lamS[np.newaxis, :]) @ U.conj().T
    G = (U * lamG[np.newaxis, :]) @ U.conj().T
    blockS = random_hermitian(split, rng)
    blockG = random_hermitian(split, rng)
    Ub = U[:, :split]
    S = S + Ub @ blockS @ Ub.conj().T
    G = G + Ub @ blockG @ Ub.conj().T
    return (S + S.conj().T) / 2, (G + G.conj().T) / 2


def prop_commutant_invariance(n, seed):
    rng = as_rng(seed)
    margins = []
    for i in range(n):
        d = _rand_dim(rng, 2, 5)
        if i % 2 == 0:
            S, G = random_hermitian(d, rng), random_hermitian(d, rng)
        else:
            S, G = _degenerate_commutant_pair(d, rng)
        ok1, k1 = commutant_is_trivial(S, G)
        U = haar_unitary(d, rng)
        ok2, k2 = commutant_is_trivial(
            U.conj().T @ S @ U, U.conj().T @ G @ U
        )
        margins.append(1.0 if (ok1 == ok2 and k1 == k2) else -1.0)
    return margins


def hermitian_product_pair(d, rng, zero_block=False):
    """A, B sharing singular frames with Hermitian-compatible blocks."""
    U = haar_unitary(d, rng)
    V = haar_unitary(d, rng)
    sizes = []
    left = d
    while left > 0:
        m = int(rng.integers(1, left + 1))
        sizes.append(m)
        left -= m
    alphas = np.sort(rng.uniform(0.5, 4.0, len(sizes)))[::-1]
    if zero_block:
        alphas[-1] = 0.0
    Ablocks, Bblocks = [], []
    for m, al in zip(sizes, alphas):
        Ablocks.append(al * np.eye(m, dtype=np.complex128))
        if al == 0.0:
            Bblocks.append(random_general(m, rng))
        else:
            Bblocks.append(random_hermitian(m, rng))
    diagA = np.zeros((d, d), dtype=np.complex128)
    diagB = np.zeros((d, d), dtype=np.complex128)
    at = 0
    for m, Ab, Bb in zip(sizes, Ablocks, Bblocks):
        diagA[at : at + m, at : at + m] = Ab
        diagB[at : at + m, at : at + m] = Bb
        at += m
    return U @ diagA @ V.conj().T, U @ diagB @ V.conj().T


def prop_pi_hermitian_rule(n, seed):
    rng = as_rng(seed)
    margins = []
    for i in range(n):
        d = _rand_dim(rng, 2, 5)
        A, B = hermitian_product_pair(d, rng, zero_block=(i % 3 == 0))
        ok, kdim, Z = pair_submersion_test(A, B)
        if ok or Z is None:
            margins.append(-1.0)
            continue
        worst = max(
            frob(A @ Z.conj().T - Z @ A.conj().T),
            frob(A.conj().T @ Z - Z.conj().T @ A),
            frob(B @ Z.conj().T - Z @ B.conj().T),
            frob(B.conj().T @ Z - Z.conj().T @ B),
        )
        margins.append(1e-6 * (1 + frob(A) + frob(B)) - worst)
    return margins


# ---------------------------------------------------------------------------
# Hermitian orbit


def eig_global_optimality_margins(n_cfg, n_samples, seed):
    rng = as_rng(seed)
    margins = []
    for i in range(n_cfg):
        d = _rand_dim(rng, 2, 6)
        S = random_hermitian(d, rng)
        mu = mj.sort_desc(rng.standard_normal(d) * 2.0)
        Gop = eig_orbit.global_minimizer(S, mu)
        norm = CONVEX_NORMS[i % len(CONVEX_NORMS)]
        best = evaluate(norm, S - Gop)
        vals = eig_orbit.orbit_sample_values(norm, S, mu, n_samples, rng)
        margins.append(float(np.min(vals)) - best + 1e-8)
    return np.asarray(margins)


def prop_eig_equality_rigidity(n, seed):
    rng = as_rng(seed)
    margins = []
    for i in range(n):
        d = _rand_dim(rng, 2, 6)
        aligned = i % 2 == 0
        if aligned:
            # constructed commuting aligned pair: equality must hold
            V = haar_unitary(d, rng)
            lam = mj.sort_desc(rng.standard_normal(d) * 2)
            nu = mj.sort_desc(rng.standard_normal(d) * 2)
            S = (V * lam[np.newaxis, :]) @ V.conj().T
            G = (V * nu[np.newaxis, :]) @ V.conj().T
        else:
            S = random_hermitian(d, rng)
            G = random_hermitian(d, rng)
        gap = float(
            np.max(
                np.abs(
                    eigvalsh_desc(S - G)
                    - mj.sort_desc(eigvalsh_desc(S) - eigvalsh_desc(G))
                )
            )
        )
        scale = 1.0 + frob(S) + frob(G)
        if aligned:
            margins.append(1e-9 * scale - gap)
        elif gap <= 1e-8 * scale:
            comm = frob(S @ G - G @ S)
            margins.append(1e-6 * scale - comm)
        else:
            margins.append(1.0)  # premise empty
    return margins


def commuting_candidate(d, rng, aligned):
    """Haar-rotated pair sharing an eigenbasis; nu misordered when not aligned."""
    V = haar_unitary(d, rng)
    lam = np.cumsum(rng.uniform(0.3, 1.0, d))[::-1].copy()
    nu = np.cumsum(rng.uniform(0.3, 1.0, d))[::-1].copy()
    if aligned:
        pairing = nu
    else:
        while True:
            perm = rng.permutation(d)
            pairing = nu[perm]
            if np.any(np.diff(pairing) > 0):
                break
    S = (V * lam[np.newaxis, :]) @ V.conj().T
    G0 = (V * pairing[np.newaxis, :]) @ V.conj().T
    return (S + S.conj().T) / 2, (G0 + G0.conj().T) / 2, lam, mj.sort_desc(nu)


def descent_witness_margins(n, seed):
    """Certify constructed misaligned candidates; margin couples the verified
    drop, sampled monotonicity, and the orbit residual of the curve."""
    norm = frobenius()
    rng = as_rng(seed)
    margins = []
    for _ in range(n):
        d = _rand_dim(rng, 2, 5)
        S, G0, lam, mu = commuting_candidate(d, rng, aligned=False)
        cert = eig_orbit.certify_local(norm, S, G0)
        if cert.verdict != "not_local_min" or cert.descent_witness is None:
            margins.append(-1.0)
            continue
        curve = cert.descent_witness
        slack = 1e-12 * (1.0 + cert.phi)
        monotone = bool(np.all(np.diff(curve.values) <= slack))
        orbit_resid = 0.0
        for t in curve.ts[:: max(1, len(curve.ts) // 8)]:
            Gt = curve.point(float(t))
            orbit_resid = max(
                orbit_resid, float(np.max(np.abs(eigvalsh_desc(Gt) - mu)))
            )
        ok = monotone and orbit_resid <= 1e-8 and curve.verified_drop > 1e-10
        margins.append(curve.verified_drop if ok else -1.0)
    return np.asarray(margins)


def prop_eig_tau_conservation(n, seed):
    rng = as_rng(seed)
    margins = []
    for _ in range(n):
        d = _rand_dim(rng)
        S = random_hermitian(d, rng)
        G0 = random_hermitian(d, rng)
        U = haar_unitary(d, rng)
        V = haar_unitary(d, rng)
        gamma = U.conj().T @ S @ U - V.conj().T @ G0 @ V
        tau = np.trace(S) - np.trace(G0)
        gap = abs(np.trace(gamma) - tau)
        margins.append(1e-10 * (1.0 + abs(tau)) - gap)
    return margins


def prop_eig_soundness_small_d(n, seed):
    rng = as_rng(seed)
    margins = []
    norm = frobenius()
    for i in range(n):
        d = int(rng.integers(2, 4))
        if i % 2 == 0:
            S, G0, _, mu = commuting_candidate(d, rng, aligned=False)
            cert = eig_orbit.certify_local(norm, S, G0)
            if cert.verdict != "not_local_min":
                margins.append(-1.0)
                continue
            # random perturbations in an orbit ball of radius 1e-3 must
            # locate a strictly better point
            phi0 = cert.phi
            found = -1.0
            for _t in range(400):
                K = unit_skew(random_general(d, rng))
                W = skew_exp(K, float(rng.uniform(0, 1e-3)))
                val = evaluate(norm, S - W.conj().T @ G0 @ W)
                if val < phi0:
                    found = phi0 - val
                    break
            margins.append(found)
        else:
            S, G0, _, mu = commuting_candidate(d, rng, aligned=True)
            cert = eig_orbit.certify_local(norm, S, G0)
            if cert.verdict != "certified_global":
                margins.append(-1.0)
                continue
            vals = eig_orbit.orbit_sample_values(norm, S, mu, 10000, rng)
            margins.append(float(np.min(vals)) - cert.phi + 1e-8)
    return margins


# ---------------------------------------------------------------------------
# singular-value orbit


def prop_sv_dilation_consistency(n, seed):
    rng = as_rng(seed)
    margins = []
    for _ in range(n):
        d = _rand_dim(rng, 2, 5)
        A = random_general(d, rng)
        B = random_general(d, rng)
        U1, U2, V1, V2 = (haar_unitary(d, rng) for _ in range(4))
        inner = U1.conj().T @ A @ V1 - U2.conj().T @ B @ V2
        lhs = eigvalsh_desc(dilate(inner))
        big = np.zeros((2 * d, 2 * d), dtype=np.complex128)
        big[:d, :d] = U1
        big[d:, d:] = V1
        big2 = np.zeros_like(big)
        big2[:d, :d] = U2
        big2[d:, d:] = V2
        rhs_mat = big.conj().T @ dilate(A) @ big - big2.conj().T @ dilate(B) @ big2
        rhs = eigvalsh_desc(rhs_mat)
        scale = 1.0 + frob(A) + frob(B)
        margins.append(1e-9 * scale - float(np.max(np.abs(lhs - rhs))))
    return margins


def joint_svd_margins(n, seed):
    rng = as_rng(seed)
    margins = []
    for i in range(n):
        d = _rand_dim(rng, 2, 6)
        A, B = hermitian_product_pair(d, rng, zero_block=(i % 2 == 0))
        scale = 1.0 + frob(A) * frob(B)
        try:
            joint = sv_orbit.joint_svd(A, B)
        except ValueError:
            margins.append(-1.0)
            continue
        margins.append(1e-8 * scale - max(joint.residual_a, joint.residual_b))
    return np.asarray(margins)


def sv_equality_margins(n, seed):
    """n constructed equality pairs, then n random pairs whose products are
    far from Hermitian."""
    rng = as_rng(seed)
    margins = []
    for _ in range(n):
        d = _rand_dim(rng, 2, 5)
        U = haar_unitary(d, rng)
        V = haar_unitary(d, rng)
        a = mj.sort_desc(rng.uniform(0, 3, d))
        b = mj.sort_desc(rng.uniform(0, 3, d))
        A = U.conj().T @ np.diag(a).astype(complex) @ V
        B = U.conj().T @ np.diag(b).astype(complex) @ V
        margins.append(1.0 if sv_orbit.equality_case(A, B) else -1.0)
    for _ in range(n):
        d = _rand_dim(rng, 2, 5)
        A = random_general(d, rng)
        B = random_general(d, rng)
        rA, _rB = sv_orbit.hermitian_residuals(A, B)
        if rA <= 0.1 * (1.0 + frob(A) * frob(B)):
            continue
        margins.append(-1.0 if sv_orbit.equality_case(A, B) else 1.0)
    return np.asarray(margins)


def prop_sv_certified_beats_samples(n_cand, n_samples, seed):
    rng = as_rng(seed)
    norm = schatten(1.5)
    margins = []
    for _ in range(n_cand):
        d = int(rng.integers(2, 5))
        A = random_general(d, rng)
        s = mj.sort_desc(rng.uniform(0.1, 2.0, d))
        B = sv_orbit.global_minimizer(A, s)
        cert = sv_orbit.certify_local(norm, A, B)
        if cert.verdict != "certified_global":
            margins.append(-1.0)
            continue
        vals = sv_orbit.sv_orbit_sample_values(norm, A, s, n_samples, rng)
        margins.append(float(np.min(vals)) - cert.psi + 1e-8)
    return margins


def prop_sv_scalar_case(n, seed):
    rng = as_rng(seed)
    norm = frobenius()
    margins = []
    for i in range(n):
        a = (rng.standard_normal() + 1j * rng.standard_normal()) or 1.0
        s = float(rng.uniform(0.2, 2.0))
        if i % 2 == 0:
            b = s * a / abs(a)
            cert = sv_orbit.certify_local(norm, [[a]], [[b]])
            aligned = (np.conj(a) * b).real >= 0 and abs((np.conj(a) * b).imag) < 1e-12
            margins.append(
                1.0 if (cert.verdict == "certified_global" and aligned) else -1.0
            )
        else:
            phase = np.exp(1j * rng.uniform(0.5, np.pi))
            b = s * a / abs(a) * phase
            cert = sv_orbit.certify_local(norm, [[a]], [[b]])
            margins.append(1.0 if cert.verdict == "not_local_min" else -1.0)
    return margins


# ---------------------------------------------------------------------------
# frames


def prop_frame_trace_conservation(n, seed):
    rng = as_rng(seed)
    margins = []
    for _ in range(n):
        d = _rand_dim(rng, 2, 5)
        k = int(rng.integers(1, 9))
        a = rng.uniform(0.3, 2.0, k)
        G = frames.random_frame(d, a, rng)
        gap = abs(np.trace(frames.frame_operator(G)).real - np.sum(a))
        margins.append(1e-10 * (1.0 + np.sum(a)) - gap)
    return margins


def _psd_target(rng, d, top):
    """PSD target with a spectrum drawn uniformly from [0, top] (drawn
    first) in a Haar eigenbasis; returns (spectrum, S)."""
    lam = mj.sort_desc(rng.uniform(0, top, d))
    V = haar_unitary(d, rng)
    S = (V * lam[np.newaxis, :]) @ V.conj().T
    return lam, (S + S.conj().T) / 2


def frame_lower_bound_margins(n_cfg, n_samples, seed):
    rng = as_rng(seed)
    margins = []
    for i in range(n_cfg):
        d = _rand_dim(rng, 2, 5)
        k = int(rng.integers(d, 9))
        a = rng.uniform(0.3, 2.0, k)
        _, S = _psd_target(rng, d, 4)
        norm = ALL_NORMS[i % len(ALL_NORMS)]
        bound, _ = frames.psd_lower_bound(norm, S, float(np.sum(a)))
        worst = np.inf
        for _j in range(n_samples):
            G = frames.random_frame(d, a, rng)
            worst = min(worst, frames.frame_operator_distance(norm, S, G))
        margins.append(worst - bound + 1e-8)
    return np.asarray(margins)


def water_fill_margins(n, seed):
    rng = as_rng(seed)
    margins = []
    for _ in range(n):
        d = _rand_dim(rng, 1, 8)
        lam = mj.sort_desc(rng.uniform(0, 5, d))
        t = float(rng.uniform(0.05, 1.5) * max(np.sum(lam), 1.0))
        c, spec = frames.water_fill(lam, t)
        resid = abs(float(np.sum(spec)) - t)
        ok_level = c <= lam[0] + 1e-12
        complementary = np.minimum(c, lam)
        noninc = np.all(np.diff(complementary) <= 1e-12)
        margins.append(
            1e-10 * (1.0 + t) - resid if (ok_level and noninc) else -1.0
        )
        # monotonicity of the level in t
        c2, _ = frames.water_fill(lam, t * 1.5)
        if c2 > c + 1e-12:
            margins.append(-1.0)
    return np.asarray(margins)


def psd_global_margins(n_cfg, n_samples, seed):
    rng = as_rng(seed)
    norms = (frobenius(), schatten(3))
    margins = []
    for i in range(n_cfg):
        d = _rand_dim(rng, 2, 5)
        lam, S = _psd_target(rng, d, 4)
        t = float(rng.uniform(0.2, 1.2) * np.sum(lam) + 0.1)
        norm = norms[i % len(norms)]
        bound, _ = frames.psd_lower_bound(norm, S, t)
        gaussians = (
            rng.standard_normal((n_samples, d, d))
            + 1j * rng.standard_normal((n_samples, d, d))
        ) / np.sqrt(2)
        spectra = _kernels.psd_spectra(S, t, gaussians)
        vals = np.asarray(gauge_from_eigs(norm, spectra))
        margins.append(float(np.min(vals)) - bound + 1e-8)
    return np.asarray(margins)


def descent_structure_margins(n_inst, seed):
    rng = as_rng(seed)
    margins = []
    converged = 0
    for _ in range(n_inst):
        d = _rand_dim(rng, 2, 4)
        k = int(rng.integers(d, d + 3))
        a = rng.uniform(0.3, 1.5, k)
        _, S = _psd_target(rng, d, 3)
        G, tr = frames.gradient_descent(S, a, seed=int(rng.integers(0, 2**31)))
        if tr.grad_norm >= 1e-9:
            continue
        converged += 1
        report = frames.structure_check(frobenius(), S, G, tol=1e-6)
        margins.append(1.0 if report.verdict == "consistent_with_local_min" else -1.0)
    return margins, [f"converged {converged} of {n_inst} runs"]


def prop_descent_structure_nonfrobenius(n_inst, seed):
    """Conjecture exploration: structural outcomes for a non-Frobenius
    strictly convex norm are recorded as findings, never as failures; each
    converged point counts as one check with margin 0."""
    rng = as_rng(seed)
    norm = schatten(3)
    findings = []
    checked = 0
    for _ in range(n_inst):
        d = _rand_dim(rng, 2, 3)
        k = int(rng.integers(d, d + 2))
        a = rng.uniform(0.3, 1.5, k)
        S = np.abs(random_hermitian(d, rng))
        S = (S + S.conj().T) / 2 + 2.0 * np.eye(d)
        restart = int(rng.integers(0, 2**31))
        G, tr = frames.descend_restarts(norm, S, a, [restart])[0]
        if tr.grad_norm > 1e-6:
            continue
        checked += 1
        report = frames.structure_check(norm, S, G, tol=1e-4)
        if report.verdict != "consistent_with_local_min":
            findings.append(
                f"schatten:3 converged point violates structure: {report.witness}"
            )
    findings.append(f"examined {checked} converged schatten:3 points")
    return [0.0] * checked, findings


def escape_validity_margins(n, seed):
    rng = as_rng(seed)
    margins = []
    for _ in range(n):
        d = int(rng.integers(2, 5))
        S, G0, idx = dependent_cluster_instance(d, rng)
        curve = frames.escape_move(S, G0, idx)
        if curve is None:
            margins.append(-1.0)
            continue
        sphere_worst = 0.0
        for t in curve.ts[:: max(1, len(curve.ts) // 8)]:
            Gt = curve.point(float(t))
            actual = np.sum(np.abs(Gt.vectors) ** 2, axis=0)
            sphere_worst = max(sphere_worst, float(np.max(np.abs(actual - Gt.norms))))
        ok = curve.verified_drop > 1e-12 and sphere_worst <= 1e-10
        margins.append(curve.verified_drop if ok else -1.0)
    return np.asarray(margins)


def dependent_cluster_instance(d, rng):
    """Configuration whose single fitted cluster is dependent while S - S_G
    has a strictly larger eigenvalue; returns (S, G0, cluster_index)."""
    r = int(rng.integers(1, d))
    k = r + 1 + int(rng.integers(0, 2))
    U = haar_unitary(d, rng)
    W = U[:, :r]
    coeff = rng.standard_normal((r, k)) + 1j * rng.standard_normal((r, k))
    V = W @ coeff
    a = rng.uniform(0.5, 1.5, k)
    V *= np.sqrt(a / np.sum(np.abs(V) ** 2, axis=0))
    G0 = frames.FrameSequence(V, a)
    S0 = frames.frame_operator(G0)
    c1 = float(rng.uniform(0.1, 1.0))
    c_big = c1 + float(rng.uniform(0.8, 2.0))
    P_W = W @ W.conj().T
    E = c1 * P_W
    for i in range(r, d):
        level = c_big if i == r else float(rng.uniform(0.0, c1))
        E = E + level * np.outer(U[:, i], U[:, i].conj())
    S = S0 + E
    S = (S + S.conj().T) / 2
    return S, G0, 0


# ---------------------------------------------------------------------------
# suite driver

# (name, suite, small-scale counts), in run order; the suite at index i
# draws from the child seed [seed, i]
SUITES = (
    ("majorization.reflexivity", prop_majorization_reflexivity, {"n": 200}),
    ("majorization.entrywise_implies_submajorization", prop_majorization_entrywise, {"n": 1000}),
    ("majorization.abs_implication", prop_majorization_abs, {"n": 500}),
    ("majorization.rigidity", prop_majorization_rigidity, {"n": 500}),
    ("majorization.lidskii_eig_closure", partial(lidskii_eig_margins, dims=range(2, 9)),
     {"n": 2000}),
    ("majorization.lidskii_sv_closure", prop_lidskii_sv_closure, {"n": 800}),
    ("norms.unitary_invariance", prop_norm_unitary_invariance, {"n": 200}),
    ("norms.submajorization_monotonicity", prop_norm_submaj_monotonicity, {"n": 300}),
    ("norms.strict_monotonicity", prop_norm_strict_monotonicity, {"n": 200}),
    ("norms.triangle_homogeneity", prop_norm_triangle_homogeneity, {"n": 200}),
    ("matrices.eigh_reconstruction", prop_eigh_reconstruction, {"n": 1000}),
    ("matrices.svd_reconstruction", prop_svd_reconstruction, {"n": 1000}),
    ("matrices.dilate_spectrum", dilate_spectrum_margins, {"n": 1000}),
    ("matrices.commutant_basis_invariance", prop_commutant_invariance, {"n": 40}),
    ("matrices.pi_hermitian_pair_rule", prop_pi_hermitian_rule, {"n": 40}),
    ("eig_orbit.global_optimality", eig_global_optimality_margins,
     {"n_cfg": 12, "n_samples": 300}),
    ("eig_orbit.equality_rigidity", prop_eig_equality_rigidity, {"n": 300}),
    ("eig_orbit.descent_validity", descent_witness_margins, {"n": 25}),
    ("eig_orbit.tau_conservation", prop_eig_tau_conservation, {"n": 200}),
    ("eig_orbit.certification_soundness", prop_eig_soundness_small_d, {"n": 8}),
    ("sv_orbit.dilation_consistency", prop_sv_dilation_consistency, {"n": 80}),
    ("sv_orbit.joint_svd_soundness", joint_svd_margins, {"n": 120}),
    ("sv_orbit.equality_corollary", sv_equality_margins, {"n": 120}),
    ("sv_orbit.certified_beats_samples", prop_sv_certified_beats_samples,
     {"n_cand": 6, "n_samples": 1500}),
    ("sv_orbit.scalar_case", prop_sv_scalar_case, {"n": 40}),
    ("frames.trace_conservation", prop_frame_trace_conservation, {"n": 200}),
    ("frames.naive_bound", frame_lower_bound_margins, {"n_cfg": 12, "n_samples": 150}),
    ("frames.water_fill", water_fill_margins, {"n": 250}),
    ("frames.psd_approximant_global", psd_global_margins, {"n_cfg": 8, "n_samples": 1500}),
    ("frames.descent_structure", descent_structure_margins, {"n_inst": 10}),
    ("frames.conjecture_nonfrobenius", prop_descent_structure_nonfrobenius, {"n_inst": 4}),
    ("frames.escape_validity", escape_validity_margins, {"n": 15}),
)


def run_all(seed: int, scale: str = "small"):
    """Run every property suite; medium scale multiplies counts by 10."""
    if scale not in ("small", "medium"):
        raise ValueError(f"scale must be 'small' or 'medium', got {scale!r}")
    factor = 1 if scale == "small" else 10
    results = []
    for idx, (name, suite, counts) in enumerate(SUITES):
        params = {k: v * factor for k, v in counts.items()}
        out = suite(**params, seed=np.random.default_rng([int(seed), idx]))
        margins, findings = out if isinstance(out, tuple) else (out, [])
        results.append(_result(name, margins, findings))
    return results


def suite_json(seed: int, scale: str = "small") -> dict:
    results = run_all(seed, scale)
    return {
        "schema": "lidskii.property-suite/1",
        "seed": int(seed),
        "scale": scale,
        "all_passed": all(r.passed for r in results),
        "properties": [
            {
                "name": r.name,
                "count": r.count,
                "failures": r.failures,
                "worst_margin": r.worst_margin,
                "findings": list(r.findings),
            }
            for r in results
        ],
    }
