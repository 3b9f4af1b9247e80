"""Acceptance gate: every criterion runs at its stated instance counts and
tolerances and prints one PASS/FAIL line (run with ``pytest -s`` to see the
lines stream)."""

import time

import numpy as np

from oracles import commutant_kernel_dim, pair_submersion_kernel_dim
from lidskii import _kernels, eig_orbit, frames, sv_orbit
from lidskii.majorization import sort_desc
from lidskii.matrices import (
    as_rng,
    commutant_is_trivial,
    dilate,
    eigvalsh_desc,
    frob,
    haar_unitary,
    pair_submersion_test,
    random_general,
    random_hermitian,
    svdvals,
)
from lidskii.norms import evaluate, frobenius, gauge_from_eigs, schatten
from lidskii.properties import (
    commuting_candidate,
    dependent_cluster_instance,
    dilate_spectrum_margins,
    hermitian_product_pair,
    lidskii_eig_margins,
)


def _report(num, label, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num:2d} [{elapsed:6.1f}s] {label} {detail}")
    assert ok, f"criterion {num}: {label} {detail}"


def test_criterion_01_lidskii_eigenvalue_inequality():
    t0 = time.perf_counter()
    margins = lidskii_eig_margins(10000, range(2, 9), seed=101, tol=1e-8)
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(margins >= 0)) and elapsed < 30
    _report(1, "eigenvalue Lidskii closure, 1e4 pairs d<=8", ok, elapsed,
            f"worst margin {margins.min():+.2e}")


def test_criterion_02_equality_rigidity():
    t0 = time.perf_counter()
    rng = as_rng(102)
    ok = True
    worst_eq = 0.0
    worst_gap = np.inf
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        V = haar_unitary(d, rng)
        lam = sort_desc(rng.standard_normal(d) * 2)
        nu = sort_desc(rng.standard_normal(d) * 2)
        S = (V * lam) @ V.conj().T
        G = (V * nu) @ V.conj().T
        gap = float(np.max(np.abs(eigvalsh_desc(S - G) - sort_desc(lam - nu))))
        worst_eq = max(worst_eq, gap)
        if gap > 1e-9 * (1 + frob(S) + frob(G)):
            ok = False
    found = 0
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        A = random_hermitian(d, rng)
        B = random_hermitian(d, rng)
        scale = 1 + frob(A) + frob(B)
        if frob(A @ B - B @ A) <= 0.1 * scale:
            continue
        found += 1
        gap = float(
            np.max(np.abs(eigvalsh_desc(A - B) - sort_desc(eigvalsh_desc(A) - eigvalsh_desc(B))))
        )
        worst_gap = min(worst_gap, gap)
        if not gap > 0.0:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and found >= 900 and elapsed < 10
    _report(2, "Lidskii equality rigidity", ok, elapsed,
            f"aligned worst {worst_eq:.1e}, strict min gap {worst_gap:.1e} over {found}")


def test_criterion_03_global_minimizer_optimality():
    t0 = time.perf_counter()
    rng = as_rng(103)
    norms = (frobenius(), schatten(1.5), schatten(4))
    ok = True
    worst = np.inf
    for _ in range(200):
        d = int(rng.integers(2, 6))
        S = random_hermitian(d, rng)
        mu = sort_desc(rng.standard_normal(d) * 2)
        Gop = eig_orbit.global_minimizer(S, mu)
        gaussians = (
            rng.standard_normal((500, d, d)) + 1j * rng.standard_normal((500, d, d))
        ) / np.sqrt(2)
        spectra = _kernels.orbit_spectra(S, mu.astype(complex), gaussians)
        for norm in norms:
            best = evaluate(norm, S - Gop)
            low = float(np.min(np.asarray(gauge_from_eigs(norm, spectra))))
            worst = min(worst, low - best)
            if low < best - 1e-8:
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    _report(3, "orbit global minimizer optimality, 200 cfg x 500 samples x 3 norms",
            ok, elapsed, f"worst sample-vs-opt {worst:+.2e}")


def test_criterion_04_local_certification_soundness():
    t0 = time.perf_counter()
    rng = as_rng(104)
    norm = frobenius()
    ok = True
    for i in range(100):
        d = int(rng.integers(2, 6))
        S, G0, _, _ = commuting_candidate(d, rng, aligned=False)
        cert = eig_orbit.certify_local(norm, S, G0, seed=rng)
        if cert.verdict != "not_local_min":
            ok = False
            continue
        if cert.descent_witness is None or cert.descent_witness.verified_drop <= 1e-10:
            ok = False
    n_beaten = 0
    for i in range(100):
        d = int(rng.integers(2, 6))
        S, G0, _, mu = commuting_candidate(d, rng, aligned=True)
        cert = eig_orbit.certify_local(norm, S, G0, seed=rng)
        if cert.verdict != "certified_global":
            ok = False
            continue
        vals = eig_orbit.orbit_sample_values(norm, S, mu, 10000, rng)
        if float(np.min(vals)) < cert.phi - 1e-8:
            n_beaten += 1
            ok = False
    elapsed = time.perf_counter() - t0
    _report(4, "certification soundness, 100 misaligned + 100 aligned x 1e4 samples",
            ok, elapsed, f"beaten {n_beaten}")


def test_criterion_05_dilation_spectrum():
    t0 = time.perf_counter()
    margins = dilate_spectrum_margins(1000, seed=105, dmax=6, tol=1e-9)
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(margins >= 0))
    _report(5, "dilation spectrum identity, 1e3 random C d<=6", ok, elapsed,
            f"worst margin {margins.min():+.2e}")


def test_criterion_06_joint_svd_soundness():
    t0 = time.perf_counter()
    rng = as_rng(106)
    ok = True
    worst = np.inf
    for i in range(500):
        d = int(rng.integers(2, 7))
        A, B = hermitian_product_pair(d, rng, zero_block=(i % 2 == 0))
        scale = 1 + frob(A) * frob(B)
        try:
            joint = sv_orbit.joint_svd(A, B)
        except ValueError:
            ok = False
            continue
        resid = max(joint.residual_a, joint.residual_b)
        worst = min(worst, 1e-8 * scale - resid)
        if resid > 1e-8 * scale:
            ok = False
        Bop = sv_orbit.global_minimizer(A, svdvals(B))
        if not sv_orbit.equality_case(A, Bop):
            ok = False
    elapsed = time.perf_counter() - t0
    _report(6, "joint SVD on 500 constructed pairs incl. zero blocks", ok, elapsed,
            f"worst residual slack {worst:+.2e}")


def test_criterion_07_sv_equality_characterization():
    t0 = time.perf_counter()
    rng = as_rng(107)
    ok = True
    pos = neg = 0
    while pos < 500:
        d = int(rng.integers(2, 7))
        U, V = haar_unitary(d, rng), haar_unitary(d, rng)
        a = sort_desc(rng.uniform(0, 3, d))
        b = sort_desc(rng.uniform(0, 3, d))
        A = U.conj().T @ np.diag(a).astype(complex) @ V
        B = U.conj().T @ np.diag(b).astype(complex) @ V
        pos += 1
        if not sv_orbit.equality_case(A, B, tol=1e-8):
            ok = False
    while neg < 500:
        d = int(rng.integers(2, 7))
        A = random_general(d, rng)
        B = random_general(d, rng)
        rA, _ = sv_orbit.hermitian_residuals(A, B)
        if rA <= 0.1 * (1 + frob(A) * frob(B)):
            continue
        neg += 1
        if sv_orbit.equality_case(A, B, tol=1e-8):
            ok = False
    elapsed = time.perf_counter() - t0
    _report(7, "singular-value equality characterization, 500 + 500", ok, elapsed)


def test_criterion_08_water_filling():
    t0 = time.perf_counter()
    rng = as_rng(108)
    ok = True
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        lam = sort_desc(rng.uniform(0, 5, d))
        t = float(rng.uniform(0.05, 1.5) * max(np.sum(lam), 1.0))
        _c, spec = frames.water_fill(lam, t)
        if abs(float(np.sum(spec)) - t) > 1e-10 * (1 + t):
            ok = False
    worst = np.inf
    for i in range(20):
        d = int(rng.integers(2, 6))
        lam = sort_desc(rng.uniform(0, 4, d))
        V = haar_unitary(d, rng)
        S = (V * lam) @ V.conj().T
        S = (S + S.conj().T) / 2
        t = float(rng.uniform(0.2, 1.2) * np.sum(lam) + 0.1)
        gaussians = (
            rng.standard_normal((10000, d, d)) + 1j * rng.standard_normal((10000, d, d))
        ) / np.sqrt(2)
        spectra = _kernels.psd_spectra(S, t, gaussians)
        for norm in (frobenius(), schatten(3)):
            bound, _ = frames.psd_lower_bound(norm, S, t)
            low = float(np.min(np.asarray(gauge_from_eigs(norm, spectra))))
            worst = min(worst, low - bound)
            if low < bound - 1e-8:
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    _report(8, "water-filling roots + PSD approximant optimality 20 x 1e4", ok,
            elapsed, f"worst sample-vs-opt {worst:+.2e}")


def test_criterion_09_fod_descent_structure():
    t0 = time.perf_counter()
    rng = as_rng(109)
    norm = frobenius()
    ok = True
    converged = checked_special = at_closed_form = 0
    for _ in range(100):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(d, d + 3))
        a = rng.uniform(0.3, 1.5, k)
        lam = sort_desc(rng.uniform(0, 3, d))
        V = haar_unitary(d, rng)
        S = (V * lam) @ V.conj().T
        S = (S + S.conj().T) / 2
        bound, _ = frames.psd_lower_bound(norm, S, float(np.sum(a)))
        seeds = [int(rng.integers(0, 2**31)) for _r in range(8)]
        theta_star = frames.frame_operator_distance(norm, S, frames.relaxation_minimizer(S, a))
        for G, tr in frames.descend_restarts(norm, S, a, seeds):
            if tr.grad_norm >= 1e-9:
                continue
            converged += 1
            # every converged descent reaches the closed form's global minimum
            if abs(frames.frame_operator_distance(norm, S, G) - theta_star) <= 1e-9 * theta_star:
                at_closed_form += 1
            else:
                ok = False
            report = frames.structure_check(norm, S, G, tol=1e-6)
            if report.verdict != "consistent_with_local_min":
                ok = False
            special = frames.certify_uniform_eigenvalue(norm, S, G, tol=1e-6)
            if special != "not_applicable":
                checked_special += 1
                theta = frames.frame_operator_distance(norm, S, G)
                if special != "certified_global" or abs(theta - bound) > 1e-6:
                    ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300 and converged > 0
    _report(9, "descent structure, 100 cfg x 8 restarts", ok, elapsed,
            f"converged {converged}/800, special-case hits {checked_special}, "
            f"at closed form {at_closed_form}/800")


def test_criterion_10_escape_move_validity():
    t0 = time.perf_counter()
    rng = as_rng(110)
    ok = True
    for _ in range(50):
        d = int(rng.integers(2, 5))
        S, G0, idx = dependent_cluster_instance(d, rng)
        curve = frames.escape_move(S, G0, idx)
        if curve is None or curve.verified_drop <= 1e-12:
            ok = False
            continue
        for t in curve.ts[:: max(1, len(curve.ts) // 6)]:
            Gt = curve.point(float(t))
            actual = np.sum(np.abs(Gt.vectors) ** 2, axis=0)
            if float(np.max(np.abs(actual - Gt.norms))) > 1e-10:
                ok = False
    elapsed = time.perf_counter() - t0
    _report(10, "escape-move strict decrease on 50 dependent clusters", ok, elapsed)


def test_criterion_11_nullspace_criteria_vs_bruteforce():
    t0 = time.perf_counter()
    rng = as_rng(111)
    from lidskii.properties import _degenerate_commutant_pair

    ok = True
    for i in range(250):
        d = int(rng.integers(2, 6))
        if i < 200:
            S, G = random_hermitian(d, rng), random_hermitian(d, rng)
        else:
            S, G = _degenerate_commutant_pair(d, rng)
        trivial, kdim = commutant_is_trivial(S, G)
        if kdim != commutant_kernel_dim(S, G) or trivial != (kdim == 0):
            ok = False
    for i in range(250):
        d = int(rng.integers(2, 6))
        if i < 200:
            A, B = random_general(d, rng), random_general(d, rng)
        else:
            A, B = hermitian_product_pair(d, rng, zero_block=(i % 2 == 0))
        sub, kdim, _w = pair_submersion_test(A, B)
        if kdim != pair_submersion_kernel_dim(A, B) or sub != (kdim == 0):
            ok = False
    elapsed = time.perf_counter() - t0
    _report(11, "null-space criteria vs Kronecker brute force, 2 x 250", ok, elapsed)
