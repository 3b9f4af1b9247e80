"""Both orbit certifiers on badly scaled and degenerate inputs, judged
against the closed-form optimum: a certified candidate attains it, and a
rejected one carries a witness whose end point is on the orbit and below
the candidate's value."""

import numpy as np
import pytest

from lidskii import curves, eig_orbit, frames, sv_orbit
from lidskii.majorization import sort_desc
from lidskii.matrices import (
    eigvalsh_desc,
    frob,
    haar_unitary,
    random_general,
    random_hermitian,
    skew_exp,
    svd,
    unit_skew,
)
from lidskii.norms import evaluate, frobenius, parse_norm, schatten
from lidskii.properties import commuting_candidate, hermitian_product_pair

NORM = frobenius()
SCALES = (1.0, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def _check_eig(S, G0, mu, expect=None, kind=None):
    """Certify G0 and check the verdict against the orbit optimum."""
    cert = eig_orbit.certify_local(NORM, S, G0, seed=0)
    opt = eig_orbit.orbit_distance(NORM, S, eig_orbit.global_minimizer(S, mu))
    scale = frob(S) + frob(G0)
    if expect is not None:
        assert cert.verdict == expect
    if cert.verdict == "certified_global":
        assert cert.phi == pytest.approx(opt, rel=1e-8, abs=1e-8 * scale)
    elif cert.verdict == "not_local_min":
        curve = cert.descent_witness
        assert kind is None or curve.kind == kind
        G_end = curve.point(float(curve.ts[-1]))
        assert np.allclose(eigvalsh_desc(G_end), np.sort(mu)[::-1], rtol=0, atol=1e-8 * scale)
        drop = cert.phi - evaluate(NORM, S - G_end)
        assert drop > 0.5 * curve.verified_drop > 0
    return cert


def _check_sv(A, B, s, expect=None, kind=None):
    """Certify B and check the verdict against the orbit optimum."""
    cert = sv_orbit.certify_local(NORM, A, B, seed=0)
    opt = sv_orbit.orbit_distance(NORM, A, sv_orbit.global_minimizer(A, s))
    scale = frob(A) + frob(B)
    if expect is not None:
        assert cert.verdict == expect
    if cert.verdict == "certified_global":
        assert cert.psi == pytest.approx(opt, rel=1e-8, abs=1e-8 * scale)
    elif cert.verdict == "not_local_min":
        curve = cert.descent_witness
        assert kind is None or curve.kind == kind
        B_end = curve.point(float(curve.ts[-1]))
        sv_end = np.linalg.svd(B_end, compute_uv=False)
        assert np.allclose(sv_end, np.sort(s)[::-1], rtol=0, atol=1e-8 * scale)
        drop = cert.psi - evaluate(NORM, A - B_end)
        assert drop > 0.5 * curve.verified_drop > 0
    return cert


@pytest.mark.parametrize("scale", SCALES)
def test_no_false_certification_at_small_scales(scale):
    """Haar-rotated non-minimizers are never certified, at any scale (the
    commuting tests are relative to |S||G0| and |A||B|)."""
    rng = np.random.default_rng(12)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        S = scale * random_hermitian(d, rng)
        mu = scale * rng.standard_normal(d)
        G0 = eig_orbit.random_orbit_point(mu, rng)
        assert _check_eig(S, G0, mu).verdict != "certified_global"
        A = scale * random_general(d, rng)
        s = scale * rng.uniform(0.1, 2.0, d)
        B = (haar_unitary(d, rng).conj().T * s[np.newaxis, :]) @ haar_unitary(d, rng)
        assert _check_sv(A, B, s).verdict != "certified_global"


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_scaled_commuting_candidates(scale):
    rng = np.random.default_rng(3)
    for d in (2, 3, 5):
        for aligned in (True, False):
            S, G0, _, mu = commuting_candidate(d, rng, aligned)
            expect = "certified_global" if aligned else "not_local_min"
            _check_eig(scale * S, scale * G0, scale * mu, expect, None if aligned else "givens")
            A = scale * random_general(d, rng)
            s = scale * np.sort(rng.uniform(0.1, 2.0, d))[::-1]
            V, _, U = svd(A)
            B = (V.conj().T * (s if aligned else s[::-1])[np.newaxis, :]) @ U
            _check_sv(A, B, s, expect)


def test_one_dimensional_orbits():
    for scale in (1e-6, 1.0, 1e6):
        # a Hermitian orbit of a 1 x 1 matrix is a single point
        _check_eig([[scale * 2.0]], [[scale * -0.5]], [scale * -0.5], "certified_global")
        a = scale * (0.6 - 0.8j)
        _check_sv([[a]], [[0.5 * a]], [0.5 * scale], "certified_global")
        _check_sv([[a]], [[-0.5 * a]], [0.5 * scale], "not_local_min")
        _check_sv([[a]], [[0.5j * a]], [0.5 * scale], "not_local_min")


def test_repeated_eigenvalue_of_S():
    V = haar_unitary(3, 8)
    S = (V * np.array([2.0, 2.0, 1.0])) @ V.conj().T
    mu = np.array([3.0, 1.5, 0.5])

    def G(nu):
        return (V * np.asarray(nu)) @ V.conj().T

    # misordered inside the degenerate cluster: every pairing is optimal
    _check_eig(S, G([1.5, 3.0, 0.5]), mu, "certified_global")
    # misordered across the gap between 2 and 1
    _check_eig(S, G([3.0, 0.5, 1.5]), mu, "not_local_min", "givens")
    _check_eig(S, G([0.5, 1.5, 3.0]), mu, "not_local_min", "givens")


def test_zero_singular_value_of_A():
    """A's kernel block is decomposed by an SVD inside ``joint_svd``."""
    U, V = haar_unitary(3, 1), haar_unitary(3, 2)
    A = (U * np.array([2.0, 1.0, 0.0])) @ V.conj().T
    s = np.array([1.5, 0.7, 0.3])
    # the phase on A's kernel block leaves B aligned
    aligned = (U * (s * np.array([1.0, 1.0, np.exp(0.9j)]))) @ V.conj().T
    cert = _check_sv(A, aligned, s, "certified_global")
    assert np.allclose(cert.joint.beta, s)
    misaligned = (U * s[::-1]) @ V.conj().T
    negative = (U * (s * np.array([1.0, -1.0, 1.0]))) @ V.conj().T
    for B, kind in ((misaligned, "givens"), (negative, "phase")):
        curve = _check_sv(A, B, s, "not_local_min", kind).descent_witness
        # every point of the witness stays on the orbit, and each sampled
        # value is the objective at that point
        for t, val in zip(curve.ts, curve.values):
            Bt = curve.point(float(t))
            assert np.allclose(np.linalg.svd(Bt, compute_uv=False), s, rtol=0, atol=1e-12)
            assert val == evaluate(NORM, A - Bt)


PAIR_SCALES = ((1e-3, 1.0), (1.0, 1e-3), (1.0, 1.0), (1e3, 1.0), (1.0, 1e3))


def _sv_verdicts(A, B, tol=1e-8):
    """Verdicts of (c A, c' B) over ``PAIR_SCALES``; a ValueError fails, and
    a ``certified_global`` joint SVD must describe B within ``tol * |B|_F``."""
    verdicts = []
    for c, c2 in PAIR_SCALES:
        cert = sv_orbit.certify_local(NORM, c * A, c2 * B, tol=tol)
        if cert.verdict == "certified_global":
            assert cert.joint.residual_b <= tol * frob(c2 * B)
        verdicts.append(cert.verdict)
    return verdicts


def test_joint_svd_tests_do_not_depend_on_scale():
    """The block tests of ``joint_svd`` refuse a pair that passes the
    products test at every scale of A and B or at none, and its verdict does
    not change when A and B are rescaled separately."""
    phase = np.exp(4e-9j)
    repro = [
        (np.array([[0.5]]), np.array([[phase]])),
        (0.5 * np.diag([1.0, 0.4]), np.diag([phase, 0.3])),
    ]
    for A, B in repro:
        assert _sv_verdicts(A, B) == ["certified_global"] * len(PAIR_SCALES)
    # A's second singular value is tiny but above the zero cut, so the
    # products test barely sees the non-Hermitian block 5i of B; replacing
    # it by its Hermitian part would certify B although diag(5, 0.1) is
    # closer to A on the orbit
    A, B = np.diag([1.0, 2e-9]), np.diag([0.1, 5j])
    assert _sv_verdicts(A, B) == ["inconclusive"] * len(PAIR_SCALES)
    for c, c2 in PAIR_SCALES:
        assert sv_orbit.certify_local(NORM, c * A, c2 * B).joint is None
        with pytest.raises(ValueError, match="not diagonal in A.s singular frames"):
            sv_orbit.joint_svd(c * A, c2 * B)
    rng = np.random.default_rng(77)
    for i in range(60):
        d = int(rng.integers(2, 6))
        A, B = hermitian_product_pair(d, rng, zero_block=(i % 2 == 0))
        B = skew_exp(unit_skew(random_general(d, rng)), 10.0 ** rng.uniform(-11, -7)) @ B
        assert len(set(_sv_verdicts(A, B))) == 1


@pytest.mark.parametrize("c", [1e-6, 1e-3, 1.0, 1e3])
def test_negative_beta_is_rejected_at_every_scale(c):
    cert = _check_sv(
        c * np.diag([2.0, 1.0]), c * np.diag([1.0, -0.005]), c * np.array([1.0, 0.005]),
        "not_local_min", "phase",
    )
    assert cert.descent_witness.param == 1


def test_zero_drop_phase_curve_is_no_witness():
    """beta = -2e-8 against alpha = 1e-6: rotating it drops the Schatten-3
    distance by less than one rounding of psi, so the sampled phase curve
    is flat and the candidate is inconclusive, not rejected with a curve
    that verifies no drop."""
    cert = sv_orbit.certify_local(schatten(3), np.diag([2.0, 1e-6]), np.diag([1.0, -2e-8]))
    assert cert.verdict == "inconclusive"
    assert cert.descent_witness is None


def _witness_cases():
    """(certifier, S or A, G0 or B) on the near-degenerate grids: sv
    diag(2, a) against diag(1, b) with a tiny negative b, and eig
    diag(2, 2 - delta, 0.5) against diag(1, 1 + eta, 3)."""
    for a in (1e-3, 1e-6, 1e-8, 3e-9):
        for b in (-2e-8, -1e-7, -1e-6):
            yield sv_orbit.certify_local, np.diag([2.0, a]), np.diag([1.0, b])
    for delta in (3e-7, 1e-6, 1e-4):
        for eta in (3e-7, 1e-6, 1e-4):
            yield eig_orbit.certify_local, np.diag([2.0, 2.0 - delta, 0.5]), np.diag([1.0, 1.0 + eta, 3.0])


@pytest.mark.parametrize("name", ["frobenius", "schatten:3", "schatten:1.2"])
def test_every_rejection_verifies_its_drop(name):
    """Every not_local_min carries a witness whose verified drop exceeds
    DROP_TOL |f(0)|, f(0) its first sample, and whose end point, evaluated
    again, lies below f(0) and below the candidate's value."""
    norm = parse_norm(name)
    for certify, X, Y in _witness_cases():
        cert = certify(norm, X, Y)
        if cert.verdict != "not_local_min":
            assert cert.descent_witness is None
            continue
        curve = cert.descent_witness
        f0 = curve.values[0]
        assert curve.verified_drop > curves.DROP_TOL * abs(f0)
        assert curve.verified_drop == f0 - curve.values[-1]
        end = evaluate(norm, X - curve.point(float(curve.ts[-1])))
        assert end < f0 and end < evaluate(norm, X - Y)


def _assert_same_certificate(a, b):
    assert a.verdict == b.verdict
    for x, y in zip(vars(a).values(), vars(b).values()):
        if isinstance(x, sv_orbit.JointSVD):
            x, y = vars(x), vars(y)
            assert all(np.array_equal(x[k], y[k]) for k in x)
        elif x is None or hasattr(x, "kind"):
            assert (x is None) == (y is None)
            if x is not None:
                assert (x.kind, x.param) == (y.kind, y.param)
                assert np.array_equal(x.ts, y.ts) and np.array_equal(x.values, y.values)
        else:
            assert np.array_equal(x, y)


def _seed_candidates(rng):
    """(certifier, norm, pair) for haar, band, aligned and misaligned
    candidates of both orbits; band candidates are inconclusive."""
    out = []
    for d, name in ((2, "frobenius"), (3, "schatten:3"), (4, "schatten:1.2")):
        norm = parse_norm(name)
        S = random_hermitian(d, rng)
        mu = sort_desc(rng.standard_normal(d))
        G_star = eig_orbit.global_minimizer(S, mu)
        U = skew_exp(unit_skew(random_general(d, rng)), 1e-6)
        S_mis, G_mis, _, _ = commuting_candidate(d, rng, aligned=False)
        for pair in (
            (S, eig_orbit.random_orbit_point(mu, rng)),
            (S, U @ G_star @ U.conj().T),
            (S, G_star),
            (S_mis, G_mis),
        ):
            out.append((eig_orbit.certify_local, norm, pair))
        A = random_general(d, rng)
        s = sort_desc(rng.uniform(0.2, 3.0, d))
        V, _, W = svd(A)
        B_star = (V.conj().T * s[np.newaxis, :]) @ W
        U1, U2 = (skew_exp(unit_skew(random_general(d, rng)), 1e-6) for _ in range(2))
        for pair in (
            (A, (haar_unitary(d, rng).conj().T * s[np.newaxis, :]) @ haar_unitary(d, rng)),
            (A, U1 @ B_star @ U2),
            (A, B_star),
            (A, (V.conj().T * s[::-1][np.newaxis, :]) @ W),
        ):
            out.append((sv_orbit.certify_local, norm, pair))
    return out


def test_certify_ignores_its_seed():
    """Every seed, and a passed Generator, gives the same certificate; the
    Generator is not advanced."""
    verdicts = set()
    for certify, norm, (X, Y) in _seed_candidates(np.random.default_rng(19)):
        ref = certify(norm, X, Y)
        verdicts.add(ref.verdict)
        for seed in (0, 1, 2**31 - 1):
            _assert_same_certificate(certify(norm, X, Y, seed=seed), ref)
        gen = np.random.default_rng(5)
        state = gen.bit_generator.state
        _assert_same_certificate(certify(norm, X, Y, seed=gen), ref)
        assert gen.bit_generator.state == state
    assert verdicts == {"certified_global", "not_local_min", "inconclusive"}


@pytest.mark.parametrize("norm", [frobenius(), schatten(3)], ids=["frobenius", "schatten3"])
def test_eig_and_sv_certifiers_agree_on_commuting_pairs(norm):
    """S = diag(1 + g, 1) and G0 = [[2, x], [x, 1]] commute to within tol,
    but no joint eigenbasis leaves less than about x off G0's diagonal:
    both certifiers refuse to certify them, as the products test and the
    joint SVD do.  Both hold the joint decomposition to one rule, and at its
    boundary agree again: leaving 0.5 tol |G0|_F off the diagonal
    certifies, leaving 2 tol |G0|_F does not.  On commuting candidates,
    certified_global is given by both or by neither."""
    for g, x in ((1e-6, 1e-3), (1e-6, 1e-2), (1e-5, 1e-3)):
        S, G0 = np.diag([1.0 + g, 1.0]), np.array([[2.0, x], [x, 1.0]])
        assert eig_orbit.certify_local(norm, S, G0).verdict == "inconclusive"
        assert sv_orbit.certify_local(norm, S, G0).verdict == "inconclusive"
    tol = 1e-8
    for r, verdict in ((0.5, "certified_global"), (2.0, "inconclusive")):
        # S = diag(1.001, 1) leaves sqrt(2) x of G0 off the diagonal
        x = r * tol * np.sqrt(5.0 / (2.0 - 2.0 * (r * tol) ** 2))
        S, G0 = np.diag([1.001, 1.0]), np.array([[2.0, x], [x, 1.0]])
        assert eig_orbit.joint_diagonalize(S, G0)[3] == pytest.approx(r * tol * frob(G0))
        assert eig_orbit.certify_local(norm, S, G0, tol).verdict == verdict
        assert sv_orbit.certify_local(norm, S, G0, tol).verdict == verdict
    with pytest.raises(ValueError, match="not diagonal in A.s singular frames"):
        sv_orbit.joint_svd(S, G0, tol)  # the pair at 2 tol
    rng = np.random.default_rng(23)
    certified = 0
    for i in range(40):
        S, G0, _lam, _nu = commuting_candidate(int(rng.integers(2, 6)), rng, aligned=i % 2 == 0)
        eig = eig_orbit.certify_local(norm, S, G0).verdict == "certified_global"
        assert eig == (sv_orbit.certify_local(norm, S, G0).verdict == "certified_global")
        certified += eig
    assert certified == 20


@pytest.mark.parametrize("norm", [frobenius(), schatten(3)], ids=["frobenius", "schatten3"])
@pytest.mark.parametrize(
    "beta, kind", [((1.0, -0.5, 0.25), "phase"), ((0.25, 1.0, 0.5), "givens")]
)
def test_sv_witnesses_start_at_B(norm, beta, kind):
    """B = U (diag beta + eps E) V^H, which its joint SVD describes only
    within about 5e-9 |B|_F: the phase and Givens curves act on B itself,
    so they start at B and keep its singular values."""
    rng = np.random.default_rng(31)
    U, V = haar_unitary(3, rng), haar_unitary(3, rng)
    A = (U * np.array([3.0, 2.0, 1.0])) @ V.conj().T
    E = random_general(3, rng)
    E -= np.diag(np.diag(E))
    B = U @ (np.diag(beta) + 5e-9 * np.linalg.norm(beta) / frob(E) * E) @ V.conj().T
    cert = sv_orbit.certify_local(norm, A, B)
    assert cert.joint.residual_b == pytest.approx(5e-9 * frob(B), rel=1e-3)
    curve = cert.descent_witness
    assert cert.verdict == "not_local_min" and curve.kind == kind
    assert frob(curve.point(0.0) - B) <= 1e-13 * frob(B)
    s = np.linalg.svd(B, compute_uv=False)
    for t in curve.ts:
        st = np.linalg.svd(curve.point(float(t)), compute_uv=False)
        assert np.max(np.abs(st - s)) <= 1e-13 * s[0]


NON_FINITE_TOL_CALLS = {
    "eig_orbit.certify_local": lambda tol: eig_orbit.certify_local(
        NORM, np.diag([2.0, 1.0]), np.diag([1.0, 2.0]), tol=tol
    ),
    "sv_orbit.certify_local": lambda tol: sv_orbit.certify_local(
        NORM, np.diag([2.0, 1.0]), np.diag([1.0, 2.0]), tol=tol
    ),
    "sv_orbit.joint_svd": lambda tol: sv_orbit.joint_svd(
        np.diag([2.0, 1.0]), np.diag([1.0, 2.0]), tol=tol
    ),
    "frames.structure_check": lambda tol: frames.structure_check(
        schatten(3), 2 * np.eye(2), frames.frame(np.eye(2)), tol=tol
    ),
    "frames.certify_uniform_eigenvalue": lambda tol: frames.certify_uniform_eigenvalue(
        NORM, 2 * np.eye(2), frames.frame(np.eye(2)), tol=tol
    ),
}


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-8])
@pytest.mark.parametrize("entry", sorted(NON_FINITE_TOL_CALLS))
def test_tolerance_must_be_positive_and_finite(entry, tol):
    call = NON_FINITE_TOL_CALLS[entry]
    call(1e-8)
    with pytest.raises(ValueError, match="tolerance"):
        call(tol)
