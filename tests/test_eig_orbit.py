import numpy as np
import pytest

from oracles import orbit_sample_values_stack
from lidskii import eig_orbit
from lidskii.majorization import majorizes, sort_desc
from lidskii.matrices import eigvalsh_desc, haar_unitary, random_hermitian
from lidskii.norms import evaluate, frobenius, schatten, spectral


def test_orbit_distance_examples():
    S = np.diag([3.0, 1.0])
    assert eig_orbit.orbit_distance(frobenius(), S, S) == 0.0
    assert eig_orbit.orbit_distance(frobenius(), S, np.diag([2.0, 0.0])) == pytest.approx(
        np.sqrt(2)
    )
    # orbit-constant when S = 0
    mu = np.array([2.0, 1.0])
    vals = {
        eig_orbit.orbit_distance(frobenius(), np.zeros((2, 2)), eig_orbit.random_orbit_point(mu, s))
        for s in range(5)
    }
    assert max(vals) - min(vals) < 1e-12


def test_global_minimizer_examples():
    Gop = eig_orbit.global_minimizer(np.diag([3.0, 1.0]), [2.0, 0.0])
    assert np.allclose(Gop, np.diag([2.0, 0.0]))
    S = np.array([[2.0, 1.0], [1.0, 2.0]])
    Gop = eig_orbit.global_minimizer(S, [1.0, 0.0])
    assert np.allclose(Gop, np.full((2, 2), 0.5))
    assert np.allclose(eigvalsh_desc(S - Gop), [2.0, 1.0])


def test_global_minimizer_difference_spectrum():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        S = random_hermitian(d, rng)
        mu = sort_desc(rng.standard_normal(d))
        Gop = eig_orbit.global_minimizer(S, mu)
        assert np.allclose(eigvalsh_desc(Gop), mu, atol=1e-10)
        expected = sort_desc(eigvalsh_desc(S) - mu)
        assert np.allclose(eigvalsh_desc(S - Gop), expected, atol=1e-9)


def test_rotated_distance_identity_and_bound():
    S, G0 = np.diag([3.0, 1.0]), np.diag([2.0, 0.0])
    n = frobenius()
    assert eig_orbit.rotated_distance(n, S, G0, np.eye(2), np.eye(2)) == pytest.approx(
        eig_orbit.orbit_distance(n, S, G0)
    )
    best = evaluate(n, np.diag([1.0, 1.0]))
    rng = np.random.default_rng(1)
    for _ in range(40):
        U, V = haar_unitary(2, rng), haar_unitary(2, rng)
        assert eig_orbit.rotated_distance(n, S, G0, U, V) >= best - 1e-10
        # trace of the rotated difference is conserved
        gamma = U.conj().T @ S @ U - V.conj().T @ G0 @ V
        assert abs(np.trace(gamma) - 2.0) < 1e-10


def test_certify_aligned_diagonal():
    cert = eig_orbit.certify_local(frobenius(), np.diag([3.0, 1.0]), np.diag([2.0, 0.0]))
    assert cert.verdict == "certified_global"
    assert cert.alignment_ok and cert.descent_witness is None
    assert cert.commutator_residual == 0.0


def test_certify_rejects_nonconvex_norm():
    with pytest.raises(ValueError):
        eig_orbit.certify_local(spectral(), np.eye(2), np.eye(2))


def test_certify_misaligned_emits_givens_witness():
    cert = eig_orbit.certify_local(frobenius(), np.diag([3.0, 1.0]), np.diag([0.0, 2.0]))
    assert cert.verdict == "not_local_min"
    curve = cert.descent_witness
    assert curve.kind == "givens"
    # proof formula: phi(t)^2 = 10 - 8 sin(t)^2 for this instance
    for t, v in zip(curve.ts, curve.values):
        assert v**2 == pytest.approx(10 - 8 * np.sin(t) ** 2, abs=1e-9)
    assert curve.verified_drop > 1e-10
    slack = 1e-12 * (1 + curve.values[0])
    assert np.all(np.diff(curve.values) <= slack)


def test_certify_scalar_orbit_S_identity():
    mu = np.array([2.0, 1.0, 0.0])
    G0 = eig_orbit.random_orbit_point(mu, 3)
    cert = eig_orbit.certify_local(schatten(1.5), np.eye(3), G0)
    assert cert.verdict == "certified_global"


def test_givens_descent_curve_guards():
    S, G0 = np.diag([3.0, 1.0]), np.diag([0.0, 2.0])
    curve = eig_orbit.givens_descent_curve(frobenius(), S, G0, 0)
    assert curve.values[0] == pytest.approx(np.sqrt(10))
    # degenerate S eigenvalues at the pivot are a precondition error
    with pytest.raises(ValueError):
        eig_orbit.givens_descent_curve(frobenius(), np.eye(2), np.diag([0.0, 2.0]), 0)
    # no inversion at the pivot
    with pytest.raises(ValueError):
        eig_orbit.givens_descent_curve(frobenius(), S, np.diag([2.0, 0.0]), 0)


def test_descent_curve_stays_on_orbit():
    S, G0 = np.diag([3.0, 1.0]), np.diag([0.0, 2.0])
    curve = eig_orbit.givens_descent_curve(frobenius(), S, G0, 0)
    for t in curve.ts[::8]:
        Gt = curve.point(float(t))
        assert np.allclose(eigvalsh_desc(Gt), [2.0, 0.0], atol=1e-10)
    Gt, val = curve.sample(0.3)
    assert val == pytest.approx(evaluate(frobenius(), S - Gt))


def test_certify_noncommuting_finds_witness():
    S = np.array([[2.0, 1.0], [1.0, 0.0]])
    G0 = np.diag([1.0, -1.0])
    for norm in (frobenius(), schatten(1.5), schatten(4)):
        cert = eig_orbit.certify_local(norm, S, G0, seed=5)
        assert cert.verdict == "not_local_min"
        assert cert.commutator_residual > 0.1
        curve = cert.descent_witness
        slack = 1e-12 * (1 + cert.phi)
        assert np.all(np.diff(curve.values) <= slack)
        assert curve.verified_drop > 1e-10 * (1 + cert.phi)
        # witness stays on the orbit of G0
        for t in curve.ts[:: max(1, len(curve.ts) // 6)]:
            Gt = curve.point(float(t))
            assert np.allclose(eigvalsh_desc(Gt), [1.0, -1.0], atol=1e-8)


def test_certified_global_matches_lidskii_equality():
    rng = np.random.default_rng(2)
    for _ in range(25):
        d = int(rng.integers(2, 6))
        S = random_hermitian(d, rng)
        mu = sort_desc(rng.standard_normal(d))
        G0 = eig_orbit.global_minimizer(S, mu)
        cert = eig_orbit.certify_local(schatten(2), S, G0, seed=rng)
        assert cert.verdict == "certified_global"
        lamdiff = sort_desc(eigvalsh_desc(S) - mu)
        assert np.allclose(eigvalsh_desc(S - G0), lamdiff, atol=1e-9)


def test_lidskii_inequality_against_orbit_samples():
    rng = np.random.default_rng(3)
    S = random_hermitian(4, rng)
    mu = sort_desc(rng.standard_normal(4))
    Gop = eig_orbit.global_minimizer(S, mu)
    base = eigvalsh_desc(S - Gop)
    for seed in range(30):
        G = eig_orbit.random_orbit_point(mu, seed)
        v = majorizes(eigvalsh_desc(S - G), base, 1e-9)
        assert v.holds


def test_orbit_sample_values_matches_direct_evaluation():
    rng = np.random.default_rng(4)
    S = random_hermitian(3, rng)
    mu = sort_desc(rng.standard_normal(3))
    vals = eig_orbit.orbit_sample_values(frobenius(), S, mu, 64, 9)
    Gop = eig_orbit.global_minimizer(S, mu)
    assert np.min(vals) >= eig_orbit.orbit_distance(frobenius(), S, Gop) - 1e-8
    assert vals.shape == (64,)


# around the 512-sample block: none, one, a block less one, a block, and
# a block plus one, then three blocks
SAMPLER_COUNTS = (0, 1, 511, 512, 513, 1500)


@pytest.mark.parametrize("d", [1, 2, 5, 8])
def test_orbit_sampler_matches_one_stack_bitwise(d):
    rng = np.random.default_rng(60 + d)
    S = random_hermitian(d, rng)
    mu = rng.standard_normal(d)  # unsorted: both sort it
    for norm in (frobenius(), schatten(3)):
        for n in SAMPLER_COUNTS:
            seed = int(rng.integers(0, 2**31))
            vals = eig_orbit.orbit_sample_values(norm, S, mu, n, seed)
            assert vals.shape == (n,)
            assert np.array_equal(vals, orbit_sample_values_stack(norm, S, mu, n, seed))
            # a shared Generator yields the same values and is left in the
            # same state
            g, g_stack = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(
                eig_orbit.orbit_sample_values(norm, S, mu, n, g),
                orbit_sample_values_stack(norm, S, mu, n, g_stack),
            )
            assert g.standard_normal() == g_stack.standard_normal()


def test_orbit_sampler_rejects_length_mismatch():
    # a length-1 spectrum would broadcast to the samples of S - 2 I
    with pytest.raises(ValueError, match="length mismatch"):
        eig_orbit.orbit_sample_values(frobenius(), np.eye(3), [2.0], 4, 0)
