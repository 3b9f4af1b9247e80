import numpy as np
import pytest

from oracles import sv_orbit_sample_residuals_loop, sv_orbit_sample_values_loop
from lidskii import sv_orbit
from lidskii.majorization import sort_desc
from lidskii.matrices import frob, haar_unitary, random_general, random_hermitian, svdvals
from lidskii.norms import evaluate, frobenius, gauge, schatten, spectral
from lidskii.properties import hermitian_product_pair


def test_orbit_distance_examples():
    A = np.diag([2.0, 1.0])
    assert sv_orbit.orbit_distance(frobenius(), A, A) == 0.0
    assert sv_orbit.orbit_distance(frobenius(), A, np.diag([1.0, 0.5])) == pytest.approx(
        np.sqrt(1.25)
    )
    assert sv_orbit.orbit_distance(frobenius(), A, np.zeros((2, 2))) == pytest.approx(
        evaluate(frobenius(), A)
    )


def test_global_minimizer_examples():
    B = sv_orbit.global_minimizer(np.diag([3.0, 1.0]), [2.0, 1.0])
    assert np.allclose(B, np.diag([2.0, 1.0]))
    assert np.allclose(svdvals(np.diag([3.0, 1.0]) - B), [1.0, 0.0])
    A = np.array([[0.0, 3.0], [0.0, 0.0]])
    B = sv_orbit.global_minimizer(A, [1.0, 0.0])
    assert np.allclose(B, [[0.0, 1.0], [0.0, 0.0]], atol=1e-12)
    assert np.allclose(svdvals(A - B), [2.0, 0.0])
    with pytest.raises(ValueError):
        sv_orbit.global_minimizer(A, [-1.0, 0.0])


def test_global_minimizer_difference_spectrum_fuzz():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        A = random_general(d, rng)
        s = sort_desc(rng.uniform(0, 3, d))
        B = sv_orbit.global_minimizer(A, s)
        assert np.allclose(svdvals(B), s, atol=1e-10)
        expected = sort_desc(np.abs(svdvals(A) - s))
        assert np.allclose(svdvals(A - B), expected, atol=1e-9)


def test_joint_svd_examples():
    j = sv_orbit.joint_svd(np.diag([2.0, 1.0]), np.diag([1.0, 3.0]))
    assert np.allclose(np.abs(j.U), np.eye(2))
    assert np.allclose(j.beta, [1.0, 3.0])
    # A = I: any Hermitian B diagonalizes in its own eigenbasis
    rng = np.random.default_rng(1)
    B = random_hermitian(3, rng)
    j = sv_orbit.joint_svd(np.eye(3), B)
    assert np.allclose(sort_desc(j.beta), sort_desc(np.linalg.eigvalsh(B)))
    assert j.residual_b < 1e-10
    # 2 + 1 split with a zero singular value block
    h = random_hermitian(2, rng)
    b = 0.3 - 0.7j
    B = np.zeros((3, 3), dtype=complex)
    B[:2, :2] = h
    B[2, 2] = b
    A = np.diag([1.0, 1.0, 0.0]).astype(complex)
    j = sv_orbit.joint_svd(A, B)
    expected = np.concatenate([sort_desc(np.linalg.eigvalsh(h)), [abs(b)]])
    assert np.allclose(j.beta, expected, atol=1e-10)
    assert max(j.residual_a, j.residual_b) < 1e-10


def test_joint_svd_rejects_nonhermitian_products():
    rng = np.random.default_rng(2)
    A = random_general(3, rng)
    B = random_general(3, rng)
    rA, _ = sv_orbit.hermitian_residuals(A, B)
    assert rA > 0.1
    with pytest.raises(ValueError):
        sv_orbit.joint_svd(A, B)


def test_joint_svd_soundness_fuzz():
    rng = np.random.default_rng(3)
    for i in range(60):
        d = int(rng.integers(2, 7))
        A, B = hermitian_product_pair(d, rng, zero_block=(i % 2 == 0))
        j = sv_orbit.joint_svd(A, B)
        scale = 1 + frob(A) * frob(B)
        assert max(j.residual_a, j.residual_b) <= 1e-8 * scale
        # U, V unitary
        assert frob(j.U.conj().T @ j.U - np.eye(d)) < 1e-10
        assert frob(j.V.conj().T @ j.V - np.eye(d)) < 1e-10


def test_certify_examples():
    cert = sv_orbit.certify_local(frobenius(), np.diag([2.0, 1.0]), np.diag([1.0, 0.5]))
    assert cert.verdict == "certified_global"
    assert np.allclose(
        svdvals(np.diag([2.0, 1.0]) - np.diag([1.0, 0.5])), [1.0, 0.5]
    )

    cert = sv_orbit.certify_local(frobenius(), np.diag([2.0, 1.0]), np.diag([-1.0, 0.0]))
    assert cert.verdict == "not_local_min"
    curve = cert.descent_witness
    assert curve.kind == "phase"
    # proof's profile: psi(t) = sqrt(6 + 4 cos t) on this instance
    for t, v in zip(curve.ts, curve.values):
        assert v == pytest.approx(np.sqrt(6 + 4 * np.cos(t)), abs=1e-9)

    cert = sv_orbit.certify_local(frobenius(), np.diag([3.0, 1.0]), np.diag([0.0, 2.0]))
    assert cert.verdict == "not_local_min"
    assert cert.descent_witness.kind == "givens"
    # the Givens reduction curve must stay on the singular-value orbit
    for t in cert.descent_witness.ts[::10]:
        Bt = cert.descent_witness.point(float(t))
        assert np.allclose(svdvals(Bt), [2.0, 0.0], atol=1e-9)


def test_certify_rejects_nonconvex():
    with pytest.raises(ValueError):
        sv_orbit.certify_local(spectral(), np.eye(2), np.eye(2))


def test_certify_zero_orbit_is_global():
    cert = sv_orbit.certify_local(frobenius(), np.diag([2.0, 1.0]), np.zeros((2, 2)))
    assert cert.verdict == "certified_global"


def test_certify_nonhermitian_candidate():
    rng = np.random.default_rng(4)
    A = random_general(3, rng)
    B = random_general(3, rng)
    cert = sv_orbit.certify_local(schatten(1.5), A, B, seed=7)
    assert cert.verdict in ("not_local_min", "inconclusive")
    if cert.verdict == "not_local_min":
        curve = cert.descent_witness
        s0 = svdvals(B)
        for t in curve.ts[:: max(1, len(curve.ts) // 5)]:
            Bt = curve.point(float(t))
            assert np.allclose(svdvals(Bt), s0, atol=1e-8)
        slack = 1e-12 * (1 + cert.psi)
        assert np.all(np.diff(curve.values) <= slack)


def test_scalar_case():
    a = 1.0 + 1.0j
    s = 0.5
    aligned = s * a / abs(a)
    cert = sv_orbit.certify_local(frobenius(), [[a]], [[aligned]])
    assert cert.verdict == "certified_global"
    assert (np.conj(a) * aligned).real >= 0
    rotated = aligned * np.exp(1j * 2.0)
    cert = sv_orbit.certify_local(frobenius(), [[a]], [[rotated]])
    assert cert.verdict == "not_local_min"


def test_equality_case_examples():
    A = np.diag([3.0, 1.0])
    B = sv_orbit.global_minimizer(A, [2.0, 1.0])
    assert sv_orbit.equality_case(A, B)
    A = np.diag([1.0, 0.0])
    B = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(svdvals(A), svdvals(B))
    assert not sv_orbit.equality_case(A, B)
    assert sv_orbit.equality_case(A, A)


def test_equality_iff_joint_svd_fuzz():
    rng = np.random.default_rng(5)
    for i in range(40):
        d = int(rng.integers(2, 6))
        U, V = haar_unitary(d, rng), haar_unitary(d, rng)
        a = sort_desc(rng.uniform(0, 3, d))
        b = sort_desc(rng.uniform(0, 3, d))
        A = U.conj().T @ np.diag(a).astype(complex) @ V
        B = U.conj().T @ np.diag(b).astype(complex) @ V
        assert sv_orbit.equality_case(A, B)
        rA, rB = sv_orbit.hermitian_residuals(A, B)
        assert max(rA, rB) < 1e-8 * (1 + frob(A) * frob(B))
    for _ in range(40):
        d = int(rng.integers(2, 6))
        A = random_general(d, rng)
        B = random_general(d, rng)
        rA, _ = sv_orbit.hermitian_residuals(A, B)
        if rA > 0.1 * (1 + frob(A) * frob(B)):
            assert not sv_orbit.equality_case(A, B)


def test_dilation_consistency_with_pair_map():
    from lidskii.matrices import dilate, eigvalsh_desc

    rng = np.random.default_rng(6)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        A, B = random_general(d, rng), random_general(d, rng)
        U1, U2, V1, V2 = (haar_unitary(d, rng) for _ in range(4))
        inner = U1.conj().T @ A @ V1 - U2.conj().T @ B @ V2
        big1 = np.zeros((2 * d, 2 * d), dtype=complex)
        big1[:d, :d] = U1
        big1[d:, d:] = V1
        big2 = np.zeros_like(big1)
        big2[:d, :d] = U2
        big2[d:, d:] = V2
        lhs = eigvalsh_desc(dilate(inner))
        rhs = eigvalsh_desc(big1.conj().T @ dilate(A) @ big1 - big2.conj().T @ dilate(B) @ big2)
        assert np.allclose(lhs, rhs, atol=1e-9 * (1 + frob(A) + frob(B)))


# around the 512-sample block: none, one, a block less one, a block, and
# a block plus one, then three blocks
SAMPLER_COUNTS = (0, 1, 511, 512, 513, 1500)


@pytest.mark.parametrize("d", [1, 2, 5, 8])
def test_sv_sampler_matches_per_sample_loop_bitwise(d):
    rng = np.random.default_rng(40 + d)
    A = random_general(d, rng)
    s = rng.uniform(0.0, 3.0, d)  # unsorted: both sort it
    for norm in (frobenius(), schatten(3)):
        for n in SAMPLER_COUNTS:
            seed = int(rng.integers(0, 2**31))
            vals = sv_orbit.sv_orbit_sample_values(norm, A, s, n, seed)
            assert vals.shape == (n,)
            assert np.array_equal(vals, sv_orbit_sample_values_loop(norm, A, s, n, seed))
            # a shared Generator yields the same values and is left in the
            # same state
            g, g_loop = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(
                sv_orbit.sv_orbit_sample_values(norm, A, s, n, g),
                sv_orbit_sample_values_loop(norm, A, s, n, g_loop),
            )
            assert g.standard_normal() == g_loop.standard_normal()


def _frobenius_from_singular_values(A, s, n, seed):
    """The Frobenius gauge of the singular values of the same n samples."""
    sv = np.linalg.svd(sv_orbit_sample_residuals_loop(A, s, n, seed), compute_uv=False)
    return np.asarray(gauge(frobenius(), sv))


@pytest.mark.parametrize("d", range(1, 9))
def test_sv_sampler_frobenius_values_match_the_singular_values(d):
    """Frobenius values come from the residual's entries, the other norms'
    from its singular values; on the same samples the two routes agree."""
    rng = np.random.default_rng(90 + d)
    A = random_general(d, rng)
    s = rng.uniform(0.0, 3.0, d)
    for n in (1, 511, 512, 1025):
        seed = int(rng.integers(0, 2**31))
        vals = sv_orbit.sv_orbit_sample_values(frobenius(), A, s, n, seed)
        ref = _frobenius_from_singular_values(A, s, n, seed)
        assert np.all(np.abs(vals - ref) <= 1e-13 * ref)


@pytest.mark.parametrize("s", [[2.0, 0.0, 1.0, 0.0, 0.0], [0.0] * 5])
def test_sv_sampler_frobenius_zeros_in_target(s):
    # d = 1 is among the dimensions, and n = 0 among the counts, of the tests above
    A = random_general(5, np.random.default_rng(19))
    vals = sv_orbit.sv_orbit_sample_values(frobenius(), A, s, 700, 5)
    assert np.array_equal(vals, sv_orbit_sample_values_loop(frobenius(), A, s, 700, 5))
    ref = _frobenius_from_singular_values(A, s, 700, 5)
    assert np.all(np.abs(vals - ref) <= 1e-13 * ref)


@pytest.mark.parametrize("c", [1e-8, 1e8])
def test_sv_sampler_frobenius_values_scale(c):
    rng = np.random.default_rng(29)
    A = random_general(6, rng)
    s = rng.uniform(0.0, 3.0, 6)
    vals = sv_orbit.sv_orbit_sample_values(frobenius(), A, s, 600, 8)
    scaled = sv_orbit.sv_orbit_sample_values(frobenius(), c * A, c * s, 600, 8)
    assert np.all(np.abs(scaled - c * vals) <= 1e-13 * c * vals)


def test_sv_sampler_rejects_length_mismatch():
    # a length-1 target would broadcast to the orbit of 2 I
    with pytest.raises(ValueError, match="length mismatch"):
        sv_orbit.sv_orbit_sample_values(frobenius(), np.eye(3), [2.0], 4, 0)


def test_sv_sampler_rejects_negative_target():
    with pytest.raises(ValueError, match="non-negative"):
        sv_orbit.sv_orbit_sample_values(frobenius(), np.eye(3), [1.0, -2.0, 0.5], 4, 0)


def _rank_deficient(d, rank, rng):
    a = np.zeros(d)
    a[:rank] = rng.uniform(0.5, 3.0, rank)
    return (haar_unitary(d, rng).conj().T * a[np.newaxis, :]) @ haar_unitary(d, rng)


@pytest.mark.parametrize("case", ["d1", "zero_singular_value", "rank_deficient_A"])
def test_no_sample_beats_closed_form_optimum_degenerate(case):
    rng = np.random.default_rng(7)
    if case == "d1":
        A = np.array([[rng.standard_normal() + 1j * rng.standard_normal()]])
        s = [0.7]
    elif case == "zero_singular_value":
        A = random_general(4, rng)
        s = [2.0, 1.0, 0.0, 0.0]
    else:
        A = _rank_deficient(4, 2, rng)
        s = [2.5, 1.5, 0.5, 0.0]
    for norm in (frobenius(), schatten(3)):
        optimum = sv_orbit.orbit_distance(norm, A, sv_orbit.global_minimizer(A, s))
        vals = sv_orbit.sv_orbit_sample_values(norm, A, s, 2000, 11)
        assert np.all(np.isfinite(vals))
        assert float(np.min(vals)) >= optimum - 1e-8
