import numpy as np
import pytest

from oracles import commutant_kernel_dim, pair_submersion_kernel_dim
from lidskii.matrices import (
    as_hermitian,
    cluster_desc,
    commutant_is_trivial,
    commutator,
    dilate,
    eigh,
    eigvalsh_desc,
    frob,
    haar_qr,
    haar_unitary,
    pair_submersion_test,
    random_general,
    random_hermitian,
    skew_exp,
    unit_skew,
    svd,
    svdvals,
)


def test_eigh_examples():
    lam, V = eigh(np.diag([1.0, 3.0]))
    assert np.allclose(lam, [3.0, 1.0])
    assert np.allclose(np.abs(V), [[0, 1], [1, 0]])
    lam, V = eigh(np.eye(3))
    assert np.allclose(lam, 1.0)
    lam, _ = eigh([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(lam, [3.0, 1.0])


def test_eigh_rejects_nonhermitian():
    with pytest.raises(ValueError):
        eigh([[0.0, 1.0], [0.0, 0.0]])


def test_as_hermitian_symmetrizes_within_tolerance():
    M = np.array([[1.0, 0.5 + 1e-13j], [0.5, 2.0]])
    H = as_hermitian(M)
    assert frob(H - H.conj().T) == 0.0


def test_svd_examples_paper_convention():
    V, s, U = svd(np.diag([2.0, -1.0]))
    assert np.allclose(s, [2.0, 1.0])
    V, s, U = svd(np.zeros((3, 3)))
    assert np.allclose(s, 0.0)
    A = np.array([[0.0, 3.0], [0.0, 0.0]])
    V, s, U = svd(A)
    assert np.allclose(s, [3.0, 0.0])
    assert np.allclose(V.conj().T @ np.diag(s) @ U, A)


def test_svd_requires_square():
    with pytest.raises(ValueError):
        svd(np.ones((2, 3)))


def test_dilate_examples():
    assert np.allclose(eigvalsh_desc(dilate(np.diag([2.0, 1.0]))), [2, 1, -1, -2])
    assert np.allclose(dilate(np.zeros((2, 2))), 0.0)
    C = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(eigvalsh_desc(dilate(C)), [1, 0, 0, -1])


def test_dilate_spectrum_fuzz():
    rng = np.random.default_rng(0)
    for _ in range(100):
        d = int(rng.integers(1, 7))
        C = random_general(d, rng, scale=float(rng.uniform(0.1, 4.0)))
        s = svdvals(C)
        expected = np.concatenate([s, -s[::-1]])
        err = np.max(np.abs(eigvalsh_desc(dilate(C)) - expected))
        assert err < 1e-9 * (1 + s[0])


def test_commutator_examples():
    A = random_general(3, 1)
    assert np.allclose(commutator(A, np.eye(3)), 0.0)
    got = commutator(np.diag([1.0, 2.0]), np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(got, [[0.0, -1.0], [0.0, 0.0]])
    assert np.allclose(commutator(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])), 0.0)
    with pytest.raises(ValueError):
        commutator(np.eye(2), np.eye(3))


def test_haar_unitary_contracts():
    u = haar_unitary(1, 5)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12
    U1 = haar_unitary(4, 11)
    U2 = haar_unitary(4, 11)
    assert np.array_equal(U1, U2)
    U = haar_unitary(3, 0)
    assert frob(U.conj().T @ U - np.eye(3)) < 1e-12


def _gaussian(d, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)


@pytest.mark.parametrize("d", [1, 2, 5, 8])
def test_haar_qr_slices_equal_haar_unitary_bitwise(d):
    # haar_unitary(d, k) draws exactly _gaussian(d, k)
    Z = np.stack([_gaussian(d, k) for k in range(12)]).reshape(3, 4, d, d)
    Q = haar_qr(Z)
    assert Q.shape == (3, 4, d, d)
    for k in range(12):
        assert np.array_equal(Q[k // 4, k % 4], haar_unitary(d, k))


def test_haar_qr_phase_convention():
    # Q^H Z is upper triangular with a positive real diagonal
    Z = np.stack([_gaussian(4, k) for k in range(8)])
    Q = haar_qr(Z)
    R = np.conj(np.swapaxes(Q, -1, -2)) @ Z
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    assert np.all(diag.real > 0) and np.allclose(diag.imag, 0.0, atol=1e-12)
    assert np.allclose(np.tril(R, -1), 0.0, atol=1e-12)
    assert np.allclose(np.conj(np.swapaxes(Q, -1, -2)) @ Q, np.eye(4), atol=1e-12)


def test_haar_phase_convention_is_deterministic_distribution():
    # column phases fixed by R diagonal: determinant spread sanity check
    vals = [np.angle(np.linalg.det(haar_unitary(2, s))) for s in range(40)]
    assert np.std(vals) > 0.5


def test_skew_exp_is_unitary_one_parameter_group():
    rng = np.random.default_rng(2)
    Z = random_general(4, rng)
    K = (Z - Z.conj().T) / 2
    E1 = skew_exp(K, 0.3)
    E2 = skew_exp(K, 0.7)
    assert frob(E1.conj().T @ E1 - np.eye(4)) < 1e-12
    assert frob(E1 @ E2 - skew_exp(K, 1.0)) < 1e-12


def test_skew_exp_stack_equals_per_slice_bitwise():
    rng = np.random.default_rng(3)
    for d in range(1, 7):
        K = unit_skew(rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d)))
        t = rng.uniform(0.0, 1.0, 5)
        paired = skew_exp(K, t)
        assert paired.shape == (5, d, d)
        grid = skew_exp(K, t[:, np.newaxis])
        assert grid.shape == (5, 5, d, d)
        for i in range(5):
            assert np.array_equal(paired[i], skew_exp(K[i], t[i]))
            for j in range(5):
                assert np.array_equal(grid[j, i], skew_exp(K[i], t[j]))


def test_unit_skew_equals_per_slice_normalization_bitwise():
    rng = np.random.default_rng(4)
    for d in range(1, 7):
        Z = rng.standard_normal((6, d, d)) + 1j * rng.standard_normal((6, d, d))
        X = unit_skew(Z)
        for i in range(6):
            K = (Z[i] - Z[i].conj().T) / 2.0
            assert np.array_equal(X[i], K / frob(K))


def test_skew_exp_rejects_bad_stacks():
    with pytest.raises(ValueError):
        skew_exp(np.full((3, 2, 2), np.nan))
    with pytest.raises(ValueError):
        skew_exp(np.array([[0.0, np.inf], [-np.inf, 0.0]]))
    with pytest.raises(ValueError):
        skew_exp(np.zeros((3, 2, 3)))
    with pytest.raises(ValueError):
        skew_exp(np.zeros(4))


def test_cluster_desc_groups_near_degenerate():
    groups = cluster_desc(np.array([3.0 + 1e-9, 3.0, 1.0]))
    assert [list(g) for g in groups] == [[0, 1], [2]]
    groups = cluster_desc(np.array([5.0, 3.0, 1.0]))
    assert len(groups) == 3
    # the threshold scales with the values: a rescaled vector groups the same
    for c in (1e-9, 1e9):
        groups = cluster_desc(c * np.array([3.0 + 1e-9, 3.0, 1.0]))
        assert [list(g) for g in groups] == [[0, 1], [2]]
        assert len(cluster_desc(c * np.array([5.0, 3.0, 1.0]))) == 3


def test_commutant_examples():
    ok, kdim = commutant_is_trivial(np.diag([1.0, 2.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert ok and kdim == 0
    ok, kdim = commutant_is_trivial(np.eye(3), np.eye(3))
    assert not ok and kdim == 8
    ok, kdim = commutant_is_trivial(np.diag([1.0, 1.0, 2.0]), np.diag([1.0, 2.0, 2.0]))
    assert not ok and kdim >= 1


def test_commutant_is_trivial_for_d1():
    # no traceless Hermitian 1 x 1 matrix: the commutant is C * I
    assert commutant_is_trivial([[1.0]], [[2.0]]) == (True, 0)
    assert commutant_is_trivial(np.array([[3.0 + 0j]]), np.array([[3.0]])) == (True, 0)


def test_commutant_agrees_with_kron_oracle():
    rng = np.random.default_rng(3)
    from lidskii.properties import _degenerate_commutant_pair

    for i in range(40):
        d = int(rng.integers(2, 6))
        if i % 2 == 0:
            S, G = random_hermitian(d, rng), random_hermitian(d, rng)
        else:
            S, G = _degenerate_commutant_pair(d, rng)
        ok, kdim = commutant_is_trivial(S, G)
        assert kdim == commutant_kernel_dim(S, G)
        assert ok == (kdim == 0)


def _pair_defect(A, B, Z):
    """The largest of the four defects from Hermitian that put Z in the
    pair map's kernel."""
    return max(
        frob(A @ Z.conj().T - Z @ A.conj().T),
        frob(A.conj().T @ Z - Z.conj().T @ A),
        frob(B @ Z.conj().T - Z @ B.conj().T),
        frob(B.conj().T @ Z - Z.conj().T @ B),
    )


def test_pair_submersion_examples():
    ok, kdim, Z = pair_submersion_test(np.diag([1.0, 2.0]), np.diag([1.0, 2.0]))
    assert not ok and kdim >= 1 and Z is not None
    # generic pair: only Z = 0 satisfies all four Hermitian conditions
    rng = np.random.default_rng(4)
    A = np.diag([1.0, 2.0]).astype(complex)
    B = random_general(2, rng)
    ok, kdim, Z = pair_submersion_test(A, B)
    assert ok and kdim == 0 and Z is None
    ok, kdim, Z = pair_submersion_test(np.zeros((2, 2)), np.zeros((2, 2)))
    assert not ok and kdim == 8


def test_pair_submersion_hermitian_product_rule():
    # A^H B and A B^H Hermitian forces a nontrivial kernel (Z = B works)
    rng = np.random.default_rng(5)
    from lidskii.properties import hermitian_product_pair

    for _ in range(20):
        d = int(rng.integers(2, 5))
        A, B = hermitian_product_pair(d, rng)
        ok, kdim, Z = pair_submersion_test(A, B)
        assert not ok and kdim >= 1
        assert _pair_defect(A, B, Z) < 1e-6 * (1 + frob(A) + frob(B))


def test_pair_submersion_agrees_with_kron_oracle():
    rng = np.random.default_rng(6)
    from lidskii.properties import hermitian_product_pair

    for i in range(30):
        d = int(rng.integers(2, 6))
        if i % 2 == 0:
            A, B = random_general(d, rng), random_general(d, rng)
        else:
            A, B = hermitian_product_pair(d, rng)
        ok, kdim, _ = pair_submersion_test(A, B)
        assert kdim == pair_submersion_kernel_dim(A, B)


def test_pair_submersion_for_d1():
    # A^H Z and A Z^H are real exactly for real Z; B = 2i also asks Z
    # imaginary, which leaves only Z = 0
    ok, kdim, Z = pair_submersion_test([[1.0]], [[2.0]])
    assert (ok, kdim) == (False, 1)
    assert Z.imag[0, 0] == 0.0 and abs(Z[0, 0]) == 1.0
    assert pair_submersion_test([[1.0]], [[2j]]) == (True, 0, None)


def test_pair_submersion_with_zero_operands():
    rng = np.random.default_rng(8)
    for d in (2, 3, 4):
        B = random_general(d, rng)
        zero = np.zeros((d, d))
        # A = 0 leaves B's conditions, which Z = B itself meets
        ok, kdim, Z = pair_submersion_test(zero, B)
        assert not ok and kdim == pair_submersion_kernel_dim(zero, B) >= 1
        assert np.isfinite(Z).all() and abs(frob(Z) - 1.0) < 1e-12
        assert _pair_defect(zero, B, Z) < 1e-10 * frob(B)
        # A = B = 0: every Z is in the kernel
        ok, kdim, Z = pair_submersion_test(zero, zero)
        assert not ok and kdim == 2 * d * d
        assert np.isfinite(Z).all() and abs(frob(Z) - 1.0) < 1e-12


def test_reconstruction_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(150):
        d = int(rng.integers(2, 9))
        M = random_hermitian(d, rng, scale=float(rng.uniform(0.1, 10)))
        lam, V = eigh(M)
        assert frob(M - (V * lam) @ V.conj().T) <= 1e-9 * (1 + frob(M))
        A = random_general(d, rng)
        Vs, s, U = svd(A)
        assert frob(A - (Vs.conj().T * s) @ U) <= 1e-9 * (1 + frob(A))
