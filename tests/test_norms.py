import math

import numpy as np
import pytest

from lidskii.matrices import haar_unitary, random_general
from lidskii.norms import (
    NormSpec,
    evaluate,
    frobenius,
    gauge,
    is_strictly_convex,
    kyfan,
    norm_gradient,
    parse_norm,
    schatten,
    spectral,
)


def test_evaluate_examples():
    A = np.diag([3.0, 4.0])
    assert evaluate(frobenius(), A) == pytest.approx(5.0)
    assert evaluate(kyfan(1), A) == pytest.approx(4.0)
    assert evaluate(spectral(), A) == pytest.approx(4.0)
    assert evaluate(schatten(1), A) == pytest.approx(7.0)


def test_strict_convexity_classification():
    assert is_strictly_convex(schatten(2))
    assert is_strictly_convex(schatten(1.5))
    assert is_strictly_convex(frobenius())
    assert not is_strictly_convex(spectral())
    assert not is_strictly_convex(schatten(1))
    assert not is_strictly_convex(schatten(math.inf))
    assert not is_strictly_convex(kyfan(2))


def test_rejects_p_below_one():
    with pytest.raises(ValueError):
        schatten(0.5)
    with pytest.raises(ValueError):
        kyfan(0)
    with pytest.raises(ValueError):
        NormSpec("nuclear")


@pytest.mark.parametrize("p", [math.nan, -math.inf, 0.999])
def test_schatten_rejects_p_not_at_least_one(p):
    with pytest.raises(ValueError, match="p >= 1"):
        schatten(p)
    assert schatten(math.inf).p == math.inf


def test_parse_and_json_round_trip():
    for text in ("schatten:2", "schatten:1.5", "kyfan:3", "spectral", "frobenius"):
        assert parse_norm(text).to_json()["kind"] == text.partition(":")[0]
    assert parse_norm("schatten:inf").p == math.inf
    with pytest.raises(ValueError):
        parse_norm("taxicab")


def test_frobenius_matches_schatten_two():
    rng = np.random.default_rng(0)
    for _ in range(20):
        A = random_general(4, rng)
        assert evaluate(frobenius(), A) == pytest.approx(evaluate(schatten(2), A))


def test_large_p_stabilized_approaches_spectral():
    rng = np.random.default_rng(1)
    A = random_general(5, rng, scale=100.0)
    big = evaluate(schatten(400), A)
    top = evaluate(spectral(), A)
    assert np.isfinite(big)
    assert big == pytest.approx(top, rel=1e-2)
    assert big >= top - 1e-12


def test_gauge_batch_axis():
    s = np.array([[3.0, 1.0], [4.0, 0.0]])
    out = gauge(schatten(1), s)
    assert np.allclose(out, [4.0, 4.0])
    assert gauge(kyfan(5), np.array([2.0, 1.0])) == pytest.approx(3.0)


def test_evaluate_stack_equals_per_slice_bitwise():
    rng = np.random.default_rng(5)
    norms = [frobenius(), spectral(), kyfan(2), schatten(1), schatten(1.2), schatten(3),
             schatten(80), schatten(math.inf)]
    for d in range(1, 7):
        A = rng.standard_normal((9, d, d)) + 1j * rng.standard_normal((9, d, d))
        for norm in norms:
            vals = evaluate(norm, A)
            assert vals.shape == (9,)
            for i in range(9):
                single = evaluate(norm, A[i])
                assert isinstance(single, float)
                assert vals[i] == single
        assert evaluate(schatten(3), A.reshape(3, 3, d, d)).shape == (3, 3)


def test_evaluate_rejects_bad_stacks():
    bad = np.zeros((4, 2, 2), dtype=complex)
    bad[2, 1, 0] = np.nan
    for A in (bad, np.zeros((4, 2, 3)), np.zeros(3), np.array([[1.0, np.inf], [0.0, 1.0]])):
        with pytest.raises(ValueError):
            evaluate(frobenius(), A)


def test_unitary_invariance_fuzz():
    rng = np.random.default_rng(7)
    norms = [frobenius(), schatten(1.5), schatten(3), spectral(), kyfan(2), schatten(1)]
    for i in range(60):
        d = int(rng.integers(2, 6))
        A = random_general(d, rng)
        U, V = haar_unitary(d, rng), haar_unitary(d, rng)
        n = norms[i % len(norms)]
        base = evaluate(n, A)
        assert abs(evaluate(n, U @ A @ V) - base) <= 1e-9 * (1 + base)


def test_zero_iff_zero_matrix():
    for n in (frobenius(), schatten(1.5), spectral(), kyfan(2)):
        assert evaluate(n, np.zeros((3, 3))) == 0.0
        assert evaluate(n, 1e-3 * np.eye(3)) > 0.0


def test_norm_gradient_is_first_order():
    rng = np.random.default_rng(9)
    for p in (1.5, 2.0, 3.0):
        n = schatten(p) if p != 2.0 else frobenius()
        A = random_general(4, rng)
        G = norm_gradient(n, A)
        E = random_general(4, rng, scale=1e-6)
        lhs = evaluate(n, A + E) - evaluate(n, A)
        rhs = np.real(np.trace(G.conj().T @ E))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_norm_gradient_stack_equals_per_slice_bitwise():
    rng = np.random.default_rng(11)
    for d in range(1, 6):
        A = rng.standard_normal((7, d, d)) + 1j * rng.standard_normal((7, d, d))
        A[3] = 0.0
        for n in (frobenius(), schatten(1.2), schatten(1.5), schatten(3), schatten(4)):
            P = norm_gradient(n, A)
            assert P.shape == A.shape
            assert np.array_equal(P[3], np.zeros((d, d)))
            for i in range(7):
                assert np.array_equal(P[i], norm_gradient(n, A[i]))
                if i == 3:
                    continue
                # the 2-d formula: U diag((s / norm)^(p - 1)) V^H
                W, sv, Xh = np.linalg.svd(A[i])
                p = 2.0 if n.kind == "frobenius" else n.p
                f = (sv / float(gauge(n, sv))) ** (p - 1.0)
                assert np.array_equal(P[i], (W * f[np.newaxis, :]) @ Xh)


def test_norm_gradient_refuses_nonsmooth():
    with pytest.raises(ValueError):
        norm_gradient(spectral(), np.eye(2))
