"""Stacked curve sampling and witness flows against per-sample references."""

import numpy as np
import pytest

import oracles
from lidskii import eig_orbit, frames, sv_orbit
from lidskii.majorization import sort_desc
from lidskii.matrices import random_general, random_hermitian, skew_exp, unit_skew
from lidskii.norms import evaluate, frobenius, parse_norm
from lidskii.properties import commuting_candidate, dependent_cluster_instance

CERTIFY_NORMS = ("frobenius", "schatten:3", "schatten:1.2")


def _assert_samples_match_loop(curve, value_at):
    """Stacked samples equal the scalar accessor and a 2-d value, sample by sample."""
    stacked = curve.point_fn(curve.ts)
    for i, t in enumerate(curve.ts):
        P = curve.point(float(t))
        raw = P.vectors if isinstance(P, frames.FrameSequence) else P
        assert np.array_equal(stacked[i], raw)
        assert curve.values[i] == value_at(P)


def test_build_curve_samples_equal_per_sample_loop():
    rng = np.random.default_rng(11)
    for trial in range(6):
        d = 2 + trial % 4
        norm = parse_norm(CERTIFY_NORMS[trial % 3])
        # givens: misaligned commuting pair
        S, G0, _, _ = commuting_candidate(d, rng, aligned=False)
        cert = eig_orbit.certify_local(norm, S, G0)
        assert cert.descent_witness.kind == "givens"
        _assert_samples_match_loop(cert.descent_witness, lambda G: evaluate(norm, S - G))
        # gradient flow: a non-commuting Haar candidate
        mu = sort_desc(rng.standard_normal(d))
        G1 = eig_orbit.random_orbit_point(mu, rng)
        cert = eig_orbit.certify_local(norm, S, G1)
        assert cert.descent_witness.kind == "gradient_flow"
        _assert_samples_match_loop(cert.descent_witness, lambda G: evaluate(norm, S - G))
        # phase: a negative entry in the joint SVD
        A = np.diag(np.arange(d, 0, -1.0))
        B = np.diag(np.concatenate([[-1.0], np.ones(d - 1)]))
        cert = sv_orbit.certify_local(norm, A, B)
        assert cert.descent_witness.kind == "phase"
        _assert_samples_match_loop(cert.descent_witness, lambda Bt: evaluate(norm, A - Bt))
        # inner wrapper: a misordered non-negative joint SVD
        B = np.diag(np.arange(1.0, d + 1.0))
        cert = sv_orbit.certify_local(norm, A, B)
        assert cert.descent_witness.kind == "givens"
        _assert_samples_match_loop(cert.descent_witness, lambda Bt: evaluate(norm, A - Bt))
        # sv gradient flow
        A = random_general(d, rng)
        B = random_general(d, rng)
        cert = sv_orbit.certify_local(norm, A, B)
        assert cert.descent_witness.kind == "gradient_flow"
        _assert_samples_match_loop(cert.descent_witness, lambda Bt: evaluate(norm, A - Bt))
        # escape move off a dependent frame cluster
        Sf, Gf, idx = dependent_cluster_instance(d, rng)
        curve = frames.escape_move(Sf, Gf, idx)
        assert curve is not None
        _assert_samples_match_loop(
            curve, lambda G: frames.frame_operator_distance(frobenius(), Sf, G)
        )


def _assert_same_witness(got, ref):
    assert (got is None) == (ref is None)
    if ref is not None:
        assert (got.kind, got.param) == (ref.kind, ref.param)
        assert np.array_equal(got.ts, ref.ts)
        np.testing.assert_allclose(got.values, ref.values, rtol=1e-12, atol=0)


def _rotated(M, d, rng, eps):
    U = skew_exp(unit_skew(random_general(d, rng)), eps)
    return U @ M @ U.conj().T


@pytest.mark.parametrize("seed", range(15))
def test_eig_search_matches_per_try_reference(seed):
    """Band candidates: the minimizer moved by exp(eps K), d = 2..6 and the
    three certify norms; most end inconclusive when the flow's drop does not
    verify."""
    rng = np.random.default_rng([seed, 2])
    d = 2 + seed % 5
    norm = parse_norm(CERTIFY_NORMS[seed % 3])
    S = random_hermitian(d, rng)
    mu = sort_desc(2.0 * rng.standard_normal(d))
    G = _rotated(eig_orbit.global_minimizer(S, mu), d, rng, 10.0 ** rng.uniform(-6.5, -4.0))
    G = (G + G.conj().T) / 2.0
    cert = eig_orbit.certify_local(norm, S, G)
    ref = oracles.eig_witness_flow(norm, S, G)
    assert cert.verdict == ("inconclusive" if ref is None else "not_local_min")
    _assert_same_witness(cert.descent_witness, ref)


@pytest.mark.parametrize("seed", range(15))
def test_sv_search_matches_per_try_reference(seed):
    rng = np.random.default_rng([seed, 3])
    d = 2 + seed % 5
    norm = parse_norm(CERTIFY_NORMS[seed % 3])
    A = random_general(d, rng)
    B = sv_orbit.global_minimizer(A, sort_desc(rng.uniform(0.2, 3.0, d)))
    B = skew_exp(unit_skew(random_general(d, rng)), 10.0 ** rng.uniform(-6.5, -4.0)) @ B
    cert = sv_orbit.certify_local(norm, A, B)
    ref = oracles.sv_witness_flow(norm, A, B)
    assert cert.verdict == ("inconclusive" if ref is None else "not_local_min")
    _assert_same_witness(cert.descent_witness, ref)
