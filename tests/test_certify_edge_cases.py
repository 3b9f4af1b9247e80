"""Both orbit certifiers on badly scaled and degenerate inputs, judged
against the closed-form optimum: a certified candidate attains it, and a
rejected one carries a witness whose end point is on the orbit and below
the candidate's value."""

import numpy as np
import pytest

from lidskii import eig_orbit, frames, sv_orbit
from lidskii.matrices import (
    eigvalsh_desc,
    frob,
    haar_unitary,
    random_general,
    random_hermitian,
    svd,
)
from lidskii.norms import evaluate, frobenius, schatten
from lidskii.properties import commuting_candidate

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
    _check_sv(A, misaligned, s, "not_local_min", "givens")
    negative = (U * (s * np.array([1.0, -1.0, 1.0]))) @ V.conj().T
    _check_sv(A, negative, s, "not_local_min", "phase")


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
