"""Metamorphic tests of the tolerance rule: every norm in scope is absolutely
homogeneous and unitarily invariant, so a candidate multiplied by c, or
conjugated by a Haar unitary, must get the verdict of the candidate itself.
Every threshold is a tolerance times the size of the operands it compares,
with no absolute floor, so the verdicts below hold from c = 1e-8 to 1e8;
the drop a witness must verify scales with the curve's own start value, so
non-commuting candidates keep their rejection down to c = 1e-12."""

import numpy as np
import pytest

from oracles import criterion_09_instances
from lidskii import eig_orbit, frames, sv_orbit
from lidskii.matrices import (
    commutant_is_trivial,
    haar_unitary,
    pair_submersion_test,
    random_general,
    random_hermitian,
)
from lidskii.norms import frobenius, parse_norm, schatten
from lidskii.properties import (
    _degenerate_commutant_pair,
    commuting_candidate,
    dependent_cluster_instance,
    hermitian_product_pair,
)

SCALES = (1e-8, 1e-4, 1.0, 1e4, 1e8)
DRAWS = 12
NORMS = (frobenius(), schatten(3))


def _variants(d, rng):
    """(c, U) for every scale, without (U None) and with a Haar unitary."""
    U = haar_unitary(d, rng)
    return [(c, W) for c in SCALES for W in (None, U)]


def _conj(U, M):
    return M if U is None else U @ M @ U.conj().T


@pytest.mark.parametrize("aligned", [True, False], ids=["aligned", "misaligned"])
def test_commuting_candidate_verdict_is_scale_and_rotation_free(aligned):
    rng = np.random.default_rng(11 if aligned else 12)
    expect = "certified_global" if aligned else "not_local_min"
    for i in range(DRAWS):
        d = 2 + i % 4
        norm = NORMS[i % 2]
        S, G0, lam, mu = commuting_candidate(d, rng, aligned=aligned)
        for c, U in _variants(d, rng):
            Sc, Gc = c * _conj(U, S), c * _conj(U, G0)
            cert = eig_orbit.certify_local(norm, Sc, Gc)
            assert cert.verdict == expect, (i, c, U is not None)
            if aligned:
                optimum = eig_orbit.orbit_distance(
                    norm, Sc, eig_orbit.global_minimizer(Sc, c * mu)
                )
                assert cert.phi <= optimum * (1 + 1e-8)


@pytest.mark.parametrize("zero_block", [False, True], ids=["full_rank", "zero_block"])
def test_hermitian_product_pair_verdict_is_scale_and_rotation_free(zero_block):
    rng = np.random.default_rng(21 if zero_block else 22)
    for i in range(DRAWS):
        d = 2 + i % 4
        norm = NORMS[i % 2]
        A, B = hermitian_product_pair(d, rng, zero_block=zero_block)
        alpha = sv_orbit.svdvals(A)
        V = haar_unitary(d, rng)
        verdicts = set()
        for c, U in _variants(d, rng):
            Ac, Bc = c * A, c * B
            if U is not None:
                Ac, Bc = U @ Ac @ V, U @ Bc @ V
            joint = sv_orbit.joint_svd(Ac, Bc)  # raises if it refuses the pair
            assert np.allclose(joint.alpha, c * alpha, rtol=0, atol=1e-12 * c * alpha[0])
            verdicts.add(sv_orbit.certify_local(norm, Ac, Bc).verdict)
        assert len(verdicts) == 1 and "inconclusive" not in verdicts, (i, verdicts)


def test_dependent_cluster_verdict_is_scale_and_rotation_free():
    rng = np.random.default_rng(31)
    for i in range(DRAWS):
        d = 2 + i % 4
        S, G0, _ = dependent_cluster_instance(d, rng)
        failed = set()  # the failed condition, without its scaled figures
        for c, U in _variants(d, rng):
            vectors = np.sqrt(c) * (G0.vectors if U is None else U @ G0.vectors)
            Gc = frames.FrameSequence(vectors, c * G0.norms)
            report = frames.structure_check(frobenius(), c * _conj(U, S), Gc)
            assert report.verdict == "violates_structure", (i, c, U is not None)
            failed.add(report.witness.split("(")[0])
        assert len(failed) == 1, (i, failed)


def test_relaxation_minimizer_is_scale_and_rotation_equivariant():
    """theta(c U S U^H, c a) = c theta(S, a) for the closed form.  The first
    24 criterion-09 configurations hold three that are not majorized (5, 13,
    23); a equal to the spectrum (3, 2, 1) of diag(4, 3, 2) at t = 6 sits on
    the boundary."""
    rng = np.random.default_rng(41)
    instances = [(S, a) for S, a, _seeds in criterion_09_instances(24)]
    instances.append((np.diag([4.0, 3.0, 2.0]), np.array([1.0, 3.0, 2.0])))
    for i, (S, a) in enumerate(instances):
        G = frames.relaxation_minimizer(S, a)
        base = [frames.frame_operator_distance(norm, S, G) for norm in NORMS]
        for c, U in _variants(S.shape[0], rng):
            Sc = c * _conj(U, S)
            G = frames.relaxation_minimizer(Sc, c * a)
            assert np.max(G.sphere_residuals()) <= frames.SPHERE_TOL
            for norm, theta in zip(NORMS, base):
                err = abs(frames.frame_operator_distance(norm, Sc, G) - c * theta)
                assert err <= 1e-12 * c * theta, (i, c, U is not None, norm.kind)


def test_small_misordered_pair_is_rejected():
    """The pair once certified at scale 1e-6 because the gap threshold had
    an absolute floor of GAP_TOL."""
    S = 1e-6 * np.diag([2.0, 1.0])
    G0 = 1e-6 * np.diag([1.0, 1.05])
    cert = eig_orbit.certify_local(frobenius(), S, G0)
    assert cert.verdict == "not_local_min"
    assert cert.descent_witness.kind == "givens"
    assert cert.descent_witness.verified_drop > 0


@pytest.mark.parametrize("name", ["frobenius", "schatten:3", "schatten:1.2"])
def test_noncommuting_candidates_are_rejected_at_every_scale(name):
    """A Haar candidate on each orbit is far from a minimizer, so its
    gradient flow must verify a drop at every scale.  The eig pair was
    inconclusive at c = 1e-10 and 1e-12 while the drop had to exceed
    DROP_TOL (1 + phi0)."""
    norm = parse_norm(name)
    rng = np.random.default_rng(0)
    S = random_hermitian(3, rng)
    G0 = eig_orbit.random_orbit_point([2.0, 1.0, 0.0], rng)
    A = random_general(3, rng)
    B = haar_unitary(3, rng).conj().T @ np.diag([2.0, 1.0, 0.5]) @ haar_unitary(3, rng)
    U, V = haar_unitary(3, rng), haar_unitary(3, rng)
    for c in (1e-12, 1e-10) + SCALES:
        for W in (None, U):
            cert = eig_orbit.certify_local(norm, c * _conj(W, S), c * _conj(W, G0))
            assert cert.verdict == "not_local_min", ("eig", c, W is not None)
            Ac, Bc = (c * A, c * B) if W is None else (c * W @ A @ V, c * W @ B @ V)
            cert = sv_orbit.certify_local(norm, Ac, Bc)
            assert cert.verdict == "not_local_min", ("sv", c, W is not None)


def test_random_frame_at_small_scale_violates_structure():
    """A random frame is no local minimizer at any scale.  At c = 1e-8, with
    S drawn as in criterion 09, its residuals once fell below absolute
    thresholds: consistent_with_local_min, and certified_global from the
    single-eigenvalue certificate at fod-optimize's tol."""
    rng = np.random.default_rng(41)
    d, a = 3, np.array([0.7, 1.1, 0.9, 1.3])
    lam = np.sort(rng.uniform(0.0, 3.0, d))[::-1]
    S = _conj(haar_unitary(d, rng), np.diag(lam))
    G0 = frames.random_frame(d, a, rng)
    c = 1e-8
    Gc = frames.FrameSequence(np.sqrt(c) * G0.vectors, c * a)
    for S_, G_ in ((S, G0), (c * S, Gc)):
        report = frames.structure_check(frobenius(), S_, G_)
        assert report.verdict == "violates_structure"
        assert report.witness.startswith("eigenvector_residual")
        verdict = frames.certify_uniform_eigenvalue(frobenius(), S_, G_, tol=1e-6)
        assert verdict == "not_applicable"


def test_joint_svd_of_zero_takes_the_kernel_path():
    """A = 0 has only the kernel block, so B needs no Hermitian block: its
    own SVD is the joint one."""
    rng = np.random.default_rng(51)
    B = random_general(3, rng)
    joint = sv_orbit.joint_svd(np.zeros((3, 3)), B)
    assert np.all(joint.alpha == 0.0)
    assert np.allclose(joint.beta, sv_orbit.svdvals(B), rtol=1e-12, atol=0)
    assert joint.residual_b <= 1e-12 * np.linalg.norm(B)


def test_nullspace_tests_are_scale_free_in_each_operand():
    """Both null-space tests scale each operand to unit Frobenius norm, so
    rescaling one operand alone keeps the kernel dimension.  The threshold
    once followed the larger operand, and the smaller one's rows drowned:
    S below gave kernel dimension 1 at c = 1e-8, 4 at 1e-9 and 2 at 1e8."""
    S, G0 = random_hermitian(3, 0), np.diag([1.0, 1.0, 2.0])
    for c in (1e-9, 1e-8, 1.0, 1e8):
        assert commutant_is_trivial(c * S, G0) == (True, 0), c
    rng = np.random.default_rng(61)
    for i in range(2 * DRAWS):
        d = 2 + i % 4
        if i % 2:
            S, G = _degenerate_commutant_pair(d, rng)
            A, B = hermitian_product_pair(d, rng, zero_block=(i % 4 == 1))
        else:
            S, G = random_hermitian(d, rng), random_hermitian(d, rng)
            A, B = random_general(d, rng), random_general(d, rng)
        kc = commutant_is_trivial(S, G)[1]
        kp = pair_submersion_test(A, B)[1]
        for c in (1e-12, 1e-8, 1e-4, 1e4, 1e8, 1e12):
            assert commutant_is_trivial(c * S, G)[1] == kc, (i, c)
            assert commutant_is_trivial(S, c * G)[1] == kc, (i, c)
            assert pair_submersion_test(c * A, B)[1] == kp, (i, c)
            assert pair_submersion_test(A, c * B)[1] == kp, (i, c)
