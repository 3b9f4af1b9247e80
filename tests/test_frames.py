import numpy as np
import pytest

from oracles import criterion_09_instances, optimal_spectrum_enumerated, water_fill_bisect
from lidskii import frames
from lidskii.frames import (
    SPHERE_TOL,
    DescentOptions,
    FrameSequence,
    certify_uniform_eigenvalue,
    escape_move,
    fitted_eigenvalues,
    frame,
    frame_operator,
    frame_operator_distance,
    gradient_descent,
    psd_lower_bound,
    random_frame,
    relaxation_minimizer,
    structure_check,
    water_fill,
)
from lidskii.majorization import sort_desc
from lidskii.matrices import eigvalsh_desc, haar_unitary, random_hermitian
from lidskii.norms import frobenius, schatten, spectral
from lidskii.properties import dependent_cluster_instance


def _basis_frame(d):
    return FrameSequence(np.eye(d, dtype=complex), np.ones(d))


def test_frame_operator_examples():
    assert np.allclose(frame_operator(_basis_frame(3)), np.eye(3))
    V = np.zeros((2, 2), dtype=complex)
    V[0, :] = 1.0
    assert np.allclose(frame_operator(FrameSequence(V, [1.0, 1.0])), np.diag([2.0, 0.0]))
    g = np.array([[1.0], [1.0]], dtype=complex)  # squared norm 2
    S = frame_operator(frame(g))
    assert np.trace(S).real == pytest.approx(2.0)
    assert np.linalg.matrix_rank(S) == 1


def test_frame_validation():
    for norms in ([1.0, -1.0], [1.0, np.nan], [1.0, np.inf]):
        with pytest.raises(ValueError):
            FrameSequence(np.eye(2, dtype=complex), norms)
    for vectors in (2 * np.eye(2, dtype=complex), np.array([[1.0, 0.0], [np.nan, 1.0]])):
        with pytest.raises(ValueError):
            FrameSequence(vectors, [1.0, 1.0]).validate()
    with pytest.raises(ValueError):
        gradient_descent(np.eye(2), [1.0, np.nan])


def test_theta_examples():
    G = _basis_frame(2)
    S = 2 * np.eye(2)
    assert frame_operator_distance(frobenius(), S, G) == pytest.approx(np.sqrt(2))
    assert frame_operator_distance(frobenius(), frame_operator(G), G) == 0.0
    assert frame_operator_distance(frobenius(), np.zeros((2, 2)), G) == pytest.approx(
        np.sqrt(2)
    )


def test_water_fill_examples():
    c, spec = water_fill([3, 2, 1], 3.0)
    assert c == pytest.approx(1.0) and np.allclose(spec, [2, 1, 0])
    c, spec = water_fill([5], 2.0)
    assert c == pytest.approx(3.0) and np.allclose(spec, [2])
    c, spec = water_fill([1, 1], 2.0)
    assert c == pytest.approx(0.0) and np.allclose(spec, [1, 1])
    c, spec = water_fill([0.0, 0.0, 0.0], 2.0)
    assert c == pytest.approx(-2 / 3) and np.allclose(spec, 2 / 3)
    for t in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            water_fill([1, 1], t)
    with pytest.raises(ValueError):
        water_fill([-1.0, 2.0], 1.0)


def test_water_fill_against_bisection_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = int(rng.integers(1, 9))
        lam = sort_desc(rng.uniform(0, 5, d))
        t = float(rng.uniform(0.05, 1.5) * max(np.sum(lam), 1.0))
        c, spec = water_fill(lam, t)
        c_ref, _ = water_fill_bisect(lam, t)
        assert c == pytest.approx(c_ref, abs=1e-9)
        assert abs(np.sum(spec) - t) <= 1e-10 * (1 + t)
        assert c <= lam[0] + 1e-12
        # residual spectrum min(c, lam) non-increasing
        assert np.all(np.diff(np.minimum(c, lam)) <= 1e-12)


def test_psd_lower_bound_examples():
    S = np.diag([3.0, 2.0, 1.0])
    bound, Aop = psd_lower_bound(frobenius(), S, 3.0)
    assert bound == pytest.approx(np.sqrt(3))
    assert np.allclose(eigvalsh_desc(S - Aop), [1.0, 1.0, 1.0])
    bound, Aop = psd_lower_bound(frobenius(), S, 6.0)
    assert bound == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(Aop, S, atol=1e-9)
    bound, Aop = psd_lower_bound(frobenius(), np.zeros((3, 3)), 2.0)
    assert bound == pytest.approx(np.sqrt(3 * (2 / 3) ** 2))
    assert np.allclose(Aop, (2 / 3) * np.eye(3))


def test_psd_lower_bound_dominated_by_random_frames():
    rng = np.random.default_rng(1)
    for i in range(15):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(d, 8))
        a = rng.uniform(0.3, 2.0, k)
        lam = sort_desc(rng.uniform(0, 4, d))
        V = haar_unitary(d, rng)
        S = (V * lam) @ V.conj().T
        S = (S + S.conj().T) / 2
        norm = (frobenius(), schatten(1.5), schatten(3), spectral())[i % 4]
        bound, _ = psd_lower_bound(norm, S, float(np.sum(a)))
        for _ in range(50):
            G = random_frame(d, a, rng)
            assert frame_operator_distance(norm, S, G) >= bound - 1e-8


# criterion 09's configurations whose squared norms the padded water-filled
# spectrum does not majorize
NOT_MAJORIZED = {5, 13, 23, 30, 35, 39, 63, 80}


def _assert_attains_bound(S, G, rtol=1e-10):
    """G sits on its spheres and attains the relaxation bound: theta equals
    ``psd_lower_bound`` for Frobenius and Schatten 3."""
    assert np.max(G.sphere_residuals()) <= SPHERE_TOL
    for norm in (frobenius(), schatten(3)):
        bound, _ = psd_lower_bound(norm, S, float(np.sum(G.norms)))
        assert abs(frame_operator_distance(norm, S, G) - bound) <= rtol * bound


def _rotated(lam, rng):
    V = haar_unitary(len(lam), rng)
    S = (V * np.asarray(lam)) @ V.conj().T
    return (S + S.conj().T) / 2


def test_relaxation_minimizer_on_criterion_09_configurations():
    """Every configuration gets a frame that passes the structure check.
    The majorized ones attain the relaxation bound; the other eight sit
    above it, no worse than the best of their 8 seeded restarts."""
    norm = frobenius()
    for i, (S, a, seeds) in enumerate(criterion_09_instances()):
        G = relaxation_minimizer(S, a)
        assert np.array_equal(G.norms, a)
        assert structure_check(norm, S, G).verdict == "consistent_with_local_min"
        if i not in NOT_MAJORIZED:
            _assert_attains_bound(S, G)
            assert certify_uniform_eigenvalue(norm, S, G) == "certified_global"
            continue
        assert np.max(G.sphere_residuals()) <= SPHERE_TOL
        theta = frame_operator_distance(norm, S, G)
        bound, _ = psd_lower_bound(norm, S, float(np.sum(a)))
        assert theta > bound * (1 + 1e-9), i
        best = min(
            frame_operator_distance(norm, S, g)
            for g, _tr in frames.descend_restarts(norm, S, a, seeds)
        )
        assert theta <= best * (1 + 1e-9), i


def test_relaxation_minimizer_degenerate_inputs():
    # d = 1: every positive a is majorized by (t, 0, ..., 0)
    G = relaxation_minimizer(np.array([[2.0]]), [0.5, 1.0, 0.25])
    assert G.dim == 1 and G.count == 3
    assert frame_operator(G)[0, 0].real == pytest.approx(1.75)
    # k < d: the water-filled spectrum (1.5, 0.5, 0, 0) has rank 2 = k
    S = np.diag([3.0, 2.0, 1.0, 0.5])
    G = relaxation_minimizer(S, [1.0, 1.0])
    assert G.dim == 4 and G.count == 2
    assert np.allclose(frame_operator(G), np.diag([1.5, 0.5, 0.0, 0.0]), atol=1e-14)
    _assert_attains_bound(S, G)
    # ... but not when a truncation to k drops mass: at t = 4 the spectrum
    # (7/3, 4/3, 1/3, 0) has rank 3 > k = 2, so the top two eigenvalues
    # take all of it
    G = relaxation_minimizer(S, [2.0, 2.0])
    assert np.allclose(frame_operator(G), np.diag([2.5, 1.5, 0.0, 0.0]), atol=1e-14)
    # a is the water-filled spectrum (3, 2, 1) itself, permuted: W is a
    # permutation and each vector a scaled eigenvector of S
    G = relaxation_minimizer(np.diag([4.0, 3.0, 2.0]), [1.0, 3.0, 2.0])
    expected = np.sqrt([[0.0, 3.0, 0.0], [0.0, 0.0, 2.0], [1.0, 0.0, 0.0]])
    assert np.allclose(np.abs(G.vectors), expected, atol=1e-15)
    # repeated eigenvalues: a multiple of the identity, and a Haar-rotated
    # diag(2, 2, 1)
    rng = np.random.default_rng(4)
    for S, a in (
        (2.0 * np.eye(3), [1.0, 0.5, 0.8, 0.7]),
        (_rotated([2.0, 2.0, 1.0], rng), [0.9, 0.6, 1.1, 0.4]),
    ):
        G = relaxation_minimizer(S, a)
        _assert_attains_bound(S, G)
        assert structure_check(frobenius(), S, G).verdict == "consistent_with_local_min"
    # singular S: the spectrum (1.25, 0.25, 0) and the rank-one (0.5, 0)
    for S, a in ((_rotated([2.0, 1.0, 0.0], rng), [0.5, 0.5, 0.5]), (np.diag([1.0, 0.0]), [0.3, 0.2])):
        G = relaxation_minimizer(S, a)
        _assert_attains_bound(S, G)
        assert structure_check(frobenius(), S, G).verdict == "consistent_with_local_min"
    # not majorized: (1.5, 0.5) against the water-filled (1, 1); the frame
    # spectrum is a itself
    G = relaxation_minimizer(2.0 * np.eye(2), [1.5, 0.5])
    assert np.allclose(eigvalsh_desc(frame_operator(G)), [1.5, 0.5], atol=1e-14)
    with pytest.raises(ValueError, match="positive semidefinite"):
        relaxation_minimizer(np.diag([1.0, -1.0]), [1.0, 1.0])
    with pytest.raises(ValueError, match="positive and finite"):
        relaxation_minimizer(np.eye(2), [1.0, np.nan])


SPECTRUM_NORMS = (frobenius(), schatten(3), schatten(1.5))


def _spectrum_instances(count, seed, d_range=(1, 7), k_offsets=(-2, 4)):
    """``count`` seeded (lam, a): lam non-increasing on [0, 3], with trailing
    zeros one time in three, and k - d drawn from ``k_offsets`` (k >= 1);
    a on [0.3, 1.5] with up to two squared norms inflated x1.5-6."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(*d_range))
        k = int(rng.integers(max(1, d + k_offsets[0]), d + k_offsets[1]))
        lam = sort_desc(rng.uniform(0, 3, d))
        if rng.random() < 1 / 3:
            lam[rng.integers(0, d):] = 0.0
        a = rng.uniform(0.3, 1.5, k)
        for i in rng.choice(k, size=int(rng.integers(0, min(k, 2) + 1)), replace=False):
            a[i] *= rng.uniform(1.5, 6)
        yield lam, a, _rotated(lam, rng)


def test_relaxation_minimizer_matches_block_enumeration():
    """The closed form's frame distance, and so ``_optimal_spectrum``'s mu,
    equals the least over every partition of the spectrum into water-filled
    blocks, for Frobenius, Schatten 3 and Schatten 1.5, on 320 instances
    with d = 1-6 and k = d-2 ... d+3.  At least 100 of them are not
    majorized: their frames sit above the relaxation bound."""
    above_bound = 0
    for lam, a, S in _spectrum_instances(320, 31):
        G = relaxation_minimizer(S, a)
        assert np.max(G.sphere_residuals()) <= SPHERE_TOL
        best = optimal_spectrum_enumerated(SPECTRUM_NORMS, lam, a)
        for norm, value in zip(SPECTRUM_NORMS, best):
            theta = frame_operator_distance(norm, S, G)
            assert abs(theta - value) <= 1e-12 * value, (lam, a, norm.kind)
        bound, _ = psd_lower_bound(frobenius(), S, float(np.sum(a)))
        above_bound += bool(best[0] > bound * (1 + 1e-9))
    assert above_bound >= 100


def test_relaxation_minimizer_is_no_worse_than_descents():
    """That mu is optimal for norms other than Frobenius is measured, not
    proven: on 40 instances that are not majorized (d = 2-4, k = d-1 ...
    d+2), no seeded descent in Schatten 3 or 1.5 beats the closed form."""
    checked = 0
    for _lam, a, S in _spectrum_instances(200, 32, d_range=(2, 5), k_offsets=(-1, 3)):
        G = relaxation_minimizer(S, a)
        bound, _ = psd_lower_bound(frobenius(), S, float(np.sum(a)))
        if frame_operator_distance(frobenius(), S, G) <= bound * (1 + 1e-9):
            continue
        for norm in SPECTRUM_NORMS[1:]:
            best = min(
                frame_operator_distance(norm, S, g)
                for g, _tr in frames.descend_restarts(norm, S, a, range(8))
            )
            assert frame_operator_distance(norm, S, G) <= best * (1 + 1e-9), (a, norm.kind)
        checked += 1
        if checked == 40:
            break
    assert checked == 40


def test_schur_horn_rotation_prescribes_the_diagonal():
    # a = D lam for a doubly stochastic D (a mix of permutations) is
    # majorized by lam; lam has trailing zeros and ties, k up to 12
    rng = np.random.default_rng(5)
    for k in range(1, 13):
        lam = sort_desc(np.concatenate([rng.choice([0.5, 1.0, 2.5], k // 2), np.zeros(k - k // 2)]))
        lam[0] += 1.0
        w = rng.dirichlet(np.ones(3))
        a = sum(wi * lam[rng.permutation(k)] for wi in w)
        W = frames._schur_horn_rotation(lam, a)
        assert np.allclose(W.T @ W, np.eye(k), rtol=0, atol=1e-14)
        assert np.allclose(np.diag(W.T @ np.diag(lam) @ W), a, rtol=0, atol=1e-14 * lam[0])


def test_structure_check_consistent_example():
    G = _basis_frame(2)
    S = 2 * np.eye(2)
    rep = structure_check(frobenius(), S, G)
    assert rep.verdict == "consistent_with_local_min"
    assert rep.lidskii_aligned
    assert len(rep.clusters) == 1
    info = rep.clusters[0]
    assert info.value == pytest.approx(1.0)
    assert info.span_dim == 2 and not info.independence_required


def test_structure_check_flags_non_eigenvector():
    g = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2)
    rep = structure_check(frobenius(), np.diag([3.0, 1.0]), frame(g))
    assert rep.verdict == "violates_structure"
    assert rep.witness.startswith("eigenvector_residual")


def test_structure_check_guards():
    with pytest.raises(ValueError):
        structure_check(frobenius(), np.eye(2), FrameSequence(np.ones((2, 0)), np.ones(0)))
    with pytest.raises(ValueError):
        structure_check(spectral(), np.eye(2), _basis_frame(2))


def test_certify_uniform_eigenvalue_examples():
    G = _basis_frame(2)
    assert certify_uniform_eigenvalue(frobenius(), 2 * np.eye(2), G) == "certified_global"
    # two distinct fitted eigenvalues: hypothesis gate
    S = np.diag([3.0, 1.0])
    assert certify_uniform_eigenvalue(frobenius(), S, G) == "not_applicable"
    with pytest.raises(ValueError):
        certify_uniform_eigenvalue(frobenius(), np.eye(3), frame(np.eye(3, 2)))


def test_gradient_descent_recovers_constructed_minimum():
    rng = np.random.default_rng(2)
    d, k = 3, 4
    a = rng.uniform(0.5, 1.5, k)
    Gstar = random_frame(d, a, rng)
    S = frame_operator(Gstar)  # theta = 0 attainable
    init = Gstar.vectors + 1e-3 * (
        rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    )
    init *= np.sqrt(a / np.sum(np.abs(init) ** 2, axis=0))
    # a descent from a given frame is the kernel's, with gradient_descent's
    # options; seeded descents start from random frames only
    opts = DescentOptions()
    G, traces, gnorms, stops = frames._kernels.lockstep_descent(
        frames._kernels.SquaredFrobenius, S, init[np.newaxis], a,
        frames._kernels.SquaredFrobenius.max_iters, opts.grad_tol, opts.armijo_c, opts.backtrack,
    )
    assert frames._kernels.STOPS[stops[0]] == "converged" and gnorms[0] < opts.grad_tol
    assert frame_operator_distance(frobenius(), S, FrameSequence(G[0], a)) < 1e-6


def test_gradient_descent_zero_gradient_start():
    # exact minimizer: the gradient vanishes, so a descent from it
    # terminates immediately with an empty step log
    G = _basis_frame(3)
    S = frame_operator(G)
    assert frames.gradient_norm(frobenius(), S, G) == 0.0
    out, traces, gnorms, stops = frames._kernels.lockstep_descent(
        frames._kernels.SquaredFrobenius, S, G.vectors[np.newaxis], G.norms, 100, 1e-9, 1e-4, 0.5
    )
    assert frames._kernels.STOPS[stops[0]] == "converged" and len(traces[0]) == 1
    assert np.array_equal(out[0], G.vectors)


@pytest.mark.parametrize("norm", [frobenius(), schatten(3)], ids=["frobenius", "schatten3"])
def test_gradient_norm_is_the_descents_first_gradient(norm):
    # a descent capped at one step reports the gradient norm of its start
    for seed in range(6):
        S, a = _restart_instance(seed)
        _G, tr = frames.descend_restarts(norm, S, a, [seed], DescentOptions(max_iters=1))[0]
        assert frames.gradient_norm(norm, S, random_frame(3, a, seed)) == tr.grad_norm


def test_gradient_descent_deterministic_per_seed():
    S = random_hermitian(3, 5)
    S = S @ S.conj().T  # PSD
    a = np.ones(4)
    G1, tr1 = gradient_descent(S, a, seed=9)
    G2, tr2 = gradient_descent(S, a, seed=9)
    assert np.array_equal(G1.vectors, G2.vectors)
    assert np.array_equal(tr1.objective, tr2.objective)
    assert tr1.objective.size >= 1
    slack = 1e-12 * (1 + tr1.objective[0])
    assert np.all(np.diff(tr1.objective) <= slack)


def test_subgradient_descent_explores_nonfrobenius():
    rng = np.random.default_rng(3)
    S = np.diag([2.0, 1.0]).astype(complex)
    G, tr = frames.descend_restarts(schatten(3), S, [1.0, 1.0], [4])[0]
    assert tr.objective[-1] <= tr.objective[0] + 1e-12
    with pytest.raises(ValueError):
        frames.descend_restarts(spectral(), S, [1.0, 1.0], [0])


def test_escape_move_spec_instances():
    V = np.zeros((2, 2), dtype=complex)
    V[0, :] = 1.0
    G0 = FrameSequence(V, [1.0, 1.0])
    # no eigenvalue above the cluster: preconditions unmet
    assert escape_move(np.diag([3.0, 0.0]), G0, 0) is None
    curve = escape_move(np.diag([2.0, 5.0]), G0, 0)
    assert curve is not None
    # closed form for this instance: theta(t)^2 = t^4/4 + (5 - t^2/2)^2
    for t, v in zip(curve.ts, curve.values):
        assert v**2 == pytest.approx(t**4 / 4 + (5 - t**2 / 2) ** 2, rel=1e-10)
    assert curve.verified_drop > 1e-12
    # independent cluster: rank gate returns None
    assert escape_move(np.diag([2.0, 5.0]), _basis_frame(2), 0) is None


def test_escape_move_fuzz_valid_curves():
    rng = np.random.default_rng(4)
    for _ in range(15):
        d = int(rng.integers(2, 5))
        S, G0, idx = dependent_cluster_instance(d, rng)
        curve = escape_move(S, G0, idx)
        assert curve is not None
        assert curve.verified_drop > 1e-12
        for t in curve.ts[:: max(1, len(curve.ts) // 6)]:
            Gt = curve.point(float(t))
            actual = np.sum(np.abs(Gt.vectors) ** 2, axis=0)
            assert np.max(np.abs(actual - Gt.norms)) <= 1e-10


def test_fitted_eigenvalues_match_rayleigh():
    rng = np.random.default_rng(5)
    G = random_frame(3, [1.0, 1.0, 2.0], rng)
    S = random_hermitian(3, rng)
    S = S @ S.conj().T
    fitted, resid = fitted_eigenvalues(S, G)
    E = S - frame_operator(G)
    for j in range(3):
        g = G.vectors[:, j]
        c = (g.conj() @ E @ g).real / (np.abs(g) ** 2).sum()
        assert fitted[j] == pytest.approx(c)
        assert resid[j] >= 0


DIM_MISMATCH_CALLS = {
    "frame_operator_distance": lambda S, G: frame_operator_distance(frobenius(), S, G),
    "fitted_eigenvalues": fitted_eigenvalues,
    "structure_check": lambda S, G: structure_check(frobenius(), S, G),
    "certify_uniform_eigenvalue": lambda S, G: certify_uniform_eigenvalue(frobenius(), S, G),
    "gradient_norm": lambda S, G: frames.gradient_norm(frobenius(), S, G),
    "escape_move": lambda S, G: escape_move(S, G, 0),
}


@pytest.mark.parametrize("entry", sorted(DIM_MISMATCH_CALLS))
def test_frame_functions_reject_a_target_of_another_dimension(entry):
    """A 1 x 1 S against a frame in C^3 once broadcast into a result (three
    fitted values, a gradient norm, not_applicable, no escape curve)."""
    G = random_frame(3, [1.0, 1.0, 1.0], 0)
    with pytest.raises(ValueError, match="dim mismatch: 1 vs 3"):
        DIM_MISMATCH_CALLS[entry](np.array([[2.0]]), G)


def _restart_instance(seed):
    rng = np.random.default_rng(seed)
    lam = sort_desc(rng.uniform(0, 3, 3))
    V = haar_unitary(3, rng)
    S = (V * lam) @ V.conj().T
    S = (S + S.conj().T) / 2
    return S, rng.uniform(0.5, 1.5, 4)


@pytest.mark.parametrize(
    "norm, alone",
    [
        (frobenius(), lambda norm, *args: gradient_descent(*args)),
        (schatten(3), lambda norm, S, a, seed, opts: frames.descend_restarts(
            norm, S, a, [seed], opts)[0]),
    ],
    ids=["frobenius", "schatten3"],
)
def test_descend_restarts_matches_restarts_run_alone(norm, alone):
    S, a = _restart_instance(6)
    opts = DescentOptions(max_iters=600)
    seeds = range(11, 15)
    for seed, (G, tr) in zip(seeds, frames.descend_restarts(norm, S, a, seeds, opts)):
        G1, tr1 = alone(norm, S, a, seed, opts)
        assert np.array_equal(G.vectors, G1.vectors)
        assert np.array_equal(tr.objective, tr1.objective)
        assert (tr.grad_norm, tr.iterations, tr.converged, tr.stop) == (
            tr1.grad_norm, tr1.iterations, tr1.converged, tr1.stop
        )


def test_descend_restarts_keeps_seed_order():
    S, a = _restart_instance(7)
    seeds = [5, 3, 9]
    batch = frames.descend_restarts(frobenius(), S, a, seeds, DescentOptions(max_iters=300))
    for s, (G, tr) in zip(seeds, batch):
        G1, tr1 = gradient_descent(S, a, s, DescentOptions(max_iters=300))
        assert np.array_equal(G.vectors, G1.vectors)
        assert np.array_equal(tr.objective, tr1.objective)


def test_capped_norm_descent_trace_ends_at_the_returned_frame():
    S, a = _restart_instance(8)
    # both descents converge after 33-34 iterations; cap them at 20
    G, tr = frames.descend_restarts(schatten(3), S, a, [4], DescentOptions(max_iters=20))[0]
    assert tr.stop == "max_iters" and not tr.converged
    assert len(tr.objective) == tr.iterations + 1 == 21
    theta = frame_operator_distance(schatten(3), S, G)
    assert abs(tr.objective[-1] - theta) <= 1e-14 * theta
    G, tr = gradient_descent(S, a, seed=4, opts=DescentOptions(max_iters=20))
    assert tr.stop == "max_iters" and len(tr.objective) == tr.iterations + 1 == 21


def test_descent_options_keep_the_objective_budget(monkeypatch):
    # options that leave max_iters unset run the objective's own budget
    # (4000 iterations for a norm, 20000 for the squared Frobenius
    # distance), here shrunk so that the descents meet it
    monkeypatch.setattr(frames._kernels.NormDistance, "max_iters", 5)
    monkeypatch.setattr(frames._kernels.SquaredFrobenius, "max_iters", 6)
    S, a = _restart_instance(8)
    _G, tr = frames.descend_restarts(schatten(3), S, a, [4], DescentOptions())[0]
    assert tr.stop == "max_iters" and tr.iterations == 5
    _G, tr = gradient_descent(S, a, seed=4, opts=DescentOptions())
    assert tr.stop == "max_iters" and tr.iterations == 6
    _G, tr = frames.descend_restarts(schatten(3), S, a, [0], DescentOptions(max_iters=3))[0]
    assert tr.stop == "max_iters" and tr.iterations == 3


def test_descent_stop_reasons():
    # Frobenius: S attained at the start of seed 1, so that restart
    # converges at once; a line search that may not shrink its step
    # (backtrack 1) with Armijo c = 0.75 stalls at the first step of seed 3
    # and takes the first step of seed 0, which then meets the cap of 1
    rng = np.random.default_rng(2)
    a = rng.uniform(0.5, 1.5, 4)
    S = frame_operator(random_frame(3, a, 1))
    unshrinkable = DescentOptions(max_iters=1, armijo_c=0.75, backtrack=1.0)
    stops = [tr.stop for _G, tr in frames.descend_restarts(frobenius(), S, a, [0, 1, 3], unshrinkable)]
    assert stops == ["max_iters", "converged", "stalled_line_search"]
    # Schatten-3: a descent from a critical point converges at once (its
    # gradient norm is below grad_tol); from random starts the unshrinkable
    # line search stalls (after 3 to 20 steps) or runs into the cap of 10
    S = np.diag([2.0, 1.0])
    a = np.array([2.0, 1.0])
    critical = FrameSequence(np.array([[np.sqrt(2.0), 1.0], [0.0, 0.0]]), a)
    assert frames.gradient_norm(schatten(3), S, critical) < DescentOptions().grad_tol
    unshrinkable = DescentOptions(max_iters=10, backtrack=1.0)
    stops = {tr.stop for _G, tr in frames.descend_restarts(schatten(3), S, a, range(8), unshrinkable)}
    assert stops == {"stalled_line_search", "max_iters"}


@pytest.mark.parametrize("p", [3.0, 1.5])
def test_norm_descent_stops_without_progress_on_attainable_target(p):
    # S = S_G* is attained, so the optimum is 0, where the norm is not
    # differentiable and its gradient keeps unit size: the restarts cannot
    # meet grad_tol and stop once the value no longer falls
    rng = np.random.default_rng(2)
    a = rng.uniform(0.5, 1.5, 4)
    S = frame_operator(random_frame(3, a, rng))
    for G, tr in frames.descend_restarts(schatten(p), S, a, range(4)):
        assert tr.stop == "no_progress" and not tr.converged
        assert tr.iterations <= 1000 and len(tr.objective) == tr.iterations + 1
        theta = frame_operator_distance(schatten(p), S, G)
        assert max(theta, tr.objective[-1]) <= 1e-12 * np.linalg.norm(S)
