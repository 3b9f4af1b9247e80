"""The stacked kernels against their one-at-a-time references: the spectrum
samplers against per-sample loops, and the lockstep descent against the
same restarts descended alone, as a batch of one and as the serial loop.
The orbit samplers' thread pool: layer functions stay on the calling
thread, the worker count does not change a bit, and a forked child
samples."""

import functools
import importlib
import inspect
import multiprocessing
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from oracles import frame_descent_serial, norm_descent_serial, orbit_spectra_loop, psd_spectra_loop
import lidskii
from lidskii import _kernels, eig_orbit, sv_orbit
from lidskii.backend import backend_name
from lidskii.frames import frame_operator, random_frame
from lidskii.matrices import haar_unitary, random_hermitian
from lidskii.norms import schatten


def _gaussians(rng, n, d):
    return (rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))) / np.sqrt(2)


def _on_spheres(V, a):
    return V * np.sqrt(a / np.sum(np.abs(V) ** 2, axis=0))


def test_backend_name_reports():
    assert backend_name() == "numpy"


def test_orbit_spectra_paths_agree():
    rng = np.random.default_rng(0)
    d = 4
    S = random_hermitian(d, rng)
    mu = np.array([2.0, 1.0, 0.5, -1.0]).astype(complex)
    gs = _gaussians(rng, 32, d)
    assert np.allclose(_kernels.orbit_spectra(S, mu, gs), orbit_spectra_loop(S, mu, gs), atol=1e-12)


def test_psd_spectra_paths_agree():
    rng = np.random.default_rng(1)
    d = 3
    S = random_hermitian(d, rng)
    gs = _gaussians(rng, 24, d)
    stacked = _kernels.psd_spectra(S, 2.0, gs)
    assert np.allclose(stacked, psd_spectra_loop(S, 2.0, gs), atol=1e-12)
    # sampled matrices are PSD trace-t differences: rows non-increasing
    assert np.all(np.diff(stacked, axis=-1) <= 1e-12)


# the layer modules whose public functions the per-layer tracer wraps
LAYERS = (
    "cli", "jsonio", "eig_orbit", "sv_orbit", "frames",
    "_kernels", "curves", "norms", "matrices", "backend",
)


def _sampler_runs():
    """Both orbit samplers over two full blocks and a short one."""
    rng = np.random.default_rng(5)
    S = random_hermitian(4, rng)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    n = 2 * _kernels.SAMPLE_BLOCK + 7
    return (
        eig_orbit.orbit_sample_values(schatten(3), S, rng.standard_normal(4), n, 1),
        sv_orbit.sv_orbit_sample_values(schatten(3), A, rng.uniform(0.0, 2.0, 4), n, 2),
    )


def _record_threads(monkeypatch):
    """Wrap every public function of the layer modules, as the tracer does,
    wherever a ``lidskii`` module holds it; each call appends its name and
    whether it ran on the main thread."""
    calls = []

    def recording(name, fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            calls.append((name, threading.current_thread() is threading.main_thread()))
            return fn(*args, **kwargs)

        return recorded

    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"lidskii.{layer}")
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                wrappers[obj] = recording(f"{layer}.{attr}", obj)
    for name, module in list(sys.modules.items()):
        if name == "lidskii" or name.startswith("lidskii."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[obj])
    return calls


def test_sampler_pool_runs_no_layer_function(monkeypatch):
    monkeypatch.setattr(_kernels, "_cpus", lambda: 2)  # a pool even on one CPU
    calls = _record_threads(monkeypatch)
    _sampler_runs()
    names = {name for name, _ in calls}
    assert {
        "eig_orbit.orbit_sample_values", "_kernels.orbit_spectra",
        "sv_orbit.sv_orbit_sample_values", "norms.gauge",
    } <= names
    assert sorted({name for name, on_main in calls if not on_main}) == []


@pytest.mark.parametrize("workers", [1, 3])
def test_samplers_do_not_depend_on_worker_count(monkeypatch, workers):
    pooled = _sampler_runs()
    monkeypatch.setattr(_kernels, "_cpus", lambda: workers)
    for vals, alone in zip(pooled, _sampler_runs()):
        assert np.array_equal(vals, alone)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.filterwarnings("ignore:.*fork:DeprecationWarning")
def test_samplers_run_in_a_forked_child(monkeypatch):
    # the parent's pool exists before the fork; the child inherits it
    # without its threads
    monkeypatch.setattr(_kernels, "_cpus", lambda: 2)
    expected = _sampler_runs()

    def child():
        for vals, again in zip(expected, _sampler_runs()):
            assert np.array_equal(vals, again)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(60)
    if proc.exitcode is None:
        proc.kill()
        proc.join()
    assert proc.exitcode == 0


def test_cli_import_leaves_the_pool_module_unloaded():
    """Neither the pool nor the property suites load with the CLI: only the
    samplers start the pool, and only ``property-suite`` needs the suites."""
    src = os.path.dirname(os.path.dirname(lidskii.__file__))
    code = (
        "import sys, lidskii.cli; "
        "print(sorted({'concurrent.futures', 'lidskii.properties'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.stdout.strip() == "[]", proc.stdout + proc.stderr


def test_imports_load_only_numpy_and_the_standard_library():
    """numpy is the one dependency: importing the package, its CLI and its
    property suites loads no other third-party module (scipy may be
    installed, but nothing may import it).  Modules without an import spec
    are namespaces that compiled extensions register (Cython's runtime),
    not imports."""
    src = os.path.dirname(os.path.dirname(lidskii.__file__))
    code = (
        "import sys; before = set(sys.modules); "
        "import lidskii, lidskii.cli, lidskii.properties; "
        "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before "
        "if sys.modules[m].__spec__ is not None} - set(sys.stdlib_module_names)))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) <= {"numpy", "lidskii"}, proc.stdout


def _objectives():
    return [
        (_kernels.SquaredFrobenius, frame_descent_serial),
        (_kernels.NormDistance(schatten(3)), lambda *args: norm_descent_serial(schatten(3), *args)),
    ]


def _assert_batch_matches_alone(objective, serial, S, G0, a, max_iters, *opts):
    """Every slice of a lockstep batch equals the restart descended alone:
    as a batch of one and as the serial loop, bit for bit."""
    G, traces, gnorms, stops = _kernels.lockstep_descent(objective, S, G0, a, max_iters, *opts)
    for i in range(G0.shape[0]):
        G1, traces1, gnorms1, stops1 = _kernels.lockstep_descent(
            objective, S, G0[i : i + 1], a, max_iters, *opts
        )
        Gs, trace_s, gnorm_s, stop_s = serial(S, G0[i], a, max_iters, *opts)
        for frame_, trace, gnorm, stop in (
            (G1[0], traces1[0], gnorms1[0], stops1[0]),
            (Gs, trace_s, gnorm_s, _kernels.STOPS.index(stop_s)),
        ):
            assert np.array_equal(G[i], frame_)
            assert np.array_equal(traces[i], trace)
            assert gnorms[i] == gnorm
            assert stops[i] == stop
    return traces, stops


@pytest.mark.parametrize("which", [0, 1], ids=["frobenius", "schatten3"])
def test_lockstep_batch_matches_single_restarts(which):
    objective, serial = _objectives()[which]
    rng = np.random.default_rng(2 + which)
    for d, k in ((2, 2), (3, 5), (4, 6)):
        S = random_hermitian(d, rng)
        S = (S @ S.conj().T).astype(complex)
        a = rng.uniform(0.5, 1.5, k)
        G0 = np.stack([random_frame(d, a, s).vectors for s in range(5)])
        _traces, stops = _assert_batch_matches_alone(objective, serial, S, G0, a, 400, 1e-9, 1e-4, 0.5)
        assert _kernels.CONVERGED in stops or _kernels.MAX_ITERS in stops


def test_frobenius_batch_mixing_every_stop():
    # S is attained at G*, where the gradient vanishes; the line search may
    # not shrink its step (backtrack 1), so a restart stalls at the first
    # step that fails Armijo with c = 0.75, as the random starts do within
    # two steps.  Starts within 1e-9 and 3e-8 of G* begin below the float64
    # floor of the objective, where any non-increasing step is accepted:
    # one converges within the cap of 5 and one does not
    rng = np.random.default_rng(2)
    d, k = 3, 4
    a = rng.uniform(0.5, 1.5, k)
    Gstar = random_frame(d, a, rng)
    S = frame_operator(Gstar)
    near = [
        _on_spheres(Gstar.vectors + delta * random_frame(d, a, rng).vectors, a)
        for delta in (1e-9, 3e-8)
    ]
    G0 = np.stack([Gstar.vectors] + near + [random_frame(d, a, s).vectors for s in range(3)])
    cap = 5
    traces, stops = _assert_batch_matches_alone(
        _kernels.SquaredFrobenius, frame_descent_serial, S, G0, a, cap, 1e-9, 0.75, 1.0
    )
    names = [_kernels.STOPS[s] for s in stops]
    assert names[0] == "converged" and len(traces[0]) == 1
    assert set(names[1:]) == {"converged", "stalled_line_search", "max_iters"}
    assert len(traces[names.index("max_iters")]) == cap + 1


def test_norm_batch_mixing_stops():
    # diag(sqrt 2, 0), (1, 0) is a critical point of the Schatten distance
    # to diag(2, 1); from random starts the unshrinkable line search stalls
    # at different iterations (3 to 20) or runs into the cap of 10
    S = np.diag([2.0, 1.0]).astype(complex)
    a = np.array([2.0, 1.0])
    critical = np.array([[np.sqrt(2.0), 1.0], [0.0, 0.0]], dtype=complex)
    G0 = np.stack([critical] + [random_frame(2, a, s).vectors for s in range(8)])
    objective, serial = _objectives()[1]
    cap = 10
    traces, stops = _assert_batch_matches_alone(objective, serial, S, G0, a, cap, 1e-9, 1e-4, 1.0)
    names = [_kernels.STOPS[s] for s in stops]
    assert names[0] == "converged" and len(traces[0]) == 1
    assert {"stalled_line_search", "max_iters"} <= set(names)
    capped = names.index("max_iters")
    assert len(traces[capped]) == cap + 1


def _criterion_09_instance(index):
    """S, squared norms and first restart seed of criterion 09's instance
    ``index`` (seed 109), drawn as that criterion draws them."""
    rng = np.random.default_rng(109)
    for _ in range(index + 1):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(d, d + 3))
        a = rng.uniform(0.3, 1.5, k)
        lam = np.sort(rng.uniform(0, 3, d))[::-1]
        V = haar_unitary(d, rng)
        seed = int(rng.integers(0, 2**31))
        rng.integers(0, 2**31, size=7)
    S = (V * lam) @ V.conj().T
    return (S + S.conj().T) / 2, a, seed, V


def test_norm_batch_mixing_window_stops():
    # criterion 09's instance 0 under Schatten 3, with S replaced by the
    # frame operator of its first restart's start: the optimum is then 0,
    # where the norm is not differentiable, so the restarts flatten out
    # without meeting grad_tol, two of them within the cap of 250 and two
    # not; a frame of eigenvectors of S is critical
    _S, a, seed, _V = _criterion_09_instance(0)
    d = _S.shape[0]
    S = frame_operator(random_frame(d, a, seed))
    V = np.linalg.eigh(S)[1]
    critical = V[:, np.arange(a.size) % d] * np.sqrt(a)
    G0 = np.stack([critical] + [random_frame(d, a, seed + r).vectors for r in range(3, 7)])
    objective, serial = _objectives()[1]
    cap = 250
    traces, stops = _assert_batch_matches_alone(objective, serial, S, G0, a, cap, 1e-9, 1e-4, 0.5)
    names = [_kernels.STOPS[s] for s in stops]
    assert names[0] == "converged" and len(traces[0]) == 1
    assert sorted(names[1:]) == ["max_iters", "max_iters", "no_progress", "no_progress"]
    W = objective.window
    for trace, name in zip(traces[1:], names[1:]):
        if name == "no_progress":
            assert W < len(trace) - 1 < cap
            assert trace[-1 - W] - trace[-1] <= objective.slack(trace[-1])
        else:
            assert len(trace) == cap + 1


@pytest.mark.parametrize(
    "index, objective",
    [(13, _kernels.SquaredFrobenius)]
    + [(i, _kernels.NormDistance(schatten(3))) for i in (3, 7, 11)],
    ids=["13-frobenius", "3-schatten3", "7-schatten3", "11-schatten3"],
)
def test_descent_has_no_slow_tail(index, objective):
    # the four restarts ``fod-optimize --restarts 4`` runs on criterion 09's
    # instances 13 (from a fixed step, 4490-4745 iterations each) and 3, 7
    # and 11 under Schatten 3 (from a fixed step, flat short of grad_tol):
    # each converges, within 500 iterations
    S, a, seed, _V = _criterion_09_instance(index)
    G0 = np.stack([random_frame(S.shape[0], a, seed + r).vectors for r in range(4)])
    _G, traces, gnorms, stops = _kernels.lockstep_descent(
        objective, S, G0, a, objective.max_iters, 1e-9, 1e-4, 0.5
    )
    assert [_kernels.STOPS[s] for s in stops] == ["converged"] * 4
    assert max(len(t) - 1 for t in traces) <= 500 and max(gnorms) < 1e-9


def _reference_instance(seed, d, k, a=None):
    rng = np.random.default_rng(seed)
    S = random_hermitian(d, rng)
    S = (S @ S.conj().T).astype(complex)
    a = rng.uniform(0.5, 1.5, k) if a is None else a
    G0 = _on_spheres(rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k)), a)
    return S, G0, a


def test_frame_descent_paths_agree():
    # the 2-d wrapper, the lockstep kernel at B = 1 and the serial loop
    S, G0, a = _reference_instance(2, 3, 5)
    G, trace, gnorm, status = _kernels.frame_descent(S, G0, a, 500, 1e-9, 1e-4, 0.5)
    Gs, trace_s, gnorm_s, stop_s = frame_descent_serial(S, G0, a, 500, 1e-9, 1e-4, 0.5)
    assert np.array_equal(G, Gs) and np.array_equal(trace, trace_s) and gnorm == gnorm_s
    assert status == {"converged": 1}.get(stop_s, 0)
    # status 0 covers both the iteration cap and a stalled line search
    _G, trace, _g, status = _kernels.frame_descent(S, G0, a, 5, 1e-9, 1e-4, 0.5)
    assert status == 0 and len(trace) == 6


def test_frame_descent_trace_monotone():
    S, G0, a = _reference_instance(3, 4, 6, a=np.ones(6))
    _G, trace, _g, _st = _kernels.frame_descent(S, G0, a, 2000, 1e-9, 1e-4, 0.5)
    slack = 1e-12 * (1 + trace[0])
    assert np.all(np.diff(trace) <= slack)


def test_norm_slope_squares_like_the_scalar_loop():
    # the one-restart loop squared the gradient norm as a Python float,
    # which rounds through the C library's pow, not through x * x
    g2 = np.random.default_rng(4).uniform(1e-20, 1e3, 10000)
    expected = [float(np.sqrt(x)) ** 2 for x in g2]
    assert _kernels.NormDistance.slope(g2).tolist() == expected
