"""One workload process: cold import, set-up, and optionally the timed loop.

Started by run.py, never imported.  The first thing it does is time a cold
``import lidskii.cli``; everything up to the end of the untimed warm-up
operation counts as set-up.  With ``--role setup`` it stops there.
"""

import os
import sys
import time

T0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
_t = time.perf_counter()
import lidskii.cli  # noqa: E402
IMPORT_S = time.perf_counter() - _t
sys.path.insert(0, HERE)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import lidskii  # noqa: E402
from lidskii import _kernels  # noqa: E402
from lidskii.matrices import random_hermitian  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# operations built in set-up; a run makes whole passes over them
POOL = {"certify": 30, "frame_opt": workloads.FRAME_CORPUS_SIZE, "sampling": 21}
TINY_POOL = {"certify": 1, "frame_opt": 2, "sampling": 3}
REFERENCE_ITERS = 3000


def machine_reference():
    """Microseconds per iteration of one fixed 3000-iteration frame descent.

    The instance never changes, so a shift in this figure between runs, or
    between the start and end of one run, is the machine and not the code.
    """
    rng = np.random.default_rng(20180628)
    d, k = 4, 6
    S = random_hermitian(d, rng)
    S = S @ S.conj().T
    a = rng.uniform(0.5, 1.5, k)
    G0 = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    G0 *= np.sqrt(a / np.sum(np.abs(G0) ** 2, axis=0))
    t0 = time.perf_counter()
    _G, trace, _g, _status = _kernels.frame_descent(S, G0, a, REFERENCE_ITERS, 0.0, 1e-4, 0.5)
    return 1e6 * (time.perf_counter() - t0) / max(len(trace) - 1, 1)


def _record():
    return {
        "latency_s": [], "kinds": [], "failures": [], "passes": 0, "pass_seconds": [],
        "failed": 0, "certify": 0, "inconclusive": 0, "within_tol": 0, "descent": 0, "unconverged": 0,
    }


def run_pass(ops, record, tracer=None):
    """One pass over the pool, closed loop with one client: each operation
    starts after the previous one and its check have finished."""
    for i, op in enumerate(ops, start=record["passes"] * len(ops)):
        t0 = time.perf_counter()
        try:
            result = tracer.op(i, op.kind, op.run) if tracer else op.run()
            crashed = None
        except Exception:  # an operation that raises is a failed operation
            crashed = traceback.format_exc(limit=3)
        record["latency_s"].append(time.perf_counter() - t0)
        record["kinds"].append(op.kind)
        if crashed:
            errors, tags = [f"{op.kind}: raised\n{crashed}"], {}
        else:
            errors, tags = op.check(result)
        if errors:
            record["failed"] += 1
            record["failures"].extend(errors[: max(0, 20 - len(record["failures"]))])
        for tag in ("certify", "inconclusive", "within_tol", "descent", "unconverged"):
            record[tag] += bool(tags.get(tag))
    record["passes"] += 1
    record["pass_seconds"].append(sum(record["latency_s"][-len(ops):]))


def run_phase(ops, seconds, tracer=None):
    """Whole passes over the pool, so every run measures the same mix.

    Another round starts only while one more round of the mean length so far
    fits in ``seconds``; there is always one.  With a tracer, each round is
    an untraced pass and then a traced one (wrappers installed only for it),
    so a drift in machine speed falls on both alike.
    """
    untraced, traced = _record(), _record()
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        run_pass(ops, untraced)
        if tracer:
            tracer.install()
            try:
                run_pass(ops, traced, tracer)
            finally:
                tracer.uninstall()
        rounds += 1
    return untraced, traced


def blas_info():
    deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": deps.get("name"), "version": deps.get("version")}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(lidskii.__file__).startswith(src + os.sep):
        sys.exit(f"lidskii imported from {lidskii.__file__}, not from {src}")

    pool = (TINY_POOL if args.tiny else POOL)[args.workload]
    ops = workloads.BUILDERS[args.workload](args.seed, args.workdir, pool)
    warm = ops[0]
    warm_errors, _ = warm.check(warm.run())
    setup_s = time.perf_counter() - T0
    record = {"import_s": IMPORT_S, "setup_s": setup_s, "warmup_failures": warm_errors}

    if args.role == "measure":
        record["ref_us_per_iter_before"] = machine_reference()
        tracer = tracing.Tracer() if args.trace else None
        record["untraced"], record["traced"] = run_phase(ops, args.seconds, tracer)
        if tracer:
            record["layers"] = tracer.layer_metrics()
            record["spans"] = len(tracer.span_start)
            if args.spans:
                tracer.save(args.spans)
        record["ref_us_per_iter_after"] = machine_reference()
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["env"] = {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": blas_info(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "backend": lidskii.backend_name(),
        }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
