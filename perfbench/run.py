#!/usr/bin/env python3
"""lidskii benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload certify|frame_opt|sampling \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src``.
Each workload runs in a fresh worker process with one client: an operation
starts only after the previous one and its correctness check have finished.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  Set-up (cold
import, instance generation, input writing, one warm-up operation) runs
SETUP_REPEATS times in separate processes and set-up time is their median.
Import time is the median over those set-ups and IMPORT_PROBES further
interpreters that only import; a single cold import varies by a third.

--trace 1 prints the per-layer metrics: passes over the same operations
alternate untraced and traced (the tracer wraps the layer functions), and
the throughput difference between the two is the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed correctness check makes it exit 1.
Results, spans and worker logs go to ``.perfbench/`` under the root.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5
IMPORT_PROBES = 10  # extra cold imports, half before and half after the timed loop
BLAS_THREADS = 1  # tiny matrices: one thread, and never more than nproc
RUN_DEADLINE_S = 170  # the whole command must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "import_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_ops_s": "1/s",
    "ok_ratio": "ratio",
    "conclusive_ratio": "ratio",
    "converged_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name):
    """Unit of a per-layer metric, from its suffix."""
    for suffix, unit in (
        ("_ms", "ms"), ("us_per_iter", "us"), ("samples_per_s", "1/s"), ("ops_s", "1/s"),
        ("bytes", "B"), ("bytes_per_sample_computed", "B"), ("_pct", "%"),
        ("_ratio", "ratio"), ("_share", "ratio"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def _read(path, default=None):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return default


def machine():
    cpu = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = (_read(os.path.join(base, index, "level")) or "").strip()
        kind = (_read(os.path.join(base, index, "type")) or "").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = (_read(os.path.join(base, index, "size")) or "").strip()
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # a bare checkout has no history
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "lidskii")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def import_probe():
    """Seconds of a cold ``import lidskii.cli`` in a fresh interpreter, timed
    as worker.py times it."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import lidskii.cli; print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.join(ROOT, "src")],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout)


def run_worker(args, work, role, tag, deadline):
    result = f"{work}-{tag}.json"
    log_path = os.path.join(OUT, "logs", f"{args.workload}-seed{args.seed}-trace{args.trace}-{tag}.log")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role, "--workdir", work, "--result", result,
    ]
    if args.trace and role == "measure":
        cmd += ["--spans", os.path.join(OUT, "spans", f"{args.workload}-seed{args.seed}.npz")]
    if args.tiny:
        cmd.append("--tiny")
    env = worker_env()
    try:
        with open(log_path, "w", encoding="utf-8") as log:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                timeout=max(deadline - time.monotonic(), 1.0),
            )
        if proc.returncode != 0:
            raise RuntimeError(f"{role} worker exited {proc.returncode}:\n{_read(log_path, '')[-2000:]}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        if os.path.exists(result):
            os.remove(result)


def import_times():
    """Cumulative import times (ms) from ``python -X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import lidskii.cli"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
        capture_output=True, text=True, timeout=60,
    )
    cumulative, total = {}, 0.0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _self, cum, name = line[len("import time:"):].split("|")
        cumulative[name.strip()] = float(cum) / 1e3
        if not name.startswith("  "):
            total += float(cum) / 1e3  # top-level entries of this import statement
    return cumulative.get("lidskii.backend", 0.0), total


def per_op_medians(phase):
    """Latency of each pool operation, as the median over the run's passes;
    slow spells of the machine that hit a minority of passes drop out."""
    lat = phase["latency_s"]
    n = len(lat) // phase["passes"]
    return [statistics.median(lat[j::n]) for j in range(n)]


def summarize(phase):
    per_op = per_op_medians(phase)
    attempted = len(phase["latency_s"])
    return {
        "p50_ms": 1e3 * statistics.median(per_op),
        "p90_ms": 1e3 * statistics.quantiles(per_op, n=10, method="inclusive")[-1]
        if len(per_op) > 1 else 1e3 * per_op[0],
        "throughput_ops_s": len(per_op) / sum(per_op),
        "fail_ratio": phase["failed"] / attempted,
        "inconclusive_ratio": phase["inconclusive"] / phase["certify"] if phase["certify"] else 0.0,
        "unconverged_ratio": phase["unconverged"] / phase["descent"] if phase["descent"] else 0.0,
        "within_tol_per_pass": phase["within_tol"] / phase["passes"] if phase["passes"] else 0.0,
    }


def end_to_end(setups, probes, measured):
    s = summarize(measured["untraced"])
    return {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "import_s": statistics.median([r["import_s"] for r in setups] + probes),
        "latency_p50_ms": s["p50_ms"],
        "latency_p90_ms": s["p90_ms"],
        "throughput_ops_s": s["throughput_ops_s"],
        "ok_ratio": 1.0 - s["fail_ratio"],
        "conclusive_ratio": 1.0 - s["inconclusive_ratio"],
        "converged_ratio": 1.0 - s["unconverged_ratio"],
        "peak_rss_mb": measured["peak_rss_mb"],
    }


def per_layer(measured, fail_ratio):
    untraced, traced = summarize(measured["untraced"]), summarize(measured["traced"])
    backend_ms, total_ms = import_times()
    metrics = dict(measured["layers"])
    metrics.update({
        "bench.throughput_untraced_ops_s": untraced["throughput_ops_s"],
        "bench.throughput_traced_ops_s": traced["throughput_ops_s"],
        "bench.tracing_overhead_pct": 100.0 * (1.0 - traced["throughput_ops_s"] / untraced["throughput_ops_s"]),
        "bench.spans": measured["spans"],
        "bench.fail_ratio": fail_ratio,
        "bench.inconclusive_ratio": traced["inconclusive_ratio"],
        "bench.unconverged_ratio": traced["unconverged_ratio"],
        "bench.within_tol_certified": traced["within_tol_per_pass"],
        "backend.import_ms": backend_ms,
        "backend.import_share": backend_ms / total_ms if total_ms else 0.0,
    })
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("certify", "frame_opt", "sampling"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest instance pools (smoke test)")
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "lidskii", "__init__.py")):
        sys.exit(f"perfbench: no lidskii sources under {os.path.join(ROOT, 'src')}")

    # every set-up of a run writes the same inputs into one directory
    work = os.path.join(OUT, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    setups, probes = [], []
    try:
        if not args.trace:
            for r in range(SETUP_REPEATS - 1):
                setups.append(run_worker(args, work, "setup", f"setup{r}", deadline))
            probes += [import_probe() for _ in range(IMPORT_PROBES // 2)]
        measured = run_worker(args, work, "measure", "measure", deadline)
        if not args.trace:
            probes += [import_probe() for _ in range(IMPORT_PROBES - IMPORT_PROBES // 2)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(measured)

    phases = [measured["untraced"], measured["traced"]]  # traced is empty with --trace 0
    attempted = sum(len(p["latency_s"]) for p in phases)
    failed = sum(p["failed"] for p in phases)
    failures = [m for r in setups for m in r["warmup_failures"]] + [m for p in phases for m in p["failures"]]
    if args.trace:
        values = per_layer(measured, failed / attempted)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    else:
        values = end_to_end(setups, probes, measured)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    correct = failed == 0 and not failures

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        **measured["env"],
        "ref_us_per_iter_before": measured["ref_us_per_iter_before"],
        "ref_us_per_iter_after": measured["ref_us_per_iter_after"],
        "setup_samples_s": [r["setup_s"] for r in setups],
        "import_samples_s": [r["import_s"] for r in setups] + probes,
        "ops_by_kind": {k: measured["untraced"]["kinds"].count(k) for k in sorted(set(measured["untraced"]["kinds"]))},
        "pass_seconds": [p["pass_seconds"] for p in phases],
        # Haar or band candidates certified_global inside the certifier's
        # declared tolerance of a minimizer, per pass over the pool
        "within_tol_certified": measured["untraced"]["within_tol"] // measured["untraced"]["passes"],
        "failures": failures[:20],
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"info": info, **result}, fh, indent=1)

    print("info " + json.dumps(info))
    for name, m in metrics.items():
        print(f"{args.workload:10s} {name:52s} {m['value']:>16.6g} {m['unit']}")
    if info["within_tol_certified"]:
        print(f"NOTE {info['within_tol_certified']} Haar or band candidate(s) certified_global "
              "within the certifier's declared tolerance of a minimizer")
    for message in failures[:20]:
        print("FAIL " + message.replace("\n", " | "))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
