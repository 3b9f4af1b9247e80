"""Digest the deterministic report bytes of a lidskii checkout.

    python3 tools/report_digest.py <checkout>

Prints one sha256 per output:

* ``certify seed=<s>``: the reports and exit codes of the benchmark's certify
  operations at seeds 0, 1 and 2 (30 instances, 360 CLI calls each), with
  the count of each exit code per operation kind (``certify-eig``,
  ``certify-sv``, ...), so a verdict that moves from one certifier to the
  other shows even when the pooled counts do not, then one
  ``certify seed=<s> kind=<kind>`` line per kind with the first 16 hex
  digits of the sha256 of that kind's exit codes and reports alone, so a
  change that moves only one kind's reports shows which;
* ``frame_opt``: the reports of the 16 fod-optimize operations, then one
  ``frame_opt op=<i>`` line per operation with the first 16 hex digits of
  the sha256 of its exit code and report, so a change shows which
  operations it moved;
* ``property-suite <scale> seed=<s>``: the suite JSON at small seeds 0 and 1
  and at medium seed 0;
* ``descents``: the final θ, ``iterations``, ``stop`` and ``grad_norm`` of
  acceptance criterion 09's 100 × 8 restarts, from
  ``tests/oracles.criterion_09_instances`` through ``frames.descend_restarts``,
  with the count of converged restarts;
* ``descents schatten:3``: the same record of the same restarts under the
  Schatten-3 norm, which descends the norm value (``_kernels.NormDistance``);
* ``nullspace``: the kernel dimensions of ``matrices.commutant_is_trivial``
  and ``matrices.pair_submersion_test`` on acceptance criterion 11's 250 +
  250 pairs, from ``tests/oracles.criterion_11_instances``, with the bytes
  of each pair-submersion witness, then ``dims=`` and the first 16 hex
  digits of the sha256 of the dimensions alone;
* ``sampling``: the float64 sample values of the benchmark's 21 sampling
  operations at seed 0, with the count of operations whose check passes,
  then one ``sampling op=<i>`` line per operation with the first 16 hex
  digits of the sha256 of its values alone, so a change shows which
  sampler and norm it moved.

The checkout's ``perfbench/workloads.py`` builds the operations, its
``tests/oracles.py`` the descent and null-space instances, and its ``src/``
supplies lidskii; nothing in the checkout is written, every input and report
goes to a temporary directory.  Two checkouts that print the same lines
produce the same bytes on these outputs.
"""

import argparse
import collections
import hashlib
import os
import sys
import tempfile

CERTIFY_SEEDS = (0, 1, 2)
CERTIFY_INSTANCES = 30  # the benchmark's certify pool
SUITES = (("small", 0), ("small", 1), ("medium", 0))
SAMPLING_SEED = 0
SAMPLING_INSTANCES = 21  # the benchmark's sampling pool


def _run_ops(ops, workdir):
    """Run each operation; returns the sha256 of its exit codes and reports,
    the count of each exit code per operation kind, the sha256 of each
    operation's exit code and report alone, and the sha256 of each kind's
    exit codes and reports in order."""
    digest = hashlib.sha256()
    codes = collections.defaultdict(collections.Counter)
    per_kind = collections.defaultdict(hashlib.sha256)
    per_op = []
    out = os.path.join(workdir, "out.json")
    for op in ops:
        code = op.run()
        codes[op.kind][code] += 1
        with open(out, "rb") as fh:
            report = fh.read()
        record = f"{op.kind} {code}\n".encode() + report
        digest.update(record)
        per_kind[op.kind].update(record)
        per_op.append(hashlib.sha256(record).hexdigest())
    return digest.hexdigest(), {
        kind: dict(sorted(counts.items())) for kind, counts in sorted(codes.items())
    }, per_op, {kind: h.hexdigest() for kind, h in sorted(per_kind.items())}


def _descents(instances, norm):
    """sha256 of every restart's final θ under ``norm``, iterations, stop and
    gradient norm, in instance and seed order, and the count of converged
    restarts."""
    from lidskii import frames

    digest = hashlib.sha256()
    converged = total = 0
    for S, a, seeds in instances:
        for G, tr in frames.descend_restarts(norm, S, a, seeds):
            theta = frames.frame_operator_distance(norm, S, G)
            digest.update(f"{theta!r} {tr.iterations} {tr.stop} {tr.grad_norm!r}\n".encode())
            converged += tr.converged
            total += 1
    return digest.hexdigest(), f"{converged}/{total}"


def _nullspace(commutant, submersion):
    """sha256 of the kernel dimension of every commutant and pair-submersion
    test in order, with each pair witness's bytes, and sha256 of the
    dimensions alone."""
    import numpy as np
    from lidskii.matrices import commutant_is_trivial, pair_submersion_test

    digest, dims = hashlib.sha256(), hashlib.sha256()
    results = [commutant_is_trivial(S, G) + (None,) for S, G in commutant]
    results += [pair_submersion_test(A, B) for A, B in submersion]
    for _, kdim, witness in results:
        record = f"{kdim}\n".encode()
        digest.update(record)
        dims.update(record)
        if witness is not None:
            digest.update(np.ascontiguousarray(witness).tobytes())
    return digest.hexdigest(), dims.hexdigest()


def _sampling(ops):
    """sha256 of every operation's sample values in order, the count of
    operations whose check passes, and the sha256 of each operation's
    values alone."""
    import numpy as np

    digest = hashlib.sha256()
    passed = 0
    per_op = []
    for op in ops:
        values = op.run()
        passed += not op.check(values)[0]
        record = np.ascontiguousarray(values, dtype=np.float64).tobytes()
        digest.update(record)
        per_op.append(hashlib.sha256(record).hexdigest())
    return digest.hexdigest(), f"{passed}/{len(ops)}", per_op


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", help="root of a lidskii checkout")
    root = os.path.abspath(ap.parse_args(argv).checkout)
    src = os.path.join(root, "src")
    sys.path[:0] = [src, os.path.join(root, "perfbench"), os.path.join(root, "tests")]

    import lidskii
    from lidskii import cli
    from lidskii.norms import frobenius, schatten

    import oracles
    import workloads

    if not os.path.abspath(lidskii.__file__).startswith(src + os.sep):
        sys.exit(f"lidskii imported from {lidskii.__file__}, not from {src}")

    with tempfile.TemporaryDirectory() as tmp:
        for seed in CERTIFY_SEEDS:
            work = os.path.join(tmp, f"certify-{seed}")
            sha, codes, _, per_kind = _run_ops(
                workloads.certify_ops(seed, work, CERTIFY_INSTANCES), work
            )
            print(f"certify seed={seed} {sha} exits={codes}")
            for kind, kind_sha in per_kind.items():
                print(f"certify seed={seed} kind={kind} {kind_sha[:16]}")
        work = os.path.join(tmp, "frame_opt")
        sha, codes, per_op, _ = _run_ops(
            workloads.frame_opt_ops(0, work, workloads.FRAME_CORPUS_SIZE), work
        )
        print(f"frame_opt {sha} exits={codes}")
        for i, op_sha in enumerate(per_op):
            print(f"frame_opt op={i} {op_sha[:16]}")
        out = os.path.join(tmp, "suite.json")
        for scale, seed in SUITES:
            code = cli.main(
                ["property-suite", "--seed", str(seed), "--scale", scale, "--out", out]
            )
            with open(out, "rb") as fh:
                sha = hashlib.sha256(fh.read()).hexdigest()
            print(f"property-suite {scale} seed={seed} {sha} exit={code}")
    instances = oracles.criterion_09_instances()
    sha, converged = _descents(instances, frobenius())
    print(f"descents {sha} converged={converged}")
    sha, converged = _descents(instances, schatten(3))
    print(f"descents schatten:3 {sha} converged={converged}")
    sha, dims = _nullspace(*oracles.criterion_11_instances())
    print(f"nullspace {sha} dims={dims[:16]}")
    # the sampling operations write nothing: they take no work directory
    sha, passed, per_op = _sampling(workloads.sampling_ops(SAMPLING_SEED, None, SAMPLING_INSTANCES))
    print(f"sampling {sha} ok={passed}")
    for i, op_sha in enumerate(per_op):
        print(f"sampling op={i} {op_sha[:16]}")


if __name__ == "__main__":
    main()
