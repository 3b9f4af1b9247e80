"""The three benchmark workloads: instance generation, operations and checks.

Each workload turns a seed into a fixed schedule of operations.  An operation
has a ``run`` callable (the timed call into lidskii) and a ``check`` callable
(untimed) that re-verifies the output independently and returns a list of
failure messages plus outcome tags (``inconclusive``, ``unconverged``).

Operations call lidskii through module attributes (``cli.main``,
``eig_orbit.global_minimizer``, ...) so the tracer's wrappers see them.

In certify and sampling, discrete instance parameters (dimension, norm,
candidate kind) follow a fixed cycle and continuous content is drawn from the
seed, so runs with different seeds differ in content but not in mix.
frame_opt is a fixed corpus; ``frame_opt_ops`` says why.
"""

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from lidskii import _kernels, cli, eig_orbit, frames, jsonio, sv_orbit
from lidskii.majorization import sort_desc
from lidskii.matrices import haar_unitary, random_general, random_hermitian, skew_exp
from lidskii.norms import evaluate, frobenius, gauge, gauge_from_eigs, parse_norm, schatten
from lidskii.properties import commuting_candidate, dependent_cluster_instance, hermitian_product_pair

WORKLOADS = ("certify", "frame_opt", "sampling")

CERTIFY_NORMS = ("frobenius", "schatten:3", "schatten:1.2")
SAMPLES_PER_OP = 10_000
# criterion 09 of tests/test_acceptance.py draws its 100 instances from this seed
FRAME_CORPUS_SEED = 109
FRAME_CORPUS_SIZE = 16
FRAME_RESTARTS = 4

# correctness tolerances (relative unless noted)
VALUE_RTOL = 1e-9
ORBIT_RTOL = 1e-8
SAMPLE_SLACK = 1e-8  # absolute: no sample may beat the optimum by more
SPHERE_RTOL = 1e-8
CERTIFIED_RTOL = 1e-8  # a certified candidate's value against the closed form


@dataclass
class Operation:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


def _rel_close(x, y, rtol):
    return abs(float(x) - float(y)) <= rtol * (1.0 + abs(float(y)))


def _unit_skew(d, rng):
    Z = random_general(d, rng)
    K = (Z - Z.conj().T) / 2.0
    return K / np.linalg.norm(K)


def _herm(M):
    return (M + M.conj().T) / 2.0


class _Files:
    """Writes CLI inputs as JSON under one directory during set-up, plus the
    empty report file every operation writes to."""

    def __init__(self, root):
        self.root = root
        self.count = 0
        # id -> (array, path) for inputs shared by operations; holding the
        # array keeps its id from being reused by a later one
        self._written = {}
        os.makedirs(root, exist_ok=True)
        self.out = os.path.join(root, "out.json")
        open(self.out, "w", encoding="utf-8").close()

    def _write(self, stem, obj, encode):
        hit = self._written.get(id(obj))
        if hit is not None:
            return hit[1]
        self.count += 1
        path = os.path.join(self.root, f"{self.count:05d}_{stem}.json")
        self._written[id(obj)] = (obj, path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(encode(obj))
        return path

    def matrix(self, stem, M):
        return self._write(stem, M, lambda m: jsonio.dumps(jsonio.matrix_to_json(m)))

    def vector(self, stem, v):
        return self._write(stem, v, lambda x: json.dumps([float(y) for y in x]))

    def frame(self, stem, G):
        return self._write(stem, G, lambda g: jsonio.dumps(jsonio.frame_to_json(g)))


def _cli_op(files, kind, argv, checker):
    """Operation running ``lidskii <argv> --out <report file>`` in process."""
    out = files.out
    argv = list(argv) + ["--out", out]

    def run():
        return cli.main(argv)

    def check(code):
        # emptied rather than deleted, so no operation pays for creating a file
        with open(out, "r+", encoding="utf-8") as fh:
            text = fh.read()
            fh.truncate(0)
        if not text.strip():
            return [f"{kind}: exit {code} and no report written"], {}
        report = json.loads(text)
        errors, tags = checker(report)
        expected = cli.VERDICT_EXIT[report.get("verdict", "success")]
        if code != expected:
            errors.append(f"{kind}: exit code {code}, verdict expects {expected}")
        return errors, tags

    return Operation(kind, run, check)


# ---------------------------------------------------------------- certify


def _witness_errors(kind, report, value_key, value_at, on_orbit):
    """Re-verify a descent witness: the endpoint stays on the constraint set
    and its objective, evaluated afresh, lies strictly below phi0/psi0."""
    w = report.get("descent_witness")
    if w is None:
        return [f"{kind}: not_local_min without a descent witness"]
    end = jsonio.matrix_from_json(w["endpoint"])
    errors = []
    if not on_orbit(end):
        errors.append(f"{kind}: witness endpoint left the orbit")
    start = float(report[value_key])
    at_end = value_at(end)
    if not at_end < start:
        errors.append(f"{kind}: witness endpoint {at_end!r} does not drop below {start!r}")
    return errors


def _certify_checker(kind, candidate, value_key, value_at, on_orbit, start, defect, scale, optimum):
    """``defect`` and ``scale`` are the two sides of the certifier's documented
    commuting test at the candidate, recomputed here, and ``optimum`` is the
    closed-form minimum.

    ``certified_global`` must hold up independently: the recomputed defect
    lies within the report's tol * scale and the candidate's value is the
    closed-form optimum.  A band candidate that passes both lies inside the
    certifier's declared tolerance of a minimizer; it is counted with the
    ``within_tol`` tag, not failed.  A Haar candidate cannot pass both.
    """
    phi0 = value_at(start)

    def checker(report):
        verdict = report["verdict"]
        errors = []
        tags = {"inconclusive": verdict == "inconclusive", "certify": True}
        if not _rel_close(report[value_key], phi0, VALUE_RTOL):
            errors.append(f"{kind}: {value_key} {report[value_key]!r} is not norm at the candidate {phi0!r}")
        if candidate == "aligned" and verdict != "certified_global":
            errors.append(f"{kind}: aligned minimizer got {verdict}")
        if candidate == "misaligned" and verdict != "not_local_min":
            errors.append(f"{kind}: misaligned commuting pair got {verdict}")
        if verdict == "certified_global":
            sound = True
            if defect > float(report["tol"]) * scale:
                errors.append(f"{kind}: {candidate} candidate certified_global with defect {defect:.3e} "
                              f"above tol * scale {float(report['tol']) * scale:.3e}")
                sound = False
            if not _rel_close(phi0, optimum, CERTIFIED_RTOL):
                errors.append(f"{kind}: {candidate} candidate certified_global at {phi0!r}, "
                              f"not the closed-form optimum {optimum!r}")
                sound = False
            tags["within_tol"] = sound and candidate in ("haar", "band")
        if verdict == "not_local_min":
            errors += _witness_errors(kind, report, value_key, value_at, on_orbit)
        return errors, tags

    return checker


def _certify_eig_op(files, norm_text, S, G0, mu, seed, candidate):
    """``mu`` is non-increasing; S and mu are written once per instance."""
    norm = parse_norm(norm_text)
    scale = 1.0 + float(np.max(np.abs(mu)))

    def on_orbit(G):
        return np.max(np.abs(np.linalg.eigvalsh(_herm(G))[::-1] - mu)) <= ORBIT_RTOL * scale

    defect = np.linalg.norm(S @ G0 - G0 @ S)
    optimum = gauge_from_eigs(norm, np.linalg.eigvalsh(S)[::-1] - mu)
    checker = _certify_checker(
        "certify-eig", candidate, "phi", lambda G: evaluate(norm, S - G), on_orbit, G0,
        defect, 1.0 + np.linalg.norm(S) * np.linalg.norm(G0), optimum,
    )
    argv = [
        "certify-eig", "--S", files.matrix("S", S), "--G0", files.matrix("G0", G0),
        "--mu", files.vector("mu", mu), "--norm", norm_text, "--seed", str(seed),
    ]
    return _cli_op(files, "certify-eig", argv, checker)


def _certify_sv_op(files, norm_text, A, B, s, seed, candidate):
    """``s`` is non-increasing; A is written once per instance."""
    norm = parse_norm(norm_text)
    scale = 1.0 + float(s[0])

    def on_orbit(B1):
        return np.max(np.abs(np.linalg.svd(B1, compute_uv=False) - s)) <= ORBIT_RTOL * scale

    P, Q = A.conj().T @ B, A @ B.conj().T
    defect = max(np.linalg.norm(P - P.conj().T), np.linalg.norm(Q - Q.conj().T))
    optimum = gauge(norm, sort_desc(np.abs(np.linalg.svd(A, compute_uv=False) - s)))
    checker = _certify_checker(
        "certify-sv", candidate, "psi", lambda B1: evaluate(norm, A - B1), on_orbit, B,
        defect, 1.0 + np.linalg.norm(A) * np.linalg.norm(B), optimum,
    )
    argv = [
        "certify-sv", "--A", files.matrix("A", A), "--B", files.matrix("B", B),
        "--norm", norm_text, "--seed", str(seed),
    ]
    return _cli_op(files, "certify-sv", argv, checker)


def _min_eig_op(files, norm_text, S, mu):
    norm = parse_norm(norm_text)
    mu = sort_desc(mu)
    lam = np.linalg.eigvalsh(S)[::-1]
    optimum = gauge_from_eigs(norm, lam - mu)

    def checker(report):
        G = jsonio.matrix_from_json(report["G"])
        errors = []
        if np.max(np.abs(np.linalg.eigvalsh(_herm(G))[::-1] - mu)) > ORBIT_RTOL * (1.0 + np.max(np.abs(mu))):
            errors.append("min-eig: G is off the orbit")
        if not _rel_close(report["phi"], optimum, VALUE_RTOL):
            errors.append(f"min-eig: phi {report['phi']!r} != closed form {optimum!r}")
        if not _rel_close(evaluate(norm, S - G), optimum, VALUE_RTOL):
            errors.append("min-eig: norm(S - G) differs from the closed form")
        return errors, {}

    argv = ["min-eig", "--S", files.matrix("S", S), "--mu", files.vector("mu", mu), "--norm", norm_text]
    return _cli_op(files, "min-eig", argv, checker)


def _min_sv_op(files, norm_text, A, s):
    norm = parse_norm(norm_text)
    s = sort_desc(s)
    optimum = gauge(norm, sort_desc(np.abs(np.linalg.svd(A, compute_uv=False) - s)))

    def checker(report):
        B = jsonio.matrix_from_json(report["B"])
        errors = []
        if np.max(np.abs(np.linalg.svd(B, compute_uv=False) - s)) > ORBIT_RTOL * (1.0 + s[0]):
            errors.append("min-sv: B is off the orbit")
        if not _rel_close(report["psi"], optimum, VALUE_RTOL):
            errors.append(f"min-sv: psi {report['psi']!r} != closed form {optimum!r}")
        if not _rel_close(evaluate(norm, A - B), optimum, VALUE_RTOL):
            errors.append("min-sv: norm(A - B) differs from the closed form")
        return errors, {}

    argv = ["min-sv", "--A", files.matrix("A", A), "--s", files.vector("s", s), "--norm", norm_text]
    return _cli_op(files, "min-sv", argv, checker)


def _joint_svd_op(files, A, B):
    tol = 1e-8 * (1.0 + np.linalg.norm(A) * np.linalg.norm(B))

    def checker(report):
        U = jsonio.matrix_from_json(report["U"])
        V = jsonio.matrix_from_json(report["V"])
        eye = np.eye(U.shape[0])
        errors = []
        if max(np.linalg.norm(U.conj().T @ U - eye), np.linalg.norm(V.conj().T @ V - eye)) > 1e-8:
            errors.append("joint-svd: frames are not unitary")
        ra = np.linalg.norm(U.conj().T @ A @ V - np.diag(report["alpha"]))
        rb = np.linalg.norm(U.conj().T @ B @ V - np.diag(report["beta"]))
        if max(ra, rb) > tol:
            errors.append(f"joint-svd: reconstruction residuals {ra:.3e}, {rb:.3e}")
        return errors, {}

    argv = ["joint-svd", "--A", files.matrix("A", A), "--B", files.matrix("B", B)]
    return _cli_op(files, "joint-svd", argv, checker)


def _fod_check_op(files, S, G):
    norm = frobenius()
    theta = frames.frame_operator_distance(norm, S, G)

    def checker(report):
        errors = []
        # a dependent cluster below a larger eigenvalue admits an escape move
        if report["verdict"] != "violates_structure":
            errors.append(f"fod-check: dependent-cluster instance got {report['verdict']}")
        if not _rel_close(report["theta"], theta, VALUE_RTOL):
            errors.append("fod-check: theta differs from norm(S - S_G)")
        return errors, {}

    argv = ["fod-check", "--S", files.matrix("S", S), "--G", files.frame("G", G), "--norm", "frobenius"]
    return _cli_op(files, "fod-check", argv, checker)


def _water_fill_op(files, lam, t):
    lam = sort_desc(lam)

    def checker(report):
        spec = np.asarray(report["spectrum"])
        errors = []
        if abs(float(np.sum(spec)) - t) > 1e-10 * (1.0 + t):
            errors.append("water-fill: spectrum does not carry the mass t")
        if np.max(np.abs(spec - np.maximum(lam - report["c"], 0.0))) > 1e-10 * (1.0 + t):
            errors.append("water-fill: spectrum is not (lam - c)^+")
        return errors, {}

    argv = ["water-fill", "--lambda", files.vector("lambda", lam), "--t", repr(float(t))]
    return _cli_op(files, "water-fill", argv, checker)


def certify_ops(seed, workdir, instances):
    """Twelve CLI operations per instance: certify-eig on four candidates,
    certify-sv on three, then min-eig, min-sv, joint-svd, fod-check and
    water-fill.  d cycles 2..6 and the norm frobenius, schatten:3,
    schatten:1.2, so 15 instances hold every pair once."""
    rng = np.random.default_rng([seed, 1])
    files = _Files(workdir)
    ops = []
    for j in range(instances):
        d = 2 + j % 5
        norm = CERTIFY_NORMS[j % len(CERTIFY_NORMS)]
        seeds = [int(x) for x in rng.integers(0, 2**31, 7)]
        # Hermitian orbit
        S = random_hermitian(d, rng)
        mu = sort_desc(2.0 * rng.standard_normal(d))
        G_star = eig_orbit.global_minimizer(S, mu)
        S_mis, G_mis, _lam, mu_mis = commuting_candidate(d, rng, aligned=False)
        G_haar = eig_orbit.random_orbit_point(mu, rng)
        # band: the minimizer moved along exp(eps K), K skew-Hermitian of unit
        # Frobenius norm, eps log-uniform in [1e-7, 1e-5]; not a minimizer
        U = skew_exp(_unit_skew(d, rng), 10.0 ** rng.uniform(-7.0, -5.0))
        G_band = _herm(U @ G_star @ U.conj().T)
        ops += [
            _certify_eig_op(files, norm, S, G_star, mu, seeds[0], "aligned"),
            _certify_eig_op(files, norm, S_mis, G_mis, mu_mis, seeds[1], "misaligned"),
            _certify_eig_op(files, norm, S, G_haar, mu, seeds[2], "haar"),
            _certify_eig_op(files, norm, S, G_band, mu, seeds[3], "band"),
        ]
        # singular-value orbit
        A = random_general(d, rng)
        s = sort_desc(rng.uniform(0.2, 3.0, d))
        B_star = sv_orbit.global_minimizer(A, s)
        X, Y = haar_unitary(d, rng), haar_unitary(d, rng)
        B_haar = (X.conj().T * s[np.newaxis, :]) @ Y
        U1 = skew_exp(_unit_skew(d, rng), 1e-6)
        U2 = skew_exp(_unit_skew(d, rng), 1e-6)
        ops += [
            _certify_sv_op(files, norm, A, B_star, s, seeds[4], "aligned"),
            _certify_sv_op(files, norm, A, B_haar, s, seeds[5], "haar"),
            _certify_sv_op(files, norm, A, U1 @ B_star @ U2, s, seeds[6], "band"),
        ]
        # closed forms, joint SVD, structure check, water filling
        S2 = random_hermitian(d, rng)
        mu2 = sort_desc(2.0 * rng.standard_normal(d))
        A2 = random_general(d, rng)
        s2 = sort_desc(rng.uniform(0.0, 3.0, d))
        Aj, Bj = hermitian_product_pair(d, rng)
        Sf, Gf, _ = dependent_cluster_instance(d, rng)
        lam_w = sort_desc(rng.uniform(0.0, 5.0, d))
        t_w = float(rng.uniform(0.05, 1.5) * max(float(np.sum(lam_w)), 1.0))
        ops += [
            _min_eig_op(files, norm, S2, mu2),
            _min_sv_op(files, norm, A2, s2),
            _joint_svd_op(files, Aj, Bj),
            _fod_check_op(files, Sf, Gf),
            _water_fill_op(files, lam_w, t_w),
        ]
    return ops


# ---------------------------------------------------------------- frame_opt


def frame_corpus(count=FRAME_CORPUS_SIZE):
    """(S, squared norms, restart seed) of the first criterion-09 instances,
    in order; the restart seed is the criterion's first one."""
    rng = np.random.default_rng(FRAME_CORPUS_SEED)
    corpus = []
    for _ in range(count):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(d, d + 3))
        a = rng.uniform(0.3, 1.5, k)
        lam = sort_desc(rng.uniform(0, 3, d))
        V = haar_unitary(d, rng)
        restart_seeds = [int(rng.integers(0, 2**31)) for _r in range(8)]
        corpus.append((_herm((V * lam[np.newaxis, :]) @ V.conj().T), a, restart_seeds[0]))
    return corpus


def _fod_optimize_op(files, norm_text, S, a, seed):
    norm = parse_norm(norm_text)
    bound, _ = frames.psd_lower_bound(norm, S, float(np.sum(a)))

    def checker(report):
        errors = []
        theta, lower = float(report["theta"]), float(report["lower_bound"])
        if theta < lower - 1e-9 * abs(lower):
            errors.append(f"fod-optimize: theta {theta!r} below lower bound {lower!r}")
        if not _rel_close(lower, bound, VALUE_RTOL):
            errors.append("fod-optimize: lower bound differs from the water-filling value")
        G = jsonio.frame_from_json(report["frame"])
        if np.max(G.sphere_residuals()) > SPHERE_RTOL:
            errors.append("fod-optimize: frame vector off its sphere")
        if not _rel_close(theta, frames.frame_operator_distance(norm, S, G), VALUE_RTOL):
            errors.append("fod-optimize: theta differs from norm(S - S_G)")
        verdict = report["structure"]["verdict"]
        if report["converged"] and norm.kind == "frobenius" and verdict != "consistent_with_local_min":
            errors.append(f"fod-optimize: converged Frobenius result {verdict}")
        return errors, {"unconverged": not report["converged"], "descent": True}

    argv = [
        "fod-optimize", "--S", files.matrix("S", S), "--a", files.vector("a", a),
        "--norm", norm_text, "--restarts", str(FRAME_RESTARTS), "--seed", str(seed),
    ]
    return _cli_op(files, "fod-optimize", argv, checker)


def frame_opt_ops(seed, workdir, instances):
    """fod-optimize over the first 16 criterion-09 instances; ``seed`` is unused.

    The cost of an operation is set by its instance and restart seed, with a
    heavy tail (on a 2-core Xeon, 20 ms to 4 s per operation).  Drawn per
    seed, that tail makes a run's p90 spread by more than its median from
    seed to seed (a resampling of 191 seeded instances gave 1.2 at 100
    operations); with these instances and only the eigenbasis of S drawn
    from the seed, ten 40 s runs still spread by 0.28 in p50, because the
    start frames are not rotated with S.  So this workload is a fixed corpus
    and its spread is the machine's.
    """
    del seed
    files = _Files(workdir)
    ops = []
    for i, (S, a, restart_seed) in enumerate(frame_corpus(instances)):
        norm = "schatten:3" if i % 4 == 3 else "frobenius"
        ops.append(_fod_optimize_op(files, norm, S, a, restart_seed))
    return ops


# ---------------------------------------------------------------- sampling


def _sample_check(kind, optimum):
    def check(values):
        values = np.asarray(values)
        errors = []
        if values.shape != (SAMPLES_PER_OP,) or not np.all(np.isfinite(values)):
            errors.append(f"{kind}: expected {SAMPLES_PER_OP} finite samples")
        elif float(values.min()) < optimum - SAMPLE_SLACK:
            errors.append(f"{kind}: sample {values.min()!r} beats the optimum {optimum!r}")
        return errors, {}

    return check


def _orbit_sampling_op(norm, S, mu, seed):
    box = {}

    def run():
        G = eig_orbit.global_minimizer(S, mu)
        box["optimum"] = eig_orbit.orbit_distance(norm, S, G)
        return eig_orbit.orbit_sample_values(norm, S, mu, SAMPLES_PER_OP, seed)

    return Operation("sample-orbit", run, lambda v: _sample_check("sample-orbit", box["optimum"])(v))


def _sv_sampling_op(norm, A, s, seed):
    box = {}

    def run():
        B = sv_orbit.global_minimizer(A, s)
        box["optimum"] = sv_orbit.orbit_distance(norm, A, B)
        return sv_orbit.sv_orbit_sample_values(norm, A, s, SAMPLES_PER_OP, seed)

    return Operation("sample-sv", run, lambda v: _sample_check("sample-sv", box["optimum"])(v))


def _psd_sampling_op(norm, S, t, seed):
    box = {}

    def run():
        box["optimum"], _ = frames.psd_lower_bound(norm, S, t)
        rng = np.random.default_rng(seed)
        d = S.shape[0]
        gaussians = (
            rng.standard_normal((SAMPLES_PER_OP, d, d)) + 1j * rng.standard_normal((SAMPLES_PER_OP, d, d))
        ) / np.sqrt(2.0)
        return gauge_from_eigs(norm, _kernels.psd_spectra(S, t, gaussians))

    return Operation("sample-psd", run, lambda v: _sample_check("sample-psd", box["optimum"])(v))


def sampling_ops(seed, workdir, instances):
    """Library-level optimality checks against 10^4 random samples each.

    The kind cycles orbit, sv, psd, d cycles 2..8 and the norm alternates
    frobenius and schatten:3, so 21 operations hold every kind and d once.
    """
    del workdir  # library level: nothing is written
    rng = np.random.default_rng([seed, 3])
    norms = (frobenius(), schatten(3))
    ops = []
    for i in range(instances):
        kind = i % 3
        d = 2 + (i // 3) % 7
        norm = norms[i % 2]
        op_seed = int(rng.integers(0, 2**31))
        if kind == 0:
            S = random_hermitian(d, rng)
            ops.append(_orbit_sampling_op(norm, S, sort_desc(2.0 * rng.standard_normal(d)), op_seed))
        elif kind == 1:
            A = random_general(d, rng)
            ops.append(_sv_sampling_op(norm, A, sort_desc(rng.uniform(0.0, 3.0, d)), op_seed))
        else:
            lam = sort_desc(rng.uniform(0.0, 4.0, d))
            V = haar_unitary(d, rng)
            S = _herm((V * lam[np.newaxis, :]) @ V.conj().T)
            t = float(rng.uniform(0.2, 1.2) * np.sum(lam) + 0.1)
            ops.append(_psd_sampling_op(norm, S, t, op_seed))
    return ops


BUILDERS = {"certify": certify_ops, "frame_opt": frame_opt_ops, "sampling": sampling_ops}
