import json
import math

import numpy as np
import pytest

from oracles import criterion_09_instances
from lidskii import cli, frames, jsonio
from lidskii.cli import main
from lidskii.frames import FrameSequence
from lidskii.matrices import skew_exp
from lidskii.norms import frobenius, schatten


@pytest.fixture
def workdir(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    paths = {
        "S": write("s.json", jsonio.matrix_to_json(np.diag([3.0, 1.0]))),
        "G_good": write("g_good.json", jsonio.matrix_to_json(np.diag([2.0, 0.0]))),
        "G_bad": write("g_bad.json", jsonio.matrix_to_json(np.diag([0.0, 2.0]))),
        "mu": write("mu.json", [2.0, 0.0]),
        "A": write("a.json", jsonio.matrix_to_json(np.diag([2.0, 1.0]))),
        "B_neg": write("b_neg.json", jsonio.matrix_to_json(np.diag([-1.0, 0.0]))),
        "S2": write("s2.json", jsonio.matrix_to_json(2 * np.eye(2))),
        "frame": write(
            "frame.json",
            jsonio.frame_to_json(FrameSequence(np.eye(2, dtype=complex), [1.0, 1.0])),
        ),
        "dir": tmp_path,
    }
    return paths


def test_certify_eig_exit_zero_on_global(workdir, capsys):
    code = main(
        [
            "certify-eig",
            "--S", workdir["S"],
            "--G0", workdir["G_good"],
            "--mu", workdir["mu"],
            "--norm", "schatten:2",
            "--tol", "1e-8",
            "--seed", "7",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "certified_global"
    assert report["schema"] == "lidskii.certify-eig/1"


def test_certify_eig_exit_two_with_witness(workdir, capsys):
    code = main(["certify-eig", "--S", workdir["S"], "--G0", workdir["G_bad"]])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "not_local_min"
    assert report["descent_witness"]["kind"] == "givens"
    assert len(report["descent_witness"]["values"]) > 4


def test_certify_eig_orbit_mismatch_is_usage_error(workdir, capsys):
    mu_wrong = workdir["dir"] / "mu_wrong.json"
    mu_wrong.write_text("[5.0, 0.0]")
    code = main(
        ["certify-eig", "--S", workdir["S"], "--G0", workdir["G_good"], "--mu", str(mu_wrong)]
    )
    assert code == 1


def test_missing_file_exit_one(workdir):
    assert main(["certify-eig", "--S", "/nonexistent.json", "--G0", workdir["G_bad"]]) == 1


def test_malformed_json_exit_one(workdir):
    bad = workdir["dir"] / "bad.json"
    bad.write_text("{]")
    assert main(["certify-eig", "--S", str(bad), "--G0", workdir["G_bad"]]) == 1


def test_usage_error_exit_one():
    assert main(["no-such-command"]) == 1
    assert main(["certify-eig"]) == 1  # missing required arguments


def test_certify_sv_and_joint_svd(workdir, capsys):
    code = main(["certify-sv", "--A", workdir["A"], "--B", workdir["B_neg"]])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "not_local_min"
    assert report["descent_witness"]["kind"] == "phase"

    code = main(["joint-svd", "--A", workdir["A"], "--B", workdir["B_neg"]])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["beta"] == [-1.0, 0.0]


def test_min_eig_and_min_sv(workdir, capsys):
    code = main(["min-eig", "--S", workdir["S"], "--mu", "1,0"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["difference_spectrum"] == [2.0, 1.0]

    code = main(["min-sv", "--A", workdir["A"], "--s", "1,1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    B = jsonio.matrix_from_json(report["B"])
    assert np.allclose(B, np.diag([1.0, 1.0]))


def test_water_fill_cli(capsys):
    code = main(["water-fill", "--lambda", "3,2,1", "--t", "3"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["c"] == 1.0
    assert report["spectrum"] == [2.0, 1.0, 0.0]
    assert main(["water-fill", "--lambda", "3,2,1", "--t", "-1"]) == 1


def test_fod_check_exit_codes(workdir, capsys):
    code = main(["fod-check", "--S", workdir["S2"], "--G", workdir["frame"]])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "consistent_with_local_min"

    # a frame vector that is not an eigenvector of S - S_G violates structure
    g = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2)
    bad = workdir["dir"] / "frame_bad.json"
    bad.write_text(json.dumps(jsonio.frame_to_json(FrameSequence(g, [1.0]))))
    code = main(["fod-check", "--S", workdir["S"], "--G", str(bad)])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "violates_structure"


def test_fod_optimize_writes_report(workdir, tmp_path):
    out = tmp_path / "opt.json"
    code = main(
        [
            "fod-optimize",
            "--S", workdir["S2"],
            "--a", "1,1",
            "--norm", "frobenius",
            "--restarts", "3",
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    # optimum for S = 2I, a = (1, 1): orthonormal pair, theta hits the
    # water-filling bound sqrt(2)
    assert report["theta"] == pytest.approx(np.sqrt(2), abs=1e-6)
    assert report["theta"] == pytest.approx(report["lower_bound"], abs=1e-6)
    assert report["special_case"] == "certified_global"
    back = jsonio.frame_from_json(report["frame"])
    assert back.dim == 2 and back.count == 2


def test_fod_optimize_attainable_instance_is_the_closed_form(workdir, capsys):
    """S = diag(3, 1), a = (1, 1): the water-filled spectrum (2, 0)
    majorizes a, so the report is the Schur-Horn frame, where the gradient
    vanishes; the seed and the restart count change only their echoes."""
    reports = []
    for seed, restarts in (("0", "8"), ("7", "2")):
        argv = ["fod-optimize", "--S", workdir["S"], "--a", "1,1", "--norm", "frobenius"]
        assert main(argv + ["--seed", seed, "--restarts", restarts]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    for report in reports:
        assert report["iterations"] == 0 and report["converged"]
        assert report["best_restart"] == 0
        assert report["special_case"] == "certified_global"
        assert report["theta"] == pytest.approx(report["lower_bound"], rel=1e-12)
    first, second = ({k: v for k, v in r.items() if k not in ("seed", "restarts")} for r in reports)
    assert json.dumps(first) == json.dumps(second)


def test_fod_optimize_unattainable_instance_keeps_the_restarts(tmp_path, capsys):
    """Criterion 09's configuration 5 is not majorized: its frame sits above
    the relaxation bound.  The report is still ``relaxation_minimizer``'s
    frame, and it keeps the ``--restarts`` and ``--seed`` options as echoes
    only."""
    S, a, seeds = criterion_09_instances(6)[5]
    argv = _fod_optimize_argv(tmp_path, S, a, "frobenius")
    G = frames.relaxation_minimizer(S, a)
    theta = frames.frame_operator_distance(frobenius(), S, G)
    reports = []
    for seed, restarts in ((seeds[0], 4), (seeds[0] + 1, 1)):
        assert main(argv + ["--restarts", str(restarts), "--seed", str(seed)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["restarts"], report["seed"], report["best_restart"]) == (restarts, seed, 0)
        assert report["iterations"] == 0 and report["converged"]
        assert report["theta"] == theta and report["theta"] > report["lower_bound"]
        assert np.array_equal(jsonio.frame_from_json(report["frame"]).vectors, G.vectors)
        reports.append({k: v for k, v in report.items() if k not in ("seed", "restarts")})
    assert json.dumps(reports[0]) == json.dumps(reports[1])


def _fod_optimize_argv(tmp_path, S, a, norm):
    s_path, a_path = tmp_path / "s.json", tmp_path / "a.json"
    s_path.write_text(json.dumps(jsonio.matrix_to_json(S)))
    a_path.write_text(json.dumps([float(x) for x in a]))
    return ["fod-optimize", "--S", str(s_path), "--a", str(a_path), "--norm", norm]


def test_fod_optimize_reports_the_closed_form_at_large_scale(tmp_path, capsys):
    """Criterion 09's configuration 0 scaled by 1e6.  The gradient's
    rounding at the closed form (3.4e-6) is above the absolute grad_tol, and
    a descent from it once ran all 20000 iterations to end at 1.1e-3.  The
    report is the closed form; ``converged`` stays false while grad_tol is
    absolute."""
    S, a, _seeds = criterion_09_instances(1)[0]
    S, a = 1e6 * S, 1e6 * a
    assert main(_fod_optimize_argv(tmp_path, S, a, "frobenius")) == 0
    report = json.loads(capsys.readouterr().out)
    G = frames.relaxation_minimizer(S, a)
    assert report["iterations"] == 0 and not report["converged"]
    assert report["theta"] == frames.frame_operator_distance(frobenius(), S, G)
    assert report["grad_norm"] == frames.gradient_norm(frobenius(), S, G)


def test_fod_optimize_reports_the_closed_form_on_an_attainable_target(tmp_path, capsys):
    """S is a frame operator with squared norms a, so the optimum is 0.
    Schatten 3 is not differentiable there: a descent from the closed form
    (theta 7.0e-16) once stopped without progress at 1.0e-15."""
    rng = np.random.default_rng(2)
    a = rng.uniform(0.5, 1.5, 4)
    S = frames.frame_operator(frames.random_frame(3, a, rng))
    assert main(_fod_optimize_argv(tmp_path, S, a, "schatten:3")) == 0
    report = json.loads(capsys.readouterr().out)
    G = frames.relaxation_minimizer(S, a)
    assert report["iterations"] == 0
    assert report["theta"] == frames.frame_operator_distance(schatten(3), S, G)
    assert report["theta"] <= 1e-15 * np.linalg.norm(S)


@pytest.mark.parametrize("norm", ["spectral", "kyfan:1", "schatten:1"])
def test_fod_optimize_rejects_a_norm_that_is_not_strictly_convex(workdir, capsys, norm):
    argv = ["fod-optimize", "--S", workdir["S"], "--a", "1,1", "--norm", norm]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"lidskii fod-optimize: error: norm {norm} is not strictly convex: the structure "
        "conditions and the first-order check need a strictly convex norm\n"
    )


def test_round_trip_cli_outputs_reparse(workdir, capsys):
    code = main(["min-eig", "--S", workdir["S"], "--mu", "1,0"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    G1 = jsonio.matrix_from_json(report["G"])
    assert np.array_equal(G1, jsonio.matrix_from_json(json.loads(json.dumps(report["G"]))))


def test_property_suite_cli_deterministic(capsys):
    code = main(["property-suite", "--seed", "1", "--scale", "small"])
    assert code == 0
    # keep this quick: just validate the schema of the emitted summary
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "lidskii.property-suite/1"
    assert report["seed"] == 1
    assert isinstance(report["properties"], list)


def test_certify_sv_exit_zero_on_global(workdir, capsys):
    code = main(["certify-sv", "--A", workdir["A"], "--B", workdir["A"]])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "certified_global"


def test_inconclusive_exit_three(workdir, capsys):
    """A band pair: the minimizer diag(1.5, 0.5) moved by two-sided rotations
    of size 1e-6, so the products fail the commuting test but neither flow
    verifies a drop."""
    K1 = np.array([[0, 1], [-1, 0]], dtype=complex) / np.sqrt(2)
    K2 = np.array([[1j, 1], [-1, 0]], dtype=complex) / np.sqrt(3)
    B = skew_exp(K1, 1e-6) @ np.diag([1.5, 0.5]) @ skew_exp(K2, 1e-6)
    path = workdir["dir"] / "b_band.json"
    path.write_text(json.dumps(jsonio.matrix_to_json(B)))
    code = main(["certify-sv", "--A", workdir["A"], "--B", str(path)])
    assert code == 3
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "inconclusive"
    assert report["descent_witness"] is None


def test_invalid_tol_and_restarts_exit_one(workdir):
    assert main(["certify-eig", "--S", workdir["S"], "--G0", workdir["G_good"], "--tol", "-1"]) == 1
    assert main(["fod-optimize", "--S", workdir["S2"], "--a", "1,1", "--restarts", "0"]) == 1


def test_cached_parser_leaks_nothing_between_calls(workdir, capsys):
    """Consecutive calls through the one parser match calls on a fresh one,
    also when a later call omits flags an earlier one set."""
    w = workdir
    calls = [
        ["certify-eig", "--S", w["S"], "--G0", w["G_bad"], "--mu", w["mu"],
         "--norm", "schatten:3", "--tol", "1e-6", "--seed", "5"],
        ["certify-eig", "--S", w["S"], "--G0", w["G_bad"]],
        ["certify-sv", "--A", w["A"], "--B", w["B_neg"], "--seed", "3"],
        ["certify-sv", "--A", w["A"], "--B", w["B_neg"]],
        ["min-eig", "--S", w["S"], "--mu", "1,0", "--norm", "schatten:3"],
        ["min-eig", "--S", w["S"], "--mu", "1,0"],
        ["water-fill", "--lambda", "3,2,1", "--t", "3"],
        ["fod-check", "--S", w["S2"], "--G", w["frame"], "--norm", "frobenius"],
        ["fod-check", "--S", w["S2"], "--G", w["frame"]],
        ["no-such-command"],
        ["certify-eig", "--S", w["S"], "--G0", w["G_good"]],
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out

    consecutive = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert consecutive == fresh
    assert json.loads(consecutive[1][1])["tol"] == 1e-8
    assert json.loads(consecutive[1][1])["seed"] == 0
    assert json.loads(consecutive[3][1])["seed"] == 0
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "command",
    [
        ["certify-eig", "--S", "S", "--G0", "G_bad"],
        ["certify-sv", "--A", "A", "--B", "B_neg"],
        ["joint-svd", "--A", "A", "--B", "B_neg"],
        ["fod-check", "--S", "S2", "--G", "frame"],
        ["fod-optimize", "--S", "S2", "--a", "1,1", "--restarts", "1"],
    ],
    ids=lambda c: c[0],
)
def test_non_finite_tol_exits_one(workdir, command, value, capsys):
    argv = [workdir.get(arg, arg) for arg in command]
    assert main(argv + ["--tol", value]) == 1
    assert "--tol must be positive and finite" in capsys.readouterr().err


def test_non_finite_mass_exits_one(workdir, capsys):
    nan_frame = workdir["dir"] / "frame_nan.json"
    payload = jsonio.frame_to_json(FrameSequence(np.eye(2, dtype=complex), [1.0, 1.0]))
    payload["a"] = [1.0, float("nan")]
    nan_frame.write_text(json.dumps(payload))
    assert main(["fod-check", "--S", workdir["S2"], "--G", str(nan_frame)]) == 1
    assert main(["fod-optimize", "--S", workdir["S2"], "--a", "1,nan", "--restarts", "1"]) == 1
    assert main(["water-fill", "--lambda", "3,2,1", "--t", "inf"]) == 1
    assert main(["water-fill", "--lambda", "3,2,1", "--t", "nan"]) == 1
    err = capsys.readouterr().err
    assert "positive and finite" in err and "Traceback" not in err


@pytest.mark.parametrize("p", ["nan", "-inf", "0.5"])
def test_schatten_p_below_one_exits_one(workdir, p, capsys):
    """A p that is not >= 1 is a usage error; nan once reached the report as
    the invalid JSON token NaN and -inf was taken for the spectral norm."""
    argv = ["min-eig", "--S", workdir["S"], "--mu", "1,0", "--norm"]
    assert main(argv + [f"schatten:{p}"]) == 1
    assert "schatten norms require p >= 1" in capsys.readouterr().err
    assert main(argv + ["schatten:inf"]) == 0
    assert json.loads(capsys.readouterr().out)["norm"] == {"kind": "schatten", "p": math.inf}
