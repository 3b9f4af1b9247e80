"""Command line front end.

Every subcommand reads matrix/frame JSON, runs the corresponding library
routine and emits a schema-versioned JSON report to --out or stdout.

Exit codes: 0 for certified_global / consistent_with_local_min / success,
2 for not_local_min / violates_structure, 3 for inconclusive, 1 for usage
or I/O errors.
"""

import argparse
import functools
import sys

import numpy as np

from . import eig_orbit, frames, jsonio, sv_orbit
from .majorization import sort_desc
from .matrices import eigvalsh_desc
from .norms import parse_norm

VERDICT_EXIT = {
    "certified_global": 0,
    "consistent_with_local_min": 0,
    "success": 0,
    "not_local_min": 2,
    "violates_structure": 2,
    "violates": 2,
    "inconclusive": 3,
}


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_vector(arg: str) -> np.ndarray:
    """Vector argument: inline comma-separated values or a JSON file path."""
    text = arg.strip()
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        return jsonio.vector_from_json(jsonio.load_json(text))


def _load_matrix(path: str) -> np.ndarray:
    return jsonio.matrix_from_json(jsonio.load_json(path))


def _emit(report: dict, out_path):
    text = jsonio.dumps(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_certify_eig(args):
    S = _load_matrix(args.S)
    G0 = _load_matrix(args.G0)
    norm = parse_norm(args.norm)
    if args.mu is not None:
        mu = sort_desc(_load_vector(args.mu))
        gap = float(np.max(np.abs(eigvalsh_desc(G0) - mu)))
        if gap > max(args.tol, 1e-8) * float(np.max(np.abs(mu))):
            raise ValueError(
                f"G0 is not on the orbit of mu: spectrum gap {gap:.3e}"
            )
    cert = eig_orbit.certify_local(norm, S, G0, tol=args.tol)
    return jsonio.eig_certificate_to_json(cert, norm, args.tol, args.seed), VERDICT_EXIT[cert.verdict]


def _cmd_certify_sv(args):
    A = _load_matrix(args.A)
    B = _load_matrix(args.B)
    norm = parse_norm(args.norm)
    cert = sv_orbit.certify_local(norm, A, B, tol=args.tol)
    return jsonio.sv_certificate_to_json(cert, norm, args.tol, args.seed), VERDICT_EXIT[cert.verdict]


def _cmd_joint_svd(args):
    A = _load_matrix(args.A)
    B = _load_matrix(args.B)
    joint = sv_orbit.joint_svd(A, B, tol=args.tol)
    return jsonio.joint_svd_to_json(joint), 0


def _cmd_min_eig(args):
    S = _load_matrix(args.S)
    mu = _load_vector(args.mu)
    Gop = eig_orbit.global_minimizer(S, mu)
    norm = parse_norm(args.norm)
    report = {
        "schema": jsonio.schema("min-eig"),
        "G": jsonio.matrix_to_json(Gop),
        "phi": eig_orbit.orbit_distance(norm, S, Gop),
        "difference_spectrum": [float(x) for x in eigvalsh_desc(S - Gop)],
        "norm": norm.to_json(),
    }
    return report, 0


def _cmd_min_sv(args):
    A = _load_matrix(args.A)
    s = _load_vector(args.s)
    Bop = sv_orbit.global_minimizer(A, s)
    norm = parse_norm(args.norm)
    report = {
        "schema": jsonio.schema("min-sv"),
        "B": jsonio.matrix_to_json(Bop),
        "psi": sv_orbit.orbit_distance(norm, A, Bop),
        "difference_singular_values": [
            float(x) for x in np.linalg.svd(A - Bop, compute_uv=False)
        ],
        "norm": norm.to_json(),
    }
    return report, 0


def _cmd_water_fill(args):
    lam = _load_vector(getattr(args, "lambda"))
    c, spectrum = frames.water_fill(lam, args.t)
    report = {
        "schema": jsonio.schema("water-fill"),
        "c": c,
        "spectrum": [float(x) for x in spectrum],
        "t": float(args.t),
        "residual": abs(float(np.sum(spectrum)) - float(args.t)),
    }
    return report, 0


def _cmd_fod_check(args):
    S = _load_matrix(args.S)
    G = jsonio.frame_from_json(jsonio.load_json(args.G))
    norm = parse_norm(args.norm)
    report = frames.structure_check(norm, S, G, tol=args.tol)
    payload = jsonio.structure_report_to_json(report)
    payload["theta"] = frames.frame_operator_distance(norm, S, G)
    return payload, VERDICT_EXIT[report.verdict]


def _cmd_fod_optimize(args):
    S = _load_matrix(args.S)
    a = _load_vector(args.a)
    norm = parse_norm(args.norm)
    if not norm.strictly_convex:
        raise ValueError(
            f"norm {args.norm} is not strictly convex: the structure conditions "
            "and the first-order check need a strictly convex norm"
        )
    best = frames.relaxation_minimizer(S, a)
    grad_norm = frames.gradient_norm(norm, S, best)
    theta = frames.frame_operator_distance(norm, S, best)
    report_struct = frames.structure_check(norm, S, best, tol=max(args.tol, 1e-6))
    bound, _ = frames.psd_lower_bound(norm, S, float(np.sum(a)))
    special = frames.certify_uniform_eigenvalue(norm, S, best, tol=max(args.tol, 1e-6)) \
        if best.count >= best.dim else "not_applicable"
    payload = {
        "schema": jsonio.schema("fod-optimize"),
        "theta": theta,
        "lower_bound": bound,
        "frame": jsonio.frame_to_json(best),
        "structure": jsonio.structure_report_to_json(report_struct),
        "special_case": special,
        "grad_norm": grad_norm,
        "iterations": 0,
        "converged": grad_norm < frames.DescentOptions.grad_tol,
        "restarts": int(args.restarts),
        "best_restart": 0,
        "seed": int(args.seed),
        "norm": norm.to_json(),
    }
    return payload, 0


def _cmd_property_suite(args):
    from . import properties  # only this subcommand needs it

    summary = properties.suite_json(args.seed, args.scale)
    return summary, 0


def build_parser() -> _Parser:
    """The argparse tree; ``main`` builds it once per process."""
    parser = _Parser(prog="lidskii")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, norm_default="frobenius", seed=True, tol=True):
        p.add_argument("--norm", default=norm_default)
        if tol:
            p.add_argument("--tol", type=float, default=1e-8)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)

    p = sub.add_parser("certify-eig", help="certify a Hermitian-orbit candidate")
    p.add_argument("--S", required=True)
    p.add_argument("--G0", required=True)
    p.add_argument("--mu", default=None)
    common(p, norm_default="schatten:2")
    p.set_defaults(func=_cmd_certify_eig)

    p = sub.add_parser("certify-sv", help="certify a singular-value-orbit candidate")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    common(p, norm_default="schatten:2")
    p.set_defaults(func=_cmd_certify_sv)

    p = sub.add_parser("joint-svd", help="joint singular value decomposition")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    common(p, seed=False)
    p.set_defaults(func=_cmd_joint_svd)

    p = sub.add_parser("min-eig", help="global minimizer on a Hermitian orbit")
    p.add_argument("--S", required=True)
    p.add_argument("--mu", required=True)
    common(p, seed=False, tol=False)
    p.set_defaults(func=_cmd_min_eig)

    p = sub.add_parser("min-sv", help="global minimizer on a singular-value orbit")
    p.add_argument("--A", required=True)
    p.add_argument("--s", required=True)
    common(p, seed=False, tol=False)
    p.set_defaults(func=_cmd_min_sv)

    p = sub.add_parser("water-fill", help="water-filling level and spectrum")
    p.add_argument("--lambda", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_water_fill)

    p = sub.add_parser("fod-check", help="structural checks at a frame configuration")
    p.add_argument("--S", required=True)
    p.add_argument("--G", required=True)
    common(p, norm_default="schatten:2", seed=False)
    p.set_defaults(func=_cmd_fod_check)

    p = sub.add_parser(
        "fod-optimize",
        help="frame distance minimizer: the Schur-Horn frame for the optimal spectrum",
    )
    p.add_argument("--S", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--restarts", type=int, default=8)
    common(p)
    p.set_defaults(func=_cmd_fod_optimize)

    p = sub.add_parser("property-suite", help="run the seeded invariant suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", choices=("small", "medium"), default="small")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_property_suite)

    return parser


@functools.cache
def _parser() -> _Parser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not 0 < getattr(args, "tol", 1.0) < np.inf:
        print(f"lidskii {args.command}: error: --tol must be positive and finite", file=sys.stderr)
        return 1
    if getattr(args, "restarts", 1) < 1:
        print(f"lidskii {args.command}: error: --restarts must be >= 1", file=sys.stderr)
        return 1
    try:
        report, code = args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"lidskii {args.command}: error: {exc}", file=sys.stderr)
        return 1
    _emit(report, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
