"""JSON interchange for matrices, frames, norms and certification reports.

Complex matrices travel as ``{"rows": r, "cols": c, "re": [...], "im": [...]}``
with row-major parallel real/imaginary arrays; frames as
``{"d": d, "a": [...], "vectors": [column matrices]}``.  Floats round-trip
bitwise through the shortest-repr encoding used by the json module.
"""

import json

import numpy as np

from .frames import FrameSequence
from .norms import NormSpec

SCHEMA_PREFIX = "lidskii"
SCHEMA_VERSION = 1


def matrix_to_json(M) -> dict:
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2:
        raise ValueError("only matrices serialize in the matrix format")
    return {
        "rows": int(M.shape[0]),
        "cols": int(M.shape[1]),
        "re": [float(x) for x in M.real.ravel()],
        "im": [float(x) for x in M.imag.ravel()],
    }


def _shape_field(obj, key) -> int:
    """A shape field: a non-negative JSON integer, never a bool, a float or a
    string."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{key!r} must be a non-negative integer, got {value!r}")
    return value


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object with rows/cols/re/im")
    for key in ("rows", "cols", "re", "im"):
        if key not in obj:
            raise ValueError(f"matrix JSON missing field {key!r}")
    rows, cols = _shape_field(obj, "rows"), _shape_field(obj, "cols")
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.size != rows * cols or im.size != rows * cols:
        raise ValueError(
            f"matrix JSON field length mismatch: expected {rows * cols} entries"
        )
    return (re + 1j * im).reshape(rows, cols)


def vector_from_json(obj) -> np.ndarray:
    v = np.asarray(obj, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("empty vector")
    return v


def frame_to_json(G: FrameSequence) -> dict:
    return {
        "d": int(G.dim),
        "a": [float(x) for x in G.norms],
        "vectors": [matrix_to_json(G.vectors[:, i : i + 1]) for i in range(G.count)],
    }


def frame_from_json(obj) -> FrameSequence:
    if not isinstance(obj, dict):
        raise ValueError("frame JSON must be an object with d/a/vectors")
    for key in ("d", "a", "vectors"):
        if key not in obj:
            raise ValueError(f"frame JSON missing field {key!r}")
    d = _shape_field(obj, "d")
    a = vector_from_json(obj["a"])
    cols = []
    for i, col in enumerate(obj["vectors"]):
        M = matrix_from_json(col)
        if M.shape != (d, 1):
            raise ValueError(f"frame vector {i} has shape {M.shape}, expected ({d}, 1)")
        cols.append(M[:, 0])
    if len(cols) != a.size:
        raise ValueError("frame JSON: vector count does not match a")
    return FrameSequence(np.stack(cols, axis=1), a)


def curve_to_json(curve) -> dict:
    endpoint = curve.point(float(curve.ts[-1]))
    if isinstance(endpoint, FrameSequence):
        end = frame_to_json(endpoint)
    else:
        end = matrix_to_json(endpoint)
    return {
        "kind": curve.kind,
        "param": None if curve.param is None else int(curve.param),
        "ts": [float(t) for t in curve.ts],
        "values": [float(v) for v in curve.values],
        "verified_drop": float(curve.verified_drop),
        "endpoint": end,
    }


def schema(name: str) -> str:
    return f"{SCHEMA_PREFIX}.{name}/{SCHEMA_VERSION}"


def eig_certificate_to_json(cert, norm: NormSpec, tol: float, seed) -> dict:
    return {
        "schema": schema("certify-eig"),
        "verdict": cert.verdict,
        "phi": float(cert.phi),
        "commutator_residual": float(cert.commutator_residual),
        "alignment_ok": bool(cert.alignment_ok),
        "joint_basis": None
        if cert.joint_basis is None
        else matrix_to_json(cert.joint_basis),
        "descent_witness": None
        if cert.descent_witness is None
        else curve_to_json(cert.descent_witness),
        "norm": norm.to_json(),
        "tol": float(tol),
        "seed": int(seed),
    }


def joint_svd_to_json(joint) -> dict:
    return {
        "schema": schema("joint-svd"),
        "U": matrix_to_json(joint.U),
        "V": matrix_to_json(joint.V),
        "alpha": [float(x) for x in joint.alpha],
        "beta": [float(x) for x in joint.beta],
        "residual_a": float(joint.residual_a),
        "residual_b": float(joint.residual_b),
    }


def sv_certificate_to_json(cert, norm: NormSpec, tol: float, seed) -> dict:
    return {
        "schema": schema("certify-sv"),
        "verdict": cert.verdict,
        "psi": float(cert.psi),
        "hermitian_residuals": [float(x) for x in cert.hermitian_residuals],
        "joint": None if cert.joint is None else joint_svd_to_json(cert.joint),
        "descent_witness": None
        if cert.descent_witness is None
        else curve_to_json(cert.descent_witness),
        "norm": norm.to_json(),
        "tol": float(tol),
        "seed": int(seed),
    }


def structure_report_to_json(report) -> dict:
    return {
        "schema": schema("fod-check"),
        "verdict": report.verdict,
        "witness": report.witness,
        "eigvec_residuals": [float(x) for x in report.eigvec_residuals],
        "fitted_values": [float(x) for x in report.fitted_values],
        "commute_residual": float(report.commute_residual),
        "lidskii_aligned": bool(report.lidskii_aligned),
        "clusters": [
            {
                "value": float(c.value),
                "indices": [int(i) for i in c.indices],
                "span_dim": int(c.span_dim),
                "independence_required": bool(c.independence_required),
                "independent": bool(c.independent),
            }
            for c in report.clusters
        ],
    }


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON at line {exc.lineno}: {exc.msg}") from exc


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)
