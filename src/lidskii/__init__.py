"""Constructive minimizers and certificates for unitarily invariant norm
distances on unitary orbits, singular-value orbits, and frame configuration
spaces."""

from .backend import backend_name
from .curves import DescentCurve
from .eig_orbit import EigCertificate, certify_local as certify_eig, global_minimizer as min_eig
from .frames import (
    FodStructureReport,
    FrameSequence,
    frame_operator,
    frame_operator_distance,
    gradient_descent,
    psd_lower_bound,
    relaxation_minimizer,
    structure_check,
    water_fill,
)
from .majorization import MajorizationVerdict, majorizes, sort_desc, submajorizes
from .matrices import commutant_is_trivial, dilate, eigh, haar_unitary, pair_submersion_test, svd
from .norms import NormSpec, evaluate, frobenius, is_strictly_convex, kyfan, parse_norm, schatten, spectral
from .sv_orbit import (
    JointSVD,
    SvCertificate,
    certify_local as certify_sv,
    equality_case,
    global_minimizer as min_sv,
    joint_svd,
)

__version__ = "0.1.0"

__all__ = [
    "DescentCurve",
    "EigCertificate",
    "FodStructureReport",
    "FrameSequence",
    "JointSVD",
    "MajorizationVerdict",
    "NormSpec",
    "SvCertificate",
    "backend_name",
    "certify_eig",
    "certify_sv",
    "commutant_is_trivial",
    "dilate",
    "eigh",
    "equality_case",
    "evaluate",
    "frame_operator",
    "frame_operator_distance",
    "frobenius",
    "gradient_descent",
    "haar_unitary",
    "is_strictly_convex",
    "joint_svd",
    "kyfan",
    "majorizes",
    "min_eig",
    "min_sv",
    "pair_submersion_test",
    "parse_norm",
    "psd_lower_bound",
    "relaxation_minimizer",
    "schatten",
    "sort_desc",
    "spectral",
    "structure_check",
    "submajorizes",
    "svd",
    "water_fill",
]
