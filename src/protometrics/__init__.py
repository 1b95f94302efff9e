"""Generalized-distance classification and transformation toolkit.

Core objects: LabeledMatrix wraps a finite square real matrix with point
labels; classify() reports which distance classes it belongs to; the
transforms module moves matrices between those classes and checks the
preconditions each move needs.
"""

from .errors import (
    InputError,
    InvalidMatrixError,
    ParseError,
    PreconditionError,
    ProtometricsError,
    TransitivityError,
)
from .matrix import (
    DEFAULT_TOLERANCE,
    InequalityType,
    Interval,
    LabeledMatrix,
    ToleranceConfig,
    auto_labels,
)
from .checks import (
    DEFAULT_WITNESS_CAP,
    PropertyVerdict,
    Status,
    ViolationWitness,
    check_prequadrangle,
    check_strict,
    check_transition,
    check_triangle,
    diagonal_bounds,
)
from .classify import REPORT_FLAGS, ClassificationReport, classify
from .transforms import (
    Decomposition,
    PreorderResult,
    ZeroCoordinates,
    add,
    affine_gauge,
    compose,
    decompose,
    farris_transform,
    gromov_product,
    log_transform,
    metrize,
    min_farris_constant,
    potential_of,
    specialization_preorder,
    transpose,
    zero_coordinates,
)
from .generators import (
    GenSpec,
    SplitMix64,
    gen_metric,
    gen_protometric,
    gen_quasi_semi_metric,
    gen_zero_protometric,
    perturb_violation,
    shortest_path_closure,
)
from .io import (
    MatrixFormat,
    detect_format,
    parse_gauge_csv,
    parse_matrix,
    serialize_matrix,
    serialize_report,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOLERANCE",
    "DEFAULT_WITNESS_CAP",
    "ClassificationReport",
    "Decomposition",
    "GenSpec",
    "InequalityType",
    "InputError",
    "Interval",
    "InvalidMatrixError",
    "LabeledMatrix",
    "MatrixFormat",
    "ParseError",
    "PreconditionError",
    "PreorderResult",
    "PropertyVerdict",
    "ProtometricsError",
    "REPORT_FLAGS",
    "SplitMix64",
    "Status",
    "ToleranceConfig",
    "TransitivityError",
    "ViolationWitness",
    "ZeroCoordinates",
    "add",
    "affine_gauge",
    "auto_labels",
    "check_prequadrangle",
    "check_strict",
    "check_transition",
    "check_triangle",
    "classify",
    "compose",
    "decompose",
    "detect_format",
    "diagonal_bounds",
    "farris_transform",
    "gen_metric",
    "gen_protometric",
    "gen_quasi_semi_metric",
    "gen_zero_protometric",
    "gromov_product",
    "log_transform",
    "metrize",
    "min_farris_constant",
    "parse_gauge_csv",
    "parse_matrix",
    "perturb_violation",
    "potential_of",
    "serialize_matrix",
    "serialize_report",
    "shortest_path_closure",
    "specialization_preorder",
    "transpose",
    "zero_coordinates",
    "__version__",
]
