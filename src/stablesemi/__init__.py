"""Finite-dimensional models of isometric and unitary semigroups, with tools
for quantized/periodic approximation, stability diagnostics, and operator
metrics.
"""

from .hilbert import (
    DenseSequence,
    GridMismatchError,
    HVector,
    SumSpace,
    WeightedGrid,
    pad_to_grid,
)
from .semigroups import (
    ConjugatedGroup,
    DirectSumSemigroup,
    InadmissibleTimeError,
    MultiplicationGroup,
    PeriodicShiftGroup,
    SemigroupModel,
    ShiftSemigroup,
    one_step_matrix,
    shift_grid,
)
from .constructions import (
    InflationResult,
    QuantizationResult,
    WoldResult,
    approximate_isometry_by_aws,
    approximate_isometry_by_periodic,
    cantor_group,
    cantor_transform_abs,
    distinct_frequency_certificate,
    inflate_and_perturb,
    near_identity_aws,
    periodization_error_identity,
    quantize_symbol,
    wold_decompose,
    wold_decompose_matrix,
)
from .diagnostics import (
    ClassifyParams,
    CorrelationTrace,
    StabilityReport,
    cesaro_mean_abs2,
    classify,
    correlation,
)
from .metrics import (
    MetricConfig,
    MetricValue,
    metric_contractive,
    metric_isometric,
    metric_unitary,
)

__version__ = "0.1.0"

__all__ = [
    "ClassifyParams",
    "ConjugatedGroup",
    "CorrelationTrace",
    "DenseSequence",
    "DirectSumSemigroup",
    "GridMismatchError",
    "HVector",
    "InadmissibleTimeError",
    "InflationResult",
    "MetricConfig",
    "MetricValue",
    "MultiplicationGroup",
    "PeriodicShiftGroup",
    "QuantizationResult",
    "SemigroupModel",
    "ShiftSemigroup",
    "StabilityReport",
    "SumSpace",
    "WeightedGrid",
    "WoldResult",
    "approximate_isometry_by_aws",
    "approximate_isometry_by_periodic",
    "cantor_group",
    "cantor_transform_abs",
    "cesaro_mean_abs2",
    "classify",
    "correlation",
    "distinct_frequency_certificate",
    "inflate_and_perturb",
    "metric_contractive",
    "metric_isometric",
    "metric_unitary",
    "near_identity_aws",
    "one_step_matrix",
    "pad_to_grid",
    "periodization_error_identity",
    "quantize_symbol",
    "shift_grid",
    "wold_decompose",
    "wold_decompose_matrix",
]
