"""isolab: a numerical laboratory for seminorm metrics and linear isometries.

The package has five working parts:

- gauges: bounded compressing gauges, admissibility checks, dilation
  integrals, and the shift kernel with its Fourier transform;
- metric: weighted seminorm metrics, moment curves, separation searches,
  and support-start counting for truncated weight representations;
- recovery: reconstruction of an atomic measure from its kernel-smoothed
  observation via Fourier division, pencil initialization, and refinement;
- holodisc: truncated Taylor models on the unit disc, circle seminorms,
  isometry testing and characterization, and the three-circle inequality;
- contspace: grid models of continuous functions on an interval or disc,
  weighted composition operators, recovery of their parts, and the
  pointwise decomposition bound for nonsurjective isometries.

A CLI (`isolab`, or `python -m isolab`) exposes every capability with
deterministic flat-text reports.
"""

from .quadrature import QuadratureSpec, QuadratureError, StripViolationError
from .gauges import (
    Gauge,
    make_builtin_gauge,
    clipped_square_gauge,
    BUILTIN_GAUGE_NAMES,
    AdmissibilityReport,
    check_admissibility,
    frullani_integral,
    log_gauge,
    shift_kernel,
    shift_kernel_fourier_grid,
)
from .metric import (
    WeightSequence,
    SeminormVector,
    AtomicMeasure,
    MetricInterval,
    SeparationResult,
    AmbiguousSupport,
    metric_value,
    moment_curve,
    default_t_grid,
    separate,
    count_support_start,
    measures_from_vectors,
)
from .recovery import (
    LogMeasure,
    RecoverySpec,
    RecoveryFailed,
    RoundtripReport,
    smoothed_curve,
    smoothed_curve_samples,
    fourier_from_samples,
    measure_transform,
    recover_measure,
    roundtrip_check,
)
from .holodisc import (
    TaylorFunction,
    DiscExhaustion,
    RotationOperator,
    WeightedCompositionOperator,
    MatrixOperator,
    SupFamily,
    HpFamily,
    NotCharacterizable,
    sup_seminorm,
    hp_seminorm,
    strict_monotonicity_check,
    operator_matrix,
    isometry_test,
    characterize_isometry,
    three_circle_check,
    random_taylor,
    standard_probes,
)
from .contspace import (
    Exhaustion1D,
    ExhaustionDisc,
    IntervalGrid,
    DiscGrid,
    GridFunction,
    PiecewiseLinearMap,
    PiecewiseLinearHomeo,
    AnnulusHomeo,
    NotWeightedComposition,
    sup_seminorm_grid,
    weighted_composition_grid,
    make_composition_operator,
    isometry_test_grid,
    recover_weight_and_map,
    build_interval_homeo,
    random_interval_homeo,
    build_zigzag_fold,
    random_annulus_homeo,
    decomposition_bound_check,
    interpolation_budget,
    random_probe,
    unimodular_field,
)

__version__ = "0.1.0"
