"""Reciprocal integral relations between phase and log-modulus of cyclic
wave-function amplitudes, with the driven two-level model as test bed."""

from .trigpoly import (
    HelicitySeries,
    RootCheckResult,
    offset_grid,
    polynomial_roots,
    root_check,
)
from .hilbert import (
    ConjugateCoefficients,
    EqualityReport,
    UnwrapResult,
    coefficient_equality_check,
    log_coefficients,
    modulus_from_phase,
    periodic_hilbert,
    phase_from_modulus,
    unwrap,
)
from .model import (
    ModelParams,
    ModelSignals,
    ResidualReport,
    Trajectory,
    berry_phase_predicted,
    derive_params,
    evaluate_model,
    helicity_series,
    integrate_ode,
    near_edge_phase,
    params_from_k,
    phi1_values,
    solution_residual,
)
from .experiments import (
    PRESETS,
    CoefficientCaseReport,
    ReciprocityReport,
    Table,
    emit_outputs,
    measure_berry_phase,
    run_coefficient_case,
    run_reciprocity_case,
)

__version__ = "0.1.0"
