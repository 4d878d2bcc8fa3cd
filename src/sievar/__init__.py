"""Semiparametric sieve estimation of structural nonlinear autoregressions
with relaxed-shock impulse responses, a Monte Carlo study harness, and
dependence diagnostics."""

from .basis import (
    DesignMatrix,
    GramDiagnostics,
    KnotVector,
    SievePlan,
    bspline_matrix,
    build_design,
    gram_diagnostics,
    knots_from_quantiles,
)
from .diagnostics import (
    DependenceProfile,
    StabilityReport,
    check_contractivity,
    estimate_delta_r,
    find_h_star,
)
from .estimator import (
    FirstStageFit,
    FittedModel,
    ParametricForm,
    benchmark_true_form,
    fit_infeasible,
    fit_parametric,
    fit_two_step,
    max0_prior_form,
    ols,
    select_K,
    sieve_dimension_target,
)
from .irf import (
    Compatibility,
    IncompatibleShockError,
    IrfResult,
    RelaxationFn,
    ShockSpec,
    SupportWarning,
    check_compatibility,
    estimated_irf,
    linear_irf,
    linearized_reduction,
    population_irf,
    relax_eval,
)
from .model import (
    InnovationLaw,
    LagPolynomial,
    ModelSpec,
    NonlinFn,
    PathDivergedError,
    SimPath,
    StabilityWarning,
    builtin_dgp,
    derive_seed,
    draw_innovations,
    linearized,
    simulate,
)
from .study import (
    StudyConfig,
    StudyResult,
    default_study_config,
    run_study,
    run_study_variant_phi_shift,
    target_mode,
)

__version__ = "0.1.0"
