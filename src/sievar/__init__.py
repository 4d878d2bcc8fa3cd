"""Semiparametric sieve estimation of structural nonlinear autoregressions
with relaxed-shock impulse responses, a Monte Carlo study harness, and
dependence diagnostics.

Importing sievar before numpy pins numpy's BLAS to one thread: each of the
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS``
variables that is unset becomes ``"1"``. sievar's small least-squares
problems gain nothing from BLAS threads, and ``run_study``'s worker
processes would oversubscribe the cores with them. A value the caller set
is kept; then, or when numpy was imported first and the variables do not
all read ``"1"``, ``run_study`` runs its replications in one process.
"""

import os
import sys

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules:
    for _var in _BLAS_THREAD_VARS:
        os.environ.setdefault(_var, "1")
# numpy's BLAS reads the variables once, when numpy is first imported
_BLAS_PINNED = all(os.environ.get(_var) == "1" for _var in _BLAS_THREAD_VARS)

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
