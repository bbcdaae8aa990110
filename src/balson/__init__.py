"""Least-squares fitting under a nonnegative L1 budget.

The coefficient vector is constrained to the scaled probability simplex;
the posterior over it is approximated by a moment-matched Dirichlet whose
sparse mode gives the fit. Includes baseline solvers and a benchmark
harness for head-to-head comparisons.
"""

from types import ModuleType as _ModuleType

from .baselines import (
    BaselineConfig,
    GibbsParams,
    IpParams,
    LassoParams,
    bayesian_lasso_fit,
    ip_fit,
    ip_solve,
    lasso_coordinate_descent,
    lasso_fit,
)
from .bench import (
    ALL_METHODS,
    PAPER_THETA,
    ExperimentConfig,
    ResultTable,
    RunRecord,
    Summary,
    emit_outputs,
    generate_dataset,
    run_experiment,
    summarize,
)
from .dirichlet import (
    DirichletParams,
    SimplexVector,
    match_moments_per_dim,
    mode,
    moments,
    sample_batch,
)
from .exceptions import (
    BalsonError,
    DegenerateStatisticError,
    DegenerateWeightsError,
    ModeUndefinedError,
    MomentMatchingError,
    RejectionBudgetError,
)
from .metrics import mse, paired_t_test, sparsity
from .model import (
    Dataset,
    ModelSpec,
    ParameterVector,
    design_matrix,
    merge_signed,
    predict,
)
from .samplers import (
    SamplerConfig,
    WeightedSampleSet,
    normalize_log_weights,
    weighted_moments,
)
from .solver import BalsonConfig, FitReport, SolveDiagnostics, solve, solve_signed, uniform_prior

# Every public name the imports above bind, and no submodule.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
__version__ = "0.1.0"
