"""Least-squares fitting under a nonnegative L1 budget.

The coefficient vector is constrained to the scaled probability simplex;
the posterior over it is approximated by a moment-matched Dirichlet whose
sparse mode gives the fit. Includes baseline solvers and a benchmark
harness for head-to-head comparisons.
"""

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
    log_density,
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
    UnboundedDensityError,
)
from .metrics import mse, paired_t_test, sparsity
from .model import (
    Dataset,
    ModelSpec,
    ParameterVector,
    design_matrix,
    log_likelihood,
    log_posterior_unnorm,
    merge_signed,
    predict,
    rescale,
    split_signed,
)
from .samplers import (
    SamplerConfig,
    WeightedSampleSet,
    importance_sample,
    normalize_log_weights,
    rejection_sample,
    weighted_moments,
)
from .solver import BalsonConfig, FitReport, SolveDiagnostics, solve, solve_signed, uniform_prior

__version__ = "0.1.0"

__all__ = [
    "ALL_METHODS",
    "PAPER_THETA",
    "BalsonConfig",
    "BalsonError",
    "BaselineConfig",
    "Dataset",
    "DegenerateStatisticError",
    "DegenerateWeightsError",
    "DirichletParams",
    "ExperimentConfig",
    "FitReport",
    "GibbsParams",
    "IpParams",
    "LassoParams",
    "ModeUndefinedError",
    "ModelSpec",
    "MomentMatchingError",
    "ParameterVector",
    "RejectionBudgetError",
    "ResultTable",
    "RunRecord",
    "SamplerConfig",
    "SimplexVector",
    "SolveDiagnostics",
    "Summary",
    "UnboundedDensityError",
    "WeightedSampleSet",
    "bayesian_lasso_fit",
    "design_matrix",
    "emit_outputs",
    "generate_dataset",
    "importance_sample",
    "ip_fit",
    "ip_solve",
    "lasso_coordinate_descent",
    "lasso_fit",
    "log_density",
    "log_likelihood",
    "log_posterior_unnorm",
    "match_moments_per_dim",
    "merge_signed",
    "mode",
    "moments",
    "mse",
    "normalize_log_weights",
    "paired_t_test",
    "predict",
    "rejection_sample",
    "rescale",
    "run_experiment",
    "sample_batch",
    "solve",
    "solve_signed",
    "sparsity",
    "split_signed",
    "summarize",
    "uniform_prior",
    "weighted_moments",
]
