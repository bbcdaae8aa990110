"""The package's public names: ``__all__`` and what ``from balson import *`` binds."""

import types

import balson

PUBLIC = [
    "ALL_METHODS",
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
    "PAPER_THETA",
    "ParameterVector",
    "RejectionBudgetError",
    "ResultTable",
    "RunRecord",
    "SamplerConfig",
    "SimplexVector",
    "SolveDiagnostics",
    "Summary",
    "WeightedSampleSet",
    "bayesian_lasso_fit",
    "design_matrix",
    "emit_outputs",
    "generate_dataset",
    "ip_fit",
    "ip_solve",
    "lasso_coordinate_descent",
    "lasso_fit",
    "match_moments_per_dim",
    "merge_signed",
    "mode",
    "moments",
    "mse",
    "normalize_log_weights",
    "paired_t_test",
    "predict",
    "run_experiment",
    "sample_batch",
    "solve",
    "solve_signed",
    "sparsity",
    "summarize",
    "uniform_prior",
    "weighted_moments",
]


def test_all_lists_the_public_names():
    assert balson.__all__ == PUBLIC


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from balson import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())
