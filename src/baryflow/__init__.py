"""Distributional barycenters of conditional samples via penalized gradient flows.

Given sample points x_i with covariates z_i, the solver moves mapped copies
y_i so that the conditional distributions of y given z collapse onto a
single barycenter distribution while a configurable transport cost from x to
y stays minimal.  The matching constraint is scored either by conditional
kernel density estimates or by polynomial feature averages, contracted
against a precomputed bi-stochastic covariate coupling; a penalty schedule
drives the constraint multiplier.
"""

__version__ = "0.1.0"

from .costs import CostModel, parse_cost_spec
from .couplings import (
    Covariates,
    build_couplings,
    categorical_coupling,
    centering_matrix,
    median_heuristic_bandwidth,
    sinkhorn_bistochastic,
)
from .datagen import (
    Dataset,
    TimeSeriesSample,
    cart2sph,
    gen_ellipses,
    gen_hidden_signal,
    gen_sphere_patches,
    lagged_dataset,
    sph2cart,
)
from .errors import BaryflowError, ConvergenceError, InvalidInputError, NumericError
from .objective import monomial_features
from .solver import (
    BarycenterResult,
    SolverConfig,
    lambda_update,
    precondition_mean_shift,
    solve,
    step_implicit,
)

__all__ = [
    "BarycenterResult",
    "BaryflowError",
    "ConvergenceError",
    "CostModel",
    "Covariates",
    "Dataset",
    "InvalidInputError",
    "NumericError",
    "SolverConfig",
    "TimeSeriesSample",
    "__version__",
    "build_couplings",
    "cart2sph",
    "categorical_coupling",
    "centering_matrix",
    "gen_ellipses",
    "gen_hidden_signal",
    "gen_sphere_patches",
    "lagged_dataset",
    "lambda_update",
    "median_heuristic_bandwidth",
    "monomial_features",
    "parse_cost_spec",
    "precondition_mean_shift",
    "sinkhorn_bistochastic",
    "solve",
    "sph2cart",
    "step_implicit",
]
