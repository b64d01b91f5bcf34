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
from .couplings import Covariates
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
from .solver import BarycenterResult, SolverConfig, solve

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
    "cart2sph",
    "gen_ellipses",
    "gen_hidden_signal",
    "gen_sphere_patches",
    "lagged_dataset",
    "parse_cost_spec",
    "solve",
    "sph2cart",
]
