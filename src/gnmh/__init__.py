"""Gauss-Newton Metropolis sampling with back-off.

A sampler for densities of the form indicator(x) * prior(x) *
exp(-||f(x)||^2 / 2), where the user supplies f and its Jacobian. Proposals
come from linearizing f at the current point; rejected proposals trigger
back-off, contracting the proposal toward the current point with either a
fixed factor or one chosen by cubic line-search interpolation, under an
acceptance rule that balances whole proposal trajectories.
"""

from .diagnostics import acor, autocovariance, error_bars, error_bars_2d
from .gaussian import PrecisionGaussian
from .jtest import JtestDomain, JtestOptions, jtest
from .kernel import BackoffPolicy
from .model import (
    ExpSeriesArgs,
    ModelHandle,
    exp_series_handle,
    quickstart_handle,
    quickstart_model,
    simple2d_handle,
)
from .posterior import GaussianPrior
from .sampler import Sampler

__version__ = "0.1.0"

__all__ = [
    "BackoffPolicy",
    "ExpSeriesArgs",
    "GaussianPrior",
    "JtestDomain",
    "JtestOptions",
    "ModelHandle",
    "Sampler",
    "acor",
    "autocovariance",
    "error_bars",
    "error_bars_2d",
    "exp_series_handle",
    "jtest",
    "quickstart_handle",
    "quickstart_model",
    "simple2d_handle",
]
