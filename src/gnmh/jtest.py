"""Randomized check that a model's Jacobian matches symmetric differences.

Points are drawn uniformly in a user-supplied box. At each point the
numerical Jacobian is formed column by column from symmetric difference
quotients and compared to the analytic one under an entrywise p-norm. A
point that fails has its perturbations shrunk geometrically and is retried;
a point that never converges ends the test with its final error norm. A NaN
or inf in the Jacobian, or in the residuals around a test point, raises
``UserFunctionFailure`` naming that point; the entries are scanned only
once the error norm is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    PointOutsideDomain,
    UserFunctionFailure,
    check_range,
    is_count,
    is_real,
)
from .model import ModelEval, ModelHandle


@dataclass(frozen=True)
class JtestOptions:
    """Tuning knobs; the defaults are the standard configuration.

    dx: initial perturbation as a fraction of the box width per coordinate,
        in (0, 1], so that no perturbation reaches beyond one box width.
    N: number of random test points, an integer (numpy's too, not a bool), >= 1.
    eps_max: pass threshold on the error norm, > 0.
    p: order of the entrywise norm (2 gives the Frobenius norm), >= 1; inf
        is the max norm.
    l_max: number of shrink stages allowed per point, an integer like N, >= 0.
    r: shrink ratio applied to the perturbation at each stage, in (0, 1).

    dx, eps_max, p and r are real numbers (numpy's too, not a bool or NaN).
    A field that breaks its rule raises ``ValueError`` naming the rule.
    """

    dx: float = 2e-4
    N: int = 1000
    eps_max: float = 1e-4
    p: float = 2.0
    l_max: int = 50
    r: float = 0.5

    def __post_init__(self):
        rules = {"dx > 0": is_real(self.dx) and self.dx > 0.0,
                 "dx < inf": is_real(self.dx) and self.dx < math.inf,
                 # a dx that is not a finite real breaks one of the two rules above
                 "dx <= 1": not (is_real(self.dx) and 1.0 < self.dx < math.inf),
                 "N >= 1": is_count(self.N, 1),
                 "eps_max > 0": is_real(self.eps_max) and self.eps_max > 0.0,
                 "p >= 1": is_real(self.p) and self.p >= 1.0,
                 "l_max >= 0": is_count(self.l_max, 0),
                 "0 < r < 1": is_real(self.r) and 0.0 < self.r < 1.0}
        broken = [rule for rule, holds in rules.items() if not holds]
        if broken:
            raise ValueError(f"jtest options need {', '.join(broken)}; got {self}; N and "
                             f"l_max are integers, dx, eps_max, p and r real numbers")


@dataclass(frozen=True, eq=False)
class JtestDomain:
    """Open box {x : x_min < x < x_max} the test points are drawn from.

    The constructor stores the corners as 1-D float arrays. It refuses
    corners of unequal lengths (``DimensionMismatch``), and, in any
    coordinate, a width x_max - x_min that is not finite and positive, which
    a non-finite corner or x_min >= x_max gives (``ValueError``)."""

    x_min: np.ndarray
    x_max: np.ndarray

    def __post_init__(self):
        x_min, x_max = check_range("box", self.x_min, self.x_max)
        object.__setattr__(self, "x_min", x_min)
        object.__setattr__(self, "x_max", x_max)

    @classmethod
    def create(cls, x_min, x_max) -> "JtestDomain":
        """``cls(x_min, x_max)``, the constructor, which checks."""
        return cls(x_min, x_max)


class _OutsideDomain(Exception):
    """Internal: a test or perturbed point hit indicator 0."""


def _evaluate_inside(model: ModelHandle, x: np.ndarray) -> ModelEval:
    """The model's evaluation at ``x``; raises ``_OutsideDomain`` when x is outside."""
    ev = model.evaluate(x)
    if not ev.inside:
        raise _OutsideDomain
    return ev


def jtest(model: ModelHandle, domain: JtestDomain,
          options: JtestOptions = JtestOptions(),
          rng: Union[np.random.Generator, int, None] = None) -> float:
    """Run the randomized Jacobian check.

    Returns 0.0 when every test point's numerical Jacobian converged to the
    analytic one within ``options.eps_max``; otherwise returns the error
    norm at the final shrink stage of the first failing point (a value
    strictly above the threshold). Deterministic given ``rng``.

    Raises
    ------
    PointOutsideDomain
        If 100 consecutive redraws of a test point kept landing on
        indicator-0 points (the box should sit inside the model's domain).
    DimensionMismatch
        If the box does not match the model's input dimension.
    UserFunctionFailure
        If the analytic Jacobian at a test point, or the residual around it,
        is not finite (NaN or inf); the message names the point.
    """
    rng = np.random.default_rng(rng)
    n = model.dim_in
    if domain.x_min.shape[0] != n:
        raise DimensionMismatch(
            f"box has dimension {domain.x_min.shape[0]}, model expects {n}"
        )
    width = domain.x_max - domain.x_min
    delta0 = width * options.dx

    for _ in range(options.N):
        for attempt in range(100):
            x_k = domain.x_min + width * rng.random(n)
            try:
                eps = _check_point(model, x_k, delta0, options)
            except _OutsideDomain:
                continue
            break
        else:
            raise PointOutsideDomain(
                "could not find an in-domain test point after 100 redraws"
            )
        if eps is not None:
            return eps
    return 0.0


def _check_point(model: ModelHandle, x_k: np.ndarray, delta0: np.ndarray,
                 options: JtestOptions) -> Optional[float]:
    """Test one point. None means it passed; a float is its final error."""
    analytic = _evaluate_inside(model, x_k).jacobian
    m, n = analytic.shape
    f_plus, f_minus = np.empty((n, m)), np.empty((n, m))

    eps = np.inf
    for l in range(options.l_max + 1):
        delta = delta0 * options.r ** l
        for j in range(n):
            shift = np.zeros(n)
            shift[j] = delta[j]
            f_plus[j] = _evaluate_inside(model, x_k + shift).residual
            f_minus[j] = _evaluate_inside(model, x_k - shift).residual
        # a NaN or inf this makes is judged below, whatever the warning filter
        with np.errstate(over="ignore", invalid="ignore"):
            numeric = (f_plus - f_minus).T / (2.0 * delta)
            eps = float(np.linalg.norm((numeric - analytic).ravel(), ord=options.p))
        if eps <= options.eps_max:
            return None
        if not math.isfinite(eps):
            _raise_non_finite(x_k, analytic, numeric)
    return eps


def _raise_non_finite(x_k: np.ndarray, analytic: np.ndarray, numeric: np.ndarray) -> None:
    """Name the non-finite model output behind a non-finite error norm.

    Returns only when every entry is finite, i.e. the norm itself overflowed.
    """
    if not np.all(np.isfinite(analytic)):
        raise UserFunctionFailure(
            f"non-finite model output at jtest point x = {x_k.tolist()}: "
            "NaN or inf in the Jacobian"
        )
    if not np.all(np.isfinite(numeric)):
        raise UserFunctionFailure(
            f"non-finite model output at jtest point x = {x_k.tolist()}: "
            "the residual differences around it are NaN or inf"
        )
