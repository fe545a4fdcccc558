"""Log-posterior evaluation and the Gauss-Newton proposal distribution.

The target density is indicator(x) * prior(x) * exp(-||f(x)||^2 / 2) up to a
global constant. Linearizing f about the current point turns the target into
a Gaussian whose precision is H + J'J; completing the square gives its mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    NotPSD,
    SingularProposal,
    UserFunctionFailure,
)
from .gaussian import PrecisionGaussian, _factor, _solve_lower
from .model import ModelEval, ModelHandle


@dataclass(frozen=True)
class GaussianPrior:
    """Gaussian prior with mean ``mean`` and precision matrix ``precision``.

    A zero precision matrix is the flat (improper) prior. ``mean`` and
    ``precision`` are 1-D and 2-D float arrays and are never modified.
    ``precision`` is exactly symmetric however the prior is built: the
    constructor stores (P + P^T)/2 of the matrix it is given, so H + J'J
    in :func:`gn_proposal` is exactly symmetric too. Only :meth:`create`
    checks that the given matrix was symmetric to within 1e-10.
    """

    mean: np.ndarray
    precision: np.ndarray

    def __post_init__(self):
        precision = self.precision
        object.__setattr__(self, "precision", 0.5 * (precision + precision.T))

    @classmethod
    def create(cls, mean, precision) -> "GaussianPrior":
        """Validate symmetry and positive semidefiniteness, then build."""
        mean = np.asarray(mean, dtype=float).reshape(-1)
        precision = np.asarray(precision, dtype=float)
        n = mean.shape[0]
        if precision.shape != (n, n):
            raise DimensionMismatch(
                f"prior precision shape {precision.shape}, expected ({n}, {n})"
            )
        if not np.allclose(precision, precision.T, rtol=1e-10, atol=1e-10):
            raise NotPSD("prior precision is not symmetric")
        prior = cls(mean=mean, precision=precision)
        if n > 0 and float(np.linalg.eigvalsh(prior.precision).min()) < -1e-10:
            raise NotPSD("prior precision has a negative eigenvalue")
        return prior

    @classmethod
    def flat(cls, n_or_mean) -> "GaussianPrior":
        """Flat prior: zero precision about an arbitrary mean."""
        if np.ndim(n_or_mean) == 0:
            mean = np.zeros(int(n_or_mean))
        else:
            mean = np.asarray(n_or_mean, dtype=float).reshape(-1)
        return cls(mean=mean, precision=np.zeros((mean.shape[0], mean.shape[0])))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def precision_mean(self) -> np.ndarray:
        """H m, the prior's term of every Gauss-Newton right-hand side,
        computed on first use."""
        return self.precision @ self.mean


def _log_target(prior: GaussianPrior, x: np.ndarray, residual_sq: float) -> float:
    """-(x-m)'H(x-m)/2 - ||f(x)||^2/2 from ``residual_sq`` = ||f(x)||^2.
    A NaN value, that is a NaN residual, raises ``UserFunctionFailure``."""
    d = x - prior.mean
    lp = -0.5 * float(d.dot(prior.precision).dot(d)) - 0.5 * residual_sq
    if math.isnan(lp):
        raise UserFunctionFailure(f"non-finite model output at x = "
                                  f"{np.asarray(x).tolist()}: a NaN residual")
    return lp


def log_posterior(prior: GaussianPrior, ev: ModelEval, x) -> float:
    """Unnormalized log target at ``x`` given its model evaluation.

    Returns -inf outside the domain; otherwise
    -(x-m)'H(x-m)/2 - ||f(x)||^2/2. The normalization constant is omitted
    (it cancels in every ratio the sampler forms). ``x`` is not coerced:
    pass a 1-D float array of the prior's dimension. A NaN residual raises
    ``UserFunctionFailure``; a residual of +-inf is zero density.
    """
    if not ev.inside:
        return -np.inf
    return _log_target(prior, x, float(ev.residual.dot(ev.residual)))


def gn_proposal(prior: GaussianPrior, ev: ModelEval, x) -> PrecisionGaussian:
    """Gauss-Newton proposal distribution anchored at ``x``.

    Precision P = H + J'J and mean mu = P^-1 (H m - J'f + J'J x), from
    completing the square in the linearized target. Requires an in-domain
    evaluation.

    This is the per-point hot path: one Cholesky factorization (LAPACK
    ``dpotrf``) and two triangular solves, with no validation or coercion.
    Internal callers pass ``x`` as a 1-D float array; the prior was
    validated by ``GaussianPrior.create``, whose H m is computed once, and
    the shapes of J and f by ``ModelHandle.evaluate``. The factorization
    is the only check: a NaN or infinite entry in H + J'J is refused as
    singular before the right-hand side is formed, so a returned proposal
    has a finite ``log_norm``.

    P is exactly symmetric without a symmetrizing step: H is exactly
    symmetric (a ``GaussianPrior`` invariant), and ``J.T @ J`` is too, for
    C-ordered, F-ordered and strided J alike, so their sum is. J'J stays
    on ``@``: ``J.T.dot(J)`` of a strided J can differ between its two
    triangles in the low bits. The vector products use ``ndarray.dot``,
    which on these small operands costs about half of ``@``; for a
    contiguous J it gives the same bits.

    Raises
    ------
    SingularProposal
        If H + J'J is not positive definite or not finite.
    """
    J = ev.jacobian
    f = ev.residual
    JtJ = J.T @ J
    P = prior.precision + JtJ
    try:
        chol, log_norm = _factor(P)
    except NotPositiveDefinite as exc:
        raise SingularProposal(
            "Gauss-Newton precision H + J'J is not positive definite"
        ) from exc
    rhs = prior.precision_mean - J.T.dot(f) + JtJ.dot(x)
    mu = _solve_lower(chol, _solve_lower(chol, rhs), trans=1)
    return PrecisionGaussian(mean=mu, precision=P, chol=chol, log_norm=log_norm)


@dataclass
class PointState:
    """Everything the sampler needs about one point, from one model call.

    ``proposal`` is the Gauss-Newton proposal anchored here; it is None when
    the point is outside the domain, or when the proposal precision was
    singular (``proposal_failed``). ``residual_sq`` is ||f(x)||^2, computed
    once for the log-posterior and the dynamic dilation factor; it is inf
    outside the domain.
    """

    x: np.ndarray
    eval: ModelEval
    log_post: float
    residual_sq: float
    proposal: Optional[PrecisionGaussian]

    @property
    def inside(self) -> bool:
        return self.eval.inside

    @property
    def proposal_failed(self) -> bool:
        """In the domain, but with a singular proposal precision."""
        return self.eval.inside and self.proposal is None


def point_state_from_eval(prior: GaussianPrior, x: np.ndarray,
                          ev: ModelEval) -> PointState:
    """Assemble a PointState from a cached evaluation (no model call).

    ``x`` is not coerced: callers pass the 1-D float array that ``ev`` was
    evaluated at. The proposal is factored with LAPACK ``dpotrf``.

    Raises
    ------
    UserFunctionFailure
        If the residual at ``x`` holds a NaN (refused by the log-target), or
        J'J is not finite there (refused as singular by the factorization).
        An infinite residual is not an error: it is zero density.
    """
    if not ev.inside:
        return PointState(x=x, eval=ev, log_post=-np.inf, residual_sq=np.inf,
                          proposal=None)
    residual_sq = float(ev.residual.dot(ev.residual))
    lp = _log_target(prior, x, residual_sq)
    try:
        proposal = gn_proposal(prior, ev, x)
    except SingularProposal:
        J = ev.jacobian
        if not np.isfinite(J.T @ J).all():
            raise UserFunctionFailure(
                f"non-finite model output at x = {x.tolist()}: J'J is not finite"
            ) from None
        proposal = None
    return PointState(x=x, eval=ev, log_post=lp, residual_sq=residual_sq,
                      proposal=proposal)


def point_state(prior: GaussianPrior, model: ModelHandle, x) -> PointState:
    """Evaluate the model once at ``x`` and assemble the PointState."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return point_state_from_eval(prior, x, model.evaluate(x))
