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

from .errors import DimensionMismatch, NotPSD, UserFunctionFailure, check_finite
from .gaussian import _factor, _solve_lower
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
        """Validate finiteness, symmetry and positive semidefiniteness, then
        build. A non-finite entry of ``mean`` or ``precision`` is refused
        with ``NotPSD``, naming which."""
        mean = np.asarray(mean, dtype=float).reshape(-1)
        precision = np.asarray(precision, dtype=float)
        n = mean.shape[0]
        if precision.shape != (n, n):
            raise DimensionMismatch(
                f"prior precision shape {precision.shape}, expected ({n}, {n})"
            )
        check_finite("prior mean", mean, NotPSD)
        check_finite("prior precision", precision, NotPSD)
        # the test of np.allclose(precision, precision.T, rtol=1e-10,
        # atol=1e-10) on finite entries, without its Python overhead
        if not (abs(precision - precision.T) <= 1e-10 + 1e-10 * abs(precision.T)).all():
            raise NotPSD("prior precision is not symmetric")
        prior = cls(mean=mean, precision=precision)
        if n > 0 and float(np.linalg.eigvalsh(prior.precision).min()) < -1e-10:
            raise NotPSD("prior precision has a negative eigenvalue")
        return prior

    @classmethod
    def flat(cls, mean) -> "GaussianPrior":
        """Flat prior: zero precision about ``mean``."""
        mean = np.asarray(mean, dtype=float).reshape(-1)
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
    A NaN residual raises ``UserFunctionFailure``; a prior term that
    overflows, to inf or to NaN (inf - inf), is zero density."""
    try:
        d = x - prior.mean
        quad = float(d.dot(prior.precision).dot(d))
    except RuntimeWarning:  # an overflow under an "error" warning filter
        quad = math.inf
    lp = -0.5 * quad - 0.5 * residual_sq
    if math.isnan(lp):
        if not math.isnan(residual_sq):  # the prior term overflowed to NaN
            return -math.inf
        raise UserFunctionFailure(f"non-finite model output at x = "
                                  f"{x.tolist()}: a NaN residual")
    return lp


def log_posterior(prior: GaussianPrior, ev: ModelEval) -> float:
    """Unnormalized log target at ``ev.x`` given its model evaluation.

    Returns -inf outside the domain; otherwise
    -(x-m)'H(x-m)/2 - ||f(x)||^2/2. The normalization constant is omitted
    (it cancels in every ratio the sampler forms). A NaN residual raises
    ``UserFunctionFailure``; a residual of +-inf, or one whose ||f||^2
    overflows, is zero density, and so is a point whose prior term
    overflows, to inf or to NaN.
    """
    if not ev.inside:
        return -np.inf
    return _log_target(prior, ev.x, ev.residual_sq)


def _non_finite_jtj(x: np.ndarray) -> UserFunctionFailure:
    return UserFunctionFailure(f"non-finite model output at x = {x.tolist()}: J'J is not finite")


def gn_proposal(prior: GaussianPrior, ev: ModelEval) -> Optional[tuple]:
    """Gauss-Newton proposal N(mean, precision^-1) anchored at ``ev.x``, as
    the :class:`PointState` fields ``(mean, precision, chol, log_norm)``,
    the last two from :func:`gaussian._factor`; or None where it is
    undefined: H + J'J is finite but not positive definite.

    Precision P = H + J'J and mean mu = P^-1 (H m - J'f + J'J x), from
    completing the square in the linearized target. Requires an in-domain
    evaluation.

    This is the per-point hot path: one Cholesky factorization (LAPACK
    ``dpotrf``) and two triangular solves, with no coercion. The prior was
    validated by ``GaussianPrior.create``, whose H m is computed once, and
    x and the shapes of J and f by ``ModelHandle.evaluate``. Two checks
    remain. The factorization refuses a NaN or infinite entry in H + J'J
    before the right-hand side is formed, so a returned proposal has a
    finite ``log_norm``; only when it refuses is J'J itself judged. The
    mean is checked entry by entry, so a finite mean is kept however large
    its entries. A residual with an infinite entry is zero density, not an
    error: its point keeps its proposal, whose mean is then not finite.

    P is exactly symmetric without a symmetrizing step: H is exactly
    symmetric (a ``GaussianPrior`` invariant), and J'J formed with ``@``
    is too, for C-ordered, F-ordered and strided J alike, so their sum is.
    J'J stays on ``@``: ``J.T.dot(J)`` of a strided J can differ between
    its two triangles in the low bits. The vector products use ``ndarray.dot``,
    which on these small operands costs about half of ``@``; for a
    contiguous J it gives the same bits.

    Raises
    ------
    UserFunctionFailure
        If J'J is not finite (a NaN, infinite or overflowing entry), or the
        mean is not finite while the residual is (J'f overflows, say), naming
        x, under any warning filter.
    """
    J = ev.jacobian
    Jt = J.T
    try:
        JtJ = Jt @ J
    except RuntimeWarning:  # an overflow under an "error" warning filter
        raise _non_finite_jtj(ev.x) from None
    P = prior.precision + JtJ
    factor = _factor(P)
    if factor is None:
        if not np.isfinite(JtJ).all():
            raise _non_finite_jtj(ev.x)
        return None
    chol, log_norm = factor
    try:
        rhs = prior.precision_mean - Jt.dot(ev.residual) + JtJ.dot(ev.x)
        mu = _solve_lower(chol, _solve_lower(chol, rhs), trans=1)
    except RuntimeWarning:  # an overflow or inf - inf under an "error" warning filter
        mu = np.full(ev.x.shape, np.nan)
    # exact, warning-free, and cheaper than np.isfinite(mu).all() at small n
    if not all(map(math.isfinite, mu.tolist())) and not np.isinf(ev.residual).any():
        raise UserFunctionFailure(f"non-finite model output at x = {ev.x.tolist()}: "
                                  f"the Gauss-Newton mean is not finite")
    return mu, P, chol, log_norm


@dataclass(slots=True)
class PointState(ModelEval):
    """Everything the sampler needs about one point, from one model call:
    the evaluation's fields, the log target and the Gauss-Newton proposal
    anchored here, in one record.

    ``mean``, ``precision``, ``chol`` and ``log_norm`` are the proposal
    :func:`gn_proposal` returns, read directly by the kernel. They are all
    None when the point is outside the domain, or when the proposal
    precision was singular (``proposal_failed``). ``log_post`` is -inf
    outside the domain.
    """

    log_post: float
    mean: Optional[np.ndarray]
    precision: Optional[np.ndarray]
    chol: Optional[np.ndarray]
    log_norm: Optional[float]

    @property
    def proposal_failed(self) -> bool:
        """In the domain, but with a singular proposal precision."""
        return self.inside and self.chol is None


_NO_PROPOSAL = (None, None, None, None)


def point_state_from_eval(prior: GaussianPrior, ev: ModelEval) -> PointState:
    """Assemble the PointState at ``ev.x`` from its evaluation (no model
    call). The proposal is factored with LAPACK ``dpotrf``.

    Raises
    ------
    UserFunctionFailure
        If the residual at x holds a NaN (refused by the log-target), or
        J'J is not finite there (refused by :func:`gn_proposal`). An
        infinite residual is not an error: it is zero density.
    """
    if not ev.inside:
        return PointState(ev.x, False, None, None, ev.residual_sq, -np.inf, *_NO_PROPOSAL)
    lp = _log_target(prior, ev.x, ev.residual_sq)
    # a proposal is a non-empty tuple, so only None is replaced
    return PointState(ev.x, True, ev.residual, ev.jacobian, ev.residual_sq, lp,
                      *(gn_proposal(prior, ev) or _NO_PROPOSAL))


def point_state(prior: GaussianPrior, model: ModelHandle, x) -> PointState:
    """Evaluate the model once at ``x`` and assemble the PointState."""
    return point_state_from_eval(prior, model.evaluate(x))
