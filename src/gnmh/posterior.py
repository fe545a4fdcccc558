"""Log-posterior evaluation and the Gauss-Newton proposal distribution.

The target density is indicator(x) * prior(x) * exp(-||f(x)||^2 / 2) up to a
global constant. Linearizing f about the current point x turns the target
into a Gaussian with precision P = H + J'J and mean x + L^-T v, where
L L' = P and v = L^-1 (H(m - x) - J'f) is the whitened Gauss-Newton step.
Solving for the step, not the mean, keeps the rounding proportional to the
step rather than to the distance of x from the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DimensionMismatch, NotPSD, UserFunctionFailure, check_finite
from .gaussian import _factor, _solve_lower, dsyrk
from .model import ModelEval, ModelHandle


@dataclass(frozen=True, eq=False)
class GaussianPrior:
    """Gaussian prior with mean ``mean`` and precision matrix ``precision``.

    A zero precision matrix is the flat (improper) prior. ``mean`` and
    ``precision`` are 1-D and 2-D float arrays and are never modified.
    ``precision`` is exactly symmetric however the prior is built: the
    constructor stores (P + P^T)/2 of the matrix it is given, so
    (m - x)'H is H(m - x), the prior's term of the Gauss-Newton step in
    :func:`gn_proposal`. Only :meth:`create` checks that the given matrix
    was symmetric to within 1e-10 and that (P + P^T)/2 is finite.
    """

    mean: np.ndarray
    precision: np.ndarray

    def __post_init__(self):
        precision = self.precision
        with np.errstate(over="ignore"):  # create refuses an overflow to inf
            object.__setattr__(self, "precision", 0.5 * (precision + precision.T))

    @classmethod
    def create(cls, mean, precision) -> "GaussianPrior":
        """Validate finiteness, symmetry and positive semidefiniteness, then
        build. A non-finite entry of ``mean`` or ``precision``, or of the
        symmetrized precision (P + P^T)/2 the prior stores (P + P^T can
        overflow), is refused with ``NotPSD``, naming which."""
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
        # atol=1e-10) on finite entries, without its Python overhead; a
        # difference that overflows to inf fails it
        with np.errstate(over="ignore"):
            symmetric = (abs(precision - precision.T) <= 1e-10 + 1e-10 * abs(precision.T)).all()
        if not symmetric:
            raise NotPSD("prior precision is not symmetric")
        prior = cls(mean=mean, precision=precision)
        check_finite("symmetrized prior precision (P + P^T)/2", prior.precision, NotPSD)
        if n > 0 and float(np.linalg.eigvalsh(prior.precision).min()) < -1e-10:
            raise NotPSD("prior precision has a negative eigenvalue")
        return prior

    @classmethod
    def flat(cls, mean) -> "GaussianPrior":
        """Flat prior: zero precision about ``mean``, built by :meth:`create`."""
        return cls.create(mean, np.zeros((np.size(mean),) * 2))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def _log_target(prior: GaussianPrior, x: np.ndarray,
                residual_sq: float) -> Tuple[np.ndarray, float]:
    """H(m - x) and the log target -(x-m)'H(x-m)/2 - ||f(x)||^2/2, from
    ``residual_sq`` = ||f(x)||^2. A NaN residual raises
    ``UserFunctionFailure``; a prior term that overflows, to inf or to NaN
    (inf - inf), is zero density, with the values numpy's default filter
    gives under any warning filter."""
    try:
        d = prior.mean - x
        hd = d.dot(prior.precision)
        lp = -0.5 * float(hd.dot(d)) - 0.5 * residual_sq
    except RuntimeWarning:  # an overflow under an "error" warning filter
        with np.errstate(over="ignore", invalid="ignore"):
            return _log_target(prior, x, residual_sq)
    if math.isnan(lp):
        if not math.isnan(residual_sq):  # the prior term overflowed to NaN
            return hd, -math.inf
        raise UserFunctionFailure(f"non-finite model output at x = "
                                  f"{x.tolist()}: a NaN residual")
    return hd, lp


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
    return _log_target(prior, ev.x, ev.residual_sq)[1]


def _non_finite_jtj(x: np.ndarray) -> UserFunctionFailure:
    return UserFunctionFailure(f"non-finite model output at x = {x.tolist()}: J'J is not finite")


def gn_proposal(prior: GaussianPrior, ev: ModelEval, hd: np.ndarray) -> tuple:
    """Gauss-Newton proposal N(x + L^-T v, P^-1) anchored at x = ``ev.x``,
    as the :class:`PointState` fields ``(v, chol, log_norm, jtf)``: the
    whitened step v = L^-1 (``hd`` - J'f) for ``hd`` = H(m - x), the factor
    L of P = H + J'J and its log normalization from :func:`gaussian._factor`,
    and J'f, kept as the slope of ||f||^2 along a line is 2 (J'f).d. v, chol
    and log_norm are None where P is finite but not positive definite.
    Requires an in-domain evaluation.

    This is the per-point hot path: one BLAS ``dsyrk``, which writes the
    lower triangle of H + J'J into a fresh Fortran-ordered copy of H, one
    Cholesky factorization (LAPACK ``dpotrf``) of that copy in place, and
    one triangular solve, with no coercion; the prior, x and the shapes of
    J and f were validated before. The f2py routines raise no numpy
    floating-point warning, so an overflow in J'J or in H + J'J ends the
    same way under every warning filter. The factorization refuses a NaN
    or infinite entry in H + J'J, so a proposal has a finite ``log_norm``;
    only when it refuses is J'J itself formed and judged, so an overflow
    of the sum alone is a singular proposal. A finite step is kept however
    large its entries; one that is not finite is the model's error, unless
    an infinite residual entry or an overflowing H(m - x) makes the point
    zero density. The vector products use ``ndarray.dot``, about half the
    cost of ``@`` here.

    Raises
    ------
    UserFunctionFailure
        If J'J is not finite (a NaN, infinite or overflowing entry), or the
        step is not finite while the residual and H(m - x) are (J'f
        overflows, say), naming x, under any warning filter.
    """
    J = ev.jacobian
    Jt = J.T
    # positional arguments (alpha, a, beta, c, trans=0, lower=1), as in
    # _factor; dsyrk copies c, so the prior's precision is never written
    factor = _factor(dsyrk(1.0, Jt, 1.0, prior.precision, 0, 1))
    if factor is None:
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(Jt @ J).all():
                raise _non_finite_jtj(ev.x)
    try:
        jtf = Jt.dot(ev.residual)
        g = hd - jtf
    except RuntimeWarning:  # an overflow or inf - inf under an "error" warning filter
        with np.errstate(over="ignore", invalid="ignore"):
            jtf = Jt.dot(ev.residual)
            g = hd - jtf
    if factor is None:
        return None, None, None, jtf
    chol, log_norm = factor
    v = _solve_lower(chol, g)
    # exact, warning-free, and cheaper than np.isfinite(v).all() at small n
    if (not all(map(math.isfinite, v.tolist())) and np.isfinite(hd).all()
            and np.isfinite(ev.residual).all()):
        raise UserFunctionFailure(f"non-finite model output at x = {ev.x.tolist()}: "
                                  f"the Gauss-Newton mean is not finite")
    return v, chol, log_norm, jtf


@dataclass(slots=True)
class PointState:
    """Everything the kernel reads about one point, from one model call:
    ``x``, ``inside`` and ||f(x)||^2 from the evaluation, the log target and
    the Gauss-Newton proposal anchored here, in one record.

    ``v``, ``chol``, ``log_norm`` and ``jtf`` are what :func:`gn_proposal`
    returns; all four are None outside the domain, and all but ``jtf`` when
    the proposal precision was singular (``proposal_failed``). ``log_post``
    is -inf outside the domain.
    """

    x: np.ndarray
    inside: bool
    residual_sq: float
    log_post: float
    v: Optional[np.ndarray]
    chol: Optional[np.ndarray]
    log_norm: Optional[float]
    jtf: Optional[np.ndarray]

    @property
    def proposal_failed(self) -> bool:
        """In the domain, but with a singular proposal precision."""
        return self.inside and self.chol is None


def point_state_from_eval(prior: GaussianPrior, ev: ModelEval) -> PointState:
    """Assemble the PointState at ``ev.x`` from its evaluation (no model
    call). H(m - x) is formed once, for the log target and the proposal.

    Raises
    ------
    UserFunctionFailure
        If the residual at x holds a NaN (refused by the log-target), or
        J'J is not finite there (refused by :func:`gn_proposal`). An
        infinite residual is not an error: it is zero density.
    """
    if not ev.inside:
        return PointState(ev.x, False, ev.residual_sq, -np.inf, None, None, None, None)
    hd, lp = _log_target(prior, ev.x, ev.residual_sq)
    return PointState(ev.x, True, ev.residual_sq, lp, *gn_proposal(prior, ev, hd))


def point_state(prior: GaussianPrior, model: ModelHandle, x) -> PointState:
    """Evaluate the model once at ``x`` and assemble the PointState."""
    return point_state_from_eval(prior, model.evaluate(x))
