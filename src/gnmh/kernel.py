"""One sampler transition: propose, test, and back off with dilated kernels.

A transition starts from the undilated Gauss-Newton proposal. Each rejection
contracts the kernel toward the current point (by a fixed factor, or by a
factor chosen from a cubic line-search model of ||f||^2) and proposes again,
up to a stage limit. Acceptance probabilities balance whole trajectories: the
ratio pits the reverse trajectory z -> y1 -> ... -> x (the same
intermediates, in the same order) against the forward one
x -> y1 -> ... -> z. Both sides are one path weight, ``_log_path``: the
anchor's density, its kernel densities, and the complements of its nested
acceptance probabilities. The reverse side is that weight with the anchor
and the candidate swapped, so its kernels sit at z and its dilation factors
are recomputed there. Kernels and nested acceptances are memoized per
transition, keyed by anchor and visited points, so each is computed once.

All ratio arithmetic is in log space; log 0 is -inf and propagates to an
acceptance probability of 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidPolicy
from .gaussian import PrecisionGaussian
from .model import ModelHandle
from .posterior import GaussianPrior, PointState, point_state


@dataclass(frozen=True)
class BackoffPolicy:
    """Back-off configuration.

    ``mode`` is "none", "static" or "dynamic". ``max_steps`` is the number of
    extra proposals after the first one (0 means plain Metropolis).
    ``factor`` is the per-stage dilation in static mode. ``t_lo``/``t_hi``
    clamp the dynamically chosen factor; their midpoint is the fallback when
    the cubic model has no interior minimum.
    """

    mode: str = "none"
    max_steps: int = 0
    factor: float = 0.5
    t_lo: float = 0.05
    t_hi: float = 0.95

    def __post_init__(self):
        if self.mode not in ("none", "static", "dynamic"):
            raise InvalidPolicy(f"unknown back-off mode {self.mode!r}")
        if self.max_steps < 0:
            raise InvalidPolicy("max_steps must be nonnegative")
        if (self.mode == "none") != (self.max_steps == 0):
            raise InvalidPolicy("mode 'none' if and only if max_steps == 0")
        if self.mode == "static" and not 0.0 < self.factor < 1.0:
            raise InvalidPolicy("static dilation factor must lie in (0, 1)")
        if not 0.0 < self.t_lo < self.t_hi < 1.0:
            raise InvalidPolicy("need 0 < t_lo < t_hi < 1")

    @classmethod
    def none(cls) -> "BackoffPolicy":
        return cls(mode="none", max_steps=0)

    @classmethod
    def static(cls, max_steps: int, factor: float) -> "BackoffPolicy":
        if max_steps == 0:
            return cls.none()
        return cls(mode="static", max_steps=max_steps, factor=factor)

    @classmethod
    def dynamic(cls, max_steps: int) -> "BackoffPolicy":
        if max_steps == 0:
            return cls.none()
        return cls(mode="dynamic", max_steps=max_steps)

    @property
    def n_stages(self) -> int:
        return self.max_steps + 1


@dataclass(frozen=True)
class CubicData:
    """Endpoint values and slopes of a function on [0, 1]."""

    phi0: float
    phi1: float
    dphi0: float
    dphi1: float


def cubic_minimizer(c: CubicData) -> Optional[float]:
    """Location in (0, 1) of the Hermite cubic interpolant's local minimum.

    Uses the closed form
    d1 = dphi0 + dphi1 - 3(phi1 - phi0), d2 = sqrt(d1^2 - dphi0*dphi1),
    t = 1 - (dphi1 + d2 - d1) / (dphi1 - dphi0 + 2 d2).
    Returns None when the square root is imaginary or the minimizer is not
    strictly interior. None is an ordinary outcome, not an error.
    """
    d1 = c.dphi0 + c.dphi1 - 3.0 * (c.phi1 - c.phi0)
    disc = d1 * d1 - c.dphi0 * c.dphi1
    if disc < 0.0:
        return None
    d2 = math.sqrt(disc)
    denom = c.dphi1 - c.dphi0 + 2.0 * d2
    if denom == 0.0:
        return None
    t = 1.0 - (c.dphi1 + d2 - d1) / denom
    if not 0.0 < t < 1.0 or not math.isfinite(t):
        return None
    return t


def dynamic_gamma(x_state: PointState, z_state: PointState, policy: BackoffPolicy) -> float:
    """Dilation factor from a cubic model of phi(t) = ||f(x + t(z-x))||^2.

    The endpoint values and slopes come from the two cached evaluations, so
    no model calls are spent. The minimizer is clamped to
    [policy.t_lo, policy.t_hi]; if the cubic has no interior minimum or ``z``
    is outside the domain, the clamp midpoint is returned.
    """
    fallback = 0.5 * (policy.t_lo + policy.t_hi)
    if not z_state.inside:
        return fallback
    direction = z_state.x - x_state.x
    fx, Jx = x_state.eval.residual, x_state.eval.jacobian
    fz, Jz = z_state.eval.residual, z_state.eval.jacobian
    c = CubicData(
        phi0=float(fx @ fx),
        phi1=float(fz @ fz),
        dphi0=2.0 * float(fx @ (Jx @ direction)),
        dphi1=2.0 * float(fz @ (Jz @ direction)),
    )
    t = cubic_minimizer(c)
    if t is None:
        return fallback
    return min(max(t, policy.t_lo), policy.t_hi)


def _log1m_exp(log_a: float) -> float:
    """log(1 - exp(log_a)) for log_a <= 0."""
    if log_a >= 0.0:
        return -np.inf
    if log_a == -np.inf:
        return 0.0
    return float(np.log1p(-np.exp(log_a)))


def _kernel(anchor: PointState, points: Tuple[PointState, ...], policy: BackoffPolicy,
            memo: dict) -> Tuple[float, PrecisionGaussian]:
    """Cumulative dilation scale and proposal kernel at ``anchor`` for the
    stage after ``points`` were rejected, in order.

    With no rejected points this is the undilated Gauss-Newton proposal at
    scale 1. Each rejection multiplies the scale by the static factor, or by
    the dynamic factor chosen from the anchor and the rejected point.
    """
    if not points:
        return 1.0, anchor.proposal
    key = ("kernel", id(anchor), *map(id, points))
    if key not in memo:
        scale, _ = _kernel(anchor, points[:-1], policy, memo)
        if policy.mode == "static":
            scale *= policy.factor
        else:
            scale *= dynamic_gamma(anchor, points[-1], policy)
        memo[key] = scale, anchor.proposal.dilate(anchor.x, scale)
    return memo[key]


def _log_path(anchor: PointState, points: Tuple[PointState, ...], policy: BackoffPolicy,
              memo: dict) -> float:
    """log density of the back-off path from ``anchor`` through ``points``.

    That is log p(anchor) plus, for each stage, the log kernel density of
    its point and, for every stage but the last, log(1 - A) of that stage's
    acceptance probability.
    """
    total = anchor.log_post
    for i, pt in enumerate(points):
        _, kern = _kernel(anchor, points[:i], policy, memo)
        total += kern.log_pdf(pt.x)
        if i < len(points) - 1:
            total += _log1m_exp(_log_accept(anchor, points[: i + 1], policy, memo))
    return total


def _log_accept(origin: PointState, points: Tuple[PointState, ...], policy: BackoffPolicy,
                memo: dict) -> float:
    """log acceptance probability of the last of ``points``, reached from
    ``origin`` after the others were rejected."""
    cand = points[-1]
    if cand.log_post == -np.inf:
        return -np.inf
    if cand.proposal is None:
        # in-domain point whose Gauss-Newton precision was singular: the
        # reverse kernels cannot be built, so the move is never accepted
        return -np.inf
    key = ("accept", id(origin), *map(id, points))
    if key in memo:
        return memo[key]
    log_fwd = _log_path(origin, points, policy, memo)
    log_rev = _log_path(cand, points[:-1] + (origin,), policy, memo)
    if log_rev == -np.inf:
        # reverse trajectory carries no flow, whatever the forward side
        log_a = -np.inf
    elif log_fwd == -np.inf:
        log_a = 0.0
    else:
        log_ratio = log_rev - log_fwd
        log_a = -np.inf if math.isnan(log_ratio) else min(0.0, log_ratio)
    memo[key] = log_a
    return log_a


def accept_prob(origin: PointState, points: Sequence[PointState], policy: BackoffPolicy,
                memo: Optional[dict] = None) -> float:
    """Acceptance probability in [0, 1] of the last of ``points``, proposed
    from ``origin`` after the others were rejected in order.

    With a single point this is the plain Metropolis-Hastings ratio
    min{1, p(z) K(z,x) / (p(x) K(x,z))}; with more it is the
    trajectory-balanced ratio described in the module docstring. Every
    density is read from evaluations already cached in the PointStates, so
    the computation costs no model calls. ``memo`` caches kernels and
    sub-acceptances across calls within one transition; None starts a fresh
    one. The result is the same with or without it. Its keys are object
    ids, so a memo must not outlive the points it has seen.
    """
    if memo is None:
        memo = {}
    return float(np.exp(_log_accept(origin, tuple(points), policy, memo)))


def step(current: PointState, policy: BackoffPolicy, prior: GaussianPrior,
         model: ModelHandle, rng: np.random.Generator,
         counters: Optional[dict] = None) -> Tuple[PointState, int]:
    """Advance the chain by one transition.

    Draws a candidate from the undilated proposal; on rejection, dilates and
    redraws until acceptance or until ``policy.max_steps`` back-offs are
    exhausted. Returns the next state and the stage index at which it was
    accepted (1 is the undilated proposal), or ``(current, -1)`` when every
    stage rejected. ``counters``, if given, counts under
    "singular_proposals" each drawn in-domain point whose Gauss-Newton
    proposal was singular (such a point is never accepted).

    Per stage the generator is consumed in a fixed order: the proposal's
    standard normals first, then one uniform for the accept test.
    """
    n = current.x.shape[0]
    memo: dict = {}
    points: Tuple[PointState, ...] = ()
    for stage_idx in range(1, policy.n_stages + 1):
        _, kern = _kernel(current, points, policy, memo)
        z_state = point_state(prior, model, kern.sample(rng.standard_normal(n)))
        if z_state.proposal_failed and counters is not None:
            counters["singular_proposals"] = counters.get("singular_proposals", 0) + 1
        points += (z_state,)
        a = accept_prob(current, points, policy, memo)
        if rng.random() < a:
            return z_state, stage_idx
    return current, -1
