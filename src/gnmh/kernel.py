"""One sampler transition: propose, test, and back off with dilated kernels.

A transition starts from the undilated Gauss-Newton proposal. Each rejection
contracts the kernel toward the current point (by a fixed factor, or by a
factor chosen from a cubic line-search model of ||f||^2) and proposes again,
up to a stage limit. Acceptance probabilities balance whole trajectories: the
ratio pits the reverse trajectory z -> y1 -> ... -> x (the same
intermediates, in the same order) against the forward one
x -> y1 -> ... -> z. Both sides are one path weight: the anchor's density,
its kernel densities, and the complements of its nested acceptance
probabilities. The reverse side is that weight with the anchor and the
candidate swapped, so its kernels sit at z and its dilation factors are
recomputed there.

One table per transition, ``_Transition``, holds the points
``[x, y1, y2, ...]`` and stores each quantity this recursion reaches under
indices into those points: kernels (anchor, g), path weights (anchor, h,
tail) and acceptances (anchor, h). A path weight is its prefix path plus
one log(1 - A) and one kernel density, so each density, dilated kernel and
acceptance is computed once per transition; ``step`` grows one table.

All ratio arithmetic is in log space; log 0 is -inf and propagates to an
acceptance probability of 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidPolicy
from .gaussian import _solve_lower
from .model import ModelHandle
from .posterior import GaussianPrior, PointState, point_state


@dataclass(frozen=True)
class BackoffPolicy:
    """Back-off configuration.

    ``mode`` is "none", "static" or "dynamic". ``max_steps`` is the number of
    extra proposals after the first one (0 means plain Metropolis).
    ``factor`` is the per-stage dilation in static mode. The constants
    ``t_lo``/``t_hi`` clamp the dynamically chosen factor; their midpoint is
    the fallback when the cubic model has no interior minimum.
    """

    mode: str = "none"
    max_steps: int = 0
    factor: float = 0.5
    t_lo: ClassVar[float] = 0.05
    t_hi: ClassVar[float] = 0.95

    def __post_init__(self):
        if self.mode not in ("none", "static", "dynamic"):
            raise InvalidPolicy(f"unknown back-off mode {self.mode!r}")
        if self.max_steps < 0:
            raise InvalidPolicy("max_steps must be nonnegative")
        if (self.mode == "none") != (self.max_steps == 0):
            raise InvalidPolicy("mode 'none' if and only if max_steps == 0")
        if self.mode == "static" and not 0.0 < self.factor < 1.0:
            raise InvalidPolicy("static dilation factor must lie in (0, 1)")

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


def cubic_minimizer(phi0: float, phi1: float, dphi0: float, dphi1: float) -> Optional[float]:
    """Location in (0, 1) of the local minimum of the Hermite cubic on [0, 1]
    with end values phi0, phi1 and end slopes dphi0, dphi1.

    Uses the closed form
    d1 = dphi0 + dphi1 - 3(phi1 - phi0), d2 = sqrt(d1^2 - dphi0*dphi1),
    t = 1 - (dphi1 + d2 - d1) / (dphi1 - dphi0 + 2 d2).
    Returns None when the square root is imaginary or the minimizer is not
    strictly interior. None is an ordinary outcome, not an error.
    """
    d1 = dphi0 + dphi1 - 3.0 * (phi1 - phi0)
    disc = d1 * d1 - dphi0 * dphi1
    if disc < 0.0:
        return None
    d2 = math.sqrt(disc)
    denom = dphi1 - dphi0 + 2.0 * d2
    if denom == 0.0:
        return None
    t = 1.0 - (dphi1 + d2 - d1) / denom
    if not 0.0 < t < 1.0 or not math.isfinite(t):
        return None
    return t


def dynamic_gamma(x_state: PointState, z_state: PointState, policy: BackoffPolicy) -> float:
    """Dilation factor from a cubic model of phi(t) = ||f(x + t(z-x))||^2.

    The endpoint values and slopes come from the two cached evaluations and
    the stored ||f||^2 of each point, so no model calls are spent. The
    minimizer is clamped to [policy.t_lo, policy.t_hi]; if the cubic has no
    interior minimum or ``z`` is outside the domain, the clamp midpoint is
    returned.
    """
    fallback = 0.5 * (policy.t_lo + policy.t_hi)
    if not z_state.inside:
        return fallback
    direction = z_state.x - x_state.x
    fx, Jx = x_state.eval.residual, x_state.eval.jacobian
    fz, Jz = z_state.eval.residual, z_state.eval.jacobian
    t = cubic_minimizer(x_state.residual_sq, z_state.residual_sq,
                        2.0 * float(fx.dot(Jx.dot(direction))),
                        2.0 * float(fz.dot(Jz.dot(direction))))
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


class _Transition:
    """Back-off table of one transition.

    ``pts`` is ``[origin, y1, y2, ...]``, the origin followed by the points
    drawn so far. The trajectory-balanced recursion only reaches three
    shapes, each computed once and stored under small-int keys into ``pts``:

    - kernel ``(a, g)``: the proposal at ``pts[a]`` after ``pts[1..g]`` were
      rejected, stored as ``(scale, mean, precision, log_norm)``;
    - path ``(a, h, b)``: log weight of the path from the anchor ``pts[a]``
      through ``pts[1..h-1]``, then the tail ``pts[b]``;
    - acceptance ``(a, h)``: log acceptance of ``pts[h]`` reached from
      ``pts[a]`` after ``pts[1..h-1]`` were rejected.

    Appending to ``pts`` leaves every stored entry valid.
    """

    __slots__ = ("pts", "policy", "kernels", "paths", "accepts")

    def __init__(self, origin: PointState, policy: BackoffPolicy,
                 points: Sequence[PointState] = ()):
        self.pts = [origin, *points]
        self.policy = policy
        self.kernels: dict = {}
        self.paths: dict = {}
        self.accepts: dict = {}

    def kernel(self, a: int, g: int) -> tuple:
        """Cumulative scale, mean, precision and log normalization of the
        kernel at ``pts[a]`` for the stage after ``pts[1..g]`` were rejected.

        With ``g = 0`` this is the undilated Gauss-Newton proposal at scale
        1. Each rejection multiplies the scale by the static factor, or by
        the dynamic factor chosen from the anchor and the rejected point; the
        kernel is the proposal dilated toward the anchor by that scale, with
        the arithmetic of :meth:`PrecisionGaussian.dilate`.
        """
        kern = self.kernels.get((a, g))
        if kern is None:
            anchor = self.pts[a]
            prop = anchor.proposal
            if g == 0:
                kern = 1.0, prop.mean, prop.precision, prop.log_norm
            else:
                scale = self.kernel(a, g - 1)[0]
                if self.policy.mode == "static":
                    scale *= self.policy.factor
                else:
                    scale *= dynamic_gamma(anchor, self.pts[g], self.policy)
                kern = (scale, anchor.x + scale * (prop.mean - anchor.x),
                        prop.precision / (scale * scale),
                        prop.log_norm - prop.mean.shape[0] * np.log(scale))
            self.kernels[a, g] = kern
        return kern

    def path(self, a: int, h: int, b: int) -> float:
        """log weight of the back-off path from ``pts[a]`` through
        ``pts[1..h-1]``, then ``pts[b]``.

        That is log p(pts[a]) plus, for each stage, the log kernel density
        of its point and, for every stage but the last, log(1 - A) of that
        stage's acceptance probability, summed stage by stage: the weight of
        the prefix path ``(a, h-1, h-1)``, its log(1 - A), then one density.
        """
        w = self.paths.get((a, h, b))
        if w is None:
            if h == 1:
                w = self.pts[a].log_post
            else:
                w = self.path(a, h - 1, h - 1) + _log1m_exp(self.log_accept(a, h - 1))
            _, mean, precision, log_norm = self.kernel(a, h - 1)
            d = self.pts[b].x - mean
            w += log_norm - 0.5 * float(d.dot(precision).dot(d))
            self.paths[a, h, b] = w
        return w

    def log_accept(self, a: int, h: int) -> float:
        """log acceptance probability of ``pts[h]``, reached from ``pts[a]``
        after ``pts[1..h-1]`` were rejected."""
        cand = self.pts[h]
        if cand.log_post == -np.inf or cand.proposal is None:
            # zero density, or no reverse kernels to build: never accepted
            return -np.inf
        log_a = self.accepts.get((a, h))
        if log_a is None:
            log_fwd = self.path(a, h, h)
            log_rev = self.path(h, h, a)
            if log_rev == -np.inf:
                # reverse trajectory carries no flow, whatever the forward side
                log_a = -np.inf
            elif log_fwd == -np.inf:
                log_a = 0.0
            else:
                log_ratio = log_rev - log_fwd
                log_a = -np.inf if math.isnan(log_ratio) else min(0.0, log_ratio)
            self.accepts[a, h] = log_a
        return log_a


def accept_prob(origin: PointState, points: Sequence[PointState],
                policy: BackoffPolicy) -> float:
    """Acceptance probability in [0, 1] of the last of ``points``, proposed
    from ``origin`` after the others were rejected in order.

    With a single point this is the plain Metropolis-Hastings ratio
    min{1, p(z) K(z,x) / (p(x) K(x,z))}; with more it is the
    trajectory-balanced ratio described in the module docstring. Every
    density is read from evaluations already cached in the PointStates, so
    the computation costs no model calls. Each call builds a fresh
    :class:`_Transition` holding ``origin`` and ``points``.
    """
    points = tuple(points)
    return float(np.exp(_Transition(origin, policy, points).log_accept(0, len(points))))


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
    standard normals first, then one uniform for the accept test. All
    stages share one ``_Transition`` table.
    """
    n = current.x.shape[0]
    chol = current.proposal.chol
    table = _Transition(current, policy)
    for stage_idx in range(1, policy.n_stages + 1):
        # dilating the factor, chol(P / s^2) = L / s, needs no factorization;
        # stage 1 is undilated (s = 1)
        scale, mean, _, _ = table.kernel(0, stage_idx - 1)
        dilated = chol if stage_idx == 1 else chol / scale
        u = _solve_lower(dilated, rng.standard_normal(n), trans=1)
        z_state = point_state(prior, model, mean + u)
        if z_state.proposal_failed and counters is not None:
            counters["singular_proposals"] = counters.get("singular_proposals", 0) + 1
        table.pts.append(z_state)
        a = float(np.exp(table.log_accept(0, stage_idx)))
        if rng.random() < a:
            return z_state, stage_idx
    return current, -1
