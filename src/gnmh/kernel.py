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

Every kernel is read from its anchor's record (``posterior.PointState``):
the point x, the proposal's factor L, whitened step v and log
normalization. Dilated toward x by s, the kernel is
N(x + s^alpha L^-T v, s^2 (L L')^-1): its spread shrinks as s and its step
as s^alpha, for the policy's mean exponent alpha, 1 or 2. It is three
floats: s, log_norm - n log s and the step's shrink s^(alpha - 1), which is
1 or s. One formula draws, y = x + s L^-T (s^(alpha - 1) v + xi) for
standard normals xi, one scores,
log_norm - n log s - |L'(y - x) / s - s^(alpha - 1) v|^2 / 2, and stage one
is their s = 1 case. The drawing kernel's density of its draw is
log_norm - n log s - xi.xi / 2, kept with the drawn point.

With alpha = 1 this is the paper's kernel, whose mean moves as s. As s -> 0
its one-stage log acceptance tends to -2|v|^2 - 2 v.xi, so no back-off depth
frees a point whose Gauss-Newton step is long. With alpha = 2, the default,
the step shrinks faster than the spread and the limit is 0. The
trajectory-balanced ratio is exact for any kernel that the forward and
reverse sides compute the same way, so both keep the target stationary.

Stage one is the plain Metropolis-Hastings ratio of the two records. Only
when it rejects and the policy has more stages does ``step`` build the
back-off table ``_Transition``: the points ``[x, y1, y2, ...]``, their
kernel densities and, per anchor point, three lists grown one stage at a
time (kernels, path weights and acceptances). ``step`` seeds it with stage
one's drawn density, path weight and acceptance, which the table would
compute bit for bit from the same values. A later path weight is its prefix
weight plus one log(1 - A) and one kernel density, so each dilated kernel,
acceptance and density is computed once per transition.

Every log(1 - A) term is <= 0, so a path weight without them bounds it from
above, and so does one with each intermediate kernel density replaced by
its kernel's log_norm - n log s, which is no less. ``step`` tests each
back-off stage's candidate against these two bounds on the reverse weight
in turn, over a lower bound on the forward one: the looser first, which
reads only the origin's reverse density, then the tighter. It computes
the nested recursion only when neither can reject; the decisions are those
of the full computation. Stage one is the plain Metropolis-Hastings test,
which always computes its one reverse density.

All ratio arithmetic is in log space; log 0 is -inf and propagates to an
acceptance probability of 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidPolicy, check_count, is_count, is_real
from .gaussian import _solve_lower
from .model import ModelHandle
from .posterior import GaussianPrior, PointState, point_state


@dataclass(frozen=True)
class BackoffPolicy:
    """Back-off configuration.

    ``mode`` is "none", "static" or "dynamic". ``max_steps`` is the number of
    extra proposals after the first one (0 means plain Metropolis), an
    integer. ``factor`` is the per-stage dilation in static mode, a real
    number in (0, 1) in every mode. ``alpha`` is the mean exponent, 1 or 2
    in every mode: a kernel dilated by s moves its mean as s^alpha (see the
    module docstring). 2, the default, frees points with a long Gauss-Newton
    step; 1 is the paper's kernel. The constants
    ``t_lo``/``t_hi`` clamp the dynamically chosen factor; their midpoint is
    the fallback when the cubic model has no interior minimum.

    A policy whose smallest reachable kernel scale, ``factor ** max_steps``
    (static) or ``t_lo ** max_steps`` (dynamic), is below 2**-511 is refused
    with ``InvalidPolicy``: the scale's square would not be a normal float.
    So static(k, 0.1) allows k <= 153, static(k, 0.5) k <= 511 and
    dynamic(k) k <= 118. Then the mean's shrink s^alpha is a normal float
    too.
    """

    mode: str = "none"
    max_steps: int = 0
    factor: float = 0.5
    alpha: int = 2
    t_lo: ClassVar[float] = 0.05
    t_hi: ClassVar[float] = 0.95

    def __post_init__(self):
        if self.mode not in ("none", "static", "dynamic"):
            raise InvalidPolicy(f"unknown back-off mode {self.mode!r}")
        steps = check_count("max_steps", self.max_steps, 0, InvalidPolicy)
        if (self.mode == "none") != (steps == 0):
            raise InvalidPolicy("mode 'none' if and only if max_steps == 0")
        if not (is_real(self.factor) and 0.0 < self.factor < 1.0):
            raise InvalidPolicy(f"dilation factor must be a number in (0, 1), "
                                f"got {self.factor!r}")
        if not (is_real(self.alpha) and self.alpha in (1, 2)):
            raise InvalidPolicy(f"mean exponent alpha must be 1 or 2, got {self.alpha!r}")
        if self.mode != "none":
            # the deepest kernel's scale s must keep s * s a normal float; a
            # dynamic factor is at least t_lo. 2**1000 stages take any factor
            # below 1 to 0, with an exponent that converts to a float
            factor = float(self.factor) if self.mode == "static" else self.t_lo
            if factor ** min(steps, 2 ** 1000) < 2.0 ** -511:
                raise InvalidPolicy(
                    f"max_steps = {steps} back-offs by {self.mode} factors of at least "
                    f"{factor!r} can shrink the kernel scale below 2**-511, where its "
                    f"square is not a normal float")

    @classmethod
    def none(cls) -> "BackoffPolicy":
        return cls(mode="none", max_steps=0)

    @classmethod
    def static(cls, max_steps: int, factor: float, alpha: int = 2) -> "BackoffPolicy":
        policy = cls("static" if is_count(max_steps, 1) else "none", max_steps, factor, alpha)
        return policy if policy.max_steps else cls.none()

    @classmethod
    def dynamic(cls, max_steps: int, alpha: int = 2) -> "BackoffPolicy":
        policy = cls("dynamic" if is_count(max_steps, 1) else "none", max_steps, alpha=alpha)
        return policy if policy.max_steps else cls.none()

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
    if not 0.0 < t < 1.0:
        return None
    return t


def dynamic_gamma(x_state: PointState, z_state: PointState) -> float:
    """Dilation factor from a cubic model of phi(t) = ||f(x + t(z-x))||^2.

    The endpoint values ||f||^2 and slopes 2 (J'f).d come from the two
    points' records, so no model calls are spent. The minimizer is clamped to
    [BackoffPolicy.t_lo, BackoffPolicy.t_hi]; if the cubic has no interior
    minimum or ``z`` is outside the domain, the clamp midpoint is returned.
    """
    lo, hi = BackoffPolicy.t_lo, BackoffPolicy.t_hi
    fallback = 0.5 * (lo + hi)
    if not z_state.inside:
        return fallback
    direction = z_state.x - x_state.x
    t = cubic_minimizer(x_state.residual_sq, z_state.residual_sq,
                        2.0 * float(x_state.jtf.dot(direction)),
                        2.0 * float(z_state.jtf.dot(direction)))
    if t is None:
        return fallback
    return min(max(t, lo), hi)


_MINUS_LN2 = -math.log(2.0)


def _log1m_exp(log_a: float) -> float:
    """log(1 - exp(log_a)) for log_a <= 0, -inf from 0 on.

    log(-expm1(a)) above -ln 2, where 1 - exp(a) would cancel, and
    log1p(-exp(a)) below it (Maechler 2012, "Accurately computing
    log(1 - exp(-|a|))"): a few ulps throughout, and no warning."""
    if log_a >= 0.0:
        return -math.inf
    if log_a > _MINUS_LN2:
        return math.log(-math.expm1(log_a))
    return math.log1p(-math.exp(log_a))


def _log_density(anchor: PointState, y: np.ndarray, scale: float, log_norm: float,
                 shrink: float) -> float:
    """log_norm - |L'(y - x) / scale - shrink v|^2 / 2, the log density at
    ``y`` of the kernel at ``anchor`` dilated by ``scale``, whose step is
    shrunk by ``shrink``, 1 or ``scale`` (a division or a product by 1,
    exact, is skipped)."""
    w = (y - anchor.x).dot(anchor.chol)
    r = (w if scale == 1.0 else w / scale) - (anchor.v if shrink == 1.0 else shrink * anchor.v)
    return log_norm - 0.5 * float(r.dot(r))


def _never_accepted(cand: PointState) -> bool:
    """Zero density at ``cand``, or no reverse kernels to build there."""
    return cand.log_post == -math.inf or cand.chol is None


def _log_ratio(log_fwd: float, log_rev: float) -> float:
    """log acceptance min{0, log_rev - log_fwd} of a candidate whose forward
    and reverse path weights are ``log_fwd`` and ``log_rev``."""
    if log_rev == -math.inf:
        # reverse trajectory carries no flow, whatever the forward side
        return -math.inf
    if log_fwd == -math.inf:
        return 0.0
    log_ratio = log_rev - log_fwd
    return -math.inf if math.isnan(log_ratio) else min(0.0, log_ratio)


class _Transition:
    """Back-off table of one transition.

    ``pts`` is ``[origin, y1, y2, ...]``, the origin followed by the points
    drawn so far; ``dens[a, g, b]`` is ``density(a, g, b)``, kept once
    computed, or stored by ``step`` for a drawn point (``a = 0``, ``b = g +
    1``). The trajectory-balanced recursion reaches each point ``pts[a]``
    as the anchor of paths through ``pts[1], pts[2], ...``, so ``rows[a]``
    holds three lists for that anchor, each grown one stage at a time and
    computed once:

    - kernels: ``kernels[g]`` is the proposal at ``pts[a]`` after
      ``pts[1..g]`` were rejected, as the floats ``(scale, log_norm,
      shrink)``;
    - weights: ``weights[h - 1]`` is the log weight of the path from
      ``pts[a]`` through ``pts[1..h]``;
    - accepts: ``accepts[h - 1]`` is the log acceptance of ``pts[h]``
      reached from ``pts[a]`` after ``pts[1..h-1]`` were rejected.

    Appending to ``pts`` leaves every row and density valid.
    """

    __slots__ = ("pts", "policy", "rows", "dens")

    def __init__(self, origin: PointState, policy: BackoffPolicy,
                 points: Sequence[PointState] = ()):
        self.pts = [origin, *points]
        self.policy = policy
        self.rows: dict = {}
        self.dens: dict = {}

    def _row(self, a: int) -> tuple:
        row = self.rows.get(a)
        if row is None:
            row = self.rows[a] = ([(1.0, self.pts[a].log_norm, 1.0)], [], [])
        return row

    def kernel(self, a: int, g: int) -> tuple:
        """Cumulative scale s, log normalization and step shrink (1 or s)
        of the kernel at ``pts[a]`` for the stage after ``pts[1..g]`` were
        rejected.

        With ``g = 0`` this is the undilated Gauss-Newton proposal at scale
        1. Each rejection multiplies the scale by the static factor, or by
        the dynamic factor chosen from the anchor and the rejected point; the
        kernel is the proposal dilated toward the anchor by that scale.
        """
        kernels = self._row(a)[0]
        if g < len(kernels):
            return kernels[g]
        anchor, policy = self.pts[a], self.policy
        n = anchor.x.shape[0]
        while len(kernels) <= g:
            scale = kernels[-1][0]
            if policy.mode == "static":
                scale *= policy.factor
            else:
                scale *= dynamic_gamma(anchor, self.pts[len(kernels)])
            kernels.append((scale, anchor.log_norm - n * math.log(scale),
                            scale if policy.alpha == 2 else 1.0))
        return kernels[g]

    def density(self, a: int, g: int, b: int) -> float:
        """log density of ``pts[b]`` under ``kernel(a, g)``, read from
        ``dens`` or computed and stored there."""
        d = self.dens.get((a, g, b))
        if d is None:
            d = self.dens[a, g, b] = _log_density(self.pts[a], self.pts[b].x,
                                                  *self.kernel(a, g))
        return d

    def path(self, a: int, h: int, b: int) -> float:
        """log weight of the back-off path from ``pts[a]`` through
        ``pts[1..h-1]``, then ``pts[b]``.

        That is log p(pts[a]) plus, for each stage, the log kernel density
        of its point and, for every stage but the last, log(1 - A) of that
        stage's acceptance probability, summed stage by stage: the weight of
        the path through ``pts[1..h-1]``, its log(1 - A), then one density.
        A prefix of weight -inf is returned as it is, before the last
        kernel or density is built: a density is finite or -inf.
        """
        if h == 1:
            w = self.pts[a].log_post
        else:
            log_a = self.log_accept(a, h - 1)  # grows the row through stage h - 1
            w = self.rows[a][1][h - 2] + _log1m_exp(log_a)
        if w == -math.inf:
            return w
        return w + self.density(a, h - 1, b)

    def log_accept(self, a: int, h: int) -> float:
        """log acceptance probability of ``pts[h]``, reached from ``pts[a]``
        after ``pts[1..h-1]`` were rejected."""
        _, weights, accepts = self._row(a)
        while len(accepts) < h:
            j = len(accepts) + 1
            w = self.path(a, j, j)
            log_a = (-math.inf if _never_accepted(self.pts[j])
                     else _log_ratio(w, self.path(j, j, a)))
            weights.append(w)
            accepts.append(log_a)
        return accepts[h - 1]


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
    return math.exp(_Transition(origin, policy, points).log_accept(0, len(points)))


def _draw(anchor: PointState, scale: float, log_norm: float, shrink: float,
          prior: GaussianPrior, model: ModelHandle, rng: np.random.Generator,
          counters: Optional[dict]) -> Tuple[PointState, float]:
    """Draw y = x + scale L^-T (shrink v + xi) from the kernel at ``anchor``
    dilated by ``scale``, whose step is shrunk by ``shrink``, 1 or
    ``scale`` (a product with 1, exact, is skipped), for fresh
    standard normals xi; return y's record and its log density under that
    kernel, ``log_norm`` - xi.xi / 2. ``counters``, if given, counts a point
    whose proposal is singular under "singular_proposals"."""
    xi = rng.standard_normal(anchor.x.shape[0])
    u = _solve_lower(anchor.chol, (anchor.v if shrink == 1.0 else shrink * anchor.v) + xi,
                     trans=1)
    z_state = point_state(prior, model, anchor.x + (u if scale == 1.0 else scale * u))
    if counters is not None and z_state.proposal_failed:
        counters["singular_proposals"] = counters.get("singular_proposals", 0) + 1
    return z_state, log_norm - 0.5 * float(xi.dot(xi))


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
    standard normals first, then one uniform u for the accept test. Stage
    one is the plain Metropolis-Hastings ratio of the two records; a
    ``_Transition`` table of the points drawn so far, seeded with stage
    one's weight and acceptance and each draw's density, is built only when
    stage one rejects and the policy has more stages, and ``step`` reads it
    only through ``kernel``, ``density``, ``path`` and ``log_accept``.

    A never-accepted candidate has A = 0 and is rejected whatever u. Any
    other back-off stage j is first tested against a bound, in two tiers.
    ``fwd_lo`` is a lower bound on the origin's forward weight: stage one's
    weight, then per stage one log(1 - A) and one kernel density, with the
    exact A of a stage decided exactly (``fwd_lo`` is then the exact
    weight) and e^bound for a stage a bound rejected, whose A is at most
    that. The reverse weight without its nested log(1 - A) terms,
    log p(y_j) plus y_j's j kernel densities (of ``pts[1..j-1]``, then of
    the origin) summed in the table's order, is at least the exact one,
    also after rounding, as float addition is monotone. The first
    tier puts in place of each density of ``pts[1..j-1]`` its kernel's
    log_norm - n log s (the second float of ``kernel``), which is at least
    that density, log_norm - q / 2 with q >= 0; so it needs one density,
    the origin's, and its sum is at least the second tier's. In either
    tier log A <= bound = the sum - ``fwd_lo``, and log u >= bound +
    1e-9 (1 + |fwd_lo|) rejects y_j as the exact test would; the margin
    covers the rounding of log, exp and log(1 - e^a). Anything else (a
    tie, u = 0, a NaN, a forward bound of -inf) computes the exact
    ``log_accept``. The tiers' densities are the table's, the ones the
    exact test reads, so none is computed twice, and the decisions, the
    draws and the chain equal the full computation's.
    """
    z_state, log_q = _draw(current, 1.0, current.log_norm, 1.0, prior, model, rng, counters)
    fwd_lo = current.log_post + log_q
    log_a = (-math.inf if _never_accepted(z_state) else _log_ratio(
        fwd_lo, z_state.log_post + _log_density(z_state, current.x, 1.0, z_state.log_norm, 1.0)))
    if rng.random() < math.exp(log_a):
        return z_state, 1
    if policy.max_steps == 0:
        return current, -1
    table = _Transition(current, policy, (z_state,))
    table.dens[0, 0, 1] = log_q
    table.rows[0] = ([(1.0, current.log_norm, 1.0)], [fwd_lo], [log_a])
    for j in range(2, policy.n_stages + 1):
        z_state, log_q = _draw(current, *table.kernel(0, j - 1), prior, model, rng, counters)
        table.pts.append(z_state)
        table.dens[0, j - 1, j] = log_q
        u = rng.random()
        # log_a is the previous stage's log acceptance, or a bound above it
        fwd_lo = fwd_lo + _log1m_exp(log_a) + log_q
        if _never_accepted(z_state):
            log_a = -math.inf
            continue
        rev_origin = table.density(j, j - 1, 0)
        for tier in range(2):
            rev_hi = z_state.log_post
            for h in range(1, j):
                rev_hi += table.density(j, h - 1, h) if tier else table.kernel(j, h - 1)[1]
            bound = rev_hi + rev_origin - fwd_lo
            if u > 0.0 and math.log(u) >= bound + 1e-9 * (1.0 + abs(fwd_lo)):
                break
        else:
            log_a = table.log_accept(0, j)
            if u < math.exp(log_a):
                return z_state, j
            fwd_lo = table.path(0, j, j)
            continue
        log_a = bound
    return current, -1
