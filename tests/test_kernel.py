import copy
import decimal
import itertools
import math
import re
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.stats import multivariate_normal

from gnmh.cli import exp_series_datagen
import gnmh.kernel
from gnmh.kernel import (
    BackoffPolicy,
    _Transition,
    _log1m_exp,
    accept_prob,
    cubic_minimizer,
    dynamic_gamma,
    step,
)
from gnmh.errors import InvalidPolicy
from gnmh.model import (
    ModelHandle,
    exp_series_handle,
    quickstart_handle,
    simple2d_handle,
)
from gnmh.posterior import GaussianPrior, point_state

from _oracle import linear_handle, proposal


def hermite(c, t):
    """Independent cubic Hermite evaluation on [0, 1]; ``c`` is
    ``(phi0, phi1, dphi0, dphi1)``."""
    t = np.asarray(t)
    h00 = 2 * t**3 - 3 * t**2 + 1
    h10 = t**3 - 2 * t**2 + t
    h01 = -2 * t**3 + 3 * t**2
    h11 = t**3 - t**2
    phi0, phi1, dphi0, dphi1 = c
    return phi0 * h00 + dphi0 * h10 + phi1 * h01 + dphi1 * h11


# ---------------------------------------------------------------------------
# policy
# ---------------------------------------------------------------------------


def test_policy_validation():
    with pytest.raises(InvalidPolicy):
        BackoffPolicy(mode="static", max_steps=2, factor=1.5)
    with pytest.raises(InvalidPolicy):
        BackoffPolicy(mode="none", max_steps=3)
    with pytest.raises(InvalidPolicy):
        BackoffPolicy(mode="weird", max_steps=1)
    with pytest.raises(InvalidPolicy):
        BackoffPolicy.static(2, -0.1)
    for build in (lambda: BackoffPolicy.static(1.5, 0.5), lambda: BackoffPolicy.dynamic(2.0),
                  lambda: BackoffPolicy(mode="static", max_steps="2"),
                  lambda: BackoffPolicy.static(True, 0.5), lambda: BackoffPolicy.dynamic(True),
                  lambda: BackoffPolicy.static(0.0, 0.5), lambda: BackoffPolicy.dynamic(False),
                  lambda: BackoffPolicy(mode="none", max_steps=False)):
        with pytest.raises(InvalidPolicy, match="max_steps must be an integer"):
            build()
    with pytest.raises(InvalidPolicy, match="max_steps must be at least 0, got -1"):
        BackoffPolicy.dynamic(-1)
    with pytest.raises(InvalidPolicy, match="factor must be a number in \\(0, 1\\), got '0.5'"):
        BackoffPolicy.static(2, "0.5")
    assert BackoffPolicy.static(np.int64(2), 0.5).n_stages == 3
    assert BackoffPolicy.static(0, 0.3).mode == "none"
    assert BackoffPolicy.dynamic(0).mode == "none"


@pytest.mark.parametrize("mode, max_steps", [("none", 0), ("static", 2), ("dynamic", 2)])
@pytest.mark.parametrize("factor", ["x", math.nan, 0.0, 1.5, True])
def test_policy_judges_its_factor_in_every_mode(mode, max_steps, factor):
    # a factor is stored in every checkpoint, so every mode refuses one that
    # is not a real number in (0, 1), naming it
    with pytest.raises(InvalidPolicy,
                       match=f"factor must be a number in \\(0, 1\\), got {re.escape(repr(factor))}$"):
        BackoffPolicy(mode=mode, max_steps=max_steps, factor=factor)
    assert BackoffPolicy(mode=mode, max_steps=max_steps, factor=np.float64(0.25)).factor == 0.25


@pytest.mark.parametrize("mode, max_steps", [("none", 0), ("static", 2), ("dynamic", 2)])
@pytest.mark.parametrize("alpha", [1.5, 0, 3, "2", math.nan, True])
def test_policy_takes_only_the_two_mean_exponents(mode, max_steps, alpha):
    # the paper's kernel (1) and the default (2) are the only exponents the
    # tests run, so no other is accepted, in any mode
    with pytest.raises(InvalidPolicy,
                       match=f"alpha must be 1 or 2, got {re.escape(repr(alpha))}$"):
        BackoffPolicy(mode=mode, max_steps=max_steps, alpha=alpha)
    for alpha in (1, 2, 1.0, np.int64(2)):
        assert BackoffPolicy(mode=mode, max_steps=max_steps, alpha=alpha).alpha == alpha


@pytest.mark.parametrize("factor", [2.0, "x", math.nan, True, 0.0])
def test_static_judges_its_factor_at_zero_steps(factor):
    # zero steps is plain Metropolis, but a factor refused at any depth is refused here too
    with pytest.raises(InvalidPolicy,
                       match=f"factor must be a number in \\(0, 1\\), got {re.escape(repr(factor))}$"):
        BackoffPolicy.static(0, factor)


def test_zero_step_shortcuts_equal_none():
    none = BackoffPolicy.none()
    for zero in (0, np.int64(0)):
        assert BackoffPolicy.static(zero, 0.3) == none == BackoffPolicy.dynamic(zero)
    assert repr(BackoffPolicy.static(0, 0.3)) == repr(none) == repr(BackoffPolicy.dynamic(0))


@pytest.mark.parametrize("build, refused", [
    (lambda k: BackoffPolicy.static(k, 0.1), 154),
    (lambda k: BackoffPolicy.static(k, 0.5), 512),
    (BackoffPolicy.dynamic, 119),   # each dynamic factor is at least t_lo = 0.05
], ids=["static-0.1", "static-0.5", "dynamic"])
def test_policy_refuses_a_depth_whose_scale_squared_is_not_normal(build, refused):
    # the deepest kernel's scale, factor ** max_steps, must be at least
    # 2**-511, so that its square is a normal float
    assert build(refused - 1).max_steps == refused - 1
    for k in (refused, 10 * refused, 10 ** 400):
        with pytest.raises(InvalidPolicy, match=f"max_steps = {k} back-offs .* below 2\\*\\*-511"):
            build(k)


# ---------------------------------------------------------------------------
# cubic minimizer
# ---------------------------------------------------------------------------


def test_cubic_minimum_at_right_endpoint_rejected():
    assert cubic_minimizer(1.0, 0.0, -2.0, 0.0) is None


def test_cubic_symmetric_quadratic():
    assert cubic_minimizer(0.25, 0.25, -1.0, 1.0) == pytest.approx(0.5)


def test_cubic_t3_minus_2t2_plus_t():
    # stationary points at 1/3 (max) and 1 (min); 1 is not interior
    assert cubic_minimizer(0.0, 0.0, 1.0, 0.0) is None


def test_cubic_flat_ends_without_slope_degenerate():
    # d1 = d2 = 0, so the closed form divides by zero; there is no minimizer
    assert cubic_minimizer(1.0, 1.0, 0.0, 0.0) is None


def test_cubic_against_grid_oracle():
    rng = np.random.default_rng(2)
    grid = np.linspace(0.0, 1.0, 1_000_001)
    checked = 0
    while checked < 200:
        a, b, c_, d = rng.normal(size=4) * 2
        t = cubic_minimizer(phi0=d, phi1=a + b + c_ + d, dphi0=c_,
                            dphi1=3 * a + 2 * b + c_)
        if t is None:
            continue
        vals = ((a * grid + b) * grid + c_) * grid + d
        t_grid = grid[np.argmin(vals)]
        # discard cases where the boundary beats the interior minimum
        if t_grid in (0.0, 1.0):
            continue
        assert abs(t - t_grid) < 1e-4
        checked += 1


def test_cubic_result_is_local_minimum_of_interpolant():
    rng = np.random.default_rng(9)
    found = 0
    while found < 100:
        data = rng.normal(size=4)
        t = cubic_minimizer(*data)
        if t is None:
            continue
        v = hermite(data, t)
        assert v <= hermite(data, min(t + 1e-3, 1.0)) + 1e-12
        assert v <= hermite(data, max(t - 1e-3, 0.0)) + 1e-12
        found += 1


# ---------------------------------------------------------------------------
# dynamic gamma
# ---------------------------------------------------------------------------


def _states(prior, handle, points):
    return [point_state(prior, handle, p) for p in points]


def test_dynamic_gamma_symmetric_well():
    # f(x) = x, from -1 toward 1: phi(t) = (2t-1)^2, minimum at 0.5
    h = ModelHandle(lambda x, a: (1, [x[0]], [[1.0]]), None, dim_in=1)
    prior = GaussianPrior.create([0.0], [[1.0]])
    a, b = _states(prior, h, [[-1.0], [1.0]])
    assert dynamic_gamma(a, b) == pytest.approx(0.5)


def test_dynamic_gamma_linear_matches_quadratic_minimizer():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(4, 2))
    b_vec = rng.normal(size=4)
    h = linear_handle(A, b_vec)
    prior = GaussianPrior.flat([0.0, 0.0])
    checked = 0
    while checked < 30:
        x = rng.normal(size=2)
        z = rng.normal(size=2)
        direction = z - x
        num = -float((A @ x - b_vec) @ (A @ direction))
        den = float((A @ direction) @ (A @ direction))
        t_true = num / den
        if not 0.0 < t_true < 1.0:
            continue
        xs, zs = _states(prior, h, [x, z])
        got = dynamic_gamma(xs, zs)
        expected = min(max(t_true, BackoffPolicy.t_lo), BackoffPolicy.t_hi)
        assert got == pytest.approx(expected, abs=1e-10)
        checked += 1


def test_dynamic_gamma_fallback_outside_domain():
    h = ModelHandle(lambda x, a: (x[0] > 0, [x[0]], [[1.0]]), None, dim_in=1)
    prior = GaussianPrior.flat([0.0])
    a = point_state(prior, h, [1.0])
    z = point_state(prior, h, [-1.0])
    assert dynamic_gamma(a, z) == pytest.approx(0.5 * (BackoffPolicy.t_lo + BackoffPolicy.t_hi))


# ---------------------------------------------------------------------------
# acceptance probability
# ---------------------------------------------------------------------------


def _log1m_exp_exact(a):
    # digits enough for 1 - exp(a) to keep 40 of its own, however small
    with decimal.localcontext() as ctx:
        ctx.prec = 40 + max(0, round(-math.log10(-a)))
        return float((1 - decimal.Decimal(a).exp()).ln())


@pytest.mark.parametrize("action", ["error", "default"])
@pytest.mark.parametrize("log_a", [-1e-300, -1e-17, -1e-10, -0.5, math.nextafter(-math.log(2.0), 0.0),
                                   -math.log(2.0), math.nextafter(-math.log(2.0), -1.0), -0.75,
                                   -40.0, -800.0])
def test_log1m_exp_is_accurate_and_quiet_near_zero(log_a, action):
    # 1 - exp(a) cancels as a -> 0, where log(-expm1(a)) keeps full precision
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        got = _log1m_exp(log_a)
    assert caught == []
    assert got == pytest.approx(_log1m_exp_exact(log_a), rel=4 * np.finfo(float).eps, abs=0.0)


def test_single_stage_linear_model_always_one():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(3, 2))
    b = rng.normal(size=3)
    H = np.array([[2.0, 0.3], [0.3, 1.0]])
    prior = GaussianPrior.create([0.2, -0.4], H)
    h = linear_handle(A, b)
    policy = BackoffPolicy.none()
    for _ in range(100):
        x = point_state(prior, h, rng.normal(size=2))
        z = point_state(prior, h, rng.normal(size=2))
        a = accept_prob(x, [z], policy)
        assert abs(a - 1.0) < 1e-12


def test_single_stage_self_move_accepts():
    h = quickstart_handle()
    prior = GaussianPrior.create([0.0], [[1.0]])
    x = point_state(prior, h, [0.7])
    assert accept_prob(x, [x], BackoffPolicy.none()) == 1.0


def test_candidate_outside_domain_rejected():
    h = ModelHandle(lambda x, a: (x[0] > 0, [x[0]], [[1.0]]), None, dim_in=1)
    prior = GaussianPrior.flat([0.0])
    x = point_state(prior, h, [1.0])
    z = point_state(prior, h, [-1.0])
    assert accept_prob(x, [z], BackoffPolicy.none()) == 0.0


def test_singular_candidate_rejected_with_warning():
    h = quickstart_handle()
    prior = GaussianPrior.flat([0.0])
    x = point_state(prior, h, [1.0])
    z = point_state(prior, h, [0.0])  # J=0 under flat prior: singular
    assert accept_prob(x, [z], BackoffPolicy.none()) == 0.0


def _transcribed_two_stage(prior_mean, prior_prec, handle, x, z1, z2, gamma2, alpha):
    """Two-stage acceptance written directly from densities, sharing no code
    with the kernel module (scipy multivariate normals, explicit inverses).
    The second stage's kernel moves its mean as gamma2 ** alpha."""

    H = np.asarray(prior_prec, float)
    m = np.asarray(prior_mean, float)

    def p(u):
        _, f, _ = handle.fn(np.asarray(u, float), handle.args)
        f = np.asarray(f, float).reshape(-1)
        d = np.asarray(u, float) - m
        return float(np.exp(-0.5 * d @ H @ d - 0.5 * f @ f))

    def kernel_at(u):
        _, f, J = handle.fn(np.asarray(u, float), handle.args)
        f = np.asarray(f, float).reshape(-1)
        J = np.asarray(J, float).reshape(f.shape[0], len(u))
        P = H + J.T @ J
        mu = np.linalg.solve(P, H @ m - J.T @ f + J.T @ J @ np.asarray(u, float))
        return mu, P

    def k1(u, v):
        mu, P = kernel_at(u)
        return multivariate_normal(mean=mu, cov=np.linalg.inv(P)).pdf(v)

    def k2(u, v):
        mu, P = kernel_at(u)
        mu_d = np.asarray(u, float) + gamma2 ** alpha * (mu - np.asarray(u, float))
        cov_d = gamma2 ** 2 * np.linalg.inv(P)
        return multivariate_normal(mean=mu_d, cov=cov_d).pdf(v)

    def a1(u, v):
        return min(1.0, p(v) * k1(v, u) / (p(u) * k1(u, v)))

    if a1(x, z1) >= 1.0:
        # stage 1 would have accepted z1; the two-stage trajectory is
        # unrealizable and its acceptance value is immaterial
        return None
    num = p(z2) * k1(z2, z1) * (1.0 - a1(z2, z1)) * k2(z2, x)
    den = p(x) * k1(x, z1) * (1.0 - a1(x, z1)) * k2(x, z2)
    if den == 0.0 or (num == 0.0 and a1(z2, z1) < 1.0):
        # direct-density arithmetic underflowed; no verdict
        return None
    return min(1.0, num / den)


def test_two_stage_matches_transcribed_formula_static():
    h = quickstart_handle(y=1.0, sigma=0.5)
    prior = GaussianPrior.create([0.0], [[1.0]])
    for alpha in (1, 2):
        rng = np.random.default_rng(8)
        policy = BackoffPolicy.static(1, 0.3, alpha)
        compared = 0
        for _ in range(60):
            pts = [point_state(prior, h, rng.uniform(-1.8, 1.8, 1)) for _ in range(3)]
            want = _transcribed_two_stage(
                [0.0], [[1.0]], h, pts[0].x, pts[1].x, pts[2].x, gamma2=0.3, alpha=alpha
            )
            if want is None:
                continue
            got = accept_prob(pts[0], pts[1:], policy)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
            compared += 1
        assert compared >= 20


def test_two_stage_matches_transcribed_formula_dynamic():
    h = quickstart_handle(y=1.0, sigma=0.5)
    prior = GaussianPrior.create([0.0], [[1.0]])
    for alpha in (1, 2):
        rng = np.random.default_rng(18)
        policy = BackoffPolicy.dynamic(1, alpha)
        compared = 0
        for _ in range(400):
            pts = [point_state(prior, h, rng.uniform(-1.8, 1.8, 1)) for _ in range(3)]
            # the transcription uses one gamma for both directions; compare
            # only on instances where the cubic rule gives the same value both
            # ways
            gamma2 = dynamic_gamma(pts[0], pts[1])
            gamma2_rev = dynamic_gamma(pts[2], pts[1])
            if abs(gamma2 - gamma2_rev) > 1e-13:
                continue
            want = _transcribed_two_stage(
                [0.0], [[1.0]], h, pts[0].x, pts[1].x, pts[2].x, gamma2=gamma2, alpha=alpha
            )
            if want is None:
                continue
            got = accept_prob(pts[0], pts[1:], policy)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
            compared += 1
        assert compared >= 5


def test_detailed_balance_single_stage():
    rng = np.random.default_rng(12)
    h = quickstart_handle()
    prior = GaussianPrior.create([0.0], [[1.0]])
    policy = BackoffPolicy.none()
    for _ in range(50):
        a = point_state(prior, h, rng.uniform(-2, 2, 1))
        b = point_state(prior, h, rng.uniform(-2, 2, 1))
        lhs = (a.log_post + proposal(a).log_pdf(b.x)
               + np.log(accept_prob(a, [b], policy)))
        rhs = (b.log_post + proposal(b).log_pdf(a.x)
               + np.log(accept_prob(b, [a], policy)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def _log_flow(origin, mids, cand, policy):
    """log of p(origin) K1(origin, z1)[1 - A] ... Kk(origin, cand) A(...)."""
    h = len(mids) + 1
    t = _Transition(origin, policy, (*mids, cand))
    return t.path(0, h, h) + t.log_accept(0, h)


# the paper's kernel, then the default one
@pytest.mark.parametrize("policy", [BackoffPolicy.static(1, 0.3, alpha=1),
                                    BackoffPolicy.dynamic(1, alpha=1),
                                    BackoffPolicy.static(1, 0.3), BackoffPolicy.dynamic(1)])
def test_flow_balance_two_stage_quickstart(policy):
    rng = np.random.default_rng(21)
    h = quickstart_handle()
    prior = GaussianPrior.create([0.0], [[1.0]])
    for _ in range(50):
        pts = [point_state(prior, h, rng.uniform(-2, 2, 1)) for _ in range(3)]
        fwd = _log_flow(pts[0], [pts[1]], pts[2], policy)
        rev = _log_flow(pts[2], [pts[1]], pts[0], policy)
        if fwd == -np.inf and rev == -np.inf:
            continue
        assert fwd == pytest.approx(rev, abs=1e-10)


@pytest.mark.parametrize("policy", [BackoffPolicy.static(2, 0.2, alpha=1),
                                    BackoffPolicy.dynamic(2, alpha=1),
                                    BackoffPolicy.static(2, 0.2), BackoffPolicy.dynamic(2)])
def test_flow_balance_two_stage_exp_series(policy):
    rng = np.random.default_rng(31)
    h = exp_series_handle(exp_series_datagen(seed=1), n_terms=2)
    prior = GaussianPrior.create([4.0, 2.0, 0.5, 1.0], 0.5 * np.eye(4))
    for _ in range(50):
        pts = [point_state(prior, h, rng.uniform(0.3, 3.0, 4)) for _ in range(3)]
        fwd = _log_flow(pts[0], [pts[1]], pts[2], policy)
        rev = _log_flow(pts[2], [pts[1]], pts[0], policy)
        if fwd == -np.inf and rev == -np.inf:
            continue
        assert fwd == pytest.approx(rev, abs=1e-10)


def _problem(name):
    """(handle, prior, x0) of a bundled example."""
    if name == "quickstart":
        return quickstart_handle(), GaussianPrior.create([0.0], [[1.0]]), [0.5]
    x0 = [4.0, 2.0, 0.5, 1.0]
    return (exp_series_handle(exp_series_datagen(seed=14), n_terms=2),
            GaussianPrior.create(x0, 0.5 * np.eye(4)), x0)


def _trajectories(name, policy, n_stages, seed):
    """Back-off trajectories of ``n_stages`` points each, without end.

    Origins are states of a short dynamic(2) chain of the paper's kernel;
    each stage's point is drawn from the kernel the sampler would use there,
    so the points sit where the sampler actually proposes (uniform box draws
    rarely give a finite flow beyond two stages).
    """
    h, prior, x0 = _problem(name)
    rng = np.random.default_rng(seed)
    cur = point_state(prior, h, x0)
    origins = []
    for _ in range(100):
        cur, stage = step(cur, BackoffPolicy.dynamic(2, alpha=1), prior, h, rng)
        if stage != -1:
            origins.append(cur)
    while True:
        origin = origins[rng.integers(len(origins))]
        points = ()
        for _ in range(n_stages):
            scale = _Transition(origin, policy, points).kernel(0, len(points))[0]
            xi = rng.standard_normal(origin.x.shape[0])
            points += (point_state(prior, h, _draw(origin, scale, xi, policy.alpha)),)
        yield origin, points


def _chain_trajectories(name, policy, n_stages, count, seed):
    """The first ``count`` of :func:`_trajectories`."""
    return list(itertools.islice(_trajectories(name, policy, n_stages, seed), count))


# the paper's kernel, then the default one
DEEP_POLICIES = {"static": BackoffPolicy.static(5, 0.3, alpha=1),
                 "dynamic": BackoffPolicy.dynamic(5, alpha=1),
                 "static-alpha2": BackoffPolicy.static(5, 0.3),
                 "dynamic-alpha2": BackoffPolicy.dynamic(5)}


@pytest.mark.parametrize("n_stages", [3, 4, 5, 6])
@pytest.mark.parametrize("policy", list(DEEP_POLICIES.values()), ids=list(DEEP_POLICIES))
@pytest.mark.parametrize("name", ["quickstart", "expseries"])
def test_flow_balance_deep_backoff(name, policy, n_stages):
    # x -> y1 -> ... -> z balances z -> y1 -> ... -> x, same intermediate
    # order. A kernel whose early stages accept more often gives fewer finite
    # flows per trajectory, so at least 60 trajectories are drawn, and more
    # until 10 flows are finite
    finite = 0
    for drawn, (origin, points) in enumerate(_trajectories(name, policy, n_stages, n_stages)):
        if drawn >= 600 or (drawn >= 60 and finite >= 10):
            break
        fwd = _log_flow(origin, points[:-1], points[-1], policy)
        rev = _log_flow(points[-1], points[:-1], origin, policy)
        if fwd == -np.inf and rev == -np.inf:
            continue
        assert fwd == pytest.approx(rev, abs=1e-10)
        finite += 1
    assert finite >= 10


def _draw(anchor, scale, xi, alpha):
    """The kernel's draw x + s L^-T (s^(alpha - 1) v + xi) at ``anchor``,
    dilated by the scale s, written out."""
    return anchor.x + scale * solve_triangular(anchor.chol, scale ** (alpha - 1) * anchor.v + xi,
                                               lower=True, trans="T", check_finite=False)


class _ScaledKernel(NamedTuple):
    """The table's form of a kernel: the anchor's point x, factor L and
    whitened step v, dilated toward x by a scalar scale s, its step shrunk by
    s^(alpha - 1). Its ``dilate`` and ``log_pdf`` are the table's formulas,
    written out here."""

    scale: float
    shrink: float
    x: np.ndarray
    v: np.ndarray
    chol: np.ndarray
    log_norm: float

    def log_pdf(self, y):
        r = (y - self.x).dot(self.chol) / self.scale - self.shrink * self.v
        return self.log_norm - 0.5 * float(r.dot(r))

    def dilate(self, center, scale, alpha):
        # from the undilated kernel only, toward its own point, as the
        # reference calls it
        assert center is self.x
        return _ScaledKernel(scale, scale ** (alpha - 1), self.x, self.v, self.chol,
                             self.log_norm - len(center) * math.log(scale))


def _dilated(kernel, center, scale, alpha):
    """``kernel``, a ``_ScaledKernel`` or a ``PrecisionGaussian``, dilated
    toward ``center`` by ``scale`` with its mean moved as scale ** alpha.
    ``PrecisionGaussian.dilate`` is the paper's dilation, whose mean moves as
    the scale; the mean exponent's shift is made here."""
    if isinstance(kernel, _ScaledKernel):
        return kernel.dilate(center, scale, alpha)
    return kernel.dilate(center, scale)._replace(
        mean=center + scale ** alpha * (kernel.mean - center))


def _scaled_proposal(record):
    if record.chol is None:
        return None
    return _ScaledKernel(1.0, 1.0, record.x, record.v, record.chol, record.log_norm)


def _reference_log_accept(origin, points, policy, base=_scaled_proposal):
    """Unmemoized trajectory-balanced log acceptance: every kernel is rebuilt
    and every nested acceptance recomputed from scratch, forward and reverse
    sides written out separately. ``base`` gives a point's undilated kernel,
    which the reference dilates with ``_dilated`` and scores with its
    ``log_pdf``: by default the table's scalar-scale formulas, else, with
    ``proposal``, the ``PrecisionGaussian`` ones, which dilate the precision
    matrix."""

    def kernels(anchor, visited):
        out, scale = [base(anchor)], 1.0
        for pt in visited[:-1]:
            if policy.mode == "static":
                scale *= policy.factor
            else:
                scale *= dynamic_gamma(anchor, pt)
            out.append(_dilated(base(anchor), anchor.x, scale, policy.alpha))
        return out

    cand = points[-1]
    if cand.log_post == -np.inf or base(cand) is None:
        return -np.inf
    k = len(points)
    log_fwd = origin.log_post
    for i, (kern, pt) in enumerate(zip(kernels(origin, points), points)):
        log_fwd += kern.log_pdf(pt.x)
        if i < k - 1:
            log_fwd += _log1m_exp(_reference_log_accept(origin, points[: i + 1], policy, base))
    rev_points = points[:-1] + (origin,)
    log_rev = cand.log_post
    for i, (kern, pt) in enumerate(zip(kernels(cand, rev_points), rev_points)):
        log_rev += kern.log_pdf(pt.x)
        if i < k - 1:
            log_rev += _log1m_exp(_reference_log_accept(cand, rev_points[: i + 1], policy, base))
    if log_rev == -np.inf:
        return -np.inf
    if log_fwd == -np.inf:
        return 0.0
    log_ratio = log_rev - log_fwd
    if np.isnan(log_ratio):
        return -np.inf
    return min(0.0, log_ratio)


@pytest.mark.parametrize("policy", [BackoffPolicy.none(), BackoffPolicy.static(3, 0.3, alpha=1),
                                    BackoffPolicy.dynamic(3, alpha=1), BackoffPolicy.static(3, 0.3),
                                    BackoffPolicy.dynamic(3)],
                         ids=["none", "static", "dynamic", "static-alpha2", "dynamic-alpha2"])
@pytest.mark.parametrize("name", ["quickstart", "expseries"])
def test_memoized_acceptance_equals_reference(name, policy):
    n_stages = policy.n_stages
    finite_last = 0
    for origin, points in _chain_trajectories(name, policy, n_stages, 30, seed=5):
        # one table grows stage by stage, as in step
        table = _Transition(origin, policy)
        for j in range(1, n_stages + 1):
            table.pts.append(points[j - 1])
            got = table.log_accept(0, j)
            assert got == _reference_log_accept(origin, points[:j], policy)
        finite_last += got > -np.inf
    assert finite_last >= 3


# the benchmark's depth under the paper's kernel, then the default one
FOUR_STAGE_POLICIES = {"static": BackoffPolicy.static(4, 0.5, alpha=1),
                       "dynamic": BackoffPolicy.dynamic(4, alpha=1),
                       "static-alpha2": BackoffPolicy.static(4, 0.5),
                       "dynamic-alpha2": BackoffPolicy.dynamic(4)}


@pytest.mark.parametrize("policy", FOUR_STAGE_POLICIES.values(), ids=FOUR_STAGE_POLICIES.keys())
@pytest.mark.parametrize("name", ["quickstart", "expseries"])
def test_table_acceptance_equals_reference_five_stages(name, policy):
    # the benchmark's depth: one table grows stage by stage, as in step
    finite = [0] * 5
    for origin, points in _chain_trajectories(name, policy, 5, 30, seed=8):
        table = _Transition(origin, policy)
        for j, pt in enumerate(points, start=1):
            table.pts.append(pt)
            got = table.log_accept(0, j)
            assert got == _reference_log_accept(origin, points[:j], policy)
            finite[j - 1] += got > -np.inf
    assert min(finite) >= 1


@pytest.mark.parametrize("policy", FOUR_STAGE_POLICIES.values(), ids=FOUR_STAGE_POLICIES.keys())
@pytest.mark.parametrize("name", ["quickstart", "expseries"])
def test_table_acceptance_near_the_dilated_precision_formula(name, policy):
    # PrecisionGaussian's dilate and log_pdf divide the precision matrix by
    # the squared scale before the quadratic form, the table divides the
    # form: the two round apart in the last bits only. The nested
    # log(1 - A) terms can magnify that: the default kernel's worst, 3.4e-12,
    # is on expseries static(4, 0.5) at stage 5, where the log acceptances
    # differ by 3.4e-12 over path weights of about 20
    rel = 1e-12 if policy.alpha == 1 else 1e-11
    compared = 0
    for origin, points in _chain_trajectories(name, policy, 5, 30, seed=8):
        table = _Transition(origin, policy)
        for j, pt in enumerate(points, start=1):
            table.pts.append(pt)
            got = math.exp(table.log_accept(0, j))
            want = math.exp(_reference_log_accept(origin, points[:j], policy, base=proposal))
            assert got == pytest.approx(want, rel=rel, abs=0.0)
            compared += 0.0 < want < 1.0
    assert compared >= 10


def test_static_stage_scales_exact():
    h = quickstart_handle()
    prior = GaussianPrior.create([0.0], [[1.0]])
    rng = np.random.default_rng(2)
    pts = [point_state(prior, h, rng.uniform(-1.5, 1.5, 1)) for _ in range(4)]
    base = proposal(pts[0])
    for alpha in (1, 2):
        policy = BackoffPolicy.static(3, 0.25, alpha)
        for i in range(3):
            table = _Transition(pts[0], policy, pts[1:])
            scale, log_norm, shrink = table.kernel(0, i)
            assert scale == 0.25 ** i and shrink == 0.25 ** (i * (alpha - 1))
            ref = base if i == 0 else _dilated(base, pts[0].x, 0.25 ** i, alpha)
            assert log_norm == ref.log_norm
            for b in (1, 2, 3):
                want = _ScaledKernel(scale, shrink, pts[0].x, pts[0].v, pts[0].chol,
                                     log_norm).log_pdf(pts[b].x)
                assert table.density(0, i, b) == want
                assert want == pytest.approx(ref.log_pdf(pts[b].x), rel=1e-12)


def test_acceptance_never_nan_on_fuzzed_inputs():
    rng = np.random.default_rng(77)
    h = quickstart_handle()
    prior = GaussianPrior.create([0.0], [[1.0]])
    for policy in (BackoffPolicy.none(), BackoffPolicy.static(2, 0.1),
                   BackoffPolicy.dynamic(2)):
        for _ in range(60):
            k = 1 + int(rng.integers(0, policy.n_stages))
            pts = [point_state(prior, h, rng.uniform(-30, 30, 1))
                   for _ in range(k + 1)]
            a = accept_prob(pts[0], pts[1:], policy)
            assert 0.0 <= a <= 1.0
            assert not np.isnan(a)


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------


def test_step_linear_model_always_accepts_first_stage():
    rng = np.random.default_rng(6)
    h = linear_handle(np.array([[1.0, 0.2], [0.0, 1.5]]), np.array([0.3, -0.7]))
    prior = GaussianPrior.create([0.0, 0.0], np.eye(2))
    cur = point_state(prior, h, [2.0, 2.0])
    for policy in (BackoffPolicy.none(), BackoffPolicy.static(3, 0.5),
                   BackoffPolicy.dynamic(2)):
        for _ in range(50):
            nxt, stage = step(cur, policy, prior, h, rng)
            assert stage == 1
            cur = nxt


def test_step_rejection_returns_current_and_minus_one():
    h = quickstart_handle()
    prior = GaussianPrior.create([0.0], [[1.0]])
    cur = point_state(prior, h, [1.0])
    policy = BackoffPolicy.none()
    rng = np.random.default_rng(0)
    saw_reject = False
    for _ in range(200):
        nxt, stage = step(cur, policy, prior, h, rng)
        if stage == -1:
            assert nxt is cur
            saw_reject = True
            break
        cur = nxt
    assert saw_reject


def test_step_consumes_normals_then_uniform():
    # replaying the generator stream must reproduce the proposal exactly
    h = quickstart_handle()
    prior = GaussianPrior.create([0.0], [[1.0]])
    cur = point_state(prior, h, [0.9])
    rng = np.random.default_rng(123)
    nxt, stage = step(cur, BackoffPolicy.none(), prior, h, rng)

    rng2 = np.random.default_rng(123)
    z = _draw(cur, 1.0, rng2.standard_normal(1), 2)
    u = rng2.random()
    a = accept_prob(cur, [point_state(prior, h, z)], BackoffPolicy.none())
    if u < a:
        np.testing.assert_array_equal(nxt.x, z)
    else:
        assert stage == -1


def _kinked_handle():
    """f = x, J = 1 for x > 0, and f = 0, J = 0 at x <= 0, where under a flat
    prior the Gauss-Newton precision is singular."""
    def kinked(x, args):
        if x[0] > 0:
            return 1, [x[0]], [[1.0]]
        return 1, [0.0], [[0.0]]

    return ModelHandle(kinked, None, dim_in=1)


def _wall_handle():
    """The domain x <= 0.5, and a residual whose Gauss-Newton mean from
    inside is near x = 10, with a standard deviation of 0.01: a candidate
    is out of the domain until the kernel is dilated far toward its anchor."""
    return ModelHandle(lambda x, a: (x[0] <= 0.5, [(x[0] - 10.0) / 0.01], [[100.0]]),
                       None, dim_in=1)


def test_step_counts_each_singular_proposal_once():
    # stage 1 draws x <= 0, where the Gauss-Newton precision is singular;
    # stage 2 re-tests that point inside the nested acceptances, and must
    # not count it again
    h = _kinked_handle()
    prior = GaussianPrior.flat([0.0])
    cur = point_state(prior, h, [0.2])
    counters = {}
    _, stage = step(cur, BackoffPolicy.static(1, 0.5), prior, h,
                    np.random.default_rng(4), counters)
    assert stage == 2
    assert counters["singular_proposals"] == 1


def test_step_runs_the_deepest_static_policy_allowed():
    # 153 back-offs by 0.1 shrink the scale to 1e-153, and its square,
    # about 1e-306, is still a normal float, as is the step's shrink s^alpha.
    # Each transition below rejects at every stage, so the deepest kernel
    # draws and scores: the paper's kernel cannot leave the wall's point,
    # and no kernel leaves a domain of one point
    prior = GaussianPrior.flat([0.0])

    def point():
        return ModelHandle(lambda x, a: (x[0] == 0.0, [x[0] - 10.0], [[1.0]]), None, dim_in=1)

    for h, alpha in ((_wall_handle(), 1), (point(), 1), (point(), 2)):
        cur = point_state(prior, h, [0.0])
        rng = np.random.default_rng(1)
        for _ in range(3):
            cur, stage = step(cur, BackoffPolicy.static(153, 0.1, alpha), prior, h, rng)
            assert stage == -1
        assert h.call_count == 1 + 3 * 154  # every stage drew a candidate
    deepest = _Transition(cur, BackoffPolicy.static(153, 0.1), (cur,) * 153).kernel(0, 153)
    assert all(x > 2.0 ** -1022 and math.isfinite(x) for x in map(abs, deepest))


def _reference_step(cur, policy, prior, model, rng):
    """One transition that decides every stage with the exact acceptance of
    a table built from the origin and the candidates drawn so far, drawing
    them as ``step`` does: the normals, then one uniform, per stage."""
    table = _Transition(cur, policy)
    for j in range(1, policy.n_stages + 1):
        scale = table.kernel(0, j - 1)[0]
        xi = rng.standard_normal(cur.x.shape[0])
        table.pts.append(point_state(prior, model, _draw(cur, scale, xi, policy.alpha)))
        if rng.random() < math.exp(table.log_accept(0, j)):
            return table.pts[j], j
    return cur, -1


@pytest.mark.parametrize("handle, x0, policy", [
    (_wall_handle, 0.0, BackoffPolicy.static(4, 0.5)),
    (_kinked_handle, 0.2, BackoffPolicy.static(3, 0.5)),
], ids=["out-of-domain", "singular"])
def test_step_rejects_never_accepted_back_off_candidates_as_the_exact_test(
        handle, x0, policy, monkeypatch):
    # a back-off candidate out of the domain, or with a singular proposal, has
    # acceptance 0; step rejects it without a bound or a recursion, and must
    # decide every stage as the exact acceptance does. Each singular
    # candidate is counted once, however many nested acceptances re-test it
    h = handle()
    prior = GaussianPrior.flat([0.0])
    drawn = []

    def recording_point_state(prior_, model_, x):
        drawn.append(point_state(prior_, model_, x))
        return drawn[-1]

    monkeypatch.setattr(gnmh.kernel, "point_state", recording_point_state)
    cur = point_state(prior, h, [x0])
    rng = np.random.default_rng(8)
    counters, never_accepted, singular = {}, 0, 0
    for _ in range(300):
        ref_rng = copy.deepcopy(rng)
        drawn.clear()
        nxt, stage = step(cur, policy, prior, h, rng, counters)
        ref_next, ref_stage = _reference_step(cur, policy, prior, h, ref_rng)
        assert stage == ref_stage
        np.testing.assert_array_equal(nxt.x, ref_next.x)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        never_accepted += sum(y.log_post == -np.inf or y.chol is None for y in drawn[1:])
        singular += sum(y.proposal_failed for y in drawn)
        cur = nxt
    assert never_accepted >= 30  # back-off candidates, stage one's left out
    assert counters.get("singular_proposals", 0) == singular


@pytest.mark.parametrize("policy", FOUR_STAGE_POLICIES.values(), ids=FOUR_STAGE_POLICIES.keys())
@pytest.mark.parametrize("name", ["quickstart", "expseries"])
def test_step_draws_equal_dilated_proposal_samples(name, policy, monkeypatch):
    # every candidate is drawn from the proposal dilated by its stage's
    # cumulative scale, x + scale L^-T (v + xi), bit for bit
    h, prior, x0 = _problem(name)
    drawn, normals = [], []

    def recording_point_state(prior_, model_, x):
        drawn.append(point_state(prior_, model_, x))
        return drawn[-1]

    class RecordingRng:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, n):
            normals.append(self.rng.standard_normal(n))
            return normals[-1]

        def random(self):
            return self.rng.random()

    monkeypatch.setattr(gnmh.kernel, "point_state", recording_point_state)
    rng = RecordingRng(np.random.default_rng(3))
    cur = point_state(prior, h, x0)
    stages_seen = set()
    for _ in range(150):
        drawn.clear()
        normals.clear()
        nxt, _ = step(cur, policy, prior, h, rng)
        scale = 1.0
        for j, (z, y) in enumerate(zip(normals, drawn)):
            if j > 0:
                if policy.mode == "static":
                    scale *= policy.factor
                else:
                    scale *= dynamic_gamma(cur, drawn[j - 1])
            np.testing.assert_array_equal(y.x, _draw(cur, scale, z, policy.alpha))
            stages_seen.add(j + 1)
        cur = nxt
    assert stages_seen == {1, 2, 3, 4, 5}


@pytest.mark.parametrize("policy", FOUR_STAGE_POLICIES.values(), ids=FOUR_STAGE_POLICIES.keys())
@pytest.mark.parametrize("name", ["quickstart", "expseries"])
def test_drawn_density_equals_the_dilated_proposal_density(name, policy, monkeypatch):
    # step takes the drawing kernel's density of each candidate from its
    # normals, log_norm - n log s - xi.xi / 2; it must equal the density of
    # the proposal dilated by the stage's scale, formed with @ from the
    # precision matrix. The two terms can cancel toward 0, where the
    # reference's own rounding of y - mean is larger than 1e-12 of the
    # difference, so the tolerance is 1e-12 of the terms' magnitudes
    h, prior, x0 = _problem(name)
    draws = []
    draw = gnmh.kernel._draw

    def recording_draw(anchor, scale, *args):
        z_state, log_q = draw(anchor, scale, *args)
        draws.append((anchor, scale, z_state, log_q))
        return z_state, log_q

    monkeypatch.setattr(gnmh.kernel, "_draw", recording_draw)
    rng = np.random.default_rng(4)
    cur = point_state(prior, h, x0)
    scales = set()
    for _ in range(150):
        draws.clear()
        nxt, _ = step(cur, policy, prior, h, rng)
        for anchor, scale, z_state, log_q in draws:
            assert anchor is cur
            kern = _dilated(proposal(cur), cur.x, scale, policy.alpha)
            terms = abs(kern.log_norm) + abs(kern.log_norm - log_q)
            assert log_q == pytest.approx(kern.log_pdf(z_state.x), rel=0.0, abs=1e-12 * terms)
            scales.add(scale)
        cur = nxt
    assert 1.0 in scales and len(scales) >= 5  # every stage was drawn


# ---------------------------------------------------------------------------
# affine invariance
# ---------------------------------------------------------------------------


def _affine_pair(name):
    """A bundled example as (handle, prior, x0), its affine image under
    x = A u + b as (handle, prior), and (A, b).

    The image is g(u) = f(A u + b) with Jacobian J_f A, prior mean
    A^-1 (m - b) and precision A^T H A. Its diagonal is small, so distances
    in u are several times those in x.
    """
    if name == "simple2d":
        handle, prior, x0 = simple2d_handle(), GaussianPrior.create([0.0, 0.0], np.eye(2)), [1.0, 0.0]
    else:
        handle, prior, x0 = _problem(name)
    n = len(x0)
    rng = np.random.default_rng(40 + n)
    A = np.triu(rng.uniform(-0.3, 0.3, (n, n)), 1) + np.diag(rng.uniform(0.1, 0.4, n))
    b = rng.uniform(-1.0, 1.0, n)

    def image(u, args):
        inside, f, jac = handle.fn(A @ u + b, handle.args)
        if not inside:
            return inside, f, jac
        f = np.asarray(f, float).reshape(-1)
        return inside, f, np.asarray(jac, float).reshape(f.shape[0], n) @ A

    image_prior = GaussianPrior.create(np.linalg.solve(A, prior.mean - b),
                                       A.T @ prior.precision @ A)
    return (handle, prior, x0), (ModelHandle(image, None, dim_in=n), image_prior), (A, b)


def _policies(*builds):
    """Each back-off ``(id, build)`` under the paper's kernel, as ``id``, and
    under the default one, as ``id-alpha2``: a dict of ids and policies."""
    paper = {name: build(1) for name, build in builds}
    return {"none": BackoffPolicy.none(), **paper,
            **{f"{name}-alpha2": build(2) for name, build in builds}}


AFFINE_POLICIES = _policies(("static1", lambda a: BackoffPolicy.static(1, 0.5, a)),
                            ("static3", lambda a: BackoffPolicy.static(3, 0.5, a)),
                            ("static5", lambda a: BackoffPolicy.static(5, 0.5, a)),
                            ("dynamic2", lambda a: BackoffPolicy.dynamic(2, a)),
                            ("dynamic4", lambda a: BackoffPolicy.dynamic(4, a)))


def _every_stage_ran(stages, policy):
    """Whether the transitions that ended at ``stages`` ran every stage of
    ``policy``: one rejected them all (-1) or, under the default kernel,
    whose deep stages seldom reject (quickstart static(5, 0.5) rejected
    none in 120 transitions), the last stage ended one."""
    return -1 in stages or (policy.alpha == 2 and policy.max_steps > 0
                            and policy.n_stages in stages)


@pytest.mark.parametrize("policy", AFFINE_POLICIES.values(), ids=AFFINE_POLICIES.keys())
@pytest.mark.parametrize("name", ["quickstart", "simple2d", "expseries"])
def test_step_is_affine_equivariant(name, policy):
    # one transition from x, and one from its preimage u = A^-1 (x - b) with a
    # copy of the generator, land on corresponding points at the same stage.
    # A is upper triangular with a positive diagonal, so A^T is lower
    # triangular and A^T L is the Cholesky factor of the image's precision
    # A^T (H + J'J) A whenever L is that of H + J'J: the same standard
    # normals then draw corresponding points, pathwise. Under a full A the
    # image's factor is another square root of that precision, and only
    # the distributions of the draws would correspond.
    (handle, prior, x0), (image, image_prior), (A, b) = _affine_pair(name)
    rng = np.random.default_rng(17)
    cur = point_state(prior, handle, x0)
    stages = set()
    # 120 transitions, and more until every stage of the policy ran
    for i in range(1000):
        if i >= 120 and _every_stage_ran(stages, policy):
            break
        pre = point_state(image_prior, image, np.linalg.solve(A, cur.x - b))
        pre_next, pre_stage = step(pre, policy, image_prior, image, copy.deepcopy(rng))
        nxt, stage = step(cur, policy, prior, handle, rng)
        assert pre_stage == stage
        # the absolute floor is for a coordinate that passes near zero
        np.testing.assert_allclose(A @ pre_next.x + b, nxt.x, rtol=1e-9, atol=1e-12)
        stages.add(stage)
        cur = nxt
    assert 1 in stages and _every_stage_ran(stages, policy)


def test_far_ill_conditioned_linear_model_accepts_every_proposal():
    # for f = A x - b the Gauss-Newton proposal is the posterior itself, so
    # every proposal is accepted however far the parameters are from the
    # origin: the proposal is built from the step, whose rounding scales
    # with the step and not with |x|. A has m = 2n rows and singular values
    # log-spaced from 1 to 1e7, and the data are generated at x = 1e4 (1, ..., 1)
    n, kappa, c = 8, 1e7, 1e4
    rng = np.random.default_rng(3)
    U = np.linalg.qr(rng.normal(size=(2 * n, n)))[0]
    V = np.linalg.qr(rng.normal(size=(n, n)))[0]
    A = U @ np.diag(np.logspace(0.0, math.log10(kappa), n)) @ V.T
    h = linear_handle(A, A @ np.full(n, c))
    prior = GaussianPrior.flat(np.zeros(n))
    cur = point_state(prior, h, np.linalg.lstsq(A, A @ np.full(n, c), rcond=None)[0])
    rng = np.random.default_rng(1)
    for _ in range(2000):
        cur, stage = step(cur, BackoffPolicy.none(), prior, h, rng)
        assert stage == 1


TRANSLATION_POLICIES = _policies(("static3", lambda a: BackoffPolicy.static(3, 0.5, a)),
                                 ("dynamic4", lambda a: BackoffPolicy.dynamic(4, a)))


@pytest.mark.parametrize("policy", TRANSLATION_POLICIES.values(), ids=TRANSLATION_POLICIES.keys())
@pytest.mark.parametrize("name", ["quickstart", "simple2d", "expseries"])
def test_step_is_translation_equivariant(name, policy):
    # one transition from x, and one from u = x - b in the image
    # g(u) = f(u + b) with b = 1e4 (1, ..., 1), land on corresponding points
    # at the same stage: the step form makes the proposal's rounding
    # independent of where the origin is. Rounding u + b alone costs about
    # eps |b|, hence the absolute floor
    (handle, prior, x0), _, _ = _affine_pair(name)
    b = np.full(len(x0), 1e4)

    def image(u, args):
        return handle.fn(u + b, handle.args)

    image_model = ModelHandle(image, None, dim_in=len(x0))
    image_prior = GaussianPrior.create(prior.mean - b, prior.precision)
    rng = np.random.default_rng(17)
    cur = point_state(prior, handle, x0)
    stages = set()
    # 120 transitions, and more until every stage of the policy ran
    for i in range(1000):
        if i >= 120 and _every_stage_ran(stages, policy):
            break
        pre = point_state(image_prior, image_model, cur.x - b)
        pre_next, pre_stage = step(pre, policy, image_prior, image_model, copy.deepcopy(rng))
        nxt, stage = step(cur, policy, prior, handle, rng)
        assert pre_stage == stage
        np.testing.assert_allclose(pre_next.x + b, nxt.x, rtol=1e-9,
                                   atol=4 * np.finfo(float).eps * 1e4)
        stages.add(stage)
        cur = nxt
    assert 1 in stages and _every_stage_ran(stages, policy)


BOUND_POLICIES = _policies(("static5", lambda a: BackoffPolicy.static(5, 0.5, a)),
                           ("dynamic4", lambda a: BackoffPolicy.dynamic(4, a)),
                           ("static8", lambda a: BackoffPolicy.static(8, 0.3, a)),
                           ("dynamic6", lambda a: BackoffPolicy.dynamic(6, a)))
del BOUND_POLICIES["none"]


@pytest.mark.parametrize("policy", BOUND_POLICIES.values(), ids=BOUND_POLICIES.keys())
@pytest.mark.parametrize("name", ["quickstart", "simple2d", "expseries"])
def test_step_bound_rejects_only_what_the_exact_test_rejects(name, policy, monkeypatch):
    # step rejects a back-off stage without its exact acceptance when a
    # bound on it is below log u; that acceptance, computed afterwards in a
    # table of the transition's points that step did not touch, must be
    # below log u too. The first tier of the bound reads one reverse
    # density, the origin's, and it alone decides most of these stages
    (handle, prior, x0), _, _ = _affine_pair(name)
    tables, exact_calls = [], set()
    densities = []  # (uniforms drawn so far, anchor) per kernel density
    log_density = gnmh.kernel._log_density

    def counting_log_density(anchor, *args):
        densities.append((len(rng.uniforms), anchor))
        return log_density(anchor, *args)

    class RecordingTransition(_Transition):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

        def log_accept(self, a, h):
            if a == 0 and h == len(self.pts) - 1:  # step's own call, not a nested one
                exact_calls.add((len(tables) - 1, h))
            return super().log_accept(a, h)

    class RecordingRng:
        def __init__(self, rng):
            self.rng, self.uniforms = rng, []

        def standard_normal(self, n):
            return self.rng.standard_normal(n)

        def random(self):
            self.uniforms.append(self.rng.random())
            return self.uniforms[-1]

    monkeypatch.setattr(gnmh.kernel, "_Transition", RecordingTransition)
    monkeypatch.setattr(gnmh.kernel, "_log_density", counting_log_density)
    early, closest, one_density = 0, -np.inf, 0
    for seed in range(10):
        rng = RecordingRng(np.random.default_rng(seed))
        cur = point_state(prior, handle, x0)
        for _ in range(300):
            rng.uniforms.clear()
            densities.clear()
            n_tables = len(tables)
            nxt, stage = step(cur, policy, prior, handle, rng)
            cur = nxt
            if len(tables) == n_tables:
                continue
            t = len(tables) - 1
            pts = tables[t].pts
            rejected = len(pts) - 1 if stage == -1 else stage - 1
            # the reverse densities step computed at pts[j] after its u, before
            # the exact table below adds its own
            step_densities = [sum(k == j and anchor is pts[j] for k, anchor in densities)
                              for j in range(len(pts))]
            exact = _Transition(pts[0], policy, pts[1:])
            for j in range(2, rejected + 1):
                if (t, j) in exact_calls or pts[j].log_post == -np.inf or pts[j].chol is None:
                    continue
                log_a = exact.log_accept(0, j)
                log_u = math.log(rng.uniforms[j - 1])
                assert log_a < log_u
                early += 1
                closest = max(closest, log_a - log_u)
                one_density += step_densities[j] == 1
    assert closest < 0.0
    if policy.alpha == 1:
        # the first tier alone decides most of them: 65-69% on quickstart,
        # 74-81% on expseries, 40-48% on the ring simple2d
        assert early >= 500
        assert one_density >= early * (0.35 if name == "simple2d" else 0.5)
    else:
        # the default kernel's deep stages accept more often, so fewer are
        # rejected (174-2784 here, against 872-11079), and the first tier
        # alone decides 37-58% of them
        assert early >= 150 and one_density >= early * 0.3


EXACT_POLICIES = _policies(("dynamic2", lambda a: BackoffPolicy.dynamic(2, a)))


@pytest.mark.parametrize("policy", EXACT_POLICIES.values(), ids=EXACT_POLICIES.keys())
@pytest.mark.parametrize("name", ["quickstart", "simple2d", "expseries"])
def test_step_decides_as_the_exact_table(name, policy):
    # stage one is the plain Metropolis-Hastings test and a back-off stage's
    # bound rejects only what the exact test rejects, so every transition
    # equals one decided stage by stage by the exact table's acceptance
    handle, prior, x0 = _affine_pair(name)[0]
    for seed in range(3):
        rng = np.random.default_rng(seed)
        cur = point_state(prior, handle, x0)
        for _ in range(300):
            ref_rng = copy.deepcopy(rng)
            nxt, stage = step(cur, policy, prior, handle, rng)
            ref_next, ref_stage = _reference_step(cur, policy, prior, handle, ref_rng)
            assert stage == ref_stage
            np.testing.assert_array_equal(nxt.x, ref_next.x)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            cur = nxt
