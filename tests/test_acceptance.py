"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import time

import numpy as np
import pytest
from scipy.signal import lfilter
from scipy.stats import kstest

import gnmh
from gnmh.cli import exp_series_datagen, quadrature_1d
from gnmh.jtest import JtestDomain, JtestOptions, jtest
from gnmh.kernel import (
    BackoffPolicy,
    _Transition,
    cubic_minimizer,
)
from gnmh.model import (
    ModelHandle,
    exp_series_handle,
    quickstart_handle,
    quickstart_model,
    simple2d_handle,
)
from gnmh.posterior import GaussianPrior, log_posterior, point_state
from gnmh.sampler import Sampler

from _oracle import linear_handle


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# 1. quickstart histogram vs quadrature
# ---------------------------------------------------------------------------


def test_criterion_1_quickstart_vs_quadrature():
    # the paper's kernel (mean exponent 1): the Poisson error bars below
    # carry no autocorrelation factor, and the default kernel's seed-1 chain
    # puts 67% of bins within them (TV 0.046)
    n_samples, n_burn, n_bins, lo, hi = 100_000, 2000, 100, -3.0, 3.0
    sampler = Sampler([0.5], quickstart_handle(y=1.0, sigma=0.5), seed=1,
                      prior=GaussianPrior.create([0.0], [[1.0]]))
    sampler.set_dynamic(2, alpha=1)
    t0 = time.monotonic()
    sampler.run_sample(n_samples)
    elapsed = time.monotonic() - t0
    sampler.burn(n_burn)
    chain = sampler.chain
    n = chain.shape[0]

    hist = gnmh.error_bars(chain, n_bins, [lo], [hi])
    width = (hi - lo) / n_bins

    oracle = quickstart_handle(y=1.0, sigma=0.5)
    prior = GaussianPrior.create([0.0], [[1.0]])
    grid, q = quadrature_1d(
        lambda x: log_posterior(prior, oracle.evaluate([x])), lo, hi, 10_001
    )
    q_centers = np.interp(hist.centers[0], grid, q)
    q_mass = q_centers * width
    q_mass = q_mass / q_mass.sum()
    h_mass = hist.density[0] * width
    h_mass = h_mass / h_mass.sum()
    tv = 0.5 * np.sum(np.abs(h_mass - q_mass))

    # per-bin check at 3 sigma with the two-sided Poisson error: observed
    # counts against quadrature-expected counts, the error bar being the
    # larger of the two sqrt-count estimates (the histogram's own err field
    # where the bin is populated, the expected-count floor where it is not)
    counts = hist.density[0] * n * width
    expected = q_mass * n
    within = np.abs(counts - expected) <= 3.0 * np.sqrt(np.maximum(counts, expected))
    frac = within.mean()

    ok = tv < 0.05 and frac >= 0.90 and elapsed < 60.0
    _report(1, ok, f"TV={tv:.4f} (<0.05), bins within 3 err={frac:.0%} (>=90%), "
                   f"runtime={elapsed:.1f}s (<60s)")
    assert tv < 0.05
    assert frac >= 0.90
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. affine exactness
# ---------------------------------------------------------------------------


def test_criterion_2_affine_exactness():
    n = 10_000
    A = np.array([[1.0, 0.3], [0.0, 1.2], [0.5, -0.4]])
    b = np.array([0.5, -0.2, 0.1])
    H = np.array([[2.0, 0.4], [0.4, 1.5]])
    m = np.array([0.3, 0.1])
    sampler = Sampler([0.0, 0.0], linear_handle(A, b), seed=11,
                      prior=GaussianPrior.create(m, H))
    sampler.run_sample(n)

    P = H + A.T @ A
    mu = np.linalg.solve(P, H @ m + A.T @ b)
    cov = np.linalg.inv(P)
    ks = [
        kstest(sampler.chain[:, j], "norm", args=(mu[j], np.sqrt(cov[j, j]))).statistic
        for j in range(2)
    ]
    bound = 1.63 / np.sqrt(n)

    ok = sampler.accept_rate == 1.0 and max(ks) < bound
    _report(2, ok, f"accept_rate={sampler.accept_rate} (==1.0), "
                   f"max KS={max(ks):.4f} (<{bound:.4f})")
    assert sampler.accept_rate == 1.0
    assert max(ks) < bound


# ---------------------------------------------------------------------------
# 3. back-off trend reproduction
# ---------------------------------------------------------------------------


def test_criterion_3_backoff_trends():
    args = exp_series_datagen(seed=14)  # ten times, evenly spaced on [0, 3]
    prior_mean = np.array([4.0, 2.0, 0.5, 1.0])

    def rate(configure) -> float:
        sampler = Sampler(prior_mean, exp_series_handle(args, n_terms=2), seed=3,
                          prior=GaussianPrior.create(prior_mean, 0.5 * np.eye(4)))
        configure(sampler)
        sampler.run_sample(20_000)
        return sampler.accept_rate

    # the paper's rates are its kernel's (mean exponent 1); the default
    # kernel accepts 0.920 of static(1, 0.1) transitions, above the band
    none = rate(lambda s: None)
    static1 = rate(lambda s: s.set_static(1, 0.1, alpha=1))
    static2 = rate(lambda s: s.set_static(2, 0.1, alpha=1))
    dynamic1 = rate(lambda s: s.set_dynamic(1, alpha=1))

    in_band_none = 0.273 - 0.15 <= none <= 0.273 + 0.15
    in_band_s1 = 0.603 - 0.15 <= static1 <= 0.603 + 0.15
    ordered = static2 > static1 > none
    jump = dynamic1 >= none + 0.2

    ok = in_band_none and in_band_s1 and ordered and jump
    _report(3, ok, f"none={none:.3f} static(1,0.1)={static1:.3f} "
                   f"static(2,0.1)={static2:.3f} dynamic(1)={dynamic1:.3f}")
    assert in_band_none, f"no-back-off rate {none} outside 0.273 +/- 0.15"
    assert in_band_s1, f"static(1,0.1) rate {static1} outside 0.603 +/- 0.15"
    assert ordered, f"ordering violated: {static2} > {static1} > {none}"
    assert jump, f"dynamic(1) {dynamic1} not >= none {none} + 0.2"


# ---------------------------------------------------------------------------
# 4. very detailed balance
# ---------------------------------------------------------------------------


def _log_flow(origin, mids, cand, policy):
    h = len(mids) + 1
    t = _Transition(origin, policy, (*mids, cand))
    return t.path(0, h, h) + t.log_accept(0, h)


def test_criterion_4_very_detailed_balance():
    problems = {
        "quickstart": (
            quickstart_handle(),
            GaussianPrior.create([0.0], [[1.0]]),
            lambda rng: rng.uniform(-2.0, 2.0, 1),
        ),
        "exp-series": (
            exp_series_handle(exp_series_datagen(seed=14), n_terms=2),
            GaussianPrior.create([4.0, 2.0, 0.5, 1.0], 0.5 * np.eye(4)),
            lambda rng: rng.uniform(0.3, 3.0, 4),
        ),
    }
    worst = 0.0
    for name, (handle, prior, draw) in problems.items():
        for policy in (BackoffPolicy.static(1, 0.3), BackoffPolicy.dynamic(1)):
            rng = np.random.default_rng(2024)
            checked = 0
            while checked < 50:
                pts = [point_state(prior, handle, draw(rng)) for _ in range(3)]
                fwd = _log_flow(pts[0], [pts[1]], pts[2], policy)
                rev = _log_flow(pts[2], [pts[1]], pts[0], policy)
                if fwd == -np.inf and rev == -np.inf:
                    checked += 1
                    continue
                worst = max(worst, abs(fwd - rev))
                checked += 1
    ok = worst < 1e-10
    _report(4, ok, f"max |log flow difference|={worst:.2e} (<1e-10)")
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# 5. Jacobian test
# ---------------------------------------------------------------------------


def test_criterion_5_jtest():
    models = {
        "quickstart": (quickstart_handle(y=1.0, sigma=0.5), [-2.0], [2.0]),
        "simple2d": (simple2d_handle(y=1.0, sigma=0.5), [-2.0] * 2, [2.0] * 2),
        "linear": (
            linear_handle(np.array([[2.0, 0.5], [-0.3, 1.5], [0.1, -0.7]]),
                          np.array([0.4, -1.0, 0.2])),
            [-3.0] * 2, [3.0] * 2,
        ),
        "exp-series": (exp_series_handle(exp_series_datagen(seed=14), n_terms=2),
                       [0.1] * 4, [5.0] * 4),
    }
    results = {}
    for name, (handle, x_min, x_max) in models.items():
        results[name] = jtest(handle, JtestDomain.create(x_min, x_max),
                              JtestOptions(), rng=0)

    def perturbed(x, args):
        inside, f, jac = quickstart_model(x, args)
        return inside, f, [[jac[0][0] + 0.01]]

    bad = ModelHandle(perturbed, {"y": 1.0, "sigma": 0.5}, dim_in=1)
    bad_err = jtest(bad, JtestDomain.create([-2.0], [2.0]), JtestOptions(), rng=0)

    ok = all(v == 0.0 for v in results.values()) and bad_err >= 9e-3
    _report(5, ok, f"bundled errors={list(results.values())} (all 0), "
                   f"perturbed={bad_err:.4f} (>=9e-3)")
    for name, v in results.items():
        assert v == 0.0, f"{name} failed the Jacobian test: {v}"
    assert bad_err >= 9e-3


# ---------------------------------------------------------------------------
# 6. cubic minimizer vs grid oracle
# ---------------------------------------------------------------------------


def test_criterion_6_cubic_minimizer():
    rng = np.random.default_rng(6)
    grid = np.linspace(0.0, 1.0, 1_000_001)
    worst = 0.0
    checked = 0
    while checked < 1000:
        a, b, c, d = rng.normal(size=4) * 2.0
        t = cubic_minimizer(phi0=d, phi1=a + b + c + d, dphi0=c,
                            dphi1=3 * a + 2 * b + c)
        if t is None:
            continue
        vals = ((a * grid + b) * grid + c) * grid + d
        t_grid = grid[np.argmin(vals)]
        if t_grid in (0.0, 1.0):
            # boundary value beats the interior minimum; not this
            # criterion's concern
            continue
        worst = max(worst, abs(t - t_grid))
        checked += 1
    ok = worst < 1e-4
    _report(6, ok, f"max |t* - grid argmin|={worst:.2e} over 1000 cubics (<1e-4)")
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# 7. autocorrelation time
# ---------------------------------------------------------------------------


def test_criterion_7_acor():
    rng = np.random.default_rng(7)
    n = 1_000_000
    eps = rng.standard_normal(n)
    series = lfilter([1.0], [1.0, -0.9], eps)
    tau_ar1 = gnmh.acor(series).tau

    tau_iid = gnmh.acor(rng.standard_normal(n)).tau

    ok = abs(tau_ar1 - 19.0) <= 0.2 * 19.0 and abs(tau_iid - 1.0) <= 0.2
    _report(7, ok, f"AR(1) tau={tau_ar1:.2f} (19 +/- 20%), "
                   f"iid tau={tau_iid:.3f} (1 +/- 20%)")
    assert abs(tau_ar1 - 19.0) <= 0.2 * 19.0
    assert abs(tau_iid - 1.0) <= 0.2


# ---------------------------------------------------------------------------
# 8. determinism and safe mode
# ---------------------------------------------------------------------------


def test_criterion_8_safe_mode_determinism(tmp_path):
    def fresh():
        s = Sampler([0.5], quickstart_handle(), seed=99,
                    prior=GaussianPrior.create([0.0], [[1.0]]))
        s.set_static(1, 0.3)
        return s

    path_a = tmp_path / "uninterrupted.json"
    a = fresh()
    a.run_sample(1000, divs=10, safe=path_a)

    class Interrupted(RuntimeError):
        pass

    path_b = tmp_path / "interrupted.json"
    b = fresh()
    writes = {"n": 0}
    original = Sampler.save_checkpoint

    def interrupting(self, p):
        original(self, p)
        writes["n"] += 1
        if writes["n"] == 3:
            raise Interrupted

    Sampler.save_checkpoint = interrupting
    try:
        with pytest.raises(Interrupted):
            b.run_sample(1000, divs=10, safe=path_b)
    finally:
        Sampler.save_checkpoint = original

    resumed = Sampler.load_checkpoint(path_b, quickstart_handle())
    resumed.run_sample(700, divs=7, safe=path_b)

    chains_equal = a.chain.tobytes() == resumed.chain.tobytes()
    files_equal = path_a.read_bytes() == path_b.read_bytes()
    ok = resumed.n_samples == 1000 and chains_equal and files_equal
    _report(8, ok, f"resumed after division 3: chain bytes equal={chains_equal}, "
                   f"checkpoint bytes equal={files_equal}")
    assert chains_equal
    assert files_equal


# ---------------------------------------------------------------------------
# the default kernel's quickstart chain vs quadrature, by batch means
# ---------------------------------------------------------------------------


def test_default_kernel_quickstart_vs_quadrature_by_batch_means():
    # the default kernel (mean exponent 2) under dynamic(2). The posterior is
    # symmetric and the chain's sign mixes slowly (tau about 110 transitions,
    # against about 7 for |x|), so the histogram is of |x|: 15 bins of width
    # 0.2, each bin's error from 40 batch means. A kernel that draws at
    # exponent 2 but scores at 1 gives max |z| 6.2 to 11.9 here (seeds 1-6);
    # this one gave 1.5 to 2.7
    n_samples, n_burn, n_bins, n_batches, hi = 100_000, 2000, 15, 40, 3.0
    prior = GaussianPrior.create([0.0], [[1.0]])
    sampler = Sampler([0.5], quickstart_handle(y=1.0, sigma=0.5), seed=1, prior=prior)
    sampler.set_dynamic(2)
    sampler.run_sample(n_samples)
    # the dilated kernels drew the candidate of many transitions
    assert sampler.step_count[2] + sampler.step_count[3] >= 0.1 * n_samples
    sampler.burn(n_burn)
    folded = np.abs(sampler.chain[:, 0])

    oracle = quickstart_handle(y=1.0, sigma=0.5)
    grid, q = quadrature_1d(
        lambda x: log_posterior(prior, oracle.evaluate([x])), -hi, hi, 20_001
    )
    edges = np.linspace(0.0, hi, n_bins + 1)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (q[1:] + q[:-1]) * np.diff(grid))])
    q_mass = 2.0 * np.diff(np.interp(edges, grid, cdf))

    size = folded.size // n_batches
    batches = np.array([np.histogram(folded[i * size:(i + 1) * size], edges)[0] / size
                        for i in range(n_batches)])
    err = batches.std(axis=0, ddof=1) / np.sqrt(n_batches)
    seen = err > 0.0
    z = (batches.mean(axis=0)[seen] - q_mass[seen]) / err[seen]
    # the bins that no batch reached hold almost no mass
    assert q_mass[~seen].sum() < 1e-3
    assert np.abs(z).max() < 4.0, np.round(z, 2)


# ---------------------------------------------------------------------------
# the default kernel frees a point with a long Gauss-Newton step
# ---------------------------------------------------------------------------


def test_default_kernel_leaves_a_long_step_point():
    # expseries dynamic(4) under the benchmark's prior, started where a
    # chain of the paper's kernel stalled for 505 transitions (|v|^2 = 24.6):
    # there its back-off acceptance tends to exp(-2|v|^2 - 2 v.xi) as the
    # scale shrinks, and it moved on 0, 32 and 0 of these transitions
    start = np.array([1.467, 1.883, 0.694, 5.684])
    prior = GaussianPrior.create([4.0, 2.0, 0.5, 1.0], 0.5 * np.eye(4))
    for seed in (1, 2, 3):
        sampler = Sampler(start, exp_series_handle(exp_series_datagen(seed=14), n_terms=2),
                          seed=seed, prior=prior)
        sampler.set_dynamic(4)
        sampler.run_sample(300)
        rows = np.vstack([start, sampler.chain])
        moved = int(np.any(rows[1:] != rows[:-1], axis=1).sum())
        assert moved >= 200, f"seed {seed}: moved on {moved} of 300 transitions"
