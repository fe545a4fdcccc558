import numpy as np
import pytest

from gnmh.diagnostics import (
    acor,
    autocovariance,
    error_bars,
    error_bars_2d,
    step_percentages,
)
from gnmh.errors import (
    DimensionMismatch,
    EmptyChain,
    LagTooLarge,
    SeriesTooShort,
)


def ar1(rng, n, rho):
    x = np.empty(n)
    x[0] = rng.standard_normal() / np.sqrt(1 - rho**2)
    eps = rng.standard_normal(n)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + eps[t]
    return x


# ---------------------------------------------------------------------------
# error_bars
# ---------------------------------------------------------------------------


def test_four_samples_in_one_bin():
    chain = np.array([[0.1], [0.2], [0.3], [0.4]])
    hist = error_bars(chain, 2, [0.0], [2.0])
    np.testing.assert_allclose(hist.density[0], [1.0, 0.0])
    np.testing.assert_allclose(hist.err[0], [0.5, 0.0])
    np.testing.assert_allclose(hist.centers[0], [0.5, 1.5])


def test_single_bin_covering_everything():
    rng = np.random.default_rng(0)
    chain = rng.uniform(2.0, 4.0, size=(500, 1))
    hist = error_bars(chain, 1, [2.0], [4.0])
    assert hist.density[0, 0] == pytest.approx(1.0 / 2.0)
    assert hist.err[0, 0] == pytest.approx(np.sqrt(500) / (500 * 2.0))


def test_uniform_samples_flat_within_errors():
    rng = np.random.default_rng(1)
    chain = rng.uniform(0.0, 1.0, size=(200_000, 1))
    hist = error_bars(chain, 50, [0.0], [1.0])
    ok = np.abs(hist.density[0] - 1.0) <= 3.0 * hist.err[0]
    assert ok.mean() >= 0.95


def test_density_integrates_to_in_range_fraction():
    rng = np.random.default_rng(2)
    chain = rng.normal(size=(5000, 2))
    hist = error_bars(chain, 20, [-1.0, -1.0], [1.0, 1.0])
    for j in range(2):
        width = 2.0 / 20
        frac = np.mean((chain[:, j] >= -1.0) & (chain[:, j] <= 1.0))
        assert np.sum(hist.density[j]) * width == pytest.approx(frac, abs=1e-12)


def test_out_of_range_samples_ignored_not_clipped():
    chain = np.array([[0.5], [10.0], [-10.0], [0.5]])
    hist = error_bars(chain, 1, [0.0], [1.0])
    # 2 of 4 samples inside
    assert hist.density[0, 0] == pytest.approx(2 / 4)


def test_error_bars_validation():
    with pytest.raises(EmptyChain):
        error_bars(np.empty((0, 1)), 2, [0.0], [1.0])
    with pytest.raises(DimensionMismatch):
        error_bars(np.zeros((5, 2)), 2, [0.0], [1.0])
    with pytest.raises(ValueError):
        error_bars(np.zeros((5, 1)), 2, [1.0], [0.0])


@pytest.mark.parametrize("call,error", [
    (lambda: error_bars_2d(np.empty((0, 2)), 0, 1, 10, [0.0] * 2, [1.0] * 2), EmptyChain),
    (lambda: error_bars_2d(np.zeros((5, 2)), 0, 1, 10, [0.0], [1.0]), DimensionMismatch),
    (lambda: error_bars_2d(np.zeros((5, 2)), 0, 1, 0, [0.0] * 2, [1.0] * 2), ValueError),
    (lambda: error_bars_2d(np.zeros((5, 2)), 0, 1, 10, [0.0, 1.0], [1.0] * 2), ValueError),
    (lambda: error_bars_2d(np.zeros((5, 2)), 0, 2, 10, [0.0] * 2, [1.0] * 2), DimensionMismatch),
], ids=["empty", "short-range", "no-bins", "reversed-range", "pair-out-of-range"])
def test_error_bars_2d_validation(call, error):
    with pytest.raises(error):
        call()


def test_error_bars_2d_accepts_1d_chain_like_error_bars():
    chain = np.array([0.25, 0.75, 0.75, 5.0])
    ci, cj, density, err = error_bars_2d(chain, 0, 0, 2, [0.0], [1.0])
    np.testing.assert_array_equal(ci, error_bars(chain, 2, [0.0], [1.0]).centers[0])
    np.testing.assert_array_equal(cj, ci)
    # counts [[1, 0], [0, 2]] over N * w * w = 4 * 0.5 * 0.5; the row at 5 is out
    np.testing.assert_array_equal(density, [[1.0, 0.0], [0.0, 2.0]])


def test_error_bars_2d_mass_and_shape():
    rng = np.random.default_rng(3)
    chain = rng.normal(size=(20_000, 3))
    ci, cj, density, err = error_bars_2d(chain, 0, 2, 10, [-2.0] * 3, [2.0] * 3)
    assert density.shape == (10, 10) and ci.shape == (10,)
    w = 4.0 / 10
    inside = np.mean((np.abs(chain[:, 0]) <= 2.0) & (np.abs(chain[:, 2]) <= 2.0))
    assert density.sum() * w * w == pytest.approx(inside, abs=1e-12)
    assert np.all(err[density == 0] == 0)


# ---------------------------------------------------------------------------
# acor
# ---------------------------------------------------------------------------


def test_acor_white_noise_tau_near_one():
    rng = np.random.default_rng(4)
    res = acor(rng.standard_normal(100_000))
    assert res.tau == pytest.approx(1.0, abs=0.2)


def test_acor_ar1_tau_near_closed_form():
    rng = np.random.default_rng(5)
    series = ar1(rng, 1_000_000, 0.9)
    res = acor(series)
    assert res.tau == pytest.approx(19.0, rel=0.2)


def test_acor_constant_series_degenerates():
    res = acor(np.ones(1000))
    assert res.tau == 1.0 and res.sigma == 0.0 and res.mean == 1.0


def test_acor_sigma_identity():
    rng = np.random.default_rng(6)
    series = ar1(rng, 50_000, 0.5)
    res = acor(series)
    var = autocovariance(series, 0)[0]
    assert res.sigma**2 == pytest.approx(res.tau * var / series.size, rel=1e-9)


def test_acor_affine_invariance():
    rng = np.random.default_rng(7)
    series = ar1(rng, 20_000, 0.7)
    base = acor(series)
    scaled = acor(-3.5 * series + 11.0)
    assert scaled.tau == base.tau
    assert scaled.mean == pytest.approx(-3.5 * base.mean + 11.0)


def test_acor_too_short():
    with pytest.raises(SeriesTooShort):
        acor(np.random.default_rng(0).standard_normal(400), k=5)


def test_acor_on_linear_model_chain_is_one():
    # the Gauss-Newton proposal is exact for affine residuals, so the chain
    # is iid and its autocorrelation time is 1
    from gnmh.model import linear_handle
    from gnmh.posterior import GaussianPrior
    from gnmh.sampler import Sampler

    s = Sampler([0.0, 0.0],
                linear_handle(np.array([[1.0, 0.2], [0.3, 1.5]]), np.zeros(2)),
                seed=17, prior=GaussianPrior.create([0.0, 0.0], np.eye(2)))
    s.run_sample(20_000)
    for j in range(2):
        assert acor(s.chain[:, j]).tau == pytest.approx(1.0, abs=0.2)


# ---------------------------------------------------------------------------
# autocovariance
# ---------------------------------------------------------------------------


def test_autocovariance_lag_zero_is_biased_variance():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(1000)
    cov = autocovariance(x, 0)
    assert cov[0] == pytest.approx(np.var(x), rel=1e-10)


def test_autocovariance_matches_direct_sum():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(300)
    xbar = x.mean()
    cov = autocovariance(x, 5)
    for t in range(6):
        direct = np.sum((x[: 300 - t] - xbar) * (x[t:] - xbar)) / (300 - t)
        assert cov[t] == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_autocovariance_white_noise_small_at_positive_lags():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(100_000)
    cov = autocovariance(x, 20)
    assert np.all(np.abs(cov[1:] / cov[0]) < 0.05)


def test_autocovariance_ar1_decay():
    rng = np.random.default_rng(11)
    x = ar1(rng, 1_000_000, 0.9)
    cov = autocovariance(x, 20)
    rho = cov / cov[0]
    for t in range(1, 21):
        assert rho[t] == pytest.approx(0.9**t, abs=0.05)


def test_autocovariance_lag_too_large():
    with pytest.raises(LagTooLarge):
        autocovariance(np.zeros(10), 10)


# ---------------------------------------------------------------------------
# step percentages
# ---------------------------------------------------------------------------


def test_step_percentages_no_backoff():
    frac = step_percentages({-1: 30, 1: 70})
    assert frac == {-1: 0.3, 1: 0.7}


def test_step_percentages_all_accepted():
    assert step_percentages({-1: 0, 1: 100}) == {-1: 0.0, 1: 1.0}


def test_step_percentages_sum_to_one():
    frac = step_percentages({-1: 11, 1: 70, 2: 12, 3: 7})
    assert sum(frac.values()) == pytest.approx(1.0)


def test_step_percentages_empty():
    assert step_percentages({-1: 0, 1: 0}) == {}
