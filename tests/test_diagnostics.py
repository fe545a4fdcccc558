import tracemalloc
import warnings

import numpy as np
import pytest

from gnmh.diagnostics import (
    acor,
    autocovariance,
    error_bars,
    error_bars_2d,
)
from gnmh.errors import (
    DimensionMismatch,
    EmptyChain,
    LagTooLarge,
    NonConvergentWindow,
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


@pytest.mark.parametrize("d_max", [np.inf, np.nan], ids=["inf", "nan"])
def test_histograms_refuse_a_range_that_is_not_finite_by_name(d_max):
    chain = np.random.default_rng(0).uniform(size=(20, 2))
    with pytest.raises(ValueError, match="histogram range .*need finite ends"):
        error_bars(chain, 4, [0.0] * 2, [1.0, d_max])
    with pytest.raises(ValueError, match="histogram range .*need finite ends"):
        error_bars_2d(chain, 0, 1, 4, [0.0] * 2, [d_max, 1.0])


@pytest.mark.parametrize("n_bins", [2.5, True, np.float64(3.0)], ids=["fraction", "boolean",
                                                                     "numpy-float"])
def test_histograms_refuse_a_bin_count_that_is_not_an_integer(n_bins):
    chain = np.random.default_rng(0).uniform(size=(20, 2))
    for density in (lambda bins: error_bars(chain, bins, [0.0] * 2, [1.0] * 2).density,
                    lambda bins: error_bars_2d(chain, 0, 1, bins, [0.0] * 2, [1.0] * 2)[2]):
        with pytest.raises(ValueError, match="n_bins must be an integer, got"):
            density(n_bins)
        # a numpy integer is a count
        np.testing.assert_array_equal(density(np.int64(3)), density(3))


@pytest.mark.parametrize("i, j, message", [
    (0.5, 1, "i must be an integer, got 0.5"),
    (0, True, "j must be an integer, got True"),
    (np.float64(1.0), 0, r"i must be an integer, got np\.float64\(1\.0\)"),
    (-1, 0, "i must be at least 0, got -1"),
], ids=["fraction", "boolean", "numpy-float", "negative"])
def test_error_bars_2d_refuses_an_index_that_is_not_a_coordinate_by_name(i, j, message):
    chain = np.random.default_rng(0).uniform(size=(20, 2))
    with pytest.raises(DimensionMismatch, match=message):
        error_bars_2d(chain, i, j, 4, [0.0] * 2, [1.0] * 2)
    got = error_bars_2d(chain, np.int64(0), np.int32(1), 4, [0.0] * 2, [1.0] * 2)
    np.testing.assert_array_equal(got[2], error_bars_2d(chain, 0, 1, 4, [0.0] * 2, [1.0] * 2)[2])


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
    # 0.1, 4.456 and -3.7 do not average to themselves in float64: the
    # centered series is rounding noise, not zeros, unless acor sees the constant
    for value in (1.0, 0.5, 0.0, 0.1, 4.456, -3.7, 1e-300):
        res = acor(np.full(1000, value))
        assert res.tau == 1.0 and res.sigma == 0.0 and res.mean == value, value


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


@pytest.mark.parametrize("k", [0, -1, 0.0, float("nan"), True, "5"])
def test_acor_refuses_a_window_factor_that_is_not_positive(k):
    with pytest.raises(ValueError, match="k must be positive"):
        acor(np.random.default_rng(0).standard_normal(1000), k=k)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("action", ["error", "always"])
def test_acor_refuses_a_non_finite_entry_by_index(bad, action):
    series = np.random.default_rng(0).standard_normal(1000)
    series[123] = bad
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(action, RuntimeWarning)
        with pytest.raises(ValueError, match="series entry 123 "):
            acor(series)
    assert seen == []


@pytest.mark.parametrize("series", [np.full(1000, 1e308),
                                    np.random.default_rng(0).standard_normal(1000) * 1e306],
                         ids=["mean-overflows", "squares-overflow"])
@pytest.mark.parametrize("action", ["error", "always"])
def test_acor_refuses_a_series_whose_sums_overflow(series, action, capsys):
    # every entry is finite, but the mean or the sums of squares are not
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(action, RuntimeWarning)
        for call in (lambda: acor(series), lambda: autocovariance(series, 100)):
            with pytest.raises(ValueError, match="sums overflow float64"):
                call()
    assert seen == [] and capsys.readouterr() == ("", "")


def test_autocovariance_refuses_a_non_finite_entry_by_index():
    series = np.arange(50.0)
    series[7] = np.nan
    with pytest.raises(ValueError, match="series entry 7 is nan, not finite"):
        autocovariance(series, 5)


def test_acor_too_short():
    with pytest.raises(SeriesTooShort):
        acor(np.random.default_rng(0).standard_normal(400), k=5)


def test_acor_random_walk_has_no_converged_window():
    walk = np.cumsum(np.random.default_rng(0).standard_normal(1000))
    with pytest.raises(NonConvergentWindow):
        acor(walk)


def test_acor_on_linear_model_chain_is_one():
    # the Gauss-Newton proposal is exact for affine residuals, so the chain
    # is iid and its autocorrelation time is 1
    from _oracle import linear_handle
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


@pytest.mark.parametrize("n,max_lag", [
    (400, 112), (401, 112), (399, 112),  # n + max_lag = 512, 513, 511
    (256, 255), (257, 256), (300, 299), (1, 0), (2, 1),  # max_lag = n - 1
])
def test_autocovariance_every_lag_matches_direct_sum(n, max_lag):
    # the padded length is the least power of two >= n + max_lag, so the
    # largest lags sit next to the wrap-around
    x = ar1(np.random.default_rng(n), n, 0.5)
    xbar = x.mean()
    cov = autocovariance(x, max_lag)
    assert cov.shape == (max_lag + 1,)
    for t in range(max_lag + 1):
        direct = np.sum((x[: n - t] - xbar) * (x[t:] - xbar)) / (n - t)
        assert cov[t] == pytest.approx(direct, rel=1e-10, abs=1e-12), t


def test_autocovariance_traced_peak_is_a_few_spectra():
    # acor's lag window of a 148 000-row chain: padding to >= 2n (2**19
    # points) peaks at 13.8 MB; the least power of two >= n + max_lag is
    # 2**18 and peaks at 4.5 MB
    x = np.random.default_rng(12).standard_normal(148_000)
    autocovariance(x, x.size // 10)
    tracemalloc.start()
    try:
        autocovariance(x, x.size // 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6e6


@pytest.mark.parametrize("max_lag", [-1, -5, 2.5, 2.0, "3", True, False])
def test_autocovariance_refuses_a_bad_max_lag_by_name(max_lag):
    with pytest.raises(ValueError, match="max_lag"):
        autocovariance(np.arange(10.0), max_lag)


def test_autocovariance_accepts_a_numpy_integer_max_lag():
    x = np.random.default_rng(13).standard_normal(50)
    np.testing.assert_array_equal(autocovariance(x, np.int64(7)), autocovariance(x, 7))


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

