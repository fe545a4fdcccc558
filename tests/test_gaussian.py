import numpy as np
import pytest

from gnmh.gaussian import _LOG_2PI, PrecisionGaussian, _factor


def _gaussian(mean, precision):
    """N(mean, precision^-1) with its precision factored once."""
    precision = np.asarray(precision, dtype=float)
    return PrecisionGaussian(np.asarray(mean, dtype=float), precision, *_factor(precision))


def test_log_norm_1d():
    g = _gaussian([0.0], [[2.0]])
    assert g.log_norm == pytest.approx(0.5 * np.log(2.0) - 0.5 * np.log(2 * np.pi))


def test_standard_normal_2d_at_origin():
    g = _gaussian([0.0, 0.0], np.eye(2))
    assert g.log_pdf([0.0, 0.0]) == pytest.approx(-np.log(2 * np.pi))


def test_log_pdf_peak_value():
    g = _gaussian([1.0], [[4.0]])
    assert g.log_pdf([1.0]) == pytest.approx(0.5 * np.log(4.0) - 0.5 * np.log(2 * np.pi))


def test_log_pdf_maximized_at_mean():
    rng = np.random.default_rng(0)
    mean = rng.normal(size=3)
    A = rng.normal(size=(3, 3))
    g = _gaussian(mean, A @ A.T + np.eye(3))
    peak = g.log_pdf(mean)
    for _ in range(50):
        assert g.log_pdf(mean + rng.normal(size=3)) <= peak


def test_sample_zero_normals_returns_mean():
    g = _gaussian([1.5, -2.0], [[3.0, 0.5], [0.5, 2.0]])
    assert np.array_equal(g.sample([0.0, 0.0]), g.mean)


def test_sample_identity_precision_shifts_by_normals():
    g = _gaussian([1.0, 2.0], np.eye(2))
    z = np.array([0.3, -1.2])
    np.testing.assert_allclose(g.sample(z), g.mean + z, rtol=0, atol=1e-15)


def test_sample_covariance_matches_inverse_precision():
    g = _gaussian([0.0, 0.0], [[4.0, 0.0], [0.0, 1.0]])
    rng = np.random.default_rng(42)
    draws = np.array([g.sample(rng.standard_normal(2)) for _ in range(100_000)])
    cov = np.cov(draws.T)
    np.testing.assert_allclose(cov, [[0.25, 0.0], [0.0, 1.0]], atol=5e-2)


def test_round_trip_mean_and_covariance():
    precision = np.array([[2.0, 0.6], [0.6, 1.5]])
    mean = np.array([0.7, -0.3])
    g = _gaussian(mean, precision)
    rng = np.random.default_rng(7)
    n = 100_000
    draws = np.array([g.sample(rng.standard_normal(2)) for _ in range(n)])
    target_cov = np.linalg.inv(precision)
    marginal_sd = np.sqrt(np.diag(target_cov))
    np.testing.assert_allclose(draws.mean(axis=0), mean,
                               atol=3 * marginal_sd.max() / np.sqrt(n))
    emp_cov = np.cov(draws.T)
    rel = np.linalg.norm(emp_cov - target_cov) / np.linalg.norm(target_cov)
    assert rel < 0.05


def test_log_pdf_normalizes_by_quadrature():
    g = _gaussian([0.4], [[2.5]])
    sd = 1.0 / np.sqrt(2.5)
    grid = np.linspace(0.4 - 8 * sd, 0.4 + 8 * sd, 20001)
    vals = np.exp([g.log_pdf([x]) for x in grid])
    assert np.trapezoid(vals, grid) == pytest.approx(1.0, abs=1e-6)


def test_dilate_identity_at_gamma_one():
    g = _gaussian([1.0, -0.5], [[2.0, 0.3], [0.3, 1.0]])
    d = g.dilate([5.0, 5.0], 1.0)
    np.testing.assert_array_equal(d.mean, g.mean)
    np.testing.assert_array_equal(d.precision, g.precision)


def test_dilate_contracts_mean_toward_center():
    g = _gaussian([2.0], [[1.0]])
    for gamma in (0.5, 0.1, 1e-6):
        d = g.dilate([0.0], gamma)
        assert d.mean[0] == pytest.approx(2.0 * gamma)


def test_dilate_example_values():
    g = _gaussian([2.0], [[1.0]])
    d = g.dilate([0.0], 0.5)
    assert d.mean[0] == pytest.approx(1.0)
    assert d.precision[0, 0] == pytest.approx(4.0)


def test_dilate_composition_law():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(3, 3))
    g = _gaussian(rng.normal(size=3), A @ A.T + 2 * np.eye(3))
    center = rng.normal(size=3)
    for g1, g2 in [(0.5, 0.5), (0.9, 0.3), (0.2, 0.7)]:
        once = g.dilate(center, g1 * g2)
        twice = g.dilate(center, g1).dilate(center, g2)
        np.testing.assert_allclose(twice.mean, once.mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(twice.precision, once.precision, rtol=1e-12)
        assert twice.log_norm == pytest.approx(once.log_norm, rel=1e-12)


def _random_spd_matrices(rng, n, count):
    for _ in range(count):
        A = rng.normal(size=(n, n))
        P = A @ A.T + rng.uniform(0.01, n) * np.eye(n)
        yield 0.5 * (P + P.T)


def _old_log_norm(chol):
    n = chol.shape[0]
    return 0.5 * (2.0 * float(np.sum(np.log(np.diag(chol))))) - 0.5 * n * _LOG_2PI


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_factor_bit_identical_to_numpy_cholesky_small_n(n):
    rng = np.random.default_rng(500 + n)
    for P in _random_spd_matrices(rng, n, 500):
        chol, log_norm = _factor(P)
        assert chol.flags.c_contiguous
        np.testing.assert_array_equal(chol, np.linalg.cholesky(P))
        assert log_norm == _old_log_norm(chol)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_factor_matches_numpy_cholesky_large_n(n):
    # numpy and scipy bundle different OpenBLAS builds, which may differ in
    # the last bits from n = 5 on
    rng = np.random.default_rng(500 + n)
    for P in _random_spd_matrices(rng, n, 500):
        chol, log_norm = _factor(P)
        assert chol.flags.c_contiguous
        L = np.linalg.cholesky(P)
        np.testing.assert_allclose(chol, L, rtol=1e-12, atol=1e-12 * np.abs(L).max())
        assert log_norm == _old_log_norm(chol)


@pytest.mark.parametrize("P", [
    [[1.0, 2.0], [2.0, 1.0]],            # eigenvalues 3 and -1
    [[0.0]],
    [[np.nan]],
    [[1.0, np.nan], [np.nan, 2.0]],
    [[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, np.nan]],
    # dpotrf factors these; the infinite log-determinant is refused
    [[np.inf]],
    [[2.0, 0.5], [0.5, np.inf]],
])
def test_factor_refuses_indefinite_and_nan(P):
    assert _factor(np.array(P)) is None
