import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from gnmh.errors import DimensionMismatch, NotPSD, UserFunctionFailure
from gnmh.gaussian import PrecisionGaussian, _factor
from gnmh.model import ModelEval, ModelHandle, linear_handle, quickstart_handle
from gnmh.posterior import (
    GaussianPrior,
    gn_proposal,
    log_posterior,
    point_state,
)
from gnmh.sampler import Sampler

from _oracle import proposal


def test_prior_validation():
    GaussianPrior.create([0.0, 0.0], np.zeros((2, 2)))  # flat is fine
    with pytest.raises(NotPSD):
        GaussianPrior.create([0.0], [[-0.1]])
    with pytest.raises(NotPSD):
        GaussianPrior.create([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch, match=r"shape \(1, 1\), expected \(2, 2\)"):
        GaussianPrior.create([0, 0], [[1.0]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NotPSD, match="prior mean has a non-finite entry"):
            GaussianPrior.create([0.0, bad], np.eye(2))
        with pytest.raises(NotPSD, match="prior precision has a non-finite entry"):
            GaussianPrior.create([0.0, 0.0], [[1.0, 0.0], [0.0, bad]])


def test_log_posterior_outside_domain():
    h = ModelHandle(lambda x, a: (x[0] > 0, [x[0]], [[1.0]]), None, dim_in=1)
    prior = GaussianPrior.flat([0.0])
    assert log_posterior(prior, h.evaluate([-1.0])) == -np.inf


def test_log_posterior_quickstart_at_zero():
    # prior term 0, residual -2: log p = -2
    h = quickstart_handle(y=1.0, sigma=0.5)
    prior = GaussianPrior.create([0.0], [[1.0]])
    assert log_posterior(prior, h.evaluate([0.0])) == pytest.approx(-2.0)


def test_flat_prior_zero_residual_gives_zero():
    h = ModelHandle(lambda x, a: (1, [0.0], [[1.0]]), None, dim_in=1)
    prior = GaussianPrior.flat([0.0])
    for x in (-3.0, 0.0, 7.5):
        assert log_posterior(prior, h.evaluate([x])) == 0.0


def test_gn_proposal_identity_residual():
    # f(x) = x, H = 1, m = 0: P = 2, mu = 0 regardless of x
    h = ModelHandle(lambda x, a: (1, [x[0]], [[1.0]]), None, dim_in=1)
    prior = GaussianPrior.create([0.0], [[1.0]])
    for x in (-2.0, 0.5, 3.0):
        g = proposal(gn_proposal(prior, h.evaluate([x])))
        assert g.precision[0, 0] == pytest.approx(2.0)
        assert g.mean[0] == pytest.approx(0.0)


def test_gn_proposal_flat_prior_shifted_line():
    # f(x) = x - c with flat prior: proposal is N(c, 1), the posterior itself
    c = 1.7
    h = ModelHandle(lambda x, a: (1, [x[0] - c], [[1.0]]), None, dim_in=1)
    prior = GaussianPrior.flat([0.0])
    g = proposal(gn_proposal(prior, h.evaluate([5.0])))
    assert g.precision[0, 0] == pytest.approx(1.0)
    assert g.mean[0] == pytest.approx(c)


def test_gn_proposal_quickstart_at_one():
    h = quickstart_handle(y=1.0, sigma=0.5)
    prior = GaussianPrior.create([0.0], [[1.0]])
    g = proposal(gn_proposal(prior, h.evaluate([1.0])))
    assert g.precision[0, 0] == pytest.approx(17.0)
    assert g.mean[0] == pytest.approx(16.0 / 17.0)


def test_gn_proposal_singular_when_flat_and_zero_jacobian():
    h = quickstart_handle(y=1.0, sigma=0.5)
    prior = GaussianPrior.flat([0.0])
    assert gn_proposal(prior, h.evaluate([0.0])) is None


def _random_spd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


def test_affine_exactness_linear_model():
    # for an affine residual the proposal equals the exact posterior
    rng = np.random.default_rng(11)
    A = rng.normal(size=(3, 2))
    b = rng.normal(size=3)
    H = _random_spd(rng, 2)
    m = rng.normal(size=2)
    prior = GaussianPrior.create(m, H)
    h = linear_handle(A, b)

    P_true = H + A.T @ A
    mu_true = np.linalg.solve(P_true, H @ m + A.T @ b)
    for _ in range(20):
        x = rng.normal(size=2)
        g = proposal(gn_proposal(prior, h.evaluate(x)))
        np.testing.assert_allclose(g.precision, P_true, rtol=1e-12)
        np.testing.assert_allclose(g.mean, mu_true, rtol=1e-10, atol=1e-12)


def test_affine_covariance_of_proposal():
    # reparametrize x -> Bx + b; the proposal transforms contravariantly
    rng = np.random.default_rng(5)
    m_out, n = 4, 3
    for _ in range(10):
        A = rng.normal(size=(m_out, n))
        c = rng.normal(size=m_out)
        H = _random_spd(rng, n)
        m = rng.normal(size=n)
        B = rng.normal(size=(n, n)) + 3 * np.eye(n)
        b = rng.normal(size=n)

        def f(x, args):
            r = A @ (np.sin(x) + 0.3 * x) - c
            J = A @ np.diag(np.cos(x) + 0.3)
            return 1, r, J

        def f_tilde(x, args):
            inside, r, J = f(B @ x + b, args)
            return inside, r, J @ B

        h = ModelHandle(f, None, dim_in=n)
        h_tilde = ModelHandle(f_tilde, None, dim_in=n)
        prior = GaussianPrior.create(m, H)
        prior_tilde = GaussianPrior.create(
            np.linalg.solve(B, m - b), B.T @ H @ B
        )

        x = rng.normal(size=n)
        g = proposal(gn_proposal(prior, h.evaluate(B @ x + b)))
        g_tilde = proposal(gn_proposal(prior_tilde, h_tilde.evaluate(x)))
        np.testing.assert_allclose(g_tilde.precision, B.T @ g.precision @ B, rtol=1e-10)
        np.testing.assert_allclose(
            g_tilde.mean, np.linalg.solve(B, g.mean - b), rtol=1e-10, atol=1e-10
        )


def test_completed_square_matches_linearized_target():
    # (z-mu)'P(z-mu)/2 differs from the linearized exponent by a constant
    rng = np.random.default_rng(23)
    h = quickstart_handle(y=1.0, sigma=0.5)
    prior = GaussianPrior.create([0.0], [[1.0]])
    x = np.array([0.8])
    ev = h.evaluate(x)
    g = proposal(gn_proposal(prior, ev))
    f, J = ev.residual, ev.jacobian

    diffs = []
    for _ in range(10):
        z = rng.normal(size=1)
        quad = 0.5 * float((z - g.mean) @ g.precision @ (z - g.mean))
        target = (
            0.5 * float((z - prior.mean) @ prior.precision @ (z - prior.mean))
            + 0.5 * float(np.sum((f + J @ (z - x)) ** 2))
        )
        diffs.append(quad - target)
    assert np.var(diffs) < 1e-18


def test_point_state_caches_proposal_and_flags_singularity():
    h = quickstart_handle()
    prior = GaussianPrior.create([0.0], [[1.0]])
    st = point_state(prior, h, [1.0])
    assert st.inside and proposal(st) is not None and not st.proposal_failed
    assert st.log_post == pytest.approx(-0.5)

    flat = GaussianPrior.flat([0.0])
    st0 = point_state(flat, h, [0.0])
    assert proposal(st0) is None and st0.proposal_failed


def test_point_state_outside_domain():
    h = ModelHandle(lambda x, a: (x[0] > 0, [x[0]], [[1.0]]), None, dim_in=1)
    st = point_state(GaussianPrior.flat([0.0]), h, [-2.0])
    assert st.log_post == -np.inf and proposal(st) is None and not st.proposal_failed
    assert st.residual_sq == np.inf


def test_point_state_computes_residual_norm_and_log_post_once_bit_identically():
    # the stored ||f||^2 and log-posterior equal the public function's, and
    # the prior's H m is computed once and reused
    rng = np.random.default_rng(11)
    h = linear_handle(rng.normal(size=(4, 3)), rng.normal(size=4))
    prior = GaussianPrior.create(rng.normal(size=3), _random_spd(rng, 3))
    for _ in range(20):
        x = rng.normal(size=3)
        st = point_state(prior, h, x)
        f = st.residual
        assert st.residual_sq == float(f @ f)
        assert st.log_post == log_posterior(prior, h.evaluate(x))
    np.testing.assert_array_equal(prior.precision_mean, prior.precision @ prior.mean)
    assert prior.precision_mean is prior.precision_mean


def _reference_gn_proposal(prior, ev, x):
    # the validated construction: a symmetrized P, its factor, and scipy's
    # triangular solves
    J, f = ev.jacobian, ev.residual
    JtJ = J.T @ J
    P = prior.precision + JtJ
    P = 0.5 * (P + P.T)
    chol, log_norm = _factor(P)
    rhs = prior.precision @ prior.mean - J.T @ f + JtJ @ x
    half = solve_triangular(chol, rhs, lower=True, check_finite=False)
    mu = solve_triangular(chol, half, lower=True, trans="T", check_finite=False)
    return PrecisionGaussian(mean=mu, precision=P, chol=chol, log_norm=log_norm)


def _reference_sample(g, z):
    return g.mean + solve_triangular(g.chol, z, lower=True, trans="T", check_finite=False)


def _assert_same_gaussian(got, ref):
    np.testing.assert_array_equal(got.mean, ref.mean)
    np.testing.assert_array_equal(got.precision, ref.precision)
    np.testing.assert_array_equal(got.chol, ref.chol)
    assert got.log_norm == ref.log_norm


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_gn_proposal_and_sample_bit_identical_to_validated_path(n):
    rng = np.random.default_rng(100 + n)
    for prior in (GaussianPrior.flat(rng.normal(size=n)),
                  GaussianPrior.create(rng.normal(size=n), _random_spd(rng, n))):
        for _ in range(20):
            x = rng.normal(size=n)
            f = rng.normal(size=n + 2)
            ev = ModelEval(x=x, inside=True, residual=f, jacobian=rng.normal(size=(n + 2, n)),
                           residual_sq=float(f.dot(f)))
            g = proposal(gn_proposal(prior, ev))
            _assert_same_gaussian(g, _reference_gn_proposal(prior, ev, x))
            center = rng.normal(size=n)
            dilated = [g.dilate(center, gamma) for gamma in (1.0, 0.5, 0.13)]
            f_ordered = PrecisionGaussian(mean=g.mean, precision=g.precision,
                                          chol=np.asfortranarray(g.chol),
                                          log_norm=g.log_norm)
            for kern in [g, f_ordered] + dilated:
                for _ in range(3):
                    z = rng.standard_normal(n)
                    np.testing.assert_array_equal(kern.sample(z), _reference_sample(kern, z))


def _jacobian_in_layout(J, layout):
    if layout == "C":
        return np.ascontiguousarray(J)
    if layout == "F":
        return np.asfortranarray(J)
    # a strided view into a larger array, neither C- nor F-contiguous
    m, n = J.shape
    big = np.zeros((2 * m, 3 * n))
    big[::2, ::3] = J
    return big[::2, ::3]


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_gn_proposal_precision_exactly_symmetric_for_any_jacobian_layout(layout):
    # gn_proposal does not symmetrize H + J'J: H is exactly symmetric and
    # J.T @ J is too, so P equals the symmetrized formula bit for bit
    rng = np.random.default_rng({"C": 61, "F": 62, "strided": 63}[layout])
    # J.T.dot(J) of a strided 16x12 or 30x12 J is not exactly symmetric
    for n, m in [(n, m) for n in range(1, 13) for m in (n + 1, n + 4, 30)]:
        H = _random_spd(rng, n)
        H[0, -1] += 1e-13  # a prior built with the constructor may be asymmetric
        for prior in (GaussianPrior.flat(np.zeros(n)), GaussianPrior(rng.normal(size=n), H)):
            for _ in range(5):
                J = _jacobian_in_layout(rng.normal(size=(m, n)), layout)
                h = ModelHandle(lambda x, a, J=J: (1, rng.normal(size=m), J), None, dim_in=n)
                x = rng.normal(size=n)
                ev = h.evaluate(x)
                # evaluate's copy keeps the model's C or F layout; a strided
                # J is copied C-contiguous
                flags = ev.jacobian.flags
                assert {"C": flags.c_contiguous, "F": flags.f_contiguous,
                        "strided": flags.c_contiguous}[layout]
                P = proposal(gn_proposal(prior, ev)).precision
                np.testing.assert_array_equal(P, P.T)
                ref = prior.precision + ev.jacobian.T @ ev.jacobian
                np.testing.assert_array_equal(P, 0.5 * (ref + ref.T))


def test_prior_constructor_makes_precision_exactly_symmetric():
    rng = np.random.default_rng(64)
    for n in (2, 3, 5):
        given = _random_spd(rng, n)
        given[0, 1] += 1e-12
        kept = given.copy()
        prior = GaussianPrior(np.zeros(n), given)
        np.testing.assert_array_equal(prior.precision, prior.precision.T)
        np.testing.assert_array_equal(prior.precision, 0.5 * (kept + kept.T))
        np.testing.assert_array_equal(given, kept)  # the caller's matrix is not modified
        np.testing.assert_array_equal(GaussianPrior.create(np.zeros(n), given).precision,
                                      prior.precision)


def test_prior_symmetry_check_is_allclose_at_1e_10():
    # create refuses exactly the matrices that
    # np.allclose(P, P.T, rtol=1e-10, atol=1e-10) calls asymmetric
    rng = np.random.default_rng(65)
    for _ in range(400):
        n = int(rng.integers(2, 5))
        P = _random_spd(rng, n) * 10.0 ** rng.integers(-12, 12)
        P[0, 1] += rng.choice([0.5, 1.0, 1.5]) * (1e-10 + 1e-10 * abs(P[1, 0]))
        if np.allclose(P, P.T, rtol=1e-10, atol=1e-10):
            GaussianPrior.create(np.zeros(n), P)
        else:
            with pytest.raises(NotPSD, match="not symmetric"):
                GaussianPrior.create(np.zeros(n), P)


def _nan_residual(x, a):
    return 1, [np.nan], [[1.0]]


def _nan_jacobian(x, a):
    return 1, [x[0]], [[np.nan]]


def _inf_jacobian(x, a):
    return 1, [x[0]], [[np.inf]]


def _neg_inf_jacobian(x, a):
    # under the flat prior J'J fails the factorization instead of giving inf
    return 1, [x[0]], [[-np.inf, 1.0, 1.0]]


def _overflow_jacobian(x, a):
    # finite, but J'J overflows; under the flat prior at n = 3 the
    # factorization fails instead of giving an infinite log-determinant
    return 1, [x[0]], [[-1e200] + [1.0] * (x.shape[0] - 1)]


@pytest.mark.parametrize("fn,n", [(_nan_residual, 1), (_nan_jacobian, 1),
                                  (_inf_jacobian, 1), (_neg_inf_jacobian, 3),
                                  (_overflow_jacobian, 1), (_overflow_jacobian, 3)])
@pytest.mark.parametrize("informative", [False, True])
def test_point_state_non_finite_output_raises_naming_x(fn, n, informative):
    h = ModelHandle(fn, None, dim_in=n)
    x = [0.625] * n
    prior = (GaussianPrior.create(np.zeros(n), np.eye(n)) if informative
             else GaussianPrior.flat(np.zeros(n)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(UserFunctionFailure, match=r"x = \[0\.625"):
            point_state(prior, h, x)
    # J'J is formed once, so an overflowing one warns once; no other case warns
    overflows = 1 if fn is _overflow_jacobian else 0
    assert [(w.category, "overflow" in str(w.message)) for w in caught] == \
        [(RuntimeWarning, True)] * overflows


@pytest.mark.parametrize("fn,n", [(_nan_jacobian, 1), (_inf_jacobian, 1),
                                  (_neg_inf_jacobian, 3), (_overflow_jacobian, 3)])
def test_gn_proposal_non_finite_jtj_raises_naming_x(fn, n):
    # the proposal judges its own J'J when the factorization refuses H + J'J
    ev = ModelHandle(fn, None, dim_in=n).evaluate([0.625] * n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(UserFunctionFailure, match=r"x = \[0\.625.*J'J is not finite"):
            gn_proposal(GaussianPrior.flat(np.zeros(n)), ev)


@pytest.mark.parametrize("action", ["default", "error"])
def test_overflow_same_outcome_under_any_warning_filter(action):
    overflowing_jtj = ModelHandle(lambda x, a: (1, [x[0]], [[-1e200]]), None, dim_in=1)
    zero_residual = ModelHandle(lambda x, a: (1, [0.0], [[1.0]]), None, dim_in=1)
    # J'J = 1e300 is finite, but J'f overflows, so the mean is -inf
    overflowing_mean = ModelHandle(lambda x, a: (True, [1e200], [[1e150]]), None, dim_in=1)
    with warnings.catch_warnings(record=True):
        warnings.simplefilter(action, RuntimeWarning)
        with pytest.raises(UserFunctionFailure, match=r"x = \[0\.625\]: J'J is not finite"):
            Sampler([0.625], overflowing_jtj)
        with pytest.raises(UserFunctionFailure,
                           match=r"^non-finite model output at x = \[0\.0\]: "
                                 r"the Gauss-Newton mean is not finite$"):
            Sampler([0.0], overflowing_mean, seed=1, prior=GaussianPrior.create([0.0], [[1.0]]))
        # the prior's quadratic form overflows to inf: zero density
        assert log_posterior(GaussianPrior.create([0.0], [[1.0]]),
                             zero_residual.evaluate([1e200])) == -np.inf


@pytest.mark.parametrize("action", ["default", "error"])
def test_nan_prior_term_is_zero_density_under_any_warning_filter(action):
    # d.H overflows to +inf and -inf, so (d.H).d is NaN under the default
    # filter; a NaN residual there is still the model's error
    prior = GaussianPrior.create([0, 0], [[2, -2], [-2, 2]])
    far = [1e308, 1e308]
    zero_residual = ModelHandle(lambda x, a: (1, [0.0], [[0.0, 0.0]]), None, dim_in=2)
    nan_residual = ModelHandle(lambda x, a: (1, [np.nan], [[0.0, 0.0]]), None, dim_in=2)
    with warnings.catch_warnings(record=True):
        warnings.simplefilter(action, RuntimeWarning)
        assert log_posterior(prior, zero_residual.evaluate(far)) == -np.inf
        assert point_state(prior, zero_residual, far).log_post == -np.inf
        with pytest.raises(UserFunctionFailure, match=r"x = \[1e\+308, 1e\+308\]: a NaN residual"):
            log_posterior(prior, nan_residual.evaluate(far))


def test_log_posterior_nan_residual_raises_naming_x():
    h = ModelHandle(_nan_residual, None, dim_in=1)
    with pytest.raises(UserFunctionFailure, match=r"x = \[0\.625\]"):
        log_posterior(GaussianPrior.flat([0.0]), h.evaluate([0.625]))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_point_state_infinite_residual_is_zero_density(sign):
    h = ModelHandle(lambda x, a: (1, [sign * np.inf], [[1.0]]), None, dim_in=1)
    st = point_state(GaussianPrior.create([0.0], [[1.0]]), h, [0.5])
    assert st.log_post == -np.inf
    assert proposal(st) is not None and np.isfinite(proposal(st).log_norm)


@pytest.mark.parametrize("action", ["default", "error"])
def test_opposite_infinite_residuals_are_zero_density_under_any_warning_filter(action):
    # J'f is inf - inf, so the mean is NaN; the point is zero density, not an error
    h = ModelHandle(lambda x, a: (1, [np.inf, -np.inf], [[1.0], [1.0]]), None, dim_in=1)
    with warnings.catch_warnings(record=True):
        warnings.simplefilter(action, RuntimeWarning)
        st = point_state(GaussianPrior.create([0.0], [[1.0]]), h, [0.5])
    assert st.log_post == -np.inf and not st.proposal_failed
    assert np.isfinite(st.log_norm) and np.isnan(st.mean).all()


@pytest.mark.parametrize("action", ["default", "error"])
def test_overflowing_residual_norm_is_zero_density_under_any_warning_filter(action):
    # ||f||^2 = 1e400 overflows; it is formed once per evaluation
    h = ModelHandle(lambda x, a: (1, [1e200], [[1.0]]), None, dim_in=1)
    prior = GaussianPrior.create([0.0], [[1.0]])
    with warnings.catch_warnings(record=True):
        warnings.simplefilter(action, RuntimeWarning)
        sampler = Sampler([0.5], h, prior=prior)
        assert sampler.current.residual_sq == np.inf
        assert sampler.current.log_post == -np.inf
        assert proposal(sampler.current) is not None
        assert log_posterior(prior, h.evaluate([0.5])) == -np.inf
        assert sampler.posterior_at([0.5]) == 0.0


_STATE_FIELDS = ("x", "residual", "jacobian", "residual_sq", "log_post",
                 "mean", "precision", "chol", "log_norm")


def _assert_same_state(got, ref):
    for name in _STATE_FIELDS:
        np.testing.assert_array_equal(getattr(got, name), getattr(ref, name), err_msg=name)
        assert np.asarray(getattr(got, name)).dtype == np.float64, name


@pytest.mark.parametrize("convert", [
    lambda f, J: (f.tolist(), J.tolist()),
    lambda f, J: (np.rint(f * 8).astype(int), np.rint(J * 8).astype(int)),
    lambda f, J: (f.astype(np.float32), J.astype(np.float32)),
], ids=["lists", "ints", "float32"])
def test_point_state_same_for_any_output_type(convert):
    # whatever numbers the model returns, the record holds their float64
    # values, bit for bit as if returned as float64 C-ordered arrays
    rng = np.random.default_rng(71)
    for n in (1, 2, 4):
        prior = GaussianPrior.create(rng.normal(size=n), _random_spd(rng, n))
        for _ in range(10):
            f, J = convert(rng.normal(size=n + 3), rng.normal(size=(n + 3, n)))
            f64 = np.ascontiguousarray(f, dtype=np.float64)
            J64 = np.ascontiguousarray(J, dtype=np.float64)
            x = rng.normal(size=n)
            got = point_state(prior, ModelHandle(lambda x, a: (1, f, J), None, dim_in=n), x)
            ref = point_state(prior, ModelHandle(lambda x, a: (1, f64, J64), None, dim_in=n), x)
            _assert_same_state(got, ref)


@pytest.mark.parametrize("layout", ["F", "read-only"])
def test_point_state_keeps_the_models_layout(layout):
    # the copied Jacobian keeps an F-ordered layout, so the proposal equals
    # the validated construction on that same layout
    rng = np.random.default_rng({"F": 72, "read-only": 73}[layout])
    for n in (1, 2, 3, 5):
        prior = GaussianPrior.create(rng.normal(size=n), _random_spd(rng, n))
        for _ in range(10):
            f, J = rng.normal(size=n + 2), rng.normal(size=(n + 2, n))
            if layout == "F":
                J = np.asfortranarray(J)
            else:
                f.flags.writeable = J.flags.writeable = False
            x = rng.normal(size=n)
            st = point_state(prior, ModelHandle(lambda x, a: (1, f, J), None, dim_in=n), x)
            assert st.jacobian.flags.f_contiguous == (layout == "F" or n == 1)
            assert st.residual is not f and st.jacobian is not J
            ev = ModelEval(x=x, inside=True, residual=f, jacobian=J, residual_sq=float(f.dot(f)))
            _assert_same_gaussian(proposal(st), _reference_gn_proposal(prior, ev, x))
            assert st.log_post == log_posterior(prior, ev)
