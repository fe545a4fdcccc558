import contextlib

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from gnmh.errors import NotPSD, SingularProposal, UserFunctionFailure
from gnmh.gaussian import PrecisionGaussian
from gnmh.model import ModelEval, ModelHandle, linear_handle, quickstart_handle
from gnmh.posterior import (
    GaussianPrior,
    gn_proposal,
    log_posterior,
    point_state,
)


def test_prior_validation():
    GaussianPrior.create([0.0, 0.0], np.zeros((2, 2)))  # flat is fine
    with pytest.raises(NotPSD):
        GaussianPrior.create([0.0], [[-0.1]])
    with pytest.raises(NotPSD):
        GaussianPrior.create([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])


def test_log_posterior_outside_domain():
    h = ModelHandle(lambda x, a: (x[0] > 0, [x[0]], [[1.0]]), None, dim_in=1)
    prior = GaussianPrior.flat([0.0])
    assert log_posterior(prior, h.evaluate([-1.0]), [-1.0]) == -np.inf


def test_log_posterior_quickstart_at_zero():
    # prior term 0, residual -2: log p = -2
    h = quickstart_handle(y=1.0, sigma=0.5)
    prior = GaussianPrior.create([0.0], [[1.0]])
    assert log_posterior(prior, h.evaluate([0.0]), [0.0]) == pytest.approx(-2.0)


def test_flat_prior_zero_residual_gives_zero():
    h = ModelHandle(lambda x, a: (1, [0.0], [[1.0]]), None, dim_in=1)
    prior = GaussianPrior.flat([0.0])
    for x in (-3.0, 0.0, 7.5):
        assert log_posterior(prior, h.evaluate([x]), [x]) == 0.0


def test_gn_proposal_identity_residual():
    # f(x) = x, H = 1, m = 0: P = 2, mu = 0 regardless of x
    h = ModelHandle(lambda x, a: (1, [x[0]], [[1.0]]), None, dim_in=1)
    prior = GaussianPrior.create([0.0], [[1.0]])
    for x in (-2.0, 0.5, 3.0):
        g = gn_proposal(prior, h.evaluate([x]), [x])
        assert g.precision[0, 0] == pytest.approx(2.0)
        assert g.mean[0] == pytest.approx(0.0)


def test_gn_proposal_flat_prior_shifted_line():
    # f(x) = x - c with flat prior: proposal is N(c, 1), the posterior itself
    c = 1.7
    h = ModelHandle(lambda x, a: (1, [x[0] - c], [[1.0]]), None, dim_in=1)
    prior = GaussianPrior.flat([0.0])
    g = gn_proposal(prior, h.evaluate([5.0]), [5.0])
    assert g.precision[0, 0] == pytest.approx(1.0)
    assert g.mean[0] == pytest.approx(c)


def test_gn_proposal_quickstart_at_one():
    h = quickstart_handle(y=1.0, sigma=0.5)
    prior = GaussianPrior.create([0.0], [[1.0]])
    g = gn_proposal(prior, h.evaluate([1.0]), [1.0])
    assert g.precision[0, 0] == pytest.approx(17.0)
    assert g.mean[0] == pytest.approx(16.0 / 17.0)


def test_gn_proposal_singular_when_flat_and_zero_jacobian():
    h = quickstart_handle(y=1.0, sigma=0.5)
    prior = GaussianPrior.flat([0.0])
    with pytest.raises(SingularProposal):
        gn_proposal(prior, h.evaluate([0.0]), [0.0])


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
        g = gn_proposal(prior, h.evaluate(x), x)
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
        g = gn_proposal(prior, h.evaluate(B @ x + b), B @ x + b)
        g_tilde = gn_proposal(prior_tilde, h_tilde.evaluate(x), x)
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
    g = gn_proposal(prior, ev, x)
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
    assert st.inside and st.proposal is not None and not st.proposal_failed
    assert st.log_post == pytest.approx(-0.5)

    flat = GaussianPrior.flat([0.0])
    st0 = point_state(flat, h, [0.0])
    assert st0.proposal is None and st0.proposal_failed


def test_point_state_outside_domain():
    h = ModelHandle(lambda x, a: (x[0] > 0, [x[0]], [[1.0]]), None, dim_in=1)
    st = point_state(GaussianPrior.flat([0.0]), h, [-2.0])
    assert st.log_post == -np.inf and st.proposal is None and not st.proposal_failed
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
        f = st.eval.residual
        assert st.residual_sq == float(f @ f)
        assert st.log_post == log_posterior(prior, h.evaluate(x), x)
    np.testing.assert_array_equal(prior.precision_mean, prior.precision @ prior.mean)
    assert prior.precision_mean is prior.precision_mean


def _reference_gn_proposal(prior, ev, x):
    # the validated construction: from_precision plus scipy's triangular solves
    J, f = ev.jacobian, ev.residual
    JtJ = J.T @ J
    P = prior.precision + JtJ
    P = 0.5 * (P + P.T)
    shell = PrecisionGaussian.from_precision(np.zeros_like(x), P)
    rhs = prior.precision @ prior.mean - J.T @ f + JtJ @ x
    half = solve_triangular(shell.chol, rhs, lower=True, check_finite=False)
    mu = solve_triangular(shell.chol, half, lower=True, trans="T", check_finite=False)
    return PrecisionGaussian(mean=mu, precision=shell.precision,
                             chol=shell.chol, log_norm=shell.log_norm)


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
            ev = ModelEval(inside=True, residual=rng.normal(size=n + 2),
                           jacobian=rng.normal(size=(n + 2, n)))
            g = gn_proposal(prior, ev, x)
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
        for prior in (GaussianPrior.flat(n), GaussianPrior(rng.normal(size=n), H)):
            for _ in range(5):
                J = _jacobian_in_layout(rng.normal(size=(m, n)), layout)
                h = ModelHandle(lambda x, a, J=J: (1, rng.normal(size=m), J), None, dim_in=n)
                x = rng.normal(size=n)
                ev = h.evaluate(x)
                flags = ev.jacobian.flags  # evaluate kept the model's layout
                assert {"C": flags.c_contiguous, "F": flags.f_contiguous,
                        "strided": not (flags.c_contiguous or flags.f_contiguous)}[layout]
                P = gn_proposal(prior, ev, x).precision
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
             else GaussianPrior.flat(n))
    # the model's own J'J overflows; no other case may warn
    overflow = (pytest.warns(RuntimeWarning, match="overflow")
                if fn is _overflow_jacobian else contextlib.nullcontext())
    with overflow, pytest.raises(UserFunctionFailure, match=r"x = \[0\.625"):
        point_state(prior, h, x)


def test_log_posterior_nan_residual_raises_naming_x():
    h = ModelHandle(_nan_residual, None, dim_in=1)
    with pytest.raises(UserFunctionFailure, match=r"x = \[0\.625\]"):
        log_posterior(GaussianPrior.flat(1), h.evaluate([0.625]), np.array([0.625]))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_point_state_infinite_residual_is_zero_density(sign):
    h = ModelHandle(lambda x, a: (1, [sign * np.inf], [[1.0]]), None, dim_in=1)
    st = point_state(GaussianPrior.create([0.0], [[1.0]]), h, [0.5])
    assert st.log_post == -np.inf
    assert st.proposal is not None and np.isfinite(st.proposal.log_norm)
