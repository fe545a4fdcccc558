import warnings

import numpy as np
import pytest

from gnmh.errors import DimensionMismatch, PointOutsideDomain, UserFunctionFailure
from gnmh.jtest import JtestDomain, JtestOptions, jtest
from gnmh.model import (
    EXAMPLES,
    ModelHandle,
    exp_series_datagen,
    exp_series_handle,
    quickstart_handle,
    quickstart_model,
    simple2d_handle,
)

from _oracle import linear_handle


def test_defaults_match_standard_values():
    o = JtestOptions()
    assert (o.dx, o.N, o.eps_max, o.p, o.l_max, o.r) == (2e-4, 1000, 1e-4, 2.0, 50, 0.5)


@pytest.mark.parametrize("field, bad, rule", [
    ("dx", 0.0, "dx > 0"), ("N", 0, "N >= 1"), ("eps_max", 0.0, "eps_max > 0"),
    ("p", 0.5, "p >= 1"), ("l_max", -1, "l_max >= 0"), ("r", 1.0, "0 < r < 1"),
    # N and l_max are counts: integers, numpy's too, but not bools
    ("N", 2.5, "N >= 1"), ("N", True, "N >= 1"),
    ("l_max", 1.5, "l_max >= 0"), ("l_max", True, "l_max >= 0"),
    # dx, eps_max, p and r are real numbers, and dx is finite
    ("dx", "0.1", "dx > 0, dx < inf"), ("dx", np.inf, "dx < inf"),
    # no first perturbation reaches beyond one box width
    ("dx", 1.5, "dx <= 1"), ("dx", 1e300, "dx <= 1"),
    ("eps_max", "1e-4", "eps_max > 0"), ("p", "2", "p >= 1"), ("r", None, "0 < r < 1"),
])
def test_options_validation(field, bad, rule):
    with pytest.raises(ValueError, match=f"need {rule};") as info:
        JtestOptions(**{field: bad})
    assert f"{field}={bad!r}" in str(info.value)
    if field in ("N", "l_max"):
        assert getattr(JtestOptions(**{field: np.int64(3)}), field) == 3


@pytest.mark.parametrize("field, bad", [("N", 2.5), ("l_max", True), ("p", "2")])
def test_options_message_names_the_field_types(field, bad):
    with pytest.raises(ValueError, match="N and l_max are integers, dx, eps_max, p and r "
                                         "real numbers"):
        JtestOptions(**{field: bad})


def test_options_take_numpy_reals_and_the_max_norm():
    o = JtestOptions(dx=np.float32(1e-3), eps_max=np.float64(1e-3), p=np.inf, r=np.float64(0.25))
    assert (o.dx, o.eps_max, o.p, o.r) == (np.float32(1e-3), 1e-3, np.inf, 0.25)
    assert JtestOptions(dx=1.0).dx == 1.0


@pytest.mark.parametrize("x_min, x_max", [([0.0], [np.inf]), ([-np.inf], [0.0]),
                                          ([np.nan], [1.0]), ([0.0, 0.0], [1.0, np.nan]),
                                          ([-1e308], [1e308])],
                         ids=["inf", "minus-inf", "nan", "nan-2d", "overflowing-width"])
def test_domain_refuses_a_box_without_a_finite_positive_width(x_min, x_max):
    for build in (JtestDomain.create, JtestDomain):
        with pytest.raises(ValueError, match="box .*need finite ends with low < high"):
            build(x_min, x_max)


def test_domain_validation():
    # the constructor checks, and create is the same call
    for build in (JtestDomain.create, JtestDomain):
        with pytest.raises(ValueError):
            build([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(DimensionMismatch):
            build([0.0], [1.0, 2.0])
        box = build([-2], [2])
        assert type(box) is JtestDomain
        assert (box.x_min.dtype, box.x_min.tolist(), box.x_max.tolist()) == (float, [-2.0], [2.0])


def test_linear_model_passes_immediately():
    h = linear_handle(np.array([[2.0, 0.5], [-0.3, 1.5], [0.1, -0.7]]),
                      np.array([0.4, -1.0, 0.2]))
    dom = JtestDomain.create([-3.0, -3.0], [3.0, 3.0])
    assert jtest(h, dom, rng=0) == 0.0


def test_quickstart_passes_on_standard_box():
    h = quickstart_handle(y=1.0, sigma=0.5)
    for build in (JtestDomain.create, JtestDomain):
        assert jtest(h, build([-2.0], [2.0]), rng=1) == 0.0


def test_simple2d_passes():
    h = simple2d_handle()
    dom = JtestDomain.create([-2.0, -2.0], [2.0, 2.0])
    assert jtest(h, dom, JtestOptions(N=200), rng=2) == 0.0


def test_exp_series_passes_on_standard_box():
    h = exp_series_handle(exp_series_datagen(seed=5), n_terms=2)
    dom = JtestDomain.create([0.1] * 4, [5.0] * 4)
    assert jtest(h, dom, JtestOptions(N=200), rng=3) == 0.0


@pytest.mark.parametrize("options, want, calls", [
    (JtestOptions(), 0.0, 9296),
    (JtestOptions(eps_max=1e-9), 33.955447114256685, 409),
], ids=["default", "eps_max-1e-9"])
def test_exp_series_pinned_on_the_bench_set_up(options, want, calls):
    # the benchmark's decay-series set-up; the shrink stages make the call
    # count move if any residual or Jacobian bit moves
    example = EXAMPLES["expseries"]
    h = example["handle"]()
    assert jtest(h, JtestDomain.create(example["min"], example["max"]), options, rng=7) == want
    assert h.call_count == calls


def _perturbed_quickstart(x, args):
    inside, f, jac = quickstart_model(x, args)
    return inside, f, [[jac[0][0] + 0.01]]


def test_perturbed_jacobian_detected():
    h = ModelHandle(_perturbed_quickstart, {"y": 1.0, "sigma": 0.5}, dim_in=1)
    err = jtest(h, JtestDomain.create([-2.0], [2.0]), rng=4)
    assert err >= 0.01 - 1e-4


def test_return_is_zero_or_above_threshold():
    h = ModelHandle(_perturbed_quickstart, {"y": 1.0, "sigma": 0.5}, dim_in=1)
    opts = JtestOptions()
    for seed in range(5):
        err = jtest(h, JtestDomain.create([-2.0], [2.0]), opts, rng=seed)
        assert err == 0.0 or err > opts.eps_max


def test_deterministic_given_seed():
    h1 = quickstart_handle()
    h2 = quickstart_handle()
    dom = JtestDomain.create([-2.0], [2.0])
    opts = JtestOptions(N=50)
    r1 = jtest(h1, dom, opts, rng=9)
    r2 = jtest(h2, dom, opts, rng=9)
    assert r1 == r2
    assert h1.call_count == h2.call_count


def test_call_accounting_when_all_pass_at_first_stage():
    # 1 evaluation for the analytic Jacobian plus 2 per column per point
    A = np.array([[2.0, 0.5], [-0.3, 1.5]])
    h = linear_handle(A, np.zeros(2))
    opts = JtestOptions(N=37)
    jtest(h, JtestDomain.create([-1.0, -1.0], [1.0, 1.0]), opts, rng=0)
    assert h.call_count == opts.N * (2 * h.dim_in + 1)


def test_redraws_when_point_outside_domain():
    # half of the box is outside the domain; points must be redrawn
    def half_plane(x, args):
        if x[0] <= 0:
            return 0, None, None
        return 1, [x[0] ** 2], [[2 * x[0]]]

    h = ModelHandle(half_plane, None, dim_in=1)
    dom = JtestDomain.create([-1.0], [1.0])
    assert jtest(h, dom, JtestOptions(N=40), rng=11) == 0.0


def test_errors_out_when_domain_never_hit():
    h = ModelHandle(lambda x, a: (0, None, None), None, dim_in=1)
    with pytest.raises(PointOutsideDomain):
        jtest(h, JtestDomain.create([0.0], [1.0]), JtestOptions(N=3), rng=0)


def test_box_dimension_must_match_model():
    h = quickstart_handle()
    with pytest.raises(DimensionMismatch):
        jtest(h, JtestDomain.create([-1.0, -1.0], [1.0, 1.0]), rng=0)


@pytest.mark.parametrize("output", ["residual", "jacobian"])
def test_non_finite_model_output_raises_naming_the_point(output):
    # finite everywhere except a NaN residual or Jacobian entry past x = 0.5
    def model(x, args):
        f, jac = x[0], 1.0
        if x[0] > 0.5:
            if output == "residual":
                f = np.nan
            else:
                jac = np.nan
        return True, [f], [[jac]]

    h = ModelHandle(model, None, dim_in=1)
    with pytest.raises(UserFunctionFailure, match="jtest point x = ") as info:
        jtest(h, JtestDomain.create([0.0], [1.0]), JtestOptions(N=50), rng=0)
    x = float(str(info.value).split("x = [")[1].split("]")[0])
    assert 0.5 - 1e-3 < x < 1.0
    # stops at the first non-finite error norm instead of shrinking 50 times
    assert h.call_count < 200


def test_redraws_when_a_perturbed_point_leaves_the_domain():
    # the domain is x < 1 and the first step is a quarter of the box (0.5, 1), so a
    # test point above 0.75 has a perturbed point outside and is drawn again
    outside = []

    def below_one(x, args):
        if not x[0] < 1.0:
            outside.append(x[0])
            return 0, None, None
        return 1, [x[0] ** 2], [[2.0 * x[0]]]

    h = ModelHandle(below_one, None, dim_in=1)
    assert jtest(h, JtestDomain.create([0.5], [1.0]), JtestOptions(dx=0.5, N=20), rng=0) == 0.0
    assert len(outside) == 27
    # each passing point costs 3 calls; each redrawn one its own and the outside x + shift
    assert h.call_count == 20 * 3 + 27 * 2


@pytest.mark.parametrize("action", ["default", "error"])
def test_infinite_residual_same_error_under_any_warning_filter(action):
    # inf - inf in a difference quotient is NaN, whatever the warning filter says
    def model(x, args):
        return True, [np.inf if x[0] > 0.5 else x[0]], [[1.0]]

    h = ModelHandle(model, None, dim_in=1)
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        with pytest.raises(UserFunctionFailure, match="jtest point x = .*residual differences"):
            jtest(h, JtestDomain.create([0.4], [0.6]), rng=0)
