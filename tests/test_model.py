import copy
import dataclasses
import pickle
import warnings

import numpy as np
import pytest

from gnmh.errors import DimensionMismatch, UserFunctionFailure
from gnmh.jtest import JtestDomain, jtest
from gnmh.model import (
    EXAMPLES,
    ExpSeriesArgs,
    ModelHandle,
    exp_series_datagen,
    exp_series_handle,
    exp_series_model,
    quickstart_handle,
    quickstart_model,
    simple2d_handle,
)

from _examples import example_prior
from _oracle import linear_handle


def positive_half_line(x, args):
    if x[0] <= 0:
        return 0, None, None
    return 1, [x[0]], [[1.0]]


@pytest.mark.parametrize("dim_in, message", [
    (1.7, "dim_in must be an integer, got 1.7"),
    (0, "dim_in must be at least 1, got 0"),
    (True, "dim_in must be an integer, got True"),
])
def test_dim_in_is_a_count_of_at_least_one(dim_in, message):
    with pytest.raises(ValueError, match=message):
        ModelHandle(positive_half_line, None, dim_in=dim_in)
    h = ModelHandle(lambda x, a: (1, x, np.eye(2)), None, dim_in=np.int64(2))
    assert type(h.dim_in) is int and h.dim_in == 2


@pytest.mark.parametrize("n_terms", [2.5, True, 0])
def test_exp_series_handle_refuses_a_term_count_by_name(n_terms):
    data = exp_series_datagen(seed=14)
    with pytest.raises(ValueError, match="n_terms must be"):
        exp_series_handle(data, n_terms=n_terms)
    assert exp_series_handle(data, n_terms=np.int64(2)).dim_in == 4


def test_quickstart_at_one():
    h = quickstart_handle(y=1.0, sigma=0.5)
    ev = h.evaluate([1.0])
    assert ev.inside
    np.testing.assert_array_equal(ev.residual, [0.0])
    np.testing.assert_array_equal(ev.jacobian, [[4.0]])
    assert h.call_count == 1


def test_quickstart_at_zero():
    ev = quickstart_handle(y=1.0, sigma=0.5).evaluate([0.0])
    np.testing.assert_array_equal(ev.residual, [-2.0])
    np.testing.assert_array_equal(ev.jacobian, [[0.0]])


def test_outside_point_counts_and_hides_outputs():
    h = ModelHandle(positive_half_line, None, dim_in=1)
    ev = h.evaluate([-1.0])
    assert not ev.inside
    assert ev.residual is None and ev.jacobian is None
    assert h.call_count == 1


def test_numeric_indicator_coercion():
    h = ModelHandle(lambda x, a: (0.0, [1.0], [[1.0]]), None, dim_in=1)
    assert not h.evaluate([0.0]).inside
    h2 = ModelHandle(lambda x, a: (2, [1.0], [[1.0]]), None, dim_in=1)
    assert h2.evaluate([0.0]).inside


def test_call_count_increments_per_call():
    h = quickstart_handle()
    for expected in range(1, 6):
        h.evaluate([0.3])
        assert h.call_count == expected


def test_exp_series_zero_time_residual():
    args = ExpSeriesArgs(times=[0.0], data=[3.5], noise_sd=[1.0])
    ev = ModelHandle(exp_series_model, args, dim_in=4).evaluate([1.0, 2.5, 0.5, 3.1])
    np.testing.assert_allclose(ev.residual, [0.0], atol=1e-15)


def test_exp_series_single_term_values():
    args = ExpSeriesArgs(times=[1.0], data=[0.0], noise_sd=[1.0])
    ev = ModelHandle(exp_series_model, args, dim_in=2).evaluate([2.0, 0.0])
    np.testing.assert_allclose(ev.residual, [2.0])
    np.testing.assert_allclose(ev.jacobian, [[1.0, -2.0]])


def _reference_exp_series(x, args):
    # the formula as first written, with np.outer and np.hstack
    d = x.shape[0] // 2
    w = x[:d]
    rates = x[d:]
    t = args.times
    decay = np.exp(-np.outer(t, rates))
    g = decay @ w
    inv_sd = 1.0 / args.noise_sd
    f = (g - args.data) * inv_sd
    jac_w = decay * inv_sd[:, None]
    jac_rate = -(w[None, :] * decay) * t[:, None] * inv_sd[:, None]
    return True, f, np.hstack([jac_w, jac_rate])


@pytest.mark.parametrize("d,m", [(1, 1), (2, 10), (2, 37), (3, 5), (4, 16)])
def test_exp_series_bit_identical_to_reference_formula(d, m):
    rng = np.random.default_rng(50 + 7 * d + m)
    args = ExpSeriesArgs(times=rng.uniform(0.0, 8.0, m), data=rng.normal(size=m),
                         noise_sd=rng.uniform(0.05, 2.0, m))
    for _ in range(400):
        x = rng.normal(size=2 * d) * rng.uniform(0.1, 3.0)
        inside, f, jac = exp_series_model(x, args)
        _, f_ref, jac_ref = _reference_exp_series(x, args)
        assert inside
        np.testing.assert_array_equal(f, f_ref)
        np.testing.assert_array_equal(jac, jac_ref)
        assert jac.flags.c_contiguous


def test_exp_series_args_serve_several_term_counts_in_turn():
    # the per-term-count tiles are cached by d: one args serves 1, 2 and 3
    # terms interleaved, and the cache is neither a field nor in the repr
    rng = np.random.default_rng(61)
    args = ExpSeriesArgs(times=rng.uniform(0.0, 8.0, 7), data=rng.normal(size=7),
                         noise_sd=rng.uniform(0.05, 2.0, 7))
    fields, text = dataclasses.fields(ExpSeriesArgs), repr(args)
    assert [f.name for f in fields] == ["times", "data", "noise_sd", "neg_times", "inv_sd"]
    for d in [1, 2, 3, 2, 1, 3, 3, 1, 2] * 10:
        x = rng.normal(size=2 * d) * rng.uniform(0.1, 3.0)
        for a, b in zip(exp_series_model(x, args), _reference_exp_series(x, args)):
            np.testing.assert_array_equal(a, b)
    assert sorted(args._tiles) == [1, 2, 3]
    assert dataclasses.fields(ExpSeriesArgs) == fields and repr(args) == text


def test_exp_series_args_validation():
    with pytest.raises(DimensionMismatch):
        ExpSeriesArgs(times=[0.0, 1.0], data=[1.0], noise_sd=[1.0, 1.0])
    with pytest.raises(ValueError):
        ExpSeriesArgs(times=[0.0], data=[1.0], noise_sd=[0.0])


@pytest.mark.parametrize("name", ["times", "data", "noise_sd"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_exp_series_args_refuse_a_non_finite_entry_by_name(name, bad):
    # the data is refused where it is given, not blamed on the model later
    fields = dict(times=[0.0, 1.0], data=[1.0, 0.5], noise_sd=[0.1, 0.2])
    fields[name] = [fields[name][0], bad]
    with pytest.raises(ValueError, match=f"^{name} has a non-finite entry$"):
        ExpSeriesArgs(**fields)


@pytest.mark.parametrize("build", [quickstart_handle, simple2d_handle])
@pytest.mark.parametrize("setting, value", [
    ("sigma", 0.0), ("sigma", -1.0), ("sigma", np.nan), ("sigma", np.inf), ("sigma", "0.5"),
    ("y", np.inf), ("y", -np.inf), ("y", np.nan), ("y", True),
])
def test_example_handles_refuse_a_setting_by_name(build, setting, value):
    with pytest.raises(ValueError, match=f"^{setting} must be a finite"):
        build(**{setting: value})


@pytest.mark.parametrize("action", ["error", "always"])
@pytest.mark.parametrize("build, message", [
    (lambda sd: ExpSeriesArgs(times=[0.0], data=[1.0], noise_sd=[sd]),
     "noise_sd has an entry whose reciprocal overflows"),
    (lambda sd: quickstart_handle(sigma=sd), "sigma must have a finite reciprocal, got 1e-310"),
    (lambda sd: simple2d_handle(sigma=sd), "sigma must have a finite reciprocal, got 1e-310"),
], ids=["noise_sd", "quickstart", "simple2d"])
def test_a_scale_whose_reciprocal_overflows_is_refused_by_name(build, message, action):
    # 1 / 1e-310 overflows: the scale is refused where it is given, with no
    # warning, rather than making every residual inf or NaN
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action, RuntimeWarning)
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(1e-310)
        build(1e-300)  # a scale that small is kept, as its reciprocal is finite
    assert caught == []


@pytest.mark.parametrize("build", [quickstart_handle, simple2d_handle])
def test_example_handles_keep_valid_settings(build):
    assert build().args == {"y": 1.0, "sigma": 0.5}
    assert build(y=-2, sigma=np.float64(1e-3)).args == {"y": -2, "sigma": 1e-3}


@pytest.mark.parametrize("name", ["times", "data", "noise_sd", "neg_times", "inv_sd"])
def test_exp_series_args_fields_cannot_be_assigned(name):
    args = ExpSeriesArgs(times=[0.0, 1.0], data=[1.0, 0.5], noise_sd=[0.1, 0.2])
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(args, name, np.zeros(2))


def test_exp_series_args_hold_read_only_copies():
    times, data, noise_sd = np.array([0.0, 1.0]), np.array([1.0, 0.5]), np.array([0.1, 0.2])
    args = ExpSeriesArgs(times=times, data=data, noise_sd=noise_sd)
    x = np.array([1.0, 2.5, 0.5, 3.1])
    before = exp_series_model(x, args)
    times[1], data[1], noise_sd[1] = 7.0, -3.0, 9.0
    after = exp_series_model(x, args)
    for a, b in zip(before[1:], after[1:]):
        np.testing.assert_array_equal(a, b)
    for name in ("times", "data", "noise_sd", "neg_times", "inv_sd"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(args, name)[0] = 1.0
    for tile in args._tiles[2]:  # the -t and 1/noise_sd tiles the call built
        with pytest.raises(ValueError, match="read-only"):
            tile[0, 0] = 1.0


@pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda a: pickle.loads(pickle.dumps(a))],
                         ids=["deepcopy", "pickle"])
def test_exp_series_args_copies_are_rebuilt_read_only(duplicate):
    # a copy with writeable times would leave its neg_times stale
    args = ExpSeriesArgs(times=[0.0, 1.0], data=[1.0, 0.5], noise_sd=[0.1, 0.2])
    x = np.array([1.0, 2.5, 0.5, 3.1])
    want = exp_series_model(x, args)
    dup = duplicate(args)
    for name in ("times", "data", "noise_sd", "neg_times", "inv_sd"):
        np.testing.assert_array_equal(getattr(dup, name), getattr(args, name))
        with pytest.raises(ValueError, match="read-only"):
            getattr(dup, name)[0] = 1.0
    for a, b in zip(exp_series_model(x, dup), want):
        np.testing.assert_array_equal(a, b)
    assert dup._tiles is not args._tiles


def test_exp_series_list_args_same_output_as_arrays():
    rng = np.random.default_rng(8)
    times, data, noise_sd = rng.uniform(0.0, 3.0, 6), rng.normal(size=6), rng.uniform(0.1, 1.0, 6)
    from_lists = ExpSeriesArgs(times.tolist(), data.tolist(), noise_sd.tolist())
    from_arrays = ExpSeriesArgs(times, data, noise_sd)
    for _ in range(20):
        x = rng.normal(size=4)
        for a, b in zip(exp_series_model(x, from_lists), exp_series_model(x, from_arrays)):
            np.testing.assert_array_equal(a, b)


def test_exp_series_overflow_names_x_under_an_error_filter():
    # a rate of -1e3 at t = 3 makes exp overflow inside the model
    h = exp_series_handle(ExpSeriesArgs(times=[0.0, 3.0], data=[1.0, 1.0],
                                        noise_sd=[1.0, 1.0]), n_terms=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(UserFunctionFailure, match=r"x = \[1\.0, -1000\.0\].*overflow"):
            h.evaluate([1.0, -1e3])


def test_linear_identity_case():
    h = linear_handle(np.eye(2), np.zeros(2))
    ev = h.evaluate([3.0, 4.0])
    np.testing.assert_array_equal(ev.residual, [3.0, 4.0])
    np.testing.assert_array_equal(ev.jacobian, np.eye(2))


def test_simple2d_values():
    ev = simple2d_handle(y=1.0, sigma=0.5).evaluate([1.0, 0.0])
    np.testing.assert_allclose(ev.residual, [0.0])
    np.testing.assert_allclose(ev.jacobian, [[4.0, 0.0]])


def test_dim_out_inferred_then_enforced():
    calls = {"m": 2}

    def shifty(x, args):
        return 1, np.ones(calls["m"]), np.ones((calls["m"], 1))

    h = ModelHandle(shifty, None, dim_in=1)
    h.evaluate([0.0])
    assert h.dim_out == 2
    calls["m"] = 3
    with pytest.raises(DimensionMismatch):
        h.evaluate([0.0])


def test_wrong_input_length():
    with pytest.raises(DimensionMismatch):
        quickstart_handle().evaluate([1.0, 2.0])


_A = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])  # m = 3, n = 2


@pytest.mark.parametrize("m, jacobian", [
    (2, [[1.0]]),               # too few entries
    (3, _A.T),                  # transposed: as many entries, in the wrong layout
    (3, _A.ravel()),            # flattened
    (3, _A[:, :, None]),        # 3-D
], ids=["short", "transposed", "flattened", "3-d"])
def test_jacobian_size_mismatch(m, jacobian):
    n = 1 if m == 2 else 2
    h = ModelHandle(lambda x, a: (True, np.ones(m), jacobian), None, dim_in=n)
    with pytest.raises(DimensionMismatch, match=r"x = \[") as info:
        h.evaluate(np.full(n, 0.5))
    assert f"expected ({m}, {n})" in str(info.value)
    assert h.dim_out is None  # a refused output sets nothing


def test_array_inside_wrapped():
    h = ModelHandle(lambda x, a: (np.array([True, True]), _A @ x, _A), None, dim_in=2)
    with pytest.raises(UserFunctionFailure, match=r"x = \[0.1, 0.2\]"):
        h.evaluate([0.1, 0.2])


def test_user_exception_wrapped():
    def boom(x, args):
        raise RuntimeError("nope")

    with pytest.raises(UserFunctionFailure):
        ModelHandle(boom, None, dim_in=1).evaluate([0.0])


def test_non_triple_return_wrapped():
    h = ModelHandle(lambda x, a: (1, [1.0]), None, dim_in=1)
    with pytest.raises(UserFunctionFailure):
        h.evaluate([0.0])


@pytest.mark.parametrize("residual, jacobian", [([10 ** 400], [[1.0]]), ([1.0], [[10 ** 400]])],
                         ids=["residual", "jacobian"])
def test_int_too_large_for_a_float_wrapped(residual, jacobian):
    h = ModelHandle(lambda x, a: (1, residual, jacobian), None, dim_in=1)
    with pytest.raises(UserFunctionFailure, match=r"x = \[0\.5\].*OverflowError"):
        h.evaluate([0.5])


def test_bundled_models_overflow_to_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert quickstart_handle().evaluate([1e200]).residual[0] == np.inf
        assert simple2d_handle().evaluate([0.0, 1e200]).residual[0] == np.inf


@pytest.mark.parametrize("configure", [
    lambda s: None,
    lambda s: s.set_static(2, 0.3),
    lambda s: s.set_dynamic(2),
])
def test_instrumented_call_count_equality(configure):
    # the handle's counter must agree with an external tally exactly,
    # whatever the back-off mode
    tally = {"n": 0}

    def counted(x, args):
        tally["n"] += 1
        return 1, [(x[0] ** 2 - 1.0) / 0.5], [[2.0 * x[0] / 0.5]]

    h = ModelHandle(counted, None, dim_in=1)
    from gnmh.posterior import GaussianPrior
    from gnmh.sampler import Sampler

    s = Sampler([0.5], h, seed=0, prior=GaussianPrior.create([0.0], [[1.0]]))
    configure(s)
    s.run_sample(500)
    assert h.call_count == tally["n"]
    assert s.call_count == tally["n"]


@pytest.mark.parametrize("x, want", [
    ([0.25, -1.0], [0.25, -1.0]),                   # a list
    (np.array([2, -3]), [2.0, -3.0]),               # an int array
    (np.array([[0.25], [-1.0]]), [0.25, -1.0]),     # a 2-D column
    (np.array([0.25, -1.0], dtype=">f8"), [0.25, -1.0]),  # non-native byte order
])
def test_evaluate_coerces_x_to_a_1d_float64_array(x, want):
    seen = []

    def recording(x, args):
        seen.append(x)
        return 1, [x[0]], [[1.0, 0.0]]

    ev = ModelHandle(recording, None, dim_in=2).evaluate(x)
    assert type(ev.x) is np.ndarray and ev.x.dtype == np.float64 and ev.x.shape == (2,)
    np.testing.assert_array_equal(ev.x, want)
    assert seen[0] is ev.x  # the model sees the coerced point


@pytest.mark.parametrize("x", [np.zeros((2, 2)), [0.5], np.zeros(3, dtype=int)],
                         ids=["2-d", "short list", "long int array"])
def test_evaluate_refuses_x_of_another_length(x):
    h = ModelHandle(lambda x, a: (1, [x[0]], [[1.0, 0.0]]), None, dim_in=2)
    with pytest.raises(DimensionMismatch, match="model expects 2"):
        h.evaluate(x)
    assert h.call_count == 0


def test_evaluate_passes_a_float64_vector_through():
    x = np.array([0.25, -1.0])
    ev = ModelHandle(lambda x, a: (1, [x[0]], [[1.0, 0.0]]), None, dim_in=2).evaluate(x)
    assert ev.x is x


def _buffer_reusing_exp_series():
    """exp_series_model, but filling and returning the same two arrays on
    every call, as a model that avoids allocation may."""
    data = exp_series_datagen(seed=14)
    f_buf, jac_buf = np.empty(data.times.shape[0]), np.empty((data.times.shape[0], 4))

    def reusing(x, args):
        inside, f, jac = exp_series_model(x, args)
        f_buf[:] = f
        jac_buf[:] = jac
        return inside, f_buf, jac_buf

    return ModelHandle(reusing, data, dim_in=4)


def test_buffer_reusing_model_passes_jtest():
    # the difference quotients keep residuals from earlier calls
    box = JtestDomain.create(EXAMPLES["expseries"]["min"], EXAMPLES["expseries"]["max"])
    assert jtest(_buffer_reusing_exp_series(), box, rng=1) == 0.0


def test_buffer_reusing_model_gives_the_same_dynamic_chain():
    # dynamic back-off reads the residual and Jacobian of earlier points
    from gnmh.sampler import Sampler

    chains = []
    for handle in (EXAMPLES["expseries"]["handle"](), _buffer_reusing_exp_series()):
        s = Sampler(EXAMPLES["expseries"]["params"], handle, seed=1,
                    prior=example_prior("expseries"))
        s.set_dynamic(4)
        s.run_sample(300)
        chains.append((s.chain, s.call_count, s.step_count))
    (chain_a, calls_a, steps_a), (chain_b, calls_b, steps_b) = chains
    np.testing.assert_array_equal(chain_b, chain_a)
    assert (calls_b, steps_b) == (calls_a, steps_a)


@pytest.mark.parametrize("shape", [(), (1, 1)], ids=["scalar", "column"])
def test_residual_of_another_shape_gives_the_same_dynamic_chain(shape):
    # evaluate flattens the residual, so a quickstart model returning it as a
    # scalar or a 1x1 column samples as the 1-D residual does
    from gnmh.posterior import GaussianPrior
    from gnmh.sampler import Sampler

    def reshaped(x, args):
        inside, f, jac = quickstart_model(x, args)
        return inside, np.reshape(f, shape), jac

    chains = []
    for model in (quickstart_model, reshaped):
        s = Sampler([0.5], ModelHandle(model, {"y": 1.0, "sigma": 0.5}, dim_in=1), seed=3,
                    prior=GaussianPrior.create([0.0], [[1.0]]))
        s.set_dynamic(2)
        s.run_sample(300)
        chains.append((s.chain, s.call_count, s.step_count))
    (chain_a, calls_a, steps_a), (chain_b, calls_b, steps_b) = chains
    assert chain_b.tobytes() == chain_a.tobytes()
    assert (calls_b, steps_b) == (calls_a, steps_a)
