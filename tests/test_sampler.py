import json
import os
import warnings
import zlib

import numpy as np
import pytest
from scipy.stats import kstest

from gnmh.cli import exp_series_datagen
from gnmh.errors import (
    BurnTooLarge,
    CheckpointWriteFailure,
    CorruptCheckpoint,
    DimensionMismatch,
    InitialGuessOutsideDomain,
    IOFailure,
    NotPSD,
    SingularProposal,
    UserFunctionFailure,
)
from gnmh.model import (
    ModelHandle,
    exp_series_handle,
    linear_handle,
    quickstart_handle,
    simple2d_handle,
)
from gnmh.gaussian import PrecisionGaussian
from gnmh.kernel import BackoffPolicy
from gnmh.posterior import GaussianPrior
from gnmh.sampler import Sampler


def make_quickstart(seed=0):
    s = Sampler([0.5], quickstart_handle(), seed=seed)
    s.set_prior([0.0], [[1.0]])
    return s


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_init_evaluates_once():
    s = make_quickstart()
    assert s.call_count == 1
    assert s.n_samples == 0


def test_init_outside_domain():
    h = ModelHandle(lambda x, a: (x[0] > 0, [x[0]], [[1.0]]), None, dim_in=1)
    with pytest.raises(InitialGuessOutsideDomain):
        Sampler([-1.0], h, seed=0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_init_non_finite_start_refused_before_any_model_call(bad):
    h = ModelHandle(lambda x, a: (1, x, np.eye(2)), None, dim_in=2)
    with pytest.raises(InitialGuessOutsideDomain,
                       match=r"x0 = \[0\.5, -?(inf|nan)\] has a non-finite entry"):
        Sampler([0.5, bad], h)
    assert h.call_count == 0


@pytest.mark.parametrize("action", ["default", "error"])
@pytest.mark.parametrize("residual", [[np.inf], [-np.inf], [np.inf, -np.inf]],
                         ids=["inf", "minus-inf", "inf-minus-inf"])
def test_init_non_finite_gauss_newton_mean_refused_under_any_warning_filter(action, residual):
    # an infinite residual is zero density, but every draw from a start
    # there would be a non-finite point
    h = ModelHandle(lambda x, a: (1, residual, [[1.0]] * len(residual)), None, dim_in=1)
    with warnings.catch_warnings(record=True):
        warnings.simplefilter(action, RuntimeWarning)
        for prior in (None, GaussianPrior.create([0.0], [[1.0]])):
            with pytest.raises(InitialGuessOutsideDomain,
                               match=r"Gauss-Newton mean \[-?(inf|nan)\] is not finite "
                                     r"at the initial guess x0 = \[0\.5\]"):
                Sampler([0.5], h, seed=1, prior=prior)


def test_init_keeps_its_own_copy_of_the_start_point():
    x0 = np.array([0.5])
    a = Sampler(x0, quickstart_handle(), seed=2, prior=GaussianPrior.create([0.0], [[1.0]]))
    x0[0] = 9.0
    a.run_sample(20)
    b = Sampler([0.5], quickstart_handle(), seed=2, prior=GaussianPrior.create([0.0], [[1.0]]))
    b.run_sample(20)
    np.testing.assert_array_equal(a.chain, b.chain)


def test_init_singular_flat_prior_at_zero_jacobian():
    with pytest.raises(SingularProposal):
        Sampler([0.0], quickstart_handle(), seed=0)


def test_set_prior_validation():
    s = make_quickstart()
    with pytest.raises(NotPSD):
        s.set_prior([0.0], [[-0.1]])
    with pytest.raises(DimensionMismatch):
        s.set_prior([0.0, 0.0], np.eye(2))


def test_refused_set_prior_leaves_sampler_unchanged():
    # at x = 0 the quickstart Jacobian is 0, so a flat prior leaves no proposal
    prior = GaussianPrior.create([0.0], [[1.0]])
    a = Sampler([0.0], quickstart_handle(), seed=8, prior=prior)
    b = Sampler([0.0], quickstart_handle(), seed=8, prior=prior)
    with pytest.raises(SingularProposal):
        a.set_prior([0.0], [[0.0]])
    assert a.prior is prior
    assert a.current == b.current
    a.run_sample(10)
    b.run_sample(10)
    np.testing.assert_array_equal(a.chain, b.chain)
    assert a.step_count == b.step_count and a.call_count == b.call_count


def test_set_prior_costs_no_model_call():
    s = make_quickstart()
    before = s.call_count
    s.set_prior([0.1], [[2.0]])
    assert s.call_count == before


# ---------------------------------------------------------------------------
# counters and invariants
# ---------------------------------------------------------------------------


def test_counter_identities_after_each_run():
    s = make_quickstart(seed=3)
    s.set_static(2, 0.3)
    for chunk in (50, 75, 125):
        s.run_sample(chunk)
        counts = s.step_count
        assert s.n_accepted == sum(v for k, v in counts.items() if k != -1)
        assert s.n_samples == s.n_accepted + counts[-1]
        assert s.accept_rate == pytest.approx(s.n_accepted / s.n_samples)


@pytest.mark.parametrize("policy,configure", [
    (BackoffPolicy.static(3, 0.1), lambda s: s.set_static(3, 0.1)),
    (BackoffPolicy.dynamic(3), lambda s: s.set_dynamic(3)),
], ids=["static", "dynamic"])
def test_assigned_policy_runs_as_the_setter_does(policy, configure):
    # step counts are sized where they are read and counted, so a policy
    # assigned directly counts every stage it can reach
    a, b = make_quickstart(seed=4), make_quickstart(seed=4)
    a.policy = policy
    configure(b)
    assert a.step_count == b.step_count == {-1: 0, 1: 0, 2: 0, 3: 0, 4: 0}
    a.run_sample(2000)
    b.run_sample(2000)
    np.testing.assert_array_equal(a.chain, b.chain)
    assert a.call_count == b.call_count
    assert a.step_count == b.step_count and a.step_count[4] > 0


def test_call_count_closed_form_without_backoff():
    s = make_quickstart(seed=1)
    s.run_sample(321)
    # one call at the initial guess plus one per proposal
    assert s.call_count == 1 + 321


def test_chain_rows_always_inside_domain():
    def half(x, args):
        if x[0] <= 0:
            return 0, None, None
        return 1, [(x[0] * x[0] - 1.0) / 0.5], [[2 * x[0] / 0.5]]

    s = Sampler([1.0], ModelHandle(half, None, dim_in=1), seed=5)
    s.set_prior([0.0], [[1.0]])
    s.run_sample(2000)
    assert np.all(s.chain[:, 0] > 0)


def _bad_past_one(bad_residual, bad_jacobian):
    """f(x) = x (posterior N(0, 1)), with the given output once x > 1;
    records each point where the bad output was returned."""
    seen = []

    def fn(x, args):
        if x[0] <= 1.0:
            return 1, [x[0]], [[1.0]]
        seen.append(x.copy())
        return 1, [x[0] if bad_residual is None else bad_residual], [[bad_jacobian]]

    return fn, seen


@pytest.mark.parametrize("bad_residual,bad_jacobian", [
    (np.nan, 1.0), (None, np.nan), (None, np.inf), (None, -np.inf),
])
def test_run_sample_non_finite_output_raises_naming_x(bad_residual, bad_jacobian):
    fn, seen = _bad_past_one(bad_residual, bad_jacobian)
    s = Sampler([0.0], ModelHandle(fn, None, dim_in=1), seed=3)
    with pytest.raises(UserFunctionFailure) as info:
        s.run_sample(2000)
    assert len(seen) == 1
    assert f"x = {seen[0].tolist()}" in str(info.value)


def test_run_sample_that_raises_keeps_the_transitions_before_it():
    # one model call per transition without back-off: the start's, one per
    # finished transition, then the call that raised
    # (at seed 10 the chain first proposes a point past 1 in transition 45)
    fn, _ = _bad_past_one(np.nan, 1.0)
    s = Sampler([0.0], ModelHandle(fn, None, dim_in=1), seed=10)
    with pytest.raises(UserFunctionFailure):
        s.run_sample(2000, divs=400)
    assert s.n_samples == s.call_count - 2 == 44
    assert sum(s.step_count.values()) == s.n_samples
    np.testing.assert_array_equal(s.chain[-1], s.current.x)


def test_run_sample_infinite_residual_is_rejected():
    fn, seen = _bad_past_one(np.inf, 1.0)
    s = Sampler([0.0], ModelHandle(fn, None, dim_in=1), seed=3)
    s.run_sample(2000)
    assert len(seen) > 0
    assert np.all(s.chain[:, 0] <= 1.0)


def test_resume_matches_single_run():
    a = make_quickstart(seed=42)
    a.run_sample(200)
    b = make_quickstart(seed=42)
    b.run_sample(100)
    b.run_sample(100)
    assert a.n_samples == b.n_samples == 200
    np.testing.assert_array_equal(a.chain, b.chain)


def test_divisions_do_not_change_the_chain():
    a = make_quickstart(seed=9)
    a.run_sample(120, divs=1)
    b = make_quickstart(seed=9)
    b.run_sample(120, divs=7)
    np.testing.assert_array_equal(a.chain, b.chain)


@pytest.mark.parametrize("n_samples, divs, message", [(0, 1, "n_samples must be at least 1"),
                                                      (10, 0, "divs must be at least 1")])
def test_run_sample_refuses_an_empty_run(n_samples, divs, message):
    s = make_quickstart(seed=1)
    with pytest.raises(ValueError, match=message):
        s.run_sample(n_samples, divs=divs)
    assert s.n_samples == 0 and s.call_count == 1  # only the start point was evaluated


@pytest.mark.parametrize("n_samples, divs, message", [
    (10.5, 1, r"n_samples must be an integer, got 10\.5"),
    (np.float64(10.0), 1, r"n_samples must be an integer, got np\.float64\(10\.0\)"),
    ("10", 1, r"n_samples must be an integer, got '10'"),
    (3, 1.0, r"divs must be an integer, got 1\.0"),
], ids=["fraction", "numpy-float", "string", "float-divs"])
def test_run_sample_refuses_a_non_integer_count(n_samples, divs, message):
    s = make_quickstart(seed=1)
    with pytest.raises(ValueError, match=message):
        s.run_sample(n_samples, divs=divs)
    assert s.n_samples == 0 and s.call_count == 1


def test_seeded_runs_bit_identical():
    a = make_quickstart(seed=1234)
    b = make_quickstart(seed=1234)
    a.set_dynamic(2)
    b.set_dynamic(2)
    a.run_sample(300)
    b.run_sample(300)
    assert a.chain.tobytes() == b.chain.tobytes()


def test_visual_prints_percentages(capsys):
    s = make_quickstart(seed=0)
    s.run_sample(10, divs=2, visual=True)
    out = capsys.readouterr().out
    assert "50.0%" in out and "100.0%" in out


# ---------------------------------------------------------------------------
# burn
# ---------------------------------------------------------------------------


def test_burn_semantics():
    s = make_quickstart(seed=7)
    s.run_sample(100)
    full = s.chain.copy()
    s.burn(0)
    assert s.n_samples == 100
    s.burn(30)
    assert s.n_samples == 70
    assert s.burned == 30
    np.testing.assert_array_equal(s.chain, full[30:])
    s.burn(70)
    assert s.n_samples == 0
    with pytest.raises(BurnTooLarge):
        s.burn(1)


@pytest.mark.parametrize("n_burned", [1.5, 2.0, np.float64(2.0), "2"],
                         ids=["fraction", "float", "numpy-float", "string"])
def test_burn_refuses_a_non_integer_count(n_burned):
    s = make_quickstart(seed=7)
    s.run_sample(10)
    with pytest.raises(BurnTooLarge, match="n_burned must be an integer, got"):
        s.burn(n_burned)
    assert s.n_samples == 10 and s.burned == 0


def test_counts_accept_numpy_integers():
    a = make_quickstart(seed=4)
    a.run_sample(np.int64(30), divs=np.int32(4))
    a.burn(np.int64(10))
    b = make_quickstart(seed=4)
    b.run_sample(30, divs=4)
    b.burn(10)
    assert a.burned == b.burned == 10
    np.testing.assert_array_equal(a.chain, b.chain)


def test_burn_keeps_counters():
    s = make_quickstart(seed=8)
    s.run_sample(100)
    accepted = s.n_accepted
    counts = s.step_count
    s.burn(40)
    assert s.n_accepted == accepted
    assert s.step_count == counts
    # rate still refers to all 100 attempted transitions
    assert s.accept_rate == pytest.approx(accepted / 100)


# ---------------------------------------------------------------------------
# posterior_at
# ---------------------------------------------------------------------------


def test_posterior_at_values():
    s = make_quickstart()
    assert s.posterior_at([0.0]) == pytest.approx(np.exp(-2.0))
    # consistency of ratios with the log posterior difference
    r = s.posterior_at([0.3]) / s.posterior_at([0.8])
    lp = lambda x: -0.5 * x**2 - 0.5 * ((x**2 - 1.0) / 0.5) ** 2
    assert r == pytest.approx(np.exp(lp(0.3) - lp(0.8)))


def test_posterior_at_outside_domain_is_zero():
    h = ModelHandle(lambda x, a: (x[0] > 0, [x[0]], [[1.0]]), None, dim_in=1)
    s = Sampler([1.0], h, seed=0)
    assert s.posterior_at([-1.0]) == 0.0


def test_posterior_at_nan_residual_raises_naming_x():
    fn, _ = _bad_past_one(np.nan, 1.0)
    s = Sampler([0.0], ModelHandle(fn, None, dim_in=1), seed=0)
    assert s.posterior_at([0.5]) == pytest.approx(np.exp(-0.125))
    with pytest.raises(UserFunctionFailure) as info:
        s.posterior_at([2.0])
    assert "x = [2.0]" in str(info.value)


@pytest.mark.parametrize("bad_residual", [np.inf, -np.inf])
def test_posterior_at_infinite_residual_is_zero(bad_residual):
    fn, seen = _bad_past_one(bad_residual, 1.0)
    s = Sampler([0.0], ModelHandle(fn, None, dim_in=1), seed=0)
    assert s.posterior_at([2.0]) == 0.0
    assert len(seen) == 1


# ---------------------------------------------------------------------------
# exactness on the linear model
# ---------------------------------------------------------------------------


def test_linear_model_chain_is_iid_from_posterior():
    A = np.array([[1.0, 0.3], [0.0, 1.2], [0.5, -0.4]])
    b = np.array([0.5, -0.2, 0.1])
    H = np.array([[2.0, 0.4], [0.4, 1.5]])
    m = np.array([0.3, 0.1])
    s = Sampler([0.0, 0.0], linear_handle(A, b), seed=2024)
    s.set_prior(m, H)
    n = 100_000
    s.run_sample(n)
    assert s.accept_rate == 1.0

    P = H + A.T @ A
    mu = np.linalg.solve(P, H @ m + A.T @ b)
    cov = np.linalg.inv(P)
    for j in range(2):
        stat = kstest(s.chain[:, j], "norm", args=(mu[j], np.sqrt(cov[j, j]))).statistic
        assert stat < 1.63 / np.sqrt(n)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_continues_identically(tmp_path):
    path = tmp_path / "state.json"
    a = make_quickstart(seed=77)
    a.set_static(1, 0.2)
    a.run_sample(150)
    a.save_checkpoint(path)
    a.run_sample(150)

    b = Sampler.load_checkpoint(path, quickstart_handle())
    b.run_sample(150)
    np.testing.assert_array_equal(a.chain, b.chain)
    assert a.n_accepted == b.n_accepted
    assert a.call_count == b.call_count
    assert a.step_count == b.step_count


def test_checkpoint_restores_prior_policy_and_counters(tmp_path):
    path = tmp_path / "state.json"
    a = make_quickstart(seed=5)
    a.set_dynamic(2)
    a.run_sample(80)
    a.burn(10)
    a.save_checkpoint(path)

    b = Sampler.load_checkpoint(path, quickstart_handle())
    assert b.policy == a.policy
    np.testing.assert_array_equal(b.prior.mean, a.prior.mean)
    np.testing.assert_array_equal(b.prior.precision, a.prior.precision)
    assert b.burned == 10
    assert b.n_samples == 70
    assert b.accept_rate == a.accept_rate


def test_checkpoint_file_bytes_stable(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    a = make_quickstart(seed=13)
    a.run_sample(40)
    a.save_checkpoint(p1)
    b = Sampler.load_checkpoint(p1, quickstart_handle())
    b.save_checkpoint(p2)
    assert p1.read_bytes() == p2.read_bytes()


def _with_checksum(body):
    """A document text, as JSON without its checksum field, with that field
    holding the CRC-32 of ``body``."""
    crc = format(zlib.crc32(body.encode("utf-8")), "08x")
    return body[:-1] + ',"checksum":' + json.dumps(crc) + "}\n"


def test_checkpoint_wrong_version_rejected(tmp_path):
    path = tmp_path / "state.json"
    s = make_quickstart(seed=1)
    s.run_sample(10)
    s.save_checkpoint(path)
    doc = json.loads(path.read_text())
    del doc["checksum"]
    # version 1 held the chain in the document; version 2 also held the
    # dimension, n_samples and n_accepted
    v1 = {"format_version": 1, "dim": 1, "chain": s.chain.tolist()}
    v1.update((k, v) for k, v in doc.items()
              if k not in ("format_version", "chain_file", "chain_rows", "chain_crc", "warnings"))
    v2 = {"format_version": 2, "dim": 1}
    v2.update((k, v) for k, v in doc.items() if k != "format_version")
    v2["counters"] = dict(doc["counters"], n_samples=s.n_samples, n_accepted=s.n_accepted)
    v4 = dict(doc, format_version=4)
    for version, content in ((1, v1), (2, v2), (4, v4)):
        path.write_text(_with_checksum(_reference_serialize(content)))
        with pytest.raises(CorruptCheckpoint, match=f"format version {version} is not supported"):
            Sampler.load_checkpoint(path, quickstart_handle())


def test_checkpoint_other_dynamic_clamp_rejected(tmp_path):
    # the clamp bounds are constants, written to every document
    path = tmp_path / "state.json"
    s = make_quickstart(seed=1)
    s.set_dynamic(2)
    s.run_sample(10)
    s.save_checkpoint(path)
    doc = json.loads(path.read_text())
    del doc["checksum"]
    for key, value in (("t_lo", 0.1), ("t_hi", 0.9)):
        changed = dict(doc, policy=dict(doc["policy"], **{key: value}))
        path.write_text(_with_checksum(_reference_serialize(changed)))
        with pytest.raises(CorruptCheckpoint, match="clamp"):
            Sampler.load_checkpoint(path, quickstart_handle())


def test_checkpoint_tampering_detected(tmp_path):
    path = tmp_path / "state.json"
    s = make_quickstart(seed=1)
    s.run_sample(10)
    s.save_checkpoint(path)
    doc = json.loads(path.read_text())
    doc["counters"]["call_count"] += 1
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptCheckpoint):
        Sampler.load_checkpoint(path, quickstart_handle())


def test_checkpoint_not_json_refused(tmp_path):
    path = tmp_path / "state.json"
    path.write_text("{not json")
    with pytest.raises(CorruptCheckpoint, match="not valid JSON"):
        Sampler.load_checkpoint(path, quickstart_handle())


def test_checkpoint_one_digit_changed_in_document_detected(tmp_path):
    # same length, same checksum field: only the CRC comparison refuses it
    path = tmp_path / "state.json"
    s = make_quickstart(seed=1)
    s.run_sample(10)
    s.save_checkpoint(path)
    data = bytearray(path.read_bytes())
    at = data.index(b'"call_count":') + len(b'"call_count":')
    data[at] = ord("7") if data[at] != ord("7") else ord("8")
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptCheckpoint, match="checksum mismatch"):
        Sampler.load_checkpoint(path, quickstart_handle())


@pytest.mark.parametrize("change", [
    lambda doc: doc["policy"].update(mode="weird"),
    lambda doc: doc["policy"].update(factor=1.5),
    lambda doc: doc["policy"].update(max_steps=-1),
    lambda doc: doc["policy"].update(max_steps=2.7),
    lambda doc: doc["prior"].update(precision=[-1.0]),
    lambda doc: doc["step_count"].update({"2": doc["step_count"]["2"] + 1}),
    # the rest keep every sum and identity between the counters
    lambda doc: doc["counters"].update(call_count=-5),
    lambda doc: doc["warnings"].update(singular_proposals=-3),
    lambda doc: doc["step_count"].update({"1": doc["step_count"]["1"] + 1,
                                          "3": doc["step_count"]["3"] - 1}),
    lambda doc: (doc["counters"].update(burned=-1),
                 doc["step_count"].update({"1": doc["step_count"]["1"] - 1})),
    # stage -1 counts the rejections, and the stages are numbered from 1
    lambda doc: doc["step_count"].update({"1": doc["step_count"]["1"] - 1, "0": 1}),
    lambda doc: doc["step_count"].update({"1": doc["step_count"]["1"] - 1, "-5": 1}),
    lambda doc: doc["step_count"].update({"1": doc["step_count"]["1"] + doc["step_count"].pop("-1")}),
    lambda doc: doc.update(chain_file=".chain-c"),
    # the warning counters are exactly {"singular_proposals"}
    lambda doc: doc.update(warnings={}),
    lambda doc: doc["warnings"].update(bogus=3),
], ids=["mode", "static-factor", "max-steps", "fractional-max-steps", "prior-precision",
        "step-count", "negative-call-count", "negative-warning", "negative-step-count",
        "negative-burned", "stage-zero", "stage-below-minus-one", "no-rejection-stage",
        "unknown-chain-file", "no-warning-counter", "unknown-warning-counter"])
def test_checkpoint_invalid_value_with_valid_checksum_refused(tmp_path, change):
    # a document whose checksum holds but whose values no sampler can have
    path = tmp_path / "state.json"
    s = make_quickstart(seed=1)
    s.set_static(2, 0.4)
    s.run_sample(10)
    s.save_checkpoint(path)
    doc = json.loads(path.read_text())
    del doc["checksum"]
    change(doc)
    path.write_text(_with_checksum(_reference_serialize(doc)))
    with pytest.raises(CorruptCheckpoint):
        Sampler.load_checkpoint(path, quickstart_handle())


@pytest.mark.parametrize("change", [
    lambda rng: rng["state"].update(state=str(rng["state"]["state"])),
    lambda rng: rng["state"].pop("inc"),
    lambda rng: rng["state"].update(state=-1),
    lambda rng: rng["state"].update(inc=2 ** 128),
    lambda rng: rng.update(bit_generator="MT19937"),
], ids=["string-word", "missing-inc", "negative-word", "word-too-large", "other-generator"])
def test_checkpoint_malformed_generator_state_refused(tmp_path, change):
    path = tmp_path / "state.json"
    s = make_quickstart(seed=1)
    s.run_sample(10)
    s.save_checkpoint(path)
    doc = json.loads(path.read_text())
    del doc["checksum"]
    change(doc["rng"])
    path.write_text(_with_checksum(_reference_serialize(doc)))
    with pytest.raises(CorruptCheckpoint, match="malformed checkpoint field"):
        Sampler.load_checkpoint(path, quickstart_handle())


def test_checkpoint_without_zero_stage_counts_loads_and_runs(tmp_path):
    # a stage that never accepted needs no entry to be counted later
    path = tmp_path / "state.json"
    s = make_quickstart(seed=1)
    s.set_static(2, 0.4)
    s.run_sample(10)
    s.save_checkpoint(path)
    doc = json.loads(path.read_text())
    del doc["checksum"]
    assert doc["step_count"]["3"] == 0
    del doc["step_count"]["3"]
    path.write_text(_with_checksum(_reference_serialize(doc)))
    b = Sampler.load_checkpoint(path, quickstart_handle())
    assert b.step_count == s.step_count
    s.run_sample(300)
    b.run_sample(300)
    assert b.step_count == s.step_count and b.step_count[3] > 0


def test_checkpoint_dimension_mismatch(tmp_path):
    path = tmp_path / "state.json"
    s = make_quickstart(seed=1)
    s.run_sample(10)
    s.save_checkpoint(path)
    two_dim = ModelHandle(lambda x, a: (1, [x[0], x[1]], np.eye(2)), None, dim_in=2)
    with pytest.raises(DimensionMismatch):
        Sampler.load_checkpoint(path, two_dim)


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(IOFailure):
        Sampler.load_checkpoint(tmp_path / "nope.json", quickstart_handle())


def test_checkpoint_load_rechecks_current_point(tmp_path):
    # saved under the default flat prior, so J = 0 leaves no proposal
    path = tmp_path / "state.json"
    s = Sampler([0.5], quickstart_handle(), seed=3)
    s.run_sample(30)
    s.save_checkpoint(path)
    assert Sampler.load_checkpoint(path, quickstart_handle()).call_count == s.call_count
    outside = ModelHandle(lambda x, a: (0, [x[0]], [[1.0]]), None, dim_in=1)
    with pytest.raises(InitialGuessOutsideDomain):
        Sampler.load_checkpoint(path, outside)
    zero_jacobian = ModelHandle(lambda x, a: (1, [0.0], [[0.0]]), None, dim_in=1)
    with pytest.raises(SingularProposal):
        Sampler.load_checkpoint(path, zero_jacobian)
    infinite_residual = ModelHandle(lambda x, a: (1, [np.inf], [[1.0]]), None, dim_in=1)
    with pytest.raises(InitialGuessOutsideDomain, match="Gauss-Newton mean"):
        Sampler.load_checkpoint(path, infinite_residual)
    # a document with a non-finite current point and a valid checksum
    for bad in (float("inf"), float("nan")):
        doc = json.loads(path.read_text())
        del doc["checksum"]
        doc["current_x"] = [bad]
        path.write_text(_with_checksum(_reference_serialize(doc)))
        h = quickstart_handle()
        with pytest.raises(InitialGuessOutsideDomain, match="non-finite entry"):
            Sampler.load_checkpoint(path, h)
        assert h.call_count == 0


def test_checkpoint_numbers_have_17_significant_digits(tmp_path):
    # every float64 bit survives, as 17 significant digits would keep it:
    # the document holds each number in its shortest round-trip form
    path = tmp_path / "state.json"
    s = make_quickstart(seed=2)
    s.set_static(1, 0.3)
    s.set_prior([0.1], [[1.0 / 3.0]])
    s.run_sample(5)
    s.save_checkpoint(path)
    text = path.read_text()
    doc = json.loads(text)
    assert '"factor":0.3,"t_lo":0.05,' in text
    assert f'"current_x":[{float(s.current.x[0])!r}]' in text
    for stored, held in ((doc["current_x"], s.current.x), (doc["prior"]["mean"], s.prior.mean),
                         (doc["prior"]["precision"], s.prior.precision.ravel()),
                         ([doc["policy"]["factor"]], [s.policy.factor])):
        assert np.array(stored).tobytes() == np.array(held, dtype=float).tobytes()
    # the chain rows are stored as their float64 bits
    rows = np.frombuffer((tmp_path / "state.json.chain").read_bytes(), dtype="<f8")
    assert rows.tobytes() == s.chain.astype("<f8").tobytes()
    np.testing.assert_array_equal(rows.reshape(-1, 1), s.chain)


def test_safe_mode_writes_checkpoint_every_division(tmp_path):
    path = tmp_path / "ck.json"
    s = make_quickstart(seed=3)
    counts = []
    original = Sampler.save_checkpoint

    def counting(self, p):
        counts.append(self.n_samples)
        return original(self, p)

    Sampler.save_checkpoint = counting
    try:
        s.run_sample(100, divs=4, safe=path)
    finally:
        Sampler.save_checkpoint = original
    assert counts == [25, 50, 75, 100]
    assert path.exists()


def test_interrupted_safe_run_resumes_bit_identically(tmp_path):
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"

    a = make_quickstart(seed=99)
    a.set_static(1, 0.3)
    a.run_sample(1000, divs=10, safe=path_a)
    final_a = path_a.read_bytes()

    class Interrupted(RuntimeError):
        pass

    b = make_quickstart(seed=99)
    b.set_static(1, 0.3)
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

    c = Sampler.load_checkpoint(path_b, quickstart_handle())
    assert c.n_samples == 300
    c.run_sample(700, divs=7, safe=path_b)
    np.testing.assert_array_equal(a.chain, c.chain)
    assert a.chain.tobytes() == c.chain.tobytes()
    assert path_b.read_bytes() == final_a


def test_checkpoint_write_failure_is_typed(tmp_path):
    s = make_quickstart(seed=1)
    s.run_sample(10)
    with pytest.raises(CheckpointWriteFailure):
        s.save_checkpoint(tmp_path / "missing" / "state.json")


def test_save_fsyncs_file_and_directory(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync

    def recording(fd):
        synced.append(os.path.realpath(f"/proc/self/fd/{fd}"))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording)
    path = tmp_path / "state.json"
    chain, tmp = str(tmp_path / "state.json.chain"), str(tmp_path / "state.json.tmp")
    s = make_quickstart(seed=1)
    s.run_sample(10)
    s.save_checkpoint(path)  # the whole chain
    assert synced == [chain, tmp, str(tmp_path)]
    s.run_sample(5)
    s.save_checkpoint(path)  # the appended rows
    assert synced[3:] == [chain, tmp, str(tmp_path)]
    s.save_checkpoint(path)  # no new rows: the chain file is not touched
    assert synced[6:] == [tmp, str(tmp_path)]


def test_chain_is_a_copy():
    s = make_quickstart(seed=4)
    s.run_sample(30)
    chain = s.chain
    chain[:] = 0.0
    assert np.all(s.chain != 0.0)


# ---------------------------------------------------------------------------
# checkpoint bytes against a full canonical serialization
# ---------------------------------------------------------------------------


def _reference_serialize(v):
    """``v`` as compact JSON: no spaces, keys in insertion order, each float
    in its shortest round-trip form."""
    return json.dumps(v, separators=(",", ":"))


def _reference_checkpoint_bytes(s, chain_file):
    """The state document serialized from scratch, naming ``chain_file``:
    the document built field by field from Python numbers, the CRC-32s
    taken over the full chain and the full text."""
    steps = s.step_count
    doc = {
        "format_version": 3,
        "chain_file": chain_file,
        "chain_rows": s.n_samples,
        "chain_crc": format(zlib.crc32(s.chain.astype("<f8").tobytes()), "08x"),
        "counters": {"call_count": s.call_count, "burned": s.burned},
        "step_count": {str(k): steps[k] for k in [-1] + sorted(k for k in steps if k != -1)},
        "warnings": {"singular_proposals": s.warnings["singular_proposals"]},
        "policy": {"mode": s.policy.mode, "max_steps": s.policy.max_steps,
                   "factor": float(s.policy.factor), "t_lo": float(s.policy.t_lo),
                   "t_hi": float(s.policy.t_hi)},
        "prior": {"mean": [float(v) for v in s.prior.mean],
                  "precision": [float(v) for v in s.prior.precision.ravel()]},
        "current_x": [float(v) for v in s.current.x],
        "rng": s.rng.bit_generator.state,
    }
    return _with_checksum(_reference_serialize(doc)).encode("utf-8")


def _example(name):
    if name == "quickstart":
        return [0.5], quickstart_handle, GaussianPrior.create([0.0], [[1.0]])
    if name == "simple2d":
        return [1.0, 0.0], simple2d_handle, GaussianPrior.create([0.0, 0.0], np.eye(2))
    args = exp_series_datagen(seed=14)
    return ([4.0, 2.0, 0.5, 1.0], lambda: exp_series_handle(args, n_terms=2),
            GaussianPrior.create([4.0, 2.0, 0.5, 1.0], 0.5 * np.eye(4)))


@pytest.mark.parametrize("name,policy", [
    ("quickstart", "none"), ("quickstart", "static"),
    ("simple2d", "none"), ("simple2d", "dynamic"),
    ("expseries", "dynamic"),
])
def test_checkpoint_bytes_equal_full_serialization(tmp_path, monkeypatch, name, policy):
    x0, build, prior = _example(name)
    path = tmp_path / "state.json"
    checked = []
    # the chain file each save names: the whole chain goes to the one the
    # document at the path does not name
    named = [".chain"]
    original = Sampler.save_checkpoint

    def checking(self, p):
        original(self, p)
        assert p.read_bytes() == _reference_checkpoint_bytes(self, named[0])
        rows = self.chain.astype("<f8").tobytes()
        assert (tmp_path / ("state.json" + named[0])).read_bytes()[:len(rows)] == rows
        assert sorted(q.name for q in tmp_path.iterdir()) == ["state.json", "state.json" + named[0]]
        checked.append(self.n_samples)

    monkeypatch.setattr(Sampler, "save_checkpoint", checking)
    s = Sampler(x0, build(), seed=21, prior=prior)
    if policy == "static":
        s.set_static(2, 0.4)
    elif policy == "dynamic":
        s.set_dynamic(2)
    s.save_checkpoint(path)  # empty chain
    s.run_sample(30)
    s.save_checkpoint(path)  # plain save
    s.run_sample(70, divs=7, safe=path)  # every division's save
    s.save_checkpoint(path)  # again, with no new rows
    s.burn(45)  # rows leave the front: the chain file is stale
    named[0] = ".chain-b"
    s.save_checkpoint(path)
    s.run_sample(20, divs=2, safe=path)
    resumed = Sampler.load_checkpoint(path, build())
    resumed.save_checkpoint(path)
    resumed.run_sample(33, divs=3, safe=path)
    resumed.burn(resumed.n_samples)
    named[0] = ".chain"
    resumed.run_sample(5, divs=2, safe=path)
    assert checked == ([0, 30] + list(range(40, 101, 10)) + [100]
                       + [55, 65, 75] + [75, 86, 97, 108] + [3, 5])


@pytest.mark.parametrize("policy", [BackoffPolicy.none(), BackoffPolicy.static(3, 0.3),
                                    BackoffPolicy.dynamic(3)],
                         ids=["none", "static", "dynamic"])
@pytest.mark.parametrize("name", ["quickstart", "expseries"])
def test_sampler_builds_no_precision_gaussian(tmp_path, monkeypatch, name, policy):
    # each drawn point's proposal is the four fields of its record; the
    # class is the tests' oracle, and the sampler never builds one
    def refuse(cls, *args, **kwargs):
        raise AssertionError("the sampler built a PrecisionGaussian")

    monkeypatch.setattr(PrecisionGaussian, "__new__", refuse)
    x0, build, prior = _example(name)
    s = Sampler(x0, build(), seed=31, prior=prior)
    s.policy = policy
    s.run_sample(100)
    s.save_checkpoint(tmp_path / "state.json")
    resumed = Sampler.load_checkpoint(tmp_path / "state.json", build())
    resumed.run_sample(100)
    assert resumed.n_samples == 200 and resumed.policy == policy


def test_checkpoint_one_digit_changed_in_chain_detected(tmp_path):
    path = tmp_path / "state.json"
    s = make_quickstart(seed=6)
    s.run_sample(50)
    s.save_checkpoint(path)
    chain_file = tmp_path / "state.json.chain"
    data = bytearray(chain_file.read_bytes())
    data[8 * 17 + 3] ^= 0x01  # one bit of row 17
    chain_file.write_bytes(bytes(data))
    with pytest.raises(CorruptCheckpoint, match="checksum"):
        Sampler.load_checkpoint(path, quickstart_handle())


def test_checkpoint_reformatted_equal_values_refused(tmp_path):
    # the CRC covers the file's text, not the values it parses to
    path = tmp_path / "state.json"
    s = make_quickstart(seed=6)
    s.run_sample(20)
    s.save_checkpoint(path)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(doc, indent=1) + "\n")
    assert json.loads(path.read_text()) == doc
    with pytest.raises(CorruptCheckpoint):
        Sampler.load_checkpoint(path, quickstart_handle())


# ---------------------------------------------------------------------------
# the chain file: damage, interrupted saves, stale files
# ---------------------------------------------------------------------------


def _saved_state(s):
    """Everything a checkpoint restores, for comparing loaded samplers."""
    return (s.chain.tobytes(), s.n_samples, s.n_accepted, s.call_count, s.burned,
            s.step_count, dict(s.warnings), s.rng.bit_generator.state)


@pytest.mark.parametrize("damage", ["missing", "short"])
def test_checkpoint_missing_or_short_chain_file_refused(tmp_path, damage):
    path = tmp_path / "state.json"
    s = make_quickstart(seed=6)
    s.run_sample(50)
    s.save_checkpoint(path)
    chain_file = tmp_path / "state.json.chain"
    if damage == "missing":
        chain_file.unlink()
    else:
        chain_file.write_bytes(chain_file.read_bytes()[:-1])
    with pytest.raises(CorruptCheckpoint, match="chain file"):
        Sampler.load_checkpoint(path, quickstart_handle())


def test_checkpoint_rows_after_chain_rows_are_ignored(tmp_path, monkeypatch):
    # a save stopped between its append and its document replace
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    a = make_quickstart(seed=99)
    a.set_static(1, 0.3)
    a.run_sample(1000, divs=10, safe=path_a)

    b = make_quickstart(seed=99)
    b.set_static(1, 0.3)
    b.run_sample(300, divs=3, safe=path_b)
    before = _saved_state(Sampler.load_checkpoint(path_b, quickstart_handle()))

    class Stopped(RuntimeError):
        pass

    def stop(src, dst):
        raise Stopped

    b.run_sample(100)
    monkeypatch.setattr(os, "replace", stop)
    with pytest.raises(Stopped):
        b.save_checkpoint(path_b)
    monkeypatch.undo()
    assert (tmp_path / "b.json.chain").stat().st_size == 8 * 400

    c = Sampler.load_checkpoint(path_b, quickstart_handle())
    assert _saved_state(c) == before
    c.run_sample(700, divs=7, safe=path_b)
    assert a.chain.tobytes() == c.chain.tobytes()
    assert path_b.read_bytes() == path_a.read_bytes()
    assert (tmp_path / "b.json.chain").read_bytes() == (tmp_path / "a.json.chain").read_bytes()


class _Crash(Exception):
    pass


class _CrashingOs:
    """The ``os`` module as the sampler sees it, stopping the save with
    ``_Crash`` at the ``crash_at``-th file operation. A stopped write has
    written half its bytes; a stopped close has closed its file."""

    OPS = ("open", "pwrite", "ftruncate", "fsync", "close", "replace", "remove")

    def __init__(self, crash_at=0):
        self.crash_at, self.ops = crash_at, 0

    def __getattr__(self, name):
        real = getattr(os, name)
        if name not in self.OPS:
            return real

        def op(*args, **kwargs):
            self.ops += 1
            if self.ops != self.crash_at:
                return real(*args, **kwargs)
            if name == "pwrite":
                fd, data, offset = args
                real(fd, data[:len(data) // 2], offset)
            elif name == "close":
                real(*args)
            raise _Crash(name)

        return op


def _before_save(kind, path):
    """A sampler about to make a save of ``kind`` to ``path``."""
    if kind == "append":
        s = make_quickstart(seed=31)
        s.run_sample(40, divs=2, safe=path)
        s.run_sample(25)
    elif kind == "over another run":
        make_quickstart(seed=32).run_sample(40, divs=2, safe=path)
        s = make_quickstart(seed=33)
        s.set_static(1, 0.3)
        s.run_sample(30)
    else:  # "after burn"
        s = make_quickstart(seed=34)
        s.run_sample(40, divs=2, safe=path)
        s.run_sample(10)
        s.burn(15)
    return s


@pytest.mark.parametrize("kind", ["append", "over another run", "after burn"])
def test_save_stopped_at_any_file_operation_leaves_a_checkpoint(tmp_path, monkeypatch, kind):
    import gnmh.sampler as sampler_module

    ref = tmp_path / "ref"
    ref.mkdir()
    s = _before_save(kind, ref / "state.json")
    pre = _saved_state(Sampler.load_checkpoint(ref / "state.json", quickstart_handle()))
    counting = _CrashingOs()
    monkeypatch.setattr(sampler_module, "os", counting)
    s.save_checkpoint(ref / "state.json")
    monkeypatch.setattr(sampler_module, "os", os)
    post = _saved_state(Sampler.load_checkpoint(ref / "state.json", quickstart_handle()))
    assert pre != post and counting.ops >= 13

    outcomes = []
    for k in range(1, counting.ops + 1):
        run = tmp_path / str(k)
        run.mkdir()
        path = run / "state.json"
        s = _before_save(kind, path)
        monkeypatch.setattr(sampler_module, "os", _CrashingOs(k))
        with pytest.raises(_Crash):
            s.save_checkpoint(path)
        monkeypatch.setattr(sampler_module, "os", os)
        loaded = _saved_state(Sampler.load_checkpoint(path, quickstart_handle()))
        assert loaded in (pre, post), f"stopped at file operation {k}"
        outcomes.append(loaded == post)
        # the same sampler's next save completes the checkpoint
        s.save_checkpoint(path)
        assert _saved_state(Sampler.load_checkpoint(path, quickstart_handle())) == post
        # one chain file: a save stopped after its document replace is
        # redone as a whole-chain save, to either name
        names = sorted(p.name for p in run.iterdir())
        assert names in (["state.json", "state.json.chain"], ["state.json", "state.json.chain-b"])
    assert not outcomes[0] and outcomes[-1]


def test_whole_chain_save_leaves_no_stale_chain_file(tmp_path):
    path = tmp_path / "state.json"
    other = make_quickstart(seed=1)
    other.run_sample(30, divs=3, safe=path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json", "state.json.chain"]
    s = make_quickstart(seed=2)
    s.run_sample(20)
    s.save_checkpoint(path)  # another run's checkpoint is replaced
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json", "state.json.chain-b"]
    s.burn(5)
    s.save_checkpoint(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json", "state.json.chain"]
    np.testing.assert_array_equal(Sampler.load_checkpoint(path, quickstart_handle()).chain,
                                  s.chain)


def _flat_beyond_two(x, args):
    """f(x) = x, held at +-2 where |x| >= 2, so the Jacobian is 0 there."""
    if abs(x[0]) < 2.0:
        return 1, [x[0]], [[1.0]]
    return 1, [2.0 * np.sign(x[0])], [[0.0]]


def test_singular_proposal_count_survives_resume(tmp_path):
    # under the default flat prior every drawn point with |x| >= 2 has a
    # singular Gauss-Newton proposal
    def fresh():
        return Sampler([0.5], ModelHandle(_flat_beyond_two, None, dim_in=1), seed=12)

    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    a = fresh()
    a.run_sample(1000, divs=10, safe=path_a)
    assert a.warnings["singular_proposals"] > 0

    b = fresh()
    b.run_sample(300, divs=3, safe=path_b)
    c = Sampler.load_checkpoint(path_b, ModelHandle(_flat_beyond_two, None, dim_in=1))
    assert c.warnings == b.warnings
    c.run_sample(700, divs=7, safe=path_b)
    assert c.warnings == a.warnings
    assert a.chain.tobytes() == c.chain.tobytes()
    assert path_b.read_bytes() == path_a.read_bytes()
