import itertools
import json
import os
import struct
import warnings
import zlib

import numpy as np
import pytest
from scipy.stats import kstest

import gnmh.kernel
import gnmh.posterior

from gnmh.errors import (
    BurnTooLarge,
    CheckpointWriteFailure,
    CorruptCheckpoint,
    DimensionMismatch,
    InitialGuessOutsideDomain,
    InvalidPolicy,
    IOFailure,
    SingularProposal,
    UserFunctionFailure,
)
from gnmh.model import EXAMPLES, ModelHandle, quickstart_handle
from gnmh.gaussian import PrecisionGaussian
from gnmh.jtest import JtestDomain, JtestOptions, jtest
from gnmh.kernel import BackoffPolicy
from gnmh.posterior import GaussianPrior, log_posterior
from gnmh.sampler import Sampler

from _examples import example_prior
from _oracle import linear_handle


def make_quickstart(seed=0):
    return Sampler([0.5], quickstart_handle(), seed=seed,
                   prior=GaussianPrior.create([0.0], [[1.0]]))


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


@pytest.mark.parametrize("action", ["default", "error"])
def test_init_zero_density_start_refused_under_any_warning_filter(action):
    # ||f||^2 = 4e400 overflows at x0 = 1e100, while J'J, J'f and the
    # Gauss-Newton mean are finite
    with warnings.catch_warnings(record=True):
        warnings.simplefilter(action, RuntimeWarning)
        with pytest.raises(InitialGuessOutsideDomain,
                           match=r"^target density is 0 at the initial guess x0 = \[1e\+100\]$"):
            Sampler([1e100], quickstart_handle(), prior=GaussianPrior.create([0.0], [[1.0]]))


def test_init_finite_density_start_with_a_non_finite_mean_refused():
    # J'J = 1e-322 is subnormal: the density and the step v are finite, but
    # the mean x + L^-T v overflows
    h = ModelHandle(lambda x, a: (1, [1e150], [[1e-161]]), None, dim_in=1)
    assert np.isfinite(log_posterior(GaussianPrior.flat([0.5]), h.evaluate([0.5])))
    with pytest.raises(InitialGuessOutsideDomain, match=r"Gauss-Newton mean \[-inf\] is not finite"):
        Sampler([0.5], h)


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


def test_init_prior_of_another_dimension_refused_before_any_model_call():
    h = quickstart_handle()
    with pytest.raises(DimensionMismatch, match="prior dimension 2, model expects 1"):
        Sampler([0.5], h, seed=0, prior=GaussianPrior.create([0.0, 0.0], np.eye(2)))
    assert h.call_count == 0


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


def test_summary_after_a_checkpoint_resume_equals_the_uninterrupted_run(tmp_path):
    path = tmp_path / "state.ckpt"
    example = EXAMPLES["expseries"]

    def fresh():
        s = Sampler(example["x0"], example["handle"](), seed=4, prior=example_prior("expseries"))
        s.set_static(2, 0.5)
        return s

    reference = fresh()
    reference.run_sample(800)
    reference.burn(100)
    crashed = fresh()
    crashed.run_sample(300, divs=3, safe=path)
    resumed = Sampler.load_checkpoint(path, example["handle"]())
    resumed.run_sample(500, divs=5, safe=path)
    resumed.burn(100)
    summary = resumed.summary()
    # 700 kept rows: acor answers on every coordinate
    assert summary["n_samples"] == 700 and None not in summary["tau"]
    assert summary == reference.summary()


def test_summary_gives_no_tau_or_ess_for_a_coordinate_that_never_moved():
    # inside the domain only at the start, so every candidate is rejected;
    # acor of the stuck coordinate would answer tau = 1 and ESS = 600
    handle = ModelHandle(lambda x, args: (x[0] == 0.5, [x[0] - 0.5], [[1.0]]), None, dim_in=1)
    s = Sampler([0.5], handle, seed=0)
    s.run_sample(600)
    summary = s.summary()
    assert summary["n_accepted"] == 0 and summary["n_samples"] == 600
    assert summary["tau"] == [None] and summary["ess"] == [None]


def test_samplers_sharing_a_handle_count_only_their_own_calls(tmp_path):
    # the handle counts every call made through it: both samplers' and
    # jtest's; a sampler counts its start point and its transitions (no
    # back-off, so one call per transition)
    h = quickstart_handle()
    prior = GaussianPrior.create([0.0], [[1.0]])
    a = Sampler([0.5], h, seed=1, prior=prior)
    b = Sampler([0.5], h, seed=2, prior=prior)
    a.run_sample(100)
    jtest(h, JtestDomain.create([-2.0], [2.0]), JtestOptions(N=5), rng=0)
    b.run_sample(50)
    assert (a.call_count, b.call_count) == (101, 51)
    assert h.call_count > a.call_count + b.call_count
    b.save_checkpoint(tmp_path / "b.ckpt")
    assert Sampler.load_checkpoint(tmp_path / "b.ckpt", h).call_count == 51


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

    s = Sampler([1.0], ModelHandle(half, None, dim_in=1), seed=5,
                prior=GaussianPrior.create([0.0], [[1.0]]))
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
    (True, 1, r"n_samples must be an integer, got True"),
    (3, True, r"divs must be an integer, got True"),
], ids=["fraction", "numpy-float", "string", "float-divs", "boolean", "boolean-divs"])
def test_run_sample_refuses_a_non_integer_count(n_samples, divs, message):
    s = make_quickstart(seed=1)
    with pytest.raises(ValueError, match=message):
        s.run_sample(n_samples, divs=divs)
    assert s.n_samples == 0 and s.call_count == 1


def test_run_sample_refuses_more_divisions_than_samples(tmp_path, capsys):
    # each division would print its progress and write its checkpoint, so an
    # empty one would repeat the last line and save a checkpoint with no new row
    s = make_quickstart(seed=1)
    with pytest.raises(ValueError, match="divs 4 is more than n_samples 2"):
        s.run_sample(2, divs=4, visual=True, safe=tmp_path / "state.json")
    assert s.n_samples == 0 and s.call_count == 1
    assert capsys.readouterr().out == "" and list(tmp_path.iterdir()) == []
    s.run_sample(np.int64(2), divs=np.int32(2))  # as many divisions as transitions
    assert s.n_samples == 2


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


@pytest.mark.parametrize("n_burned", [1.5, 2.0, np.float64(2.0), "2", True],
                         ids=["fraction", "float", "numpy-float", "string", "boolean"])
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
# exactness on the linear model
# ---------------------------------------------------------------------------


def test_linear_model_chain_is_iid_from_posterior():
    A = np.array([[1.0, 0.3], [0.0, 1.2], [0.5, -0.4]])
    b = np.array([0.5, -0.2, 0.1])
    H = np.array([[2.0, 0.4], [0.4, 1.5]])
    m = np.array([0.3, 0.1])
    s = Sampler([0.0, 0.0], linear_handle(A, b), seed=2024, prior=GaussianPrior.create(m, H))
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


# a checkpoint file's header: the magic, the format version and the slot size
_HEADER = struct.Struct("<8sII")


def _newest_slot(path):
    """The checkpoint file at ``path``, and the offset, size and document
    text (its zero fill stripped) of its slot with the higher save number."""
    data = path.read_bytes()
    size = _HEADER.unpack_from(data)[2]
    offsets = [_HEADER.size, _HEADER.size + size]
    texts = [data[at:at + size].rstrip(b"\0") for at in offsets]
    i = max((0, 1), key=lambda i: json.loads(texts[i])["save"] if texts[i] else -1)
    return data, offsets[i], size, texts[i]


def _edit_newest_document(path, edit):
    """Replace the newest slot's document in the checkpoint at ``path`` by
    ``edit`` of its text, zero-filled to the slot's size."""
    data, at, size, text = _newest_slot(path)
    text = edit(text)
    assert len(text) <= size
    path.write_bytes(data[:at] + text.ljust(size, b"\0") + data[at + size:])


def _fresh_checksum(change):
    """A document edit: ``change`` applied to the parsed document without
    its checksum field, written back compact with a fresh CRC-32."""
    def edit(text):
        doc = json.loads(text)
        del doc["checksum"]
        change(doc)
        return _with_checksum(_reference_serialize(doc)).encode("utf-8")
    return edit


def test_checkpoint_document_without_header_refused(tmp_path):
    # a version-4 state document saved as plain JSON, with no header, slots or rows
    path = tmp_path / "state.json"
    s = make_quickstart(seed=1)
    s.run_sample(10)
    s.save_checkpoint(path)
    path.write_bytes(_newest_slot(path)[3])
    with pytest.raises(CorruptCheckpoint, match="^checkpoint has no header$"):
        Sampler.load_checkpoint(path, quickstart_handle())


def test_checkpoint_wrong_version_rejected(tmp_path):
    path = tmp_path / "state.json"
    s = make_quickstart(seed=1)
    s.run_sample(10)
    s.save_checkpoint(path)
    doc = json.loads(_newest_slot(path)[3])
    del doc["checksum"]
    # version 1 held the chain in the document; version 2 also held the
    # dimension, n_samples and n_accepted; version 3 named a chain file;
    # version 4 held no mean exponent
    v1 = {"format_version": 1, "dim": 1, "chain": s.chain.tolist()}
    v1.update((k, v) for k, v in doc.items()
              if k not in ("format_version", "save", "chain_rows", "chain_crc", "warnings"))
    v2 = {"format_version": 2, "dim": 1}
    v2.update((k, v) for k, v in doc.items() if k not in ("format_version", "save"))
    v2["counters"] = dict(doc["counters"], n_samples=s.n_samples, n_accepted=s.n_accepted)
    v3 = {"format_version": 3, "chain_file": ".chain"}
    v3.update((k, v) for k, v in doc.items() if k not in ("format_version", "save"))
    v4 = dict(doc, format_version=4, policy={k: v for k, v in doc["policy"].items()
                                               if k != "alpha"})
    v6 = dict(doc, format_version=6)
    saved = path.read_bytes()
    for version, content in ((1, v1), (2, v2), (3, v3), (4, v4), (6, v6)):
        # in a slot of this format, and as the whole file, as earlier versions wrote it
        path.write_bytes(saved)
        text = _with_checksum(_reference_serialize(content)).encode()
        _edit_newest_document(path, lambda _: text)
        with pytest.raises(CorruptCheckpoint, match=f"format version {version} is not supported"):
            Sampler.load_checkpoint(path, quickstart_handle())
        path.write_bytes(text)
        with pytest.raises(CorruptCheckpoint, match=f"format version {version} is not supported"):
            Sampler.load_checkpoint(path, quickstart_handle())


def test_checkpoint_tampering_detected(tmp_path):
    path = tmp_path / "state.json"
    s = make_quickstart(seed=1)
    s.run_sample(10)
    s.save_checkpoint(path)

    def tamper(text):
        # the checksum field is kept, so it no longer matches the text
        doc = json.loads(text)
        doc["counters"]["call_count"] += 1
        return json.dumps(doc).encode()

    _edit_newest_document(path, tamper)
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

    def change_digit(text):
        at = text.index(b'"call_count":') + len(b'"call_count":')
        return text[:at] + (b"7" if text[at:at + 1] != b"7" else b"8") + text[at + 1:]

    _edit_newest_document(path, change_digit)
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
    lambda doc: doc["step_count"].update({"1": doc["step_count"]["1"] + doc["step_count"]["3"] + 1,
                                          "3": -1}),
    lambda doc: (doc["counters"].update(burned=-1),
                 doc["step_count"].update({"1": doc["step_count"]["1"] - 1})),
    # stage -1 counts the rejections, and the stages are numbered from 1
    lambda doc: doc["step_count"].update({"1": doc["step_count"]["1"] - 1, "0": 1}),
    lambda doc: doc["step_count"].update({"1": doc["step_count"]["1"] - 1, "-5": 1}),
    lambda doc: doc["step_count"].update({"1": doc["step_count"]["1"] + doc["step_count"].pop("-1")}),
    # save n is in slot n % 2
    lambda doc: doc.update(save=doc["save"] + 1),
    lambda doc: doc.update(save=-2),
    # the warning counters are exactly {"singular_proposals"}
    lambda doc: doc.update(warnings={}),
    lambda doc: doc["warnings"].update(bogus=3),
    # every counter is a JSON integer; int() would truncate or convert these
    lambda doc: doc["counters"].update(call_count=doc["counters"]["call_count"] + 0.9),
    lambda doc: doc["counters"].update(call_count=str(doc["counters"]["call_count"])),
    lambda doc: doc["counters"].update(burned=False),
    lambda doc: doc.update(chain_rows=float(doc["chain_rows"])),
    lambda doc: doc["step_count"].update({"1": float(doc["step_count"]["1"])}),
    lambda doc: doc["warnings"].update(singular_proposals=2.7),
    lambda doc: doc["warnings"].update(singular_proposals=True),
    lambda doc: doc["policy"].update(max_steps=True),
    # static(600, 0.4) shrinks the kernel scale below 2**-511
    lambda doc: doc["policy"].update(max_steps=600),
    # a string or boolean where a number belongs; numpy would convert these
    lambda doc: doc["policy"].update(factor=str(doc["policy"]["factor"])),
    lambda doc: doc["prior"].update(mean=[str(v) for v in doc["prior"]["mean"]]),
    lambda doc: doc["prior"].update(precision=[True]),
    lambda doc: doc.update(current_x=[str(v) for v in doc["current_x"]]),
    # every mode's factor is a real number in (0, 1)
    lambda doc: doc["policy"].update(mode="dynamic", factor=float("nan")),
    lambda doc: doc["policy"].update(mode="none", max_steps=0, factor=2.0),
    # every mode's mean exponent is 1 or 2, and format 5 names it
    lambda doc: doc["policy"].update(alpha=1.5),
    lambda doc: doc["policy"].update(alpha=2.5),
    lambda doc: doc["policy"].update(alpha="2"),
    lambda doc: doc["policy"].pop("alpha"),
], ids=["mode", "static-factor", "max-steps", "fractional-max-steps", "prior-precision",
        "step-count", "negative-call-count", "negative-warning", "negative-step-count",
        "negative-burned", "stage-zero", "stage-below-minus-one", "no-rejection-stage",
        "save-in-other-slot", "negative-save", "no-warning-counter", "unknown-warning-counter",
        "fractional-call-count", "string-call-count", "boolean-burned", "float-chain-rows",
        "float-step-count", "fractional-warning", "boolean-warning", "boolean-max-steps",
        "too-deep-max-steps", "string-factor", "string-prior-mean",
        "boolean-precision", "string-current-x", "nan-dynamic-factor", "none-factor-above-one",
        "alpha-between-one-and-two", "alpha-above-two", "string-alpha", "no-alpha"])
def test_checkpoint_invalid_value_with_valid_checksum_refused(tmp_path, change):
    # a document whose checksum holds but whose values no sampler can have
    path = tmp_path / "state.json"
    s = make_quickstart(seed=1)
    s.set_static(2, 0.4)
    s.run_sample(10)
    s.save_checkpoint(path)
    _edit_newest_document(path, _fresh_checksum(change))
    with pytest.raises(CorruptCheckpoint):
        Sampler.load_checkpoint(path, quickstart_handle())


def test_set_static_judges_its_factor_at_zero_steps():
    s = make_quickstart(seed=1)
    s.set_static(1, 0.3)
    with pytest.raises(InvalidPolicy, match="factor must be a number in \\(0, 1\\), got 2.0$"):
        s.set_static(0, 2.0)
    assert s.policy == BackoffPolicy.static(1, 0.3)
    s.set_static(0, 0.3)
    assert s.policy == BackoffPolicy.none()


@pytest.mark.parametrize("mode, max_steps, factor", [("none", 0, "x"), ("dynamic", 2, float("nan"))],
                         ids=["none-string", "dynamic-nan"])
def test_policy_with_a_bad_factor_is_refused_before_any_save(tmp_path, mode, max_steps, factor):
    # such a policy used to run, and its first save wrote the chain file,
    # then raised a bare ValueError (or saved NaN) in the state document
    s = make_quickstart(seed=1)
    with pytest.raises(InvalidPolicy, match="factor must be a number in \\(0, 1\\), got "):
        s.policy = BackoffPolicy(mode=mode, max_steps=max_steps, factor=factor)
    assert s.policy == BackoffPolicy.none()
    path = tmp_path / "state.json"
    if mode == "dynamic":
        s.set_dynamic(max_steps)
    s.run_sample(10)
    s.save_checkpoint(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]
    # every policy that is not static stores the default factor, 0.5, so
    # checkpoints written before the factor was judged in every mode load
    assert json.loads(_newest_slot(path)[3])["policy"]["factor"] == 0.5
    assert Sampler.load_checkpoint(path, quickstart_handle()).policy == s.policy


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
    _edit_newest_document(path, _fresh_checksum(lambda doc: change(doc["rng"])))
    with pytest.raises(CorruptCheckpoint, match="malformed checkpoint field"):
        Sampler.load_checkpoint(path, quickstart_handle())


def test_checkpoint_without_zero_stage_counts_loads_and_runs(tmp_path):
    # a stage that never accepted needs no entry to be counted later. The
    # transitions ran under two back-offs, so stage 4 of the policy saved
    # has ended none of them, whatever the kernel
    path = tmp_path / "state.json"
    s = make_quickstart(seed=1)
    s.set_static(2, 0.4)
    s.run_sample(10)
    s.set_static(3, 0.4)
    s.save_checkpoint(path)

    def drop_zero_stages(doc):
        zero = [k for k, v in doc["step_count"].items() if v == 0 and k != "-1"]
        assert "4" in zero
        for k in zero:
            del doc["step_count"][k]

    _edit_newest_document(path, _fresh_checksum(drop_zero_stages))
    b = Sampler.load_checkpoint(path, quickstart_handle())
    assert b.step_count == s.step_count
    s.run_sample(300)
    b.run_sample(300)
    assert b.step_count == s.step_count and b.step_count[4] > 0


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


def test_checkpoint_unreadable_chain_file_is_an_io_failure(tmp_path):
    # the chain rows are in the checkpoint file itself
    path = tmp_path / "state.json"
    s = make_quickstart(seed=1)
    s.run_sample(10)
    s.save_checkpoint(path)
    path.unlink()
    path.mkdir()  # opening a directory for reading fails with an OSError
    with pytest.raises(IOFailure, match="could not read checkpoint"):
        Sampler.load_checkpoint(path, quickstart_handle())


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
    # ||f||^2 overflows: zero density (numpy's overflow text recorded, not printed)
    overflowing_norm = ModelHandle(lambda x, a: (1, [1e200], [[1.0]]), None, dim_in=1)
    with warnings.catch_warnings(record=True), \
            pytest.raises(InitialGuessOutsideDomain, match="target density is 0"):
        Sampler.load_checkpoint(path, overflowing_norm)
    # a document with a non-finite current point and a valid checksum
    saved = path.read_bytes()
    for bad in (float("inf"), float("nan")):
        path.write_bytes(saved)
        _edit_newest_document(path, _fresh_checksum(lambda doc: doc.update(current_x=[bad])))
        h = quickstart_handle()
        with pytest.raises(InitialGuessOutsideDomain, match="non-finite entry"):
            Sampler.load_checkpoint(path, h)
        assert h.call_count == 0


def test_checkpoint_numbers_have_17_significant_digits(tmp_path):
    # every float64 bit survives, as 17 significant digits would keep it:
    # the document holds each number in its shortest round-trip form
    path = tmp_path / "state.json"
    s = Sampler([0.5], quickstart_handle(), seed=2,
                prior=GaussianPrior.create([0.1], [[1.0 / 3.0]]))
    s.set_static(1, 0.3)
    s.run_sample(5)
    s.save_checkpoint(path)
    data, _, size, text = _newest_slot(path)
    text = text.decode("utf-8")
    doc = json.loads(text)
    assert '"factor":0.3,"alpha":2},' in text
    assert f'"current_x":[{float(s.current.x[0])!r}]' in text
    for stored, held in ((doc["current_x"], s.current.x), (doc["prior"]["mean"], s.prior.mean),
                         (doc["prior"]["precision"], s.prior.precision.ravel()),
                         ([doc["policy"]["factor"]], [s.policy.factor])):
        assert np.array(stored).tobytes() == np.array(held, dtype=float).tobytes()
    # the chain rows are stored as their float64 bits, after the two slots
    rows = np.frombuffer(data[_HEADER.size + 2 * size:], dtype="<f8")
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
    tmp = str(tmp_path / "state.json.tmp")
    s = make_quickstart(seed=1)
    s.run_sample(10)
    s.save_checkpoint(path)  # the whole file
    assert synced == [tmp, str(tmp_path)]
    s.run_sample(5)
    s.save_checkpoint(path)  # the appended rows and a slot
    assert synced[2:] == [str(path)]
    s.save_checkpoint(path)  # no new rows: a slot
    assert synced[3:] == [str(path)]


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


def _reference_document(s, save):
    """The state document serialized from scratch, numbered ``save``: the
    document built field by field from Python numbers, the CRC-32s taken
    over the full chain and the full text."""
    steps = s.step_count
    doc = {
        "format_version": 5,
        "save": save,
        "chain_rows": s.n_samples,
        "chain_crc": format(zlib.crc32(s.chain.astype("<f8").tobytes()), "08x"),
        "counters": {"call_count": s.call_count, "burned": s.burned},
        "step_count": {str(k): steps[k] for k in [-1] + sorted(k for k in steps if k != -1)},
        "warnings": {"singular_proposals": s.warnings["singular_proposals"]},
        "policy": {"mode": s.policy.mode, "max_steps": s.policy.max_steps,
                   "factor": float(s.policy.factor), "alpha": s.policy.alpha},
        "prior": {"mean": [float(v) for v in s.prior.mean],
                  "precision": [float(v) for v in s.prior.precision.ravel()]},
        "current_x": [float(v) for v in s.current.x],
        "rng": s.rng.bit_generator.state,
    }
    return _with_checksum(_reference_serialize(doc)).encode("utf-8")


def _example(name):
    """(x0, handle builder, prior) of a bundled example, the CLI's set-up."""
    return EXAMPLES[name]["x0"], EXAMPLES[name]["handle"], example_prior(name)


@pytest.mark.parametrize("name,policy", [
    ("quickstart", "none"), ("quickstart", "static"),
    ("simple2d", "none"), ("simple2d", "dynamic"),
    ("expseries", "dynamic"),
])
def test_checkpoint_bytes_equal_full_serialization(tmp_path, monkeypatch, name, policy):
    x0, build, prior = _example(name)
    path = tmp_path / "state.json"
    checked = []
    # the file as each save leaves it: a whole save numbers its document 0,
    # puts it in slot 0 and sizes both slots at twice its length; an append
    # numbers it one more than the last and puts it in slot save % 2
    file = {"whole": True}
    original = Sampler.save_checkpoint

    def checking(self, p):
        original(self, p)
        if file.pop("whole", False):
            doc = _reference_document(self, 0)
            file.update(save=0, size=2 * len(doc), slots=[doc, b""])
        else:
            file["save"] += 1
            file["slots"][file["save"] % 2] = _reference_document(self, file["save"])
        expected = (_HEADER.pack(b"GNMHCKPT", 5, file["size"])
                    + b"".join(doc.ljust(file["size"], b"\0") for doc in file["slots"])
                    + self.chain.astype("<f8").tobytes())
        assert p.read_bytes() == expected
        assert [q.name for q in tmp_path.iterdir()] == ["state.json"]
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
    s.burn(45)  # rows leave the front: the file is written whole
    file["whole"] = True
    s.save_checkpoint(path)
    s.run_sample(20, divs=2, safe=path)
    resumed = Sampler.load_checkpoint(path, build())
    resumed.save_checkpoint(path)
    resumed.run_sample(33, divs=3, safe=path)
    resumed.burn(resumed.n_samples)
    file["whole"] = True
    resumed.run_sample(5, divs=2, safe=path)
    assert checked == ([0, 30] + list(range(40, 101, 10)) + [100]
                       + [55, 65, 75] + [75, 86, 97, 108] + [3, 5])


@pytest.mark.parametrize("policy", [BackoffPolicy.none(), BackoffPolicy.static(3, 0.3),
                                    BackoffPolicy.dynamic(3)],
                         ids=["none", "static", "dynamic"])
@pytest.mark.parametrize("name", ["quickstart", "expseries"])
def test_sampler_builds_no_precision_gaussian(tmp_path, monkeypatch, name, policy):
    # each drawn point's proposal is held in fields of its record; the
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


@pytest.mark.parametrize("name, policy", [("quickstart", BackoffPolicy.none()),
                                          ("expseries", BackoffPolicy.dynamic(4))],
                         ids=["quickstart-none", "expseries-dynamic4"])
def test_benchmark_traced_names_are_called_through_their_modules(monkeypatch, name, policy):
    # the benchmark times layers by wrapping gnmh.kernel.point_state,
    # gnmh.posterior.gn_proposal and gnmh.kernel.dynamic_gamma, which the
    # sampler must look up at call time: a layer reached another way would
    # read 0 calls in the benchmark's report, without an error
    counts = dict(builds=0, inside=0, proposals=0, gammas=0)
    point_state, gn_proposal = gnmh.kernel.point_state, gnmh.posterior.gn_proposal
    dynamic_gamma = gnmh.kernel.dynamic_gamma

    def counted_point_state(*args):
        state = point_state(*args)
        counts["builds"] += 1
        counts["inside"] += state.inside
        return state

    def counted_gn_proposal(*args):
        counts["proposals"] += 1
        return gn_proposal(*args)

    def counted_dynamic_gamma(*args):
        counts["gammas"] += 1
        return dynamic_gamma(*args)

    x0, build, prior = _example(name)
    s = Sampler(x0, build(), seed=5, prior=prior)
    s.policy = policy
    monkeypatch.setattr(gnmh.kernel, "point_state", counted_point_state)
    monkeypatch.setattr(gnmh.posterior, "gn_proposal", counted_gn_proposal)
    monkeypatch.setattr(gnmh.kernel, "dynamic_gamma", counted_dynamic_gamma)
    s.run_sample(300)
    assert counts["builds"] == s.call_count - 1 >= 300
    assert counts["proposals"] == counts["inside"] > 0
    assert (counts["gammas"] > 0) == (policy.mode == "dynamic")


def test_checkpoint_one_digit_changed_in_chain_detected(tmp_path):
    path = tmp_path / "state.json"
    s = make_quickstart(seed=6)
    s.run_sample(50)
    s.save_checkpoint(path)
    data, _, size, _ = _newest_slot(path)
    data = bytearray(data)
    data[_HEADER.size + 2 * size + 8 * 17 + 3] ^= 0x01  # one bit of row 17
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptCheckpoint, match="checksum"):
        Sampler.load_checkpoint(path, quickstart_handle())


def test_checkpoint_reformatted_equal_values_refused(tmp_path):
    # the CRC covers the file's text, not the values it parses to
    path = tmp_path / "state.json"
    s = make_quickstart(seed=6)
    s.run_sample(20)
    s.save_checkpoint(path)
    doc = json.loads(_newest_slot(path)[3])
    _edit_newest_document(path, lambda text: json.dumps(doc, indent=1).encode() + b"\n")
    assert json.loads(_newest_slot(path)[3]) == doc
    with pytest.raises(CorruptCheckpoint):
        Sampler.load_checkpoint(path, quickstart_handle())


# ---------------------------------------------------------------------------
# the chain rows: damage, interrupted saves, stale files
# ---------------------------------------------------------------------------


def _saved_state(s):
    """Everything a checkpoint restores, for comparing loaded samplers."""
    return (s.chain.tobytes(), s.n_samples, s.n_accepted, s.call_count, s.burned,
            s.step_count, dict(s.warnings), s.rng.bit_generator.state)


def _rows_at(path):
    """The offset of the chain rows in the checkpoint file at ``path``."""
    return _HEADER.size + 2 * _HEADER.unpack_from(path.read_bytes())[2]


@pytest.mark.parametrize("damage", ["missing", "short"])
def test_checkpoint_missing_or_short_chain_file_refused(tmp_path, damage):
    path = tmp_path / "state.json"
    s = make_quickstart(seed=6)
    s.run_sample(50)
    s.save_checkpoint(path)
    data = path.read_bytes()
    path.write_bytes(data[:_rows_at(path)] if damage == "missing" else data[:-1])
    with pytest.raises(CorruptCheckpoint, match="chain rows"):
        Sampler.load_checkpoint(path, quickstart_handle())


def test_checkpoint_cut_inside_its_slots_refused(tmp_path):
    # an empty chain has no rows to find missing: the slots must be whole
    path = tmp_path / "state.json"
    make_quickstart(seed=6).save_checkpoint(path)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(CorruptCheckpoint, match="chain rows"):
        Sampler.load_checkpoint(path, quickstart_handle())


@pytest.mark.parametrize("damage", ["changed byte", "cut"])
def test_checkpoint_damage_only_in_newest_rows_loads_the_previous_save(tmp_path, damage):
    path = tmp_path / "state.json"
    s = make_quickstart(seed=6)
    s.run_sample(30, safe=path)
    previous = _saved_state(Sampler.load_checkpoint(path, quickstart_handle()))
    s.run_sample(20, safe=path)
    data = bytearray(path.read_bytes())
    if damage == "cut":
        del data[-1]
    else:
        data[_rows_at(path) + 8 * 40 + 3] ^= 0x01  # one bit of row 40
    path.write_bytes(bytes(data))
    assert _saved_state(Sampler.load_checkpoint(path, quickstart_handle())) == previous
    # the rows both slots name
    data[_rows_at(path) + 8 * 10 + 3] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptCheckpoint, match="checksum mismatch"):
        Sampler.load_checkpoint(path, quickstart_handle())


def test_checkpoint_rows_after_chain_rows_are_ignored(tmp_path, monkeypatch):
    # a save stopped between its rows and its slot
    import gnmh.sampler as sampler_module

    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    a = make_quickstart(seed=99)
    a.set_static(1, 0.3)
    a.run_sample(1000, divs=10, safe=path_a)

    b = make_quickstart(seed=99)
    b.set_static(1, 0.3)
    b.run_sample(300, divs=3, safe=path_b)
    before = _saved_state(Sampler.load_checkpoint(path_b, quickstart_handle()))

    b.run_sample(100)
    # open, write the rows, then stop at the cut
    monkeypatch.setattr(sampler_module, "os", _CrashingOs(crash_at=3))
    with pytest.raises(_Crash, match="ftruncate"):
        b.save_checkpoint(path_b)
    monkeypatch.undo()
    assert path_b.stat().st_size == _rows_at(path_b) + 8 * 400

    c = Sampler.load_checkpoint(path_b, quickstart_handle())
    assert _saved_state(c) == before
    c.run_sample(700, divs=7, safe=path_b)
    assert a.chain.tobytes() == c.chain.tobytes()
    assert path_b.read_bytes() == path_a.read_bytes()


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
    # an append: open, rows, cut, slot, fsync, close; a whole save: open,
    # header and slots, rows, fsync, close, rename, then the directory's
    # open, fsync and close
    assert pre != post and counting.ops == (6 if kind == "append" else 9)

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
        # the same sampler's next save completes the checkpoint, and leaves
        # the checkpoint file alone, no temp file beside it
        s.save_checkpoint(path)
        assert _saved_state(Sampler.load_checkpoint(path, quickstart_handle())) == post
        assert [p.name for p in run.iterdir()] == ["state.json"]
    assert not outcomes[0] and outcomes[-1]


class _RecordingOs:
    """The ``os`` module as the sampler sees it, recording each ``pwrite``
    as ("pwrite", offset, bytes) and each ``ftruncate`` as ("ftruncate",
    length) before making it."""

    def __init__(self):
        self.writes = []

    def __getattr__(self, name):
        real = getattr(os, name)
        if name == "pwrite":
            def pwrite(fd, data, offset):
                self.writes.append(("pwrite", offset, bytes(data)))
                return real(fd, data, offset)
            return pwrite
        if name == "ftruncate":
            def ftruncate(fd, length):
                self.writes.append(("ftruncate", length))
                return real(fd, length)
            return ftruncate
        return real


def _persisted(pre, writes):
    """Every file a stopped save can leave: the bytes ``pre`` with any
    subset of ``writes`` applied, in order, each write whole or only the
    first or the second half of its bytes."""
    choices = []
    for w in writes:
        if w[0] == "ftruncate":
            choices.append([None, w])
        else:
            _, at, data = w
            half = len(data) // 2
            choices.append([None, w, ("pwrite", at, data[:half]),
                            ("pwrite", at + half, data[half:])])
    for picked in itertools.product(*choices):
        file = bytearray(pre)
        for w in filter(None, picked):
            if w[0] == "ftruncate":
                del file[w[1]:]
                file.extend(bytes(w[1] - len(file)))
            else:
                _, at, data = w
                file.extend(bytes(max(0, at + len(data) - len(file))))
                file[at:at + len(data)] = data
        yield bytes(file)


@pytest.mark.parametrize("new_rows", [0, 1, 25, 700])
def test_every_file_a_stopped_append_can_leave_loads(tmp_path, monkeypatch, new_rows):
    # an append is durable with one fsync only if every subset of its
    # writes, persisted in any order or torn, loads as one of two states
    import gnmh.sampler as sampler_module

    path = tmp_path / "state.json"
    s = make_quickstart(seed=41)
    s.set_static(1, 0.3)
    s.run_sample(60, divs=3, safe=path)  # both slots in use
    if new_rows:
        s.run_sample(new_rows)
    pre_bytes = path.read_bytes()
    pre = _saved_state(Sampler.load_checkpoint(path, quickstart_handle()))
    recording = _RecordingOs()
    monkeypatch.setattr(sampler_module, "os", recording)
    s.save_checkpoint(path)
    monkeypatch.setattr(sampler_module, "os", os)
    post = _saved_state(Sampler.load_checkpoint(path, quickstart_handle()))
    assert [w[0] for w in recording.writes] == ["pwrite"] * (new_rows > 0) + ["ftruncate", "pwrite"]

    files = 0
    for data in _persisted(pre_bytes, recording.writes):
        path.write_bytes(data)
        assert _saved_state(Sampler.load_checkpoint(path, quickstart_handle())) in (pre, post)
        files += 1
    assert files == (32 if new_rows else 8)


def test_whole_chain_save_leaves_no_stale_chain_file(tmp_path):
    path = tmp_path / "state.json"
    other = make_quickstart(seed=1)
    other.run_sample(30, divs=3, safe=path)
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]
    s = make_quickstart(seed=2)
    s.run_sample(20)
    s.save_checkpoint(path)  # another run's checkpoint is replaced
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]
    s.burn(5)
    s.save_checkpoint(path)
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]
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
