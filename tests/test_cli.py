import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gnmh.cli
import gnmh.model
from gnmh import diagnostics
from gnmh.cli import _format_rows, _write_csv, exp_series_datagen, main, quadrature_1d
from gnmh.errors import NonFiniteDensity
from gnmh.model import ModelHandle, _example_args, quickstart_handle
from gnmh.posterior import GaussianPrior, log_posterior


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_quadrature_standard_normal():
    grid, density = quadrature_1d(lambda x: -0.5 * x * x - 0.5 * np.log(2 * np.pi),
                                  -8.0, 8.0, 10_000)
    exact = np.exp(-0.5 * grid**2) / np.sqrt(2 * np.pi)
    assert np.max(np.abs(density - exact)) < 1e-8


def test_quadrature_uniform_density():
    grid, density = quadrature_1d(lambda x: 0.0, 2.0, 5.0, 301)
    np.testing.assert_allclose(density, 1.0 / 3.0, rtol=1e-12)


def test_quadrature_rejects_nan():
    with pytest.raises(NonFiniteDensity):
        quadrature_1d(lambda x: np.nan, 0.0, 1.0, 101)


def test_quadrature_identically_zero_density_refused():
    with pytest.raises(NonFiniteDensity, match="identically zero"):
        quadrature_1d(lambda x: -np.inf, 0.0, 1.0)


def test_quadrature_needs_enough_points():
    with pytest.raises(ValueError):
        quadrature_1d(lambda x: 0.0, 0.0, 1.0, 100)


@pytest.mark.parametrize("n_points", [150.5, True], ids=["fraction", "boolean"])
def test_quadrature_refuses_a_point_count_that_is_not_an_integer(n_points):
    with pytest.raises(ValueError, match=f"n_points must be an integer, got {n_points}"):
        quadrature_1d(lambda x: 0.0, 0.0, 1.0, n_points)
    grid, _ = quadrature_1d(lambda x: 0.0, 0.0, 1.0, np.int64(151))
    assert grid.shape == (151,)


@pytest.mark.parametrize("lo, hi", [(1.0, 0.0), (0.0, 0.0), (0.0, np.inf), (-np.inf, 0.0),
                                    (np.nan, 1.0), (-1e308, 1e308)],
                         ids=["reversed", "empty", "infinite", "minus-infinite", "nan",
                              "overflowing-width"])
def test_quadrature_refuses_an_interval_without_a_finite_positive_width(lo, hi):
    calls = []
    with pytest.raises(ValueError, match="quadrature interval .*need finite ends with low < high"):
        quadrature_1d(lambda x: calls.append(x) or 0.0, lo, hi)
    assert calls == []


# ---------------------------------------------------------------------------
# data generator
# ---------------------------------------------------------------------------


def test_datagen_seed_repeatable():
    a = exp_series_datagen(seed=4)
    b = exp_series_datagen(seed=4)
    np.testing.assert_array_equal(a.data, b.data)


def test_datagen_mean_at_zero_time():
    args = exp_series_datagen(seed=123)
    assert args.times[0] == 0.0
    assert args.data[0] == pytest.approx(3.5, abs=0.5)


# ---------------------------------------------------------------------------
# file emission
# ---------------------------------------------------------------------------


def _reference_format_rows(rows):
    """One ``%`` per row, as the CLI formatted its files before it formatted
    each distinct number once; the byte-for-byte reference."""
    template = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return "".join([template % tuple(row) for row in rows.tolist()])


def _format_cases():
    rng = np.random.default_rng(3)
    nan_bits = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001],
                        dtype=np.uint64).view(np.float64)  # nan, -nan, a signalling payload
    runs = np.repeat(rng.standard_normal((1500, 3)), rng.integers(1, 6, 1500), axis=0)
    return {
        "signed-zeros": np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, -0.0]]),
        "nan": np.column_stack([nan_bits, [1.0, 1.0, np.nan]]),
        "inf": np.array([[np.inf, -np.inf], [-np.inf, np.inf], [np.inf, 0.0]]),
        "subnormal": np.array([[5e-324, -5e-324], [2.2250738585072009e-308, 1e-310],
                               [-1e-310, 5e-324]]),
        "repeated-rows": np.repeat(rng.standard_normal((7, 2)), 3, axis=0),
        "repeated-values": rng.integers(-3, 4, (50, 4)) * 0.1,
        "one-row": np.array([[0.1, -2.5e-300, 1e300, 3.0]]),
        "one-column": rng.standard_normal((9, 1)),
        "distinct": rng.standard_normal((300, 2)),
        "over-4096-rows": runs,
    }


@pytest.mark.parametrize("name", list(_format_cases()))
def test_format_rows_equals_the_per_row_reference(name):
    rows = _format_cases()[name]
    assert _format_rows(rows) == _reference_format_rows(rows)


def test_write_csv_equals_the_per_row_reference_across_chunks(tmp_path):
    rows = _format_cases()["over-4096-rows"]
    assert rows.shape[0] > 4096  # so the file is written in more than one chunk
    _write_csv(str(tmp_path / "rows.csv"), "a,b,c", rows)
    expected = "a,b,c\n" + _reference_format_rows(rows)
    assert (tmp_path / "rows.csv").read_bytes() == expected.encode("utf-8")


# ---------------------------------------------------------------------------
# sample subcommand
# ---------------------------------------------------------------------------


def test_sample_quickstart_emits_files(tmp_path):
    code = run_cli("sample", "--example", "quickstart", "--samples", "500",
                   "--burn", "50", "--seed", "1", "--bins", "20",
                   "--range", "-3", "3", "--out-dir", str(tmp_path))
    assert code == 0
    chain_lines = (tmp_path / "chain.csv").read_text().splitlines()
    assert chain_lines[0] == "x1"
    assert len(chain_lines) == 1 + 450

    hist = (tmp_path / "histogram.csv").read_text()
    assert hist.startswith("center,density,err")

    quad = (tmp_path / "quadrature.csv").read_text().splitlines()
    assert quad[0] == "x,density"

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n_samples"] == 450
    assert summary["burned"] == 50


def test_sample_summary_accept_rate_recomputable(tmp_path):
    code = run_cli("sample", "--example", "quickstart", "--samples", "400",
                   "--seed", "3", "--out-dir", str(tmp_path))
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    n_rows = len((tmp_path / "chain.csv").read_text().splitlines()) - 1
    assert summary["accept_rate"] == summary["n_accepted"] / n_rows
    counts = summary["step_count"]
    assert summary["n_accepted"] == sum(v for k, v in counts.items() if k != "-1")


def test_sample_files_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        code = run_cli("sample", "--example", "simple2d", "--samples", "300",
                       "--seed", "7", "--bins", "10", "--marginal", "0", "1",
                       "--out-dir", str(d))
        assert code == 0
    for name in ("chain.csv", "histogram.csv", "summary.json", "marginal_0_1.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_sample_marginal_grid_shape(tmp_path):
    code = run_cli("sample", "--example", "simple2d", "--samples", "200",
                   "--seed", "2", "--bins", "8", "--marginal", "0", "1",
                   "--out-dir", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "marginal_0_1.csv").read_text().splitlines()
    assert lines[0] == "ci,cj,density,err"
    assert len(lines) == 1 + 64


def _floats(lines):
    return [[float(v) for v in line.split(",")] for line in lines]


def test_sample_csv_values_equal_diagnostics_on_the_chain(tmp_path):
    d2, d1 = tmp_path / "simple2d", tmp_path / "quickstart"
    assert run_cli("sample", "--example", "simple2d", "--samples", "300", "--seed", "5",
                   "--bins", "6", "--range", "-2", "2", "--marginal", "0", "1",
                   "--out-dir", str(d2)) == 0
    assert run_cli("sample", "--example", "quickstart", "--samples", "300", "--seed", "5",
                   "--bins", "6", "--range", "-3", "3", "--out-dir", str(d1)) == 0

    chain = np.array(_floats((d2 / "chain.csv").read_text().splitlines()[1:]))
    lo, hi = np.full(2, -2.0), np.full(2, 2.0)
    hist = diagnostics.error_bars(chain, 6, lo, hi)
    text = (d2 / "histogram.csv").read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")
    # one block per dimension, separated by one blank line
    blocks = text[:-1].split("\n\n")
    assert len(blocks) == 2
    for j, block in enumerate(blocks):
        header, *rows = block.split("\n")
        assert header == "center,density,err"
        assert _floats(rows) == [[c, d, e] for c, d, e in
                                 zip(hist.centers[j], hist.density[j], hist.err[j])]

    ci, cj, density, err = diagnostics.error_bars_2d(chain, 0, 1, 6, lo, hi)
    header, *rows = (d2 / "marginal_0_1.csv").read_text().splitlines()
    assert header == "ci,cj,density,err"
    assert _floats(rows) == [[ci[a], cj[b], density[a, b], err[a, b]]
                             for a in range(len(ci)) for b in range(len(cj))]

    handle, prior = quickstart_handle(), GaussianPrior.create([0.0], [[1.0]])
    grid, dens = quadrature_1d(lambda x: log_posterior(prior, handle.evaluate([x])),
                               -3.0, 3.0)
    header, *rows = (d1 / "quadrature.csv").read_text().splitlines()
    assert header == "x,density"
    assert _floats(rows) == [[x, d] for x, d in zip(grid, dens)]


def test_sample_summary_tau_and_ess_equal_acor_of_the_chain(tmp_path):
    # long enough for acor's window on both coordinates
    assert run_cli("sample", "--example", "simple2d", "--samples", "3000", "--seed", "1",
                   "--out-dir", str(tmp_path)) == 0
    chain = np.array(_floats((tmp_path / "chain.csv").read_text().splitlines()[1:]))
    taus = [diagnostics.acor(chain[:, j]).tau for j in range(2)]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["tau"] == taus
    assert summary["ess"] == [chain.shape[0] / tau for tau in taus]


def test_sample_expseries_with_backoff(tmp_path):
    code = run_cli("sample", "--example", "expseries", "--samples", "300",
                   "--seed", "3", "--backoff", "static", "--max-steps", "1",
                   "--factor", "0.1", "--out-dir", str(tmp_path))
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary["step_count"]) == {"-1", "1", "2"}
    assert len(summary["tau"]) == 4


def test_sample_zero_samples_usage_error(tmp_path):
    code = run_cli("sample", "--samples", "0", "--out-dir", str(tmp_path))
    assert code == 2


@pytest.mark.parametrize("flags", [
    ("--backoff", "static", "--factor", "1.5"),
    ("--backoff", "dynamic", "--max-steps", "-1"),
    ("--backoff", "static", "--max-steps", "154", "--factor", "0.1"),  # scale^2 not normal
    ("--backoff", "dynamic", "--max-steps", "119"),
    ("--backoff", "dynamic", "--alpha", "3"),         # 1 or 2
    ("--alpha", "1.5"),
    ("--bins", "0"),
    ("--marginal", "0", "5"),
    ("--range", "3", "-3"),
    ("--range", "1", "1"),
    ("--range", "nan", "1"),
    ("--x0", "1"),
    ("--prior-mean", "0", "0", "0"),
    ("--prior-precision", "1", "0", "1"),
    ("--prior-precision", "-1"),
    ("--prior-precision", "-1", "0", "0", "1"),       # a negative eigenvalue
    ("--prior-mean", "nan", "0"),
    ("--prior-precision", "1", "0", "1", "1"),        # not symmetric
    ("--prior-precision", "abc"),
    ("--prior-precision", "abc", "0", "0", "1"),
    ("--x0", "nan", "0"),
    ("--divs", "0"),
    ("--sigma", "0"),
    ("--sigma", "nan"),
    ("--y", "inf"),
    ("--chains", "0"),
    ("--burn", "-1"),
    ("--burn", "200"),                                # as many as --samples
    ("--divs", "201"),                                # a division with no transition
    ("--seed", "-1"),
    ("--range", "0", "inf"),
    ("--backoff", "static", "--max-steps", "0", "--factor", "2"),  # refused at any depth
])
def test_sample_usage_error_before_any_sampling(tmp_path, capsys, flags):
    code = run_cli("sample", "--example", "simple2d", "--samples", "200",
                   "--checkpoint", str(tmp_path / "state.json"),
                   "--out-dir", str(tmp_path / "out"), *flags)
    assert code == 2
    err = capsys.readouterr().err
    assert "error: " in err and flags[0] in err  # the message names the flag
    assert list(tmp_path.iterdir()) == []  # neither the out-dir nor a checkpoint


def test_sample_expseries_bad_data_seed_usage_error(tmp_path, capsys):
    code = run_cli("sample", "--example", "expseries", "--data-seed", "-1",
                   "--samples", "200", "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert "error: --data-seed -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("example, flags, judged", [
    ("expseries", ("--sigma", "0"), 0),
    ("expseries", ("--y", "inf", "--sigma", "nan"), 0),
    ("simple2d", ("--sigma", "0.25"), 1),
    ("quickstart", ("--y", "2"), 1),
])
def test_sample_judges_sigma_and_y_once_where_the_example_reads_them(tmp_path, monkeypatch,
                                                                     example, flags, judged):
    # the decay series reads neither, so no value of them is refused there
    # and its files are those of a run without them
    calls = []

    def counting_example_args(y, sigma):
        calls.append((y, sigma))
        return _example_args(y, sigma)

    monkeypatch.setattr(gnmh.cli, "_example_args", counting_example_args)
    monkeypatch.setattr(gnmh.model, "_example_args", counting_example_args)
    assert run_cli("sample", "--example", example, "--samples", "10",
                   "--out-dir", str(tmp_path / "flags"), *flags) == 0
    assert len(calls) == judged
    if not judged:
        assert run_cli("sample", "--example", example, "--samples", "10",
                       "--out-dir", str(tmp_path / "plain")) == 0
        for name in ("chain.csv", "histogram.csv", "summary.json"):
            assert (tmp_path / "flags" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


@pytest.mark.parametrize("argv, name", [
    (["sample", "--range", "0", "inf"], "error: --range"),
    (["sample", "--example", "simple2d", "--range", "0", "inf"], "error: --range"),
    (["sample", "--seed", "-1"], "error: --seed"),
    (["jtest", "--max", "inf"], "error: --min/--max: box"),
    (["jtest", "--dx", "inf"], "need dx < inf;"),
    (["jtest", "--seed", "-1"], "error: --seed"),
    (["jtest", "--dx", "1e300"], "need dx <= 1;"),
], ids=["quickstart-range", "simple2d-range", "sample-seed", "jtest-max", "jtest-dx", "jtest-seed",
        "jtest-dx-wide"])
def test_refused_setting_is_a_usage_error_before_any_model_call(tmp_path, capsys, monkeypatch,
                                                                 argv, name):
    calls = []
    evaluate = ModelHandle.evaluate
    monkeypatch.setattr(ModelHandle, "evaluate", lambda h, x: calls.append(x) or evaluate(h, x))
    out = ["--samples", "300", "--out-dir", str(tmp_path / "out")] if argv[0] == "sample" else []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # so no filter hides one
        code = run_cli(*argv, *out)
    assert code == 2
    assert name in capsys.readouterr().err
    assert calls == [] and caught == []
    assert list(tmp_path.iterdir()) == []


def test_sample_refused_start_point_writes_nothing(tmp_path, capsys):
    # under a flat prior the ring's proposal at x0 = (1, 0) is singular
    code = run_cli("sample", "--example", "simple2d", "--samples", "200",
                   "--prior-precision", "flat", "--checkpoint", str(tmp_path / "state.json"),
                   "--out-dir", str(tmp_path / "out"))
    assert code == 3
    assert "proposal undefined" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("action", ["default", "error"])
@pytest.mark.parametrize("argv, message", [
    (["jtest", "--example", "quickstart", "--min", "1e200", "--max", "2e200", "--seed", "0"],
     "non-finite model output at jtest point x = [1.6369616873214544e+200]: "
     "the residual differences around it are NaN or inf"),
    (["sample", "--example", "quickstart", "--x0", "1e200", "--samples", "10"],
     "non-finite model output at x = [1e+200]: J'J is not finite"),
    # the residual is finite, its square is not: a start of zero density
    (["sample", "--example", "quickstart", "--x0", "1e100", "--samples", "200"],
     "target density is 0 at the initial guess x0 = [1e+100]"),
], ids=["jtest", "sample", "sample-zero-density"])
def test_overflowing_model_output_same_error_under_any_warning_filter(tmp_path, capsys, action,
                                                                      argv, message):
    if argv[0] == "sample":
        argv = argv + ["--out-dir", str(tmp_path / "out")]
    with warnings.catch_warnings(record=True):
        warnings.simplefilter(action, RuntimeWarning)
        assert run_cli(*argv) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("action", ["default", "error"])
def test_prior_precision_overflowing_when_symmetrized_is_a_usage_error(tmp_path, capsys, action):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action, RuntimeWarning)
        assert run_cli("sample", "--example", "quickstart", "--prior-precision", "1e308",
                       "--samples", "10", "--out-dir", str(tmp_path / "out")) == 2
    assert caught == []
    assert capsys.readouterr().err == ("error: --prior-mean/--prior-precision: symmetrized "
                                       "prior precision (P + P^T)/2 has a non-finite entry\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("action", ["default", "error::RuntimeWarning"])
def test_overflowing_start_point_prints_only_the_error(tmp_path, capfd, action):
    # a fresh interpreter writing to this process's stderr, so that numpy's
    # warning text would reach it as it reaches a user's terminal
    env = dict(os.environ, PYTHONWARNINGS=action)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # at 1e100 the residual is finite and its square overflows
    for x0, message in (("1e200", "non-finite model output at x = [1e+200]: J'J is not finite"),
                        ("1e100", "target density is 0 at the initial guess x0 = [1e+100]")):
        done = subprocess.run([sys.executable, "-m", "gnmh", "sample", "--example", "quickstart",
                               "--x0", x0, "--samples", "10", "--out-dir", str(tmp_path / "out")],
                              env=env, timeout=120)
        assert done.returncode == 3
        assert capfd.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []


def test_sample_well_negative_y_needs_x0(tmp_path, capsys):
    code = run_cli("sample", "--example", "well", "--y", "-1", "--samples", "100",
                   "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert "error: --y" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert run_cli("sample", "--example", "well", "--y", "-1", "--x0", "1", "--samples", "100",
                   "--out-dir", str(tmp_path / "out")) == 0


def test_sample_unknown_flag_usage_error():
    assert run_cli("sample", "--no-such-flag") == 2


def test_sample_checkpoint_flag_enables_safe_mode(tmp_path):
    ck = tmp_path / "state.json"
    code = run_cli("sample", "--example", "quickstart", "--samples", "100",
                   "--seed", "5", "--checkpoint", str(ck),
                   "--out-dir", str(tmp_path))
    assert code == 0
    # one file: the header (magic, version, slot size), a slot holding the
    # one save's document, an empty slot, then the rows
    data = ck.read_bytes()
    magic, version, size = struct.unpack_from("<8sII", data)
    assert (magic, version) == (b"GNMHCKPT", 5)
    doc = json.loads(data[16:16 + size].rstrip(b"\0"))
    assert doc["save"] == 0 and doc["chain_rows"] == 100
    assert data[16 + size:16 + 2 * size] == bytes(size)
    assert len(data) == 16 + 2 * size + 8 * 100
    assert not list(tmp_path.glob("state.json?*"))


def test_sample_multiple_chains_suffixed(tmp_path):
    code = run_cli("sample", "--example", "quickstart", "--samples", "120",
                   "--seed", "9", "--chains", "2", "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "chain_0.csv").exists()
    assert (tmp_path / "chain_1.csv").exists()
    a = (tmp_path / "chain_0.csv").read_bytes()
    b = (tmp_path / "chain_1.csv").read_bytes()
    assert a != b  # different seeds
    # the quadrature curve is the same for every chain, and a single chain's
    assert run_cli("sample", "--example", "quickstart", "--samples", "120",
                   "--seed", "9", "--out-dir", str(tmp_path / "one")) == 0
    curve = (tmp_path / "one" / "quadrature.csv").read_bytes()
    assert (tmp_path / "quadrature_0.csv").read_bytes() == curve
    assert (tmp_path / "quadrature_1.csv").read_bytes() == curve


def test_sample_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "example": "quickstart", "samples": 100, "seed": 4, "bins": 10,
        "out_dir": str(tmp_path / "out"),
    }))
    code = run_cli("sample", "--config", str(cfg), "--samples", "150")
    assert code == 0
    lines = (tmp_path / "out" / "chain.csv").read_text().splitlines()
    assert len(lines) == 1 + 150  # flag overrides the file


def test_sample_flat_prior_flag(tmp_path):
    code = run_cli("sample", "--example", "quickstart", "--samples", "100",
                   "--seed", "8", "--prior-precision", "flat",
                   "--out-dir", str(tmp_path))
    assert code == 0


def test_sample_visual_prints_progress(tmp_path, capsys):
    code = run_cli("sample", "--example", "quickstart", "--samples", "100",
                   "--divs", "4", "--visual", "--seed", "1",
                   "--out-dir", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "25.0%" in out and "100.0%" in out


def test_sample_well_example(tmp_path):
    code = run_cli("sample", "--example", "well", "--samples", "200",
                   "--seed", "6", "--y", "4", "--out-dir", str(tmp_path))
    assert code == 0
    chain = np.loadtxt(tmp_path / "chain.csv", skiprows=1)
    # deep well: samples concentrate near +/- 2
    assert np.abs(np.abs(chain).mean() - 2.0) < 0.5


# ---------------------------------------------------------------------------
# jtest subcommand
# ---------------------------------------------------------------------------


def test_jtest_quickstart_passes(capsys):
    code = run_cli("jtest", "--example", "quickstart", "--min", "-2",
                   "--max", "2", "--seed", "0")
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"


def test_jtest_default_box(capsys):
    assert run_cli("jtest", "--example", "quickstart", "-N", "50") == 0


def test_jtest_corrupted_jacobian_fails(capsys):
    code = run_cli("jtest", "--example", "badjac", "--min", "-2",
                   "--max", "2", "--seed", "0")
    assert code == 1
    assert float(capsys.readouterr().out.strip()) >= 9e-3


def test_jtest_empty_box_usage_error():
    code = run_cli("jtest", "--example", "quickstart", "--min", "2",
                   "--max", "-2")
    assert code == 2


def test_jtest_box_of_wrong_dimension_usage_error(capsys):
    assert run_cli("jtest", "--example", "simple2d", "--min", "-1", "--max", "1") == 2
    assert "error: --min" in capsys.readouterr().err


def test_jtest_well_negative_y_runs(capsys):
    # the box does not need the sample start point sqrt(y)
    assert run_cli("jtest", "--example", "well", "--y", "-1", "-N", "20") == 0


def test_jtest_sigma_zero_usage_error(capsys):
    assert run_cli("jtest", "--example", "quickstart", "--sigma", "0") == 2
    err = capsys.readouterr().err
    assert "error: --sigma" in err and "model output" not in err


def test_jtest_non_finite_model_output_exit_code(capsys):
    # x^2 overflows on this box, so the residual differences are inf - inf
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli("jtest", "--example", "quickstart", "--min", "1e200",
                       "--max", "2e200", "--seed", "0")
    assert code == 3
    err = capsys.readouterr().err
    assert "non-finite model output at jtest point x = " in err


def test_jtest_expseries(capsys):
    code = run_cli("jtest", "--example", "expseries", "-N", "40",
                   "--seed", "1")
    assert code == 0


def test_jtest_invalid_option_usage_error(capsys):
    assert run_cli("jtest", "--example", "quickstart", "--dx", "0") == 2
    err = capsys.readouterr().err
    assert "dx > 0" in err and "model output" not in err


# ---------------------------------------------------------------------------
# --config and --help
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("content", [
    "[1, 2]",                               # not an object
    '{"samples": null}',                    # null value
    '{"sampels": 50}',                      # misspelled key
    '{"samp": 50}',                         # a prefix of a flag is no key either
    '{"config": "other.json"}',             # a config cannot name another
    '{"out_dir": {"a": 1}}',                # neither a number, a string nor a list
    '{"samples": "many"}',                  # the parser's type check
    '{"backoff": "weird"}',                 # the parser's choices
    '{"range": [1, 2, 3]}',                 # the parser's nargs
])
def test_sample_bad_config_usage_error(tmp_path, capsys, content):
    cfg = tmp_path / "run.json"
    cfg.write_text(content)
    assert run_cli("sample", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sample_config_writes_what_the_same_flags_write(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "example": "simple2d", "samples": 200, "seed": 5, "bins": 7,
        "prior_precision": [[2, 0], [0, 3]], "prior_mean": [-1e-7, 0.25],
        "marginal": [[0, 1], [1, 0]], "visual": True, "range": [-1.5, 1.5],
        "backoff": "dynamic", "max_steps": 2, "out_dir": str(tmp_path / "config"),
    }))
    assert run_cli("sample", "--config", str(cfg)) == 0
    assert run_cli("sample", "--example", "simple2d", "--samples", "200", "--seed", "5",
                   "--bins", "7", "--prior-precision", "2", "0", "0", "3",
                   "--prior-mean", "-0.0000001", "0.25", "--marginal", "0", "1",
                   "--marginal", "1", "0", "--visual", "--range", "-1.5", "1.5",
                   "--backoff", "dynamic", "--max-steps", "2",
                   "--out-dir", str(tmp_path / "flags")) == 0
    names = sorted(p.name for p in (tmp_path / "flags").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "config").iterdir())
    assert "marginal_1_0.csv" in names
    for name in names:
        assert (tmp_path / "config" / name).read_bytes() == \
            (tmp_path / "flags" / name).read_bytes(), name


def test_sample_negative_values_in_exponent_notation(tmp_path):
    # argparse alone reads -1e-5 as an unknown option; the same values in
    # positional notation give the same files
    common = ("sample", "--example", "simple2d", "--samples", "200", "--seed", "3",
              "--bins", "9")
    assert run_cli(*common, "--prior-mean", "-1e-5", "-2.5E+3", "--x0", "-1e-1", "2.5E-1",
                   "--range", "-2.5E+0", "2", "--out-dir", str(tmp_path / "exp")) == 0
    assert run_cli(*common, "--prior-mean", "-0.00001", "-2500", "--x0", "-0.1", "0.25",
                   "--range", "-2.5", "2", "--out-dir", str(tmp_path / "pos")) == 0
    names = sorted(p.name for p in (tmp_path / "pos").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "exp").iterdir())
    for name in names:
        assert (tmp_path / "exp" / name).read_bytes() == \
            (tmp_path / "pos" / name).read_bytes(), name


def test_sample_marginal_flag_replaces_config_pairs(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"example": "simple2d", "samples": 100, "bins": 5,
                               "marginal": [[0, 1]], "out_dir": str(tmp_path / "out")}))
    assert run_cli("sample", "--config", str(cfg), "--marginal", "1", "0") == 0
    assert not (tmp_path / "out" / "marginal_0_1.csv").exists()
    assert (tmp_path / "out" / "marginal_1_0.csv").exists()


def test_sample_help_shows_defaults(capsys):
    assert run_cli("sample", "--help") == 0
    out = capsys.readouterr().out
    assert "10000" in out
