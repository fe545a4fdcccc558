"""One benchmark workload in one fresh process; ``run.py`` launches it.

    python3 bench/worker.py setup --workload W --seed S --seconds T --trace 0 --out DIR
    python3 bench/worker.py run   --workload W --seed S --seconds T --trace 0|1 --out DIR

``setup`` times import, example build, ``jtest`` on the example's box and
``Sampler`` construction, then exits. ``run`` does the same set-up and then
the workload: a single-thread closed loop in which each ``run_sample`` (or
``gnmh sample``) call waits for the previous one. The amount of work is a
fixed function of workload, ``--seconds`` and nothing else, so every count
(chains, model calls, checkpoint bytes) repeats exactly at one seed; the
timings are medians over the pieces of that work, each scaled to a
reference host speed (see REFERENCE_S).

The last stdout line is one JSON object: metrics, checks and chain digests.
Only the public API is used end to end, so internal refactors cannot break
the measurement; the traced run wraps public names from outside (spans.py).

Only the standard library is imported at module level, so that ``setup_s``
includes the cost of importing numpy and scipy through gnmh.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

# Why each workload exists and what it loads is recorded in BENCHMARK.json.
# rate: transitions per second this workload reaches untraced on a 2-core
# Xeon; with --seconds it fixes the chain length. chunk: transitions per
# timed run_sample call. burn: rows dropped before the ESS estimate, a
# multiple of chunk.
WORKLOADS = {
    "quickstart-plain": dict(example="quickstart", backoff=None,
                             rate=6000, chunk=1000, burn=2000, min_n=20000),
    "expseries-backoff": dict(example="expseries", backoff=4,
                              rate=450, chunk=500, burn=1000, min_n=3000),
    # rows: transitions of one `gnmh sample` call; divs: its checkpoint
    # divisions. The resumed segment adds rows // 4 transitions over
    # divs // 4 divisions. rep_s: seconds one repetition takes untraced.
    "simple2d-safe": dict(example="simple2d", rows=8000, divs=80,
                          burn=500, rep_s=6.0),
}

# Bundled examples, with the constants of the CLI's example registry.
EXAMPLES = {
    "quickstart": dict(x0=[0.5], prior_mean=[0.0], prior_diag=1.0,
                       box=([-2.0], [2.0])),
    "simple2d": dict(x0=[1.0, 0.0], prior_mean=[0.0, 0.0], prior_diag=1.0,
                     box=([-2.0, -2.0], [2.0, 2.0])),
    # starts at the parameters that generated the data: from the prior mean
    # the chain needed a seed-dependent 0-3000 transitions to reach the
    # posterior's bulk
    "expseries": dict(x0=[1.0, 2.5, 0.5, 3.1], prior_mean=[4.0, 2.0, 0.5, 1.0],
                      prior_diag=0.5, box=([0.1] * 4, [5.0] * 4)),
}

# The decay-series data set is fixed (the CLI's default data seed) and only
# the sampler seed follows --seed: across data seeds 1-5 the posterior's
# shape alone moved ESS per call between 0.019 and 0.050 and model calls
# per transition between 2.3 and 2.9, a seed-to-seed spread no bound on a
# performance change could absorb.
EXPSERIES_DATA_SEED = 14

# Quickstart target: log p(x) = -x^2/2 - ((x^2 - y)/sigma)^2/2, y=1, sigma=0.5.
QUICKSTART_Y, QUICKSTART_SIGMA = 1.0, 0.5
# Histogram check: bins on [-3, 3] whose expected count is at least
# HIST_MIN_EXPECTED are compared with the quadrature reference. A bin's count
# variance is the binomial one inflated by the autocorrelation time of its
# own indicator series (from gnmh.acor; the coordinate's if that fails), and
# a bin fails beyond HIST_Z_MAX standard deviations, which under a normal
# approximation 30 bins exceed by chance with probability about 2e-5. At the
# 30-s chain length the true target passed on seeds 1-6, while a reference
# with sigma 0.55 or 0.45 in place of 0.5 gave max |z| between 9 and 14.
HIST_BINS, HIST_MIN_EXPECTED, HIST_Z_MAX = 30, 20.0, 5.0

# The host is shared, and its speed drifts by a third within minutes. Each
# timed piece of work is therefore followed by a fixed reference loop of the
# same kind of work (small numpy products, Python arithmetic), and its wall
# time is scaled by REFERENCE_S / (the loop's time then): times and rates are
# expressed at the host speed at which the loop takes REFERENCE_S, as on a
# quiet 2-core Xeon. In one two-minute probe the median rate of an unchanged
# quickstart loop moved 29% between 15-s windows raw and 5.5% scaled. The
# raw medians are kept in the report.
REFERENCE_S = 0.0033


def host_scale(loops: int = 1) -> float:
    """REFERENCE_S over the median time of ``loops`` reference loops."""
    import numpy as np
    weights = np.diag([2.0, 3.0, 4.0, 5.0])
    times = []
    for _ in range(loops):
        x = np.linspace(0.1, 0.4, 4)
        acc = 0.0
        t = time.perf_counter()
        for i in range(500):
            d = x - 0.25
            acc += float(d @ weights @ d) + math.sqrt(i + 1.0)
            x = np.asarray([v * 0.999 for v in x])
        times.append(time.perf_counter() - t)
    return REFERENCE_S / statistics.median(times)


def timed(fn, loops: int = 1):
    """(fn's result, raw wall seconds, seconds scaled to the reference host).

    Pieces that are few per run take the median of three reference loops;
    the many sampling calls take one each, to keep the loop's cost near 2%."""
    t = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t
    return out, wall, wall * host_scale(loops)


class DivisionClock:
    """Stand-in for stdout during a ``--visual`` run: each progress line ends
    a checkpoint division, whose wall time is then scaled by a reference
    reading. The reading's own time is left out of both sums."""

    def __init__(self, scale: bool):
        self.scale = scale
        self.raw = self.scaled = 0.0
        self._mark = time.perf_counter()

    def write(self, text: str) -> int:
        if text.strip():
            self.lap()
        return len(text)

    def flush(self) -> None:
        pass

    def lap(self) -> None:
        wall = time.perf_counter() - self._mark
        self.raw += wall
        self.scaled += wall * (host_scale() if self.scale else 1.0)
        self._mark = time.perf_counter()


class Checks:
    """Output checks; failures feed ``failed`` and ``error_rate``."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


class Example:
    def __init__(self, gnmh, name: str):
        spec = EXAMPLES[name]
        if name == "quickstart":
            self.build = lambda: gnmh.quickstart_handle(y=QUICKSTART_Y,
                                                        sigma=QUICKSTART_SIGMA)
        elif name == "simple2d":
            self.build = lambda: gnmh.simple2d_handle(y=1.0, sigma=0.5)
        else:
            data = gnmh.cli.exp_series_datagen(seed=EXPSERIES_DATA_SEED)
            self.build = lambda: gnmh.exp_series_handle(data, n_terms=2)
        self.x0 = spec["x0"]
        dim = len(self.x0)
        self.prior = gnmh.GaussianPrior.create(
            spec["prior_mean"],
            [[spec["prior_diag"] if i == j else 0.0 for j in range(dim)]
             for i in range(dim)])
        self.box = gnmh.JtestDomain.create(*spec["box"])


def setup(workload: str, seed: int, checks: Checks, before_build=None):
    """Import, build the example, jtest it and construct the Sampler.

    Returns (gnmh module, example, handle, sampler, scaled seconds, jtest
    calls).
    ``before_build`` runs after the import, before anything is timed as
    model work (the traced run installs its wrappers there).
    """
    t0 = time.perf_counter()
    import gnmh
    import gnmh.cli
    if before_build is not None:
        t_hook = time.perf_counter()
        before_build(gnmh)
        t0 += time.perf_counter() - t_hook
    spec = WORKLOADS[workload]
    example = Example(gnmh, spec["example"])
    handle = example.build()
    calls0 = handle.call_count
    err = gnmh.jtest(handle, example.box, rng=seed)
    jtest_calls = handle.call_count - calls0
    sampler = gnmh.Sampler(example.x0, handle, seed=seed, prior=example.prior)
    if spec.get("backoff"):
        sampler.set_dynamic(spec["backoff"])
    elapsed = time.perf_counter() - t0
    elapsed *= host_scale(3)
    checks.check("jtest returns 0", err == 0, f"jtest error norm {err!r}")
    return gnmh, example, handle, sampler, elapsed, jtest_calls


# ---------------------------------------------------------------------------
# checks and estimates shared by the workloads
# ---------------------------------------------------------------------------


def check_counters(checks: Checks, sampler, n_transitions: int, label: str) -> None:
    steps = sampler.step_count
    checks.check(f"{label}: sum(step_count) == transitions",
                 sum(steps.values()) == n_transitions,
                 f"{sum(steps.values())} != {n_transitions}")
    accepted = sum(v for k, v in steps.items() if k != -1)
    checks.check(f"{label}: n_accepted matches accepting stages",
                 sampler.n_accepted == accepted,
                 f"{sampler.n_accepted} != {accepted}")


def chain_ess(gnmh, checks: Checks, chain, burn: int, label: str):
    """Minimum over coordinates of n/tau after ``burn`` rows, or None."""
    import numpy as np
    checks.check(f"{label}: every chain row finite",
                 bool(np.isfinite(chain).all()))
    kept = chain[burn:]
    taus = []
    for j in range(kept.shape[1]):
        try:
            taus.append(gnmh.acor(kept[:, j]).tau)
        except gnmh.errors.GnmhError as exc:
            checks.check(f"{label}: ESS computable for x{j + 1}", False, repr(exc))
            return None, None
        checks.check(f"{label}: ESS computable for x{j + 1}", True)
    tau_max = max(taus)
    return kept.shape[0] / tau_max, tau_max


def digest(chain) -> str:
    import numpy as np
    return hashlib.sha256(np.ascontiguousarray(chain, dtype="<f8").tobytes()).hexdigest()


def check_quickstart_histogram(gnmh, checks: Checks, chain, tau: float) -> None:
    import numpy as np
    x = chain[:, 0]
    n = x.shape[0]
    edges = np.linspace(-3.0, 3.0, HIST_BINS + 1)
    fine = np.linspace(-3.0, 3.0, 200 * HIST_BINS + 1)
    dens = np.exp(-0.5 * fine ** 2
                  - 0.5 * ((fine ** 2 - QUICKSTART_Y) / QUICKSTART_SIGMA) ** 2)
    cell = 0.5 * (dens[1:] + dens[:-1]) * np.diff(fine)
    p = cell.reshape(HIST_BINS, 200).sum(axis=1) / cell.sum()
    bins = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, HIST_BINS - 1)
    z_max, used = 0.0, 0
    for b in range(HIST_BINS):
        expected = n * p[b]
        if expected < HIST_MIN_EXPECTED:
            continue
        inside = (bins == b).astype(float)
        try:
            tau_b = gnmh.acor(inside).tau
        except gnmh.errors.GnmhError:
            tau_b = tau
        sd = math.sqrt(tau_b * expected * (1.0 - p[b]))
        z_max = max(z_max, abs(inside.sum() - expected) / sd)
        used += 1
    checks.check("histogram agrees with quadrature", z_max <= HIST_Z_MAX,
                 f"max |z| {z_max:.2f} over {used} bins")


def resume_time(gnmh, checks: Checks, sampler, handle_factory, path: str,
                repeats: int = 5) -> float:
    """Median scaled time of load_checkpoint on ``sampler``'s final state."""
    import numpy as np
    sampler.save_checkpoint(path)
    times = []
    for _ in range(repeats):
        handle = handle_factory()
        loaded, _, scaled = timed(lambda: gnmh.Sampler.load_checkpoint(path, handle), 3)
        times.append(scaled)
    checks.check("loaded checkpoint chain equals the sampled chain",
                 np.array_equal(loaded.chain, sampler.chain))
    checks.check("loaded checkpoint counters equal the sampler's",
                 (loaded.call_count, loaded.n_accepted, loaded.step_count)
                 == (sampler.call_count, sampler.n_accepted, sampler.step_count))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def chain_length(spec: dict, seconds: float) -> int:
    n = max(spec["min_n"], int(round(spec["rate"] * seconds)))
    return -(-n // spec["chunk"]) * spec["chunk"]


def sample_chain(sampler, n: int, chunk: int, burn: int):
    """The timed closed loop: n transitions in run_sample calls of ``chunk``.

    Returns the (raw, scaled) call times after the burn-in and the sampler's
    call count when the burn-in ended."""
    times = []
    calls_at_burn = sampler.call_count
    for i in range(n // chunk):
        times.append(timed(lambda: sampler.run_sample(chunk))[1:])
        if (i + 1) * chunk == burn:
            calls_at_burn = sampler.call_count
    return times[burn // chunk:], calls_at_burn


def run_chain_workload(ctx, sampler, n: int, out_dir: str, phase=None) -> dict:
    gnmh, checks, spec = ctx["gnmh"], ctx["checks"], ctx["spec"]
    burn, chunk = spec["burn"], spec["chunk"]
    t = time.perf_counter()
    times, calls_at_burn = sample_chain(sampler, n, chunk, burn)
    wall = time.perf_counter() - t
    if phase is not None:
        phase("analyze")
    chain = sampler.chain
    check_counters(checks, sampler, n, "chain")
    checks.check("chain has one row per transition", chain.shape[0] == n)
    ess, tau = chain_ess(gnmh, checks, chain, burn, "chain")
    if spec["example"] == "quickstart" and tau is not None:
        check_quickstart_histogram(gnmh, checks, chain[burn:], tau)
    resume_s = resume_time(gnmh, checks, sampler, ctx["example"].build,
                           os.path.join(out_dir, "state.json"))
    # per-transition costs are taken after the burn-in, where the chain is
    # stationary: the start's transient varies too much from seed to seed
    return dict(transitions=n, calls=sampler.call_count - ctx["calls_at_start"],
                kept=n - burn, calls_per_transition=(sampler.call_count - calls_at_burn) / (n - burn),
                ess=ess, tau=tau, phase_wall=wall,
                rates=[chunk / scaled for _, scaled in times],
                raw_rates=[chunk / raw for raw, _ in times],
                resume_s=resume_s, digests=[digest(chain)],
                step_count=sampler.step_count, n_accepted=sampler.n_accepted)


def simple2d_plan(spec: dict, seconds: float, traced: bool):
    """(repetitions, rows per `gnmh sample` call)."""
    return 1 if traced else max(1, int(seconds // spec["rep_s"])), spec["rows"]


def run_simple2d_rep(ctx, rep: int, rows: int, out_dir: str, phase=None) -> dict:
    """`gnmh sample` in safe mode, load its checkpoint, resume in safe mode."""
    import numpy as np
    gnmh, checks, spec = ctx["gnmh"], ctx["checks"], ctx["spec"]
    divs = spec["divs"]
    extra, extra_divs = rows // 4, max(1, divs // 4)
    rep_dir = os.path.join(out_dir, f"rep{rep}")
    ckpt = os.path.join(rep_dir, "state.json")
    argv = ["sample", "--example", "simple2d", "--samples", str(rows),
            "--divs", str(divs), "--seed", str(ctx["seed"] * 1000 + rep),
            "--checkpoint", ckpt, "--marginal", "0", "1", "--out-dir", rep_dir,
            "--visual"]
    # A repetition lasts seconds, over which the host's speed flips between
    # levels ~1.7x apart, so one reference reading at its end says little.
    # The progress lines of --visual split it into divisions of ~50 ms, each
    # scaled by a reading taken at its end (not in traced runs, where the
    # readings would land inside the cli.main span).
    t = time.perf_counter()
    cli_clock = DivisionClock(ctx["scale_divisions"])
    with contextlib.redirect_stdout(cli_clock):
        code = gnmh.cli.main(argv)
        cli_clock.lap()
    t_cli = time.perf_counter() - t
    checks.check(f"rep {rep}: gnmh sample exits 0", code == 0, f"exit code {code}")
    sampler, t_raw_load, t_load = timed(
        lambda: gnmh.Sampler.load_checkpoint(ckpt, ctx["example"].build()), 3)
    loaded = dict(n_samples=sampler.n_samples, n_accepted=sampler.n_accepted,
                  burned=sampler.burned, call_count=sampler.call_count,
                  step_count={str(k): v for k, v in sampler.step_count.items()})
    t = time.perf_counter()
    seg_clock = DivisionClock(ctx["scale_divisions"])
    with contextlib.redirect_stdout(seg_clock):
        sampler.run_sample(extra, divs=extra_divs, visual=True, safe=ckpt)
        seg_clock.lap()
    t_seg = time.perf_counter() - t
    if phase is not None:
        phase("analyze")

    written = np.loadtxt(os.path.join(rep_dir, "chain.csv"), delimiter=",",
                         skiprows=1, ndmin=2)
    with open(os.path.join(rep_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    chain = sampler.chain
    # resuming only appends, so the first `rows` rows are the loaded chain
    checks.check(f"rep {rep}: checkpoint chain equals chain.csv rows",
                 np.array_equal(chain[:rows], written))
    checks.check(f"rep {rep}: checkpoint counters equal summary.json",
                 all(summary.get(k) == v for k, v in loaded.items()),
                 f"checkpoint {loaded} vs summary")
    check_counters(checks, sampler, rows + extra, f"rep {rep}")
    ess, tau = chain_ess(gnmh, checks, chain, spec["burn"], f"rep {rep}")
    return dict(transitions=rows + extra, calls=sampler.call_count,
                kept=rows + extra - spec["burn"], ess=ess, tau=tau,
                phase_wall=t_cli + t_raw_load + t_seg,
                rates=[(rows + extra) / (cli_clock.scaled + seg_clock.scaled)],
                raw_rates=[(rows + extra) / (cli_clock.raw + seg_clock.raw)],
                resume_s=t_load, digests=[digest(chain)],
                step_count=sampler.step_count, n_accepted=sampler.n_accepted)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def install_tracer(tracer, gnmh) -> None:
    """Wrap each layer's public entry points at the name its caller uses."""
    from spans import TracedRng
    kernel = sys.modules.get("gnmh.kernel")
    posterior = sys.modules.get("gnmh.posterior")
    diagnostics = sys.modules.get("gnmh.diagnostics")
    Gaussian = getattr(gnmh, "PrecisionGaussian", None)
    Handle = getattr(gnmh, "ModelHandle", None)
    Sampler = gnmh.Sampler
    for owner, attr, name, kind in [
        (Handle, "evaluate", "model.evaluate", "function"),
        (kernel, "point_state", "posterior.point_state", "function"),
        (posterior, "gn_proposal", "posterior.gn_proposal", "function"),
        (Gaussian, "sample", "gaussian.sample", "function"),
        (Gaussian, "log_pdf", "gaussian.log_pdf", "function"),
        (Gaussian, "dilate", "gaussian.dilate", "function"),
        (kernel, "step", "kernel.step", "function"),
        (kernel, "accept_prob", "kernel.accept_prob", "function"),
        (kernel, "dynamic_gamma", "kernel.dynamic_gamma", "function"),
        (Sampler, "run_sample", "sampler.run_sample", "function"),
        (Sampler, "save_checkpoint", "sampler.save_checkpoint", "function"),
        (Sampler, "load_checkpoint", "sampler.load_checkpoint", "classmethod"),
        (Sampler, "chain", "sampler.chain", "property"),
        # the CLI reads diagnostics.<name>; the benchmark reads gnmh.acor
        (diagnostics, "acor", "diagnostics.acor", "function"),
        (gnmh, "acor", "diagnostics.acor", "function"),
        (diagnostics, "error_bars", "diagnostics.error_bars", "function"),
        (diagnostics, "error_bars_2d", "diagnostics.error_bars_2d", "function"),
        (gnmh.cli, "main", "cli.main", "function"),
        (gnmh, "jtest", "jtest.jtest", "function"),
    ]:
        tracer.patch(owner, attr, name, kind)

    # every sampler, built or loaded, draws through a traced generator
    init = vars(Sampler)["__init__"]

    def init_traced_rng(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.rng = TracedRng(self.rng, tracer)

    tracer.replace(Sampler, "__init__", init_traced_rng)
    load = vars(Sampler).get("load_checkpoint")
    if isinstance(load, classmethod):
        def load_traced_rng(cls, *args, **kwargs):
            sampler = load.__func__(cls, *args, **kwargs)
            sampler.rng = TracedRng(sampler.rng, tracer)
            return sampler

        tracer.replace(Sampler, "load_checkpoint", classmethod(load_traced_rng))

    # bytes written by each save, read back from the file it wrote
    save = vars(Sampler).get("save_checkpoint")
    if save is not None:
        def save_counting_bytes(self, path):
            save(self, path)
            tracer.bytes_written += os.path.getsize(path)

        tracer.bytes_written = 0
        tracer.replace(Sampler, "save_checkpoint", save_counting_bytes)


def _pct(values_ns, q: float) -> float:
    import numpy as np
    return float(np.percentile(values_ns, q)) if len(values_ns) else 0.0


def layer_metrics(tracer, phases: dict, job: dict, jtest_calls: int,
                  ref_tps: float) -> dict:
    """Per-layer metrics from the traced job; names match BENCHMARK.json."""
    setup_spans = tracer.summary(*phases["setup"])
    sample = tracer.summary(*phases["sample"])
    post = tracer.summary(phases["sample"][0])
    n = job["transitions"]

    def get(summary, name, field):
        return summary.get(name, {}).get(field, 0)

    def per_tr_us(name):
        return get(sample, name, "self_ns") / n / 1e3

    def per_tr_calls(name):
        return get(sample, name, "calls") / n

    def ms_per_call(summary, name, field="total_ns"):
        calls = get(summary, name, "calls")
        return get(summary, name, field) / calls / 1e6 if calls else 0.0

    m = {}
    counted = ("posterior.gn_proposal", "gaussian.sample", "gaussian.log_pdf",
               "gaussian.dilate", "kernel.accept_prob", "kernel.dynamic_gamma",
               "model.evaluate")
    for layer in counted:
        m[f"{layer}.calls_per_transition"] = per_tr_calls(layer)
    for layer in counted + ("posterior.point_state", "kernel.step", "sampler.run_sample"):
        m[f"{layer}.self_us_per_transition"] = per_tr_us(layer)
    gn_calls = get(sample, "posterior.gn_proposal", "calls")
    m["posterior.gn_proposal.self_us_per_call"] = (
        get(sample, "posterior.gn_proposal", "self_ns") / gn_calls / 1e3 if gn_calls else 0.0)
    m["rng.calls_per_transition"] = (per_tr_calls("rng.standard_normal")
                                     + per_tr_calls("rng.random"))
    m["rng.self_us_per_transition"] = (per_tr_us("rng.standard_normal")
                                       + per_tr_us("rng.random"))
    steps_ns = sample.get("kernel.step", {}).get("durations_ns", [])
    m["kernel.step.us.p50"] = _pct(steps_ns, 50) / 1e3
    m["kernel.step.us.p99"] = _pct(steps_ns, 99) / 1e3

    counts = job["step_count"]
    for k in range(1, 6):
        m[f"kernel.stage_accept_frac.{k}"] = counts.get(k, 0) / n
    m["kernel.stage_accept_frac.rejected"] = counts.get(-1, 0) / n
    m["kernel.accept_rate"] = job["n_accepted"] / n
    m["kernel.useful_call_ratio"] = job["n_accepted"] / job["calls"]

    saves_ns = post.get("sampler.save_checkpoint", {}).get("durations_ns", [])
    m["sampler.save_checkpoint.calls"] = len(saves_ns)
    m["sampler.save_checkpoint.ms.p50"] = _pct(saves_ns, 50) / 1e6
    m["sampler.save_checkpoint.ms.p99"] = _pct(saves_ns, 99) / 1e6
    m["sampler.save_checkpoint.bytes"] = getattr(tracer, "bytes_written", 0)
    m["sampler.save_checkpoint.wall_frac"] = (
        get(sample, "sampler.save_checkpoint", "total_ns") / 1e9 / job["phase_wall"])
    m["sampler.load_checkpoint.ms"] = ms_per_call(post, "sampler.load_checkpoint")
    m["sampler.chain.ms_per_access"] = ms_per_call(post, "sampler.chain")
    for name in ("diagnostics.acor", "diagnostics.error_bars", "diagnostics.error_bars_2d"):
        m[f"{name}.ms"] = ms_per_call(post, name)
    m["cli.main.self_ms"] = ms_per_call(sample, "cli.main", "self_ns")
    m["jtest.jtest.ms"] = ms_per_call(setup_spans, "jtest.jtest")
    m["jtest.model_calls"] = jtest_calls

    traced_tps = statistics.median(job["rates"])
    m["trace.transitions_per_s"] = traced_tps
    m["trace.overhead_transitions_per_s"] = ref_tps - traced_tps
    m["trace.overhead_frac"] = (ref_tps - traced_tps) / ref_tps
    self_total = sum(v["self_ns"] for v in sample.values())
    m["trace.self_time_coverage"] = self_total / 1e9 / job["phase_wall"]
    m["trace.spans"] = tracer.mark()
    m["trace.missing_names"] = len(tracer.missing)
    return m


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_job(ctx, sampler, size, out_dir: str, phase=None) -> dict:
    """The workload's timed work; ``size`` is a chain length, or for
    simple2d-safe a (repetitions, rows) pair."""
    os.makedirs(out_dir, exist_ok=True)
    if ctx["spec"]["example"] != "simple2d":
        return run_chain_workload(ctx, sampler, size, out_dir, phase)
    n_reps, rows = size
    reps = [run_simple2d_rep(ctx, r, rows, out_dir, phase) for r in range(n_reps)]
    ess = [r["ess"] for r in reps]
    transitions = sum(r["transitions"] for r in reps)
    calls = sum(r["calls"] for r in reps)
    return dict(
        transitions=transitions, calls=calls,
        kept=sum(r["kept"] for r in reps), calls_per_transition=calls / transitions,
        ess=None if None in ess else sum(ess),
        tau=max((r["tau"] or 0.0) for r in reps),
        phase_wall=sum(r["phase_wall"] for r in reps),
        rates=[rate for r in reps for rate in r["rates"]],
        raw_rates=[rate for r in reps for rate in r["raw_rates"]],
        resume_s=statistics.median(r["resume_s"] for r in reps),
        digests=[d for r in reps for d in r["digests"]],
        step_count={k: sum(r["step_count"].get(k, 0) for r in reps)
                    for k in reps[0]["step_count"]},
        n_accepted=sum(r["n_accepted"] for r in reps),
    )


def job_size(spec: dict, seconds: float, traced: bool):
    if spec["example"] == "simple2d":
        return simple2d_plan(spec, seconds, traced)
    n = chain_length(spec, seconds)
    if traced:
        # a third of the work keeps the span arrays near 32 MB on expseries
        n = max(spec["min_n"], -(-n // (3 * spec["chunk"])) * spec["chunk"])
    return n


def end_to_end(job: dict, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "transitions_per_s": statistics.median(job["rates"]),
        "calls_per_transition": job["calls_per_transition"],
        "resume_s": job["resume_s"],
    }


def ess_figures(job: dict) -> dict:
    """ESS per second and per model call. Reported, not gated: at the chain
    lengths one run affords they move 10-50% from seed to seed."""
    ess_per_tr = (job["ess"] or 0.0) / job["kept"]
    return {
        "ess_per_s": ess_per_tr * statistics.median(job["rates"]),
        "ess_per_call": ess_per_tr / job["calls_per_transition"],
        "transitions_per_s_raw": statistics.median(job["raw_rates"]),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload]
    checks = Checks()

    if args.mode == "setup":
        setup_s = setup(args.workload, args.seed, checks)[4]
        print(json.dumps({"setup_s": setup_s, "attempted": checks.attempted,
                          "failures": checks.failures}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    gnmh, example, handle, sampler, setup_s, jtest_calls = setup(
        args.workload, args.seed, checks,
        None if tracer is None else (lambda g: install_tracer(tracer, g)))
    import numpy
    import scipy
    ctx = dict(gnmh=gnmh, checks=checks, spec=spec, example=example,
               seed=args.seed, calls_at_start=sampler.call_count,
               scale_divisions=not args.trace)
    size = job_size(spec, args.seconds, bool(args.trace))
    out = {"versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                        "scipy": scipy.__version__, "gnmh": gnmh.__file__}}

    if tracer is None:
        job = run_job(ctx, sampler, size, args.out)
        out["metrics"] = end_to_end(job, setup_s)
        out["figures"] = ess_figures(job)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["metrics"]["peak_rss_mb"] = rss_kb / 1024.0
    else:
        phases = {"setup": (0, tracer.mark())}
        # untraced reference on the same seed and size, for the overhead
        tracer.uninstall()
        ref_checks = Checks()
        ref = setup(args.workload, args.seed, ref_checks)
        ref_ctx = dict(ctx, checks=ref_checks, calls_at_start=ref[3].call_count)
        ref_job = run_job(ref_ctx, ref[3], size, os.path.join(args.out, "ref"))
        install_tracer(tracer, gnmh)
        marks = {}

        def phase(name):
            marks[name] = tracer.mark()

        phase("sample")
        job = run_job(ctx, sampler, size, args.out, phase)
        phases["sample"] = (marks["sample"], marks["analyze"])
        tracer.uninstall()
        checks.check("traced chain equals untraced chain", job["digests"] == ref_job["digests"])
        checks.attempted += ref_checks.attempted
        checks.failures += ref_checks.failures
        out["metrics"] = layer_metrics(tracer, phases, job, jtest_calls,
                                       statistics.median(ref_job["rates"]))
        out["missing"] = tracer.missing
        tracer.save(os.path.join(args.out, "spans.npz"))

    out.update(transitions=job["transitions"], model_calls=job["calls"], tau=job["tau"],
               ess=job["ess"], chain_sha256=job["digests"], attempted=checks.attempted,
               failures=checks.failures)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
