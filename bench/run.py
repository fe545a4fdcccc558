"""gnmh benchmark launcher.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gnmh source tree; the package is imported from its
``src/`` directory, never from an installed copy. The launcher pins the BLAS
and OpenMP thread pools to one thread, then runs the workload in fresh
single-thread child processes (``worker.py``), one at a time:

* with ``--trace 0``: the timed workload between set-up probes, three
  before and three after (import, example build, ``jtest``, ``Sampler``
  construction; each in its own process, so import cost counts).
  ``setup_s`` is the median of the seven set-ups, the workload's included;
  probing on both sides of the workload spreads them over the run, so a
  slow phase of a shared machine shifts fewer of them.
* with ``--trace 1``: the workload once untraced and once traced, on a third
  of the work, giving the per-layer metrics and the tracing overhead.

Earlier stdout lines carry the machine record, the checks and the chain
digests; the last line is the result the contract asks for:
``{"correct", "attempted", "failed", "metrics"}``. Run records and the
traced spans are kept under ``.bench_run/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

SETUP_PROBES_EACH_SIDE = 3
# a run must end within 180 s; keep the launcher's own margin
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "loadavg_1m": os.getloadavg()[0], "platform": platform.platform()}


def run_child(argv, env, deadline: float) -> dict:
    """Run one worker process to completion and return its last JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("out of time before starting a worker")
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv[1]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gnmh benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gnmh", "__init__.py")):
        print(f"error: no gnmh sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    machine = machine_record()
    runs_dir = os.path.join(root, ".bench_run")
    work = os.path.join(runs_dir, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", work]
    worker = os.path.join(here, "worker.py")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        n_probes = 0 if args.trace else SETUP_PROBES_EACH_SIDE
        probes = [run_child([worker, "setup", *common], env, deadline)
                  for _ in range(n_probes)]
        result = run_child([worker, "run", *common], env, deadline)
        probes += [run_child([worker, "setup", *common], env, deadline)
                   for _ in range(n_probes)]
        spans = os.path.join(work, "spans.npz")
        if os.path.exists(spans):
            os.replace(spans, os.path.join(runs_dir, f"spans-{tag}.npz"))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    failures = list(result["failures"])
    attempted = result["attempted"]
    for probe in probes:
        attempted += probe["attempted"]
        failures += probe["failures"]
    if not args.trace:
        setups = [p["setup_s"] for p in probes] + [metrics["setup_s"]]
        metrics["setup_s"] = statistics.median(setups)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} are emitted or "
              "declared in BENCHMARK.json, not both", file=sys.stderr)
        return 1

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": {**machine, **result["versions"]},
        "threads_pinned": {var: env[var] for var in THREAD_VARS},
        "transitions": result["transitions"], "model_calls": result["model_calls"],
        "tau_max": result["tau"], "ess": result["ess"], **result.get("figures", {}),
        "chain_sha256": result["chain_sha256"],
        "error_rate": len(failures) / attempted, "failures": failures,
        "missing_trace_names": result.get("missing", []),
    }
    if not args.trace:
        report["setup_s_samples"] = setups
    with open(os.path.join(runs_dir, f"report-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
