"""What deep back-off costs outside the model: expseries, static(k, 0.5).

Each run starts the CLI's expseries example (data seed 14, prior N(x0,
2 I), x0 = [4, 2, 0.5, 1]) at x0, takes 200 transitions, then times 2000
more. Time spent inside model evaluations is measured and subtracted, so
the figure is the sampler's own cost per transition: proposal builds,
acceptance, kernel bookkeeping. The same cost is also given per drawn point
(per model call), which separates the per-point build from the extra points
that deep back-off draws. Each printed ratio is the median over seeds 1-5
at k=5 against the median at k=1.
"""

import time

import numpy as np

import gnmh
from gnmh.model import EXAMPLES
from gnmh.posterior import GaussianPrior

SEEDS = range(1, 6)
BURN, TIMED = 200, 2000

example = EXAMPLES["expseries"]
x0 = example["x0"]
prior = GaussianPrior.create(example["prior_mean"], np.reshape(example["prior_precision"], (4, 4)))


def overhead_us(k, seed):
    """(µs per transition outside model calls, model calls per transition,
    µs per drawn point outside model calls)."""
    handle = example["handle"]()
    sampler = gnmh.Sampler(x0, handle, seed=seed, prior=prior)
    sampler.set_static(k, 0.5)
    sampler.run_sample(BURN)
    in_model = [0.0]
    evaluate = handle.evaluate

    def timed_evaluate(x):
        t0 = time.perf_counter()
        try:
            return evaluate(x)
        finally:
            in_model[0] += time.perf_counter() - t0

    handle.evaluate = timed_evaluate
    calls0 = sampler.call_count
    t0 = time.perf_counter()
    sampler.run_sample(TIMED)
    wall = time.perf_counter() - t0
    calls = sampler.call_count - calls0
    outside_us = 1e6 * (wall - in_model[0])
    return outside_us / TIMED, calls / TIMED, outside_us / calls


# k=1 and k=5 run back to back for each seed, so a change in host speed
# during the script shifts both sides alike
runs = {1: [], 5: []}
for seed in SEEDS:
    for k in runs:
        runs[k].append(overhead_us(k, seed))
medians, point_medians = {}, {}
for k, results in runs.items():
    medians[k] = float(np.median([us for us, _, _ in results]))
    point_medians[k] = float(np.median([per_point for _, _, per_point in results]))
    per_seed = "  ".join(f"{us:6.0f} ({calls:.2f})" for us, calls, _ in results)
    print(f"static({k}, 0.5)  µs/transition outside model (model calls/transition) "
          f"by seed: {per_seed}  median {medians[k]:.0f}")
    per_seed = "  ".join(f"{per_point:6.0f}" for _, _, per_point in results)
    print(f"static({k}, 0.5)  µs/drawn point outside model by seed: {per_seed}  "
          f"median {point_medians[k]:.0f}")
print(f"k=5 / k=1 overhead per transition: {medians[5] / medians[1]:.2f}x")
print(f"k=5 / k=1 overhead per drawn point: {point_medians[5] / point_medians[1]:.2f}x")
