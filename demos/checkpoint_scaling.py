"""How checkpoint costs grow with the chain: bytes on disk and milliseconds
per save and load, for quickstart chains of 10k, 100k and 1M rows.

For each size a fresh chain is sampled; then, on one checkpoint path, the
script times the first save (the whole chain), a save with no new rows, a
save after 1% more rows, and a load. Each of the last three is the median
of three. Only the public API is used, so the same script measures any
version of the checkpoint format.

Run from the repository root (sampling 1M rows takes about a minute):

    PYTHONPATH=src python demos/checkpoint_scaling.py
    PYTHONPATH=src python demos/checkpoint_scaling.py --sizes 10000 100000
"""

import argparse
import os
import statistics
import tempfile
import time

import gnmh
from gnmh.model import EXAMPLES
from gnmh.posterior import GaussianPrior

# the bundled example as `gnmh sample --example quickstart` sets it up
example = EXAMPLES["quickstart"]

REPEATS = 3


def ms(action) -> float:
    start = time.perf_counter()
    action()
    return 1e3 * (time.perf_counter() - start)


def measure(rows: int) -> tuple:
    """(bytes on disk, first save, save with no new rows, save after 1% more
    rows, load), times in ms."""
    sampler = gnmh.Sampler(example["x0"], example["handle"](), seed=rows,
                           prior=GaussianPrior.create(example["prior_mean"],
                                                      [example["prior_precision"]]))
    sampler.run_sample(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.ckpt")
        first = ms(lambda: sampler.save_checkpoint(path))
        size = sum(os.path.getsize(os.path.join(tmp, name)) for name in os.listdir(tmp))
        unchanged = statistics.median(
            ms(lambda: sampler.save_checkpoint(path)) for _ in range(REPEATS))
        loads = []
        for _ in range(REPEATS):
            handle = example["handle"]()
            loads.append(ms(lambda: gnmh.Sampler.load_checkpoint(path, handle)))
        appends = []
        for _ in range(REPEATS):
            sampler.run_sample(max(1, rows // 100))
            appends.append(ms(lambda: sampler.save_checkpoint(path)))
        loaded = gnmh.Sampler.load_checkpoint(path, example["handle"]())
        assert (loaded.chain == sampler.chain).all()
    return size, first, unchanged, statistics.median(appends), statistics.median(loads)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[10_000, 100_000, 1_000_000],
                        help="chain lengths in rows")
    sizes = parser.parse_args().sizes
    print(f"{'rows':>9} {'disk MB':>8} {'first save ms':>14} {'no new rows ms':>15} "
          f"{'+1% rows ms':>12} {'load ms':>9}", flush=True)
    for rows in sizes:
        size, first, unchanged, append, load = measure(rows)
        print(f"{rows:>9} {size / 1e6:>8.2f} {first:>14.1f} {unchanged:>15.2f} "
              f"{append:>12.2f} {load:>9.1f}", flush=True)


if __name__ == "__main__":
    main()
