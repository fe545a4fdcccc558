"""Safe-mode sampling: crash mid-run, resume, and get the identical chain.

With ``safe=path`` the sampler writes an atomic checkpoint after every
division. Loading the file restores the chain, the counters, the policy,
the prior, and the exact generator state, so the resumed run is
bit-identical to one that never stopped.
"""

import os
import tempfile

import numpy as np

import gnmh
from gnmh.model import EXAMPLES
from gnmh.posterior import GaussianPrior

# the bundled example as `gnmh sample --example quickstart` sets it up
example = EXAMPLES["quickstart"]
prior = GaussianPrior.create(example["prior_mean"], [example["prior_precision"]])


def fresh_sampler():
    s = gnmh.Sampler(example["x0"], example["handle"](), seed=99, prior=prior)
    s.set_static(1, 0.3)
    return s


# the reference: one uninterrupted run of 5000 samples in 10 divisions
reference = fresh_sampler()
reference.run_sample(5000, divs=10)

# the checkpoint lives in a directory that is removed at the end
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "chain_state.ckpt")

    # the "crashed" run: only 3 of the 10 divisions complete before the
    # process dies, but each division saved a checkpoint
    crashed = fresh_sampler()
    crashed.run_sample(1500, divs=3, safe=path)
    print(f"crashed after {crashed.n_samples} samples; checkpoint on disk")

    # resume from the file and finish the remaining divisions
    resumed = gnmh.Sampler.load_checkpoint(path, example["handle"]())
    print(f"loaded checkpoint: {resumed.n_samples} samples, "
          f"call_count={resumed.call_count}")
    resumed.run_sample(3500, divs=7, safe=path)

identical = np.array_equal(reference.chain, resumed.chain)
print(f"resumed chain identical to uninterrupted run: {identical}")
# the runs' reports: counts, acceptance rate, calls, stage counts, tau and ESS
print(f"counters identical: {reference.summary() == resumed.summary()}")
assert identical
