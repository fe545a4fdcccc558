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
from gnmh.posterior import GaussianPrior

prior = GaussianPrior.create([0.0], [[1.0]])


def fresh_sampler():
    s = gnmh.Sampler([0.5], gnmh.quickstart_handle(), seed=99, prior=prior)
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
    resumed = gnmh.Sampler.load_checkpoint(path, gnmh.quickstart_handle())
    print(f"loaded checkpoint: {resumed.n_samples} samples, "
          f"call_count={resumed.call_count}")
    resumed.run_sample(3500, divs=7, safe=path)

identical = np.array_equal(reference.chain, resumed.chain)
print(f"resumed chain identical to uninterrupted run: {identical}")
print(f"counters identical: "
      f"{reference.step_count == resumed.step_count and reference.call_count == resumed.call_count}")
assert identical
