"""Posterior inference for an exponential decay series, end to end.

Generates synthetic data from known parameters, samples the posterior, and
reports per-parameter estimates with autocorrelation-corrected error bars
plus a 2D marginal grid for the (w1, r1) pair.
"""

import numpy as np

import gnmh
from gnmh.cli import exp_series_datagen
from gnmh.posterior import GaussianPrior

TRUE = [1.0, 2.5, 0.5, 3.1]  # (w1, w2, r1, r2)
args = exp_series_datagen(seed=14)
print("synthetic data:", np.round(args.data, 3))

prior_mean = np.array([4.0, 2.0, 0.5, 1.0])
sampler = gnmh.Sampler(prior_mean, gnmh.exp_series_handle(args), seed=3,
                       prior=GaussianPrior.create(prior_mean, 0.5 * np.eye(4)))
sampler.set_dynamic(2)
sampler.run_sample(50_000, divs=5, visual=True)
sampler.burn(2000)

names = ["w1", "w2", "r1", "r2"]
print(f"\n{'param':<6}{'true':>7}{'mean':>9}{'std err':>10}{'tau':>8}")
for j, name in enumerate(names):
    res = gnmh.acor(sampler.chain[:, j])
    print(f"{name:<6}{TRUE[j]:7.2f}{res.mean:9.3f}{res.sigma:10.4f}{res.tau:8.1f}")

# note: with two decay terms the posterior has a label-swapped twin mode, so
# chain means can sit between the truth and the swap; the marginal grid
# makes that structure visible
ci, cj, density, err = gnmh.error_bars_2d(
    sampler.chain, 0, 2, 40, [0.0, 0.0, 0.0, 0.0], [5.0, 5.0, 5.0, 5.0]
)
rows = [(ci[a], cj[b], density[a, b], err[a, b])
        for a in range(40) for b in range(40)]
np.savetxt("exp_series_marginal_w1_r1.csv", rows, delimiter=",",
           header="w1,r1,density,err", comments="")
print("\nwrote exp_series_marginal_w1_r1.csv (40x40 joint histogram grid)")
