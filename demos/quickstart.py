"""Sample a 1D double well and check the histogram against quadrature.

The model is f(x) = (x^2 - y) / sigma with a standard normal prior, so the
target density is exp(-x^2/2 - (x^2-y)^2 / (2 sigma^2)) up to a constant:
two wells near +/- sqrt(y). A run of the sampler should reproduce that shape.
"""

import numpy as np

import gnmh
from gnmh.diagnostics import quadrature_1d
from gnmh.model import EXAMPLES
from gnmh.posterior import GaussianPrior, log_posterior

# the bundled example as `gnmh sample --example quickstart` sets it up: the
# model (one call returns the indicator, the residual, and the Jacobian), the
# start and the prior
example = EXAMPLES["quickstart"]
handle = example["handle"]()
prior = GaussianPrior.create(example["prior_mean"], [example["prior_precision"]])

sampler = gnmh.Sampler(example["x0"], handle, seed=1, prior=prior)
sampler.set_dynamic(2)  # back off twice with cubic step-size control
sampler.run_sample(50_000)
sampler.burn(1000)

print(f"acceptance rate : {sampler.accept_rate:.3f}")
print(f"function calls  : {sampler.call_count}")
print(f"stage counts    : {sampler.step_count}")

# histogram with Poisson error bars
hist = gnmh.error_bars(sampler.chain, 100, [-3.0], [3.0])

# the 1D quadrature oracle for the same density
oracle = example["handle"]()


def log_density(x):
    return log_posterior(prior, oracle.evaluate([x]))


grid, density = quadrature_1d(log_density, -3.0, 3.0)
q_at_centers = np.interp(hist.centers[0], grid, density)

frac_within = np.mean(
    np.abs(hist.density[0] - q_at_centers) <= 3 * np.maximum(hist.err[0], 1e-12)
)
print(f"bins within 3 error bars of quadrature: {frac_within:.0%}")

out = np.column_stack([hist.centers[0], hist.density[0], hist.err[0], q_at_centers])
np.savetxt("quickstart_histogram.csv", out, delimiter=",",
           header="center,density,err,quadrature", comments="")
print("wrote quickstart_histogram.csv (plot density vs quadrature to compare)")
