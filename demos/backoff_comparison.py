"""Compare back-off strategies on the exponential time-series problem.

Fitting g(t) = w1 exp(-r1 t) + w2 exp(-r2 t) to noisy data gives a curved,
multimodal posterior where plain Gauss-Newton proposals are often rejected.
Backing off (re-proposing from a contracted kernel inside the same
transition) raises the acceptance rate substantially; the dilation factor
can be fixed (static) or chosen per rejection by cubic interpolation of the
squared-residual profile (dynamic).

Each back-off policy runs twice: with the paper's kernel, whose mean moves
toward the current point as the dilation s (alpha = 1), and with the
default one, whose mean moves as s^2 (alpha = 2).
"""

import numpy as np

import gnmh
from gnmh.cli import exp_series_datagen
from gnmh.posterior import GaussianPrior

args = exp_series_datagen(seed=14)
prior_mean = np.array([4.0, 2.0, 0.5, 1.0])
prior = GaussianPrior.create(prior_mean, 0.5 * np.eye(4))

POLICIES = [("no back-off", lambda s: None)] + [
    (f"{name} a={alpha}", configure)
    for alpha in (1, 2)
    for name, configure in [
        ("static(1, 0.1)", lambda s, a=alpha: s.set_static(1, 0.1, alpha=a)),
        ("static(2, 0.1)", lambda s, a=alpha: s.set_static(2, 0.1, alpha=a)),
        ("dynamic(1)", lambda s, a=alpha: s.set_dynamic(1, alpha=a)),
    ]
]

print(f"{'policy':<20}{'accept':>8}{'calls':>9}{'tau(w1)':>9}{'ESS(w1)':>9}")
for name, configure in POLICIES:
    sampler = gnmh.Sampler(prior_mean, gnmh.exp_series_handle(args), seed=3,
                           prior=prior)
    configure(sampler)
    sampler.run_sample(20_000)
    try:
        tau = gnmh.acor(sampler.chain[:, 0]).tau
        ess = sampler.n_samples / tau
        tau_s, ess_s = f"{tau:9.1f}", f"{ess:9.0f}"
    except gnmh.errors.GnmhError:
        tau_s = ess_s = "        -"
    print(f"{name:<20}{sampler.accept_rate:8.3f}{sampler.call_count:9d}{tau_s}{ess_s}")

print()
print("fractions accepted at each stage (dynamic(1) run shown; -1 = rejected):")
sampler = gnmh.Sampler(prior_mean, gnmh.exp_series_handle(args), seed=3, prior=prior)
sampler.set_dynamic(1)
sampler.run_sample(20_000)
counts = sampler.step_count
for stage, count in counts.items():
    print(f"  stage {stage:>2}: {count / sum(counts.values()):.1%}")
