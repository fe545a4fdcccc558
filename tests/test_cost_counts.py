"""The exact work per transition: whole-run counts of model calls, point
builds, kernel densities, dynamic dilation factors and exact back-off
acceptances on the bundled examples under each kind of back-off policy.

Each cell runs 1000 transitions at seed 1 and pins integer totals. While
chains stay bit-identical these counts move only when the code does more or
less work per transition, which wall time on a shared host cannot resolve.
A change that moves a count re-pins its cell and says why, with the counts
before and after; so does a rename of a counted name.

A back-off policy named without ``alpha`` runs the paper's kernel, mean
exponent 1; the ``alpha=2`` cells run the default kernel, whose deep stages
accept more often, so a transition spends fewer model calls.
"""

import sys

import numpy as np
import pytest

import gnmh.kernel
from gnmh.cli import exp_series_datagen
from gnmh.model import ModelHandle, exp_series_handle, quickstart_handle, simple2d_handle
from gnmh.posterior import GaussianPrior
from gnmh.sampler import Sampler

N_TRANSITIONS = 1000
SEED = 1

# The benchmark's examples (bench/worker.py's EXAMPLES and their handles),
# copied so that the counts here and the bench's describe the same chains:
# (handle builder, x0, prior mean, prior precision diagonal)
EXAMPLES = {
    "quickstart": (lambda: quickstart_handle(y=1.0, sigma=0.5), [0.5], [0.0], 1.0),
    "simple2d": (lambda: simple2d_handle(y=1.0, sigma=0.5), [1.0, 0.0], [0.0, 0.0], 1.0),
    "expseries": (lambda: exp_series_handle(exp_series_datagen(seed=14), n_terms=2),
                  [1.0, 2.5, 0.5, 3.1], [4.0, 2.0, 0.5, 1.0], 0.5),
}

POLICIES = {
    "none": lambda s: None,
    "static(4, 0.5)": lambda s: s.set_static(4, 0.5, alpha=1),
    "dynamic(4)": lambda s: s.set_dynamic(4, alpha=1),
    "static(4, 0.5, alpha=2)": lambda s: s.set_static(4, 0.5),
    "dynamic(4, alpha=2)": lambda s: s.set_dynamic(4),
}

COUNTED = ("model_calls", "point_builds", "log_density", "dynamic_gamma", "log_accept")

# (example, policy): whole-run totals over the transitions, in COUNTED's order
EXPECTED = {
    ("quickstart", "none"): (1000, 1000, 1000, 0, 0),
    ("quickstart", "static(4, 0.5)"): (1555, 1555, 3137, 0, 260),
    ("quickstart", "dynamic(4)"): (1593, 1593, 3215, 1814, 270),
    ("quickstart", "static(4, 0.5, alpha=2)"): (1371, 1371, 2505, 0, 280),
    ("quickstart", "dynamic(4, alpha=2)"): (1408, 1408, 2670, 1109, 253),
    ("simple2d", "none"): (1000, 1000, 1000, 0, 0),
    ("simple2d", "static(4, 0.5)"): (2322, 2322, 6520, 0, 532),
    ("simple2d", "dynamic(4)"): (2343, 2343, 6377, 4154, 500),
    ("simple2d", "static(4, 0.5, alpha=2)"): (2102, 2102, 5901, 0, 584),
    ("simple2d", "dynamic(4, alpha=2)"): (2185, 2185, 6252, 3471, 595),
    ("expseries", "none"): (1000, 1000, 1000, 0, 0),
    ("expseries", "static(4, 0.5)"): (2650, 2650, 5396, 0, 279),
    ("expseries", "dynamic(4)"): (2732, 2732, 5229, 5850, 192),
    ("expseries", "static(4, 0.5, alpha=2)"): (2006, 2006, 5440, 0, 600),
    ("expseries", "dynamic(4, alpha=2)"): (2109, 2109, 5721, 3222, 559),
}


def _sampler(example, policy):
    build, x0, mean, diag = EXAMPLES[example]
    prior = GaussianPrior.create(mean, diag * np.eye(len(mean)))
    sampler = Sampler(x0, build(), seed=SEED, prior=prior)
    POLICIES[policy](sampler)
    return sampler


@pytest.mark.parametrize("example,policy", sorted(EXPECTED))
def test_work_per_run(example, policy, monkeypatch):
    sampler = _sampler(example, policy)
    counts = dict.fromkeys(COUNTED, 0)

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    step_code = gnmh.kernel.step.__code__
    log_accept = gnmh.kernel._Transition.log_accept

    def step_log_accept(table, a, h):
        # step's own calls, not the recursion's or those through path
        if sys._getframe(1).f_code is step_code:
            counts["log_accept"] += 1
        return log_accept(table, a, h)

    monkeypatch.setattr(ModelHandle, "evaluate", counting("model_calls", ModelHandle.evaluate))
    for name, attr in [("point_builds", "point_state"), ("log_density", "_log_density"),
                       ("dynamic_gamma", "dynamic_gamma")]:
        monkeypatch.setattr(gnmh.kernel, attr, counting(name, getattr(gnmh.kernel, attr)))
    monkeypatch.setattr(gnmh.kernel._Transition, "log_accept", step_log_accept)
    sampler.run_sample(N_TRANSITIONS)
    assert tuple(counts[name] for name in COUNTED) == EXPECTED[example, policy]
    assert sampler.call_count == 1 + counts["model_calls"]


@pytest.mark.parametrize("policy", [p for p in POLICIES if p != "none"])
@pytest.mark.parametrize("example", sorted(EXAMPLES))
def test_no_kernel_density_computed_twice_in_a_transition(example, policy, monkeypatch):
    # the back-off table keeps every kernel density it computes, and step
    # seeds it with stage one's, so within one transition no density of one
    # point under one kernel at one anchor is computed again
    sampler = _sampler(example, policy)
    seen, repeats = set(), []
    step, log_density = gnmh.kernel.step, gnmh.kernel._log_density

    def one_transition(*args):
        seen.clear()
        return step(*args)

    def once(anchor, y, scale, log_norm, shrink):
        key = (id(anchor), id(y), scale, log_norm, shrink)
        if key in seen:
            repeats.append(key)
        seen.add(key)
        return log_density(anchor, y, scale, log_norm, shrink)

    monkeypatch.setattr(gnmh.kernel, "step", one_transition)
    monkeypatch.setattr(gnmh.kernel, "_log_density", once)
    sampler.run_sample(N_TRANSITIONS)
    assert len(repeats) == 0
