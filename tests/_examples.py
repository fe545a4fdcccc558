"""The CLI's prior of a bundled example, built from the registry
``gnmh.model.EXAMPLES`` as ``gnmh sample`` builds it."""

import numpy as np

from gnmh.model import EXAMPLES
from gnmh.posterior import GaussianPrior


def example_prior(name: str) -> GaussianPrior:
    example = EXAMPLES[name]
    return GaussianPrior.create(example["prior_mean"],
                                np.reshape(example["prior_precision"], (example["dim"],) * 2))
