"""Post-run chain analysis: marginal histograms with Poisson error bars,
integrated autocorrelation time, autocovariance curves, and per-stage
acceptance fractions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyChain,
    LagTooLarge,
    NonConvergentWindow,
    SeriesTooShort,
)


@dataclass(frozen=True)
class HistogramResult:
    """Per-dimension marginal histograms of a chain.

    All three arrays have shape (n_dims, n_bins): bin midpoints, estimated
    marginal density, and one-sigma Poisson error bars. Each dimension's
    densities sum (times the bin width) to the fraction of samples whose
    coordinate fell inside that dimension's range.
    """

    centers: np.ndarray
    density: np.ndarray
    err: np.ndarray


def _histogram_inputs(chain, n_bins: int, d_min, d_max):
    """The chain as a 2-D float array (a 1-D chain is one coordinate) and
    the range vectors as 1-D float arrays, checked for both histograms."""
    chain = np.asarray(chain, dtype=float)
    if chain.ndim == 1:
        chain = chain[:, None]
    if chain.shape[0] == 0:
        raise EmptyChain("cannot histogram an empty chain")
    if n_bins < 1:
        raise ValueError("n_bins must be at least 1")
    d_min = np.asarray(d_min, dtype=float).reshape(-1)
    d_max = np.asarray(d_max, dtype=float).reshape(-1)
    if d_min.shape[0] != chain.shape[1] or d_max.shape[0] != chain.shape[1]:
        raise DimensionMismatch("range vectors must match the chain dimension")
    if not np.all(d_min < d_max):
        raise ValueError("need d_min < d_max componentwise")
    return chain, d_min, d_max


def error_bars(chain, n_bins: int, d_min, d_max) -> HistogramResult:
    """Bin each coordinate of the chain on an even grid.

    Counts c in a bin of width w give density c/(N*w) and error bar
    sqrt(c)/(N*w), with N the total number of rows. Samples outside
    [d_min, d_max] in a given coordinate are ignored for that coordinate.
    """
    chain, d_min, d_max = _histogram_inputs(chain, n_bins, d_min, d_max)
    n_samples, n_dims = chain.shape
    centers = np.empty((n_dims, n_bins))
    density = np.empty((n_dims, n_bins))
    err = np.empty((n_dims, n_bins))
    for j in range(n_dims):
        width = (d_max[j] - d_min[j]) / n_bins
        counts, edges = np.histogram(chain[:, j], bins=n_bins, range=(d_min[j], d_max[j]))
        centers[j] = 0.5 * (edges[:-1] + edges[1:])
        density[j] = counts / (n_samples * width)
        err[j] = np.sqrt(counts) / (n_samples * width)
    return HistogramResult(centers=centers, density=density, err=err)


def error_bars_2d(chain, i: int, j: int, n_bins: int, d_min, d_max
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Joint histogram of coordinates (i, j) with the same error model.

    Returns (centers_i, centers_j, density, err) where the grids have length
    n_bins and the matrices have shape (n_bins, n_bins), row index along
    coordinate i. The inputs are checked as by :func:`error_bars`.
    """
    chain, d_min, d_max = _histogram_inputs(chain, n_bins, d_min, d_max)
    n_samples, n_dims = chain.shape
    if not (0 <= i < n_dims and 0 <= j < n_dims):
        raise DimensionMismatch(f"coordinate pair ({i}, {j}) out of range")
    counts, ei, ej = np.histogram2d(
        chain[:, i], chain[:, j], bins=n_bins,
        range=[(d_min[i], d_max[i]), (d_min[j], d_max[j])],
    )
    wi = (d_max[i] - d_min[i]) / n_bins
    wj = (d_max[j] - d_min[j]) / n_bins
    density = counts / (n_samples * wi * wj)
    err = np.sqrt(counts) / (n_samples * wi * wj)
    return 0.5 * (ei[:-1] + ei[1:]), 0.5 * (ej[:-1] + ej[1:]), density, err


@dataclass(frozen=True)
class AcorResult:
    """Integrated autocorrelation time of a scalar series, with the series
    mean and the autocorrelation-corrected standard error of that mean."""

    tau: float
    mean: float
    sigma: float


def autocovariance(series, max_lag: int) -> np.ndarray:
    """Empirical autocovariance C(t) for t = 0..max_lag.

    C(t) = sum((x_s - xbar)(x_{s+t} - xbar)) / (N - t).
    """
    series = np.asarray(series, dtype=float).reshape(-1)
    n = series.shape[0]
    if max_lag >= n:
        raise LagTooLarge(f"max_lag {max_lag} not below series length {n}")
    return _autocov_fft(series, max_lag)


def _autocov_fft(series: np.ndarray, max_lag: int) -> np.ndarray:
    n = series.shape[0]
    centered = series - series.mean()
    size = 1
    while size < 2 * n:
        size *= 2
    spectrum = np.fft.rfft(centered, size)
    raw = np.fft.irfft(spectrum * np.conj(spectrum), size)[: max_lag + 1]
    return raw / (n - np.arange(max_lag + 1))


def acor(series, k: int = 5) -> AcorResult:
    """Autocorrelation time via a self-consistent truncation window.

    tau = 1 + 2 * sum_{t=1..T} rho(t) with T the smallest lag satisfying
    T >= k * tau(T). A zero-variance series degenerates to tau 1, sigma 0.

    Raises
    ------
    SeriesTooShort
        If the series has fewer than 100*k elements.
    NonConvergentWindow
        If no self-consistent window exists below a tenth of the length.
    """
    series = np.asarray(series, dtype=float).reshape(-1)
    n = series.shape[0]
    if n < 100 * k:
        raise SeriesTooShort(f"need at least {100 * k} samples, got {n}")
    mean = float(series.mean())
    max_lag = n // 10
    cov = _autocov_fft(series, max_lag)
    var = cov[0]
    if var == 0.0:
        return AcorResult(tau=1.0, mean=mean, sigma=0.0)
    rho = cov / var

    taus = 1.0 + 2.0 * np.cumsum(rho[1:])
    windows = np.arange(1, max_lag + 1)
    hits = np.nonzero(windows >= k * taus)[0]
    if hits.size == 0:
        raise NonConvergentWindow(
            f"no window T <= {max_lag} satisfies T >= {k}*tau(T)"
        )
    tau = max(float(taus[hits[0]]), 1.0)
    sigma = float(np.sqrt(tau * var / n))
    return AcorResult(tau=tau, mean=mean, sigma=sigma)


def step_percentages(step_count: Dict[int, int]) -> Dict[int, float]:
    """Fraction of transitions resolved at each stage (-1 is rejection).

    Fractions sum to 1. An all-zero count map returns an empty dict.
    """
    total = sum(step_count.values())
    if total == 0:
        return {}
    return {stage: count / total for stage, count in step_count.items()}
