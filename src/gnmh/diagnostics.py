"""Post-run chain analysis: marginal histograms with Poisson error bars,
integrated autocorrelation time and autocovariance curves."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyChain,
    LagTooLarge,
    NonConvergentWindow,
    SeriesTooShort,
    check_count,
    check_range,
    is_real,
)


@dataclass(frozen=True, eq=False)
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
    check_count("n_bins", n_bins, 1)
    d_min, d_max = check_range("histogram range", d_min, d_max)
    if d_min.shape[0] != chain.shape[1]:
        raise DimensionMismatch("range vectors must match the chain dimension")
    return chain, d_min, d_max


def _binned(columns: np.ndarray, n_bins: int, lo, hi):
    """Histogram of the rows of ``columns`` on an even grid of ``n_bins``
    bins per coordinate over [lo, hi]: the bin midpoints per coordinate,
    the density counts/(N*w_1*w_2*...) and the error bar sqrt(counts)/(same),
    with N the number of rows and w_k the bin widths."""
    counts, edges = np.histogramdd(columns, bins=n_bins, range=list(zip(lo, hi)))
    cell = columns.shape[0]
    for low, high in zip(lo, hi):
        cell = cell * ((high - low) / n_bins)
    centers = [0.5 * (e[:-1] + e[1:]) for e in edges]
    return centers, counts / cell, np.sqrt(counts) / cell


def error_bars(chain, n_bins: int, d_min, d_max) -> HistogramResult:
    """Bin each coordinate of the chain on an even grid.

    Counts c in a bin of width w give density c/(N*w) and error bar
    sqrt(c)/(N*w), with N the total number of rows. Samples outside
    [d_min, d_max] in a given coordinate are ignored for that coordinate.
    ``n_bins`` is an integer (numpy's too, not a bool) of at least 1, or
    ``ValueError`` names it. ``d_min`` and ``d_max`` need, in every
    coordinate, finite ends with d_min < d_max and a finite width, or
    ``ValueError`` names the histogram range.
    """
    chain, d_min, d_max = _histogram_inputs(chain, n_bins, d_min, d_max)
    n_dims = chain.shape[1]
    centers = np.empty((n_dims, n_bins))
    density = np.empty((n_dims, n_bins))
    err = np.empty((n_dims, n_bins))
    for j in range(n_dims):
        (centers[j],), density[j], err[j] = _binned(
            chain[:, j:j + 1], n_bins, d_min[j:j + 1], d_max[j:j + 1])
    return HistogramResult(centers=centers, density=density, err=err)


def error_bars_2d(chain, i: int, j: int, n_bins: int, d_min, d_max
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Joint histogram of coordinates (i, j) with the same error model.

    Returns (centers_i, centers_j, density, err) where the grids have length
    n_bins and the matrices have shape (n_bins, n_bins), row index along
    coordinate i. The inputs are checked as by :func:`error_bars`, and
    ``DimensionMismatch`` refuses an ``i`` or ``j`` that is not a coordinate
    index: an integer (numpy's too, not a bool) in ``[0, n_dims)``.
    """
    chain, d_min, d_max = _histogram_inputs(chain, n_bins, d_min, d_max)
    n_dims = chain.shape[1]
    for name, index in (("i", i), ("j", j)):
        if check_count(name, index, 0, DimensionMismatch) >= n_dims:
            raise DimensionMismatch(f"coordinate pair ({i}, {j}) out of range")
    pair = [i, j]
    (ci, cj), density, err = _binned(chain[:, pair], n_bins, d_min[pair], d_max[pair])
    return ci, cj, density, err


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

    The sums come from one FFT of the centered series, zero-padded to the
    smallest power of two L >= N + max_lag. The inverse transform of
    |X|^2 holds the circular sums, and at lag t the circular sum adds the
    wrapped products x_s x_{s+t-L}, which exist only for some s <= N - 1
    with s + t - L >= 0, that is for t >= L - N + 1 > max_lag: no returned
    lag wraps around. A lag window of a tenth of the series, as ``acor``
    takes, so pads to at most 2.2 N points rather than 2 N to 4 N.

    Raises
    ------
    ValueError
        If ``max_lag`` is negative or not an integer (numpy's are accepted,
        bools are not), an entry of the series is NaN or infinite (the
        message names the first such index), or the series' sums overflow
        float64, under any warning filter and with nothing printed.
    LagTooLarge
        If ``max_lag`` is not below the series length.
    """
    series = np.asarray(series, dtype=float).reshape(-1)
    n = series.shape[0]
    check_count("max_lag", max_lag, 0)
    if max_lag >= n:
        raise LagTooLarge(f"max_lag {max_lag} not below series length {n}")
    finite = np.isfinite(series)
    if not finite.all():
        at = int(np.argmin(finite))
        raise ValueError(f"series entry {at} is {series[at]}, not finite")
    size = 1
    while size < n + max_lag:
        size *= 2
    # a finite series can still overflow its mean or its sums of squares;
    # any such overflow leaves a non-finite lag, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum = np.fft.rfft(series - series.mean(), size)
        # |X|^2 into the spectrum's own buffer, not into a new array
        np.multiply(spectrum, spectrum.conj(), out=spectrum)
        raw = np.fft.irfft(spectrum, size)[: max_lag + 1]
    if not np.isfinite(raw).all():
        raise ValueError("the series' sums overflow float64")
    return raw / (n - np.arange(max_lag + 1))


def acor(series, k: int = 5) -> AcorResult:
    """Autocorrelation time via a self-consistent truncation window.

    tau = 1 + 2 * sum_{t=1..T} rho(t) with T the smallest lag satisfying
    T >= k * tau(T). A zero-variance series degenerates to tau 1, sigma 0.

    Raises
    ------
    ValueError
        If ``k`` is not a positive number (a bool is not one), or the series is refused as by
        :func:`autocovariance`: a NaN or infinite entry, named by its
        index, or sums that overflow float64.
    SeriesTooShort
        If the series has fewer than 100*k elements.
    NonConvergentWindow
        If no self-consistent window exists below a tenth of the length.
    """
    if not (is_real(k) and k > 0):
        raise ValueError(f"k must be positive, got {k!r}")
    series = np.asarray(series, dtype=float).reshape(-1)
    n = series.shape[0]
    if n < 100 * k:
        raise SeriesTooShort(f"need at least {100 * k} samples, got {n}")
    max_lag = n // 10
    cov = autocovariance(series, max_lag)
    mean = float(series.mean())  # finite: autocovariance refuses an overflowing sum
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
