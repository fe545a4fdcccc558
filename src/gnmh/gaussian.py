"""Multivariate normal distributions stored in precision (inverse-covariance) form.

The proposal machinery mixes kernels with different precision matrices, so
log-densities must carry their exact normalization constants; nothing here
works with unnormalized densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

from .errors import DimensionMismatch, InvalidDilation, NotPositiveDefinite

_LOG_2PI = float(np.log(2.0 * np.pi))


def _factor(precision: np.ndarray):
    """Cholesky factor L (L L^T = precision) and the log normalization
    constant 0.5*logdet(precision) - (n/2)*log(2*pi) of a symmetric matrix.

    No validation: internal callers pass a square, exactly symmetric 2-D
    float array, and only its lower triangle is read. The factor comes from
    LAPACK ``dpotrf`` and is copied to C order, so :func:`_solve_lower`
    takes the same ``dtrtrs`` branch as for numpy's factor; for n <= 4 it
    equals ``np.linalg.cholesky`` bit for bit.

    Raises
    ------
    NotPositiveDefinite
        If the factorization fails, or the log-determinant is not finite:
        a NaN or infinite entry in the lower triangle leads to one or the
        other, so a returned log_norm is finite.
    """
    chol, info = dpotrf(precision, lower=1, clean=1)
    if info != 0:
        raise NotPositiveDefinite(f"matrix is not positive definite (dpotrf info {info})")
    chol = np.ascontiguousarray(chol)
    log_det = 2.0 * float(np.log(chol.diagonal()).sum())
    if not math.isfinite(log_det):
        # dpotrf does not check for NaN or inf
        raise NotPositiveDefinite("matrix has a non-finite entry")
    return chol, 0.5 * log_det - 0.5 * precision.shape[0] * _LOG_2PI


def _solve_lower(chol: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """Solve L u = b (``trans=0``) or L^T u = b (``trans=1``) for
    lower-triangular L, with LAPACK ``dtrtrs`` and no input validation.

    Dispatches on memory order exactly as ``scipy.linalg.solve_triangular``
    does, so the results are bit-identical to it: LAPACK wants Fortran order,
    so a C-ordered L is passed as the upper-triangular L^T with the
    transpose flag flipped.
    """
    if chol.flags.f_contiguous:
        u, info = dtrtrs(chol, b, lower=1, trans=trans)
    else:
        u, info = dtrtrs(chol.T, b, lower=0, trans=1 - trans)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (dtrtrs info {info})")
    return u


@dataclass(frozen=True)
class PrecisionGaussian:
    """An n-dimensional normal N(mean, precision^-1).

    Attributes
    ----------
    mean : ndarray, shape (n,)
    precision : ndarray, shape (n, n)
        Symmetric positive definite.
    chol : ndarray, shape (n, n)
        Lower-triangular L with L L^T = precision.
    log_norm : float
        log of the density's normalization constant,
        0.5*logdet(precision) - (n/2)*log(2*pi).
    """

    mean: np.ndarray
    precision: np.ndarray
    chol: np.ndarray
    log_norm: float

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def from_precision(cls, mean, precision) -> "PrecisionGaussian":
        """Build the distribution, factoring the precision matrix once.

        ``precision`` must be square and symmetric to within 1e-10; it is
        symmetrized as (P + P^T)/2 before factoring.

        Raises
        ------
        NotPositiveDefinite
            If the Cholesky factorization fails.
        """
        mean = np.asarray(mean, dtype=float).reshape(-1)
        precision = np.asarray(precision, dtype=float)
        n = mean.shape[0]
        if precision.shape != (n, n):
            raise DimensionMismatch(
                f"precision shape {precision.shape} does not match mean length {n}"
            )
        if not np.allclose(precision, precision.T, rtol=1e-10, atol=1e-10):
            raise ValueError("precision matrix is not symmetric")
        precision = 0.5 * (precision + precision.T)
        chol, log_norm = _factor(precision)
        return cls(mean=mean, precision=precision, chol=chol, log_norm=log_norm)

    def log_pdf(self, x) -> float:
        """Exact log-density at ``x``, normalization included."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape != self.mean.shape:
            raise DimensionMismatch(
                f"point length {x.shape[0]} does not match dimension {self.dim}"
            )
        d = x - self.mean
        return self.log_norm - 0.5 * float(d @ self.precision @ d)

    def sample(self, std_normals) -> np.ndarray:
        """Map injected iid N(0,1) draws to a draw from this distribution.

        Solves L^T u = std_normals so the output mean + u has covariance
        precision^-1. Deterministic given ``std_normals``; the random
        generator lives with the caller.
        """
        z = np.asarray(std_normals, dtype=float).reshape(-1)
        if z.shape != self.mean.shape:
            raise DimensionMismatch(
                f"got {z.shape[0]} normals for dimension {self.dim}"
            )
        return self.mean + _solve_lower(self.chol, z, trans=1)

    def dilate(self, center, gamma: float) -> "PrecisionGaussian":
        """Contract the distribution toward ``center`` by factor ``gamma``.

        The mean moves to center + gamma*(mean - center) and the covariance
        shrinks by gamma^2 (precision grows by 1/gamma^2). gamma=1 is the
        identity; the composition law
        dilate(dilate(g, c, a), c, b) == dilate(g, c, a*b) holds exactly.
        """
        if gamma <= 0.0:
            raise InvalidDilation(f"dilation factor must be positive, got {gamma}")
        center = np.asarray(center, dtype=float).reshape(-1)
        if center.shape != self.mean.shape:
            raise DimensionMismatch(
                f"center length {center.shape[0]} does not match dimension {self.dim}"
            )
        # chol(P/g^2) = L/g and logdet(P/g^2) = logdet(P) - 2n*log(g), so no
        # fresh factorization is needed
        return PrecisionGaussian(
            mean=center + gamma * (self.mean - center),
            precision=self.precision / (gamma * gamma),
            chol=self.chol / gamma,
            log_norm=self.log_norm - self.dim * np.log(gamma),
        )
