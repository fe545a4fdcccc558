"""Multivariate normal distributions stored in precision (inverse-covariance) form.

The proposal machinery mixes kernels with different precision matrices, so
log-densities must carry their exact normalization constants; nothing here
works with unnormalized densities. The sampler keeps each proposal in its
per-point record, ``posterior.PointState``: the factor L of the precision
from :func:`_factor`, and the whitened Gauss-Newton step v solved with
:func:`_solve_lower`, the proposal being N(x + L^-T v, (L L^T)^-1).
:class:`PrecisionGaussian` is a proposal in precision form, as an object,
for the tests and the benchmark's tracer.

The three routines used here, LAPACK ``dpotrf`` and ``dtrtrs`` and BLAS
``dsyrk``, are scipy's f2py bindings in its extension modules
``scipy.linalg._flapack`` and ``scipy.linalg._fblas``, the same objects
``scipy.linalg.lapack`` and ``scipy.linalg.blas`` export, so every result
bit is scipy's. :func:`_load_extension` loads each extension from
scipy's install directory without running scipy's package init or the
``scipy.linalg`` package's: the latter's start-up (array-API, f2py, testing
and masked-array modules) was more than half of importing gnmh, and the
former imports scipy's build configuration, its numpy-range check and its
test utilities, which import ``subprocess``. Each extension is registered
under its own name, so a later ``import scipy.linalg`` reuses it and
``scipy.linalg.lapack.dpotrf is dpotrf``. scipy's warning about an
unsupported numpy release appears only when the caller imports scipy.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import NamedTuple

import numpy as np


def _scipy_dirs() -> list[str]:
    """scipy's package directories, without importing scipy: the imported
    package's ``__path__`` if there is one, else where the import system
    would find it."""
    scipy = sys.modules.get("scipy")
    if scipy is not None:
        return list(scipy.__path__)
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy not found; gnmh requires scipy>=1.13", name="scipy")
    return list(spec.submodule_search_locations)


def _load_extension(name: str):
    """scipy's extension module ``scipy.linalg.<name>``: the loaded one if
    any, else loaded from scipy's ``linalg`` directory and registered in
    ``sys.modules`` under that name.

    Neither scipy's package init nor ``scipy.linalg``'s runs, unless the
    load fails while scipy is not imported: then scipy is imported, as its
    init may put the libraries its wheel bundles on the loader's path (a wheel
    repaired by delvewheel does), and the load is tried once more."""
    full_name = f"scipy.linalg.{name}"
    if full_name in sys.modules:
        return sys.modules[full_name]
    dirs = [os.path.join(p, "linalg") for p in _scipy_dirs()]
    spec = importlib.machinery.PathFinder.find_spec(full_name, dirs)
    if spec is None:
        raise ImportError(
            f"scipy's extension {name} not found in {dirs}; gnmh requires scipy>=1.13",
            name=full_name,
        )
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:
        if "scipy" in sys.modules:
            raise
        import scipy  # noqa: F401
        return _load_extension(name)
    sys.modules[full_name] = module
    return module


_flapack = _load_extension("_flapack")
dpotrf = _flapack.dpotrf
dtrtrs = _flapack.dtrtrs
dsyrk = _load_extension("_fblas").dsyrk

_LOG_2PI = float(np.log(2.0 * np.pi))


def _factor(precision: np.ndarray):
    """Cholesky factor L (L L^T = precision) and the log normalization
    constant 0.5*logdet(precision) - (n/2)*log(2*pi) of a symmetric matrix,
    or None if the matrix is not positive definite or the log-determinant is
    not finite (``dpotrf`` does not check for NaN or inf), so a returned
    log_norm is finite.

    No validation: internal callers pass a square 2-D float array whose
    lower triangle holds the symmetric matrix; the upper triangle is not
    read. The argument is consumed: an F-ordered one (any 1x1 array is) is
    factored in place, so a caller that reads its matrix again passes a
    copy. The factor comes from LAPACK ``dpotrf`` and is copied to C order,
    so :func:`_solve_lower` takes the same ``dtrtrs`` branch as for numpy's
    factor; for n <= 4 it equals ``np.linalg.cholesky`` bit for bit.
    """
    # positional flags (lower=1, clean=1, overwrite_a=1): keywords cost f2py
    # more than the call
    chol, info = dpotrf(precision, 1, 1, 1)
    if info != 0:
        return None
    chol = np.ascontiguousarray(chol)
    # a left-to-right sum of Python floats skips the set-up of numpy's
    # reduction and, for n <= 7, equals numpy's sum bit for bit; sum() is
    # not used, as Python 3.12 and later compensate its rounding
    log_det = 0.0
    for log_d in np.log(chol.diagonal()).tolist():
        log_det += log_d
    log_det *= 2.0
    if not math.isfinite(log_det):
        return None
    return chol, 0.5 * log_det - 0.5 * precision.shape[0] * _LOG_2PI


def _solve_lower(chol: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """Solve L u = b (``trans=0``) or L^T u = b (``trans=1``) for
    lower-triangular L, with LAPACK ``dtrtrs`` and no input validation.

    Dispatches on memory order exactly as ``scipy.linalg.solve_triangular``
    does, so the results are bit-identical to it: LAPACK wants Fortran order,
    so a C-ordered L is passed as the upper-triangular L^T with the
    transpose flag flipped.
    """
    # positional flags (lower, trans), as in _factor
    if chol.flags.f_contiguous:
        u, info = dtrtrs(chol, b, 1, trans)
    else:
        u, info = dtrtrs(chol.T, b, 0, 1 - trans)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (dtrtrs info {info})")
    return u


class PrecisionGaussian(NamedTuple):
    """An n-dimensional normal N(mean, precision^-1), as an immutable tuple
    of its four fields.

    The sampler builds none: its record of a proposal, in
    ``posterior.PointState``, is the point x, the factor L and the whitened
    step v, from which the mean is x + L^-T v and the precision L L^T. This
    class is the tests' reference form, whose ``@``-based :meth:`log_pdf`,
    :meth:`sample` and :meth:`dilate` are independent of the kernel's
    arithmetic. The class,
    ``kernel.accept_prob`` and the ``gnmh.PrecisionGaussian`` import stay
    in the library only because the benchmark's tracer wraps them. Nothing
    here checks its inputs: ``x``, ``std_normals`` and ``center`` must be
    1-D of length n, and ``gamma`` positive.

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

    def log_pdf(self, x) -> float:
        """Exact log-density at ``x``, normalization included."""
        d = x - self.mean
        return self.log_norm - 0.5 * float(d @ self.precision @ d)

    def sample(self, std_normals) -> np.ndarray:
        """Map injected iid N(0,1) draws to a draw from this distribution.

        Solves L^T u = std_normals so the output mean + u has covariance
        precision^-1. Deterministic given ``std_normals``; the random
        generator lives with the caller.
        """
        return self.mean + _solve_lower(self.chol, std_normals, trans=1)

    def dilate(self, center, gamma: float) -> "PrecisionGaussian":
        """Contract the distribution toward ``center`` by factor ``gamma``.

        The mean moves to center + gamma*(mean - center) and the covariance
        shrinks by gamma^2 (precision grows by 1/gamma^2). gamma=1 is the
        identity; the composition law
        dilate(dilate(g, c, a), c, b) == dilate(g, c, a*b) holds exactly.
        """
        # chol(P/g^2) = L/g and logdet(P/g^2) = logdet(P) - 2n*log(g), so no
        # fresh factorization is needed
        return PrecisionGaussian(
            mean=center + gamma * (self.mean - center),
            precision=self.precision / (gamma * gamma),
            chol=self.chol / gamma,
            log_norm=self.log_norm - len(self.mean) * np.log(gamma),
        )
