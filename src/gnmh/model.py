"""User-model contract and the bundled example models.

A model is a callable ``fn(x, args) -> (inside, residual, jacobian)`` where
``inside`` says whether the point is in the model's domain, ``residual`` is
f(x) of length m, and ``jacobian`` is the m-by-n matrix of partials
df_i/dx_j, of exactly that shape. The sampler targets densities proportional
to ``indicator(x) * prior(x) * exp(-||f(x)||^2 / 2)``.

In the domain the outputs must be numbers. When the sampler builds its
state at a point (``posterior.point_state``), a NaN in the residual, or a
Jacobian J whose J'J is not finite (a NaN or infinite entry, or an
overflow), raises ``UserFunctionFailure`` naming that point; a residual of
+-inf is zero density there, and the point is rejected, as is a residual
whose ||f||^2 overflows, under any warning filter. ``ModelHandle.evaluate``
itself checks shapes and types only (a transposed or flattened Jacobian is
refused), and also names the point. It copies both outputs, so a model may
fill and return the same buffers on every call.

``EXAMPLES`` registers the bundled examples that the CLI runs, and
``exp_series_datagen`` builds the decay series' data set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from .errors import DimensionMismatch, UserFunctionFailure, check_count, check_finite, is_real

_FLOAT64 = np.dtype(np.float64)


@dataclass(slots=True)
class ModelEval:
    """Result of one model-function call at the 1-D float64 point ``x``.

    ``residual_sq`` is ||f(x)||^2, formed once per call: inf when it
    overflows, under any warning filter, and inf outside the domain. When
    ``inside`` is False the point is outside the model's domain and
    ``residual``/``jacobian`` are None; callers must not read them.
    """

    x: np.ndarray
    inside: bool
    residual: Optional[np.ndarray]
    jacobian: Optional[np.ndarray]
    residual_sq: float


class ModelHandle:
    """Wraps a user model function, validating shapes and counting calls.

    Parameters
    ----------
    fn : callable
        ``fn(x, args) -> (inside, residual, jacobian)``. ``inside`` may be
        a bool or a number (0 means outside, anything else inside).
    args : object
        Opaque argument bundle forwarded to ``fn`` on every call.
    dim_in : int
        Parameter dimension n, an integer (numpy's too, not a bool) of at
        least 1, or ``ValueError`` names it.

    The residual dimension m, ``dim_out``, is None until the first in-domain
    evaluation sets it; a later residual of another length is an error.
    """

    def __init__(self, fn: Callable, args: Any, dim_in: int):
        self.fn = fn
        self.args = args
        self.dim_in = check_count("dim_in", dim_in, 1)
        self.dim_out: Optional[int] = None
        self.call_count = 0

    def evaluate(self, x) -> ModelEval:
        """Call the model once at ``x`` and copy its outputs to dense float64
        arrays that no later call can change. ``x`` is coerced to the 1-D
        float64 array that ``ModelEval.x`` holds, unless it is one already.

        Raises
        ------
        DimensionMismatch
            If ``x`` or the residual has another length than before, or the
            Jacobian's shape is not (m, n). The message names x.
        UserFunctionFailure
            Wrapping any exception raised by the user function, or a return
            value that is not a triple of a truth value and two numeric
            arrays. The message names x.
        """
        if type(x) is not np.ndarray or x.dtype is not _FLOAT64 or x.ndim != 1:
            x = np.asarray(x, dtype=float).reshape(-1)
        n = self.dim_in
        if x.shape[0] != n:
            raise DimensionMismatch(f"point x = {x.tolist()} has length {x.shape[0]}, "
                                    f"model expects {n}")
        self.call_count += 1
        try:
            out = self.fn(x, self.args)
        except Exception as exc:
            raise UserFunctionFailure(f"model function raised at x = {x.tolist()}: "
                                      f"{exc!r}") from exc
        try:
            inside, residual, jacobian = out
            if not inside:
                return ModelEval(x, False, None, None, math.inf)
            residual = np.array(residual, dtype=float)
            jacobian = np.array(jacobian, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise UserFunctionFailure(f"model output at x = {x.tolist()} is not a truth value "
                                      f"and two numeric arrays: {exc!r}") from exc
        if residual.ndim != 1:
            residual = residual.reshape(-1)
        m = residual.shape[0]
        if m != self.dim_out and self.dim_out is not None:
            raise DimensionMismatch(f"residual at x = {x.tolist()} has length {m}, "
                                    f"earlier calls returned {self.dim_out}")
        if jacobian.shape != (m, n):
            raise DimensionMismatch(f"jacobian at x = {x.tolist()} has shape "
                                    f"{jacobian.shape}, expected ({m}, {n})")
        self.dim_out = m
        try:
            residual_sq = float(residual.dot(residual))
        except RuntimeWarning:  # an overflow under an "error" warning filter
            residual_sq = math.inf
        return ModelEval(x, True, residual, jacobian, residual_sq)


# ---------------------------------------------------------------------------
# Bundled example models
# ---------------------------------------------------------------------------


def quickstart_model(x, args):
    """1D double well: f(x) = (x^2 - y) / sigma, f'(x) = 2x / sigma."""
    y = args["y"]
    sigma = args["sigma"]
    x0 = float(x[0])  # a Python float overflows to inf without a warning
    f = (x0 * x0 - y) / sigma
    df = 2.0 * x0 / sigma
    return True, [f], [[df]]


def simple2d_model(x, args):
    """Ring in the plane: one residual (x1^2 + x2^2 - y) / sigma."""
    y = args["y"]
    sigma = args["sigma"]
    x0, x1 = float(x[0]), float(x[1])  # a Python float overflows to inf without a warning
    f = (x0 * x0 + x1 * x1 - y) / sigma
    return True, [f], [[2.0 * x0 / sigma, 2.0 * x1 / sigma]]


class _TermTiles(dict):
    """The contiguous -t and 1/noise_sd tiles of one ``ExpSeriesArgs``, keyed
    by the term count d: (m, d) and (m, 2d), read-only, built on first use."""

    __slots__ = ("neg_times", "inv_sd")

    def __init__(self, neg_times: np.ndarray, inv_sd: np.ndarray):
        super().__init__()
        self.neg_times = neg_times
        self.inv_sd = inv_sd

    def __missing__(self, d: int):
        tiles = np.repeat(self.neg_times, d, axis=1), np.repeat(self.inv_sd[:, None], 2 * d, axis=1)
        for tile in tiles:
            tile.flags.writeable = False
        self[d] = tiles
        return tiles


@dataclass(frozen=True, eq=False)
class ExpSeriesArgs:
    """Data bundle for the exponential-decay time-series model.

    ``times``, ``data`` and ``noise_sd`` all have length m and finite
    entries, or ``ValueError`` names the field; every noise standard
    deviation must be positive, with a finite reciprocal. The fields are
    read once, at construction, into read-only float64 copies, beside the
    column -t and 1/noise_sd that every model call uses; the class is
    frozen, so none can go stale. For each term count d the model meets, an
    (m, d) tile of -t and an (m, 2d) tile of 1/noise_sd are built once, on
    the first call, and kept read-only in a private cache that is not a
    field. Copies and pickles are rebuilt by the constructor from the three
    inputs, so they hold read-only fields and a cache of their own.
    """

    times: np.ndarray
    data: np.ndarray
    noise_sd: np.ndarray
    neg_times: np.ndarray = field(init=False, repr=False, compare=False)
    inv_sd: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        times, data, noise_sd = (np.array(v, dtype=float).reshape(-1)
                                 for v in (self.times, self.data, self.noise_sd))
        if not data.shape == noise_sd.shape == times.shape:
            raise DimensionMismatch("times, data and noise_sd must share a length")
        for name, value in (("times", times), ("data", data), ("noise_sd", noise_sd)):
            check_finite(name, value)
        if np.any(noise_sd <= 0.0):
            raise ValueError("noise_sd must be strictly positive")
        with np.errstate(over="ignore"):  # refused below, under any warning filter
            inv_sd = 1.0 / noise_sd
        if not np.all(inv_sd < np.inf):
            raise ValueError("noise_sd has an entry whose reciprocal overflows")
        neg_times = -times[:, None]
        for name, value in (("times", times), ("data", data), ("noise_sd", noise_sd),
                            ("neg_times", neg_times), ("inv_sd", inv_sd)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_tiles", _TermTiles(neg_times, inv_sd))

    def __reduce__(self):
        return type(self), (self.times, self.data, self.noise_sd)


def exp_series_model(x, args: ExpSeriesArgs):
    """Sum-of-decaying-exponentials fit.

    The parameter vector is x = (w_1..w_d, rate_1..rate_d) and the curve is
    g(t) = sum_i w_i * exp(-rate_i * t). Residual k is
    (g(t_k) - data_k) / noise_sd_k; the Jacobian is analytic:
    d/dw_i = exp(-rate_i t_k) / sd_k and
    d/drate_i = -w_i t_k exp(-rate_i t_k) / sd_k.
    -t and 1/sd are read from ``args``, which built their (m, d) and (m, 2d)
    tiles once for this d, so no call broadcasts a column. Each output entry
    multiplies the same operands in the same order as that formula, so the
    outputs equal it bit for bit.
    """
    d = x.shape[0] // 2
    w = x[:d]
    neg_t, inv_sd = args._tiles[d]
    decay = np.exp(args.neg_times.dot(x[None, d:]))  # (m, d): the k = 1 product -t_k * rate_i
    f = decay.dot(w)
    f -= args.data
    f *= args.inv_sd
    jac_rate = w * decay
    jac_rate *= neg_t
    jac = np.concatenate((decay, jac_rate), axis=1)
    jac *= inv_sd
    return True, f, jac


def _example_args(y, sigma) -> dict:
    """The double-well and ring models' ``args``, once sigma > 0 and y are finite numbers
    and 1 / sigma is finite; ``ValueError`` names the setting refused."""
    if not (is_real(sigma) and 0.0 < sigma < math.inf):
        raise ValueError(f"sigma must be a finite positive number, got {sigma!r}")
    if 1.0 / float(sigma) == math.inf:  # a Python float overflows without a warning
        raise ValueError(f"sigma must have a finite reciprocal, got {sigma!r}")
    if not (is_real(y) and abs(y) < math.inf):
        raise ValueError(f"y must be a finite number, got {y!r}")
    return {"y": y, "sigma": sigma}


def quickstart_handle(y: float = 1.0, sigma: float = 0.5) -> ModelHandle:
    return ModelHandle(quickstart_model, _example_args(y, sigma), dim_in=1)


def simple2d_handle(y: float = 1.0, sigma: float = 0.5) -> ModelHandle:
    return ModelHandle(simple2d_model, _example_args(y, sigma), dim_in=2)


def exp_series_handle(args: ExpSeriesArgs, n_terms: int = 2) -> ModelHandle:
    return ModelHandle(exp_series_model, args, dim_in=2 * check_count("n_terms", n_terms, 1))


def exp_series_datagen(seed: int = 14) -> ExpSeriesArgs:
    """The bundled decay-series dataset: two decay terms with the expseries
    example's ``params`` (w1, w2, r1, r2), observed at ten evenly spaced
    times on [0, 3], plus Gaussian noise of standard deviation 0.1 drawn
    from ``seed``."""
    times = np.linspace(0.0, 3.0, 10)
    noise_sd = np.full(10, 0.1)
    _, clean, _ = exp_series_model(np.array(EXAMPLES["expseries"]["params"]),
                                   ExpSeriesArgs(times, np.zeros(10), np.ones(10)))
    data = clean + noise_sd * np.random.default_rng(seed).standard_normal(10)
    return ExpSeriesArgs(times=times, data=data, noise_sd=noise_sd)


def _badjac_model(x, args):
    """Quickstart with a deliberately wrong Jacobian (+0.01 offset)."""
    inside, f, jac = quickstart_model(x, args)
    return inside, f, [[jac[0][0] + 0.01]]


# The bundled examples by CLI name. ``handle`` builds a model handle, from the keywords ``y``
# and ``sigma`` or, for the decay series, the data ``seed``; ``x0`` is the CLI's start,
# ``prior_mean`` and the row-major ``prior_precision`` its prior, ``range`` its histogram
# range, ``min`` and ``max`` its jtest box, and ``params`` the decay series' true parameters.
_WELL = dict(dim=1, x0=[0.5], prior_mean=[0.0], prior_precision=[1.0], range=[-3.0, 3.0],
             min=[-2.0], max=[2.0])
EXAMPLES = {
    "quickstart": dict(_WELL, handle=quickstart_handle),
    "well": dict(_WELL, handle=lambda y=4.0, sigma=0.5: quickstart_handle(y, sigma), x0=[2.0]),
    "simple2d": dict(handle=simple2d_handle, dim=2, x0=[1.0, 0.0], prior_mean=[0.0, 0.0],
                     prior_precision=[1.0, 0.0, 0.0, 1.0], range=[-2.0, 2.0],
                     min=[-2.0, -2.0], max=[2.0, 2.0]),
    "expseries": dict(handle=lambda seed=14: exp_series_handle(exp_series_datagen(seed)), dim=4,
                      x0=[4.0, 2.0, 0.5, 1.0], prior_mean=[4.0, 2.0, 0.5, 1.0],
                      prior_precision=(0.5 * np.eye(4)).ravel().tolist(), range=[0.0, 5.0],
                      min=[0.1] * 4, max=[5.0] * 4, params=[1.0, 2.5, 0.5, 3.1]),
    "badjac": dict(_WELL, handle=lambda y=1.0, sigma=0.5: ModelHandle(
        _badjac_model, _example_args(y, sigma), dim_in=1)),
}
