"""User-model contract and the bundled example models.

A model is a callable ``fn(x, args) -> (inside, residual, jacobian)`` where
``inside`` says whether the point is in the model's domain, ``residual`` is
f(x) of length m, and ``jacobian`` is the m-by-n matrix of partials. The
sampler targets densities proportional to
``indicator(x) * prior(x) * exp(-||f(x)||^2 / 2)``.

In the domain the outputs must be numbers. When the sampler builds its
state at a point (``posterior.point_state``), a NaN in the residual, or a
Jacobian J whose J'J is not finite (a NaN or infinite entry, or an
overflow), raises ``UserFunctionFailure`` naming that point; a residual of
+-inf is zero density there, and the point is rejected.
``ModelHandle.evaluate`` itself checks shapes only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from .errors import DimensionMismatch, UserFunctionFailure


@dataclass
class ModelEval:
    """Result of one model-function call.

    When ``inside`` is False the point is outside the model's domain and
    ``residual``/``jacobian`` are None; callers must not read them.
    """

    inside: bool
    residual: Optional[np.ndarray]
    jacobian: Optional[np.ndarray]


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
        Parameter dimension n.
    dim_out : int, optional
        Residual dimension m. If omitted it is inferred from the first
        successful (in-domain) evaluation; later mismatches are errors.
    """

    def __init__(self, fn: Callable, args: Any, dim_in: int, dim_out: Optional[int] = None):
        self.fn = fn
        self.args = args
        self.dim_in = int(dim_in)
        self.dim_out = None if dim_out is None else int(dim_out)
        self.call_count = 0

    def evaluate(self, x) -> ModelEval:
        """Call the model once at ``x``, coercing outputs to dense arrays.

        Raises
        ------
        DimensionMismatch
            If ``x`` or the returned arrays have inconsistent shapes.
        UserFunctionFailure
            Wrapping any exception raised by the user function, or a
            return value that is not an (inside, residual, jacobian) triple.
        """
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.dim_in:
            raise DimensionMismatch(
                f"point has length {x.shape[0]}, model expects {self.dim_in}"
            )
        self.call_count += 1
        try:
            out = self.fn(x, self.args)
        except Exception as exc:
            raise UserFunctionFailure(f"model function raised: {exc!r}") from exc
        try:
            inside_raw, residual_raw, jacobian_raw = out
        except (TypeError, ValueError) as exc:
            raise UserFunctionFailure(
                "model function must return (inside, residual, jacobian)"
            ) from exc
        inside = bool(inside_raw)
        if not inside:
            return ModelEval(inside=False, residual=None, jacobian=None)

        try:
            residual = np.asarray(residual_raw, dtype=float)
            jacobian = np.asarray(jacobian_raw, dtype=float)
        except (TypeError, ValueError) as exc:
            raise UserFunctionFailure(f"model outputs not numeric: {exc!r}") from exc
        residual = residual.reshape(-1)
        m = residual.shape[0]
        if self.dim_out is not None and m != self.dim_out:
            raise DimensionMismatch(
                f"residual has length {m}, model declared {self.dim_out}"
            )
        if jacobian.size != m * self.dim_in:
            raise DimensionMismatch(
                f"jacobian has {jacobian.size} entries, expected "
                f"{m}x{self.dim_in}"
            )
        if jacobian.ndim > 2:
            raise DimensionMismatch("jacobian must be at most 2-dimensional")
        jacobian = jacobian.reshape(m, self.dim_in)
        if self.dim_out is None:
            self.dim_out = m
        return ModelEval(inside=True, residual=residual, jacobian=jacobian)


# ---------------------------------------------------------------------------
# Bundled example models
# ---------------------------------------------------------------------------


def quickstart_model(x, args):
    """1D double well: f(x) = (x^2 - y) / sigma, f'(x) = 2x / sigma."""
    y = args["y"]
    sigma = args["sigma"]
    f = (x[0] * x[0] - y) / sigma
    df = 2.0 * x[0] / sigma
    return True, [f], [[df]]


def simple2d_model(x, args):
    """Ring in the plane: one residual (x1^2 + x2^2 - y) / sigma."""
    y = args["y"]
    sigma = args["sigma"]
    f = (x[0] * x[0] + x[1] * x[1] - y) / sigma
    return True, [f], [[2.0 * x[0] / sigma, 2.0 * x[1] / sigma]]


def linear_model(x, args):
    """Affine residual A x - b with constant Jacobian A.

    The Gauss-Newton proposal is exact for this model (it equals the
    posterior), which makes it the reference case for exactness tests.
    """
    A = args["A"]
    b = args["b"]
    return True, A @ x - b, A


@dataclass
class ExpSeriesArgs:
    """Data bundle for the exponential-decay time-series model.

    ``times``, ``data`` and ``noise_sd`` all have length m; every noise
    standard deviation must be positive.
    """

    times: np.ndarray
    data: np.ndarray
    noise_sd: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float).reshape(-1)
        self.data = np.asarray(self.data, dtype=float).reshape(-1)
        self.noise_sd = np.asarray(self.noise_sd, dtype=float).reshape(-1)
        m = self.times.shape[0]
        if self.data.shape[0] != m or self.noise_sd.shape[0] != m:
            raise DimensionMismatch("times, data and noise_sd must share a length")
        if np.any(self.noise_sd <= 0.0):
            raise ValueError("noise_sd must be strictly positive")


def exp_series_model(x, args: ExpSeriesArgs):
    """Sum-of-decaying-exponentials fit.

    The parameter vector is x = (w_1..w_d, rate_1..rate_d) and the curve is
    g(t) = sum_i w_i * exp(-rate_i * t). Residual k is
    (g(t_k) - data_k) / noise_sd_k; the Jacobian is analytic:
    d/dw_i = exp(-rate_i t_k) / sd_k and
    d/drate_i = -w_i t_k exp(-rate_i t_k) / sd_k.
    """
    d = x.shape[0] // 2
    w = x[:d]
    rates = x[d:]
    t = args.times[:, None]
    decay = np.exp(-(t * rates))  # (m, d)
    g = decay.dot(w)
    inv_sd = 1.0 / args.noise_sd
    f = (g - args.data) * inv_sd
    inv_sd_col = inv_sd[:, None]
    jac = np.empty((t.shape[0], 2 * d))
    np.multiply(decay, inv_sd_col, out=jac[:, :d])
    np.multiply(-(w * decay) * t, inv_sd_col, out=jac[:, d:])
    return True, f, jac


def quickstart_handle(y: float = 1.0, sigma: float = 0.5) -> ModelHandle:
    return ModelHandle(quickstart_model, {"y": y, "sigma": sigma}, dim_in=1)


def simple2d_handle(y: float = 1.0, sigma: float = 0.5) -> ModelHandle:
    return ModelHandle(simple2d_model, {"y": y, "sigma": sigma}, dim_in=2)


def linear_handle(A, b) -> ModelHandle:
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    return ModelHandle(linear_model, {"A": A, "b": b}, dim_in=A.shape[1])


def exp_series_handle(args: ExpSeriesArgs, n_terms: int = 2) -> ModelHandle:
    return ModelHandle(exp_series_model, args, dim_in=2 * n_terms)
