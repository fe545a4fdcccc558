"""Exception hierarchy shared across the package, and the rules for counts,
real numbers, finite vectors and ranges."""

import math
import numbers

import numpy as np


class GnmhError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(GnmhError):
    """An array has a shape incompatible with the declared dimensions."""


class UserFunctionFailure(GnmhError):
    """The user-supplied model function raised or returned garbage."""


class NotPSD(GnmhError):
    """A prior precision matrix has a negative eigenvalue."""


class SingularProposal(GnmhError):
    """H + J'J is not positive definite where a ``Sampler`` starts; at any
    other point the proposal is None, and never accepted."""


class InitialGuessOutsideDomain(GnmhError):
    """The starting point has a non-finite entry, the model indicator is 0
    there, or the Gauss-Newton mean there is not finite (its residual has an
    infinite entry, or the prior's H(m - x0) overflows), so every draw from
    its proposal would be too."""


class InvalidPolicy(GnmhError):
    """Back-off policy parameters out of range."""


class BurnTooLarge(GnmhError):
    """Asked to burn more samples than the chain holds."""


class CorruptCheckpoint(GnmhError):
    """A checkpoint failed validation: its version, a field no sampler can
    have, or no slot whose document and chain rows match their checksums."""


class IOFailure(GnmhError):
    """Checkpoint file could not be read."""


class CheckpointWriteFailure(GnmhError):
    """Checkpoint file could not be written."""


class PointOutsideDomain(GnmhError):
    """Jacobian test could not find an in-domain point after many redraws."""


class EmptyChain(GnmhError):
    """Operation requires a nonempty chain."""


class SeriesTooShort(GnmhError):
    """Series too short for a stable autocorrelation-time estimate."""


class NonConvergentWindow(GnmhError):
    """No self-consistent autocorrelation window below a tenth of the series."""


class LagTooLarge(GnmhError):
    """Requested lag is not smaller than the series length."""


class NonFiniteDensity(GnmhError):
    """Quadrature encountered a NaN or +inf density value."""


def is_count(value, minimum) -> bool:
    """Whether ``value`` is an integer (numpy's too, not a bool) >= ``minimum``."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= minimum)


def check_count(name: str, value, minimum: int = 0, error=ValueError) -> int:
    """``value`` as an ``int`` if it is a count of at least ``minimum``;
    otherwise ``error`` naming ``name``, "must be an integer" for a value
    that is not one, "must be at least" for one that is too small."""
    if not is_count(value, minimum):
        if is_count(value, -math.inf):
            raise error(f"{name} must be at least {minimum}, got {value!r}")
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def is_real(value) -> bool:
    """Whether ``value`` is a real number (numpy's too), not a bool and not
    NaN. Each caller compares it with its own bounds."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and value == value)  # NaN is the one real number unequal to itself


def check_finite(name: str, values, error=ValueError) -> None:
    """``error`` saying "<name> has a non-finite entry" unless every entry
    of the numeric array ``values`` is finite."""
    if not np.isfinite(values).all():
        raise error(f"{name} has a non-finite entry")


def check_range(name: str, low, high, error=ValueError):
    """``low`` and ``high`` as 1-D float arrays if they have equal lengths
    and, in every coordinate, a finite width high - low > 0, so finite ends
    with low < high. Unequal lengths raise ``DimensionMismatch``, any other
    failure ``error``; both name ``name``."""
    low = np.asarray(low, dtype=float).reshape(-1)
    high = np.asarray(high, dtype=float).reshape(-1)
    if low.shape != high.shape:
        raise DimensionMismatch(f"{name}: its ends have {low.shape[0]} and "
                                f"{high.shape[0]} coordinates")
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN width is refused below
        width = high - low
    if not ((width > 0.0) & np.isfinite(width)).all():
        raise error(f"{name} {low.tolist()} to {high.tolist()}: need finite ends with "
                    f"low < high and a finite width high - low in every coordinate")
    return low, high
