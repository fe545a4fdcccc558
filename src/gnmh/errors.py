"""Exception hierarchy shared across the package."""


class GnmhError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(GnmhError):
    """An array has a shape incompatible with the declared dimensions."""


class UserFunctionFailure(GnmhError):
    """The user-supplied model function raised or returned garbage."""


class NotPSD(GnmhError):
    """A prior precision matrix has a negative eigenvalue."""


class InvalidDilation(GnmhError):
    """Dilation factor not positive."""


class SingularProposal(GnmhError):
    """H + J'J is not positive definite where a ``Sampler`` starts or is given
    a new prior; at any other point the proposal is None, and never accepted."""


class InitialGuessOutsideDomain(GnmhError):
    """The starting point has a non-finite entry, or the model indicator is
    0 there."""


class InvalidPolicy(GnmhError):
    """Back-off policy parameters out of range."""


class BurnTooLarge(GnmhError):
    """Asked to burn more samples than the chain holds."""


class CorruptCheckpoint(GnmhError):
    """A checkpoint failed validation: its version, a checksum, or a chain
    file that is missing or shorter than the document says."""


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
