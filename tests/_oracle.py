"""The tests' oracle form of a Gauss-Newton proposal.

The sampler keeps a proposal as four fields of its per-point record,
``PointState.mean``, ``.precision``, ``.chol`` and ``.log_norm``, and
``gn_proposal`` returns the same four as a tuple. The tests compare them
against ``gaussian.PrecisionGaussian``, whose ``@``-based ``log_pdf``,
``sample`` and ``dilate`` are independent of the kernel's arithmetic.
"""

from gnmh.gaussian import PrecisionGaussian
from gnmh.posterior import PointState


def proposal(record):
    """The proposal in ``record`` as a ``PrecisionGaussian``, or None where
    there is none. ``record`` is a ``PointState``, or what ``gn_proposal``
    returns: a ``(mean, precision, chol, log_norm)`` tuple or None."""
    if isinstance(record, PointState):
        record = (record.mean, record.precision, record.chol, record.log_norm)
    if record is None or record[2] is None:
        return None
    return PrecisionGaussian(*record)
