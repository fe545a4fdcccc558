"""The tests' oracle form of a Gauss-Newton proposal.

The sampler keeps a proposal as fields of its per-point record: the point
``PointState.x``, the factor ``.chol`` = L of the proposal precision, the
whitened Gauss-Newton step ``.v`` and the log normalization ``.log_norm``.
The proposal is N(x + L^-T v, (L L')^-1). ``proposal`` rebuilds it as a
``gaussian.PrecisionGaussian``, with ``@`` and scipy's
``solve_triangular``, whose ``log_pdf``, ``sample`` and ``dilate`` are
independent of the kernel's arithmetic.
"""

from scipy.linalg import solve_triangular

from gnmh.gaussian import PrecisionGaussian


def proposal(record):
    """The proposal in the ``PointState`` ``record`` as a
    ``PrecisionGaussian``, or None where there is none."""
    if record.chol is None:
        return None
    chol = record.chol
    mean = record.x + solve_triangular(chol, record.v, lower=True, trans="T",
                                       check_finite=False)
    return PrecisionGaussian(mean=mean, precision=chol @ chol.T, chol=chol,
                             log_norm=record.log_norm)
