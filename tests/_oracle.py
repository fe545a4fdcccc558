"""The tests' oracle form of a Gauss-Newton proposal.

The sampler keeps a proposal as fields of its per-point record: the point
``PointState.x``, the factor ``.chol`` = L of the proposal precision, the
whitened Gauss-Newton step ``.v`` and the log normalization ``.log_norm``.
The proposal is N(x + L^-T v, (L L')^-1). ``proposal`` rebuilds it as a
``gaussian.PrecisionGaussian``, with ``@`` and scipy's
``solve_triangular``, whose ``log_pdf``, ``sample`` and ``dilate`` are
independent of the kernel's arithmetic.

``linear_handle`` wraps the affine model for which that proposal is exact.
"""

import numpy as np
from scipy.linalg import solve_triangular

from gnmh.gaussian import PrecisionGaussian
from gnmh.model import ModelHandle


def linear_model(x, args):
    """Affine residual A x - b with constant Jacobian A.

    The Gauss-Newton proposal is exact for this model (it equals the
    posterior), which makes it the reference case for exactness tests.
    """
    A = args["A"]
    b = args["b"]
    return True, A @ x - b, A


def linear_handle(A, b) -> ModelHandle:
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    return ModelHandle(linear_model, {"A": A, "b": b}, dim_in=A.shape[1])


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
