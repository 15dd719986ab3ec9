"""Quality metrics: relative residual, recovery check, incoherence diagnostic."""

from __future__ import annotations

import numpy as np

from .kernel import FactoredLowRank, svd_truncated
from .solver import _residual_tiles

__all__ = [
    "RECOVERY_TOL",
    "factor_incoherence",
    "incoherence_of",
    "recovery_success",
    "relative_error",
]

# A trial counts as an exact recovery when the low-rank output is within this
# relative Frobenius distance of the ground truth.
RECOVERY_TOL = 1e-4


def _dense(a):
    return a.matrix() if hasattr(a, "matrix") else np.asarray(a, dtype=np.float64)


def relative_error(d, low_rank, sparse):
    """Relative residual ||D - L - S||_F / ||D||_F.

    A factored L is formed over the row tiles of the solvers' sparse pass,
    and the squares are summed tile by tile in the same order, so a
    solution's ``final_err`` is exactly the relative error of its output;
    a dense L is subtracted whole.
    """
    d = np.asarray(d, dtype=np.float64)
    d_norm = float(np.linalg.norm(d))
    if d_norm == 0.0:
        raise ValueError("relative error is undefined for an identically zero matrix")
    sparse = _dense(sparse)
    if not isinstance(low_rank, FactoredLowRank):
        return float(np.linalg.norm(d - _dense(low_rank) - sparse) / d_norm)
    total = 0.0
    for t, residual in _residual_tiles(d, low_rank):
        residual -= sparse[t]
        flat = residual.ravel()
        total += float(flat @ flat)
    return float(np.sqrt(total) / d_norm)


def recovery_success(l_true, l_estimate, tol=RECOVERY_TOL):
    """Whether ||L_est - L||_F / ||L||_F <= tol."""
    l_true = np.asarray(l_true, dtype=np.float64)
    true_norm = float(np.linalg.norm(l_true))
    if true_norm == 0.0:
        raise ValueError("recovery check is undefined for a zero ground truth")
    return bool(np.linalg.norm(_dense(l_estimate) - l_true) / true_norm <= tol)


def factor_incoherence(u, v):
    """Incoherence of a factorization from its orthonormal factors.

    max( (m/r) max_i ||e_i^T U||^2 , (n/r) max_j ||e_j^T V||^2 ); small values
    mean the singular vectors are spread out over the coordinates.  It is at
    least 1 exactly, so a rounded value below 1 is returned as 1.
    """
    m, r = u.shape
    n = v.shape[0]
    mu_u = (m / r) * float(np.max(np.sum(u * u, axis=1)))
    mu_v = (n / r) * float(np.max(np.sum(v * v, axis=1)))
    return max(mu_u, mu_v, 1.0)


def incoherence_of(l, rank):
    """Incoherence of ``l`` measured on its rank-``rank`` SVD factors."""
    low, _ = svd_truncated(l, rank)
    if low.sigma[0] == 0.0:
        raise ValueError("incoherence is undefined for a zero matrix")
    return factor_incoherence(low.U, low.V)
