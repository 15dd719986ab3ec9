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


def _tiled_norm(a, low_rank, sparse=None):
    """||A - L - S||_F for a factored L = ``low_rank``, S = ``sparse`` or 0.

    L is formed over the row tiles of the solvers' sparse pass, and the
    squares are summed tile by tile in the same order, so no m x n array
    is allocated.
    """
    if low_rank.shape != a.shape:
        m, n = low_rank.shape
        raise ValueError(f"L is {m} x {n}, not {a.shape[0]} x {a.shape[1]}")
    total = 0.0
    for t, residual in _residual_tiles(a, low_rank):
        if sparse is not None:
            residual -= sparse[t]
        flat = residual.ravel()
        total += float(flat @ flat)
    return np.sqrt(total)


def relative_error(d, low_rank, sparse):
    """Relative residual ||D - L - S||_F / ||D||_F.

    A factored L is formed tile by tile (:func:`_tiled_norm`), in the order
    of the solvers' sparse pass, so a solution's ``final_err`` is exactly
    the relative error of its output; a dense L is subtracted whole.
    """
    d = np.asarray(d, dtype=np.float64)
    d_norm = float(np.linalg.norm(d))
    if d_norm == 0.0:
        raise ValueError("relative error is undefined for an identically zero matrix")
    sparse = _dense(sparse)
    if not isinstance(low_rank, FactoredLowRank):
        return float(np.linalg.norm(d - _dense(low_rank) - sparse) / d_norm)
    return float(_tiled_norm(d, low_rank, sparse) / d_norm)


def recovery_success(l_true, l_estimate, tol=RECOVERY_TOL):
    """Whether ||L_est - L||_F / ||L||_F <= tol.

    A factored estimate is compared tile by tile (:func:`_tiled_norm`); a
    dense one is subtracted whole.
    """
    l_true = np.asarray(l_true, dtype=np.float64)
    true_norm = float(np.linalg.norm(l_true))
    if true_norm == 0.0:
        raise ValueError("recovery check is undefined for a zero ground truth")
    if isinstance(l_estimate, FactoredLowRank):
        return bool(_tiled_norm(l_true, l_estimate) / true_norm <= tol)
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
