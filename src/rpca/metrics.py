"""Quality metrics: relative residual, recovery check, incoherence diagnostic."""

from __future__ import annotations

import numpy as np

from .kernel import FactoredLowRank, svd_truncated
from .solver import _residual_tiles, _row_tiles

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


def _distance(a, b, c=None):
    """||A - B - C||_F, with B dense or factored and C dense or 0.

    The difference is formed over the row tiles of the solvers' sparse
    pass: a factored B through :func:`rpca.solver._residual_tiles`, a dense
    one as ``a[t] - b[t]``.  The squares are summed tile by tile in the
    pass's order, so no m x n array is allocated.  B and C must have A's
    shape.
    """
    if isinstance(b, FactoredLowRank):
        tiles = _residual_tiles(a, b)
    else:
        b = np.asarray(b, dtype=np.float64)
        tiles = ((t, a[t] - b[t]) for t in _row_tiles(a.shape))
    for name, x in (("L", b), ("S", c)):
        if x is not None and x.shape != a.shape:
            sizes = (" x ".join(map(str, shape)) for shape in (x.shape, a.shape))
            raise ValueError("{} is {}, not {}".format(name, *sizes))
    total = 0.0
    for t, residual in tiles:
        if c is not None:
            residual -= c[t]
        flat = residual.ravel()
        total += float(flat @ flat)
    return np.sqrt(total)


def relative_error(d, low_rank, sparse):
    """Relative residual ||D - L - S||_F / ||D||_F.

    L, dense or factored, and S are subtracted tile by tile
    (:func:`_distance`), in the order of the solvers' sparse pass, so a
    solution's ``final_err`` is exactly the relative error of its output.
    """
    d = np.asarray(d, dtype=np.float64)
    d_norm = float(np.linalg.norm(d))
    if d_norm == 0.0:
        raise ValueError("relative error is undefined for an identically zero matrix")
    return float(_distance(d, low_rank, np.asarray(sparse, dtype=np.float64)) / d_norm)


def recovery_success(l_true, l_estimate, tol=RECOVERY_TOL):
    """Whether ||L - L_est||_F / ||L||_F <= tol.

    A dense or factored estimate is compared tile by tile
    (:func:`_distance`), so no m x n difference is allocated.
    """
    l_true = np.asarray(l_true, dtype=np.float64)
    true_norm = float(np.linalg.norm(l_true))
    if true_norm == 0.0:
        raise ValueError("recovery check is undefined for a zero ground truth")
    return bool(_distance(l_true, l_estimate) / true_norm <= tol)


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
