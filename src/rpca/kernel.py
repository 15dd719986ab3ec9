"""Dense linear-algebra kernels: thin QR, small SVD, truncated SVD, spectral norm.

The SVDs return a :class:`FactoredLowRank`, the one container of a thin
factorization.  Every routine is a pure function of its inputs and
deterministic on a given platform; the truncated SVD starts from a sketch
drawn from a generator with the fixed seed ``SKETCH_SEED``, which the caller
does not choose.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.sparse.linalg import svds

__all__ = [
    "SKETCH_SEED",
    "FactoredLowRank",
    "ensure_matrix",
    "spectral_norm",
    "svd_small",
    "svd_truncated",
    "thin_qr",
]

SKETCH_SEED = 0
_SKETCH_OVERSAMPLE = 10
_CERTIFY_RTOL = 1e-10
# Sweeps of subspace iteration before the dense fallback.  The residuals met
# by the solvers on low-rank-plus-sparse problems certify in 2-6 sweeps.
_MAX_SWEEPS = 10


class FactoredLowRank(NamedTuple):
    """Thin factorization U diag(sigma) V^T of a rank-r matrix."""

    U: np.ndarray      # (m, r), orthonormal columns
    sigma: np.ndarray  # (r,), descending, non-negative
    V: np.ndarray      # (n, r), orthonormal columns

    @property
    def shape(self):
        return (self.U.shape[0], self.V.shape[0])

    @property
    def rank(self):
        return int(self.sigma.size)

    def matrix(self):
        """Dense reconstruction U diag(sigma) V^T."""
        return (self.U * self.sigma) @ self.V.T


def _all_finite(a):
    # min and max propagate NaN and reach any infinity; unlike
    # np.isfinite(a).all() they allocate no temporary the size of ``a``.
    return bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def ensure_matrix(a, name="matrix"):
    """Validate ``a`` as a non-empty finite real matrix; return float64, row-major."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {out.shape}")
    if out.size == 0:
        raise ValueError(f"{name} must be non-empty, got shape {out.shape}")
    if not _all_finite(out):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def thin_qr(a):
    """Thin QR factorization A = QR with non-negative diagonal of R.

    Householder-based (LAPACK); column signs are then normalized so that
    diag(R) >= 0, which pins the factorization down for full-rank input.
    Rank-deficient input is allowed and simply yields a singular R.
    Returns the pair ``(Q, R)``.
    """
    a = ensure_matrix(a, "A")
    n, r = a.shape
    if n < r:
        raise ValueError(f"thin QR needs rows >= cols, got shape {a.shape}")
    q, rr = np.linalg.qr(a, mode="reduced")
    flip = np.diagonal(rr) < 0.0
    if flip.any():
        q[:, flip] *= -1.0
        rr[flip, :] *= -1.0
    return q, rr


def _fix_svd_signs(u, v):
    # Deterministic sign choice: the largest-magnitude entry of each column of
    # U is made positive (first such entry on ties); V columns flip along.
    lead = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[lead, np.arange(u.shape[1])])
    signs[signs == 0.0] = 1.0
    return u * signs, v * signs


def svd_small(a):
    """Full SVD of a small dense matrix, U diag(sigma) V^T = A.

    Returns all min(p, q) triplets with descending singular values and a
    deterministic sign convention (largest-magnitude entry of each column of
    U positive).
    """
    a = ensure_matrix(a, "A")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    u, v = _fix_svd_signs(u, vh.T)
    return FactoredLowRank(u, s, v)


def svd_truncated(a, r):
    """Top-r singular triplets of ``a``, certified to a relative residual.

    Seeded subspace iteration (Halko, Martinsson & Tropp) on a sketch of
    width k = min(r + 10, m, n).  Each sweep factors A^T Q = P R and takes the
    SVD of the k x k core R^T, which gives U = Q Ub and V = P Wb with
    A^T u_i = sigma_i v_i by construction.  The sweep stops once every
    returned triplet also satisfies ||A v_i - sigma_i u_i|| <= 1e-10 sigma_1,
    which makes it an exact singular triplet to that tolerance; the product
    A P this needs starts the next sweep otherwise.  If the top r is not
    certified within a fixed number of sweeps (a flat spectrum), the result
    comes from the dense SVD instead.

    Returns ``(low_rank, window)``: the rank-r factorization, and sigma
    followed by the (r+1)-th value when r < min(m, n): the next Ritz value of
    the sketch, a lower bound on sigma_{r+1}, or the exact value on the dense
    fallback.
    """
    a = ensure_matrix(a, "A")
    m, n = a.shape
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank {r} out of range for a {m} x {n} matrix")
    k = min(r + _SKETCH_OVERSAMPLE, m, n)
    rng = np.random.default_rng(SKETCH_SEED)
    q = np.linalg.qr(a @ rng.standard_normal((n, k)))[0]
    for _ in range(_MAX_SWEEPS):
        p, core_t = np.linalg.qr(a.T @ q)
        ub, s, wb = svd_small(core_t.T)
        u = q @ ub[:, :r]
        ap = a @ p
        residual = np.linalg.norm(ap @ wb[:, :r] - u * s[:r], axis=0)
        if (residual <= _CERTIFY_RTOL * s[0]).all():
            u, v = _fix_svd_signs(u, p @ wb[:, :r])
            return FactoredLowRank(u, s[:r].copy(), v), s[: r + 1].copy()
        q = np.linalg.qr(ap)[0]
    u, s, v = svd_small(a)
    return FactoredLowRank(u[:, :r].copy(), s[:r].copy(), v[:, :r].copy()), s[: r + 1].copy()


def spectral_norm(a):
    """Largest singular value of ``a``.

    Lanczos (ARPACK) from a fixed seeded start vector, so the value is
    accurate to rounding and deterministic at every size.  A matrix with a
    single row or column, or with no nonzero entry, has the Euclidean norm
    of its entries as its spectral norm; ARPACK cannot take either.
    """
    a = ensure_matrix(a, "A")
    if min(a.shape) == 1 or not a.any():
        return float(np.linalg.norm(a))
    v0 = np.random.default_rng(0).standard_normal(min(a.shape))
    return float(svds(a, k=1, v0=v0, return_singular_vectors=False)[0])
