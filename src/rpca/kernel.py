"""Dense linear-algebra kernels: thin QR, small SVD, truncated SVD, spectral norm.

The SVDs return a :class:`FactoredLowRank`, the one container of a thin
factorization.  Every linear-algebra routine is a pure function of its
inputs and deterministic on a given platform.  The package's two input
checks live here too: :func:`ensure_matrix` for arrays, and
:func:`ensure_fields` for the fields of its frozen parameter dataclasses,
which it converts in place.  ``SKETCH_SEED`` is the module's only
seed, and the caller does not choose it: the truncated SVD draws its sketch
(whose first columns a caller's start vectors may replace), and the spectral
norm its Lanczos start vector, from a generator seeded with it.
"""

from __future__ import annotations

from dataclasses import fields
from typing import NamedTuple

import numpy as np

__all__ = [
    "SKETCH_SEED",
    "FactoredLowRank",
    "ensure_fields",
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


def _floats(values):
    return tuple(_as_kind(value, "float") for value in values)


# Field annotation, as written -> (the kind that a message names, the exact
# types that hold it, the conversion to it).  bool is a subclass of int, not
# int itself, so a bool never counts as a number.
_FIELD_KINDS = {
    "int": ("an integer", (int,), int),
    "float": ("a finite number", (int, float), float),
    "tuple": ("a tuple or list", (tuple, list), tuple),
    "tuple[float, ...]": ("a tuple or list of finite numbers", (tuple, list), _floats),
}


def _as_kind(value, kind):
    """``value`` converted to the kind annotated ``kind``; ValueError if it is not one."""
    _, types, convert = _FIELD_KINDS[kind]
    value = value.item() if isinstance(value, np.generic) else value  # numpy scalars as Python ones
    # float() raises OverflowError for an integer past the float range
    if type(value) not in types or kind == "float" and not np.isfinite(float(value)):
        raise ValueError
    return convert(value)


def ensure_fields(config):
    """Convert each field of the frozen dataclass ``config`` to the kind its annotation names.

    An annotation is one of ``int``, ``float``, ``tuple`` and
    ``tuple[float, ...]``, each optionally ``| None``, read as written (the
    defining module postpones its annotations).  A bool never counts as a
    number, an ``int`` field takes no float, and reals must be finite, so an
    integer past the float range fails.  Numpy scalars are stored as Python
    ``int`` or ``float``, and lists as tuples.  Raises one ``ValueError``
    that names every failing field as ``<field> must be <kind>``, joined by
    ``; ``.
    """
    failed = []
    for f in fields(config):
        kind, value = f.type.removesuffix(" | None"), getattr(config, f.name)
        try:
            if value is not None or kind == f.type:
                object.__setattr__(config, f.name, _as_kind(value, kind))
        except (ValueError, OverflowError):
            failed.append(f"{f.name} must be {_FIELD_KINDS[kind][0]}" + " or None" * (kind != f.type))
    if failed:
        raise ValueError("; ".join(failed))


def thin_qr(a):
    """Thin QR factorization A = QR (Householder, LAPACK).

    Q and R are returned as LAPACK gives them: a column of Q and the same
    row of R may flip sign together, and no caller reads that sign.
    Rank-deficient input is allowed and simply yields a singular R.  ``a``
    (finite float64, rows >= cols) is not checked.  Returns ``(Q, R)``.
    """
    q, r = np.linalg.qr(a, mode="reduced")
    return q, r


def svd_small(a):
    """Full SVD of a small dense matrix, U diag(sigma) V^T = A.

    Returns all min(p, q) triplets with descending singular values, as
    LAPACK gives them: a pair (u_i, v_i) may flip sign together, and no
    caller reads that sign.
    """
    a = ensure_matrix(a, "A")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return FactoredLowRank(u, s, vh.T)


def svd_truncated(a, r, start=None, rtol=_CERTIFY_RTOL):
    """Top-r singular triplets of ``a``, certified to a relative residual.

    Seeded subspace iteration (Halko, Martinsson & Tropp) on a sketch of
    width k = min(r + 10, m, n).  A ``start`` (n x r, not checked), such as
    the right factor of a nearby matrix's truncation, replaces the first r
    columns of the seeded sketch, so that the iteration starts near the
    wanted subspace and certifies in fewer sweeps; the generator draws the
    same numbers either way, and the certificate does not depend on it.
    Each sweep factors A^T Q = P R and takes the SVD of the k x k core R^T,
    which gives U = Q Ub and V = P Wb with A^T u_i = sigma_i v_i by
    construction.  The sweep stops once every returned triplet also
    satisfies ||A v_i - sigma_i u_i|| <= ``rtol`` sigma_1 (1e-10 by
    default), which makes it an exact singular triplet to that tolerance;
    the product A P this needs starts the next sweep otherwise; on the
    solvers' inputs an ``rtol`` of 1e-6 takes one or two sweeps fewer than
    1e-10.  If the top r is not certified within a fixed number of sweeps
    (a flat spectrum), the result comes from the dense SVD instead.

    Every product with A is formed as a short-wide matrix times A or A^T,
    the layout BLAS runs fast: A^T Q as (Q^T A)^T, and A X, for the sketch
    and for P, as (X^T A^T)^T, at every shape.  With one BLAS thread and
    k = 15 columns unless stated, ``a @ x`` took 0.36-0.49 ms against
    0.27-0.34 ms for ``(x.T @ a.T).T`` at 500 x 500, 1.5-2.0 against 1.0 ms
    at 1000 x 1000, 6.4-8.2 against 4.1 ms at 2000 x 2000, 3.6-3.9 against
    2.9-3.0 ms at 1200 x 1200 with k = 60, 8.2 against 5.1 ms at
    200 x 25000 and 11.9 against 8.7 ms at 25000 x 200.  ``a`` and
    ``start`` are only read.

    Returns ``(low_rank, window)``: the rank-r factorization, and sigma
    followed by the (r+1)-th value when r < min(m, n): the next Ritz value of
    the sketch, a lower bound on sigma_{r+1} whose accuracy depends on the
    number of sweeps run, or the exact value on the dense fallback.  As in
    :func:`svd_small`, a pair (u_i, v_i) may flip sign together, and no
    caller reads that sign.
    """
    a = ensure_matrix(a, "A")
    m, n = a.shape
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank {r} out of range for a {m} x {n} matrix")
    k = min(r + _SKETCH_OVERSAMPLE, m, n)
    sketch = np.random.default_rng(SKETCH_SEED).standard_normal((n, k))
    if start is not None:
        sketch[:, :r] = start
    q = thin_qr((sketch.T @ a.T).T)[0]  # A times the sketch
    del sketch  # not kept through the sweeps
    for _ in range(_MAX_SWEEPS):
        p, core_t = thin_qr((q.T @ a).T)  # A^T Q
        ub, s, wb = svd_small(core_t.T)
        u = q @ ub[:, :r]
        del q  # not kept through A P
        ap = (p.T @ a.T).T  # A P
        residual = ap @ wb[:, :r]
        residual -= u * s[:r]
        if (np.linalg.norm(residual, axis=0) <= rtol * s[0]).all():
            return FactoredLowRank(u, s[:r].copy(), p @ wb[:, :r]), s[: r + 1].copy()
        del p, u, residual  # not kept through the QR that starts the next sweep
        q = thin_qr(ap)[0]
    u, s, v = svd_small(a)
    return FactoredLowRank(u[:, :r].copy(), s[:r].copy(), v[:, :r].copy()), s[: r + 1].copy()


def spectral_norm(a, enough=np.inf):
    """Largest singular value of ``a``, or a lower bound on it that reaches ``enough``.

    Golub-Kahan-Lanczos with full reorthogonalization from a seeded unit
    vector v_1.  Step j gives the j x (j+1) bidiagonal U_j^T A V_{j+1}, whose
    top singular value theta_j is a lower bound on sigma_1(A) that rises with
    j; theta_1 = ||A^T u_1|| with u_1 = A v_1 / ||A v_1|| takes two products.
    theta_j is returned once it reaches ``enough``, or once its Ritz pair is
    certified as in :func:`svd_truncated`, ||A v - theta_j u|| <= 1e-10
    theta_j: then sigma_1(A) - theta_j is at most 1e-10 theta_j, or the
    squared residual over the gap to sigma_2 (barring, as for any Krylov
    method, a start vector almost orthogonal to sigma_1's).  A zero matrix
    gives 0.  Each product takes a unit vector, so squares stay inside the
    float64 range wherever the solvers accept ``a``, and scaling ``a`` by a
    power of two scales the result exactly.  ``a`` is not checked.
    """
    v = np.random.default_rng(SKETCH_SEED).standard_normal(a.shape[1])
    us, vs = np.empty((0, a.shape[0])), (v / np.linalg.norm(v))[None]
    alphas, betas, sigma, y = [], [], 0.0, np.ones(1)
    for _ in range(min(a.shape)):  # the Krylov space has at most this dimension
        p = a @ vs[-1]
        if alphas:
            p -= betas[-1] * us[-1]
            p -= (us @ p) @ us
        alpha = float(np.linalg.norm(p))
        if alpha * abs(y[-1]) <= _CERTIFY_RTOL * sigma:  # ||A v - sigma u||
            break
        us = np.vstack([us, p / alpha])
        w = us[-1] @ a - alpha * vs[-1]
        w -= (vs @ w) @ vs
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        betas.append(beta)
        _, s, yh = np.linalg.svd((np.diag(alphas + [0.0]) + np.diag(betas, 1))[:-1])
        sigma, y = float(s[0]), yh[0]
        if sigma >= enough or beta == 0.0:
            break
        vs = np.vstack([vs, w / beta])
    return sigma
