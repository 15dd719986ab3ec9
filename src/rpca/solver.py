"""Low-rank + sparse decomposition by accelerated alternating projections.

The solver splits a dense matrix D into a rank-r part L and a sparse part S.
Each iteration first projects the residual D - S onto the tangent space of
the rank-r manifold at the (trimmed) current estimate, which compresses it to
a rank-2r object; the best rank-r truncation then only needs two tall-skinny
QR factorizations and one 2r x 2r SVD instead of a full-size SVD.  The sparse
part is updated by entrywise hard thresholding with a geometrically decaying
threshold.  A plain alternating-projections baseline (full truncated SVD per
iteration) is provided for comparison.

Each half-iteration reads the m x n operands in one pass over row tiles, so
no m x n workspace is kept: the L-update of the accelerated solver gathers
U^T (D - S_k) and (D - S_k) V tile by tile, and the shared sparse update
builds L_{k+1}, D - L_{k+1}, S_{k+1} and the residual norm tile by tile.  An
iteration allocates S_{k+1} and tiles; a solve peaks at D plus 2 buffers
(S_k and S_{k+1}), or, for the baseline, D plus S_k and the D - S_k its SVD
reads.

All solver entry points are pure functions of their arguments (states and
parameter sets are frozen), so concurrent solves never share mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .kernel import FactoredLowRank, ensure_matrix, spectral_norm, svd_small, svd_truncated, thin_qr

# A pass over an m x n operand goes in row tiles of about 1/_TILES of its
# rows, so that a tile adds little to the peak memory, clamped to between
# 64 KiB of float64 (below which the per-tile overhead shows) and 256 KiB
# (above which the tiles a pass touches drop out of cache).
_TILES = 16
_TILE_BYTES = (64 * 1024, 256 * 1024)

__all__ = [
    "ConvergenceTrace",
    "IterationRecord",
    "IterationState",
    "RpcaParams",
    "RpcaSolution",
    "accaltproj_solve",
    "altproj_solve",
    "hard_threshold",
    "initial_sparse_guess",
    "initialize",
    "structured_truncate",
    "threshold_value",
    "trim",
]


@dataclass(frozen=True)
class RpcaParams:
    """Tuning knobs for the solvers.

    ``beta`` scales the thresholds, ``gamma`` is the target geometric decay
    rate of the threshold schedule, ``beta_init`` scales the very first
    threshold, ``epsilon`` is the relative-residual stopping tolerance.  The
    convergence analysis needs gamma > 1/sqrt(12) ~= 0.289; the defaults
    follow the experimentally robust choices (see :meth:`defaults`).
    """

    rank: int
    mu: float
    beta: float
    beta_init: float
    gamma: float = 0.5
    epsilon: float = 1e-6
    max_iter: int = 100
    trim_enabled: bool = True

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.mu < 1.0:
            raise ValueError(f"mu must be >= 1, got {self.mu}")
        if self.beta <= 0.0 or self.beta_init <= 0.0:
            raise ValueError("beta and beta_init must be positive")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")

    @classmethod
    def defaults(cls, shape, rank, mu, alpha=None, **overrides):
        """Parameter set from the standard experimental choices.

        beta = 1.1 mu r / (2 sqrt(mn)) and beta_init = 1.1 mu r / sqrt(mn).
        gamma keeps its field default, switched to 0.65 when the caller
        declares a sparsity fraction alpha >= 0.55; it is never auto-detected.
        Any field can be overridden by keyword.
        """
        m, n = shape
        scale = 1.1 * mu * rank / math.sqrt(m * n)
        values = dict(rank=rank, mu=mu, beta=scale / 2.0, beta_init=scale)
        if alpha is not None and alpha >= 0.55:
            values["gamma"] = 0.65
        values.update(overrides)
        return cls(**values)


@dataclass(frozen=True)
class IterationState:
    """Solver state after iteration ``k``.

    ``sigma_window`` holds the singular values (descending) of the matrix
    whose truncation produced ``low_rank``: the projected residual during the
    main loop, the thresholded data during initialization.  Where that
    truncation is :func:`svd_truncated`, the value after the first r is its
    next Ritz value, a lower bound on sigma_{r+1}.  ``l_update_seconds`` is
    the wall time of the truncation (0 for a state built by hand).
    """

    low_rank: FactoredLowRank
    sparse: np.ndarray
    k: int
    zeta: float
    sigma_window: np.ndarray
    l_update_seconds: float = 0.0


@dataclass(frozen=True)
class IterationRecord:
    k: int
    err: float
    zeta: float
    sigma_r: float
    sigma_r_plus_1: float
    sigma_window: np.ndarray
    iter_seconds: float
    l_update_seconds: float


@dataclass
class ConvergenceTrace:
    """Per-iteration log of the stopping metric and the threshold schedule."""

    records: list[IterationRecord] = field(default_factory=list)

    def add(self, state, err, iter_seconds):
        window = np.asarray(state.sigma_window, dtype=np.float64)
        r = state.low_rank.rank
        self.records.append(
            IterationRecord(
                k=state.k,
                err=float(err),
                zeta=float(state.zeta),
                sigma_r=float(window[r - 1]) if window.size >= r else 0.0,
                sigma_r_plus_1=float(window[r]) if window.size > r else 0.0,
                sigma_window=window.copy(),
                iter_seconds=float(iter_seconds),
                l_update_seconds=float(state.l_update_seconds),
            )
        )

    def errors(self):
        return np.array([rec.err for rec in self.records])

    def zetas(self):
        return np.array([rec.zeta for rec in self.records])

    def as_dict(self):
        """JSON-ready dict of per-iteration arrays."""
        return {
            "k": [rec.k for rec in self.records],
            "err": [rec.err for rec in self.records],
            "zeta": [rec.zeta for rec in self.records],
            "sigma_r": [rec.sigma_r for rec in self.records],
            "sigma_r_plus_1": [rec.sigma_r_plus_1 for rec in self.records],
            "sigma_window": [rec.sigma_window.tolist() for rec in self.records],
            "iter_seconds": [rec.iter_seconds for rec in self.records],
            "l_update_seconds": [rec.l_update_seconds for rec in self.records],
        }


@dataclass
class RpcaSolution:
    low_rank: FactoredLowRank
    sparse: np.ndarray
    trace: ConvergenceTrace
    converged: bool

    @property
    def iterations(self):
        return self.trace.records[-1].k if self.trace.records else 0

    @property
    def final_err(self):
        return self.trace.records[-1].err if self.trace.records else math.inf


def trim(low_rank, mu):
    """Rescale factor rows that exceed the incoherence budget.

    Row i of U is scaled by min(1, c_m / ||U_(i)||) with c_m = sqrt(mu r / m);
    rows of V analogously with c_n = sqrt(mu r / n).  When nothing exceeds
    its budget the input is returned unchanged.  Otherwise the scaled factors
    are no longer orthonormal, so they are re-orthogonalized (thin QR of both
    factors, SVD of the r x r core) before being returned.
    """
    u, s, v = low_rank.U, low_rank.sigma, low_rank.V
    m, n = low_rank.shape
    r = low_rank.rank
    cap_u = math.sqrt(mu * r / m)
    cap_v = math.sqrt(mu * r / n)
    u_norms = np.linalg.norm(u, axis=1)
    v_norms = np.linalg.norm(v, axis=1)
    if (u_norms <= cap_u).all() and (v_norms <= cap_v).all():
        return low_rank
    with np.errstate(divide="ignore"):
        u_scale = np.minimum(1.0, cap_u / u_norms)
        v_scale = np.minimum(1.0, cap_v / v_norms)
    qa, ra = thin_qr(u * u_scale[:, None])
    qb, rb = thin_qr(v * v_scale[:, None])
    core = svd_small((ra * s) @ rb.T)
    return FactoredLowRank(qa @ core.U, core.sigma, qb @ core.V)


def _row_tiles(shape, floor=1):
    """Row slices that cover an m x n matrix in order; the last may be shorter.

    A tile is ceil(m / ``_TILES``) rows, clamped to ``_TILE_BYTES``, then
    raised to at least ``floor`` rows and cut to at most m.
    """
    m, n = shape
    fewest, most = (size // (8 * n) for size in _TILE_BYTES)
    rows = min(max(-(-m // _TILES), fewest), most)
    rows = min(max(rows, floor, 1), m)
    return [slice(start, min(start + rows, m)) for start in range(0, m, rows)]


def structured_truncate(low_rank, utw, wv):
    """Best rank-r approximation of the tangent-space projection of a matrix W.

    r is the rank of ``low_rank``.  W enters only through ``utw`` = U^T W
    (r x n) and ``wv`` = W V (m x r), taken with the factors of
    ``low_rank``.  The projection of W at the basis (U, V) factors as
    [U Q1] M [V Q2]^T with M a 2r x 2r core built from two thin QR
    factorizations, so the truncation reduces to a small SVD; neither W nor
    its projection is formed.  Returns the truncated factorization together
    with all 2r singular values of the core (descending), which drive the
    threshold schedule.
    """
    u, v = low_rank.U, low_rank.V
    (m, n), r = low_rank.shape, low_rank.rank
    if np.shape(utw) != (r, n) or np.shape(wv) != (m, r):
        raise ValueError(
            f"product shapes {np.shape(utw)} and {np.shape(wv)} do not match "
            f"a rank-{r} factorization of shape {low_rank.shape}"
        )
    utwv = utw @ v
    q1, r1 = thin_qr(wv - u @ utwv)
    q2, r2 = thin_qr(utw.T - v @ utwv.T)
    core = np.zeros((2 * r, 2 * r))
    core[:r, :r] = utwv
    core[:r, r:] = r2.T
    core[r:, :r] = r1
    um, sigma, vm = svd_small(core)
    left = np.hstack([u, q1]) @ um[:, :r]
    right = np.hstack([v, q2]) @ vm[:, :r]
    return FactoredLowRank(left, sigma[:r].copy(), right), sigma


def threshold_value(sigma_window, rank, beta, gamma, k):
    """Threshold for iteration k+1: beta * (sigma_{r+1} + gamma^(k+1) * sigma_1).

    ``sigma_window`` holds the descending singular values of the matrix that
    produced the new low-rank iterate; missing trailing values count as zero
    (rank deficiency).
    """
    window = np.asarray(sigma_window, dtype=np.float64)
    sigma_1 = float(window[0]) if window.size > 0 else 0.0
    sigma_r_plus_1 = float(window[rank]) if window.size > rank else 0.0
    return float(beta * (sigma_r_plus_1 + gamma ** (k + 1) * sigma_1))


def hard_threshold(z, zeta, out=None):
    """Keep entries with magnitude strictly above ``zeta``, zero the rest.

    ``z`` must be finite.  The result is built in ``out``, a new array when
    it is None, without a mask: |z|, then 1.0 where that exceeds ``zeta``
    and 0.0 elsewhere, times ``z``, plus 0.0 to turn the -0.0 of dropped
    negative entries into +0.0.  On finite input that equals
    ``np.where(np.abs(z) > zeta, z, 0.0)`` bit for bit; a NaN entry would
    stay NaN (0 * NaN) instead of becoming 0.  A given ``out`` must be a
    float64 array of the shape of ``z`` that shares no memory with it.
    ``z`` is not modified; the result is returned.
    """
    if zeta < 0.0:
        raise ValueError(f"threshold must be non-negative, got {zeta}")
    z = np.asarray(z, dtype=np.float64)
    if out is None:
        out = np.empty_like(z)
    elif out.shape != z.shape or out.dtype != np.float64 or np.shares_memory(out, z):
        raise ValueError("out must be a float64 array of the shape of z that does not overlap it")
    np.abs(z, out=out)
    np.greater(out, zeta, out=out)
    out *= z
    out += 0.0
    return out


def _residual_norm(d, low, sparse, zeta=None):
    """||D - L - S||_F with L = ``low``, in one pass over row tiles of D.

    Each tile of L is formed from the factors, subtracted from D, and, with
    ``zeta``, thresholded into the same rows of ``sparse`` (the sparse
    update); then S is subtracted and the squares are summed.  Without
    ``zeta``, ``sparse`` is only read.  One tile buffer is allocated.
    """
    us, vt = low.U * low.sigma, low.V.T
    tiles = _row_tiles(d.shape)
    buf = np.empty((tiles[0].stop, d.shape[1]))
    total = 0.0
    for t in tiles:
        residual = np.matmul(us[t], vt, out=buf[: t.stop - t.start])
        np.subtract(d[t], residual, out=residual)
        if zeta is not None:
            hard_threshold(residual, zeta, out=sparse[t])
        residual -= sparse[t]
        flat = residual.ravel()
        total += float(flat @ flat)
    return math.sqrt(total)


def _sparse_update(d, low, zeta):
    """S = H_zeta(D - L) and ||D - L - S||_F, from one pass over row tiles.

    S is the only m x n array allocated; ``d`` and ``low`` are only read.
    """
    sparse = np.empty(d.shape)
    residual_norm = _residual_norm(d, low, sparse, zeta)
    return sparse, residual_norm


def initial_sparse_guess(d, params):
    """First thresholding pass of the initialization.

    Returns (S_init, zeta_init) with zeta_init = beta_init * sigma_1(D) and
    S_init the hard thresholding of D at that level.  sigma_1(D) comes from
    :func:`spectral_norm` (Lanczos): a rank-1 subspace iteration stalls when
    the top singular values of D cluster.
    """
    zeta = params.beta_init * spectral_norm(d)
    return hard_threshold(d, zeta), zeta


def initialize(d, params):
    """Build (L_0, S_0) by two projection steps from scratch.

    First D is thresholded at beta_init * sigma_1(D) to strip the largest
    outliers; L_0 is the best rank-r approximation of what remains; S_0 then
    thresholds D - L_0 at beta * sigma_1(D - S_init).  Note the first loop
    threshold differs in form from the schedule used afterwards: it uses the
    top singular value only.

    Returns ``(state, residual_norm)`` like a loop step: the iteration-0
    state and ||D - L_0 - S_0||_F.  ``d`` is validated by
    :func:`spectral_norm` and the rank by :func:`svd_truncated`; the solvers
    validate ``d`` once before calling.
    """
    w, _ = initial_sparse_guess(d, params)
    t0 = perf_counter()
    np.subtract(d, w, out=w)  # W = D - S_init, in the buffer of S_init
    # L_0 is the truncated SVD of W, as in AltProj; there is no previous
    # estimate to project at.
    low, window = svd_truncated(w, params.rank)
    l_seconds = perf_counter() - t0
    del w  # so that S_0 is the only m x n array beside D from here on
    zeta_0 = params.beta * float(low.sigma[0])
    sparse, residual_norm = _sparse_update(d, low, zeta_0)
    return IterationState(low, sparse, 0, zeta_0, window, l_seconds), residual_norm


def _tangent_l_update(low_rank, d, sparse, params):
    """AccAltProj: trim, then truncate the tangent-space projection of W = D - S.

    U^T W and W V are summed over row tiles, so W is never formed.  A tile
    is at least 4r rows high: U_t^T W_t has the tile height as its inner
    dimension, and BLAS runs such a product poorly when that is small next
    to r.
    """
    basis = trim(low_rank, params.mu) if params.trim_enabled else low_rank
    u, v = basis.U, basis.V
    r, n = basis.rank, d.shape[1]
    tiles = _row_tiles(d.shape, floor=4 * r)
    buf = np.empty((tiles[0].stop, n))
    utw = np.zeros((r, n))
    wv = np.empty((d.shape[0], r))
    for t in tiles:
        w = np.subtract(d[t], sparse[t], out=buf[: t.stop - t.start])
        utw += u[t].T @ w
        np.matmul(w, v, out=wv[t])
    return structured_truncate(basis, utw, wv)


def _svd_l_update(low_rank, d, sparse, params):
    # AltProj: truncated SVD of the whole W = D - S, formed in a temporary
    # that is freed on return.
    return svd_truncated(d - sparse, params.rank)


def _step(state, d, params, l_update):
    """One iteration: L-update, next threshold, sparse update.

    ``l_update(low_rank, D, S_k, params)`` returns the next low-rank
    iterate and its singular-value window from W = D - S_k.  ``d`` and
    ``state`` are only read.

    Returns ``(state, residual_norm)`` with residual_norm =
    ||D - L_{k+1} - S_{k+1}||_F.
    """
    t0 = perf_counter()
    low, window = l_update(state.low_rank, d, state.sparse, params)
    l_seconds = perf_counter() - t0
    zeta = threshold_value(window, params.rank, params.beta, params.gamma, state.k)
    sparse, residual_norm = _sparse_update(d, low, zeta)
    return IterationState(low, sparse, state.k + 1, zeta, window, l_seconds), residual_norm


def _solve(d, params, l_update):
    d = ensure_matrix(d, "D")
    d_norm = float(np.linalg.norm(d))
    if d_norm == 0.0:
        raise ValueError("cannot decompose an identically zero matrix")
    trace = ConvergenceTrace()
    state, err = None, math.inf
    while err >= params.epsilon and (state is None or state.k < params.max_iter):
        t0 = perf_counter()
        if state is None:
            state, residual_norm = initialize(d, params)
        else:
            state, residual_norm = _step(state, d, params, l_update)
        iter_seconds = perf_counter() - t0
        err = residual_norm / d_norm
        trace.add(state, err, iter_seconds=iter_seconds)
    return RpcaSolution(state.low_rank, state.sparse, trace, converged=bool(err < params.epsilon))


def accaltproj_solve(d, params):
    """Decompose D into rank-r plus sparse with the accelerated solver.

    Iterates until the relative residual ||D - L_k - S_k||_F / ||D||_F drops
    below ``params.epsilon`` or ``params.max_iter`` iterations have run.
    Deterministic for fixed inputs.
    """
    return _solve(d, params, _tangent_l_update)


def altproj_solve(d, params):
    """Baseline alternating projections with the input rank held fixed.

    Each iteration truncates the SVD of D - S_k directly (no tangent-space
    projection) and applies the same threshold schedule, driven by the
    singular values of D - S_k, with the same stopping rule as
    :func:`accaltproj_solve`.
    """
    return _solve(d, params, _svd_l_update)
