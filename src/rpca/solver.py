"""Low-rank + sparse decomposition by accelerated alternating projections.

The solver splits a dense matrix D into a rank-r part L and a sparse part S.
Each iteration first projects the residual D - S onto the tangent space of
the rank-r manifold at the current estimate, which depends only on the spans
of its factors (over-budget rows trimmed first), and so compresses D - S to
a rank-2r object; the best rank-r truncation then only needs two tall-skinny
QR factorizations and one 2r x 2r SVD instead of a full-size SVD.  The sparse
part is updated by entrywise hard thresholding with a geometrically decaying
threshold.  A plain alternating-projections baseline (full truncated SVD per
iteration, its sketch started from the previous right factor) is provided
for comparison.

Each iteration makes one pass over D, and the accelerated loop keeps no
m x n array.  The solvers differ only in the L-update, whose class is the
solver: the entry points pass it down, and it states its row-0
certificate ``row0_rtol``.  The sparse pass builds L_{k+1}, D - L_{k+1},
S_{k+1} = H_zeta(D - L_{k+1}), W_{k+1} = D - S_{k+1} and the residual norm
over row tiles, each tile of S in a tile buffer, and writes W_{k+1} into
the ``buffer()`` of the next update, built by its class from the last,
handing it each of its ``blocks`` by ``add``; the next step calls
``truncate()``.  AccAltProj's (:class:`_Gather`) sums blocks of whole
tiles, 4r rows or more, into U'^T W and W V' at (U', V') = trim(L_{k+1})
for the structured truncation, and its subclass :class:`_Untrimmed`, the
no-trim ablation, at L_{k+1} itself; AltProj's (:class:`_Stored`) holds
W_{k+1} as one block, the solve's one m x n array, for its truncated SVD.
L_0 is the truncated SVD of D - S_init with no start, to ``row0_rtol``.  The loop
(:func:`_solve`) ends with L_K and a trace whose last zeta_K gives the rest
of the answer, S_K = H_zeta_K(D - L_K).  S itself is built by one more pass
with :func:`hard_threshold` (:func:`_sparse_tiles`), for a caller that reads it
only, once the last state, and with it the baseline's W_K, is gone.  The
entry points build it whole, as ``RpcaSolution.sparse``, so a solve through
them peaks at D plus the returned S (accelerated) or at D plus its one array
(baseline), each with row tiles and thin factors; ``rpca solve`` writes it
tile by tile, and the experiment harnesses, which read L only, never build
it.  Every pass forms D - L tile by tile in one place,
:func:`_residual_tiles`.

The schedule starts above every corrupted entry, so a solve usually opens
with a run of idle iterations.  While every sparse iterate is zero, S_init
included, W = D - S_k = D and L_k is the rank-r truncation of D, so a step
changes only k and zeta: S_{k+1} = H_zeta(D - L_k) stays zero as long as
zeta_{k+1} >= max|D - L_k|.  The sparse pass records max|D - L| while that
prefix lasts; once one loop step has taken S_k = 0 to S_{k+1} = 0, each
following k whose threshold is at least that maximum is advanced without
computing, keeping what the last pass handed on, and logged as a
``skipped`` trace row with its own zeta.  The next step whose S would be
nonzero runs in full.  The skipped steps would return L again, but not bit
for bit: the baseline's truncation starts its sketch from V_k, and the
accelerated solver projects at L_k, which its first step, from an L_0
certified to 1e-6 only, leaves near the truncation of D but not at it.  The
later zeta and L agree with the fully computed loop to the tolerances
measured in :func:`_skipped_step`.
``initialize`` likewise truncates D itself when no entry exceeds the first
threshold, and its Lanczos run for sigma_1(D), which sets that threshold,
stops as soon as a lower bound shows this.

The solver entry points are pure functions of their arguments: D is only
read, and each solve allocates its own arrays, so concurrent solves never
share mutable state.  States and parameter sets are frozen, but inside a
baseline solve a state is not a snapshot: the next step writes over its
``w``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from .kernel import (
    _CERTIFY_RTOL,
    FactoredLowRank,
    ensure_fields,
    ensure_matrix,
    spectral_norm,
    svd_small,
    svd_truncated,
    thin_qr,
)

# A pass over an m x n operand goes in row tiles of about 1/_TILES of its
# rows, so that a tile adds little to the peak memory, clamped to between
# 64 KiB of float64 (below which the per-tile overhead shows) and 256 KiB
# (above which the tiles a pass touches drop out of cache).
_TILES = 16
_TILE_BYTES = (64 * 1024, 256 * 1024)

__all__ = [
    "IterationRecord",
    "IterationState",
    "RpcaParams",
    "RpcaSolution",
    "accaltproj_solve",
    "altproj_solve",
    "hard_threshold",
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

    def __post_init__(self):
        ensure_fields(self)
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
    def defaults(cls, shape, rank, mu, **overrides):
        """Parameter set from the standard experimental choices.

        beta = 1.1 mu r / (2 sqrt(mn)) and beta_init = 1.1 mu r / sqrt(mn);
        the other fields keep their defaults.  Any field can be overridden
        by keyword.
        """
        m, n = shape
        scale = 1.1 * mu * rank / math.sqrt(m * n)
        values = dict(rank=rank, mu=mu, beta=scale / 2.0, beta_init=scale)
        values.update(overrides)
        return cls(**values)


@dataclass(frozen=True)
class IterationState:
    """Solver state after iteration ``k``.

    The state holds no S.  S_k is H_zeta(D - L_k) with zeta = ``zeta``, and
    ``w`` is the L-update that reads W_k = D - S_k, as the sparse pass that
    built S_k handed it on: a :class:`_Gather` (AccAltProj) or a
    :class:`_Stored` (AltProj), whose m x n array passes from state to state.
    ``sigma_window`` holds the singular values (descending) of the matrix
    whose truncation produced ``low_rank``: the projected residual during
    the main loop, the thresholded data during initialization.  Where that
    truncation is :func:`svd_truncated`, the value after the first r is its
    next Ritz value, a lower bound on sigma_{r+1} that moves with the
    number of sweeps run.  AccAltProj's row 0 is certified to 1e-6 only
    (``_Gather.row0_rtol``), so that value is loose there; no threshold
    reads it, since zeta_0 reads sigma_1 and later steps have their own.
    ``l_update_seconds`` is the wall time of the whole L-update that built
    ``low_rank``: the truncation, plus the ``seconds`` of the update that it
    ran, which for AccAltProj are the trim and the gathered products of the
    sparse pass before it.  So it is no sub-interval of the step's own time.
    At k = 0 it is the truncation of D - S_init, and 0 if the step skipped.
    ``max_abs_dl`` is max|D - L_k| while S_init and every S_j up to S_k are
    zero, else None; it decides which steps :func:`_solve` may skip.
    """

    low_rank: FactoredLowRank
    w: object
    k: int
    zeta: float
    sigma_window: np.ndarray
    l_update_seconds: float = 0.0
    max_abs_dl: float | None = None


@dataclass(frozen=True)
class IterationRecord:
    """One trace row.  A ``skipped`` row is an idle step that was not
    computed: it has its own k and zeta, the err and sigma_window of the
    last computed row, and zero timings."""

    k: int
    err: float
    zeta: float
    sigma_window: np.ndarray
    iter_seconds: float
    l_update_seconds: float
    skipped: bool


@dataclass
class RpcaSolution:
    """A solve's output; ``trace`` holds its IterationRecord rows, k = 0 first."""

    low_rank: FactoredLowRank
    sparse: np.ndarray
    trace: list[IterationRecord]
    converged: bool

    @property
    def iterations(self):
        return self.trace[-1].k

    @property
    def final_err(self):
        return self.trace[-1].err


def trim(low_rank, mu):
    """Orthonormal bases of the factors with over-budget rows rescaled.

    Row i of U is scaled by min(1, c_m / ||U_(i)||) with c_m = sqrt(mu r / m);
    rows of V analogously with c_n = sqrt(mu r / n).  When nothing exceeds
    its budget the input is returned unchanged.  Otherwise U and V become the
    Q factors of thin QRs of the scaled factors, orthonormal bases of their
    spans, which is all the tangent projection at the trimmed matrix reads.
    ``sigma`` is carried over from the input, so ``matrix()`` of the result
    is not the trimmed matrix: the result never leaves the L-update.
    """
    u, v = low_rank.U, low_rank.V
    cap_u, cap_v = (math.sqrt(mu * low_rank.rank / k) for k in low_rank.shape)
    u_norms = np.linalg.norm(u, axis=1)
    v_norms = np.linalg.norm(v, axis=1)
    if (u_norms <= cap_u).all() and (v_norms <= cap_v).all():
        return low_rank
    with np.errstate(divide="ignore"):
        u_scale = np.minimum(1.0, cap_u / u_norms)
        v_scale = np.minimum(1.0, cap_v / v_norms)
    qa, _ = thin_qr(u * u_scale[:, None])
    qb, _ = thin_qr(v * v_scale[:, None])
    return low_rank._replace(U=qa, V=qb)


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
    (r x n) and ``wv`` = W V (m x r), products with the factors of
    ``low_rank`` whose shapes are not checked.  The projection of W at the
    basis (U, V) factors as [U Q1] M [V Q2]^T with M a 2r x 2r core built
    from two thin QR factorizations, so the truncation reduces to a small
    SVD; neither W nor its projection is formed.  Returns the truncated
    factorization and all 2r singular values of the core (descending),
    which drive the threshold schedule.
    """
    u, v = low_rank.U, low_rank.V
    r = low_rank.rank
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
    produced the new low-rank iterate; sigma_{r+1} is 0 where r = min(m, n).
    """
    window = np.asarray(sigma_window, dtype=np.float64)
    sigma_r_plus_1 = float(window[rank]) if window.size > rank else 0.0
    return float(beta * (sigma_r_plus_1 + gamma ** (k + 1) * float(window[0])))


def hard_threshold(z, zeta, out=None):
    """Keep entries with magnitude strictly above ``zeta``, zero the rest.

    ``z`` must be finite.  The result is built in ``out``, a new array when
    it is None, without a mask: |z|, then 1.0 where that exceeds ``zeta``
    and 0.0 elsewhere, times ``z``, plus 0.0 to turn the -0.0 of dropped
    negative entries into +0.0.  On finite input that equals
    ``np.where(np.abs(z) > zeta, z, 0.0)`` bit for bit; a NaN entry would
    stay NaN (0 * NaN) instead of becoming 0.  A given ``out`` must be a
    float64 array of the shape of ``z`` that shares no memory with it; this
    is not checked.  ``z`` is not modified; the result is returned.
    """
    if zeta < 0.0:
        raise ValueError(f"threshold must be non-negative, got {zeta}")
    z = np.asarray(z, dtype=np.float64)
    if out is None:
        out = np.empty_like(z)
    np.abs(z, out=out)
    np.greater(out, zeta, out=out)
    out *= z
    out += 0.0
    return out


class _Gather:
    """AccAltProj's L-update: U^T W and W V at the basis trim(L) of the iterate L.

    These sums over row blocks of W = D - S are all the update reads of W,
    and :meth:`basis_of` gives the basis.  A block is a run of whole tiles
    of :func:`_row_tiles`, 4r rows or more but the last: U_t^T W_t has the
    block height as its inner dimension, which BLAS runs poorly when small
    next to r.  Blocks are added in order.  ``previous``, the update this
    one follows, is not read: each gathers afresh.  ``seconds`` sums the
    wall time of the trim and of each ``add``, one clock pair per block."""

    # The residual, relative to sigma_1, to which ``initialize`` certifies
    # the truncation of D - S_init: the loop refines L_0 at about rate gamma,
    # and no threshold reads more of that truncation than sigma_1 (see
    # _skipped_step).
    row0_rtol = 1e-6

    def __init__(self, low, shape, params, previous=None):
        t0 = perf_counter()
        self.basis = self.basis_of(low, params.mu)
        self.seconds = perf_counter() - t0
        r, tile = self.basis.rank, _row_tiles(shape)[0].stop
        self.blocks = _row_tiles(shape, floor=-(-4 * r // tile) * tile)
        self.utw, self.wv = np.zeros((r, shape[1])), np.empty((shape[0], r))

    @staticmethod
    def basis_of(low, mu):
        """trim(L), with ``trim`` looked up in this module at each call."""
        return trim(low, mu)

    def buffer(self):
        """A new buffer for the rows of one block; the first block is the tallest."""
        return np.empty((self.blocks[0].stop, self.utw.shape[1]))

    def add(self, block, w):
        """Add the rows ``block`` of W, given as ``w``."""
        t0 = perf_counter()
        self.utw += self.basis.U[block].T @ w
        np.matmul(w, self.basis.V, out=self.wv[block])
        self.seconds += perf_counter() - t0

    def truncate(self):
        """The structured truncation of the tangent-space projection of W."""
        return structured_truncate(self.basis, self.utw, self.wv)


class _Untrimmed(_Gather):
    """AccAltProj's L-update without trim, the ablation: it projects at L itself."""

    @staticmethod
    def basis_of(low, mu):
        return low


class _Stored:
    """AltProj's L-update: the truncated SVD of W, its sketch started from V of the iterate L.

    W is one block, the solve's one m x n array, which the pass writes in
    place, so ``add`` does nothing and ``seconds`` stays 0; an update takes
    over the array of ``previous``, the update it follows, or allocates one
    if that is None."""

    # Row 0 keeps 1e-10: V_0 starts the first loop truncation, whose (r+1)-th
    # Ritz value, read by the schedule, depends on where its sweeps start.
    row0_rtol = _CERTIFY_RTOL
    seconds = 0.0

    def __init__(self, low, shape, params, previous=None):
        self.low, self.blocks = low, [slice(0, shape[0])]
        self.array = np.empty(shape) if previous is None else previous.array

    def buffer(self):
        return self.array

    def add(self, block, w):
        pass

    def truncate(self):
        return svd_truncated(self.array, self.low.rank, self.low.V)


def _residual_tiles(d, low):
    """An iterator of ``(t, D_t - L_t)`` over the row tiles of :func:`_row_tiles`, L = ``low``.

    Each tile of L is formed from the factors into one reused tile buffer
    and subtracted from D there; the receiver may write over it.  The buffer
    is allocated by this call, before a pass allocates its own: the other
    order made a gathering pass 4-6% slower at n = 1000 and 2000 (1 BLAS
    thread, 2 cores).
    """
    us, vt = low.U * low.sigma, low.V.T
    tiles = _row_tiles(d.shape)
    buf = np.empty((tiles[0].stop, d.shape[1]))

    def residual(t):
        dl = np.matmul(us[t], vt, out=buf[: t.stop - t.start])
        return t, np.subtract(d[t], dl, out=dl)

    return map(residual, tiles)


def _tiled_pass(d, low, zeta, w, track_max):
    """S = H_zeta(D - L) with L = ``low``, in one pass over row tiles of D.

    Each tile of D - L (:func:`_residual_tiles`) has its tile of S
    thresholded from it into its rows of ``w.buffer()``, then turned in
    place into W = D - S, so S is never stored whole.  ``w``, the next
    L-update, gets each of its ``blocks`` by ``w.add`` once the block's last
    tile is done; S, W and the norm do not depend on the blocks.  The part
    of D - L that S did not take gives ||D - L - S||_F.  The tile of S skips
    :func:`hard_threshold`'s +0.0: no output reads the sign of its zeros.

    Returns ``(norm, max_abs_dl)``: with ``track_max``, max|D - L| while S is
    zero (max|D - L| <= zeta), else None.
    """
    residuals = _residual_tiles(d, low)
    buf, blocks = w.buffer(), iter(w.blocks)
    block = next(blocks)
    total, max_abs_dl = 0.0, 0.0
    for t, residual in residuals:
        s = buf[t.start - block.start : t.stop - block.start]
        np.abs(residual, out=s)
        if track_max:
            max_abs_dl = max(max_abs_dl, float(s.max()))
        np.greater(s, zeta, out=s)
        s *= residual
        residual -= s
        np.subtract(d[t], s, out=s)  # W = D - S over its tile of S
        flat = residual.ravel()
        total += float(flat @ flat)
        if t.stop == block.stop:
            w.add(block, buf[: block.stop - block.start])
            block = next(blocks, block)
    return math.sqrt(total), (max_abs_dl if track_max and max_abs_dl <= zeta else None)


def _sparse_tiles(d, low, zeta, out=None):
    """The row tiles of S = H_zeta(D - L), L = ``low``, top to bottom.

    The tiles are those of the sparse pass (:func:`_residual_tiles`), and
    each is thresholded from D_t - L_t with :func:`hard_threshold` itself,
    so S is the pass's S bit for bit, with +0.0 for each dropped entry.  A
    tile is written into its rows of ``out``, an m x n array, or, when
    ``out`` is None, into one reused tile buffer, which the receiver must be
    done with before it asks for the next tile.
    """
    residuals = _residual_tiles(d, low)
    buf = None if out is not None else np.empty((_row_tiles(d.shape)[0].stop, d.shape[1]))
    for t, residual in residuals:
        s = out[t] if out is not None else buf[: t.stop - t.start]
        yield hard_threshold(residual, zeta, out=s)


def _sparse_part(d, low, zeta):
    """S = H_zeta(D - L) with L = ``low``, as a new m x n array.

    :func:`_sparse_tiles` writes it tile by tile; one tile buffer is
    allocated besides.
    """
    sparse = np.empty(d.shape)
    for _ in _sparse_tiles(d, low, zeta, out=sparse):
        pass
    return sparse


def initialize(d, params, update):
    """Build (L_0, S_0) by two projection steps from scratch.

    First D is thresholded at beta_init * sigma_1(D) to strip the largest
    outliers, which gives S_init.  L_0 is the best rank-r approximation of
    D - S_init, since there is no estimate yet to project at: its truncated
    SVD with no start, certified to ||A v_i - sigma_i u_i|| <= rtol sigma_1
    with rtol = ``update.row0_rtol``.  S_0 then thresholds D - L_0 at
    beta * sigma_1(D - S_init), a threshold that, unlike the later schedule,
    uses the top singular value only.  When no entry of D exceeds the first
    threshold, S_init is zero and D itself is truncated, with the same bits.
    Lanczos (:func:`spectral_norm`) stops as soon as its lower bound on
    sigma_1(D) reaches max|D| / beta_init, which proves this; its first
    step, two matrix-vector products, usually does.  Only a certified
    sigma_1(D) says otherwise, and D is then thresholded at beta_init times
    it, into an m x n array that the truncation forms D - S_init over.  S_0
    comes from :func:`_tiled_pass`, the sparse pass of every loop step,
    which hands W_0 = D - S_0 on to the first loop L-update, built at L_0 by
    ``update``, the solver's class: :class:`_Gather`, or :class:`_Stored`,
    whose array is allocated once S_init is freed.

    Returns ``(state, residual_norm)`` like a loop step: the iteration-0
    state and ||D - L_0 - S_0||_F.  ``d``, a non-empty finite float64
    matrix, is not checked (the solvers validate it before calling), the
    rank is checked by :func:`svd_truncated`, and ``d`` is only read.
    """
    max_abs_d = max(float(d.max()), -float(d.min()))
    level = max_abs_d / params.beta_init
    sigma_1 = spectral_norm(d, level)
    idle = sigma_1 >= level
    s_init = None if idle else hard_threshold(d, params.beta_init * sigma_1)
    t0 = perf_counter()
    low, window = svd_truncated(
        d if idle else np.subtract(d, s_init, out=s_init), params.rank, rtol=update.row0_rtol
    )
    l_seconds = perf_counter() - t0
    del s_init  # D - S_init, read by the truncation only
    zeta_0 = params.beta * float(low.sigma[0])
    w = update(low, d.shape, params)
    norm, max_abs_dl = _tiled_pass(d, low, zeta_0, w, track_max=idle)
    return IterationState(low, w, 0, zeta_0, window, l_seconds, max_abs_dl), norm


def _step(state, d, params):
    """One iteration: L-update, next threshold, sparse pass.

    ``state.w.truncate()`` is the L-update, from what the last sparse pass
    handed on of W_k = D - S_k; its time adds to ``state.w.seconds``.  :func:`_tiled_pass` then builds S_{k+1}
    and hands W_{k+1} to the update built from ``state.w`` at L_{k+1}, which
    for AltProj takes the array over and so spends it.  ``d`` is only read.

    Returns ``(state, residual_norm)`` with residual_norm =
    ||D - L_{k+1} - S_{k+1}||_F.  max|D - L_{k+1}| is tracked while the
    input state tracks it (see :class:`IterationState`).
    """
    t0 = perf_counter()
    low, window = state.w.truncate()
    l_seconds = state.w.seconds + (perf_counter() - t0)
    zeta = threshold_value(window, params.rank, params.beta, params.gamma, state.k)
    w = type(state.w)(low, d.shape, params, previous=state.w)
    norm, max_abs_dl = _tiled_pass(d, low, zeta, w, track_max=state.max_abs_dl is not None)
    return IterationState(low, w, state.k + 1, zeta, window, l_seconds, max_abs_dl), norm


def _skipped_step(state, params):
    """The state after step k+1 if that step is idle and need not run, else None.

    The step is idle after a loop step that took S = 0 to S = 0 with S_init
    zero too: then L_k is the rank-r truncation of W = D, a fixed point of
    either L-update up to rounding, so the step would keep L, the window
    and err, and S_{k+1} = H_zeta(D - L_k) is zero while
    zeta_{k+1} >= max|D - L_k|.  The baseline's truncation, whose sketch
    starts from V_k, keeps them to rounding only: the skipped rows' zeta
    differ from computed ones by up to 1e-11 relative and the final L by up
    to 1e-13.  The accelerated solver's L_0 is certified to 1e-6 only
    (``_Gather.row0_rtol``), so its first loop step, which projects at L_0,
    leaves L_1 near the truncation of D but not at it, and the skipped steps
    would each have moved it a little further.  The loop contracts that
    difference: on the benchmark's 27 accelerated problems (1000 x 1000 at
    r = 5, 1200 x 1200 at r = 50 and 2000 x 2000 at r = 5, mu 1.1 times the
    true incoherence) a solve's zeta agree with the fully computed loop's
    to 3.6e-11 relative and its final L to 3.5e-15.  Where trim fires on
    L_k (mu at or below the true incoherence), the accelerated update
    projects at the trimmed basis and would move L a little: the skipped
    rows' zeta then differ from computed ones by up to 1e-4 relative, while
    the final L agrees to rounding.
    """
    if state.max_abs_dl is None or state.k < 1:
        return None
    zeta = threshold_value(state.sigma_window, params.rank, params.beta, params.gamma, state.k)
    if zeta < state.max_abs_dl:
        return None
    return replace(state, k=state.k + 1, zeta=zeta, l_update_seconds=0.0)  # w stays valid


def _record(state, err, iter_seconds, skipped=False):
    """The trace row of ``state``, for computed and skipped steps alike."""
    window = np.array(state.sigma_window, dtype=np.float64)
    return IterationRecord(
        state.k, err, float(state.zeta), window, iter_seconds, state.l_update_seconds, skipped
    )


def _checked_norm(d):
    """||D||_F of a finite float64 ``d``; ValueError unless it lies in [2^-400, 2^400]."""
    with np.errstate(over="ignore"):  # an overflow gives inf, which the range rejects
        d_norm = float(np.linalg.norm(d))
    # ||D||^2 stays finite, and squared residuals normal for epsilon >= 1e-29 up to n = 15000
    if not 2.0**-400 <= d_norm <= 2.0**400:
        raise ValueError(
            f"D is zero or out of scale: ||D||_F = {d_norm:.3g}, not in [2^-400, 2^400]; rescale D"
        )
    return d_norm


def _solve(d, params, update):
    """The loop of ``update``'s solver: ``(L_K, trace, converged)``, and no S.

    S_K = H_zeta_K(D - L_K), zeta_K the last row's, is built by its reader
    with :func:`_sparse_tiles`.  ``d``, a finite float64 row-major matrix
    as :func:`ensure_matrix` returns it, is not checked here.
    """
    d_norm = _checked_norm(d)
    t0 = perf_counter()
    state, residual_norm = initialize(d, params, update)
    err = residual_norm / d_norm
    trace = [_record(state, err, perf_counter() - t0)]
    while err >= params.epsilon and state.k < params.max_iter:
        if (skipped := _skipped_step(state, params)) is not None:
            state = skipped
            trace.append(_record(state, err, 0.0, skipped=True))
            continue
        t0 = perf_counter()
        state, residual_norm = _step(state, d, params)
        err = residual_norm / d_norm
        trace.append(_record(state, err, perf_counter() - t0))
    return state.low_rank, trace, bool(err < params.epsilon)


def _solution(d, params, update):
    """The entry points' :class:`RpcaSolution`; S_K is built once the loop,
    and with it AltProj's W_K, is gone."""
    d = ensure_matrix(d, "D")
    low, trace, converged = _solve(d, params, update)
    return RpcaSolution(low, _sparse_part(d, low, trace[-1].zeta), trace, converged)


def accaltproj_solve(d, params):
    """Decompose D into rank-r plus sparse with the accelerated solver.

    Iterates until the relative residual ||D - L_k - S_k||_F / ||D||_F drops
    below ``params.epsilon`` or ``params.max_iter`` iterations have run.
    Every L-update projects at the trimmed iterate, as in the paper's
    algorithm; the no-trim ablation is the solver id ``accaltproj_notrim``
    of the harnesses and of ``rpca solve --solver``.  Deterministic for
    fixed inputs.
    """
    return _solution(d, params, _Gather)


def altproj_solve(d, params):
    """Baseline alternating projections with the input rank held fixed.

    Each iteration truncates the SVD of D - S_k directly (no tangent-space
    projection), from a sketch started at the previous right factor V_k, and
    applies the same threshold schedule, driven by the singular values of
    D - S_k, with the same stopping rule as :func:`accaltproj_solve`.
    """
    return _solution(d, params, _Stored)
