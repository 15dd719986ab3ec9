"""Low-rank + sparse decomposition by accelerated alternating projections.

The solver splits a dense matrix D into a rank-r part L and a sparse part S.
Each iteration first projects the residual D - S onto the tangent space of
the rank-r manifold at the (trimmed) current estimate, which compresses it to
a rank-2r object; the best rank-r truncation then only needs two tall-skinny
QR factorizations and one 2r x 2r SVD instead of a full-size SVD.  The sparse
part is updated by entrywise hard thresholding with a geometrically decaying
threshold.  A plain alternating-projections baseline (full truncated SVD per
iteration) is provided for comparison.

All solver entry points are pure functions of their arguments (states and
parameter sets are frozen), so concurrent solves never share mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .kernel import ensure_matrix, spectral_norm, svd_small, svd_truncated, thin_qr

__all__ = [
    "ConvergenceTrace",
    "FactoredLowRank",
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
    "tangent_project",
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
class FactoredLowRank:
    """Thin factorization U diag(sigma) V^T of a rank-r estimate."""

    U: np.ndarray      # (m, r), orthonormal columns
    sigma: np.ndarray  # (r,), descending, non-negative
    V: np.ndarray      # (n, r), orthonormal columns

    @property
    def shape(self):
        return (self.U.shape[0], self.V.shape[0])

    @property
    def rank(self):
        return int(self.sigma.size)

    def matrix(self, out=None):
        """Dense reconstruction U diag(sigma) V^T.

        With ``out``, a C-contiguous float64 array of shape :attr:`shape`,
        the product is written into it and ``out`` is returned; no m x n
        buffer is allocated.
        """
        return np.matmul(self.U * self.sigma, self.V.T, out=out)

    @classmethod
    def from_svd(cls, svd_result):
        return cls(svd_result.U, svd_result.sigma, svd_result.V)


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


def _check_conforming(low_rank, z):
    if z.shape != low_rank.shape:
        raise ValueError(
            f"matrix shape {z.shape} does not match factorization shape {low_rank.shape}"
        )


def tangent_project(low_rank, z):
    """Project ``z`` onto the tangent space of the rank-r manifold at ``low_rank``.

    Dense reference form U U^T Z + Z V V^T - U U^T Z V V^T, intended for
    tests and small problems; the solver itself uses the factored route in
    :func:`structured_truncate`.
    """
    _check_conforming(low_rank, z)
    u, v = low_rank.U, low_rank.V
    utz = u.T @ z
    return u @ utz + ((z @ v) - u @ (utz @ v)) @ v.T


def structured_truncate(low_rank, w):
    """Best rank-r approximation of the tangent-space projection of ``w``.

    r is the rank of ``low_rank``.  The projection of ``w`` at the basis
    (U, V) factors as [U Q1] M [V Q2]^T with M a 2r x 2r core built from two
    thin QR factorizations, so the truncation reduces to a small SVD; the
    projected matrix is never formed densely.  Returns the truncated
    factorization together with all 2r singular values of the core
    (descending), which drive the threshold schedule.
    """
    w = np.asarray(w)
    _check_conforming(low_rank, w)
    u, v = low_rank.U, low_rank.V
    r = low_rank.rank
    utw = u.T @ w
    wv = w @ v
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


def hard_threshold(z, zeta):
    """Keep entries with magnitude strictly above ``zeta``, zero the rest.

    ``z`` must be finite.  The result is built in one new array, without a
    mask: |z|, then 1.0 where that exceeds ``zeta`` and 0.0 elsewhere, times
    ``z``, plus 0.0 to turn the -0.0 of dropped negative entries into +0.0.
    On finite input that equals ``np.where(np.abs(z) > zeta, z, 0.0)`` bit
    for bit; a NaN entry would stay NaN (0 * NaN) instead of becoming 0.
    ``z`` is not modified.
    """
    if zeta < 0.0:
        raise ValueError(f"threshold must be non-negative, got {zeta}")
    z = np.asarray(z, dtype=np.float64)
    out = np.abs(z)
    np.greater(out, zeta, out=out)
    out *= z
    out += 0.0
    return out


def _sparse_update(d, low, zeta, work):
    """S = H_zeta(D - L), with ``work`` left holding the residual D - L - S.

    ``work`` (shape of ``d``, C-contiguous float64) receives L, then D - L,
    then D - L - S, so S is the only m x n array allocated.  Its previous
    contents are overwritten; ``d`` and ``low`` are only read.
    """
    low.matrix(out=work)
    np.subtract(d, work, out=work)
    sparse = hard_threshold(work, zeta)
    work -= sparse
    return sparse


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

    Returns ``(state, residual)`` like a loop step: the iteration-0 state and
    D - L_0 - S_0.  The residual is the workspace that the first
    :func:`_step` overwrites.  ``d`` is validated by :func:`spectral_norm`
    and the rank by :func:`svd_truncated`; the solvers validate ``d`` once
    before calling.
    """
    s_init, _ = initial_sparse_guess(d, params)
    t0 = perf_counter()
    work = d - s_init
    del s_init  # so that at most D, the workspace and one S are live
    # L_0 is an AltProj L-update of D - S_init; it needs no previous estimate.
    low, window = _svd_l_update(None, work, params)
    l_seconds = perf_counter() - t0
    zeta_0 = params.beta * float(low.sigma[0])
    sparse = _sparse_update(d, low, zeta_0, work)
    return IterationState(low, sparse, 0, zeta_0, window, l_seconds), work


def _tangent_l_update(low_rank, w, params):
    # AccAltProj: trim, then truncate the tangent-space projection of W = D - S.
    basis = trim(low_rank, params.mu) if params.trim_enabled else low_rank
    return structured_truncate(basis, w)


def _svd_l_update(low_rank, w, params):
    # AltProj: truncated SVD of the whole W = D - S.
    f = svd_truncated(w, params.rank)
    return FactoredLowRank.from_svd(f), f.window


def _step(state, d, params, l_update, work):
    """One iteration: L-update, next threshold, sparse update.

    ``work`` is the m x n workspace (shape of ``d``, C-contiguous float64),
    in the solvers the residual that the previous step or :func:`initialize`
    returned.  It first receives W = D - S_k, which
    ``l_update(low_rank, W, params)`` reads, then the sparse update.
    ``d`` and ``state`` are only read.

    Returns ``(state, residual)`` with residual = D - L_{k+1} - S_{k+1}: that
    is ``work`` itself, which the next step overwrites.
    """
    t0 = perf_counter()
    np.subtract(d, state.sparse, out=work)
    low, window = l_update(state.low_rank, work, params)
    l_seconds = perf_counter() - t0
    zeta = threshold_value(window, params.rank, params.beta, params.gamma, state.k)
    sparse = _sparse_update(d, low, zeta, work)
    return IterationState(low, sparse, state.k + 1, zeta, window, l_seconds), work


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
            state, residual = initialize(d, params)
        else:
            state, residual = _step(state, d, params, l_update, residual)
        iter_seconds = perf_counter() - t0
        err = float(np.linalg.norm(residual) / d_norm)
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
