"""Seeded generation of synthetic low-rank + sparse decomposition problems.

The low-rank part is L = P Q^T with i.i.d. standard normal factor entries.
The corrupted positions are a uniform sample (without replacement) of
floor(alpha * m * n) entries, and the corruption values are i.i.d. uniform on
[-c * a, c * a] where a is the empirical mean of |L| over all entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import svd_truncated
from .metrics import factor_incoherence

__all__ = ["RNG_ID", "SyntheticProblem", "SyntheticSpec", "generate"]

# Generator identity recorded alongside outputs for reproducibility.
RNG_ID = "numpy-pcg64"


@dataclass(frozen=True)
class SyntheticSpec:
    """Generation parameters for one random test problem."""

    m: int
    n: int
    rank: int
    alpha: float       # fraction of corrupted entries in [0, 1)
    amplitude: float   # corruption magnitude factor c > 0
    seed: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"dimensions must be positive, got {self.m} x {self.n}")
        if not 1 <= self.rank <= min(self.m, self.n):
            raise ValueError(f"rank {self.rank} out of range for a {self.m} x {self.n} matrix")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha}")
        if self.amplitude <= 0.0:
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @property
    def support_size(self):
        return int(self.alpha * self.m * self.n)


@dataclass(frozen=True)
class SyntheticProblem:
    """Ground truth D = L + S together with its generation record."""

    data: np.ndarray       # D
    low_rank: np.ndarray   # L
    sparse: np.ndarray     # S
    support: np.ndarray    # sorted flat row-major indices of the corrupted entries
    spec: SyntheticSpec
    mu_true: float
    kappa_true: float


def _sample_support(rng, total, count):
    # Uniform subset without replacement.  Rejection sampling keeps memory at
    # O(count) for sparse supports; dense supports fall back to a permutation.
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if count > total // 2:
        return np.sort(rng.permutation(total)[:count].astype(np.int64))
    picked = np.empty(0, dtype=np.int64)
    while picked.size < count:
        draw = rng.integers(0, total, size=count, dtype=np.int64)
        pool = np.concatenate([picked, draw])
        _, first = np.unique(pool, return_index=True)
        picked = pool[np.sort(first)]  # keep first-occurrence order: unbiased
    return np.sort(picked[:count])


def generate(spec):
    """Draw the problem described by ``spec``; deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    p = rng.standard_normal((spec.m, spec.rank))
    q = rng.standard_normal((spec.n, spec.rank))
    low = p @ q.T

    support = _sample_support(rng, spec.m * spec.n, spec.support_size)
    sparse = np.zeros((spec.m, spec.n))
    if support.size:
        bound = spec.amplitude * float(np.mean(np.abs(low)))
        sparse.ravel()[support] = rng.uniform(-bound, bound, size=support.size)

    factored, _ = svd_truncated(low, spec.rank)
    return SyntheticProblem(
        data=low + sparse,
        low_rank=low,
        sparse=sparse,
        support=support,
        spec=spec,
        mu_true=factor_incoherence(factored.U, factored.V),
        kappa_true=float(factored.sigma[0] / factored.sigma[-1]),
    )
