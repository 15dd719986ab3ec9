"""Seeded generation of synthetic low-rank + sparse decomposition problems.

The low-rank part is L = P Q^T with i.i.d. standard normal factor entries.
The corrupted positions are a uniform sample (without replacement) of
floor(alpha * m * n) entries, and the corruption values are i.i.d. uniform on
[-c * a, c * a] where a is the empirical mean of |L| over all entries.

The positions are rejection-sampled against a byte map of the entries drawn
so far (a permutation prefix when more than half are corrupted), so sampling
needs m * n bytes beside O(alpha m n) indices and sorts no pool of draws.
:func:`generate` peaks at about 3 + alpha m x n float64 buffers: L, S, the
support and D = L + S.
"""

from __future__ import annotations

import math
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
        if not 0.0 < self.amplitude < math.inf:  # NaN fails both comparisons
            raise ValueError(f"amplitude must be positive and finite, got {self.amplitude}")
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
    # A uniform subset of `count` of range(total), returned sorted.  A byte
    # map `seen` marks what has been drawn (total bytes, 1/8 of a float64
    # buffer).  Sparse supports are rejection-sampled: each round draws
    # `count` indices and marks those not seen before, until `count` are
    # marked; the last round keeps only its first new indices in stream
    # order, which makes the subset uniform.  Dense supports mark a prefix of
    # a permutation.  No pool is sorted, and the map reads out in order.
    seen = np.zeros(total, dtype=bool)
    if count > total // 2:
        seen[rng.permutation(total)[:count]] = True
        return np.flatnonzero(seen)
    picked = 0
    while picked < count:
        draw = rng.integers(0, total, size=count, dtype=np.int64)
        fresh = draw[~seen[draw]]  # new this round, repeats included
        seen[fresh] = True
        marked = np.count_nonzero(seen)
        if marked > count:  # the last round overshot: keep its first new indices
            seen[fresh] = False
            seen[_first_distinct(fresh, count - picked)] = True
        picked = min(marked, count)
    return np.flatnonzero(seen)


def _first_distinct(values, need):
    # The first `need` distinct entries of `values` in stream order; `values`
    # holds more.  np.unique's indices are first occurrences, and it sorts
    # only a prefix, lengthened until the prefix holds `need` distinct values.
    size = need
    while True:
        _, first = np.unique(values[:size], return_index=True)
        if first.size >= need or size >= values.size:
            return values[np.sort(first)[:need]]
        size += 2 * (need - first.size)


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
        if not math.isfinite(2.0 * bound):  # the width of the uniform draw
            raise ValueError(f"amplitude {spec.amplitude} overflows the corruption range")
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
