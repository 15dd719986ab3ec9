"""Seeded generation of synthetic low-rank + sparse decomposition problems.

The low-rank part is L = P Q^T with i.i.d. standard normal factor entries.
The corrupted positions are a uniform sample (without replacement) of
floor(alpha * m * n) entries, and the corruption values are i.i.d. uniform on
[-c * a, c * a] where a is the empirical mean of |L| over all entries.

The positions are rejection-sampled against a byte map of the entries drawn
so far (a permutation prefix when more than half are corrupted), so sampling
needs m * n bytes beside O(alpha m n) indices.  Only the last round's new
draws are sorted, once, as int64 keys entry * count + position, which is
why m * n must stay below 2^32.  :func:`generate` frees the index list
before it forms D = L + S, so it peaks at about 3 m x n float64 buffers (L,
S and D) up to alpha 0.5, and at 2 + 2 alpha above, where the indices and
the drawn values are alive beside L and S.  It reports the incoherence and
condition number of L from thin QRs of P and Q and the SVD of an r x r
core, exact to rounding; L is never truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import ensure_fields, svd_small, thin_qr
from .metrics import factor_incoherence

__all__ = ["RNG_ID", "SyntheticProblem", "SyntheticSpec", "generate"]

# Generator identity recorded alongside outputs for reproducibility.
RNG_ID = "numpy-pcg64"
# The support sampler packs (entry, draw position) into one int64 key, which
# holds while m * n stays below this.
_MAX_ENTRIES = 2**32


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
        ensure_fields(self)
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
        if self.m * self.n >= _MAX_ENTRIES:
            raise ValueError(
                f"{self.m} x {self.n} has 2^32 entries or more; the support sampler indexes fewer"
            )

    @property
    def support_size(self):
        return int(self.alpha * self.m * self.n)


@dataclass(frozen=True)
class SyntheticProblem:
    """Ground truth D = L + S together with its generation record.

    The corrupted entries are the nonzeros of S.  An entry drawn as exactly
    0.0 (probability 2^-53) stays uncorrupted.
    """

    data: np.ndarray       # D
    low_rank: np.ndarray   # L
    sparse: np.ndarray     # S
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
    # holds more.  One sort of the keys value * size + position puts equal
    # values in runs ordered by position, so the first key of each run is a
    # first occurrence.  The keys fit in int64 as values < 2^32 and
    # size <= 2^31 (SyntheticSpec's bound on m * n).
    size = values.size
    keys = np.sort(values * size + np.arange(size))
    first = keys[np.diff(keys // size, prepend=-1) != 0] % size
    return values[np.sort(first)[:need]]


def generate(spec):
    """Draw the problem described by ``spec``; deterministic per seed.

    ``mu_true`` and ``kappa_true`` are read off the factors: with thin QRs
    P = Q_P R_P and Q = Q_Q R_Q, L = Q_P (R_P R_Q^T) Q_Q^T, so the SVD of the
    r x r core R_P R_Q^T gives L's singular values, and L's singular
    vectors are Q_P and Q_Q rotated by the core's.  The incoherence reads
    only the spans, so it is taken from Q_P and Q_Q.
    """
    rng = np.random.default_rng(spec.seed)
    p = rng.standard_normal((spec.m, spec.rank))
    q = rng.standard_normal((spec.n, spec.rank))
    low = p @ q.T

    support = _sample_support(rng, spec.m * spec.n, spec.support_size)
    sparse = np.zeros((spec.m, spec.n))
    if support.size:
        # |L| goes in S's buffer, zeroed again below; in D's, it would keep D
        # alive beside the draw of S (3.63 buffers against 3.07 at 400 x 400,
        # alpha 0.3)
        bound = spec.amplitude * float(np.mean(np.abs(low, out=sparse)))
        if not math.isfinite(2.0 * bound):  # the width of the uniform draw
            raise ValueError(f"amplitude {spec.amplitude} overflows the corruption range")
        sparse.fill(0.0)
        sparse.ravel()[support] = rng.uniform(-bound, bound, size=support.size)
    del support  # S alone records the corrupted set; kept, it adds alpha buffers beside D

    (q_p, r_p), (q_q, r_q) = thin_qr(p), thin_qr(q)
    sigma = svd_small(r_p @ r_q.T).sigma
    return SyntheticProblem(
        data=low + sparse,
        low_rank=low,
        sparse=sparse,
        spec=spec,
        mu_true=factor_incoherence(q_p, q_q),
        kappa_true=float(sigma[0] / sigma[-1]),
    )
