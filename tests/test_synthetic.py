import numpy as np
import pytest

import rpca.synthetic
from rpca.metrics import factor_incoherence
from rpca.synthetic import SyntheticSpec, _sample_support, generate


def pool_sample_support(rng, total, count):
    # The reference sampler: each round draws `count` indices and keeps the
    # first occurrences of the whole pool of draws, in stream order, by a
    # stable sort of that pool.  The byte-map sampler must match it bit for
    # bit and leave the generator at the same state.
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if count > total // 2:
        return np.sort(rng.permutation(total)[:count].astype(np.int64))
    picked = np.empty(0, dtype=np.int64)
    while picked.size < count:
        draw = rng.integers(0, total, size=count, dtype=np.int64)
        pool = np.concatenate([picked, draw])
        _, first = np.unique(pool, return_index=True)
        picked = pool[np.sort(first)]
    return np.sort(picked[:count])


def assert_samples_match(total, count, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _sample_support(rng, total, count)
    want = pool_sample_support(ref_rng, total, count)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestSpecValidation:
    def test_accepts_reasonable_values(self):
        SyntheticSpec(10, 12, 3, 0.1, 1.0, 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=0),
            dict(rank=0),
            dict(rank=11),
            dict(alpha=-0.1),
            dict(alpha=1.0),
            dict(amplitude=0.0),
            dict(seed=-1),
            dict(amplitude=float("nan")),
            dict(amplitude=float("inf")),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        good = dict(m=10, n=10, rank=2, alpha=0.1, amplitude=1.0, seed=0)
        good.update(kwargs)
        with pytest.raises(ValueError):
            SyntheticSpec(**good)

    def test_rejects_2_to_the_32_entries(self):
        # the support sampler's int64 keys hold entry * draws + position
        SyntheticSpec(65535, 65537, 2, 0.1, 1.0, 0)  # 2^32 - 1 entries
        with pytest.raises(ValueError, match="2\\^32 entries"):
            SyntheticSpec(65536, 65536, 2, 0.1, 1.0, 0)

    def test_support_size_is_floor(self):
        assert SyntheticSpec(10, 10, 2, 0.1, 1.0, 0).support_size == 10
        assert SyntheticSpec(7, 9, 2, 0.33, 1.0, 0).support_size == 20  # floor(20.79)


class TestGenerate:
    def test_alpha_zero_means_no_corruption(self):
        prob = generate(SyntheticSpec(15, 15, 2, 0.0, 1.0, 3))
        assert np.array_equal(prob.sparse, np.zeros((15, 15)))
        assert np.array_equal(prob.data, prob.low_rank)
        assert prob.support.size == 0

    def test_rejects_an_amplitude_whose_range_overflows(self):
        # 2 c mean|L| is the width that the uniform draw of S needs
        with pytest.raises(ValueError, match="amplitude 1e[+]?308"):
            generate(SyntheticSpec(40, 40, 5, 0.1, 1e308, 3))

    def test_same_seed_is_identical(self):
        spec = SyntheticSpec(20, 25, 3, 0.2, 2.0, 99)
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.low_rank, b.low_rank)
        assert np.array_equal(a.sparse, b.sparse)
        assert np.array_equal(a.support, b.support)

    def test_different_seeds_differ(self):
        a = generate(SyntheticSpec(20, 20, 3, 0.2, 1.0, 1))
        b = generate(SyntheticSpec(20, 20, 3, 0.2, 1.0, 2))
        assert not np.array_equal(a.data, b.data)

    def test_support_count(self):
        prob = generate(SyntheticSpec(10, 10, 2, 0.1, 1.0, 5))
        assert prob.support.size == 10

    def test_support_has_no_duplicates_and_matches_sparse(self):
        prob = generate(SyntheticSpec(30, 20, 3, 0.25, 1.0, 8))
        assert np.unique(prob.support).size == prob.support.size
        nonzero = np.flatnonzero(prob.sparse.ravel())
        assert np.array_equal(np.sort(nonzero), prob.support)

    def test_dense_support_branch(self):
        prob = generate(SyntheticSpec(16, 16, 2, 0.75, 1.0, 13))
        assert prob.support.size == int(0.75 * 256)
        assert np.unique(prob.support).size == prob.support.size

    def test_sparse_values_bounded(self):
        prob = generate(SyntheticSpec(25, 25, 3, 0.3, 2.5, 21))
        bound = 2.5 * np.mean(np.abs(prob.low_rank))
        assert np.max(np.abs(prob.sparse)) <= bound
        off = np.ones(prob.sparse.size, dtype=bool)
        off[prob.support] = False
        assert not prob.sparse.ravel()[off].any()

    def test_sum_is_exact(self):
        prob = generate(SyntheticSpec(12, 18, 2, 0.2, 1.0, 34))
        assert np.array_equal(prob.data, prob.low_rank + prob.sparse)

    def test_rank_is_full(self):
        for seed in (0, 1, 2):
            prob = generate(SyntheticSpec(40, 30, 4, 0.1, 1.0, seed))
            s = np.linalg.svd(prob.low_rank, compute_uv=False)
            assert s[3] > 1e-8 * s[0]
            assert s[4] <= 1e-10 * s[0]

    @pytest.mark.parametrize(
        "shape, rank",
        [
            pytest.param((60, 60), 4, id="square"),
            pytest.param((90, 40), 3, id="tall"),
            pytest.param((40, 90), 3, id="wide"),
            pytest.param((50, 20), 20, id="tall-full-rank"),
            pytest.param((20, 50), 20, id="wide-full-rank"),
            pytest.param((12, 12), 12, id="square-full-rank"),
        ],
    )
    def test_diagnostics_match_the_dense_svd(self, shape, rank):
        # Read off the factors, mu_true and kappa_true are those of the SVD
        # of the dense L to rounding.  The dense SVD's own sigma_r is good to
        # about eps * kappa relative; kappa stays below 1e4 here.
        prob = generate(SyntheticSpec(*shape, rank, 0.1, 1.0, 6))
        u, s, vt = np.linalg.svd(prob.low_rank, full_matrices=False)
        mu = factor_incoherence(u[:, :rank], vt[:rank].T)
        assert prob.mu_true == pytest.approx(mu, rel=1e-13, abs=0.0)
        assert prob.kappa_true == pytest.approx(s[0] / s[rank - 1], rel=1e-13, abs=0.0)

    def test_diagnostics_are_sane(self):
        prob = generate(SyntheticSpec(50, 50, 5, 0.1, 1.0, 55))
        assert 1.0 <= prob.mu_true <= 50 / 5
        assert prob.kappa_true >= 1.0


class TestSampleSupport:
    @pytest.mark.parametrize("total", [1, 2, 10, 1001])
    @pytest.mark.parametrize("seed", range(6))
    def test_edge_counts_match_the_pool_sampler(self, total, seed):
        for count in sorted({0, 1, total // 2, total // 2 + 1, total - 1}):
            assert_samples_match(total, count, seed)

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.3, 0.45])
    @pytest.mark.parametrize("shape", [(30, 40), (100, 100), (257, 123)])
    @pytest.mark.parametrize("seed", [0, 7, 29])
    def test_problem_sizes_match_the_pool_sampler(self, alpha, shape, seed):
        total = shape[0] * shape[1]
        assert_samples_match(total, int(alpha * total), seed)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.45, 0.6])
    def test_generate_matches_the_pool_sampler(self, monkeypatch, alpha):
        spec = SyntheticSpec(90, 70, 4, alpha, 1.0, 12)
        got = generate(spec)
        monkeypatch.setattr(rpca.synthetic, "_sample_support", pool_sample_support)
        want = generate(spec)
        for name in ("data", "low_rank", "sparse", "support"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert (got.mu_true, got.kappa_true) == (want.mu_true, want.kappa_true)

    @pytest.mark.parametrize(
        "alpha, bound",
        [pytest.param(0.3, 3.4, id="alpha-0.3"), pytest.param(0.45, 3.55, id="alpha-0.45")],
    )
    def test_generate_peak_memory(self, alpha, bound, peak_buffers):
        # Peak above what was live, in 400 x 400 float64 buffers: L, S, the
        # int64 support (alpha of a buffer) and D = L + S (measured 3.37 at
        # alpha 0.3 and 3.52 at 0.45).  Sampling the support holds a byte
        # map and one round of draws, well below that.
        spec = SyntheticSpec(400, 400, 5, alpha, 1.0, 3)
        problem, peak = peak_buffers(lambda: generate(spec), 8 * 400 * 400)
        assert problem.support.size == spec.support_size
        assert peak <= bound, f"peak {peak:.3f} buffers"
