import warnings
from dataclasses import fields

import numpy as np
import pytest

import rpca.kernel
import rpca.solver
from rpca.experiments import PhaseConfig
from rpca.kernel import (
    _CERTIFY_RTOL,
    _FIELD_KINDS,
    FactoredLowRank,
    ensure_matrix,
    spectral_norm,
    svd_small,
    svd_truncated,
    thin_qr,
)
from rpca.solver import RpcaParams, _Gather, altproj_solve
from rpca.synthetic import SyntheticSpec, generate


def frob(a):
    return np.linalg.norm(a)


def low_rank_plus_sparse(rng, m, n, r, density=0.05, amplitude=0.1):
    """Rank-r matrix with distinct singular values 10 > ... > 5, plus sparse noise."""
    left = np.linalg.qr(rng.standard_normal((m, r)))[0]
    right = np.linalg.qr(rng.standard_normal((n, r)))[0]
    a = (left * np.linspace(10.0, 5.0, r)) @ right.T
    support = rng.random((m, n)) < density
    a[support] += amplitude * rng.uniform(-1.0, 1.0, size=int(support.sum()))
    return a


@pytest.fixture
def svd_small_shapes(monkeypatch):
    """Record the shape of every svd_small call made inside rpca.kernel."""
    shapes = []
    original = rpca.kernel.svd_small

    def recording(a):
        shapes.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(rpca.kernel, "svd_small", recording)
    return shapes


class TestEnsureMatrix:
    def test_accepts_lists(self):
        out = ensure_matrix([[1, 2], [3, 4]])
        assert out.dtype == np.float64
        assert out.flags["C_CONTIGUOUS"]

    def test_rejects_vectors(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            ensure_matrix(np.ones(3))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            ensure_matrix(np.zeros((0, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            ensure_matrix([[1.0, bad]])


class TestEnsureFields:
    def test_every_kind_is_the_annotation_of_a_config_field(self):
        # the kinds are exactly what the config types annotate: none is dead
        configs = (RpcaParams, SyntheticSpec, PhaseConfig)
        annotations = {f.type.removesuffix(" | None") for config in configs for f in fields(config)}
        assert annotations == set(_FIELD_KINDS)


class TestThinQR:
    def test_canonical_columns_are_fixed(self):
        a = np.zeros((3, 2))
        a[0, 0] = 1.0
        a[1, 1] = 1.0
        q, r = thin_qr(a)
        assert np.allclose(q, a, atol=1e-14)
        assert np.allclose(r, np.eye(2), atol=1e-14)

    def test_single_column(self):
        # Gram-Schmidt by hand: norm 5, so Q = [[0.6], [0.8]], R = [[5]], up
        # to the sign that the column of Q and the row of R share.
        q, r = thin_qr(np.array([[3.0], [4.0]]))
        sign = np.sign(r[0, 0])
        assert np.allclose(sign * q, [[0.6], [0.8]], atol=1e-14)
        assert np.allclose(sign * r, [[5.0]], atol=1e-14)

    def test_zero_matrix(self):
        q, r = thin_qr(np.zeros((4, 2)))
        assert np.allclose(r, 0.0)
        assert np.allclose(q.T @ q, np.eye(2), atol=1e-12)
        assert np.allclose(q @ r, np.zeros((4, 2)))

    def test_reproduces_input(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = rng.integers(2, 40)
            r = rng.integers(1, n + 1)
            a = rng.standard_normal((n, r))
            if rng.random() < 0.3 and r > 1:
                a[:, -1] = a[:, 0]  # rank-deficient input is allowed
            q, rr = thin_qr(a)
            assert frob(q @ rr - a) <= 1e-12 * max(frob(a), 1.0)
            assert frob(q.T @ q - np.eye(r)) <= 1e-12 * r
            assert np.allclose(rr, np.triu(rr))

    def test_deterministic(self):
        a = np.random.default_rng(1).standard_normal((10, 4))
        q1, r1 = thin_qr(a)
        q2, r2 = thin_qr(a)
        assert np.array_equal(q1, q2) and np.array_equal(r1, r2)


class TestSvdSmall:
    def test_diagonal(self):
        u, s, v = svd_small(np.diag([3.0, 1.0]))
        assert np.allclose(s, [3.0, 1.0])
        assert np.allclose(u, np.eye(2), atol=1e-14)
        assert np.allclose(v, np.eye(2), atol=1e-14)

    def test_antidiagonal(self):
        # A^T A = diag(1, 4), so the singular values are 2 and 1.
        _, s, _ = svd_small(np.array([[0.0, 2.0], [1.0, 0.0]]))
        assert np.allclose(s, [2.0, 1.0], atol=1e-14)

    def test_equal_singular_values(self):
        # Symmetric with eigenvalues +/- sqrt(3): trace 0, determinant -3.
        root2 = np.sqrt(2.0)
        _, s, _ = svd_small(np.array([[1.0, root2], [root2, -1.0]]))
        assert np.allclose(s, [np.sqrt(3.0)] * 2, atol=1e-12)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p, q = rng.integers(1, 60, size=2)
            a = rng.standard_normal((p, q))
            u, s, v = svd_small(a)
            assert frob((u * s) @ v.T - a) <= 1e-12 * max(frob(a), 1.0)
            k = min(p, q)
            assert frob(u.T @ u - np.eye(k)) <= 1e-12 * k
            assert frob(v.T @ v - np.eye(k)) <= 1e-12 * k
            assert (np.diff(s) <= 1e-12 * s[0]).all() and (s >= 0).all()

    def test_deterministic(self):
        a = np.random.default_rng(5).standard_normal((9, 9))
        first = svd_small(a)
        second = svd_small(a)
        assert np.array_equal(first.U, second.U)
        assert np.array_equal(first.sigma, second.sigma)
        assert np.array_equal(first.V, second.V)


class TestSvdTruncated:
    def test_rank_one_exact(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(12)
        v = rng.standard_normal(9)
        a = np.outer(u, v)
        f, _ = svd_truncated(a, 1)
        assert frob((f.U * f.sigma) @ f.V.T - a) <= 1e-12 * frob(a)
        assert abs(f.sigma[0] - np.linalg.norm(u) * np.linalg.norm(v)) <= 1e-12 * frob(a)

    def test_diagonal_truncation(self):
        f, _ = svd_truncated(np.diag([3.0, 1.0]), 1)
        assert np.allclose((f.U * f.sigma) @ f.V.T, np.diag([3.0, 0.0]), atol=1e-14)

    def test_residual_matches_tail(self):
        # Independent oracle: the optimal rank-r residual is the root sum of
        # squares of the trailing singular values of the full SVD.
        rng = np.random.default_rng(19)
        a = rng.standard_normal((50, 40))
        f, _ = svd_truncated(a, 5)
        tail = np.sqrt(np.sum(np.linalg.svd(a, compute_uv=False)[5:] ** 2))
        residual = frob(a - (f.U * f.sigma) @ f.V.T)
        assert abs(residual - tail) <= 1e-10 * frob(a)

    def test_optimality_random_sizes(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            p, q = rng.integers(2, 60, size=2)
            r = int(rng.integers(1, min(p, q) + 1))
            a = rng.standard_normal((p, q))
            f, _ = svd_truncated(a, r)
            tail = np.sqrt(np.sum(np.linalg.svd(a, compute_uv=False)[r:] ** 2))
            residual = frob(a - (f.U * f.sigma) @ f.V.T)
            assert abs(residual - tail) <= 1e-10 * max(frob(a), 1.0)

    @pytest.mark.parametrize("r", [0, 5])
    def test_rank_out_of_range(self, r):
        with pytest.raises(ValueError, match="out of range"):
            svd_truncated(np.ones((4, 4)), r)

    def test_randomized_path(self):
        # Noisy rank-4 input: certified by the subspace iteration, no dense fallback.
        rng = np.random.default_rng(31)
        m, n, r = 1100, 1050, 4
        left = np.linalg.qr(rng.standard_normal((m, r)))[0]
        right = np.linalg.qr(rng.standard_normal((n, r)))[0]
        a = (left * np.array([10.0, 8.0, 5.0, 2.0])) @ right.T
        a += 1e-8 * rng.standard_normal((m, n))
        f, _ = svd_truncated(a, r)
        assert f.U.shape == (m, r) and f.V.shape == (n, r)
        assert frob(f.U.T @ f.U - np.eye(r)) <= 1e-10 * r
        assert frob(f.V.T @ f.V - np.eye(r)) <= 1e-10 * r
        assert (np.diff(f.sigma) <= 0).all()
        assert frob(a - (f.U * f.sigma) @ f.V.T) <= 1e-5 * frob(a)
        again, _ = svd_truncated(a, r)
        assert np.array_equal(f.U, again.U) and np.array_equal(f.sigma, again.sigma)

    @pytest.mark.parametrize("shape", [(400, 120), (120, 400), (300, 300)])
    @pytest.mark.parametrize("r", [1, 5, 20])
    def test_certified_triplets_match_lapack(self, shape, r, svd_small_shapes):
        a = low_rank_plus_sparse(np.random.default_rng(37 + r), *shape, r)
        f, _ = svd_truncated(a, r)
        assert shape not in svd_small_shapes  # certified, no dense fallback
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        tol = 1e-10 * s[0]
        assert np.abs(f.sigma - s[:r]).max() <= tol
        # the columns agree with svd_small's up to the sign each pair shares
        dense = svd_small(a)
        signs = np.sign(np.diagonal(f.U.T @ dense.U[:, :r]))
        assert np.abs(f.U * signs - dense.U[:, :r]).max() <= 1e-10
        assert np.abs(f.V * signs - dense.V[:, :r]).max() <= 1e-10
        assert np.linalg.norm(a @ f.V - f.U * f.sigma, axis=0).max() <= tol
        assert frob((f.U * f.sigma) @ f.V.T - (u[:, :r] * s[:r]) @ vt[:r]) <= tol

    def test_flat_spectrum_takes_the_dense_fallback(self, svd_small_shapes):
        a = np.random.default_rng(41).standard_normal((60, 50))
        f, window = svd_truncated(a, 5)
        assert (60, 50) in svd_small_shapes
        dense = svd_small(a)
        assert np.array_equal(f.U, dense.U[:, :5])
        assert np.array_equal(f.sigma, dense.sigma[:5])
        assert np.array_equal(f.V, dense.V[:, :5])
        assert np.array_equal(window, dense.sigma[:6])

    def test_two_calls_are_bit_identical(self):
        a = low_rank_plus_sparse(np.random.default_rng(43), 200, 150, 5)
        first, first_window = svd_truncated(a, 5)
        second, second_window = svd_truncated(a, 5)
        for x, y in zip((*first, first_window), (*second, second_window)):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("shape", [(400, 120), (120, 400), (500, 500)])
    def test_next_ritz_value_is_a_lower_bound(self, shape):
        # window[r] is the (r+1)-th Ritz value of the sketch, which cannot
        # exceed sigma_{r+1}; the baseline threshold built on it sits a little low.
        r = 5
        a = low_rank_plus_sparse(np.random.default_rng(47), *shape, r)
        f, window = svd_truncated(a, r)
        exact = np.linalg.svd(a, compute_uv=False)
        assert window.shape == (r + 1,)
        assert np.array_equal(window[:r], f.sigma)
        gap = 1.0 - window[r] / exact[r]
        print(f"{shape}: sigma_(r+1) Ritz value {gap:.2%} below the exact value")
        assert -1e-12 <= gap <= 0.1

    def test_returns_a_factorization_and_its_window(self):
        # The SVDs share one factorization type; thin QR is a plain pair.
        a = low_rank_plus_sparse(np.random.default_rng(59), 30, 20, 3)
        low, window = svd_truncated(a, 3)
        assert type(low) is FactoredLowRank and type(svd_small(a)) is FactoredLowRank
        assert low.shape == (30, 20) and low.rank == 3 and window.shape == (4,)
        assert np.array_equal(low.matrix(), (low.U * low.sigma) @ low.V.T)
        assert type(thin_qr(a)) is tuple and len(thin_qr(a)) == 2

    def test_window_has_no_next_value_at_full_rank(self):
        a = np.random.default_rng(53).standard_normal((7, 4))
        f, window = svd_truncated(a, 4)
        assert np.array_equal(window, f.sigma)


def nearby_right_factor(a, r):
    """V of the rank-r truncation of a small perturbation of ``a``, the kind
    of start AltProj's previous iterate gives its next truncation."""
    rng = np.random.default_rng(61)
    near = a + 1e-3 * frob(a) / np.sqrt(a.size) * rng.standard_normal(a.shape)
    return svd_truncated(near, r)[0].V


def rank_deficient(m, n, rank):
    rng = np.random.default_rng(67)
    return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))


class TestSvdTruncatedStart:
    """``start`` replaces the first r columns of the sketch: the result is
    the same truncation, certified to the same tolerance."""

    @pytest.mark.parametrize(
        "a, r",
        [
            pytest.param(low_rank_plus_sparse(np.random.default_rng(71), 300, 300, 5), 5,
                         id="square"),
            pytest.param(low_rank_plus_sparse(np.random.default_rng(73), 400, 120, 5), 5,
                         id="tall"),
            pytest.param(low_rank_plus_sparse(np.random.default_rng(79), 120, 400, 5), 5,
                         id="wide"),
            pytest.param(rank_deficient(80, 60, 3), 5, id="rank-deficient"),
            pytest.param(low_rank_plus_sparse(np.random.default_rng(83), 30, 20, 3), 20,
                         id="full-rank"),
        ],
    )
    def test_matches_the_cold_call_and_is_certified(self, a, r):
        cold, _ = svd_truncated(a, r)
        warm, window = svd_truncated(a, r, start=nearby_right_factor(a, r))
        tol = 1e-10 * cold.sigma[0]
        assert warm.U.shape == (a.shape[0], r) and warm.V.shape == (a.shape[1], r)
        assert np.array_equal(window[:r], warm.sigma)
        assert np.abs(warm.sigma - cold.sigma).max() <= tol
        assert np.linalg.norm(a @ warm.V - warm.U * warm.sigma, axis=0).max() <= tol
        assert np.linalg.norm(a.T @ warm.U - warm.V * warm.sigma, axis=0).max() <= tol
        assert frob(warm.U.T @ warm.U - np.eye(r)) <= 1e-12 * r
        assert frob(warm.V.T @ warm.V - np.eye(r)) <= 1e-12 * r

    def test_flat_spectrum_still_takes_the_dense_fallback(self, svd_small_shapes):
        a = np.random.default_rng(41).standard_normal((60, 50))
        start = nearby_right_factor(a, 5)
        svd_small_shapes.clear()
        f, window = svd_truncated(a, 5, start=start)
        assert (60, 50) in svd_small_shapes
        dense = svd_small(a)
        assert np.array_equal(f.sigma, dense.sigma[:5])
        assert np.array_equal(window, dense.sigma[:6])

    def test_altproj_solve_takes_fewer_sweeps(self, svd_small_shapes, monkeypatch):
        # Each sweep of svd_truncated is one svd_small call on the k x k core
        # (k = 15).  The cold count is that of the L-update without a start;
        # the shim passes on initialize's certificate tolerance.
        prob = generate(SyntheticSpec(200, 200, 5, 0.1, 1.0, 1))
        params = RpcaParams.defaults(
            prob.data.shape, 5, mu=max(1.0, 1.1 * prob.mu_true), gamma=0.7
        )

        def sweeps():
            svd_small_shapes.clear()
            sol = altproj_solve(prob.data, params)
            assert sol.converged and sol.iterations == 28
            assert set(svd_small_shapes) == {(15, 15)}
            return len(svd_small_shapes)

        warm = sweeps()
        monkeypatch.setattr(
            rpca.solver,
            "svd_truncated",
            lambda a, r, start=None, rtol=_CERTIFY_RTOL: svd_truncated(a, r, rtol=rtol),
        )
        assert (warm, sweeps()) == (49, 70)


class TestSvdTruncatedReadsOnly:
    """``svd_truncated`` reads ``a`` through views such as ``a.T``, which
    alias the caller's matrix (``D`` in a solve): it must never write them."""

    @pytest.mark.parametrize("rtol", [_CERTIFY_RTOL, _Gather.row0_rtol], ids=["1e-10", "row0"])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "start"])
    @pytest.mark.parametrize("shape", [(300, 300), (400, 120), (120, 400)],
                             ids=["square", "tall", "wide"])
    def test_read_only_inputs_give_the_writable_result(self, shape, warm, rtol):
        r = 5
        a = low_rank_plus_sparse(np.random.default_rng(89), *shape, r)
        start = nearby_right_factor(a, r) if warm else None
        expected = svd_truncated(a.copy(), r, None if start is None else start.copy(), rtol)
        for x in (a, start):
            if x is not None:
                x.flags.writeable = False  # any write through any view raises
        got = svd_truncated(a, r, start, rtol)
        for x, y in zip((*expected[0], expected[1]), (*got[0], got[1])):
            assert np.array_equal(x, y)


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-12)

    def test_rank_one(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(7)
        v = rng.standard_normal(5)
        expected = np.linalg.norm(u) * np.linalg.norm(v)
        assert spectral_norm(np.outer(u, v)) == pytest.approx(expected, rel=1e-12)

    def test_equal_singular_values_matrix(self):
        root2 = np.sqrt(2.0)
        a = np.array([[1.0, root2], [root2, -1.0]])
        assert spectral_norm(a) == pytest.approx(np.sqrt(3.0), rel=1e-12)

    def test_matches_svd(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            a = rng.standard_normal((rng.integers(1, 40), rng.integers(1, 40)))
            assert spectral_norm(a) == pytest.approx(svd_small(a).sigma[0], rel=1e-10)

    def test_large_path_matches_dense(self):
        # Lanczos on a noisy rank-3 input of size about 1000 x 1000.
        rng = np.random.default_rng(7)
        left = np.linalg.qr(rng.standard_normal((1030, 3)))[0]
        right = np.linalg.qr(rng.standard_normal((1040, 3)))[0]
        a = (left * np.array([6.0, 3.0, 1.0])) @ right.T
        a += 0.01 * rng.standard_normal((1030, 1040))
        expected = np.linalg.svd(a, compute_uv=False)[0]
        assert spectral_norm(a) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (1, 1)])
    def test_single_row_or_column(self, shape):
        a = np.random.default_rng(8).standard_normal(shape)
        expected = np.linalg.svd(a, compute_uv=False)[0]
        assert spectral_norm(a) == pytest.approx(expected, rel=1e-12)


def bound_inputs():
    rng = np.random.default_rng(9)
    return {
        "square": rng.standard_normal((60, 60)),
        "tall": rng.standard_normal((90, 20)),
        "wide": rng.standard_normal((20, 90)),
        "rank-1": np.outer(rng.standard_normal(40), rng.standard_normal(30)),
        "1 x n": rng.standard_normal((1, 50)),
        "n x 1": rng.standard_normal((50, 1)),
        # a clustered top spectrum: the r = 50 shape of the benchmark, smaller
        "clustered-r50": generate(SyntheticSpec(300, 300, 50, 0.05, 1.0, 3)).data,
    }


class TestSpectralLowerBound:
    """The first Lanczos step, ``spectral_norm(a, 0.0)``: two products."""

    @pytest.mark.parametrize("name", sorted(bound_inputs()))
    def test_at_most_the_spectral_norm(self, name):
        a = bound_inputs()[name]
        bound = spectral_norm(a, 0.0)
        assert 0.0 < bound <= np.linalg.norm(a, 2) * (1.0 + 1e-12)

    def test_exact_on_rank_one(self):
        a = bound_inputs()["rank-1"]
        assert spectral_norm(a, 0.0) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)

    def test_zero_matrix(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert spectral_norm(np.zeros((5, 3)), 0.0) == 0.0

    @pytest.mark.parametrize("power", [-300, 300])
    def test_finite_and_scale_equivariant(self, power):
        a = bound_inputs()["square"]
        scaled = spectral_norm(a * 2.0**power, 0.0)
        assert np.isfinite(scaled)
        assert scaled == spectral_norm(a, 0.0) * 2.0**power


class TestSpectralNormConverged:
    """``spectral_norm(a)`` runs Lanczos until sigma_1 is certified."""

    @pytest.mark.parametrize("name", sorted(bound_inputs()))
    def test_matches_dense_to_rounding(self, name):
        a = bound_inputs()[name]
        assert spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-14)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_spiked_input_matches_dense_to_rounding(self, seed):
        # gross spikes (c = 20) put sigma_1(D) beyond what two products reach
        a = generate(SyntheticSpec(200, 200, 5, 0.2, 20.0, seed)).data
        assert spectral_norm(a, 0.0) < 0.99 * np.linalg.norm(a, 2)
        assert spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-14)

    @pytest.mark.parametrize("seed", [2, 3, 5])
    def test_tight_top_cluster(self, seed):
        # The top 20 singular values lie within 1e-6 of each other, where
        # theta_j can stall for a step long before it reaches sigma_1: a stop
        # on the first step that does not raise it was 4.7e-8 off at seed 2.
        rng = np.random.default_rng(seed)
        left = np.linalg.qr(rng.standard_normal((40, 40)))[0]
        right = np.linalg.qr(rng.standard_normal((40, 40)))[0]
        s = 1.0 + 1e-6 * rng.random(40)
        s[20:] *= 0.1
        a = (left * s) @ right.T
        assert spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-13)

    @pytest.mark.parametrize("power", [-300, 300])
    @pytest.mark.parametrize("name", sorted(bound_inputs()))
    def test_scale_equivariant(self, name, power):
        a = bound_inputs()[name]
        assert spectral_norm(a * 2.0**power) == spectral_norm(a) * 2.0**power

    def test_stops_once_the_bound_reaches_enough(self):
        a = generate(SyntheticSpec(200, 200, 5, 0.2, 20.0, 1)).data
        first, sigma_1 = spectral_norm(a, 0.0), spectral_norm(a)
        enough = (first + sigma_1) / 2.0
        assert first < enough <= spectral_norm(a, enough) < sigma_1


class TestWeylInequality:
    def test_symmetric_perturbations(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 31))
            b = rng.standard_normal((n, n))
            b = (b + b.T) / 2.0
            c = rng.standard_normal((n, n))
            c = (c + c.T) / 2.0
            sb = svd_small(b).sigma
            sbc = svd_small(b + c).sigma
            bound = spectral_norm(c)
            assert (np.abs(sbc - sb) <= bound + 1e-10 * (bound + sb[0])).all()
