import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rpca.solver
from rpca.kernel import spectral_norm, svd_truncated
from rpca.metrics import factor_incoherence, relative_error
from rpca.solver import (
    FactoredLowRank,
    IterationState,
    RpcaParams,
    accaltproj_solve,
    altproj_solve,
    hard_threshold,
    initial_sparse_guess,
    initialize,
    structured_truncate,
    threshold_value,
    trim,
)
from rpca.solver import _residual_norm, _row_tiles, _step, _svd_l_update, _tangent_l_update
from rpca.synthetic import SyntheticSpec, generate


def frob(a):
    return np.linalg.norm(a)


def check_conforming(low_rank, z):
    if z.shape != low_rank.shape:
        raise ValueError(
            f"matrix shape {z.shape} does not match factorization shape {low_rank.shape}"
        )


def tangent_project(low_rank, z):
    """Oracle: projection onto the tangent space of the rank-r manifold at
    ``low_rank``, U U^T Z + Z V V^T - U U^T Z V V^T, formed densely."""
    check_conforming(low_rank, z)
    u, v = low_rank.U, low_rank.V
    utz = u.T @ z
    return u @ utz + ((z @ v) - u @ (utz @ v)) @ v.T


def tangent_complement_project(low_rank, z):
    """Oracle: projection onto the orthogonal complement of the tangent space,
    (I - U U^T) Z (I - V V^T)."""
    check_conforming(low_rank, z)
    u, v = low_rank.U, low_rank.V
    w = z - u @ (u.T @ z)
    return w - (w @ v) @ v.T


def truncate_dense(low_rank, w):
    """structured_truncate of a whole W, with both products formed from it."""
    return structured_truncate(low_rank, low_rank.U.T @ w, w @ low_rank.V)


def dense_step(state, d, params, l_update):
    """Oracle: one iteration with W = D - S_k, L, D - L and S each formed as a
    whole m x n matrix.  Returns (state, ||D - L - S||_F)."""
    w = d - state.sparse
    if l_update is _tangent_l_update:
        basis = trim(state.low_rank, params.mu) if params.trim_enabled else state.low_rank
        low, window = truncate_dense(basis, w)
    else:
        low, window = svd_truncated(w, params.rank)
    zeta = threshold_value(window, params.rank, params.beta, params.gamma, state.k)
    residual = d - low.matrix()
    sparse = hard_threshold(residual, zeta)
    residual -= sparse
    return IterationState(low, sparse, state.k + 1, zeta, window), float(np.linalg.norm(residual))


def accaltproj_step(state, d, params):
    """One accelerated iteration: trim, tangent-space truncation, re-threshold."""
    return _step(state, d, params, _tangent_l_update)[0]


def random_factored(rng, m, n, r, sigma=None):
    qu = np.linalg.qr(rng.standard_normal((m, r)))[0]
    qv = np.linalg.qr(rng.standard_normal((n, r)))[0]
    if sigma is None:
        sigma = np.sort(rng.random(r) * 9.0 + 1.0)[::-1]
    return FactoredLowRank(qu, np.asarray(sigma, dtype=np.float64), qv)


@st.composite
def truncation_cases(draw):
    # Tall or wide (square when the extra length is 0), r <= min(m, n) / 2.
    short = draw(st.integers(2, 24))
    long_side = short + draw(st.integers(0, 24))
    m, n = (long_side, short) if draw(st.booleans()) else (short, long_side)
    r = draw(st.integers(1, short // 2))
    return m, n, r, draw(st.integers(0, 2**32 - 1))


@st.composite
def threshold_cases(draw):
    # A finite matrix mixing signed zeros, subnormals, entries at exactly
    # +/-zeta and arbitrary finite values, with zeta = 0 among the thresholds.
    zeta = draw(
        st.one_of(
            st.just(0.0),
            st.sampled_from([5e-324, 1e-310, 1.0]),
            st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        )
    )
    special = st.sampled_from([0.0, -0.0, zeta, -zeta, 5e-324, -5e-324, 2e-310, -2e-310])
    finite = st.floats(allow_nan=False, allow_infinity=False)
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    values = draw(st.lists(st.one_of(special, finite), min_size=m * n, max_size=m * n))
    z = np.array(values, dtype=np.float64).reshape(m, n)
    return (z.T if draw(st.booleans()) else z), zeta


def tight_example():
    # 2x2 configuration where the tangent projection attains its norm bound:
    # U = V = e1 and a symmetric Z with singular values sqrt(3), sqrt(3).
    basis = FactoredLowRank(
        np.array([[1.0], [0.0]]), np.array([1.0]), np.array([[1.0], [0.0]])
    )
    z = np.array([[1.0, np.sqrt(2.0)], [np.sqrt(2.0), -1.0]])
    return basis, z


class TestParams:
    def test_defaults_formulas(self):
        p = RpcaParams.defaults((100, 400), 5, mu=2.0)
        scale = 1.1 * 2.0 * 5 / np.sqrt(100 * 400)
        assert p.beta == pytest.approx(scale / 2.0)
        assert p.beta_init == pytest.approx(scale)
        assert p.gamma == 0.5
        assert p.epsilon == 1e-6 and p.max_iter == 100 and p.trim_enabled

    def test_gamma_switches_on_declared_alpha(self):
        assert RpcaParams.defaults((50, 50), 2, 1.5, alpha=0.54).gamma == 0.5
        assert RpcaParams.defaults((50, 50), 2, 1.5, alpha=0.55).gamma == 0.65

    @pytest.mark.parametrize(
        "bad",
        [
            dict(rank=0),
            dict(mu=0.5),
            dict(beta=0.0),
            dict(beta_init=-1.0),
            dict(gamma=1.0),
            dict(gamma=-0.1),
            dict(epsilon=0.0),
            dict(max_iter=0),
        ],
    )
    def test_validation(self, bad):
        good = dict(rank=2, mu=1.5, beta=0.1, beta_init=0.2)
        good.update(bad)
        with pytest.raises(ValueError):
            RpcaParams(**good)


class TestTrim:
    def test_incoherent_input_returned_unchanged(self):
        rng = np.random.default_rng(0)
        low = random_factored(rng, 30, 30, 3)
        mu = 30.0 / 3.0 * float(np.max(np.sum(low.U**2, axis=1)))  # exactly at budget
        assert trim(low, max(1.0, mu * 1.01)) is low

    def test_large_budget_is_identity(self):
        # mu r >= m and n: every orthonormal row norm is <= 1 <= cap.
        rng = np.random.default_rng(1)
        low = random_factored(rng, 8, 8, 2)
        assert trim(low, 4.0) is low

    def test_hand_instance(self):
        # m = n = 4, r = 1, U = e1, sigma = 2, V = (1,1,1,1)/2, mu = 1:
        # cap = 1/2, so row 1 of U is scaled to norm 1/2 and V is untouched;
        # the trimmed matrix is e1 * 2 * V^T with row 1 halved.
        low = FactoredLowRank(
            np.array([[1.0], [0.0], [0.0], [0.0]]),
            np.array([2.0]),
            np.full((4, 1), 0.5),
        )
        expected = np.zeros((4, 4))
        expected[0, :] = 0.5
        out = trim(low, 1.0)
        assert out is not low
        assert np.allclose(out.matrix(), expected, atol=1e-14)
        assert frob(out.U.T @ out.U - np.eye(1)) <= 1e-12
        assert frob(out.V.T @ out.V - np.eye(1)) <= 1e-12

    def test_matches_dense_oracle_on_spiked_factors(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m, n, r = 25, 18, 3
            low = random_factored(rng, m, n, r)
            mu = 1.0
            cap_u = np.sqrt(mu * r / m)
            cap_v = np.sqrt(mu * r / n)
            su = np.minimum(1.0, cap_u / np.linalg.norm(low.U, axis=1))
            sv = np.minimum(1.0, cap_v / np.linalg.norm(low.V, axis=1))
            expected = (low.U * su[:, None] * low.sigma) @ (low.V * sv[:, None]).T
            out = trim(low, mu)
            assert frob(out.matrix() - expected) <= 1e-12 * max(frob(expected), 1.0)
            assert frob(out.U.T @ out.U - np.eye(r)) <= 1e-10 * r
            assert frob(out.V.T @ out.V - np.eye(r)) <= 1e-10 * r
            assert (np.diff(out.sigma) <= 1e-12 * max(out.sigma[0], 1.0)).all()

    def test_idempotent_when_output_within_budget(self):
        # Conditional property: a second trim changes nothing whenever the
        # re-factorized rows stay within the budget.  Inputs already within
        # budget always satisfy the condition; actively trimmed ones only
        # sometimes do (clipped rows land at the cap).
        rng = np.random.default_rng(9)
        seen = 0
        for _ in range(10):
            low = random_factored(rng, 20, 20, 2)
            mu = 20.0 / 2.0 * max(
                float(np.max(np.sum(low.U**2, axis=1))),
                float(np.max(np.sum(low.V**2, axis=1))),
            )
            out = trim(low, mu)
            assert out is low
            assert trim(out, mu) is out
            tight = trim(low, mu / 1.5)
            cap = np.sqrt(mu / 1.5 * 2 / 20)
            within = (np.linalg.norm(tight.U, axis=1) <= cap).all() and (
                np.linalg.norm(tight.V, axis=1) <= cap
            ).all()
            if within:
                seen += 1
                again = trim(tight, mu / 1.5)
                assert frob(again.matrix() - tight.matrix()) <= 1e-10 * frob(tight.matrix())
        assert seen >= 0  # the active branch is data-dependent

    def test_row_bound_near_an_incoherent_matrix(self):
        # When the input is close to a mu-incoherent rank-r matrix the
        # re-factored rows stay within 10/9 of the budget.
        rng = np.random.default_rng(17)
        m = n = 60
        r = 3
        truth = rng.standard_normal((m, r)) @ rng.standard_normal((n, r)).T
        f_truth, _ = svd_truncated(truth, r)
        mu = factor_incoherence(f_truth.U, f_truth.V)
        budget = f_truth.sigma[-1] / (20.0 * np.sqrt(r))
        cap = (10.0 / 9.0) * np.sqrt(mu * r / m)

        noise = rng.standard_normal((m, n))
        noise *= (0.5 * budget) / spectral_norm(noise)
        near, _ = svd_truncated(truth + noise, r)
        assert spectral_norm(near.matrix() - truth) <= budget
        out = trim(near, mu)
        assert (np.linalg.norm(out.U, axis=1) <= cap + 1e-12).all()
        assert (np.linalg.norm(out.V, axis=1) <= cap + 1e-12).all()

        # Mild row boost: trim becomes active and the bound still holds.
        boosted = near.matrix()
        row = int(np.argmax(np.linalg.norm(near.U, axis=1)))
        boosted[row, :] *= 1.10
        spiked, _ = svd_truncated(boosted, r)
        out = trim(spiked, mu)
        assert out is not spiked
        assert (np.linalg.norm(out.U, axis=1) <= cap + 1e-12).all()


class TestTangentProjection:
    def test_point_is_fixed(self):
        rng = np.random.default_rng(2)
        low = random_factored(rng, 12, 9, 3)
        z = low.matrix()
        assert frob(tangent_project(low, z) - z) <= 1e-12 * frob(z)

    def test_tight_two_by_two_example(self):
        basis, z = tight_example()
        projected = tangent_project(basis, z)
        assert np.allclose(projected, [[1.0, np.sqrt(2.0)], [np.sqrt(2.0), 0.0]], atol=1e-14)
        ratio = spectral_norm(projected) / spectral_norm(z)
        assert abs(ratio - np.sqrt(4.0 / 3.0)) <= 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        low = random_factored(rng, 15, 15, 2)
        z = rng.standard_normal((15, 15))
        once = tangent_project(low, z)
        twice = tangent_project(low, once)
        assert frob(twice - once) <= 1e-12 * max(frob(once), 1.0)

    def test_complement_of_tangent_vectors_is_zero(self):
        rng = np.random.default_rng(4)
        low = random_factored(rng, 10, 13, 3)
        a = rng.standard_normal((13, 3))
        b = rng.standard_normal((10, 3))
        z = low.U @ a.T + b @ low.V.T
        assert frob(tangent_complement_project(low, z)) <= 1e-12 * frob(z)

    def test_projectors_decompose_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            m, n = rng.integers(2, 41, size=2)
            r = int(rng.integers(1, min(m, n) + 1))
            low = random_factored(rng, m, n, r)
            z = rng.standard_normal((m, n))
            back = tangent_project(low, z) + tangent_complement_project(low, z)
            assert frob(back - z) <= 1e-12 * frob(z)

    def test_complement_equals_difference(self):
        rng = np.random.default_rng(7)
        low = random_factored(rng, 6, 6, 2)
        z = rng.standard_normal((6, 6))
        direct = tangent_complement_project(low, z)
        assert frob(direct - (z - tangent_project(low, z))) <= 1e-12

    def test_symmetric_contraction_bound(self):
        # ||P_T Z||_2 <= sqrt(4/3) ||Z||_2 for symmetric Z when U = V.
        rng = np.random.default_rng(8)
        bound = np.sqrt(4.0 / 3.0)
        for _ in range(60):
            n = int(rng.integers(2, 31))
            r = int(rng.integers(1, n))
            qu = np.linalg.qr(rng.standard_normal((n, r)))[0]
            low = FactoredLowRank(qu, np.arange(r, 0, -1.0), qu)
            z = rng.standard_normal((n, n))
            z = (z + z.T) / 2.0
            assert spectral_norm(tangent_project(low, z)) <= bound * spectral_norm(z) + 1e-10

    def test_shape_mismatch(self):
        rng = np.random.default_rng(9)
        low = random_factored(rng, 5, 5, 2)
        with pytest.raises(ValueError, match="shape"):
            tangent_project(low, np.ones((4, 5)))
        with pytest.raises(ValueError, match="shape"):
            tangent_complement_project(low, np.ones((5, 6)))


class TestStructuredTruncate:
    def test_fixed_point_of_own_basis(self):
        rng = np.random.default_rng(10)
        low = random_factored(rng, 14, 11, 3, sigma=[7.0, 4.0, 2.0])
        out, window = truncate_dense(low, low.matrix())
        assert frob(out.matrix() - low.matrix()) <= 1e-12 * frob(low.matrix())
        assert np.allclose(window[:3], [7.0, 4.0, 2.0], atol=1e-10)
        assert np.allclose(window[3:], 0.0, atol=1e-10)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            m, n = rng.integers(6, 41, size=2)
            r = int(rng.integers(1, min(5, min(m, n) // 2) + 1))
            low = random_factored(rng, m, n, r)
            w = rng.standard_normal((m, n))
            out, window = truncate_dense(low, w)
            projected = tangent_project(low, w)
            u, s, vt = np.linalg.svd(projected)
            dense = (u[:, :r] * s[:r]) @ vt[:r]
            assert frob(out.matrix() - dense) <= 1e-10 * max(frob(projected), 1.0)
            # the 2r core values are the full spectrum of the projection
            assert np.allclose(window, s[: 2 * r], atol=1e-10 * max(s[0], 1.0))
            # projected residual has numerical rank at most 2r
            assert (s[2 * r :] <= 1e-10 * max(s[0], 1.0)).all()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(truncation_cases())
    def test_property_matches_dense_oracle(self, case):
        m, n, r, seed = case
        rng = np.random.default_rng(seed)
        low = random_factored(rng, m, n, r)
        w = rng.standard_normal((m, n))
        out, window = truncate_dense(low, w)
        projected = tangent_project(low, w)
        s = np.linalg.svd(projected, compute_uv=False)
        scale = max(s[0], 1.0)
        # the 2r core values are the top of the projection's spectrum, the
        # rest of which is numerically zero
        assert np.allclose(window, s[: 2 * r], atol=1e-10 * scale)
        assert (s[2 * r :] <= 1e-10 * scale).all()
        # a best rank-r approximation (Eckart-Young), stable under close
        # singular values where the truncated factors themselves are not
        tail = np.sqrt(np.sum(s[r:] ** 2))
        assert abs(frob(projected - out.matrix()) - tail) <= 1e-9 * scale
        assert frob(out.U.T @ out.U - np.eye(r)) <= 1e-10
        assert frob(out.V.T @ out.V - np.eye(r)) <= 1e-10

    def test_factor_invariants(self):
        rng = np.random.default_rng(12)
        low = random_factored(rng, 30, 22, 4)
        w = rng.standard_normal((30, 22))
        out, window = truncate_dense(low, w)
        assert frob(out.U.T @ out.U - np.eye(4)) <= 1e-10
        assert frob(out.V.T @ out.V - np.eye(4)) <= 1e-10
        assert (np.diff(window) <= 1e-12 * window[0]).all()

    def test_shape_mismatch(self):
        rng = np.random.default_rng(14)
        low = random_factored(rng, 8, 8, 2)
        with pytest.raises(ValueError, match="shape"):
            structured_truncate(low, np.ones((2, 7)), np.ones((8, 2)))
        with pytest.raises(ValueError, match="shape"):
            structured_truncate(low, np.ones((2, 8)), np.ones((7, 2)))


class TestThresholdValue:
    def test_arithmetic(self):
        # beta (sigma_{r+1} + gamma^{k+1} sigma_1) = 0.1 (1 + 0.5 * 10) = 0.6
        window = [10.0, 5.0, 1.0]
        assert threshold_value(window, 2, 0.1, 0.5, 0) == pytest.approx(0.6)

    def test_gamma_zero(self):
        assert threshold_value([10.0, 1.0], 1, 0.2, 0.0, 3) == pytest.approx(0.2)

    def test_exact_rank_r(self):
        value = threshold_value([10.0, 0.0], 1, 0.2, 0.5, 1)
        assert value == pytest.approx(0.2 * 0.25 * 10.0)

    def test_short_window_padded_with_zero(self):
        assert threshold_value([10.0], 2, 0.1, 0.5, 0) == pytest.approx(0.5)

    def test_non_negative(self):
        assert threshold_value([0.0, 0.0], 1, 0.3, 0.5, 0) == 0.0


class TestHardThreshold:
    def test_everything_below_or_equal_is_zeroed(self):
        z = np.array([[1.0, -3.0], [0.5, 2.0]])
        assert np.array_equal(hard_threshold(z, 3.0), np.zeros((2, 2)))

    def test_zero_threshold_keeps_nonzeros(self):
        z = np.array([[0.0, -2.0], [3.0, 0.0]])
        assert np.array_equal(hard_threshold(z, 0.0), z)

    def test_entrywise_example(self):
        z = np.array([[1.0, -3.0], [0.5, 2.0]])
        expected = np.array([[0.0, -3.0], [0.0, 2.0]])
        assert np.array_equal(hard_threshold(z, 1.0), expected)

    def test_boundary_is_strict(self):
        assert hard_threshold(np.array([[1.0]]), 1.0)[0, 0] == 0.0

    def test_support_shrinks_with_threshold(self):
        rng = np.random.default_rng(15)
        z = rng.standard_normal((10, 10))
        previous = np.abs(z) > 0
        for zeta in (0.0, 0.3, 0.8, 1.5, 3.0):
            out = hard_threshold(z, zeta)
            support = out != 0.0
            assert (support <= previous).all()  # subset
            assert (support <= (z != 0.0)).all()
            previous = support

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            hard_threshold(np.ones((2, 2)), -0.1)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(threshold_cases())
    def test_property_matches_where_bit_for_bit(self, case):
        z, zeta = case
        before = z.tobytes()
        expected = np.where(np.abs(z) > zeta, z, 0.0)
        # out= path: rows 1..m of a larger array, whose other rows stay as they were
        larger = np.full((z.shape[0] + 2, z.shape[1]), np.nan)
        into = larger[1:-1]
        assert hard_threshold(z, zeta, out=into) is into
        assert np.isnan(larger[[0, -1]]).all()
        for out in (hard_threshold(z, zeta), into):
            assert out.shape == expected.shape
            assert out.tobytes() == expected.tobytes()
            assert not np.signbit(out[out == 0.0]).any()  # no -0.0
        assert z.tobytes() == before  # input untouched

    def test_out_overlapping_input_rejected(self):
        z = np.arange(12.0).reshape(3, 4)
        for out in (z, z[::-1], z.view()):
            with pytest.raises(ValueError, match="overlap"):
                hard_threshold(z, 1.0, out=out)
        # other rows of the same array are no overlap
        larger = np.arange(24.0).reshape(6, 4)
        out = hard_threshold(larger[:3], 5.0, out=larger[3:])
        assert np.array_equal(out, [[0, 0, 0, 0], [0, 0, 6, 7], [8, 9, 10, 11]])

    def test_out_of_wrong_shape_or_dtype_rejected(self):
        z = np.ones((3, 4))
        for out in (np.empty((4, 3)), np.empty((3, 4), dtype=np.float32)):
            with pytest.raises(ValueError, match="shape"):
                hard_threshold(z, 0.5, out=out)


class Hand6x6:
    """Rank-1 matrix with entries +/-1 plus two +5 spikes."""

    def __init__(self):
        u = np.ones(6) / np.sqrt(6.0)
        v = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0]) / np.sqrt(6.0)
        self.low = 6.0 * np.outer(u, v)
        self.sparse = np.zeros((6, 6))
        self.sparse[0, 0] = 5.0
        self.sparse[3, 4] = 5.0
        self.data = self.low + self.sparse
        sigma1 = np.linalg.svd(self.data, compute_uv=False)[0]
        # first threshold of 2.0: catches exactly the two spiked entries
        self.params = RpcaParams(
            rank=1, mu=1.0, beta=0.1, beta_init=2.0 / sigma1, gamma=0.5
        )


class TestInitialize:
    def test_zero_matrix(self):
        params = RpcaParams(rank=1, mu=1.0, beta=0.1, beta_init=0.2)
        state, _ = initialize(np.zeros((4, 4)), params)
        assert frob(state.low_rank.matrix()) == 0.0
        assert np.array_equal(state.sparse, np.zeros((4, 4)))
        assert state.k == 0 and state.zeta == 0.0

    def test_exact_low_rank_is_recovered_untouched(self):
        rng = np.random.default_rng(16)
        low = random_factored(rng, 40, 40, 3, sigma=[8.0, 5.0, 2.0])
        d = low.matrix()
        mu = factor_incoherence(low.U, low.V)
        # beta_init at the centre of the admissible band [mu r/n, 3 mu r/n]
        params = RpcaParams(
            rank=3, mu=mu, beta=mu * 3 / (2 * 40), beta_init=2.0 * mu * 3 / 40
        )
        s_first, _ = initial_sparse_guess(d, params)
        assert np.count_nonzero(s_first) == 0
        state, _ = initialize(d, params)
        assert frob(state.low_rank.matrix() - d) <= 1e-12 * frob(d)
        assert np.count_nonzero(state.sparse) == 0

    def test_matches_hand_execution(self):
        inst = Hand6x6()
        d, params = inst.data, inst.params

        # independent composition of the two steps with raw numpy
        sigma1_d = np.linalg.svd(d, compute_uv=False)[0]
        zeta_first = params.beta_init * sigma1_d
        s_first = np.where(np.abs(d) > zeta_first, d, 0.0)
        assert np.count_nonzero(s_first) == 2  # exactly the spikes
        u, s, vt = np.linalg.svd(d - s_first)
        l0 = s[0] * np.outer(u[:, 0], vt[0])
        zeta0 = params.beta * s[0]
        s0 = np.where(np.abs(d - l0) > zeta0, d - l0, 0.0)

        guess, zeta_guess = initial_sparse_guess(d, params)
        assert np.allclose(guess, s_first, atol=1e-12)
        assert zeta_guess == pytest.approx(zeta_first, rel=1e-12)
        state, _ = initialize(d, params)
        assert frob(state.low_rank.matrix() - l0) <= 1e-12 * frob(l0)
        assert frob(state.sparse - s0) <= 1e-12
        assert state.zeta == pytest.approx(zeta0, rel=1e-12)
        assert state.k == 0

    def test_rank_out_of_range(self):
        params = RpcaParams(rank=5, mu=1.0, beta=0.1, beta_init=0.2)
        with pytest.raises(ValueError, match="out of range"):
            initialize(np.ones((3, 3)), params)

    def test_non_finite_rejected(self):
        # a direct call, without a solver's validation in front of it
        params = RpcaParams(rank=1, mu=1.0, beta=0.1, beta_init=0.2)
        d = np.ones((4, 4))
        d[1, 3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            initialize(d, params)

    def test_thresholds_match_dense_oracle(self):
        prob = generate(SyntheticSpec(300, 300, 5, 0.1, 1.0, 808))
        d, params = prob.data, desk_params(prob, 0.1)
        s_first, zeta_first = initial_sparse_guess(d, params)
        sigma_d = np.linalg.svd(d, compute_uv=False)[0]
        assert zeta_first == pytest.approx(params.beta_init * sigma_d, rel=1e-12)
        state, _ = initialize(d, params)
        sigma_first = np.linalg.svd(d - s_first, compute_uv=False)[0]
        assert state.zeta == pytest.approx(params.beta * sigma_first, rel=1e-12)


class TestAccAltProjStep:
    def test_exact_pair_is_a_fixed_point(self):
        rng = np.random.default_rng(18)
        low = random_factored(rng, 20, 20, 3, sigma=[9.0, 6.0, 3.0])
        sparse = np.zeros((20, 20))
        idx = rng.choice(400, size=30, replace=False)
        sparse.ravel()[idx] = np.sign(rng.standard_normal(30)) * (1.0 + rng.random(30))
        d = low.matrix() + sparse
        params = RpcaParams(rank=3, mu=3.0, beta=0.01, beta_init=0.02, gamma=0.5)
        state = IterationState(low, sparse, k=2, zeta=0.5, sigma_window=low.sigma)
        out = accaltproj_step(state, d, params)
        assert frob(out.low_rank.matrix() - low.matrix()) <= 1e-10 * frob(low.matrix())
        assert frob(out.sparse - sparse) <= 1e-10
        assert out.k == 3

    def test_matches_dense_oracle_pipeline(self):
        inst = Hand6x6()
        d, params = inst.data, inst.params
        state, _ = initialize(d, params)

        basis = trim(state.low_rank, params.mu)
        projected = tangent_project(basis, d - state.sparse)
        u, s, vt = np.linalg.svd(projected)
        l_next = s[0] * np.outer(u[:, 0], vt[0])
        zeta_next = params.beta * (s[1] + params.gamma * s[0])
        s_next = np.where(np.abs(d - l_next) > zeta_next, d - l_next, 0.0)

        out = accaltproj_step(state, d, params)
        assert frob(out.low_rank.matrix() - l_next) <= 1e-10 * max(frob(l_next), 1.0)
        assert out.zeta == pytest.approx(zeta_next, rel=1e-10)
        assert frob(out.sparse - s_next) <= 1e-10
        assert out.k == 1

    def test_trim_toggle_identical_on_incoherent_state(self):
        rng = np.random.default_rng(19)
        prob = generate(SyntheticSpec(30, 30, 2, 0.05, 1.0, 77))
        params = RpcaParams.defaults(prob.data.shape, 2, mu=max(1.0, 1.1 * prob.mu_true))
        state, _ = initialize(prob.data, params)
        with_trim = accaltproj_step(state, prob.data, params)
        without = accaltproj_step(state, prob.data, replace(params, trim_enabled=False))
        assert np.array_equal(with_trim.low_rank.matrix(), without.low_rank.matrix())
        assert np.array_equal(with_trim.sparse, without.sparse)
        assert with_trim.zeta == without.zeta


def desk_params(problem, alpha, **overrides):
    # Desk-scale runs need the slower threshold decay; see PhaseConfig docs.
    return RpcaParams.defaults(
        problem.data.shape,
        problem.spec.rank,
        mu=max(1.0, 1.1 * problem.mu_true),
        alpha=alpha,
        gamma=0.7,
        **overrides,
    )


class TestSolvers:
    def test_exact_low_rank_converges_immediately(self):
        rng = np.random.default_rng(20)
        low = random_factored(rng, 30, 30, 2, sigma=[5.0, 2.0])
        d = low.matrix()
        mu = factor_incoherence(low.U, low.V)
        params = RpcaParams(
            rank=2, mu=mu, beta=mu * 2 / (2 * 30), beta_init=2.0 * mu * 2 / 30
        )
        for solve in (accaltproj_solve, altproj_solve):
            sol = solve(d, params)
            assert sol.converged
            assert sol.iterations <= 1
            assert sol.final_err <= 1e-12

    def test_synthetic_recovery(self):
        for seed in (101, 202, 303):
            prob = generate(SyntheticSpec(200, 200, 5, 0.1, 1.0, seed))
            sol = accaltproj_solve(prob.data, desk_params(prob, 0.1))
            assert sol.converged and sol.final_err < 1e-6
            rec = frob(sol.low_rank.matrix() - prob.low_rank) / frob(prob.low_rank)
            assert rec <= 1e-4
            errs = sol.trace.errors()
            ratios = errs[4:] / errs[3:-1]
            assert np.median(ratios) < 1.0

    def test_cross_solver_agreement(self):
        prob = generate(SyntheticSpec(200, 200, 5, 0.1, 1.0, 404))
        params = desk_params(prob, 0.1)
        accelerated = accaltproj_solve(prob.data, params)
        baseline = altproj_solve(prob.data, params)
        assert accelerated.converged and baseline.converged
        gap = frob(accelerated.low_rank.matrix() - baseline.low_rank.matrix())
        assert gap / frob(prob.low_rank) <= 1e-3
        assert frob(accelerated.sparse - baseline.sparse) / frob(prob.data) <= 1e-3

    def test_baseline_l_update_is_plain_truncation(self):
        prob = generate(SyntheticSpec(40, 40, 3, 0.1, 1.0, 505))
        params = desk_params(prob, 0.1)
        state, _ = initialize(prob.data, params)
        out, _ = _step(state, prob.data, params, _svd_l_update)
        w = prob.data - state.sparse
        u, s, vt = np.linalg.svd(w)
        dense = (u[:, :3] * s[:3]) @ vt[:3]
        assert frob(out.low_rank.matrix() - dense) <= 1e-10 * frob(dense)

    def test_final_err_is_the_relative_error_of_the_output(self):
        prob = generate(SyntheticSpec(90, 150, 3, 0.1, 1.0, 515))
        params = desk_params(prob, 0.1)
        for solve in (accaltproj_solve, altproj_solve):
            sol = solve(prob.data, params)
            assert sol.final_err == relative_error(prob.data, sol.low_rank, sol.sparse)

    def test_trace_is_deterministic(self):
        prob = generate(SyntheticSpec(80, 80, 3, 0.1, 1.0, 606))
        params = desk_params(prob, 0.1)
        first = accaltproj_solve(prob.data, params)
        second = accaltproj_solve(prob.data, params)
        assert np.array_equal(first.trace.errors(), second.trace.errors())
        assert np.array_equal(first.trace.zetas(), second.trace.zetas())
        assert np.array_equal(first.sparse, second.sparse)
        assert np.array_equal(first.low_rank.matrix(), second.low_rank.matrix())
        for a, b in zip(first.trace.records, second.trace.records):
            assert np.array_equal(a.sigma_window, b.sigma_window)

    def test_trace_records_are_complete(self):
        prob = generate(SyntheticSpec(60, 60, 2, 0.1, 1.0, 707))
        sol = accaltproj_solve(prob.data, desk_params(prob, 0.1))
        ks = [rec.k for rec in sol.trace.records]
        assert ks == list(range(len(ks)))
        assert all(rec.err >= 0 and rec.zeta >= 0 for rec in sol.trace.records)
        # recorded window heads match the sigma_r / sigma_r+1 columns
        for rec in sol.trace.records:
            assert rec.sigma_r == rec.sigma_window[1]
            if rec.sigma_window.size > 2:
                assert rec.sigma_r_plus_1 == rec.sigma_window[2]

    def test_init_row_times_the_truncation_only(self):
        prob = generate(SyntheticSpec(100, 100, 3, 0.1, 1.0, 909))
        sol = accaltproj_solve(prob.data, desk_params(prob, 0.1))
        init = sol.trace.records[0]
        assert 0.0 < init.l_update_seconds < init.iter_seconds

    def test_zero_matrix_rejected(self):
        params = RpcaParams(rank=1, mu=1.0, beta=0.1, beta_init=0.2)
        with pytest.raises(ValueError, match="zero"):
            accaltproj_solve(np.zeros((5, 5)), params)

    def test_non_finite_rejected(self):
        params = RpcaParams(rank=1, mu=1.0, beta=0.1, beta_init=0.2)
        d = np.ones((4, 4))
        d[2, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            accaltproj_solve(d, params)

    def test_rank_out_of_range(self):
        params = RpcaParams(rank=9, mu=1.0, beta=0.1, beta_init=0.2)
        with pytest.raises(ValueError, match="out of range"):
            altproj_solve(np.eye(4), params)

    def test_rectangular_problem(self):
        prob = generate(SyntheticSpec(120, 80, 3, 0.1, 1.0, 808))
        sol = accaltproj_solve(prob.data, desk_params(prob, 0.1))
        assert sol.converged
        rec = frob(sol.low_rank.matrix() - prob.low_rank) / frob(prob.low_rank)
        assert rec <= 1e-4


class TestWorkspaceReuse:
    """The solvers keep no m x n workspace: an iteration allocates S_{k+1}
    and row tiles, and nothing they return may alias D or a kept state."""

    def setup_method(self):
        self.prob = generate(SyntheticSpec(60, 50, 2, 0.1, 1.0, 919))
        self.params = desk_params(self.prob, 0.1)

    def test_solvers_leave_d_unchanged(self):
        d = self.prob.data
        before = d.tobytes()
        for solve in (accaltproj_solve, altproj_solve):
            sol = solve(d, self.params)
            assert d.tobytes() == before
            assert not np.shares_memory(sol.sparse, d)

    def test_step_reads_state_and_returns_fresh_sparse(self):
        d = self.prob.data
        for l_update in (_tangent_l_update, _svd_l_update):
            state, residual_norm = initialize(d, self.params)
            assert not np.shares_memory(state.sparse, d)
            assert residual_norm == _residual_norm(d, state.low_rank, state.sparse)
            before = state.sparse.tobytes()
            out, residual_norm = _step(state, d, self.params, l_update)
            assert state.sparse.tobytes() == before
            for other in (d, state.sparse):
                assert not np.shares_memory(out.sparse, other)
            # the returned norm is that of D - L - S for the returned state,
            # and the read-only pass recomputes it bit for bit
            assert residual_norm == _residual_norm(d, out.low_rank, out.sparse)
            dense = frob(d - out.low_rank.matrix() - out.sparse)
            assert abs(residual_norm - dense) <= 1e-12 * dense

    def test_kept_state_survives_later_steps(self):
        d = self.prob.data
        state, _ = initialize(d, self.params)
        state, _ = _step(state, d, self.params, _tangent_l_update)
        kept, kept_bytes = state, state.sparse.tobytes()
        for _ in range(3):
            state, _ = _step(state, d, self.params, _tangent_l_update)
        assert kept.sparse.tobytes() == kept_bytes
        assert state.k == kept.k + 3

    @pytest.mark.parametrize(
        "solve, bound",
        [
            # S_k and S_{k+1}, plus row tiles and thin factors
            pytest.param(accaltproj_solve, 2.2, id="accaltproj_solve"),
            # S_k and the D - S_k its SVD reads, plus the SVD's thin factors
            pytest.param(altproj_solve, 2.5, id="altproj_solve"),
        ],
    )
    def test_peak_memory_is_two_buffers(self, solve, bound):
        # Measured above what is live at the call, which includes D.
        prob = generate(SyntheticSpec(400, 400, 5, 0.1, 1.0, 929))
        params = desk_params(prob, 0.1)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            sol = solve(prob.data, params)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert sol.converged
        assert peak <= bound * prob.data.nbytes, f"peak {peak / prob.data.nbytes:.2f} buffers"


# (m, n, r), with the tile heights of _row_tiles: a sixteenth of the rows,
# clamped to 64-256 KiB of rows, at least 4r rows in the L-update.
TILED_CASES = [
    pytest.param(300, 300, 3, id="ragged-last-tile"),     # 11 tiles of 27 rows, then 3
    pytest.param(20, 300, 3, id="m-below-one-tile"),      # a 27-row tile cut to 20
    pytest.param(40, 300, 3, id="wide"),                  # 27 rows, then 13
    pytest.param(300, 40, 3, id="tall"),                  # 204 rows, then 96
    pytest.param(1, 300, 1, id="one-row"),
    pytest.param(300, 1, 1, id="one-column"),
    pytest.param(215, 1200, 10, id="rank-floored-tile"),  # L-update 40 rows, sparse 14
]


class TestTiledStep:
    """The row-tiled step against the whole-matrix oracle ``dense_step``.

    The tiles sum U^T W and ||D - L - S||_F in another order than whole-matrix
    products do, so values agree to rounding and the support exactly.
    """

    @pytest.mark.parametrize(
        "shape, floor, heights",
        [
            ((400, 400), 1, [25] * 16),  # a sixteenth of the rows
            ((2000, 2000), 1, [16] * 125),  # 256 KiB
            ((200, 200), 1, [40] * 5),  # 64 KiB
            ((300, 300), 1, [27] * 11 + [3]),
            ((215, 1200), 40, [40] * 5 + [15]),  # the floor over 14 rows
            ((20, 300), 1, [20]),
            ((1, 300), 1, [1]),
            ((300, 1), 1, [300]),
            ((5, 40000), 1, [1] * 5),  # one row is more than 256 KiB
        ],
    )
    def test_tiles_cover_the_rows(self, shape, floor, heights):
        tiles = _row_tiles(shape, floor)
        assert [t.stop - t.start for t in tiles] == heights
        assert tiles[0].start == 0 and tiles[-1].stop == shape[0]
        assert all(a.stop == b.start for a, b in zip(tiles, tiles[1:]))

    def test_l_update_tiles_are_at_least_4r_rows(self, monkeypatch):
        # U_t^T W_t has the tile height as its inner dimension
        heights = []

        def recording(shape, floor=1):
            tiles = _row_tiles(shape, floor)
            heights.append(tiles[0].stop)
            return tiles

        monkeypatch.setattr(rpca.solver, "_row_tiles", recording)
        prob = generate(SyntheticSpec(215, 1200, 10, 0.1, 1.0, 1))
        params = desk_params(prob, 0.1)
        state, _ = initialize(prob.data, params)
        heights.clear()
        _tangent_l_update(state.low_rank, prob.data, state.sparse, params)
        assert heights == [40]  # 4r, over the 14 rows of a sixteenth

    @pytest.mark.parametrize("l_update", [_tangent_l_update, _svd_l_update])
    @pytest.mark.parametrize("m, n, r", TILED_CASES)
    def test_step_matches_dense_oracle(self, m, n, r, l_update):
        prob = generate(SyntheticSpec(m, n, r, 0.1, 1.0, 1000 + m + n + r))
        d = prob.data
        params = desk_params(prob, 0.1)
        state, _ = initialize(d, params)
        while state.k < 10:  # past the start of the schedule, where S_k stays empty
            state, _ = _step(state, d, params, l_update)
        tiled, tiled_norm = _step(state, d, params, l_update)
        dense, dense_norm = dense_step(state, d, params, l_update)

        assert np.array_equal(tiled.sparse != 0.0, dense.sparse != 0.0)
        if min(m, n) > r:
            assert np.count_nonzero(dense.sparse) > 0
        assert frob(tiled.sparse - dense.sparse) <= 1e-12 * frob(dense.sparse)
        l_dense = dense.low_rank.matrix()
        assert frob(tiled.low_rank.matrix() - l_dense) <= 1e-12 * frob(l_dense)
        assert tiled.zeta == pytest.approx(dense.zeta, rel=1e-12)
        assert np.allclose(tiled.sigma_window, dense.sigma_window, rtol=1e-12, atol=0.0)
        # with one row or column L is D up to rounding, and so is the residual:
        # it has no relative accuracy below the rounding level of D
        assert abs(tiled_norm - dense_norm) <= 1e-12 * dense_norm + 1e-15 * frob(d)


class TestSparseSpectralBound:
    def test_alpha_sparse_symmetric(self):
        # ||S||_2 <= alpha n ||S||_inf with alpha the max row/column fill.
        rng = np.random.default_rng(21)
        for _ in range(15):
            n = int(rng.integers(5, 51))
            s = np.zeros((n, n))
            count = int(rng.integers(1, max(2, n * n // 8)))
            idx = rng.choice(n * n, size=count, replace=False)
            s.ravel()[idx] = rng.uniform(-2.0, 2.0, size=count)
            s = np.triu(s) + np.triu(s, 1).T  # symmetric
            if not s.any():
                continue
            fill = max(
                int(np.max(np.count_nonzero(s, axis=0))),
                int(np.max(np.count_nonzero(s, axis=1))),
            )
            bound = fill * np.max(np.abs(s))
            assert spectral_norm(s) <= bound + 1e-10 * bound
