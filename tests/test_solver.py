import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rpca.solver
from rpca.kernel import SKETCH_SEED, spectral_norm, svd_small, svd_truncated, thin_qr
from rpca.metrics import factor_incoherence, incoherence_of, relative_error
from rpca.solver import (
    FactoredLowRank,
    IterationState,
    RpcaParams,
    accaltproj_solve,
    altproj_solve,
    hard_threshold,
    initialize,
    structured_truncate,
    threshold_value,
    trim,
)
from rpca.solver import (
    _ROW0_RTOL,
    _Gather,
    _row_tiles,
    _sparse_part,
    _step,
    _tiled_pass,
)
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


def rescaled_factors(low_rank, mu):
    """Oracle for trim's row rescaling: each row of U over sqrt(mu r / m), and
    of V over sqrt(mu r / n), scaled onto that budget; other rows kept."""
    scaled = []
    for f in (low_rank.U, low_rank.V):
        norms = np.linalg.norm(f, axis=1)
        with np.errstate(divide="ignore"):
            scale = np.minimum(1.0, math.sqrt(mu * low_rank.rank / f.shape[0]) / norms)
        scaled.append(f * scale[:, None])
    return scaled


def projector(a):
    """Orthogonal projector onto the column space of a full-rank ``a``."""
    return a @ np.linalg.pinv(a)


def truncate_dense(low_rank, w):
    """structured_truncate of a whole W, with both products formed from it."""
    return structured_truncate(low_rank, low_rank.U.T @ w, w @ low_rank.V)


def sparse_of(state, d):
    """S_k of ``state``, rebuilt from (L_k, zeta_k) as a solve writes its final S."""
    return _sparse_part(d, state.low_rank, state.zeta)


def tangent_basis(low_rank, params):
    """Oracle for the basis AccAltProj projects at: the QR bases of trim's
    rescaled factors, as a dense computation (the tangent space reads only
    the spans of the factors)."""
    if not params.trim_enabled:
        return low_rank
    qa, qb = (np.linalg.qr(f)[0] for f in rescaled_factors(low_rank, params.mu))
    return low_rank._replace(U=qa, V=qb)


def dense_step(state, d, params, tangent):
    """Oracle: one iteration with W = D - S_k, L, D - L and S each formed as a
    whole m x n matrix.  Returns (L, window, zeta, S, ||D - L - S||_F)."""
    w = d - sparse_of(state, d)
    if tangent:
        low, window = truncate_dense(tangent_basis(state.low_rank, params), w)
    else:
        low, window = svd_truncated(w, params.rank, start=state.low_rank.V)
    zeta = threshold_value(window, params.rank, params.beta, params.gamma, state.k)
    residual = d - low.matrix()
    sparse = hard_threshold(residual, zeta)
    residual -= sparse
    return low, window, zeta, sparse, float(np.linalg.norm(residual))


def state_at(low, d, sparse, params, tangent, **fields):
    """A state built by hand at (L_k, S_k), with W_k = D - S_k handed on as
    the sparse pass would: gathered at trim(L_k), or stored whole."""
    if not tangent:
        return IterationState(low, d - sparse, **fields)
    w = _Gather(low, d.shape, params)
    for t in w.blocks:
        w.add(t, d[t] - sparse[t])
    return IterationState(low, w, **fields)


def stepped_copy(state, d, params):
    """``_step`` of a copy of ``state``, whose W buffer an AltProj step would spend."""
    if not isinstance(state.w, _Gather):
        state = replace(state, w=state.w.copy())
    return _step(state, d, params)


def accaltproj_step(state, d, params):
    """One accelerated iteration: tangent-space truncation, re-threshold, and
    trim of the new iterate for the next one."""
    return stepped_copy(state, d, params)[0]


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

    @pytest.mark.parametrize("name", ["mu", "beta", "beta_init", "gamma", "epsilon"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_rejected(self, name, value):
        # NaN fails every comparison, so a range check alone lets it through
        good = dict(rank=2, mu=1.5, beta=0.1, beta_init=0.2)
        with pytest.raises(ValueError, match=name):
            RpcaParams(**{**good, name: value})


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
        # the bases of the rescaled factors are U = +-e1 and V = +-(1,1,1,1)/2.
        low = FactoredLowRank(
            np.array([[1.0], [0.0], [0.0], [0.0]]),
            np.array([2.0]),
            np.full((4, 1), 0.5),
        )
        e1 = np.array([[1.0], [0.0], [0.0], [0.0]])
        out = trim(low, 1.0)
        assert out is not low
        assert frob(projector(out.U) - e1 @ e1.T) <= 1e-12
        assert frob(projector(out.V) - np.full((4, 4), 0.25)) <= 1e-12
        assert frob(np.abs(out.U) - e1) <= 1e-12
        assert frob(np.abs(out.V) - 0.5) <= 1e-12
        assert out.sigma is low.sigma
        assert frob(out.U.T @ out.U - np.eye(1)) <= 1e-12
        assert frob(out.V.T @ out.V - np.eye(1)) <= 1e-12

    def test_matches_dense_oracle_on_spiked_factors(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m, n, r = 25, 18, 3
            low = random_factored(rng, m, n, r)
            mu = 1.0
            out = trim(low, mu)
            for got, scaled in zip((out.U, out.V), rescaled_factors(low, mu)):
                expected = projector(scaled)
                assert frob(projector(got) - expected) <= 1e-12 * max(frob(expected), 1.0)
            assert frob(out.U.T @ out.U - np.eye(r)) <= 1e-10 * r
            assert frob(out.V.T @ out.V - np.eye(r)) <= 1e-10 * r
            assert out.sigma is low.sigma

    def test_hands_over_the_qr_bases_without_a_core_svd(self, monkeypatch):
        # The tangent projection reads only the spans of the trimmed factors,
        # so trim returns the Q factors of the rescaled factors as they are.
        svd_calls = []

        def counting(a):
            svd_calls.append(a.shape)
            return svd_small(a)

        state, _, _ = desk_state(True)
        monkeypatch.setattr(rpca.solver, "svd_small", counting)
        out = trim(state.low_rank, 1.0)
        assert out is not state.low_rank  # mu = 1 is below the incoherence
        assert svd_calls == []
        u_scaled, v_scaled = rescaled_factors(state.low_rank, 1.0)
        assert np.array_equal(out.U, thin_qr(u_scaled)[0])
        assert np.array_equal(out.V, thin_qr(v_scaled)[0])
        assert out.sigma is state.low_rank.sigma

    def test_idempotent_when_output_within_budget(self):
        # An input within budget comes back as the same object, so a second
        # trim changes nothing.  A trimmed output is never within budget: row
        # i of its U is s_i u_i R^-1 with R^T R = I - Delta, where Delta =
        # sum_k (1 - s_k^2) u_k u_k^T is positive semidefinite, so a clipped
        # row ends in (cap, cap / sqrt(1 - lambda_max(Delta))]; V likewise.
        rng = np.random.default_rng(9)
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
            clipped_rows = 0
            for basis, trimmed in ((low.U, tight.U), (low.V, tight.V)):
                norms = np.linalg.norm(basis, axis=1)
                shrink = 1.0 - np.minimum(1.0, cap / norms) ** 2
                delta = (basis * shrink[:, None]).T @ basis
                top = cap / np.sqrt(1.0 - np.linalg.eigvalsh(delta)[-1])
                rows = np.linalg.norm(trimmed[norms > cap], axis=1)
                assert ((rows > cap) & (rows <= top * (1.0 + 1e-12))).all()
                clipped_rows += rows.size
            assert clipped_rows >= 1

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

    def test_out_may_be_other_rows_of_the_input_array(self):
        larger = np.arange(24.0).reshape(6, 4)
        out = hard_threshold(larger[:3], 5.0, out=larger[3:])
        assert np.array_equal(out, [[0, 0, 0, 0], [0, 0, 6, 7], [8, 9, 10, 11]])


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


@pytest.fixture
def sigma_calls(monkeypatch):
    """Record each spectral_norm call of ``initialize`` as (enough, value)."""
    calls = []

    def recording(a, enough):
        value = spectral_norm(a, enough)
        calls.append((enough, value))
        return value

    monkeypatch.setattr(rpca.solver, "spectral_norm", recording)
    return calls


def two_product_bound(d):
    """||D^T y|| for y = D x / ||D x||, x the seeded start vector: a lower
    bound on sigma_1(D) from two products."""
    y = d @ np.random.default_rng(SKETCH_SEED).standard_normal(d.shape[1])
    y /= np.linalg.norm(y)
    return float(np.linalg.norm(y @ d))


def dense_initialize(d, params):
    """Reference for ``initialize``: sigma_1(D) from the dense SVD, then the
    idle test against beta_init * sigma_1(D), and AccAltProj's row-0
    truncation at its certificate tolerance.  Returns the state, the
    residual norm and S_init."""
    zeta_init = params.beta_init * np.linalg.norm(d, 2)
    s_init = hard_threshold(d, zeta_init)
    idle = np.abs(d).max() <= zeta_init
    low, window = svd_truncated(d if idle else d - s_init, params.rank, rtol=_ROW0_RTOL)
    zeta_0 = params.beta * float(low.sigma[0])
    w = _Gather(low, d.shape, params)
    norm, max_abs_dl = _tiled_pass(d, low, zeta_0, w, track_max=idle)
    return IterationState(low, w, 0, zeta_0, window, 0.0, max_abs_dl), norm, s_init


def assert_same_start(got, ref, d):
    """The state and residual norm of ``initialize`` equal the reference's bit
    for bit, and so do S_0 and the products handed on to the first step."""
    (state, norm), (want, want_norm) = got, ref
    for name in ("U", "sigma", "V"):
        assert np.array_equal(getattr(state.low_rank, name), getattr(want.low_rank, name))
    assert np.array_equal(sparse_of(state, d), sparse_of(want, d))
    assert np.array_equal(state.w.utw, want.w.utw) and np.array_equal(state.w.wv, want.w.wv)
    assert np.array_equal(state.sigma_window, want.sigma_window)
    assert (state.k, state.zeta, state.max_abs_dl, norm) == (want.k, want.zeta, want.max_abs_dl, want_norm)


class TestInitializePaths:
    """``initialize`` asks Lanczos for sigma_1(D) only up to max|D| / beta_init:
    its first step, two products, usually proves that no entry of D exceeds
    the first threshold, a later step may, and only a certified sigma_1(D)
    thresholds D.  The state is the same on all three paths."""

    def test_bound_proves_the_first_threshold_idle(self, sigma_calls):
        prob = generate(SyntheticSpec(200, 200, 5, 0.1, 1.0, 1))
        d, params = prob.data, desk_params(prob)
        got = initialize(d, params)
        [(level, value)] = sigma_calls
        # Lanczos stopped at its first step, well below sigma_1(D)
        assert value == pytest.approx(two_product_bound(d), rel=1e-15)
        assert level <= value < 0.99 * np.linalg.norm(d, 2)
        state, norm, s_init = dense_initialize(d, params)
        assert not np.any(s_init)
        assert_same_start(got, (state, norm), d)

    def test_sigma_1_proves_what_the_bound_cannot(self, sigma_calls):
        prob = generate(SyntheticSpec(200, 200, 5, 0.1, 1.0, 1))
        d, params = prob.data.copy(), desk_params(prob)
        bound, sigma_1 = two_product_bound(d), np.linalg.norm(d, 2)
        d[17, 42] = params.beta_init * (bound + sigma_1) / 2.0
        # the entry lies between the two thresholds of the changed D as well
        max_abs_d = np.abs(d).max()
        assert max_abs_d > params.beta_init * two_product_bound(d) * (1.0 + 1e-12)
        assert max_abs_d <= params.beta_init * np.linalg.norm(d, 2)
        got = initialize(d, params)
        [(level, value)] = sigma_calls
        assert two_product_bound(d) < level <= value <= np.linalg.norm(d, 2) * (1.0 + 1e-14)
        state, norm, s_init = dense_initialize(d, params)
        assert not np.any(s_init)
        assert_same_start(got, (state, norm), d)

    def test_spiked_input_thresholds_d(self, sigma_calls):
        # the spiked input of acceptance criterion 7, with the CLI's parameters
        d = generate(SyntheticSpec(64, 64, 2, 0.1, 20.0, 17)).data
        params = RpcaParams.defaults(d.shape, 2, incoherence_of(d, 2), gamma=0.7)
        got = initialize(d, params)
        [(level, value)] = sigma_calls
        # not idle: Lanczos ran until sigma_1(D) was certified
        assert value < level
        assert value == pytest.approx(np.linalg.norm(d, 2), rel=1e-14)
        state, norm, s_init = dense_initialize(d, params)
        assert np.any(s_init)
        assert_same_start(got, (state, norm), d)

    def test_spiked_start_certifies_without_the_dense_svd(self, monkeypatch, peak_buffers):
        # Certified to 1e-10, the truncation of D - S_init runs 10 sweeps and
        # then the dense SVD of D - S_init, which peaks at 3.04 buffers above
        # D; to AccAltProj's row-0 tolerance it certifies in 7 sweeps
        # (measured 1.08: the S_init array it is formed in, and thin arrays).
        prob = generate(SyntheticSpec(1000, 1000, 5, 0.1, 20.0, 1))
        d, params = prob.data, desk_params(prob)
        shapes, original = [], rpca.kernel.svd_small
        monkeypatch.setattr(
            rpca.kernel, "svd_small", lambda a: shapes.append(np.shape(a)) or original(a)
        )
        (state, _), peak = peak_buffers(lambda: initialize(d, params), d.nbytes)
        assert shapes and set(shapes) == {(15, 15)}  # every call a k x k sweep core
        assert peak <= 1.15, f"peak {peak:.3f} buffers"
        assert np.any(hard_threshold(d, params.beta_init * spectral_norm(d)))  # S_init != 0

    def test_zero_d_never_reaches_sigma_1(self, sigma_calls):
        # the first Lanczos product of a zero D is 0, so sigma_1 = 0 without
        # a division, and max|D| / beta_init = 0 <= 0 takes the idle branch
        params = RpcaParams(rank=2, mu=1.0, beta=0.1, beta_init=0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            state, norm = initialize(np.zeros((6, 5)), params)
        assert sigma_calls == [(0.0, 0.0)]
        assert np.array_equal(sparse_of(state, np.zeros((6, 5))), np.zeros((6, 5)))
        assert norm == 0.0


class TestInitialize:
    def test_zero_matrix(self):
        params = RpcaParams(rank=1, mu=1.0, beta=0.1, beta_init=0.2)
        state, _ = initialize(np.zeros((4, 4)), params)
        assert frob(state.low_rank.matrix()) == 0.0
        assert np.array_equal(sparse_of(state, np.zeros((4, 4))), np.zeros((4, 4)))
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
        s_first = hard_threshold(d, params.beta_init * spectral_norm(d))
        assert np.count_nonzero(s_first) == 0
        state, _ = initialize(d, params)
        assert frob(state.low_rank.matrix() - d) <= 1e-12 * frob(d)
        assert np.count_nonzero(sparse_of(state, d)) == 0

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

        zeta_guess = params.beta_init * spectral_norm(d)
        guess = hard_threshold(d, zeta_guess)
        assert np.allclose(guess, s_first, atol=1e-12)
        assert zeta_guess == pytest.approx(zeta_first, rel=1e-12)
        state, _ = initialize(d, params)
        assert frob(state.low_rank.matrix() - l0) <= 1e-12 * frob(l0)
        assert frob(sparse_of(state, d) - s0) <= 1e-12
        assert state.zeta == pytest.approx(zeta0, rel=1e-12)
        assert state.k == 0

    def test_rank_out_of_range(self):
        params = RpcaParams(rank=5, mu=1.0, beta=0.1, beta_init=0.2)
        with pytest.raises(ValueError, match="out of range"):
            initialize(np.ones((3, 3)), params)

    def test_thresholds_match_dense_oracle(self):
        prob = generate(SyntheticSpec(300, 300, 5, 0.1, 1.0, 808))
        d, params = prob.data, desk_params(prob)
        zeta_first = params.beta_init * spectral_norm(d)
        s_first = hard_threshold(d, zeta_first)
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
        state = state_at(low, d, sparse, params, True, k=2, zeta=0.5, sigma_window=low.sigma)
        out = accaltproj_step(state, d, params)
        assert frob(out.low_rank.matrix() - low.matrix()) <= 1e-10 * frob(low.matrix())
        assert frob(sparse_of(out, d) - sparse) <= 1e-10
        assert out.k == 3

    def test_matches_dense_oracle_pipeline(self):
        inst = Hand6x6()
        d, params = inst.data, inst.params
        state, _ = initialize(d, params)

        basis = trim(state.low_rank, params.mu)
        projected = tangent_project(basis, d - sparse_of(state, d))
        u, s, vt = np.linalg.svd(projected)
        l_next = s[0] * np.outer(u[:, 0], vt[0])
        zeta_next = params.beta * (s[1] + params.gamma * s[0])
        s_next = np.where(np.abs(d - l_next) > zeta_next, d - l_next, 0.0)

        out = accaltproj_step(state, d, params)
        assert frob(out.low_rank.matrix() - l_next) <= 1e-10 * max(frob(l_next), 1.0)
        assert out.zeta == pytest.approx(zeta_next, rel=1e-10)
        assert frob(sparse_of(out, d) - s_next) <= 1e-10
        assert out.k == 1

    def test_trim_toggle_identical_on_incoherent_state(self):
        rng = np.random.default_rng(19)
        prob = generate(SyntheticSpec(30, 30, 2, 0.05, 1.0, 77))
        params = RpcaParams.defaults(prob.data.shape, 2, mu=max(1.0, 1.1 * prob.mu_true))
        # trim at L_0 runs in initialize's S_0 pass, so each side starts there
        no_trim = replace(params, trim_enabled=False)
        with_trim = accaltproj_step(initialize(prob.data, params)[0], prob.data, params)
        without = accaltproj_step(initialize(prob.data, no_trim)[0], prob.data, no_trim)
        assert np.array_equal(with_trim.low_rank.matrix(), without.low_rank.matrix())
        assert np.array_equal(sparse_of(with_trim, prob.data), sparse_of(without, prob.data))
        assert with_trim.zeta == without.zeta


def desk_params(problem, **overrides):
    # Desk-scale runs need the slower threshold decay; see PhaseConfig docs.
    return RpcaParams.defaults(
        problem.data.shape,
        problem.spec.rank,
        mu=max(1.0, 1.1 * problem.mu_true),
        gamma=0.7,
        **overrides,
    )


def with_entry(value):
    """A 4 x 4 matrix of ones with ``value`` at (2, 2)."""
    d = np.ones((4, 4))
    d[2, 2] = value
    return d


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
            assert sol.iterations == 0 and len(sol.trace) == 1
            assert sol.final_err <= 1e-12

    def test_synthetic_recovery(self):
        for seed in (101, 202, 303):
            prob = generate(SyntheticSpec(200, 200, 5, 0.1, 1.0, seed))
            sol = accaltproj_solve(prob.data, desk_params(prob))
            assert sol.converged and sol.final_err < 1e-6
            rec = frob(sol.low_rank.matrix() - prob.low_rank) / frob(prob.low_rank)
            assert rec <= 1e-4
            errs = np.array([rec.err for rec in sol.trace])
            ratios = errs[4:] / errs[3:-1]
            assert np.median(ratios) < 1.0

    def test_cross_solver_agreement(self):
        prob = generate(SyntheticSpec(200, 200, 5, 0.1, 1.0, 404))
        params = desk_params(prob)
        accelerated = accaltproj_solve(prob.data, params)
        baseline = altproj_solve(prob.data, params)
        assert accelerated.converged and baseline.converged
        gap = frob(accelerated.low_rank.matrix() - baseline.low_rank.matrix())
        assert gap / frob(prob.low_rank) <= 1e-3
        assert frob(accelerated.sparse - baseline.sparse) / frob(prob.data) <= 1e-3

    def test_baseline_l_update_is_plain_truncation(self):
        prob = generate(SyntheticSpec(40, 40, 3, 0.1, 1.0, 505))
        params = desk_params(prob)
        state, _ = initialize(prob.data, params, tangent=False)
        w = prob.data - sparse_of(state, prob.data)
        assert np.array_equal(state.w, w)  # W_0, as the S_0 pass stored it
        out, _ = stepped_copy(state, prob.data, params)
        u, s, vt = np.linalg.svd(w)
        dense = (u[:, :3] * s[:3]) @ vt[:3]
        assert frob(out.low_rank.matrix() - dense) <= 1e-10 * frob(dense)

    def test_final_err_is_the_relative_error_of_the_output(self):
        prob = generate(SyntheticSpec(90, 150, 3, 0.1, 1.0, 515))
        params = desk_params(prob)
        for solve in (accaltproj_solve, altproj_solve):
            sol = solve(prob.data, params)
            assert sol.final_err == relative_error(prob.data, sol.low_rank, sol.sparse)

    def test_trace_is_deterministic(self):
        prob = generate(SyntheticSpec(80, 80, 3, 0.1, 1.0, 606))
        params = desk_params(prob)
        first = accaltproj_solve(prob.data, params)
        second = accaltproj_solve(prob.data, params)
        assert [rec.err for rec in first.trace] == [rec.err for rec in second.trace]
        assert [rec.zeta for rec in first.trace] == [rec.zeta for rec in second.trace]
        assert np.array_equal(first.sparse, second.sparse)
        assert np.array_equal(first.low_rank.matrix(), second.low_rank.matrix())
        for a, b in zip(first.trace, second.trace):
            assert np.array_equal(a.sigma_window, b.sigma_window)

    def test_trace_records_are_complete(self):
        prob = generate(SyntheticSpec(60, 60, 2, 0.1, 1.0, 707))
        sol = accaltproj_solve(prob.data, desk_params(prob))
        ks = [rec.k for rec in sol.trace]
        assert ks == list(range(len(ks)))
        assert all(rec.err >= 0 and rec.zeta >= 0 for rec in sol.trace)

    def test_init_row_times_the_truncation_only(self):
        prob = generate(SyntheticSpec(100, 100, 3, 0.1, 1.0, 909))
        sol = accaltproj_solve(prob.data, desk_params(prob))
        init = sol.trace[0]
        assert 0.0 < init.l_update_seconds < init.iter_seconds

    @pytest.mark.parametrize("solve", [accaltproj_solve, altproj_solve], ids=["acc", "alt"])
    @pytest.mark.parametrize(
        "d, rank, message",
        [
            pytest.param(with_entry(np.nan), 1, "non-finite", id="nan"),
            pytest.param(with_entry(np.inf), 1, "non-finite", id="+inf"),
            pytest.param(with_entry(-np.inf), 1, "non-finite", id="-inf"),
            pytest.param(np.ones(4), 1, "2-dimensional", id="1-d"),
            pytest.param(np.ones((4, 4, 1)), 1, "2-dimensional", id="3-d"),
            pytest.param(np.ones((0, 4)), 1, "non-empty", id="empty"),
            pytest.param(np.zeros((5, 5)), 1, "zero or out of scale", id="zero"),
            pytest.param(np.eye(4), 5, "rank 5 out of range for a 4 x 4 matrix", id="rank"),
        ],
    )
    def test_invalid_input_rejected(self, solve, d, rank, message):
        # the checks that guard the entry points; the routines below them trust D
        params = RpcaParams(rank=rank, mu=1.0, beta=0.1, beta_init=0.2)
        with pytest.raises(ValueError, match=message):
            solve(d, params)

    @pytest.mark.parametrize("solve", [accaltproj_solve, altproj_solve])
    @pytest.mark.parametrize("power", [-600, -540, 505])
    def test_d_whose_norm_is_out_of_range_rejected(self, solve, power):
        # ||D||_F outside [2^-400, 2^400]: at 2^-600 every square underflows,
        # at 2^-540 the residual loses its low bits and the solve would report
        # a false convergence, and at 2^505 the sum of squares overflows.
        prob = generate(SyntheticSpec(120, 100, 3, 0.1, 1.0, 1))
        with pytest.raises(ValueError, match="zero or out of scale.*rescale D"):
            solve(prob.data * 2.0**power, desk_params(prob))

    @pytest.mark.parametrize("solve", [accaltproj_solve, altproj_solve])
    @pytest.mark.parametrize("power", [-300, 300])
    def test_scale_equivariant_inside_the_range(self, solve, power):
        prob = generate(SyntheticSpec(120, 100, 3, 0.1, 1.0, 1))
        params = desk_params(prob)
        ref = solve(prob.data, params)
        scale = 2.0**power
        sol = solve(prob.data * scale, params)
        assert sol.converged and ref.converged
        assert sol.iterations == ref.iterations
        assert np.array_equal(sol.low_rank.matrix() / scale, ref.low_rank.matrix())
        assert np.array_equal(sol.sparse / scale, ref.sparse)

    def test_rectangular_problem(self):
        prob = generate(SyntheticSpec(120, 80, 3, 0.1, 1.0, 808))
        sol = accaltproj_solve(prob.data, desk_params(prob))
        assert sol.converged
        rec = frob(sol.low_rank.matrix() - prob.low_rank) / frob(prob.low_rank)
        assert rec <= 1e-4


def unskipped_solve(d, params, tangent):
    """Reference for the solvers: ``initialize``, then ``_step`` under the
    same stopping rule, with every step computed.  Returns the final state
    and the (k, err, zeta, sigma_window) of each iteration."""
    d_norm = float(np.linalg.norm(d))
    state, norm = initialize(d, params, tangent)
    rows = [(state.k, norm / d_norm, state.zeta, state.sigma_window)]
    while rows[-1][1] >= params.epsilon and state.k < params.max_iter:
        state, norm = _step(state, d, params)
        rows.append((state.k, norm / d_norm, state.zeta, state.sigma_window))
    return state, rows


SOLVERS = [
    pytest.param(altproj_solve, False, id="altproj"),
    pytest.param(accaltproj_solve, True, id="accaltproj"),
]


def spiked_start():
    """(D, params) whose S_init is nonzero while S_0, S_1, ... stay zero for
    a few steps, so that no step may be skipped.

    Three spikes just above the first threshold make S_init nonzero, and
    beta = 2 beta_init with gamma = 0.9 keeps the next sparse iterates zero
    below them.
    """
    prob = generate(SyntheticSpec(200, 200, 5, 0.1, 0.2, 1))
    params = desk_params(prob, max_iter=15)
    params = replace(params, beta=2.0 * params.beta_init, gamma=0.9)
    d = prob.data.copy()
    d[[3, 70, 150], [9, 120, 40]] = 1.05 * params.beta_init * spectral_norm(d)
    return d, params


def assert_matches_unskipped(sol, ref, rows, d, tangent):
    """The skip leaves the iterate sequence as the reference computes it, to
    rounding: a skipped step of either solver would return L again up to
    rounding.  For AltProj, whose skipped SVDs would read the same D from a
    sketch started at V_k, the k sequence and the support of S are exact,
    zeta agrees to 1e-11 and L to 1e-13 relative (measured at most 4.3e-13
    and 3.2e-15)."""
    records = sol.trace
    assert [rec.k for rec in records] == [row[0] for row in rows]
    if not tangent:
        assert np.array_equal(sol.sparse != 0.0, sparse_of(ref, d) != 0.0)
    zeta_rtol, l_rtol = (1e-9, 1e-8) if tangent else (1e-11, 1e-13)
    zetas = np.array([row[2] for row in rows])
    assert np.allclose([rec.zeta for rec in records], zetas, rtol=zeta_rtol, atol=0.0)
    l_ref = ref.low_rank.matrix()
    assert frob(sol.low_rank.matrix() - l_ref) <= l_rtol * frob(l_ref)


class TestIdleSkip:
    """While S_init and every S_k are zero, the solvers skip the steps that
    would leave (L, S) unchanged, and log one ``skipped`` row for each."""

    @pytest.mark.parametrize("solve, tangent", SOLVERS)
    @pytest.mark.parametrize("amplitude", [0.2, 1.0, 5.0])
    def test_matches_the_unskipped_loop(self, solve, tangent, amplitude):
        prob = generate(SyntheticSpec(200, 200, 5, 0.1, amplitude, 1))
        params = desk_params(prob)
        sol = solve(prob.data, params)
        ref, rows = unskipped_solve(prob.data, params, tangent)
        assert sol.converged and sol.iterations == ref.k
        assert_matches_unskipped(sol, ref, rows, prob.data, tangent)
        skipped = [rec for rec in sol.trace if rec.skipped]
        if amplitude < 5.0:  # the larger the corruption, the shorter the idle start
            assert skipped
        for rec in skipped:
            assert rec.k >= 2  # after the initialization and one loop step
            assert rec.iter_seconds == 0.0 and rec.l_update_seconds == 0.0
        # a skipped row repeats the err and window of the row before it
        for before, rec in zip(sol.trace, sol.trace[1:]):
            if rec.skipped:
                assert rec.err == before.err
                assert np.array_equal(rec.sigma_window, before.sigma_window)

    @pytest.mark.parametrize("solve, tangent", SOLVERS)
    def test_max_iter_inside_the_idle_start(self, solve, tangent):
        prob = generate(SyntheticSpec(200, 200, 5, 0.1, 0.2, 1))
        params = desk_params(prob, max_iter=5)
        sol = solve(prob.data, params)
        ref, rows = unskipped_solve(prob.data, params, tangent)
        assert sol.iterations == params.max_iter and not sol.converged
        assert sol.trace[-1].skipped
        assert not np.any(sol.sparse)
        assert_matches_unskipped(sol, ref, rows, prob.data, tangent)

    @pytest.mark.parametrize("solve, tangent", SOLVERS)
    def test_no_skip_after_a_nonzero_s_init(self, solve, tangent):
        # The idle steps are fixed points only if L_0 is the truncation of D
        # itself.  Skipping the zero-S steps of the spiked start would move
        # the accelerated solver's thresholds by about 4e-4.
        d, params = spiked_start()
        assert np.any(hard_threshold(d, params.beta_init * spectral_norm(d)))  # S_init != 0
        assert not np.any(sparse_of(initialize(d, params)[0], d))  # S_0 = 0
        sol = solve(d, params)
        ref, rows = unskipped_solve(d, params, tangent)
        assert not any(rec.skipped for rec in sol.trace)
        assert_matches_unskipped(sol, ref, rows, d, tangent)

    @pytest.mark.parametrize("amplitude", [0.2, 1.0])
    @pytest.mark.parametrize("seed", [3, 5, 6, 8, 9])
    def test_zeta_drift_where_trim_fires_on_the_idle_l(self, seed, amplitude):
        # With mu at the true incoherence, trim fires on L_0, so the skipped
        # tangent-space updates would have moved L a little.  The bounds are
        # those the solver docstring states; the measured worst cases are
        # 5.0e-7 for zeta and 4.4e-15 for L.
        prob = generate(SyntheticSpec(200, 200, 5, 0.1, amplitude, seed))
        params = RpcaParams.defaults(
            prob.data.shape, 5, mu=max(1.0, prob.mu_true), gamma=0.7
        )
        start, _ = initialize(prob.data, params)
        assert trim(start.low_rank, params.mu) is not start.low_rank
        sol = accaltproj_solve(prob.data, params)
        ref, rows = unskipped_solve(prob.data, params, True)
        assert any(rec.skipped for rec in sol.trace)
        assert sol.iterations == ref.k
        zetas = np.array([row[2] for row in rows])
        assert np.allclose([rec.zeta for rec in sol.trace], zetas, rtol=1e-4, atol=0.0)
        l_ref = ref.low_rank.matrix()
        assert frob(sol.low_rank.matrix() - l_ref) <= 1e-12 * frob(l_ref)

    def test_max_abs_dl_is_tracked_while_every_s_is_zero(self):
        prob = generate(SyntheticSpec(200, 200, 5, 0.1, 1.0, 1))
        d, params = prob.data, desk_params(prob)
        state, _ = initialize(d, params)
        idle = []
        while state.k < 12:
            idle.append(not np.any(sparse_of(state, d)) and (not idle or idle[-1]))
            if idle[-1]:
                dense = np.abs(d - state.low_rank.matrix()).max()
                assert state.max_abs_dl == pytest.approx(dense, rel=1e-12)
            else:
                assert state.max_abs_dl is None
            state, _ = _step(state, d, params)
        assert idle[0] and not idle[-1]

    def test_sparse_pass_returns_the_maximum_only_while_s_is_zero(self):
        rng = np.random.default_rng(7)
        low = random_factored(rng, 300, 300, 3)  # 12 row tiles
        d = low.matrix() + rng.standard_normal((300, 300))
        params = RpcaParams(rank=3, mu=100.0, beta=0.1, beta_init=0.2)
        w = np.empty(d.shape)
        _, top = _tiled_pass(d, low, math.inf, w, track_max=True)
        assert top == pytest.approx(np.abs(d - low.matrix()).max(), rel=1e-12)
        # no entry of D - L exceeds zeta: S = 0, W = D, and the maximum is returned
        norm, max_abs_dl = _tiled_pass(d, low, top, w, track_max=True)
        assert np.array_equal(w, d) and max_abs_dl == top
        assert not np.any(_sparse_part(d, low, top))
        # a gather's blocks are the same 27-row tiles here, so its norm is the same
        assert norm == _tiled_pass(d, low, top, _Gather(low, d.shape, params))[0]
        # one entry does: S != 0, and the maximum no longer serves
        zeta = np.nextafter(top, 0.0)
        _, max_abs_dl = _tiled_pass(d, low, zeta, w, track_max=True)
        assert np.count_nonzero(w != d) == 1 and max_abs_dl is None
        assert np.count_nonzero(_sparse_part(d, low, zeta)) == 1
        # untracked, nothing is returned even for S = 0
        assert _tiled_pass(d, low, top, w)[1] is None

    def test_initialize_truncates_d_when_nothing_exceeds_the_first_threshold(self):
        prob = generate(SyntheticSpec(200, 200, 5, 0.1, 1.0, 1))
        d, params = prob.data, desk_params(prob)
        assert not np.any(hard_threshold(d, params.beta_init * spectral_norm(d)))
        state, _ = initialize(d, params)
        # W = D - S_init, formed, truncated at AccAltProj's row-0 tolerance
        low, window = svd_truncated(d - 0.0, params.rank, rtol=_ROW0_RTOL)
        assert np.array_equal(state.low_rank.U, low.U)
        assert np.array_equal(state.low_rank.sigma, low.sigma)
        assert np.array_equal(state.low_rank.V, low.V)
        assert np.array_equal(state.sigma_window, window)


class TestWorkspaceReuse:
    """An accelerated solve keeps no m x n array in its loop.  A baseline
    solve owns one m x n buffer, allocated by ``initialize``: each iteration
    writes W_{k+1} = D - S_{k+1} over W_k.  Either allocates the returned S
    after the loop, once its last state is dropped, and only row tiles and
    thin factors besides.  Nothing a solve returns may alias D or another
    solve's result."""

    def setup_method(self):
        self.prob = generate(SyntheticSpec(60, 50, 2, 0.1, 1.0, 919))
        self.params = desk_params(self.prob)

    def test_solvers_leave_d_unchanged(self):
        d = self.prob.data
        before = d.tobytes()
        for solve in (accaltproj_solve, altproj_solve):
            sol = solve(d, self.params)
            assert d.tobytes() == before
            assert not np.shares_memory(sol.sparse, d)

    def test_step_hands_w_on_and_returns_its_norm(self):
        # AltProj's step writes W_{k+1} over W_k in the solve's one buffer;
        # AccAltProj's hands on a new gather and keeps no m x n array.
        d = self.prob.data
        for tangent in (True, False):
            state, residual_norm = initialize(d, self.params, tangent)
            out, residual_norm = _step(state, d, self.params)
            if tangent:
                assert isinstance(out.w, _Gather) and out.w is not state.w
            else:
                assert out.w is state.w and not np.shares_memory(out.w, d)
                assert np.array_equal(out.w, d - sparse_of(out, d))
            # the returned norm is that of D - L - S for the returned state
            dense = frob(d - out.low_rank.matrix() - sparse_of(out, d))
            assert abs(residual_norm - dense) <= 1e-12 * dense

    def test_consecutive_solves_share_no_buffer(self):
        d = self.prob.data
        for solve in (accaltproj_solve, altproj_solve):
            first = solve(d, self.params)
            second = solve(d, self.params)
            assert np.array_equal(first.low_rank.U, second.low_rank.U)
            assert np.array_equal(first.low_rank.sigma, second.low_rank.sigma)
            assert np.array_equal(first.low_rank.V, second.low_rank.V)
            assert np.array_equal(first.sparse, second.sparse)
            assert [rec.err for rec in first.trace] == [rec.err for rec in second.trace]
            assert not np.shares_memory(first.sparse, second.sparse)

    @pytest.mark.parametrize("solve, tangent", SOLVERS)
    def test_in_place_solve_matches_the_pure_step_loop(self, solve, tangent):
        # The spiked start computes every step from a nonzero S_init, so
        # the solve and the reference loop of bare ``_step`` calls run the
        # same iterations, and the final pass writes the S that the
        # reference's (L, zeta) give.
        d, params = spiked_start()
        sol = solve(d, params)
        ref, rows = unskipped_solve(d, params, tangent)
        assert np.any(sparse_of(ref, d))
        assert not any(rec.skipped for rec in sol.trace)
        assert np.array_equal(sol.low_rank.U, ref.low_rank.U)
        assert np.array_equal(sol.low_rank.sigma, ref.low_rank.sigma)
        assert np.array_equal(sol.low_rank.V, ref.low_rank.V)
        assert np.array_equal(sol.sparse, sparse_of(ref, d))
        assert len(sol.trace) == len(rows)
        for rec, (k, err, zeta, window) in zip(sol.trace, rows):
            assert (rec.k, rec.err, rec.zeta) == (k, err, zeta)
            assert np.array_equal(rec.sigma_window, window)

    @pytest.mark.parametrize(
        "solve, rank, alpha, overrides, bound",
        [
            # the returned S, plus row tiles and thin factors (measured 1.122)
            pytest.param(accaltproj_solve, 5, 0.1, {}, 1.15, id="accaltproj_solve"),
            # the one buffer, which holds D - S_k while the SVD reads it and is
            # freed before the returned S is allocated, plus the SVD's thin
            # factors (measured 1.230)
            pytest.param(altproj_solve, 5, 0.1, {}, 1.27, id="altproj_solve"),
            # 100-row blocks of W, 2r-column factors: an S buffer in the loop,
            # beside the block buffer, read 1.754 (measured 1.240)
            pytest.param(accaltproj_solve, 20, 0.05, {}, 1.3, id="accaltproj_solve-r20"),
            # the SVD's r + 10 sketch columns (measured 1.518)
            pytest.param(altproj_solve, 20, 0.05, {}, 1.55, id="altproj_solve-r20"),
            # The cap lands on a skipped step (k = 2 and 3 are skipped), whose
            # state must let go of W_K before S is allocated: a solve that kept
            # it read 2.113 (measured 1.111 and 1.195).
            pytest.param(accaltproj_solve, 5, 0.1, {"max_iter": 3}, 1.15,
                         id="accaltproj_solve-capped-on-skip"),
            pytest.param(altproj_solve, 5, 0.1, {"max_iter": 3}, 1.27,
                         id="altproj_solve-capped-on-skip"),
        ],
    )
    def test_peak_memory_is_one_buffer(self, solve, rank, alpha, overrides, bound, peak_buffers):
        # Measured above what is live at the call, which includes D.
        prob = generate(SyntheticSpec(400, 400, rank, alpha, 1.0, 929))
        params = desk_params(prob, **overrides)
        sol, peak = peak_buffers(lambda: solve(prob.data, params), prob.data.nbytes)
        if overrides:  # S is the one of the skipped row's (L_K, zeta_K)
            assert not sol.converged and sol.trace[-1].skipped
            want = _sparse_part(prob.data, sol.low_rank, sol.trace[-1].zeta)
            assert np.array_equal(sol.sparse, want)
        else:
            assert sol.converged
        assert peak <= bound, f"peak {peak:.3f} buffers"


# (m, n, r), with the tile heights of _row_tiles: a sixteenth of the rows,
# clamped to 64-256 KiB of rows; the L-update's blocks are runs of whole
# tiles, at least 4r rows.
TILED_CASES = [
    pytest.param(300, 300, 3, id="ragged-last-tile"),     # 11 tiles of 27 rows, then 3
    pytest.param(20, 300, 3, id="m-below-one-tile"),      # a 27-row tile cut to 20
    pytest.param(40, 300, 3, id="wide"),                  # 27 rows, then 13
    pytest.param(300, 40, 3, id="tall"),                  # 204 rows, then 96
    pytest.param(1, 300, 1, id="one-row"),
    pytest.param(300, 1, 1, id="one-column"),
    pytest.param(215, 1200, 10, id="rank-floored-tile"),  # L-update 3 tiles of 14 rows
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

    @pytest.mark.parametrize(
        "shape, r, heights",
        [
            ((215, 1200), 10, [42] * 5 + [5]),  # 3 tiles of 14 rows
            ((400, 400), 20, [100] * 4),  # 4 tiles of 25
            ((1200, 1200), 50, [216] * 5 + [120]),  # 8 tiles of 27
            ((2000, 2000), 5, [32] * 62 + [16]),  # 2 tiles of 16
            ((300, 300), 30, [135, 135, 30]),  # 5 tiles of 27
            ((1000, 1000), 5, [32] * 31 + [8]),  # one 32-row tile covers 4r
        ],
    )
    def test_gather_blocks_are_runs_of_whole_tiles(self, shape, r, heights):
        # the sparse pass hands a block on when a tile ends it
        m, n = shape
        low = random_factored(np.random.default_rng(r), m, n, r)
        params = RpcaParams(rank=r, mu=1.0, beta=1.0, beta_init=1.0, trim_enabled=False)
        blocks, tiles = _Gather(low, shape, params).blocks, _row_tiles(shape)
        assert [b.stop - b.start for b in blocks] == heights
        assert all(b.stop - b.start >= 4 * r for b in blocks[:-1])
        assert blocks[0].start == 0 and blocks[-1].stop == m
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert {b.stop for b in blocks} <= {t.stop for t in tiles}

    def test_l_update_tiles_are_at_least_4r_rows(self, monkeypatch):
        # U_t^T W_t has the block height as its inner dimension
        heights = []

        def recording(gather, block, w):
            heights.append(block.stop - block.start)
            return add(gather, block, w)

        add = _Gather.add
        monkeypatch.setattr(_Gather, "add", recording)
        prob = generate(SyntheticSpec(215, 1200, 10, 0.1, 1.0, 1))
        params = desk_params(prob)
        state, _ = initialize(prob.data, params)
        heights.clear()
        _step(state, prob.data, params)
        assert heights == [42] * 5 + [5]  # 3 tiles of 14 rows, a sixteenth, cover 4r
        assert all(h >= 4 * 10 for h in heights[:-1])

    @pytest.mark.parametrize(
        "tangent, overrides",
        [
            pytest.param(True, {}, id="_tangent_l_update"),
            pytest.param(False, {}, id="_svd_l_update"),
            pytest.param(True, {"mu": 1.0}, id="_tangent_l_update-trim-fires"),
        ],
    )
    @pytest.mark.parametrize("m, n, r", TILED_CASES)
    def test_step_matches_dense_oracle(self, m, n, r, tangent, overrides):
        prob = generate(SyntheticSpec(m, n, r, 0.1, 1.0, 1000 + m + n + r))
        d = prob.data
        params = replace(desk_params(prob), **overrides)
        state, _ = initialize(d, params, tangent)
        if overrides:  # mu = 1 is below the incoherence, so trim fires
            assert trim(state.low_rank, params.mu) is not state.low_rank
        while state.k < 10:  # past the start of the schedule, where S_k stays empty
            state, _ = _step(state, d, params)
        tiled, tiled_norm = stepped_copy(state, d, params)
        low, window, zeta, sparse, dense_norm = dense_step(state, d, params, tangent)

        tiled_sparse = sparse_of(tiled, d)
        assert np.array_equal(tiled_sparse != 0.0, sparse != 0.0)
        if min(m, n) > r:
            assert np.count_nonzero(sparse) > 0
        assert frob(tiled_sparse - sparse) <= 1e-12 * frob(sparse)
        l_dense = low.matrix()
        assert frob(tiled.low_rank.matrix() - l_dense) <= 1e-12 * frob(l_dense)
        assert tiled.zeta == pytest.approx(zeta, rel=1e-12)
        assert np.allclose(tiled.sigma_window, window, rtol=1e-12, atol=0.0)
        # with one row or column L is D up to rounding, and so is the residual:
        # it has no relative accuracy below the rounding level of D
        assert abs(tiled_norm - dense_norm) <= 1e-12 * dense_norm + 1e-15 * frob(d)


    @pytest.mark.parametrize(
        "m, n, r",
        TILED_CASES + [pytest.param(400, 400, 20, id="block-of-sub-tiles")],  # 100-row blocks of 25-row tiles
    )
    def test_pass_hands_on_the_products_at_the_trimmed_basis(self, m, n, r):
        # The sparse pass that builds S_k gathers U'^T (D - S_k) and
        # (D - S_k) V' at (U', V') = trim(L_k), block by block.  At mu = 1,
        # below the incoherence, trim returns new bases.
        prob = generate(SyntheticSpec(m, n, r, 0.1, 1.0, 1000 + m + n + r))
        d = prob.data
        params = replace(desk_params(prob), mu=1.0)
        state, _ = initialize(d, params)
        while state.k < 10:
            state, _ = _step(state, d, params)
        gather, trimmed = state.w, trim(state.low_rank, params.mu)
        assert trimmed is not state.low_rank
        assert np.array_equal(gather.basis.U, trimmed.U) and np.array_equal(gather.basis.V, trimmed.V)
        if (m, n, r) == (400, 400, 20):  # the pass works each block in tiles
            assert gather.blocks[0].stop > 2 * _row_tiles(d.shape)[0].stop
        sparse = sparse_of(state, d)
        if min(m, n) > r:
            assert np.count_nonzero(sparse) > 0
        w = d - sparse
        utw, wv = trimmed.U.T @ w, w @ trimmed.V
        assert frob(gather.utw - utw) <= 1e-14 * frob(utw)
        assert frob(gather.wv - wv) <= 1e-14 * frob(wv)


def flip_factor_signs(low_rank, seed):
    """The same L with column i of U and of V multiplied by one seeded sign."""
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=low_rank.rank)
    return low_rank._replace(U=low_rank.U * signs, V=low_rank.V * signs)


def desk_state(tangent, **overrides):
    """A 200 x 200, r = 5 problem stepped to k = 10, where S_k is nonzero."""
    prob = generate(SyntheticSpec(200, 200, 5, 0.1, 1.0, 1))
    d, params = prob.data, replace(desk_params(prob), **overrides)
    state, _ = initialize(d, params, tangent)
    while state.k < 10:
        state, _ = _step(state, d, params)
    assert np.count_nonzero(sparse_of(state, d)) > 0
    return state, d, params


class TestFactorSigns:
    """A step reads L_k, not the signs of its factors: flipping column i of
    U and of V together leaves the next L, zeta and support of S as they are."""

    @pytest.mark.parametrize(
        "tangent, overrides",
        [
            pytest.param(True, {}, id="accaltproj"),
            pytest.param(True, {"mu": 1.0}, id="accaltproj-trim-fires"),
            pytest.param(False, {}, id="altproj"),
        ],
    )
    def test_step_depends_on_l_only(self, tangent, overrides):
        state, d, params = desk_state(tangent, **overrides)
        if overrides:  # mu = 1 is below the incoherence, so trim fires
            assert trim(state.low_rank, params.mu) is not state.low_rank
        # the flipped state hands on W_k = D - S_k as a pass at the flipped L_k would
        fields = dict(k=state.k, zeta=state.zeta, sigma_window=state.sigma_window)
        sparse = sparse_of(state, d)
        flipped = state_at(flip_factor_signs(state.low_rank, 89), d, sparse, params, tangent, **fields)
        l_k = state.low_rank.matrix()
        assert frob(flipped.low_rank.matrix() - l_k) <= 1e-15 * frob(l_k)
        want, _ = stepped_copy(state, d, params)
        got, _ = stepped_copy(flipped, d, params)
        l_next = want.low_rank.matrix()
        assert frob(got.low_rank.matrix() - l_next) <= 1e-12 * frob(l_next)
        assert got.zeta == pytest.approx(want.zeta, rel=1e-12)
        assert np.count_nonzero(sparse_of(want, d)) > 0
        assert np.array_equal(sparse_of(got, d) != 0.0, sparse_of(want, d) != 0.0)

    def test_trim_depends_on_l_only(self):
        state, _, _ = desk_state(True)
        flipped = flip_factor_signs(state.low_rank, 97)
        want = trim(state.low_rank, 1.0)
        got = trim(flipped, 1.0)
        assert want is not state.low_rank  # mu = 1 is below the incoherence
        for out in (want, got):
            for basis, scaled in zip((out.U, out.V), rescaled_factors(state.low_rank, 1.0)):
                expected = projector(scaled)
                assert frob(projector(basis) - expected) <= 1e-12 * frob(expected)
        assert got.sigma is flipped.sigma and np.array_equal(got.sigma, want.sigma)


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
