import numpy as np
import pytest

from rpca.metrics import (
    factor_incoherence,
    incoherence_of,
    recovery_success,
    relative_error,
)
from rpca.solver import FactoredLowRank


class TestRelativeError:
    def test_exact_split_is_zero(self):
        rng = np.random.default_rng(0)
        d = rng.standard_normal((6, 6))
        s = rng.standard_normal((6, 6))
        assert relative_error(d, d - s, s) <= 1e-15

    def test_zero_estimates(self):
        assert relative_error(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))) == 1.0

    def test_diagonal_arithmetic(self):
        # ||diag(0, 4)|| / ||diag(3, 4)|| = 4/5
        err = relative_error(np.diag([3.0, 4.0]), np.diag([3.0, 0.0]), np.zeros((2, 2)))
        assert err == pytest.approx(0.8, rel=1e-14)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        d = rng.standard_normal((8, 5))
        l = rng.standard_normal((8, 5))
        s = rng.standard_normal((8, 5))
        base = relative_error(d, l, s)
        for t in (2.0, -3.5, 1e-3):
            assert relative_error(t * d, t * l, t * s) == pytest.approx(base, rel=1e-12)

    def test_accepts_factored_low_rank(self):
        low = FactoredLowRank(np.array([[1.0], [0.0]]), np.array([2.0]), np.array([[1.0], [0.0]]))
        err = relative_error(low.matrix(), low, np.zeros((2, 2)))
        assert err <= 1e-15

    def test_zero_data_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            relative_error(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)))


class TestRecoverySuccess:
    def test_exact_recovery(self):
        rng = np.random.default_rng(2)
        l = rng.standard_normal((7, 7))
        assert recovery_success(l, l)

    def test_relative_scaling_failure(self):
        rng = np.random.default_rng(3)
        l = rng.standard_normal((10, 10))
        assert not recovery_success(l, 1.001 * l)  # relative error 1e-3

    def test_small_perturbation_success(self):
        rng = np.random.default_rng(4)
        l = rng.standard_normal((12, 9))
        e = rng.standard_normal((12, 9))
        e *= 5e-5 * np.linalg.norm(l) / np.linalg.norm(e)
        assert recovery_success(l, l + e)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            recovery_success(np.zeros((2, 2)), np.ones((2, 2)))

    @pytest.mark.parametrize("scale, success", [(1.0 + 5e-5, True), (1.001, False)])
    def test_factored_estimate_agrees_with_the_dense_one(self, scale, success):
        # 300 x 200 spans several row tiles of the solvers' sparse pass
        rng = np.random.default_rng(6)
        u = np.linalg.qr(rng.standard_normal((300, 3)))[0]
        v = np.linalg.qr(rng.standard_normal((200, 3)))[0]
        l = FactoredLowRank(u, np.array([3.0, 2.0, 1.0]), v)
        estimate = l._replace(sigma=scale * l.sigma)  # relative error scale - 1
        assert recovery_success(l.matrix(), estimate) is success
        assert recovery_success(l.matrix(), estimate.matrix()) is success

    def test_factored_estimate_of_another_shape_rejected(self):
        low = FactoredLowRank(np.eye(4, 1), np.ones(1), np.eye(3, 1))
        with pytest.raises(ValueError, match="4 x 3, not 3 x 3"):
            recovery_success(np.eye(3), low)
        with pytest.raises(ValueError, match="4 x 3, not 3 x 3"):
            relative_error(np.eye(3), low, np.zeros((3, 3)))


class TestIncoherence:
    def test_spiky_rank_one(self):
        l = np.zeros((4, 4))
        l[0, 0] = 1.0
        assert incoherence_of(l, 1) == pytest.approx(4.0, rel=1e-12)

    def test_all_ones_is_perfectly_spread(self):
        assert incoherence_of(np.ones((5, 5)), 1) == pytest.approx(1.0, rel=1e-12)

    def test_rounding_never_takes_it_below_one(self):
        # the 5 x 8 all-ones factors measure one ulp below 1 before the floor
        assert incoherence_of(np.ones((5, 8)), 1) >= 1.0

    def test_flat_factors_give_one(self):
        h = np.ones((1, 1))
        while h.shape[0] < 8:  # Sylvester's construction
            h = np.block([[h, h], [h, -h]])
        h /= np.sqrt(8.0)
        u = h[:, :2]
        v = h[:, 2:4]
        l = (u * np.array([3.0, 1.5])) @ v.T
        assert incoherence_of(l, 2) == pytest.approx(1.0, rel=1e-10)
        assert factor_incoherence(u, v) == pytest.approx(1.0, rel=1e-12)

    def test_bounds_for_random_square_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            n = int(rng.integers(4, 40))
            r = int(rng.integers(1, min(6, n)))
            l = rng.standard_normal((n, r)) @ rng.standard_normal((n, r)).T
            mu = incoherence_of(l, r)
            assert 1.0 - 1e-12 <= mu <= n / r + 1e-12

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            incoherence_of(np.zeros((4, 4)), 1)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            incoherence_of(np.ones((3, 3)), 4)
