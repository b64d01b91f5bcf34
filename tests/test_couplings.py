import numpy as np
import pytest

from baryflow.couplings import (
    Covariates,
    build_couplings,
    categorical_coupling,
    centering_matrix,
    kernel_cross_matrix,
    median_heuristic_bandwidth,
    sinkhorn_bistochastic,
)
from baryflow.errors import ConvergenceError, InvalidInputError


class TestGaussianKernel:
    def test_peak_value_1d(self):
        # Gaussian at its center: (2*pi)^(-1/2)
        K = kernel_cross_matrix([[0.0]], [[0.0]], 1.0)
        assert K[0, 0] == pytest.approx(1.0 / np.sqrt(2 * np.pi))

    def test_symmetry(self, rng):
        for _ in range(10):
            u, v = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
            assert np.array_equal(kernel_cross_matrix(u, v, 0.7), kernel_cross_matrix(v, u, 0.7).T)

    def test_unit_distance_2d(self):
        # ||u - v|| = a in d=2: value is (2*pi*a^2)^(-1) * exp(-1/2), computed
        # independently from the closed form.
        a = 0.8
        expected = np.exp(-0.5) / (2.0 * np.pi * a**2)
        K = kernel_cross_matrix([[0.0, 0.0]], [[a, 0.0]], a)
        assert K[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_integrates_to_one_1d(self):
        # quadrature oracle on a wide grid
        a = 0.5
        t = np.linspace(-8, 8, 20001)[:, None]
        vals = kernel_cross_matrix(t, np.zeros((1, 1)), a)[:, 0]
        assert np.trapezoid(vals, t[:, 0]) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            kernel_cross_matrix([[np.nan]], [[0.0]], 1.0)
        with pytest.raises(InvalidInputError):
            kernel_cross_matrix([[0.0]], [[0.0]], 0.0)


class TestKernelMatrix:
    def test_single_point(self):
        pts = np.zeros((1, 3))
        K = kernel_cross_matrix(pts, pts, 2.0)
        assert K.shape == (1, 1)
        assert K[0, 0] == pytest.approx((2 * np.pi * 4.0) ** -1.5)

    def test_duplicate_points_rank_one(self):
        pts = np.array([[1.0, 2.0], [1.0, 2.0]])
        K = kernel_cross_matrix(pts, pts, 1.0)
        peak = 1.0 / (2 * np.pi)
        eigs = np.sort(np.linalg.eigvalsh(K))
        assert np.allclose(K, peak)
        assert eigs == pytest.approx([0.0, 2 * peak], abs=1e-12)

    def test_positive_semidefinite(self, rng):
        pts = rng.normal(size=(5, 2))
        K = kernel_cross_matrix(pts, pts, 0.9)
        assert np.array_equal(K, K.T)
        assert np.all(K > 0)
        assert np.linalg.eigvalsh(K).min() >= -1e-12

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            pts = np.array([[0.0], [np.nan]])
            kernel_cross_matrix(pts, pts, 1.0)


class TestSinkhorn:
    def test_identity_fixed_point(self):
        Z, d = sinkhorn_bistochastic(np.eye(4))
        assert np.allclose(Z, np.eye(4))
        assert np.allclose(d, 1.0)

    def test_all_ones(self):
        n = 5
        Z, d = sinkhorn_bistochastic(np.ones((n, n)))
        assert np.allclose(Z, 1.0 / n)
        assert np.allclose(d, 1.0 / np.sqrt(n))

    def test_two_by_two_fixed_point(self):
        # hand-solved: d = sqrt(2/3) makes diag(d) K diag(d) bi-stochastic
        K = np.array([[1.0, 0.5], [0.5, 1.0]])
        Z, d = sinkhorn_bistochastic(K)
        assert d == pytest.approx([np.sqrt(2 / 3), np.sqrt(2 / 3)], rel=1e-9)
        assert Z == pytest.approx(np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]]), rel=1e-9)

    def test_rows_and_columns_sum_to_one(self, rng):
        pts = rng.normal(size=(40, 3))
        K = kernel_cross_matrix(pts, pts, 1.2)
        Z, _ = sinkhorn_bistochastic(K, tol=1e-10)
        assert np.abs(Z.sum(axis=0) - 1).max() <= 1e-8
        assert np.abs(Z.sum(axis=1) - 1).max() <= 1e-8

    def test_scale_invariance(self, rng):
        # scaling K by c > 0 leaves Z unchanged
        pts = rng.normal(size=(15, 2))
        K = kernel_cross_matrix(pts, pts, 0.8)
        Z1, _ = sinkhorn_bistochastic(K)
        Z2, _ = sinkhorn_bistochastic(37.5 * K)
        assert np.abs(Z1 - Z2).max() <= 1e-9

    def test_output_psd(self, rng):
        pts = rng.normal(size=(20, 2))
        Z, _ = sinkhorn_bistochastic(kernel_cross_matrix(pts, pts, 1.0))
        assert np.linalg.eigvalsh(Z).min() >= -1e-12

    def test_convergence_error_carries_residual(self, rng):
        pts = rng.normal(size=(30, 2))
        K = kernel_cross_matrix(pts, pts, 0.3)
        with pytest.raises(ConvergenceError) as exc:
            sinkhorn_bistochastic(K, tol=1e-10, max_iter=2)
        assert exc.value.residual > 0

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            sinkhorn_bistochastic(np.array([[1.0, 0.2], [0.8, 1.0]]))


class TestCategoricalCoupling:
    def test_single_class(self):
        Z = categorical_coupling(np.array(["a", "a", "a"]))
        assert np.allclose(Z, 1 / 3)

    def test_two_classes(self):
        Z = categorical_coupling(np.array(["a", "a", "b"]))
        expected = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(Z, expected)

    def test_bistochastic_any_labels(self, rng):
        labels = rng.integers(0, 4, size=37)
        Z = categorical_coupling(labels)
        assert np.allclose(Z.sum(axis=0), 1.0)
        assert np.allclose(Z.sum(axis=1), 1.0)
        assert np.allclose(Z, Z.T)

    def test_cross_class_entries_exactly_zero(self, rng):
        labels = rng.integers(0, 3, size=20)
        Z = categorical_coupling(labels)
        diff = labels[:, None] != labels[None, :]
        assert np.all(Z[diff] == 0.0)


class TestCenteringMatrix:
    def test_single_class_is_zero(self):
        Z = categorical_coupling(np.zeros(6, dtype=int))
        assert np.allclose(centering_matrix(Z), 0.0)

    def test_identity_two(self):
        C = centering_matrix(np.eye(2))
        assert np.allclose(C, np.array([[0.5, -0.5], [-0.5, 0.5]]))

    def test_columns_sum_to_zero(self, rng):
        pts = rng.normal(size=(25, 2))
        Z, _ = sinkhorn_bistochastic(kernel_cross_matrix(pts, pts, 1.0))
        C = centering_matrix(Z)
        assert np.abs(C.sum(axis=0)).max() <= 1e-10

    def test_quadratic_form_nonnegative(self, rng):
        pts = rng.normal(size=(20, 3))
        Z, _ = sinkhorn_bistochastic(kernel_cross_matrix(pts, pts, 1.1))
        C = centering_matrix(Z)
        for _ in range(20):
            v = rng.normal(size=20)
            assert v @ C @ v >= -1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            centering_matrix(np.ones((2, 3)))


class TestCovariatesAndBuild:
    def test_median_heuristic(self, rng):
        pts = rng.normal(size=(30, 2))
        b = median_heuristic_bandwidth(pts)
        assert b > 0
        # degenerate inputs fall back to 1.0
        assert median_heuristic_bandwidth(np.zeros((5, 2))) == 1.0
        assert median_heuristic_bandwidth(np.zeros((1, 2))) == 1.0

    def test_build_categorical(self):
        cov = Covariates.categorical(np.array([0, 0, 1, 1]))
        Z, C = build_couplings(cov)
        assert np.allclose(Z.sum(axis=0), 1.0)
        assert np.abs(C.sum(axis=0)).max() <= 1e-12

    def test_build_continuous_auto_bandwidth(self, rng):
        cov = Covariates.continuous(rng.normal(size=(20, 2)))
        Z, C = build_couplings(cov)
        assert np.abs(Z.sum(axis=0) - 1).max() <= 1e-8
        assert np.abs(Z.sum(axis=1) - 1).max() <= 1e-8
        assert np.allclose(Z, Z.T)

    def test_duplicate_covariate_values_allowed(self):
        values = np.array([[0.0], [0.0], [1.0], [2.0]])
        cov = Covariates.continuous(values, bandwidth_b=0.5)
        Z, C = build_couplings(cov)
        assert np.abs(Z.sum(axis=1) - 1).max() <= 1e-8

    @pytest.mark.parametrize("bandwidth_b", ["wide", None, True, 0.0, float("nan")])
    def test_bad_bandwidth_b_rejected(self, bandwidth_b):
        with pytest.raises(InvalidInputError, match="bandwidth_b"):
            Covariates.continuous(np.ones((3, 1)), bandwidth_b=bandwidth_b)

    def test_invalid_covariates(self):
        with pytest.raises(InvalidInputError):
            Covariates(kind="continuous", values=np.ones((3, 1)), bandwidth_b=-1.0)
        with pytest.raises(InvalidInputError):
            Covariates(kind="nope")
