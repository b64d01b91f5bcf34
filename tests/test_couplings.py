import itertools

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from baryflow.couplings import (
    _CLASS_FORM_MAX_K,
    CategoricalCoupling,
    Covariates,
    DenseCoupling,
    build_couplings,
    kernel_cross_matrix,
    median_heuristic_bandwidth,
    sinkhorn_bistochastic,
)
from baryflow.errors import ConvergenceError, InvalidInputError

from conftest import categorical_coupling, centering_matrix, peak_bytes

_rng = np.random.default_rng(7)
# label sets with 1 to 7 classes: unequal sizes, singletons, ints and strings
LABEL_SETS = [
    np.zeros(5, dtype=int),
    np.array([3]),
    np.array([0, 1]),
    np.array(["b", "a", "b", "b", "c", "a", "c", "b"]),
    np.array([5, 5, 5, 5, 5, 5, 5, 5, 5, 2]),
    np.arange(7),
    np.concatenate([np.zeros(40, dtype=int), [1], np.full(3, 2), [3]]),
    _rng.integers(0, 7, 200),
    _rng.permutation(np.repeat(np.array(["x", "y", "zz", "w"]), [1, 13, 50, 100])),
    _rng.integers(-3, 4, 1500),
]


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

    def test_set_up_works_on_one_copy(self, rng):
        # one N x N copy beyond the input, which is left as it was, and the
        # copy's buffered add (1.26 N^2 here); Z bitwise equal to the
        # formula the in-place steps replace
        n = 200
        pts = rng.normal(size=(n, 2))
        K = kernel_cross_matrix(pts, pts, 0.8)
        given = K.copy()
        assert peak_bytes(lambda: sinkhorn_bistochastic(K)) <= 1.35 * n**2 * 8
        assert np.array_equal(K, given)
        Z, d = sinkhorn_bistochastic(K)
        ref = d[:, None] * (0.5 * (K + K.T)) * d[None, :]
        assert np.array_equal(Z, 0.5 * (ref + ref.T))


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

    @pytest.mark.parametrize("case", range(len(LABEL_SETS)))
    def test_equals_the_per_class_block_build(self, case):
        labels = LABEL_SETS[case]
        ref = np.zeros((labels.size, labels.size))
        for value in np.unique(labels):
            idx = np.flatnonzero(labels == value)
            ref[np.ix_(idx, idx)] = 1.0 / idx.size
        assert np.array_equal(categorical_coupling(labels), ref)


class TestCategoricalForm:
    """The class form of build_couplings against the dense Z and C it replaces."""

    @pytest.mark.parametrize("case", range(len(LABEL_SETS)))
    def test_product_equals_dense(self, case, rng):
        labels = LABEL_SETS[case]
        F = rng.standard_normal((4, labels.size)) * 10.0 ** rng.uniform(-3, 3, (4, 1))
        dense = F @ centering_matrix(categorical_coupling(labels)).T
        got = build_couplings(Covariates.categorical(labels)).product()(F)
        assert got.shape == dense.shape
        assert np.abs(got - dense).max() <= 1e-15 * np.abs(F).max()

    @pytest.mark.parametrize("case", range(len(LABEL_SETS)))
    def test_kde_transpose_bitwise_equals_dense(self, case, rng):
        # the kernel weighted by C^T in place, from C^T's class rows, against a dense C^T = Z - 1/N
        labels = LABEL_SETS[case]
        n = labels.size
        E = rng.uniform(0.0, 1.0, (n, n))
        dense = E * (categorical_coupling(labels) - 1.0 / n)
        _, terms = build_couplings(Covariates.categorical(labels)).kde()
        M = terms(E, rng.standard_normal((n, 2)))[2]()
        assert M is E
        assert M.tobytes() == dense.tobytes()

    @pytest.mark.parametrize("case", range(len(LABEL_SETS)))
    def test_kde_terms_match_dense(self, case, rng):
        # value, row sums and M @ w against those of the dense C^T, to rounding
        labels = LABEL_SETS[case]
        n = labels.size
        E, w = rng.uniform(0.0, 1.0, (n, n)), rng.standard_normal((n, 2))
        CT = centering_matrix(categorical_coupling(labels)).T
        value, terms = build_couplings(Covariates.categorical(labels)).kde()
        scale = np.abs(E * CT).sum(axis=1)
        assert abs(value(E) - (E * CT).sum()) <= 1e-14 * scale.sum()
        s, Mw, _ = terms(E.copy(), w)
        Mw = Mw()
        assert np.abs(s - (E * CT).sum(axis=1)).max() <= 1e-14 * scale.max()
        assert np.abs(Mw - (E * CT) @ w).max() <= 1e-14 * scale.max() * np.abs(w).max()

    @pytest.mark.parametrize("k", [_CLASS_FORM_MAX_K + 1, 50])
    def test_many_classes_read_a_dense_CT(self, k, rng):
        # past _CLASS_FORM_MAX_K classes the reads are those of the dense C^T, bit for bit
        n = 200
        labels = rng.permutation(np.arange(n) % k)
        CT = categorical_coupling(labels) - 1.0 / n
        E, w = rng.uniform(0.0, 1.0, (n, n)), rng.standard_normal((n, 2))
        M = E * CT
        value, terms = build_couplings(Covariates.categorical(labels)).kde()
        assert value(E) == float(np.vdot(E, CT))
        s, Mw, weigh = terms(E, w)
        assert s.tobytes() == M.sum(axis=1).tobytes()
        assert Mw().tobytes() == (M @ w).tobytes()
        assert weigh() is E and E.tobytes() == M.tobytes()

    def test_many_classes_hold_one_dense_CT(self, rng):
        # K = N / 4 classes: C^T is built from one comparison of the class
        # index, so the build holds C^T and N x N booleans, 1.155 N^2 doubles
        n = 800
        coupling = build_couplings(Covariates.categorical(rng.permutation(np.arange(n) % (n // 4))))
        assert peak_bytes(coupling.kde) <= 1.16 * n * n * 8

    def test_holds_no_square_array(self):
        n = 3000
        labels = np.arange(n) % 7
        assert peak_bytes(lambda: build_couplings(Covariates.categorical(labels))) < n * n
        product = build_couplings(Covariates.categorical(labels)).product()
        F = np.ones((5, n))
        assert peak_bytes(lambda: product(F)) < 8 * n * 8

    def test_kde_reads_form_no_square_array(self, rng):
        # beside the given kernel: C^T's class rows, the gradient's product and
        # the weighting's 32-row blocks
        n = 1000
        coupling = build_couplings(Covariates.categorical(rng.integers(0, 4, n)))
        E, w = rng.uniform(0.0, 1.0, (n, n)), rng.standard_normal((n, 2))
        assert peak_bytes(coupling.kde) < 40 * n * 8
        value, terms = coupling.kde()
        assert peak_bytes(lambda: value(E)) < 40 * n * 8
        assert peak_bytes(lambda: terms(E, w)) < 40 * n * 8
        weigh = terms(E, w)[2]
        assert peak_bytes(weigh) < 40 * n * 8


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
    def test_median_heuristic_holds_one_copy_of_the_distances(self, rng):
        n = 400
        pts = rng.normal(size=(n, 2))
        assert peak_bytes(lambda: median_heuristic_bandwidth(pts)) <= 1.25 * n * (n - 1) // 2 * 8
        assert median_heuristic_bandwidth(pts) == np.median(pdist(pts)) / np.sqrt(2.0)

    def test_median_heuristic(self, rng):
        pts = rng.normal(size=(30, 2))
        b = median_heuristic_bandwidth(pts)
        assert b > 0
        # degenerate inputs fall back to 1.0
        assert median_heuristic_bandwidth(np.zeros((5, 2))) == 1.0
        assert median_heuristic_bandwidth(np.zeros((1, 2))) == 1.0

    def test_build_categorical(self):
        cov = Covariates.categorical(np.array([0, 0, 1, 1]))
        coupling = build_couplings(cov)
        assert isinstance(coupling, CategoricalCoupling)
        assert np.allclose(coupling.Z().sum(axis=0), 1.0)
        row_sums = coupling.kde()[1](np.ones((4, 4)), np.zeros((4, 1)))[0]
        assert np.abs(row_sums).max() <= 1e-12  # of C^T: the columns of C
        assert np.abs(coupling.product()(np.ones((2, 4)))).max() <= 1e-12

    def test_build_continuous_auto_bandwidth(self, rng):
        cov = Covariates.continuous(rng.normal(size=(20, 2)))
        coupling = build_couplings(cov)
        assert isinstance(coupling, DenseCoupling)
        Z = coupling.Z()
        assert np.abs(Z.sum(axis=0) - 1).max() <= 1e-8
        assert np.abs(Z.sum(axis=1) - 1).max() <= 1e-8
        assert np.allclose(Z, Z.T)

    @pytest.mark.parametrize("n", [9, 60])
    def test_continuous_C_is_exactly_symmetric(self, n, rng):
        # C = Z - 11^T/N of the exactly symmetric Sinkhorn Z, never stored
        coupling = build_couplings(Covariates.continuous(rng.normal(size=(n, 2))))
        C = coupling.Z() - 1.0 / n
        assert np.array_equal(C, C.T)
        F = rng.standard_normal((4, n)) * 10.0 ** rng.uniform(-3, 3, (4, 1))
        got = coupling.product()(F)
        assert np.all(np.abs(got - F @ C) <= 1e-15 * np.abs(F).max(axis=1, keepdims=True))
        value, terms = coupling.kde()
        # each entry of C^T read on its own, then a dense kernel's weighting:
        # E and E^T agree bit for bit.  (A dense E's value sums in another
        # order than E^T's, so it agrees only to rounding.)
        one = np.zeros((n, n))
        for j, i in itertools.product(range(n), repeat=2):
            one[j, i] = 1.0
            read = value(one)
            one[j, i], one[i, j] = 0.0, 1.0
            assert value(one) == read
            one[i, j] = 0.0
        E, w = rng.uniform(0.0, 1.0, (n, n)), rng.standard_normal((n, 2))
        M = terms(E.copy(), w)[2]()
        assert M.tobytes() == np.ascontiguousarray(terms(E.T.copy(), w)[2]().T).tobytes()
        # C's column sums, kde's row sums of C^T, are Z's column sums less
        # one: zero to the Sinkhorn tolerance, 1e-10
        assert np.abs(terms(np.ones((n, n)), w)[0]).max() <= 1e-10

    def test_kde_spends_a_dense_coupling(self, rng):
        # kde forms C^T in place on Z: the coupling's one N x N array
        coupling = build_couplings(Covariates.continuous(rng.normal(size=(12, 1))))
        Z = coupling.Z()
        C = Z - 1.0 / 12
        value, _ = coupling.kde()
        assert np.array_equal(Z, C)
        E = rng.uniform(0.0, 1.0, (12, 12))
        assert value(E) == float(np.vdot(E, C))
        for read in (coupling.Z, coupling.product, coupling.kde):
            with pytest.raises(InvalidInputError, match="spent"):
                read()

    def test_duplicate_covariate_values_allowed(self):
        values = np.array([[0.0], [0.0], [1.0], [2.0]])
        cov = Covariates.continuous(values, bandwidth_b=0.5)
        Z = build_couplings(cov).Z()
        assert np.abs(Z.sum(axis=1) - 1).max() <= 1e-8

    @pytest.mark.parametrize("bandwidth_b", ["wide", None, True, 0.0, float("nan")])
    def test_bad_bandwidth_b_rejected(self, bandwidth_b):
        with pytest.raises(InvalidInputError, match="bandwidth_b"):
            Covariates.continuous(np.ones((3, 1)), bandwidth_b=bandwidth_b)

    def test_non_finite_values_rejected(self):
        with pytest.raises(InvalidInputError, match="finite"):
            Covariates.continuous(np.array([[0.0], [np.nan], [1.0]]), bandwidth_b=1.0)

    def test_nan_labels_rejected(self):
        with pytest.raises(InvalidInputError, match="NaN"):
            Covariates.categorical(np.array([0.0, np.nan, np.nan, 1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("labels", [[0.0, float("nan")], [float("nan"), 1, "a"]])
    def test_object_nan_labels_rejected(self, labels):
        with pytest.raises(InvalidInputError, match="NaN"):
            Covariates.categorical(np.array(labels, dtype=object))

    @pytest.mark.parametrize("labels", [[0, None, 1], ["a", 1, "b"]])
    def test_incomparable_labels_rejected(self, labels):
        with pytest.raises(InvalidInputError, match="comparable"):
            Covariates.categorical(np.array(labels, dtype=object))
        with pytest.raises(InvalidInputError, match="comparable"):
            categorical_coupling(np.array(labels, dtype=object))

    @pytest.mark.parametrize("case", range(len(LABEL_SETS)))
    def test_class_index_taken_once(self, case):
        # classes in sorted label order; the coupling shares the covariates' arrays
        labels = LABEL_SETS[case]
        cov = Covariates.categorical(labels)
        classes = np.unique(labels)
        assert np.array_equal(classes[cov.index], labels)
        assert np.array_equal(cov.counts, [np.sum(labels == c) for c in classes])
        coupling = build_couplings(cov)
        assert coupling.index is cov.index and coupling.counts is cov.counts

    def test_object_labels_of_one_kind_accepted(self):
        cov = Covariates.categorical(np.array(["b", "a", "b"], dtype=object))
        assert cov.index.tolist() == [1, 0, 1] and cov.counts.tolist() == [1, 2]

    def test_labels_must_be_one_dimensional(self):
        with pytest.raises(InvalidInputError, match="1-D"):
            Covariates.categorical(np.array([[0, 1], [1, 0]]))

    def test_string_and_float_labels_accepted(self):
        assert Covariates.categorical(np.array(["a", "b", "a"])).n == 3
        assert Covariates.categorical([0.5, 1.5, 0.5]).n == 3

    def test_invalid_covariates(self):
        with pytest.raises(InvalidInputError):
            Covariates(kind="continuous", values=np.ones((3, 1)), bandwidth_b=-1.0)
        with pytest.raises(InvalidInputError):
            Covariates(kind="nope")
