import itertools

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

from baryflow.couplings import (
    _CLASS_FORM_MAX_K,
    CategoricalCoupling,
    Covariates,
    DenseCoupling,
    _scale_in_place,
    build_couplings,
    median_heuristic_bandwidth,
)
from baryflow.datagen import gen_hidden_signal, lagged_dataset
from baryflow.errors import ConvergenceError, InvalidInputError
from baryflow.solver import SolverConfig

from conftest import categorical_coupling, centering_matrix, gaussian_kernel, peak_bytes

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


def scaled(K, **limits):
    """The Z that ``_scale_in_place`` forms from a copy of K; K is left as it was."""
    Z = np.array(K, dtype=float)
    _scale_in_place(Z, **limits)
    return Z


def continuous_z(values, bandwidth_b):
    """The dense Z that ``build_couplings`` gives continuous covariates."""
    return build_couplings(Covariates.continuous(values), bandwidth_b).Z()


def _normal(seed, *shape):
    return np.random.default_rng(seed).standard_normal(shape)


# (values, bandwidth_b): the benchmark's hidden-signal covariates (151 steps,
# cartesian lags) and random sets of several sizes, widths and scales
CONTINUOUS_SETS = [
    *((lagged_dataset(gen_hidden_signal(seed, steps=151), space="cartesian").covariates.values,
       "auto") for seed in (0, 1)),
    (_normal(2, 1, 1), 1.0),
    (_normal(3, 2, 3), 0.5),
    (_normal(4, 17, 1), "auto"),
    (_normal(5, 40, 2), 0.7),
    (1e3 * _normal(6, 65, 3), "auto"),
    (1e-3 * _normal(7, 130, 2), "auto"),
    (np.repeat(_normal(8, 20, 2), 3, axis=0), "auto"),  # every value three times
]


class TestGaussianKernel:
    """The reference kernel's closed form: the kernel build_couplings scales into Z."""

    def test_peak_value_1d(self):
        # Gaussian at its center: (2*pi)^(-1/2)
        K = gaussian_kernel([[0.0]], 1.0)
        assert K[0, 0] == pytest.approx(1.0 / np.sqrt(2 * np.pi))

    def test_unit_distance_2d(self):
        # ||u - v|| = a in d=2: value is (2*pi*a^2)^(-1) * exp(-1/2), computed
        # independently from the closed form.
        a = 0.8
        expected = np.exp(-0.5) / (2.0 * np.pi * a**2)
        K = gaussian_kernel([[0.0, 0.0], [a, 0.0]], a)
        assert K[0, 1] == pytest.approx(expected, rel=1e-14)

    def test_integrates_to_one_1d(self):
        # quadrature oracle on a wide grid, of the kernel centred on its middle point
        a = 0.5
        t = np.linspace(-8, 8, 1001)[:, None]
        vals = gaussian_kernel(t, a)[:, 500]
        assert np.trapezoid(vals, t[:, 0]) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("case", range(len(CONTINUOUS_SETS)))
    def test_build_scales_the_reference_kernel(self, case):
        # bitwise: build_couplings forms the kernel without the density's
        # constant, which the scaling divides out, scales it in place and
        # holds C^T = Z - 1/N
        values, b = CONTINUOUS_SETS[case]
        h = median_heuristic_bandwidth(values) if b == "auto" else b
        CT = build_couplings(Covariates.continuous(values), b).CT
        unnormalised = np.exp(cdist(values, values, "sqeuclidean") / -(2.0 * h * h))
        assert CT.tobytes() == (scaled(unnormalised) - 1.0 / len(values)).tobytes()


class TestKernelMatrix:
    def test_single_point(self):
        pts = np.zeros((1, 3))
        K = gaussian_kernel(pts, 2.0)
        assert K.shape == (1, 1)
        assert K[0, 0] == pytest.approx((2 * np.pi * 4.0) ** -1.5)
        assert continuous_z(pts, 2.0)[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_duplicate_points_rank_one(self):
        pts = np.array([[1.0, 2.0], [1.0, 2.0]])
        K = gaussian_kernel(pts, 1.0)
        peak = 1.0 / (2 * np.pi)
        eigs = np.sort(np.linalg.eigvalsh(K))
        assert np.allclose(K, peak)
        assert eigs == pytest.approx([0.0, 2 * peak], abs=1e-12)
        assert np.allclose(continuous_z(pts, 1.0), 0.5)

    def test_positive_semidefinite(self, rng):
        pts = rng.normal(size=(5, 2))
        K = gaussian_kernel(pts, 0.9)
        assert np.array_equal(K, K.T)
        assert np.all(K > 0)
        assert np.linalg.eigvalsh(K).min() >= -1e-12


class TestSinkhorn:
    """``_scale_in_place`` on a copy: the scaling build_couplings applies to its kernel."""

    def test_identity_fixed_point(self):
        assert np.allclose(scaled(np.eye(4)), np.eye(4))

    def test_all_ones(self):
        n = 5
        assert np.allclose(scaled(np.ones((n, n))), 1.0 / n)

    def test_two_by_two_fixed_point(self):
        # hand-solved: d = sqrt(2/3) makes diag(d) K diag(d) bi-stochastic
        Z = scaled(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert Z == pytest.approx(np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]]), rel=1e-9)

    def test_rows_and_columns_sum_to_one(self, rng):
        pts = rng.normal(size=(40, 3))
        Z = scaled(gaussian_kernel(pts, 1.2), tol=1e-10)
        assert np.abs(Z.sum(axis=0) - 1).max() <= 1e-8
        assert np.abs(Z.sum(axis=1) - 1).max() <= 1e-8

    def test_scale_invariance(self, rng):
        # scaling K by c > 0 leaves Z unchanged
        pts = rng.normal(size=(15, 2))
        K = gaussian_kernel(pts, 0.8)
        assert np.abs(scaled(K) - scaled(37.5 * K)).max() <= 1e-9

    def test_output_psd(self, rng):
        pts = rng.normal(size=(20, 2))
        Z = scaled(gaussian_kernel(pts, 1.0))
        assert np.linalg.eigvalsh(Z).min() >= -1e-12

    def test_convergence_error_carries_residual(self, rng):
        pts = rng.normal(size=(30, 2))
        K = gaussian_kernel(pts, 0.3)
        with pytest.raises(ConvergenceError) as exc:
            scaled(K, tol=1e-10, max_iter=2)
        assert exc.value.residual > 0

    def test_zero_row_rejected(self):
        K = np.eye(3)
        K[1, 1] = 0.0
        with pytest.raises(InvalidInputError, match="no positive bi-stochastic scaling"):
            scaled(K)


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

    @pytest.mark.parametrize("classes", [3, 7])  # either side of the class form's four
    def test_dense_z_exactly_symmetric(self, classes, rng):
        # the distortion cost weighs its pairs by Z as it is, so Z must equal Z^T bit for bit
        Z = categorical_coupling(rng.integers(0, classes, size=61))
        assert np.array_equal(Z, Z.T)

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
        C = centering_matrix(continuous_z(pts, 1.0))
        assert np.abs(C.sum(axis=0)).max() <= 1e-10

    def test_quadratic_form_nonnegative(self, rng):
        pts = rng.normal(size=(20, 3))
        C = centering_matrix(continuous_z(pts, 1.1))
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

    @pytest.mark.parametrize("n,tied", [(400, False), (150, False), (150, True), (160, True),
                                        (2, False), (3, False)],
                             ids=["even-79800", "odd-11175", "tied-odd", "tied-even", "n2", "n3"])
    def test_median_heuristic_equals_np_median_in_one_copy(self, n, tied, rng):
        # tied: points on a 3 x 3 grid, so most of the distances repeat
        pts = rng.integers(0, 3, size=(n, 2)).astype(float) if tied else rng.normal(size=(n, 2))
        assert median_heuristic_bandwidth(pts) == np.median(pdist(pts)) / np.sqrt(2.0)
        if n >= 150:  # below that, pdist's fixed few KiB of set-up outweigh the distances
            assert peak_bytes(lambda: median_heuristic_bandwidth(pts)) <= 1.25 * n * (n - 1) // 2 * 8

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

    @pytest.mark.parametrize("bandwidth_b", ["auto", 0.8])
    def test_continuous_build_holds_one_square_array(self, bandwidth_b, rng):
        # the kernel is formed, scaled into Z and turned into C^T in place,
        # and the median heuristic's distances are freed before it: 1.059 N^2
        # doubles here, C^T and about 75 kB of vectors and blocks
        n = 400
        values = rng.normal(size=(n, 2))
        build = lambda: build_couplings(Covariates.continuous(values), bandwidth_b)
        assert peak_bytes(build) <= 1.1 * n**2 * 8
        Z = build().Z()
        assert np.array_equal(Z, Z.T)

    @pytest.mark.parametrize("n", [9, 60])
    def test_continuous_C_is_exactly_symmetric(self, n, rng):
        # C^T = Z - 11^T/N of the exactly symmetric Sinkhorn Z, held from the build
        coupling = build_couplings(Covariates.continuous(rng.normal(size=(n, 2))))
        C = coupling.CT
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

    def test_dense_coupling_reads_in_any_order(self, rng):
        # the coupling holds C^T from its build on, and no read changes it
        n = 12
        coupling = build_couplings(Covariates.continuous(rng.normal(size=(n, 1))))
        held = coupling.CT.copy()
        E, w = rng.uniform(0.0, 1.0, (n, n)), rng.standard_normal((n, 2))
        F, x = rng.standard_normal((3, n)), rng.standard_normal((n, 2))

        def kde():
            value, terms = coupling.kde()
            s, weighted, weigh = terms(E.copy(), w)
            return value(E), s, weighted(), weigh()

        reads = {"kde": kde, "product": lambda: (coupling.product()(F),),
                 "Z": lambda: (coupling.Z(),),
                 "conditional_means": lambda: (coupling.conditional_means(x),)}
        as_bytes = lambda got: b"".join(np.asarray(part).tobytes() for part in got)
        first = {name: as_bytes(read()) for name, read in reads.items()}
        for order in itertools.permutations(reads):
            for name in order + order:  # each read twice
                assert as_bytes(reads[name]()) == first[name]
        assert coupling.CT.tobytes() == held.tobytes()
        assert kde()[0] == float(np.vdot(E, held))
        assert first["Z"] == (held + 1.0 / n).tobytes()

    def test_duplicate_covariate_values_allowed(self):
        values = np.array([[0.0], [0.0], [1.0], [2.0]])
        Z = build_couplings(Covariates.continuous(values), 0.5).Z()
        assert np.abs(Z.sum(axis=1) - 1).max() <= 1e-8

    @pytest.mark.parametrize("bandwidth_b", ["wide", None, True, 0.0, float("nan")])
    def test_bad_bandwidth_b_rejected(self, bandwidth_b):
        # b is a setting of the solve, checked once where it enters
        with pytest.raises(InvalidInputError, match="bandwidth_b"):
            SolverConfig(bandwidth_b=bandwidth_b)

    def test_bandwidth_b_on_categorical_covariates_is_error(self):
        cov = Covariates.categorical(np.array([0, 0, 1, 1]))
        assert isinstance(build_couplings(cov, "auto"), CategoricalCoupling)
        with pytest.raises(InvalidInputError, match="bandwidth_b applies only to continuous"):
            build_couplings(cov, 0.5)

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("bandwidth_b", [1e-200, 1e-160])
    def test_tiny_bandwidth_b_is_error(self, bandwidth_b, width):
        # 2 b^2 underflows: a division by zero, or an overflow of the kernel's scale
        cov = Covariates.continuous(_normal(9, 10, width))
        with pytest.raises(InvalidInputError, match="bandwidth_b"):
            build_couplings(cov, bandwidth_b)

    def test_tiny_bandwidth_b_of_wide_covariates_builds_the_identity(self):
        # 2 b^2 = 2e-80 is a normal float: every distinct pair's kernel entry
        # is 0 and the diagonal's is 1, so K = I, its own scaling
        values = _normal(9, 10, 8)
        assert np.array_equal(continuous_z(values, 1e-40), np.eye(10))

    def test_huge_bandwidth_b_builds_the_uniform_coupling(self):
        # 2 b^2 overflows to inf: every kernel entry is exp(-0) = 1
        n = 10
        Z = continuous_z(_normal(9, n, 3), 1e200)
        assert np.array_equal(Z, Z.T)
        assert np.abs(Z - 1.0 / n).max() <= 1e-10

    def test_auto_bandwidth_b_that_underflows_is_error(self):
        # the median heuristic gives b near 1.4e-156, so 2 b^2 is subnormal
        cov = Covariates.continuous(np.array([[0.0], [1e-156], [3e-156]]))
        with pytest.raises(InvalidInputError, match="bandwidth_b"):
            build_couplings(cov)

    def test_non_finite_values_rejected(self):
        with pytest.raises(InvalidInputError, match="finite"):
            Covariates.continuous(np.array([[0.0], [np.nan], [1.0]]))

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
            Covariates(kind="continuous", values=np.ones(3))
        with pytest.raises(InvalidInputError):
            Covariates(kind="nope")
