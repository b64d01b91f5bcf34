import numpy as np
import pytest

from baryflow.costs import CostModel, cost_function
from baryflow.couplings import (
    categorical_coupling, centering_matrix, kernel_cross_matrix, sinkhorn_bistochastic,
)
from baryflow.errors import InvalidInputError, NumericError
from baryflow.objective import (
    MonomialBasis,
    constraint_function,
    evaluate,
    monomial_features,
)

from conftest import (
    ReferenceMonomial,
    assert_symmetric,
    central_diff_grad,
    central_diff_jacobian,
    combined_grad,
    direct_pair_outer,
    operator_matrix,
    product_peak_bytes,
    rel_err,
)


def kde_value(y, C, bandwidth):
    return constraint_function(C, bandwidth)(y)[0]


def features_value(y, C, basis):
    return constraint_function(C, basis)(y)[0]


def feature_terms(y, C, basis):
    """Per-feature quadratic forms f_l' C f_l, one single-row basis each."""
    E = basis.exponents
    return np.array([features_value(y, C, MonomialBasis(E[l:l + 1])) for l in range(len(E))])


def two_singletons():
    """1-D classes {0} and {2}; C = [[1/2, -1/2], [-1/2, 1/2]]."""
    x = np.array([[0.0], [2.0]])
    C = centering_matrix(categorical_coupling(np.array([0, 1])))
    return x, C


class TestMonomialFeatures:
    def test_degree_two_basis_order(self):
        basis = monomial_features(2, 2)
        assert basis.exponents.tolist() == [[1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]

    def test_values_and_derivatives(self, rng):
        y = rng.standard_normal((5, 2))
        basis = monomial_features(2, 2)  # row 3 is y1 * y2
        vals, grads = basis.value_and_grad(y)
        assert np.allclose(vals[3], y[:, 0] * y[:, 1])
        assert np.allclose(grads[3], np.column_stack([y[:, 1], y[:, 0]]))
        h = basis.hess(y)[3]
        assert np.allclose(h[:, 0, 1], 1.0) and np.allclose(h[:, 0, 0], 0.0)

    def test_grad_hess_match_fd(self, rng):
        y = rng.standard_normal((4, 3))
        basis = monomial_features(3, 3)
        grads = basis.value_and_grad(y)[1]
        hess = basis.hess(y)
        points = np.arange(4)
        for l in range(len(basis)):
            fd = central_diff_grad(lambda u: basis.value_and_grad(u)[0][l].sum(), y)
            assert rel_err(grads[l], fd) <= 1e-6 or np.linalg.norm(fd) < 1e-9
            jac = central_diff_jacobian(lambda u: basis.value_and_grad(u)[1][l], y)
            fd = jac[points, :, points, :]  # each point's gradient depends on that point only
            assert rel_err(hess[l], fd) <= 1e-6 or np.linalg.norm(fd) < 1e-9

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_matches_per_monomial_reference_bitwise(self, d, degree, rng):
        y = rng.standard_normal((7, d)) * 2.0
        y[0] = 0.0
        y[1, 0] = -0.0
        y[2] = -np.abs(y[2])
        basis = monomial_features(d, degree)
        vals, grads = basis.value_and_grad(y)
        hess = basis.hess(y)
        refs = [ReferenceMonomial(e) for e in basis.exponents]
        assert vals.shape == (len(basis), 7) and grads.shape == (len(basis), 7, d)
        assert hess.shape == (len(basis), 7, d, d)
        assert vals.tobytes() == np.stack([f.value(y) for f in refs]).tobytes()
        assert grads.tobytes() == np.stack([f.grad(y) for f in refs]).tobytes()
        assert hess.tobytes() == np.stack([f.hess(y) for f in refs]).tobytes()

    @pytest.mark.parametrize("width", [1, 3])
    def test_point_width_must_match_basis(self, width, rng):
        y = rng.standard_normal((6, width))
        C = centering_matrix(categorical_coupling(np.array([0, 0, 0, 1, 1, 1])))
        with pytest.raises(InvalidInputError, match="coordinates"):
            constraint_function(C, monomial_features(2, 2))(y)

    @pytest.mark.parametrize("exponents", [[], [[1, -1]], [[0.5, 1.0]], [1, 2]])
    def test_bad_exponents_rejected(self, exponents):
        with pytest.raises(InvalidInputError):
            MonomialBasis(exponents)


class TestLfKde:
    def test_single_class_zero(self, rng):
        y = rng.standard_normal((6, 2))
        C = centering_matrix(categorical_coupling(np.zeros(6, dtype=int)))
        assert kde_value(y, C, 0.8) == pytest.approx(0.0, abs=1e-14)

    def test_identical_class_clouds_vanish(self, rng):
        # two classes mapped onto the same point set: conditional estimates agree
        pts = rng.standard_normal((8, 2))
        y = np.vstack([pts, pts])
        labels = np.array([0] * 8 + [1] * 8)
        C = centering_matrix(categorical_coupling(labels))
        assert abs(kde_value(y, C, 0.6)) <= 1e-8

    def test_randomized_positivity(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 30))
            y = rng.standard_normal((n, 2))
            z = rng.standard_normal((n, 1))
            Z, _ = sinkhorn_bistochastic(kernel_cross_matrix(z, z, 0.7))
            C = centering_matrix(Z)
            assert kde_value(y, C, 0.5) >= -1e-10


class TestLfFeatures:
    def test_equal_class_means_linear(self):
        y = np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.5], [-0.5, -0.5]])
        labels = np.array([0, 0, 1, 1])  # both class means are (0, 0)
        C = centering_matrix(categorical_coupling(labels))
        assert features_value(y, C, monomial_features(2, 1)) == pytest.approx(0.0, abs=1e-14)

    def test_constant_feature_annihilated(self, rng):
        one = MonomialBasis([[0, 0]])
        y = rng.standard_normal((7, 2))
        z = rng.standard_normal((7, 1))
        Z, _ = sinkhorn_bistochastic(kernel_cross_matrix(z, z, 0.8))
        C = centering_matrix(Z)
        assert features_value(y, C, one) == pytest.approx(0.0, abs=1e-12)

    def test_two_singletons_value(self):
        x, C = two_singletons()
        assert features_value(x, C, monomial_features(1, 1)) == pytest.approx(2.0)

    def test_moment_matching_iff_vanishing(self, rng):
        # identical mean+cov across classes -> degree-2 terms vanish;
        # perturbing one class mean makes the linear term positive
        pts = rng.standard_normal((10, 2))
        y = np.vstack([pts, pts])
        labels = np.array([0] * 10 + [1] * 10)
        C = centering_matrix(categorical_coupling(labels))
        feats = monomial_features(2, 2)
        assert np.abs(feature_terms(y, C, feats)).max() <= 1e-12
        y2 = y.copy()
        y2[10:, 0] += 0.5
        assert feature_terms(y2, C, feats)[0] > 1e-3

    def test_per_feature_terms_nonnegative(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 25))
            y = rng.standard_normal((n, 2))
            labels = rng.integers(0, 3, n)
            C = centering_matrix(categorical_coupling(labels))
            terms = feature_terms(y, C, monomial_features(2, 2))
            assert terms.min() >= -1e-10

    def test_translation_invariance_linear(self, rng):
        y = rng.standard_normal((9, 2))
        labels = rng.integers(0, 2, 9)
        C = centering_matrix(categorical_coupling(labels))
        feats = monomial_features(2, 1)
        v0 = features_value(y, C, feats)
        v1 = features_value(y + np.array([5.0, -3.0]), C, feats)
        assert v0 == pytest.approx(v1, abs=1e-9)


class TestEvaluate:
    def test_lambda_zero_grad_is_cost_grad(self, rng):
        y = rng.standard_normal((6, 2))
        x = rng.standard_normal((6, 2))
        C = centering_matrix(categorical_coupling(rng.integers(0, 2, 6)))
        tf = 0.7
        cost = cost_function(CostModel("sq_euclidean"), x)
        ev = evaluate(cost, constraint_function(C, tf), y)
        value, grad, _ = cost(y)
        assert np.array_equal(combined_grad(ev, 0.0), grad())
        assert ev.L_C + 0.0 * ev.L_F == value

    def test_objective_decomposition(self, rng):
        y = rng.standard_normal((6, 2))
        x = rng.standard_normal((6, 2))
        C = centering_matrix(categorical_coupling(rng.integers(0, 2, 6)))
        tf = monomial_features(2, 2)
        cost, constraint = cost_function(CostModel("sq_euclidean"), x), constraint_function(C, tf)
        ev = evaluate(cost, constraint, y)
        assert (ev.L_C, ev.L_F) == (cost(y)[0], constraint(y)[0])
        assert ev.L_F >= -1e-10

    def test_two_singletons_hand_gradient(self):
        # linear feature, canonical cost, lambda = 1, evaluated at y = x:
        # cost grad 0; constraint grad 2 * (C f) = (-2, 2)
        x, C = two_singletons()
        tf = monomial_features(1, 1)
        ev = evaluate(cost_function(CostModel("sq_euclidean"), x), constraint_function(C, tf), x)
        assert combined_grad(ev, 1.0) == pytest.approx(np.array([[-2.0], [2.0]]))

    def test_kde_gradient_matches_frozen_center_fd(self, rng):
        y = rng.standard_normal((7, 2))
        x = rng.standard_normal((7, 2))
        C = centering_matrix(categorical_coupling(rng.integers(0, 2, 7)))
        tf = 0.6
        lam = 0.8
        cost, constraint = cost_function(CostModel("sq_euclidean"), x), constraint_function(C, tf)
        ev = evaluate(cost, constraint, y)
        centers = y.copy()
        fd = central_diff_grad(
            lambda u: cost(u)[0] + lam * constraint(u, centers=centers)[0],
            y,
        )
        assert rel_err(combined_grad(ev, lam), fd) <= 1e-5

    @pytest.mark.parametrize("mode", ["kde", "features"])
    def test_hessian_matches_fd_of_gradient(self, mode, rng):
        n = 5
        y = rng.standard_normal((n, 2))
        x = rng.standard_normal((n, 2))
        C = centering_matrix(categorical_coupling(rng.integers(0, 2, n)))
        tf = 0.7 if mode == "kde" else monomial_features(2, 2)
        lam = 0.6
        cost, constraint = cost_function(CostModel("p_norm", p=2.5), x), constraint_function(C, tf)
        ev = evaluate(cost, constraint, y, want_hvp=True)
        analytic = operator_matrix(ev.hvp(lam), n, 2)

        def grad_at(u):
            return combined_grad(evaluate(cost, constraint, u), lam)

        fd = central_diff_jacobian(grad_at, y)
        assert rel_err(analytic, fd) <= 1e-4

    def test_features_hessian_matches_fd_of_gradient_3d_cubic(self, rng):
        n = 5
        y = rng.standard_normal((n, 3))
        x = rng.standard_normal((n, 3))
        C = centering_matrix(categorical_coupling(rng.integers(0, 2, n)))
        tf = monomial_features(3, 3)
        lam = 0.6
        cost, constraint = cost_function(CostModel("p_norm", p=2.5), x), constraint_function(C, tf)
        ev = evaluate(cost, constraint, y, want_hvp=True)
        analytic = operator_matrix(ev.hvp(lam), n, 3)
        fd = central_diff_jacobian(lambda u: combined_grad(evaluate(cost, constraint, u), lam), y)
        assert rel_err(analytic, fd) <= 1e-4

    @pytest.mark.parametrize("mode", ["kde", "features"])
    def test_constraint_hvp_symmetric(self, mode, rng):
        n = 9
        y = rng.standard_normal((n, 2))
        # categorical C is symmetric to roundoff; a Sinkhorn coupling only to its tolerance
        C = centering_matrix(categorical_coupling(rng.integers(0, 3, n)))
        tf = 0.7 if mode == "kde" else monomial_features(2, 3)
        assert_symmetric(constraint_function(C, tf)(y, want_hvp=True)[2], rng, n, 2)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_kde_hvp_with_moved_centers_matches_direct_sum(self, d, rng):
        # (pair term / a^2 - diag(M 1) v + M v) / a^2 with M[j, i] = K(y_j, c_i) C[i, j]
        n, a = 12, 1.3
        y = rng.standard_normal((n, d)) + rng.uniform(-100.0, 100.0, d)
        centers = y + 0.5 * rng.standard_normal((n, d))
        C = centering_matrix(categorical_coupling(rng.integers(0, 3, n)))
        v = rng.standard_normal((n, d))
        hvp = constraint_function(C, a)(y, centers=centers, want_hvp=True)[2]
        M = kernel_cross_matrix(y, centers, a) * C.T
        expected = (direct_pair_outer(M, y, centers, v) / a**2
                    - M.sum(axis=1)[:, None] * v + M @ v) / a**2
        assert rel_err(hvp(v), expected) <= 1e-12

    def test_kde_product_allocates_no_n_by_n_array(self, rng):
        n = 400
        y = rng.standard_normal((n, 2))
        C = centering_matrix(categorical_coupling(rng.integers(0, 3, n)))
        hvp = constraint_function(C, 0.7)(y, want_hvp=True)[2]
        assert product_peak_bytes(hvp, rng.standard_normal((n, 2))) < n**2 * 8 / 4

    @pytest.mark.parametrize("term", ["cost", "constraint"])
    def test_non_finite_gradient_raises_on_every_read(self, term, rng):
        # the values are finite, so evaluate succeeds; each read of the gradient raises
        y = rng.standard_normal((4, 2))
        terms = {name: lambda y, want_hvp: (0.0, lambda: np.zeros_like(y), None)
                 for name in ("cost", "constraint")}
        terms[term] = lambda y, want_hvp: (0.0, lambda: np.full_like(y, np.nan), None)
        ev = evaluate(terms["cost"], terms["constraint"], y)
        for _ in range(2):
            with pytest.raises(NumericError, match=f"{term} gradient"):
                getattr(ev, f"grad_{term}")

    def test_hvp_needs_request(self, rng):
        y = rng.standard_normal((4, 2))
        C = centering_matrix(categorical_coupling(np.array([0, 0, 1, 1])))
        ev = evaluate(cost_function(CostModel("sq_euclidean"), y),
                      constraint_function(C, 1.0), y)
        with pytest.raises(InvalidInputError):
            ev.hvp(1.0)

    def test_off_center_value(self, rng):
        # the constraint with centers fixed elsewhere differs from the slaved value
        y = rng.standard_normal((6, 2))
        centers = rng.standard_normal((6, 2))
        C = centering_matrix(categorical_coupling(rng.integers(0, 2, 6)))
        a = 0.9
        constraint = constraint_function(C, a)
        lf_off = constraint(y, centers=centers)[0]
        sq = np.sum((y[:, None, :] - centers[None, :, :]) ** 2, axis=-1)  # [l, i]
        K = np.exp(-sq / (2 * a**2)) / (2 * np.pi * a**2)
        assert lf_off == pytest.approx(np.sum(K * C.T))
        assert lf_off != pytest.approx(constraint(y)[0])

    @pytest.mark.parametrize("mode", ["kde", "features"])
    def test_non_square_centering_rejected(self, mode):
        tf = 0.7 if mode == "kde" else monomial_features(2, 2)
        with pytest.raises(InvalidInputError, match="square"):
            constraint_function(np.ones((4, 3)), tf)

    def test_bad_bandwidth_rejected(self):
        C = centering_matrix(categorical_coupling(np.array([0, 0, 1, 1])))
        with pytest.raises(InvalidInputError):
            constraint_function(C, 0.0)

    @pytest.mark.parametrize("bandwidth_a", ["wide", None, True, float("inf")])
    def test_non_number_bandwidth_rejected(self, bandwidth_a):
        C = centering_matrix(categorical_coupling(np.array([0, 0, 1, 1])))
        with pytest.raises(InvalidInputError, match="bandwidth_a"):
            constraint_function(C, bandwidth_a)
