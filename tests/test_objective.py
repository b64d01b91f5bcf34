import numpy as np
import pytest

from baryflow.costs import CostModel, cost_parts
from baryflow.couplings import (
    categorical_coupling, centering_matrix, kernel_cross_matrix, sinkhorn_bistochastic,
)
from baryflow.errors import InvalidInputError
from baryflow.objective import (
    MonomialBasis,
    TestFunctionSpec,
    constraint_parts,
    evaluate,
    monomial_features,
)

from conftest import (
    ReferenceMonomial,
    assert_symmetric,
    central_diff_grad,
    central_diff_jacobian,
    combined_grad,
    operator_matrix,
    rel_err,
)


def kde_value(y, C, bandwidth):
    return constraint_parts(y, C, TestFunctionSpec.kde(bandwidth))[0]


def features_value(y, C, basis):
    return constraint_parts(y, C, TestFunctionSpec(mode="features", features=basis))[0]


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
            constraint_parts(y, C, TestFunctionSpec.polynomial(2, 2))

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
        tf = TestFunctionSpec.kde(0.7)
        model = CostModel("sq_euclidean")
        ev = evaluate(x, y, model, C, tf)
        value, grad, _ = cost_parts(model, x, y)
        assert np.array_equal(combined_grad(ev, 0.0), grad)
        assert ev.L_C + 0.0 * ev.L_F == value

    def test_objective_decomposition(self, rng):
        y = rng.standard_normal((6, 2))
        x = rng.standard_normal((6, 2))
        C = centering_matrix(categorical_coupling(rng.integers(0, 2, 6)))
        tf = TestFunctionSpec.polynomial(2, 2)
        model = CostModel("sq_euclidean")
        ev = evaluate(x, y, model, C, tf)
        assert (ev.L_C, ev.L_F) == (cost_parts(model, x, y)[0], constraint_parts(y, C, tf)[0])
        assert ev.L_F >= -1e-10

    def test_two_singletons_hand_gradient(self):
        # linear feature, canonical cost, lambda = 1, evaluated at y = x:
        # cost grad 0; constraint grad 2 * (C f) = (-2, 2)
        x, C = two_singletons()
        tf = TestFunctionSpec.polynomial(1, 1)
        ev = evaluate(x, x, CostModel("sq_euclidean"), C, tf)
        assert combined_grad(ev, 1.0) == pytest.approx(np.array([[-2.0], [2.0]]))

    def test_kde_gradient_matches_frozen_center_fd(self, rng):
        y = rng.standard_normal((7, 2))
        x = rng.standard_normal((7, 2))
        C = centering_matrix(categorical_coupling(rng.integers(0, 2, 7)))
        tf = TestFunctionSpec.kde(0.6)
        lam = 0.8
        ev = evaluate(x, y, CostModel("sq_euclidean"), C, tf)
        centers = y.copy()
        fd = central_diff_grad(
            lambda u: cost_parts(CostModel("sq_euclidean"), x, u)[0]
            + lam * constraint_parts(u, C, tf, centers=centers)[0],
            y,
        )
        assert rel_err(combined_grad(ev, lam), fd) <= 1e-5

    @pytest.mark.parametrize("mode", ["kde", "features"])
    def test_hessian_matches_fd_of_gradient(self, mode, rng):
        n = 5
        y = rng.standard_normal((n, 2))
        x = rng.standard_normal((n, 2))
        C = centering_matrix(categorical_coupling(rng.integers(0, 2, n)))
        tf = TestFunctionSpec.kde(0.7) if mode == "kde" else TestFunctionSpec.polynomial(2, 2)
        lam = 0.6
        model = CostModel("p_norm", p=2.5)
        ev = evaluate(x, y, model, C, tf, want_hvp=True)
        analytic = operator_matrix(ev.hvp(lam), n, 2)

        def grad_at(u):
            return combined_grad(evaluate(x, u, model, C, tf), lam)

        fd = central_diff_jacobian(grad_at, y)
        assert rel_err(analytic, fd) <= 1e-4

    def test_features_hessian_matches_fd_of_gradient_3d_cubic(self, rng):
        n = 5
        y = rng.standard_normal((n, 3))
        x = rng.standard_normal((n, 3))
        C = centering_matrix(categorical_coupling(rng.integers(0, 2, n)))
        tf = TestFunctionSpec.polynomial(3, 3)
        lam = 0.6
        model = CostModel("p_norm", p=2.5)
        ev = evaluate(x, y, model, C, tf, want_hvp=True)
        analytic = operator_matrix(ev.hvp(lam), n, 3)
        fd = central_diff_jacobian(lambda u: combined_grad(evaluate(x, u, model, C, tf), lam), y)
        assert rel_err(analytic, fd) <= 1e-4

    @pytest.mark.parametrize("mode", ["kde", "features"])
    def test_constraint_hvp_symmetric(self, mode, rng):
        n = 9
        y = rng.standard_normal((n, 2))
        # categorical C is symmetric to roundoff; a Sinkhorn coupling only to its tolerance
        C = centering_matrix(categorical_coupling(rng.integers(0, 3, n)))
        tf = TestFunctionSpec.kde(0.7) if mode == "kde" else TestFunctionSpec.polynomial(2, 3)
        assert_symmetric(constraint_parts(y, C, tf, want_hvp=True)[2], rng, n, 2)

    def test_hvp_needs_request(self, rng):
        y = rng.standard_normal((4, 2))
        C = centering_matrix(categorical_coupling(np.array([0, 0, 1, 1])))
        ev = evaluate(y, y, CostModel("sq_euclidean"), C, TestFunctionSpec.kde(1.0))
        with pytest.raises(InvalidInputError):
            ev.hvp(1.0)

    def test_off_center_value(self, rng):
        # the constraint with centers fixed elsewhere differs from the slaved value
        y = rng.standard_normal((6, 2))
        centers = rng.standard_normal((6, 2))
        C = centering_matrix(categorical_coupling(rng.integers(0, 2, 6)))
        a = 0.9
        tf = TestFunctionSpec.kde(a)
        lf_off = constraint_parts(y, C, tf, centers=centers)[0]
        sq = np.sum((y[:, None, :] - centers[None, :, :]) ** 2, axis=-1)  # [l, i]
        K = np.exp(-sq / (2 * a**2)) / (2 * np.pi * a**2)
        assert lf_off == pytest.approx(np.sum(K * C.T))
        assert lf_off != pytest.approx(constraint_parts(y, C, tf)[0])

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(InvalidInputError):
            TestFunctionSpec.kde(0.0)

    @pytest.mark.parametrize("bandwidth_a", ["wide", None, True, float("inf")])
    def test_non_number_bandwidth_rejected(self, bandwidth_a):
        with pytest.raises(InvalidInputError, match="bandwidth_a"):
            TestFunctionSpec(mode="kde", bandwidth_a=bandwidth_a)
        with pytest.raises(InvalidInputError, match="bandwidth_a"):
            TestFunctionSpec.kde(bandwidth_a)
