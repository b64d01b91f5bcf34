import dataclasses
import itertools

import numpy as np
import pytest

from baryflow import solver
from baryflow.costs import CostModel, cost_function
from baryflow.couplings import Covariates, build_couplings
from baryflow.errors import InvalidInputError, NumericError
from baryflow.objective import (
    MonomialBasis,
    constraint_function,
    evaluate,
    monomial_features,
)
from baryflow.solver import SolverConfig, solve

from conftest import (
    ReferenceMonomial,
    assert_symmetric,
    categorical_coupling,
    central_diff_grad,
    central_diff_jacobian,
    centering_matrix,
    combined_grad,
    count_operators,
    dense_coupling,
    features_hvp_reference,
    kde_hvp_reference,
    operator_matrix,
    operator_of,
    peak_bytes,
    product_peak_bytes,
    rel_err,
)


_labels_rng = np.random.default_rng(11)
# categorical kde label sets: each is compared with the dense Z of its labels
KDE_LABELS = {
    "shuffled-unequal": _labels_rng.permutation(np.repeat([0, 1, 2], [5, 11, 20])),
    "singleton": _labels_rng.permutation(np.repeat([4, 7, 9], [8, 1, 6])),
    "strings": _labels_rng.permutation(np.repeat(["north", "east", "west"], [3, 12, 7])),
    "one-class": np.zeros(14, dtype=int),
}


def kde_value(y, Z, bandwidth):
    return constraint_function(dense_coupling(Z), bandwidth)(y)[0]


def features_value(y, Z, basis):
    return constraint_function(dense_coupling(Z), basis)(y)[0]


def feature_terms(y, Z, basis):
    """Per-feature quadratic forms f_l' C f_l, one single-row basis each."""
    E = basis.exponents
    return np.array([features_value(y, Z, MonomialBasis(E[l:l + 1])) for l in range(len(E))])


def one_hot(basis, l, n):
    """Weights for :meth:`MonomialBasis.hess` that pick monomial l at every one of n points."""
    weights = np.zeros((len(basis.exponents), n))
    weights[l] = 1.0
    return weights


def two_singletons():
    """1-D classes {0} and {2}; Z = I, so C = [[1/2, -1/2], [-1/2, 1/2]]."""
    x = np.array([[0.0], [2.0]])
    Z = categorical_coupling(np.array([0, 1]))
    return x, Z


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
        h = basis.hess(y, one_hot(basis, 3, len(y)))
        assert np.allclose(h[:, 0, 1], 1.0) and np.allclose(h[:, 0, 0], 0.0)

    def test_grad_hess_match_fd(self, rng):
        y = rng.standard_normal((4, 3))
        basis = monomial_features(3, 3)
        grads = basis.value_and_grad(y)[1]
        points = np.arange(4)
        for l in range(len(basis.exponents)):
            fd = central_diff_grad(lambda u: basis.value_and_grad(u)[0][l].sum(), y)
            assert rel_err(grads[l], fd) <= 1e-6 or np.linalg.norm(fd) < 1e-9
            jac = central_diff_jacobian(lambda u: basis.value_and_grad(u)[1][l], y)
            fd = jac[points, :, points, :]  # each point's gradient depends on that point only
            hess = basis.hess(y, one_hot(basis, l, len(y)))
            assert rel_err(hess, fd) <= 1e-6 or np.linalg.norm(fd) < 1e-9

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_matches_per_monomial_reference_bitwise(self, d, degree, rng):
        y = rng.standard_normal((7, d)) * 2.0
        y[0] = 0.0
        y[1, 0] = -0.0
        y[2] = -np.abs(y[2])
        basis = monomial_features(d, degree)
        vals, grads = basis.value_and_grad(y)
        m = len(basis.exponents)
        weights = rng.standard_normal((m, 7))
        hess = basis.hess(y, weights)
        refs = [ReferenceMonomial(e) for e in basis.exponents]
        assert vals.shape == (m, 7) and grads.shape == (m, 7, d)
        assert hess.shape == (7, d, d)
        assert vals.tobytes() == np.stack([f.value(y) for f in refs]).tobytes()
        assert grads.tobytes() == np.stack([f.grad(y) for f in refs]).tobytes()
        # the weighted sum is taken in the order of the einsum over the stacked Hessians
        stacked = np.einsum("li,liab->iab", weights, np.stack([f.hess(y) for f in refs]))
        assert hess.tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("d,degree", [(8, 3), (6, 4)])
    def test_weighted_hessians_bitwise_in_higher_dimensions(self, d, degree, rng):
        y = rng.standard_normal((5, d))
        basis = monomial_features(d, degree)
        weights = rng.standard_normal((len(basis.exponents), 5))
        stacked = np.einsum("li,liab->iab", weights,
                            np.stack([ReferenceMonomial(e).hess(y) for e in basis.exponents]))
        assert basis.hess(y, weights).tobytes() == stacked.tobytes()

    def test_product_set_up_forms_no_hessian_stack(self, rng):
        # d = 16, degree 2: the m Hessians would stack to m N d^2 doubles
        n, d = 20, 16
        y = rng.standard_normal((n, d))
        basis = monomial_features(d, 2)
        coupling = dense_coupling(categorical_coupling(np.arange(n) % 3))
        constraint = constraint_function(coupling, basis)
        peak = peak_bytes(lambda: operator_of(constraint(y)[2]))
        assert peak < len(basis.exponents) * n * d * d * 8


class TestLfKde:
    def test_single_class_zero(self, rng):
        y = rng.standard_normal((6, 2))
        Z = categorical_coupling(np.zeros(6, dtype=int))
        assert kde_value(y, Z, 0.8) == pytest.approx(0.0, abs=1e-14)

    def test_categorical_single_class_exactly_zero(self, rng):
        # C^T = Z - 1/N is exactly zero for one class, so are the value and the gradient
        y = rng.standard_normal((14, 2)) + 50.0
        coupling = build_couplings(Covariates.categorical(np.zeros(14, dtype=int)))
        value, grad, _ = constraint_function(coupling, 0.8)(y)
        assert value == 0.0
        assert np.all(grad() == 0.0)

    def test_identical_class_clouds_vanish(self, rng):
        # two classes mapped onto the same point set: conditional estimates agree
        pts = rng.standard_normal((8, 2))
        y = np.vstack([pts, pts])
        labels = np.array([0] * 8 + [1] * 8)
        Z = categorical_coupling(labels)
        assert abs(kde_value(y, Z, 0.6)) <= 1e-8

    def test_randomized_positivity(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 30))
            y = rng.standard_normal((n, 2))
            z = rng.standard_normal((n, 1))
            Z = build_couplings(Covariates.continuous(z), 0.7).Z()
            assert kde_value(y, Z, 0.5) >= -1e-10


class TestLfFeatures:
    def test_equal_class_means_linear(self):
        y = np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.5], [-0.5, -0.5]])
        labels = np.array([0, 0, 1, 1])  # both class means are (0, 0)
        Z = categorical_coupling(labels)
        assert features_value(y, Z, monomial_features(2, 1)) == pytest.approx(0.0, abs=1e-14)

    def test_constant_feature_annihilated(self, rng):
        one = MonomialBasis([[0, 0]])
        y = rng.standard_normal((7, 2))
        z = rng.standard_normal((7, 1))
        Z = build_couplings(Covariates.continuous(z), 0.8).Z()
        assert features_value(y, Z, one) == pytest.approx(0.0, abs=1e-12)

    def test_two_singletons_value(self):
        x, Z = two_singletons()
        assert features_value(x, Z, monomial_features(1, 1)) == pytest.approx(2.0)

    def test_moment_matching_iff_vanishing(self, rng):
        # identical mean+cov across classes -> degree-2 terms vanish;
        # perturbing one class mean makes the linear term positive
        pts = rng.standard_normal((10, 2))
        y = np.vstack([pts, pts])
        labels = np.array([0] * 10 + [1] * 10)
        Z = categorical_coupling(labels)
        feats = monomial_features(2, 2)
        assert np.abs(feature_terms(y, Z, feats)).max() <= 1e-12
        y2 = y.copy()
        y2[10:, 0] += 0.5
        assert feature_terms(y2, Z, feats)[0] > 1e-3

    def test_per_feature_terms_nonnegative(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 25))
            y = rng.standard_normal((n, 2))
            labels = rng.integers(0, 3, n)
            Z = categorical_coupling(labels)
            terms = feature_terms(y, Z, monomial_features(2, 2))
            assert terms.min() >= -1e-10

    def test_translation_invariance_linear(self, rng):
        y = rng.standard_normal((9, 2))
        labels = rng.integers(0, 2, 9)
        Z = categorical_coupling(labels)
        feats = monomial_features(2, 1)
        v0 = features_value(y, Z, feats)
        v1 = features_value(y + np.array([5.0, -3.0]), Z, feats)
        assert v0 == pytest.approx(v1, abs=1e-9)


class TestEvaluate:
    def test_lambda_zero_grad_is_cost_grad(self, rng):
        y = rng.standard_normal((6, 2))
        x = rng.standard_normal((6, 2))
        Z = categorical_coupling(rng.integers(0, 2, 6))
        tf = 0.7
        cost = cost_function(CostModel("sq_euclidean"), x)
        ev = evaluate(cost, constraint_function(dense_coupling(Z), tf), y)
        value, grad, _ = cost(y)
        assert np.array_equal(combined_grad(ev, 0.0), grad())
        assert ev.L_C + 0.0 * ev.L_F == value

    def test_objective_decomposition(self, rng):
        y = rng.standard_normal((6, 2))
        x = rng.standard_normal((6, 2))
        Z = categorical_coupling(rng.integers(0, 2, 6))
        tf = monomial_features(2, 2)
        cost = cost_function(CostModel("sq_euclidean"), x)
        constraint = constraint_function(dense_coupling(Z), tf)
        ev = evaluate(cost, constraint, y)
        assert (ev.L_C, ev.L_F) == (cost(y)[0], constraint(y)[0])
        assert ev.L_F >= -1e-10

    def test_two_singletons_hand_gradient(self):
        # linear feature, canonical cost, lambda = 1, evaluated at y = x:
        # cost grad 0; constraint grad 2 * (C f) = (-2, 2)
        x, Z = two_singletons()
        tf = monomial_features(1, 1)
        ev = evaluate(cost_function(CostModel("sq_euclidean"), x),
                      constraint_function(dense_coupling(Z), tf), x)
        assert combined_grad(ev, 1.0) == pytest.approx(np.array([[-2.0], [2.0]]))

    def test_kde_gradient_matches_frozen_center_fd(self, rng):
        y = rng.standard_normal((7, 2))
        x = rng.standard_normal((7, 2))
        Z = categorical_coupling(rng.integers(0, 2, 7))
        tf = 0.6
        lam = 0.8
        cost = cost_function(CostModel("sq_euclidean"), x)
        constraint = constraint_function(dense_coupling(Z), tf)
        ev = evaluate(cost, constraint, y)
        # the value at u with the kernel centers held at y
        fd = central_diff_grad(
            lambda u: cost(u)[0] + lam * constraint(y, before=u)[3],
            y,
        )
        assert rel_err(combined_grad(ev, lam), fd) <= 1e-5

    @pytest.mark.parametrize("mode,offset", [("kde", 0.0), ("features", 0.0), ("kde", 1e3)],
                             ids=["kde", "features", "kde-far"])
    def test_hessian_matches_fd_of_gradient(self, mode, offset, rng):
        n = 5
        y = rng.standard_normal((n, 2)) + offset
        x = rng.standard_normal((n, 2)) + offset
        Z = categorical_coupling(rng.integers(0, 2, n))
        tf = 0.7 if mode == "kde" else monomial_features(2, 2)
        lam = 0.6
        cost = cost_function(CostModel("p_norm", p=2.5), x)
        constraint = constraint_function(dense_coupling(Z), tf)
        ev = evaluate(cost, constraint, y)
        analytic = operator_matrix(ev.hvp(lam), n, 2)

        def grad_at(u):
            return combined_grad(evaluate(cost, constraint, u), lam)

        fd = central_diff_jacobian(grad_at, y)
        assert rel_err(analytic, fd) <= 1e-4

    def test_features_hessian_matches_fd_of_gradient_3d_cubic(self, rng):
        n = 5
        y = rng.standard_normal((n, 3))
        x = rng.standard_normal((n, 3))
        Z = categorical_coupling(rng.integers(0, 2, n))
        tf = monomial_features(3, 3)
        lam = 0.6
        cost = cost_function(CostModel("p_norm", p=2.5), x)
        constraint = constraint_function(dense_coupling(Z), tf)
        ev = evaluate(cost, constraint, y)
        analytic = operator_matrix(ev.hvp(lam), n, 3)
        fd = central_diff_jacobian(lambda u: combined_grad(evaluate(cost, constraint, u), lam), y)
        assert rel_err(analytic, fd) <= 1e-4

    @pytest.mark.parametrize("mode,offset", [("kde", 0.0), ("features", 0.0), ("kde", 1e3)],
                             ids=["kde", "features", "kde-far"])
    def test_constraint_hvp_symmetric(self, mode, offset, rng):
        n = 9
        y = rng.standard_normal((n, 2)) + offset
        # C = Z - 11^T/N of a symmetric Z is exactly symmetric, categorical or Sinkhorn
        Z = categorical_coupling(rng.integers(0, 3, n))
        tf = 0.7 if mode == "kde" else monomial_features(2, 3)
        assert_symmetric(constraint_function(dense_coupling(Z), tf)(y)[2], rng, n, 2)

    @pytest.mark.parametrize("mode", ["kde", "features"])
    def test_sinkhorn_constraint_hvp_symmetric(self, mode, rng):
        # a Sinkhorn coupling's C = Z - 11^T/N is exactly symmetric, as MINRES assumes
        n = 9
        for _ in range(5):
            y = rng.standard_normal((n, 2))
            coupling = build_couplings(Covariates.continuous(rng.standard_normal((n, 1))))
            tf = 0.7 if mode == "kde" else monomial_features(2, 3)
            assert_symmetric(constraint_function(coupling, tf)(y)[2], rng, n, 2)

    @pytest.mark.parametrize("mode", ["kde", "features"])
    def test_categorical_coupling_matches_its_dense_C(self, mode, rng):
        # both modes apply C in its class form, and match the dense C to rounding
        n = 30
        labels = rng.integers(0, 4, n)
        y = rng.standard_normal((n, 2))
        v = rng.standard_normal((n, 2))
        tf = 0.7 if mode == "kde" else monomial_features(2, 3)
        coupling = build_couplings(Covariates.categorical(labels))
        Z = categorical_coupling(labels)
        got, ref = (constraint_function(c, tf)(y)
                    for c in (coupling, dense_coupling(Z)))
        assert got[0] == pytest.approx(ref[0], rel=1e-13)
        assert rel_err(got[1](), ref[1]()) <= 1e-13
        assert rel_err(operator_of(got[2])(v), operator_of(ref[2])(v)) <= 1e-13

    @pytest.mark.parametrize("labels", list(KDE_LABELS.values()), ids=list(KDE_LABELS))
    def test_categorical_kde_matches_dense_coupling(self, labels, rng):
        # the class form's value, value before the step, gradient and product
        # against the dense reads of the same labels' C = Z - 11^T/N
        n = labels.size
        y = rng.standard_normal((n, 2)) + 50.0
        before = y + 0.3 * rng.standard_normal((n, 2))
        v = rng.standard_normal((n, 2))
        coupling = build_couplings(Covariates.categorical(labels))
        Z = categorical_coupling(labels)
        for a in (0.4, 1.5):
            got, ref = (constraint_function(c, a)(y, before=before)
                        for c in (coupling, dense_coupling(Z)))
            assert got[0] == pytest.approx(ref[0], rel=1e-13, abs=1e-300)
            assert got[3] == pytest.approx(ref[3], rel=1e-13, abs=1e-300)
            assert rel_err(got[1](), ref[1]()) <= 1e-13
            assert rel_err(operator_of(got[2])(v), operator_of(ref[2])(v)) <= 1e-13

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_kde_matches_pairwise_reference(self, d, offset, rng):
        # from the differences D_ji = y_j - c_i themselves, with M[j, i] = K(y_j, c_i) C[i, j]:
        # the value with the centers c moved through ``before``, the gradient at c = y
        for n, a, moved in itertools.product([2, 9, 40], [0.3, 1.0, 3.0], [False, True]):
            y = rng.standard_normal((n, d)) + offset
            centers = y + 0.5 * rng.standard_normal((n, d)) if moved else y
            Z = categorical_coupling(rng.integers(0, 3, n))
            C = centering_matrix(Z)
            value, grad, _, value_at_y = constraint_function(dense_coupling(Z), a)(centers, before=y)
            D = y[:, None, :] - centers[None, :, :]
            K = np.exp(-np.einsum("jia,jia->ji", D, D) / (2 * a**2)) / (2 * np.pi * a**2) ** (d / 2)
            M = K * C.T
            assert abs(value_at_y - M.sum()) <= 1e-13 * np.abs(M).sum()
            if not moved:
                scale = np.einsum("ji,ji->j", np.abs(M), np.linalg.norm(D, axis=2)).max() / a**2
                expected = -np.einsum("ji,jia->ja", M, D) / a**2
                assert np.abs(grad() - expected).max() <= 1e-12 * scale

    @pytest.mark.parametrize("coupling", ["categorical", "dense"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["kde", "features"])
    def test_block_form_matches_reference(self, mode, d, coupling, rng):
        # the blocks plus the remainder against the product from its direct terms
        for _ in range(3):
            n = int(rng.integers(2, 30))
            labels = rng.integers(0, 3, n)
            y = rng.standard_normal((n, d))
            if mode != "features":
                y += rng.uniform(-50.0, 50.0, d)  # kde takes its frame at the points' mean
            v = rng.standard_normal((n, d))
            Z = categorical_coupling(labels)
            C = centering_matrix(Z)
            bound = (build_couplings(Covariates.categorical(labels)) if coupling == "categorical"
                     else dense_coupling(Z))
            if mode == "features":
                basis = monomial_features(d, 2)
                hvp = constraint_function(bound, basis)(y)[2]
                expected = features_hvp_reference(y, C, basis.exponents)(v)
            else:
                a = float(rng.uniform(0.5, 2.0))
                hvp = constraint_function(bound, a)(y)[2]
                expected = kde_hvp_reference(y, a, C.T)(v)
            assert rel_err(operator_of(hvp)(v), expected) <= 1e-12

    def test_kde_product_allocates_no_n_by_n_array(self, rng):
        n = 400
        y = rng.standard_normal((n, 2))
        Z = categorical_coupling(rng.integers(0, 3, n))
        hvp = constraint_function(dense_coupling(Z), 0.7)(y)[2]
        assert product_peak_bytes(hvp, rng.standard_normal((n, 2))) < n**2 * 8 / 4

    @pytest.mark.parametrize("term", ["cost", "constraint"])
    def test_non_finite_gradient_raises_on_every_read(self, term, rng):
        # the values are finite, so evaluate succeeds; each read of the gradient raises
        y = rng.standard_normal((4, 2))
        terms = {name: lambda y: (0.0, lambda: np.zeros_like(y), None)
                 for name in ("cost", "constraint")}
        terms[term] = lambda y: (0.0, lambda: np.full_like(y, np.nan), None)
        ev = evaluate(terms["cost"], terms["constraint"], y)
        for _ in range(2):
            with pytest.raises(NumericError, match=f"{term} gradient"):
                getattr(ev, f"grad_{term}")

    def test_hvp_set_up_on_first_read(self, rng, monkeypatch):
        # an evaluation, its gradients and its combined product set up nothing until applied
        setups, operators, _ = count_operators(monkeypatch)
        y = rng.standard_normal((4, 2))
        Z = categorical_coupling(np.array([0, 0, 1, 1]))
        for tf in (1.0, monomial_features(2, 2)):
            ev = evaluate(cost_function(CostModel("sq_euclidean"), y),
                          constraint_function(dense_coupling(Z), tf), y)
            ev.grad_cost, ev.grad_constraint
            hvp = ev.hvp(1.0)
            assert (setups, operators) == ([], [])
            operator_of(hvp)(rng.standard_normal(y.shape))
            assert (len(setups), len(operators)) == (2, 1)  # its two terms
            setups.clear()
            operators.clear()

    def test_off_center_value(self, rng):
        # the constraint with centers fixed elsewhere differs from the slaved value
        y = rng.standard_normal((6, 2))
        centers = rng.standard_normal((6, 2))
        Z = categorical_coupling(rng.integers(0, 2, 6))
        C = centering_matrix(Z)
        a = 0.9
        constraint = constraint_function(dense_coupling(Z), a)
        lf_off = constraint(centers, before=y)[3]  # the value at y, centers at ``centers``
        sq = np.sum((y[:, None, :] - centers[None, :, :]) ** 2, axis=-1)  # [l, i]
        K = np.exp(-sq / (2 * a**2)) / (2 * np.pi * a**2)
        assert lf_off == pytest.approx(np.sum(K * C.T))
        assert lf_off != pytest.approx(constraint(y)[0])

    @pytest.mark.parametrize("bandwidth_a", ["wide", float("inf")])
    def test_non_number_bandwidth_rejected(self, bandwidth_a, rng, monkeypatch):
        # constraint_function takes the kde bandwidth as SolverConfig checked it,
        # and a config cannot be given a bad one after it was built
        config = SolverConfig(problem="kde", bandwidth_a=0.7, niter=1)
        with pytest.raises(InvalidInputError, match="bandwidth_a"):
            dataclasses.replace(config, bandwidth_a=bandwidth_a)
        bandwidths = []
        bind = solver.constraint_function
        monkeypatch.setattr(solver, "constraint_function",
                            lambda coupling, a: bandwidths.append(a) or bind(coupling, a))
        solve(rng.standard_normal((4, 2)), Covariates.categorical(np.array([0, 0, 1, 1])),
              CostModel("sq_euclidean"), config)
        assert bandwidths == [0.7]
