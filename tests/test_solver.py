import warnings
import weakref

import numpy as np
import pytest

from baryflow import costs, objective, solver
from baryflow.costs import CostModel, cost_function
from baryflow.couplings import Covariates, build_couplings, categorical_coupling, centering_matrix
from baryflow.datagen import gen_ellipses, gen_hidden_signal, lagged_dataset
from baryflow.errors import InvalidInputError, NumericError
from baryflow.objective import MonomialBasis, constraint_function, evaluate, monomial_features
from baryflow.solver import (
    SolverConfig,
    lambda_update,
    precondition_mean_shift,
    solve,
    step_explicit,
    step_implicit,
)

from conftest import combined_grad, operator_matrix, peak_bytes


def count_gradients(monkeypatch, binder, poisoned=()):
    """Record each gradient build of the term ``solver.<binder>`` binds, in order.

    ``binder`` is "cost_function" or "constraint_function"; the builds
    numbered in ``poisoned`` give NaN.
    """
    builds = []
    bind = getattr(solver, binder)

    def counting_bind(*args):
        parts = bind(*args)

        def counting(*args, **kwargs):
            value, grad, hvp = parts(*args, **kwargs)

            def build():
                builds.append(1)
                return np.full_like(grad(), np.nan) if len(builds) - 1 in poisoned else grad()
            return value, build, hvp
        return counting

    # every evaluate (and the descent check's right side) calls the term the solve binds
    monkeypatch.setattr(solver, binder, counting_bind)
    return builds


def record_live_kernels(monkeypatch):
    """For each kernel build, in order, the number of kernels built before it that are still alive."""
    kernels, alive = [], []
    kernel = objective.kernel_cross_matrix

    def recording(*args):
        alive.append(sum(ref() is not None for ref in kernels))
        out = kernel(*args)
        kernels.append(weakref.ref(out))
        return out

    monkeypatch.setattr(objective, "kernel_cross_matrix", recording)
    return alive


def count_calls(monkeypatch, module, name):
    """Record the positional arguments of each call of ``module.name``."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def count_pair_operators(monkeypatch):
    """Record each pair-coupled Hessian-vector-product set-up, the kde constraint's and the distortion cost's."""
    builds = []
    operator = costs.pair_outer_operator

    def counting(*args):
        builds.append(1)
        return operator(*args)

    monkeypatch.setattr(objective, "pair_outer_operator", counting)
    monkeypatch.setattr(costs, "pair_outer_operator", counting)
    return builds


class TestPreconditionMeanShift:
    def test_single_class_identity(self, rng):
        x = rng.standard_normal((8, 2))
        cov = Covariates.categorical(np.zeros(8, dtype=int))
        Z = categorical_coupling(cov.labels)
        w, shift = precondition_mean_shift(x, cov, Z)
        assert np.allclose(w, x) and np.allclose(shift, 0.0)

    def test_two_singletons_meet_at_global_mean(self):
        x = np.array([[0.0], [2.0]])
        cov = Covariates.categorical(np.array([0, 1]))
        w, _ = precondition_mean_shift(x, cov, categorical_coupling(cov.labels))
        assert np.allclose(w, 1.0)

    def test_ellipse_class_means_match_global(self):
        ds = gen_ellipses(seed=0)
        Z = categorical_coupling(ds.covariates.labels)
        w, _ = precondition_mean_shift(ds.x, ds.covariates, Z)
        labels = np.asarray(ds.covariates.labels)
        global_mean = ds.x.mean(axis=0)
        for z in (0, 1, 2):
            assert np.abs(w[labels == z].mean(axis=0) - global_mean).max() <= 1e-12

    def test_continuous_uses_coupling_weights(self, rng):
        x = rng.standard_normal((12, 2))
        values = rng.standard_normal((12, 1))
        cov = Covariates.continuous(values, bandwidth_b=0.8)
        Z, _ = build_couplings(cov)
        w, shift = precondition_mean_shift(x, cov, Z)
        assert np.allclose(w, x + x.mean(axis=0) - Z.T @ x)
        assert np.allclose(shift, w - x)

    @pytest.mark.parametrize("Z", [None, np.eye(11)])
    def test_continuous_needs_the_coupling(self, Z, rng):
        x = rng.standard_normal((12, 2))
        cov = Covariates.continuous(rng.standard_normal((12, 1)), bandwidth_b=0.8)
        with pytest.raises(InvalidInputError, match="coupling matrix Z"):
            precondition_mean_shift(x, cov, Z)


class TestLambdaUpdate:
    def test_stationary_point_raises_floor(self, rng):
        # grad_cost = -lam * grad_constraint: the floor is alpha + lam
        gf = rng.standard_normal((5, 2))
        lam, omega = 2.0, 0.5
        gc = -lam * gf
        new_lam, clamped, skipped, _ = lambda_update(lam, gc, gf, omega, 1e6)
        assert new_lam == pytest.approx(omega * lam + lam)
        assert not clamped and not skipped

    def test_zero_cost_gradient_keeps_lambda(self, rng):
        gf = rng.standard_normal((4, 2))
        new_lam, clamped, skipped, _ = lambda_update(1.0, np.zeros((4, 2)), gf, 0.5, 1e6)
        assert new_lam == 1.0 and not clamped and not skipped

    def test_clamp_at_lambda_max(self, rng):
        gf = rng.standard_normal((4, 2))
        gc = -10.0 * gf
        new_lam, clamped, _, _ = lambda_update(1.0, gc, gf, 0.5, 5.0)
        # floor would be 0.5 + 10 = 10.5 > lambda_max
        assert new_lam == 5.0 and clamped

    def test_skip_when_constraint_gradient_vanishes(self):
        new_lam, _, skipped, _ = lambda_update(3.0, np.ones((2, 2)), np.zeros((2, 2)), 0.5, 1e6)
        assert new_lam == 3.0 and skipped

    def test_monotone(self, rng):
        lam = 1.0
        for _ in range(50):
            gc = rng.standard_normal((6, 2))
            gf = rng.standard_normal((6, 2))
            new_lam, _, _, _ = lambda_update(lam, gc, gf, 0.5, 100.0)
            assert new_lam >= lam
            lam = new_lam

    def test_inequality_holds_when_not_clamped(self, rng):
        lam = 1.0
        for _ in range(100):
            gc = rng.standard_normal((6, 2))
            gf = rng.standard_normal((6, 2))
            new_lam, clamped, skipped, slack = lambda_update(lam, gc, gf, 0.5, 1e6)
            if not clamped and not skipped:
                assert slack >= -1e-10
            lam = new_lam


class TestSteps:
    def test_explicit_zero_grad(self, rng):
        y = rng.standard_normal((5, 2))
        assert np.array_equal(step_explicit(y, np.zeros_like(y), 0.5), y)
        assert np.array_equal(step_explicit(y, rng.standard_normal((5, 2)), 0.0), y)

    def test_explicit_matches_scalar_iteration(self):
        # 1-D two-point flow vs a hand-rolled scalar loop, bitwise equal
        x = np.array([[0.0], [2.0]])
        C = centering_matrix(categorical_coupling(np.array([0, 1])))
        tf = monomial_features(1, 1)
        model = CostModel("sq_euclidean")
        y = x.copy()
        ys = [0.0, 2.0]
        eta, lam = 0.05, 1.0
        cost, constraint = cost_function(model, x), constraint_function(C, tf)
        for _ in range(10):
            ev = evaluate(cost, constraint, y)
            y = step_explicit(y, combined_grad(ev, lam), eta)
            # scalar replica: grad_i = (y_i - x_i)/2 + lam * 2 * (C f)_i
            f = [ys[0], ys[1]]
            cf = [0.5 * f[0] - 0.5 * f[1], -0.5 * f[0] + 0.5 * f[1]]
            g = [(ys[0] - 0.0) / 2 + lam * 2 * cf[0], (ys[1] - 2.0) / 2 + lam * 2 * cf[1]]
            ys = [ys[0] - eta * g[0], ys[1] - eta * g[1]]
        assert y[0, 0] == ys[0] and y[1, 0] == ys[1]

    def test_implicit_zero_grad(self, rng):
        y = rng.standard_normal((4, 2))
        cand, fallback = step_implicit(y, np.zeros_like(y), lambda v: v, 0.3)
        assert np.allclose(cand, y) and not fallback

    def test_implicit_identity_hessian_resolvent(self, rng):
        # quadratic cost only: blocks I/N give the scalar resolvent eta/(1+eta/N)
        n = 6
        x = rng.standard_normal((n, 2))
        y = x + rng.standard_normal((n, 2))
        model = CostModel("sq_euclidean")
        C = centering_matrix(categorical_coupling(np.zeros(n, dtype=int)))
        ev = evaluate(cost_function(model, x), constraint_function(C, 1.0), y,
                      want_hvp=True)
        grad = combined_grad(ev, 0.0)
        eta = 0.7
        cand, fallback = step_implicit(y, grad, ev.hvp(0.0), eta)
        expected = y - (eta / (1 + eta / n)) * grad
        assert not fallback
        assert np.abs(cand - expected).max() <= 1e-12

    def test_implicit_small_eta_agrees_with_explicit(self, rng):
        n = 5
        x = rng.standard_normal((n, 2))
        y = x + 0.5 * rng.standard_normal((n, 2))
        C = centering_matrix(categorical_coupling(rng.integers(0, 2, n)))
        tf = 0.8
        ev = evaluate(cost_function(CostModel("sq_euclidean"), x), constraint_function(C, tf), y,
                      want_hvp=True)
        grad = combined_grad(ev, 1.0)
        eta = 1e-8
        cand, _ = step_implicit(y, grad, ev.hvp(1.0), eta)
        delta_rate = (y - cand) / eta
        assert np.abs(delta_rate - grad).max() / np.abs(grad).max() <= 1e-4

    def test_implicit_singular_falls_back(self, rng):
        # H = -I, so I + eta*H vanishes at eta = 1
        y = rng.standard_normal((1, 1))
        grad = np.array([[1.0]])
        cand, fallback = step_implicit(y, grad, lambda v: -v, 1.0)
        assert fallback
        assert np.allclose(cand, y - grad)

    @pytest.mark.parametrize("hvp", [
        lambda v: np.full_like(v, np.nan),  # non-finite result
        lambda v: 10.0 * np.array([v[1], -v[0]]),  # skew: MINRES returns a non-solution
    ])
    def test_implicit_unsolved_falls_back(self, hvp):
        y = np.zeros((2, 1))
        grad = np.array([[1.0], [0.5]])
        cand, fallback = step_implicit(y, grad, hvp, 0.5)
        assert fallback
        assert np.array_equal(cand, step_explicit(y, grad, 0.5))

    def test_implicit_iteration_cap_falls_back(self, rng, monkeypatch):
        monkeypatch.setattr(solver, "_KRYLOV_MAXITER", 1)
        B = rng.standard_normal((6, 6))
        H = B @ B.T  # symmetric positive definite, needs more than one MINRES step
        y = np.zeros((6, 1))
        grad = rng.standard_normal((6, 1))
        cand, fallback = step_implicit(y, grad, lambda v: H @ v, 0.5)
        assert fallback
        assert np.array_equal(cand, step_explicit(y, grad, 0.5))

    @pytest.mark.parametrize("mode", ["kde", "features"])
    def test_implicit_matches_dense_solve(self, mode, rng):
        # indefinite system: the dense reference exists only in this test
        n = 12
        x = rng.standard_normal((n, 2))
        y = x + 0.5 * rng.standard_normal((n, 2))
        C = centering_matrix(categorical_coupling(rng.integers(0, 3, n)))
        tf = 0.6 if mode == "kde" else monomial_features(2, 2)
        lam, eta = 40.0, 0.3
        model = CostModel("distortion")
        Z = categorical_coupling(rng.integers(0, 2, n))
        ev = evaluate(cost_function(model, x, Z), constraint_function(C, tf), y, want_hvp=True)
        grad = combined_grad(ev, lam)
        hvp = ev.hvp(lam)
        A = np.eye(2 * n) + eta * operator_matrix(hvp, n, 2).reshape(2 * n, 2 * n)
        eigenvalues = np.linalg.eigvalsh(A)
        assert eigenvalues.min() < 0 < eigenvalues.max()
        expected = y - np.linalg.solve(A, eta * grad.ravel()).reshape(n, 2)
        cand, fallback = step_implicit(y, grad, hvp, eta)
        assert not fallback
        assert np.linalg.norm(cand - expected) <= 1e-8 * np.linalg.norm(expected - y)


class TestDescentCheck:
    """The recorded sides of the check: L after and before each accepted step."""

    def setup_method(self):
        self.ds = gen_ellipses(seed=0, n_per_class=40)
        self.model = CostModel("sq_euclidean")

    def run(self, **config):
        return solve(self.ds.x, self.ds.covariates, self.model, SolverConfig(**config))

    def test_no_step_passes(self, rng):
        # one class at y = x: both gradients vanish, the step is zero
        x = rng.standard_normal((10, 2))
        cov = Covariates.categorical(np.zeros(10, dtype=int))
        rec = solve(x, cov, self.model, SolverConfig(niter=1)).history[0]
        assert rec.eta_halvings == 0
        assert rec.L == rec.descent_rhs

    def test_small_step_passes(self):
        res = self.run(eta0=1e-6, niter=5)
        assert [rec.eta_halvings for rec in res.history] == [0] * 5
        assert all(rec.L <= rec.descent_rhs for rec in res.history)

    def test_huge_step_fails(self):
        res = self.run(eta0=1e3, niter=5)
        assert res.history[0].eta_halvings > 0
        assert all(rec.L <= rec.descent_rhs for rec in res.history)


class TestDescentSides:
    @pytest.mark.parametrize("mode", ["kde", "features"])
    def test_known_cost_matches_recomputation(self, mode, rng):
        # the recorded sides equal both objectives recomputed from scratch,
        # kernel centers at the stepped points
        x = rng.standard_normal((10, 2))
        cov = Covariates.categorical(rng.integers(0, 2, 10))
        model = CostModel("p_norm", p=1.5)
        res = solve(x, cov, model, SolverConfig(problem=mode, niter=1, eta0=0.05))
        rec, y_new = res.history[0], res.y_final
        tf = res.bandwidth_a if mode == "kde" else monomial_features(2, 2)
        _, C = build_couplings(cov)
        cost, constraint = cost_function(model, x), constraint_function(C, tf)
        ev = evaluate(cost, constraint, y_new)
        lhs = ev.L_C + rec.lam * ev.L_F
        rhs = cost(x)[0] + rec.lam * constraint(x, centers=y_new)[0]
        assert (rec.L, rec.descent_rhs) == (lhs, rhs)
        L_C, L_F = cost(y_new)[0], constraint(y_new)[0]
        assert (rec.L_C, rec.L_F) == (L_C, L_F)


class TestSolve:
    def test_single_class_converges_immediately(self, rng):
        x = rng.standard_normal((10, 2))
        cov = Covariates.categorical(np.zeros(10, dtype=int))
        res = solve(x, cov, CostModel("sq_euclidean"), SolverConfig(problem="kde"))
        assert res.converged and res.iterations <= 2
        assert np.allclose(res.y_final, x)

    def test_two_singletons_midpoint(self):
        x = np.array([[0.0], [2.0]])
        cov = Covariates.categorical(np.array([0, 1]))
        cfg = SolverConfig(problem="features", feature_degree=1)
        res = solve(x, cov, CostModel("sq_euclidean"), cfg)
        assert np.abs(res.y_final - 1.0).max() <= 1e-3

    def test_lambda_monotone_and_descent_margin(self):
        ds = gen_ellipses(seed=1, n_per_class=30)
        cfg = SolverConfig(problem="features", feature_degree=2, niter=300)
        res = solve(ds.x, ds.covariates, CostModel("p_norm", p=2.0), cfg)
        lams = [r.lam for r in res.history]
        assert all(a <= b for a, b in zip(lams, lams[1:]))
        for rec in res.history:
            assert rec.L <= rec.descent_rhs + 1e-12
            assert rec.L_F >= -1e-10

    def test_lambda_floor_inequality_on_history(self):
        ds = gen_ellipses(seed=2, n_per_class=20)
        cfg = SolverConfig(problem="kde", niter=200)
        res = solve(ds.x, ds.covariates, CostModel("sq_euclidean"), cfg)
        for rec in res.history:
            if not rec.lambda_clamped:
                assert rec.lambda_slack >= -1e-10

    def test_deterministic_history(self):
        ds = gen_ellipses(seed=3, n_per_class=25)
        cfg = SolverConfig(problem="features", feature_degree=2, niter=150)
        r1 = solve(ds.x, ds.covariates, CostModel("p_norm", p=2.0), cfg)
        r2 = solve(ds.x, ds.covariates, CostModel("p_norm", p=2.0), cfg)
        assert np.array_equal(r1.y_final, r2.y_final)
        assert [(h.L, h.lam, h.eta) for h in r1.history] == [
            (h.L, h.lam, h.eta) for h in r2.history
        ]

    def test_hessians_built_once_per_iteration(self, monkeypatch):
        # rejected implicit candidates never apply their Hessian-vector product
        builds = []
        hess = MonomialBasis.hess
        monkeypatch.setattr(MonomialBasis, "hess", lambda self, y: builds.append(1) or hess(self, y))
        ds = gen_ellipses(seed=0, n_per_class=10)
        cfg = SolverConfig(problem="features", update="implicit", feature_degree=3,
                           eta0=50.0, niter=30)
        result = solve(ds.x, ds.covariates, CostModel("sq_euclidean"), cfg)
        assert sum(h.eta_halvings for h in result.history) > 0
        assert 0 < len(builds) <= result.iterations  # lambda0 uses the first iteration's

    @pytest.mark.parametrize("problem,cost", [("kde", "sq_euclidean"), ("features", "distortion")])
    def test_pair_operators_set_up_once_per_iteration(self, problem, cost, monkeypatch):
        # rejected implicit candidates never apply their Hessian-vector product
        builds = count_pair_operators(monkeypatch)
        ds = gen_ellipses(seed=0, n_per_class=10)
        cfg = SolverConfig(problem=problem, update="implicit", eta0=50.0, niter=30)
        result = solve(ds.x, ds.covariates, CostModel(cost), cfg)
        assert sum(h.eta_halvings for h in result.history) > 0
        assert 0 < len(builds) <= result.iterations  # lambda0 uses the first iteration's

    @pytest.mark.parametrize("cost", ["sq_euclidean", "distortion"])
    def test_explicit_fixed_lambda0_sets_up_no_pair_operator(self, cost, monkeypatch):
        builds = count_pair_operators(monkeypatch)
        ds = gen_ellipses(seed=0, n_per_class=10)
        solve(ds.x, ds.covariates, CostModel(cost), SolverConfig(lambda0=1.0, niter=20))
        assert builds == []

    @pytest.mark.parametrize("problem", ["kde", "features"])
    def test_flat_constraint_lambda0_respects_lambda_max(self, problem, rng):
        x = rng.standard_normal((10, 2))
        cov = Covariates.categorical(np.zeros(10, dtype=int))  # one class: C = 0
        res = solve(x, cov, CostModel("sq_euclidean"),
                    SolverConfig(problem=problem, lambda_max=0.5))
        assert res.lambda0 == 0.5
        assert res.history and all(h.lam <= 0.5 for h in res.history)

    def test_kernels_built_once_per_point_set(self, monkeypatch):
        # one kernel at the start, serving lambda0 too; two per tried step
        builds = []
        kernel = objective.kernel_cross_matrix
        monkeypatch.setattr(objective, "kernel_cross_matrix",
                            lambda *args: builds.append(1) or kernel(*args))
        ds = gen_ellipses(seed=0, n_per_class=10)
        result = solve(ds.x, ds.covariates, CostModel("sq_euclidean"),
                       SolverConfig(eta0=50.0, niter=1))
        halvings = result.history[0].eta_halvings
        assert halvings > 0
        assert len(builds) == 1 + 2 * (1 + halvings)

    @pytest.mark.parametrize("problem,update", [
        ("kde", "explicit"), ("kde", "implicit"), ("features", "implicit"),
    ])
    def test_constraint_gradients_built_once_per_kept_point_set(self, problem, update, monkeypatch):
        # the start and each accepted step; never a rejected candidate or a right side
        builds = count_gradients(monkeypatch, "constraint_function")
        ds = gen_ellipses(seed=0, n_per_class=10)
        cfg = SolverConfig(problem=problem, update=update, eta0=50.0, niter=10)
        result = solve(ds.x, ds.covariates, CostModel("sq_euclidean"), cfg)
        assert sum(h.eta_halvings for h in result.history) > 0
        assert len(builds) == 1 + result.iterations

    @pytest.mark.parametrize("cost", ["sq_euclidean", "distortion"])
    @pytest.mark.parametrize("update", ["explicit", "implicit"])
    def test_cost_gradients_built_once_per_kept_point_set(self, update, cost, monkeypatch):
        # the start and each accepted step; never a rejected candidate
        builds = count_gradients(monkeypatch, "cost_function")
        ds = gen_ellipses(seed=0, n_per_class=10)
        cfg = SolverConfig(update=update, eta0=50.0, niter=10)
        result = solve(ds.x, ds.covariates, CostModel(cost), cfg)
        assert sum(h.eta_halvings for h in result.history) > 0
        assert len(builds) == 1 + result.iterations

    @pytest.mark.parametrize("cost", ["sq_euclidean", "distortion"])
    @pytest.mark.parametrize("lambda0", ["auto", 1.0])
    def test_explicit_kernel_freed_before_the_next_is_built(self, lambda0, cost, monkeypatch):
        # a whole-solve memory peak cannot see this, as set-up peaks higher
        alive = record_live_kernels(monkeypatch)
        ds = gen_ellipses(seed=0, n_per_class=10)
        cfg = SolverConfig(lambda0=lambda0, eta0=50.0, niter=10)
        result = solve(ds.x, ds.covariates, CostModel(cost), cfg)
        assert sum(h.eta_halvings for h in result.history) > 0
        assert len(alive) > 2 * result.iterations
        assert max(alive) == 0

    @pytest.mark.parametrize("cost", ["sq_euclidean", "distortion"])
    @pytest.mark.parametrize("lambda0", ["auto", 1.0])
    def test_implicit_keeps_one_kernel_alive(self, lambda0, cost, monkeypatch):
        # the accepted evaluation's, which the loop's Hessian-vector product reads
        alive = record_live_kernels(monkeypatch)
        ds = gen_ellipses(seed=0, n_per_class=10)
        cfg = SolverConfig(update="implicit", lambda0=lambda0, eta0=50.0, niter=10)
        result = solve(ds.x, ds.covariates, CostModel(cost), cfg)
        assert len(alive) > 2 * result.iterations
        assert max(alive) <= 1

    @pytest.mark.parametrize("cost", ["sq_euclidean", "distortion"])
    def test_non_finite_candidate_cost_gradient_halves_eta(self, cost, monkeypatch):
        # the first candidate passes the descent check, but its cost gradient is NaN
        ds = gen_ellipses(seed=0, n_per_class=10)
        model = CostModel(cost)
        plain = solve(ds.x, ds.covariates, model, SolverConfig(eta0=5e-4, niter=1))
        count_gradients(monkeypatch, "cost_function", poisoned={1})
        result = solve(ds.x, ds.covariates, model, SolverConfig(eta0=1e-3, niter=1))
        assert plain.history[0].eta_halvings == 0
        assert result.history[0].eta_halvings == 1
        assert result.history[0].eta == plain.history[0].eta
        assert np.array_equal(result.y_final, plain.y_final)

    @pytest.mark.parametrize("problem", ["kde", "features"])
    def test_non_finite_candidate_gradient_halves_eta(self, problem, monkeypatch):
        # the first candidate passes the descent check, but its gradient is NaN
        ds = gen_ellipses(seed=0, n_per_class=10)
        model = CostModel("sq_euclidean")
        plain = solve(ds.x, ds.covariates, model,
                      SolverConfig(problem=problem, eta0=5e-4, niter=1))
        count_gradients(monkeypatch, "constraint_function", poisoned={1})
        result = solve(ds.x, ds.covariates, model,
                       SolverConfig(problem=problem, eta0=1e-3, niter=1))
        assert plain.history[0].eta_halvings == 0
        assert result.history[0].eta_halvings == 1
        assert result.history[0].eta == plain.history[0].eta
        assert np.array_equal(result.y_final, plain.y_final)

    @pytest.mark.parametrize("problem", ["kde", "features"])
    def test_non_finite_candidate_halves_eta(self, problem, monkeypatch):
        # the first candidate is NaN: rejected before anything reads it, so no warning
        ds = gen_ellipses(seed=0, n_per_class=10)
        model = CostModel("sq_euclidean")
        plain = solve(ds.x, ds.covariates, model,
                      SolverConfig(problem=problem, eta0=5e-4, niter=1))
        steps = []

        def poisoned(y, grad, eta):
            steps.append(eta)
            candidate = step_explicit(y, grad, eta)
            return np.full_like(candidate, np.nan) if len(steps) == 1 else candidate

        monkeypatch.setattr(solver, "step_explicit", poisoned)
        evaluations = count_calls(monkeypatch, solver, "evaluate")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = solve(ds.x, ds.covariates, model,
                           SolverConfig(problem=problem, eta0=1e-3, niter=1))
        assert len(evaluations) == 2  # the start and the second candidate
        assert plain.history[0].eta_halvings == 0
        assert result.history[0].eta_halvings == 1
        assert result.history[0].eta == plain.history[0].eta
        assert np.array_equal(result.y_final, plain.y_final)

    def test_geodesic_step_past_pole_rejected(self, monkeypatch):
        latitudes = []

        def recording(y, grad, eta):
            candidate = step_explicit(y, grad, eta)
            latitudes.append(np.abs(candidate[:, 1]).max())
            return candidate

        monkeypatch.setattr(solver, "step_explicit", recording)
        # a flow that, unchecked, ends 0.22 rad past the north pole
        ds = lagged_dataset(gen_hidden_signal(seed=0, steps=40))
        result = solve(ds.x, ds.covariates, CostModel("geodesic_sphere"),
                       SolverConfig(eta0=1.0, niter=10))
        assert max(latitudes) > np.pi / 2 + 1e-9  # some candidates passed a pole
        assert result.iterations == 10
        assert np.abs(result.y_final[:, 1]).max() <= np.pi / 2 + 1e-9

    def test_non_finite_points_rejected(self):
        ds = gen_ellipses(seed=0, n_per_class=10)
        x = ds.x.copy()
        x[3, 1] = np.nan
        with pytest.raises(InvalidInputError, match="finite"):
            solve(x, ds.covariates, CostModel("sq_euclidean"), SolverConfig(niter=1))

    def test_distortion_distances_between_x_computed_once(self, monkeypatch):
        # preconditioned, so the flow never evaluates at y = x
        calls = count_calls(monkeypatch, costs, "cdist")
        ds = gen_ellipses(seed=0, n_per_class=10)
        result = solve(ds.x, ds.covariates, CostModel("distortion"),
                       SolverConfig(niter=5, precondition=True))
        assert result.iterations == 5
        assert sum(np.array_equal(a, ds.x) for a, _ in calls) == 1
        assert len(calls) > 5  # and one cdist(y, y) per evaluation

    @pytest.mark.parametrize("niter", [1, 10])
    def test_fixed_inputs_checked_once_per_solve(self, niter, monkeypatch):
        # x is checked where the cost binds it, C where the constraint binds it
        x_checks = count_calls(monkeypatch, costs, "as_points")
        c_checks = count_calls(monkeypatch, solver, "constraint_function")
        ds = gen_ellipses(seed=0, n_per_class=10)
        cfg = SolverConfig(update="implicit", eta0=50.0, niter=niter)
        result = solve(ds.x, ds.covariates, CostModel("distortion"), cfg)
        assert result.iterations == niter
        assert (len(x_checks), len(c_checks)) == (1, 1)

    def test_kde_implicit_solve_peak_memory(self):
        # the solve holds one N x N copy of C^T and no Z; a second copy of either fails this
        ds = gen_ellipses(seed=0, n_per_class=134)
        n = len(ds.x)

        def run():
            solve(ds.x, ds.covariates, CostModel("sq_euclidean"),
                  SolverConfig(update="implicit", niter=2))

        assert peak_bytes(run) < 3.6 * n**2 * 8

    @pytest.mark.parametrize("lambda0", ["auto", 1.0])
    @pytest.mark.parametrize("problem", ["kde", "features"])
    def test_non_finite_start_gradient_raises(self, problem, lambda0, monkeypatch):
        count_gradients(monkeypatch, "constraint_function", poisoned={0})
        ds = gen_ellipses(seed=0, n_per_class=10)
        with pytest.raises(NumericError, match="gradient"):
            solve(ds.x, ds.covariates, CostModel("sq_euclidean"),
                  SolverConfig(problem=problem, lambda0=lambda0))

    @pytest.mark.parametrize("lambda0", ["auto", 1.0])
    def test_non_finite_start_cost_gradient_raises(self, lambda0, monkeypatch):
        count_gradients(monkeypatch, "cost_function", poisoned={0})
        ds = gen_ellipses(seed=0, n_per_class=10)
        with pytest.raises(NumericError, match="cost gradient"):
            solve(ds.x, ds.covariates, CostModel("sq_euclidean"), SolverConfig(lambda0=lambda0))

    def test_precondition_result_carries_provenance(self):
        ds = gen_ellipses(seed=4, n_per_class=20)
        cfg = SolverConfig(problem="features", feature_degree=1, niter=100, precondition=True)
        res = solve(ds.x, ds.covariates, CostModel("sq_euclidean"), cfg)
        assert res.precondition_shift is not None
        assert np.array_equal(res.x_original, ds.x)

    def test_explicit_lambda0(self):
        x = np.array([[0.0], [2.0]])
        cov = Covariates.categorical(np.array([0, 1]))
        cfg = SolverConfig(problem="features", feature_degree=1, lambda0=0.5, niter=50)
        res = solve(x, cov, CostModel("sq_euclidean"), cfg)
        assert res.lambda0 == 0.5
        assert res.history[0].lam >= 0.5

    def test_covariate_count_mismatch(self, rng):
        with pytest.raises(InvalidInputError):
            solve(rng.standard_normal((5, 2)),
                  Covariates.categorical(np.zeros(4, dtype=int)),
                  CostModel("sq_euclidean"), SolverConfig())

    def test_invalid_config(self):
        with pytest.raises(InvalidInputError):
            SolverConfig(omega_alpha=1.5)
        with pytest.raises(InvalidInputError):
            SolverConfig(lambda0=2.0, lambda_max=1.0)
        with pytest.raises(InvalidInputError):
            SolverConfig(update="magic")

    @pytest.mark.parametrize("field,value", [
        ("lambda0", "fast"), ("bandwidth_a", "wide"), ("lambda0", None), ("bandwidth_a", -1.0),
    ])
    def test_bad_auto_fields_rejected(self, field, value):
        with pytest.raises(InvalidInputError):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("eta0", float("nan")), ("eta0", "0.1"), ("eta0", 0.0), ("eta0", None), ("eta0", True),
        ("tol_y", float("nan")), ("tol_lf", float("inf")), ("lambda_max", float("nan")),
        ("lambda_max", float("inf")), ("omega_alpha", float("nan")), ("omega_alpha", "0.5"),
        ("lambda0", float("nan")), ("bandwidth_a", float("inf")),
        ("niter", 2.5), ("niter", 0), ("niter", True), ("niter", "10"),
        ("feature_degree", 2.0), ("seed", 0.5), ("seed", -1),
    ])
    def test_non_numbers_rejected(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            SolverConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = SolverConfig(niter=np.int64(5), seed=np.uint32(3), eta0=np.float32(0.5))
        assert cfg.niter == 5 and cfg.seed == 3
