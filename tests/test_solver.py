import dataclasses
import itertools
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import LinearOperator, eigsh, minres

from baryflow import costs, objective, solver
from baryflow.costs import CostModel, cost_function
from baryflow.couplings import Covariates, build_couplings
from baryflow.datagen import gen_ellipses, gen_hidden_signal, gen_sphere_patches, lagged_dataset
from baryflow.errors import InvalidInputError, NumericError
from baryflow.objective import MonomialBasis, constraint_function, evaluate, monomial_features
from baryflow.solver import (
    HistoryRecord,
    SolverConfig,
    lambda_update,
    solve,
    step_implicit,
)

from conftest import (
    categorical_coupling,
    centering_matrix,
    combined_grad,
    count_operators,
    dense_coupling,
    distortion_hvp_reference,
    features_hvp_reference,
    kde_hvp_reference,
    operator_matrix,
    operator_of,
    pairwise_hessian_reference,
    peak_bytes,
    rel_err,
    remainder_hvp,
    step_explicit,
)


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
            value, grad, *rest = parts(*args, **kwargs)  # rest: hvp, and kde's value_before

            def build():
                builds.append(1)
                return np.full_like(grad(), np.nan) if len(builds) - 1 in poisoned else grad()
            return value, build, *rest
        return counting

    # every evaluate calls the term the solve binds
    monkeypatch.setattr(solver, binder, counting_bind)
    return builds


def record_live_kernels(monkeypatch):
    """For each kernel build, in order, the number of kernels built before it that are still alive.

    Returns that list and ``live()``, the number of kernels alive when it is called.
    """
    kernels, alive = [], []
    kernel = objective._kde_kernel
    live = lambda: sum(ref() is not None for ref in kernels)

    def recording(*args):
        alive.append(live())
        out = kernel(*args)
        kernels.append(weakref.ref(out))
        return out

    monkeypatch.setattr(objective, "_kde_kernel", recording)
    return alive, live


def watch_candidates(monkeypatch, watch):
    """Call ``watch(candidate)`` on each step candidate of ``solver.solve``, before it is checked.

    The solver's one ``np.isfinite`` call is the candidate's finiteness check,
    so the solver module's numpy is swapped for one whose ``isfinite`` shows
    its argument to ``watch`` first; ``watch`` may write into the candidate.
    """
    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def isfinite(candidate):
            watch(candidate)
            return np.isfinite(candidate)

    monkeypatch.setattr(solver, "np", Numpy())


def count_calls(monkeypatch, module, name, calls=None):
    """Record the positional arguments of each call of ``module.name``, in ``calls`` if given."""
    calls = [] if calls is None else calls
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


def scipy_step_implicit(y, grad, hvp, eta):
    """The implicit step through scipy's MINRES: ``step_implicit`` must equal it bit for bit.

    Both sides apply the same operator I + eta*H, formed by ``block_operator``.
    """
    n, d = y.shape
    b = eta * grad.ravel()
    operator = costs.block_operator(hvp, eta, shift=1.0)

    def matvec(u):
        return operator(u.reshape(n, d)).ravel()

    A = LinearOperator((n * d, n * d), matvec=matvec, dtype=float)
    delta, info = minres(A, b, x0=b, rtol=solver._KRYLOV_RTOL, maxiter=solver._KRYLOV_MAXITER)
    return y - delta.reshape(n, d), info != 0


def random_implicit_system(kind, rng):
    """``(y, grad, hvp, eta)`` of one implicit step; ``kind`` names the operator H."""
    n, d = int(rng.integers(2, 30)), int(rng.integers(1, 4))
    y = rng.standard_normal((n, d))
    grad = rng.standard_normal((n, d))
    eta = float(rng.uniform(0.05, 2.0))
    if kind in ("spd", "indefinite"):
        B = rng.standard_normal((n * d, n * d))
        H = B @ B.T / (n * d) if kind == "spd" else (B + B.T) / 2.0
        hvp = remainder_hvp(lambda v: (H @ v.ravel()).reshape(v.shape), n, d)
        return y, grad, [(1.0, hvp)], eta
    # the solver's own operators, at a random multiplier
    x = y + 0.5 * rng.standard_normal((n, d))
    coupling = dense_coupling(categorical_coupling(rng.integers(0, 3, n)))
    tf = float(rng.uniform(0.3, 1.5)) if kind == "kde" else monomial_features(d, 2)
    model = CostModel("distortion")
    Z = categorical_coupling(rng.integers(0, 2, n))
    ev = evaluate(cost_function(model, x, dense_coupling(Z)), constraint_function(coupling, tf), y)
    lam = float(10.0 ** rng.uniform(-1.0, 2.0))
    return y, combined_grad(ev, lam), ev.hvp(lam), eta


def precondition_shift(x, covariates, **config):
    """The shift a one-iteration preconditioned solve adds to x."""
    config = SolverConfig(niter=1, precondition=True, **config)
    return solve(x, covariates, CostModel("sq_euclidean"), config).precondition_shift


class TestPreconditionMeanShift:
    """The shift -C x = mean(x) - Z x that ``solve`` preconditions with, from the coupling's product."""

    def test_single_class_identity(self, rng):
        x = rng.standard_normal((8, 2))
        shift = precondition_shift(x, Covariates.categorical(np.zeros(8, dtype=int)))
        assert np.allclose(shift, 0.0)

    def test_two_singletons_meet_at_global_mean(self):
        x = np.array([[0.0], [2.0]])
        shift = precondition_shift(x, Covariates.categorical(np.array([0, 1])))
        assert np.allclose(x + shift, 1.0)

    def test_ellipse_class_means_match_global(self):
        ds = gen_ellipses(seed=0)
        w = ds.x + precondition_shift(ds.x, ds.covariates)
        labels = np.asarray(ds.covariates.labels)
        global_mean = ds.x.mean(axis=0)
        for z in (0, 1, 2):
            assert np.abs(w[labels == z].mean(axis=0) - global_mean).max() <= 1e-12

    def test_categorical_equals_per_label_means(self, rng):
        # the class index Covariates took gives each label's own mean
        labels = rng.permutation(np.repeat(["b", "a", "c"], [7, 1, 12]))
        x = rng.standard_normal((20, 2)) * 10.0
        cond = np.empty_like(x)
        for value in np.unique(labels):
            cond[labels == value] = x[labels == value].mean(axis=0)
        cov = Covariates.categorical(labels)
        shift = precondition_shift(x, cov)
        assert shift.tobytes() == (-build_couplings(cov).product()(x.T).T).tobytes()
        assert np.abs(shift - (x.mean(axis=0) - cond)).max() <= 1e-15 * np.abs(x).max()

    def test_continuous_uses_coupling_weights(self, rng):
        x = rng.standard_normal((12, 2))
        cov = Covariates.continuous(rng.standard_normal((12, 1)))
        coupling = build_couplings(cov, 0.8)
        shift = precondition_shift(x, cov, bandwidth_b=0.8)
        assert shift.tobytes() == (-(x.T @ coupling.CT).T).tobytes()
        assert np.abs(shift - (x.mean(axis=0) - coupling.Z() @ x)).max() <= 1e-13


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
        Z = categorical_coupling(np.array([0, 1]))
        tf = monomial_features(1, 1)
        model = CostModel("sq_euclidean")
        y = x.copy()
        ys = [0.0, 2.0]
        eta, lam = 0.05, 1.0
        cost, constraint = cost_function(model, x), constraint_function(dense_coupling(Z), tf)
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
        hvp = [(1.0, remainder_hvp(lambda v: v, 4, 2))]
        cand, failed = step_implicit(y, np.zeros_like(y), hvp, 0.3)
        assert np.allclose(cand, y) and not failed

    def test_implicit_identity_hessian_resolvent(self, rng):
        # quadratic cost only: blocks I/N give the scalar resolvent eta/(1+eta/N)
        n = 6
        x = rng.standard_normal((n, 2))
        y = x + rng.standard_normal((n, 2))
        model = CostModel("sq_euclidean")
        Z = categorical_coupling(np.zeros(n, dtype=int))
        ev = evaluate(cost_function(model, x), constraint_function(dense_coupling(Z), 1.0), y)
        grad = combined_grad(ev, 0.0)
        eta = 0.7
        cand, failed = step_implicit(y, grad, ev.hvp(0.0), eta)
        expected = y - (eta / (1 + eta / n)) * grad
        assert not failed
        assert np.abs(cand - expected).max() <= 1e-12

    def test_implicit_small_eta_agrees_with_explicit(self, rng):
        n = 5
        x = rng.standard_normal((n, 2))
        y = x + 0.5 * rng.standard_normal((n, 2))
        Z = categorical_coupling(rng.integers(0, 2, n))
        tf = 0.8
        ev = evaluate(cost_function(CostModel("sq_euclidean"), x),
                      constraint_function(dense_coupling(Z), tf), y)
        grad = combined_grad(ev, 1.0)
        eta = 1e-8
        cand, _ = step_implicit(y, grad, ev.hvp(1.0), eta)
        delta_rate = (y - cand) / eta
        assert np.abs(delta_rate - grad).max() / np.abs(grad).max() <= 1e-4

    def test_implicit_singular_step_is_left_to_the_descent_check(self, rng):
        # H = -I, so I + eta*H vanishes at eta = 1: MINRES stops at once with
        # its start x0 = eta*grad, a finite step the solver's descent check judges
        y = rng.standard_normal((1, 1))
        grad = np.array([[1.0]])
        cand, failed = step_implicit(y, grad, [(1.0, remainder_hvp(lambda v: -v, 1, 1))], 1.0)
        assert not failed
        assert np.isfinite(cand).all() and np.allclose(cand, y - grad)

    @pytest.mark.parametrize("hvp", [
        lambda v: np.full_like(v, np.nan),  # non-finite result
        lambda v: 10.0 * np.array([v[1], -v[0]]),  # skew: MINRES returns a non-solution
    ])
    def test_implicit_unsolved_fails(self, hvp):
        y = np.zeros((2, 1))
        grad = np.array([[1.0], [0.5]])
        _, failed = step_implicit(y, grad, [(1.0, remainder_hvp(hvp, 2, 1))], 0.5)
        assert failed is True

    def test_implicit_iteration_cap_fails(self, rng, monkeypatch):
        monkeypatch.setattr(solver, "_KRYLOV_MAXITER", 1)
        B = rng.standard_normal((6, 6))
        H = B @ B.T  # symmetric positive definite, needs more than one MINRES step
        y = np.zeros((6, 1))
        grad = rng.standard_normal((6, 1))
        _, failed = step_implicit(y, grad, [(1.0, remainder_hvp(lambda v: H @ v, 6, 1))], 0.5)
        assert failed is True

    @pytest.mark.parametrize("maxiter", [3, 500])
    @pytest.mark.parametrize("kind", ["spd", "indefinite", "kde", "features"])
    def test_implicit_equals_scipy_minres(self, kind, maxiter, rng, monkeypatch):
        monkeypatch.setattr(solver, "_KRYLOV_MAXITER", maxiter)
        failures = 0
        for _ in range(25):
            y, grad, hvp, eta = random_implicit_system(kind, rng)
            cand, failed = step_implicit(y, grad, hvp, eta)
            expected, expected_failed = scipy_step_implicit(y, grad, hvp, eta)
            assert failed == expected_failed
            assert np.array_equal(cand, expected)
            failures += failed
        if maxiter == 3 and kind != "spd":
            assert failures > 0  # the cap is hit, and both sides report it alike

    @pytest.mark.parametrize("poisoned", [0, 1], ids=["first-residual", "first-iteration"])
    def test_implicit_non_finite_product_stops_at_once(self, poisoned):
        products = []

        def hvp(v):  # H = 2 I, until a product comes back NaN
            products.append(1)
            return np.full_like(v, np.nan) if len(products) > poisoned else 2.0 * v

        y = np.zeros((2, 1))
        grad = np.array([[1.0], [0.5]])
        _, failed = step_implicit(y, grad, [(1.0, remainder_hvp(hvp, 2, 1))], 0.5)
        assert failed is True
        assert len(products) <= 2

    @staticmethod
    def step_system(mode, cost, rng, n):
        """An evaluation with products at y, its bound inputs and the dense C."""
        x = rng.uniform(-1.2, 1.2, (n, 2))  # latitudes in range for the great-circle cost
        y = np.clip(x + 0.2 * rng.standard_normal((n, 2)), -1.5, 1.5)
        labels = rng.integers(0, 3, n)
        model = CostModel(cost)
        Z = categorical_coupling(rng.integers(0, 2, n)) if cost == "distortion" else None
        tf = 0.8 if mode == "kde" else monomial_features(2, 2)
        coupling = build_couplings(Covariates.categorical(labels))
        cost = cost_function(model, x, None if Z is None else dense_coupling(Z))
        ev = evaluate(cost, constraint_function(coupling, tf), y)
        return ev, model, x, y, Z, tf, centering_matrix(categorical_coupling(labels))

    @pytest.mark.parametrize("cost", ["sq_euclidean", "p_norm", "geodesic_sphere", "distortion"])
    @pytest.mark.parametrize("mode", ["kde", "features"])
    def test_step_operator_matches_reference(self, mode, cost, rng):
        # I + eta (D_C + lam D_F) plus the scaled remainders against
        # v + eta (H_C + lam H_F) v from the products' direct terms
        ev, model, x, y, Z, tf, C = self.step_system(mode, cost, rng, 15)
        lam, eta = 30.0, 0.2
        if cost == "distortion":
            hc = distortion_hvp_reference(model, x, y, Z)
        else:
            blocks = pairwise_hessian_reference(model, x, y)
            hc = lambda v: np.einsum("iab,ib->ia", blocks, v)
        hf = (kde_hvp_reference(y, tf, C.T) if mode == "kde"
              else features_hvp_reference(y, C, tf.exponents))
        v = rng.standard_normal(y.shape)
        expected = v + eta * (hc(v) + lam * hf(v))
        assert rel_err(operator_of(ev.hvp(lam), eta, shift=1.0)(v), expected) <= 1e-12

    @pytest.mark.parametrize("mode,cost", [("kde", "sq_euclidean"), ("features", "distortion")])
    def test_step_operator_product_allocates_no_n_by_n_array(self, mode, cost, rng):
        n = 400
        ev = self.step_system(mode, cost, rng, n)[0]
        operator = operator_of(ev.hvp(30.0), 0.2, shift=1.0)
        v = rng.standard_normal((n, 2))
        assert peak_bytes(lambda: operator(v)) < n**2 * 8 / 4

    @pytest.mark.parametrize("mode", ["kde", "features"])
    def test_implicit_matches_dense_solve(self, mode, rng):
        # indefinite system: the dense reference exists only in this test
        n = 12
        x = rng.standard_normal((n, 2))
        y = x + 0.5 * rng.standard_normal((n, 2))
        coupling = dense_coupling(categorical_coupling(rng.integers(0, 3, n)))
        tf = 0.6 if mode == "kde" else monomial_features(2, 2)
        lam, eta = 40.0, 0.3
        model = CostModel("distortion")
        Z = categorical_coupling(rng.integers(0, 2, n))
        cost = cost_function(model, x, dense_coupling(Z))
        ev = evaluate(cost, constraint_function(coupling, tf), y)
        grad = combined_grad(ev, lam)
        hvp = ev.hvp(lam)
        A = np.eye(2 * n) + eta * operator_matrix(hvp, n, 2).reshape(2 * n, 2 * n)
        eigenvalues = np.linalg.eigvalsh(A)
        assert eigenvalues.min() < 0 < eigenvalues.max()
        expected = y - np.linalg.solve(A, eta * grad.ravel()).reshape(n, 2)
        cand, failed = step_implicit(y, grad, hvp, eta)
        assert not failed
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

    def test_failed_implicit_solve_halves_eta(self, monkeypatch):
        # a MINRES solve that reports no convergence is one more rejected try:
        # eta halves and the products are rebuilt at y, bit for bit
        ds = gen_ellipses(seed=0, n_per_class=10)
        config = SolverConfig(update="implicit", eta0=0.5, niter=1)
        plain = solve(ds.x, ds.covariates, self.model, config)
        calls, minres = [], solver._minres

        def failing_once(matvec, b):
            x, converged = minres(matvec, b)
            calls.append(converged)
            return x, converged and len(calls) > 1

        monkeypatch.setattr(solver, "_minres", failing_once)
        config = dataclasses.replace(config, eta0=1.0)
        result = solve(ds.x, ds.covariates, self.model, config)
        assert calls == [True, True]
        assert result.history[0].eta_halvings == 1
        assert result.y_final.tobytes() == plain.y_final.tobytes()

    def test_implicit_steps_are_judged_by_descent_alone(self):
        # the MINRES step at a large eta descends: few tries are rejected
        ds = gen_ellipses(seed=0, n_per_class=10)
        config = SolverConfig(update="implicit", eta0=10.0, niter=150)
        result = solve(ds.x, ds.covariates, self.model, config)
        assert sum(rec.eta_halvings for rec in result.history) <= 10
        result = solve(ds.x, ds.covariates, self.model, dataclasses.replace(config, eta0=50.0))
        assert result.converged


class TestHistory:
    """Records read back from the rows of the solver's history."""

    def setup_method(self):
        ds = gen_ellipses(seed=0, n_per_class=10)  # kde with halvings: eta, lam and L vary
        self.result = solve(ds.x, ds.covariates, CostModel("sq_euclidean"),
                            SolverConfig(eta0=50.0, niter=20))

    def test_records_hold_python_types(self):
        kinds = {"float": float, "int": int, "bool": bool}
        for rec in self.result.history:
            for field in dataclasses.fields(HistoryRecord):
                assert type(getattr(rec, field.name)) is kinds[field.type]

    def test_indexing_and_iteration(self):
        history = self.result.history
        n = len(history)
        assert n == self.result.iterations == 20
        last_row = tuple(history.column(f.name)[-1] for f in dataclasses.fields(HistoryRecord))
        assert dataclasses.astuple(history[-1]) == last_row
        assert history[-1] == history[n - 1]
        assert list(history) == [history[k] for k in range(n)]
        assert [rec.n for rec in history] == list(range(n))
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                history[index]
        for s in (slice(2, 5), slice(-2, None), slice(None, None, 3), slice(-1, 3, -4),
                  slice(4, 4), slice(5, 2), slice(n - 1, n + 10), slice(n + 3, None)):
            assert history[s] == list(history)[s]
        assert history[-2:] == [history[n - 2], history[n - 1]]
        assert history[n:] == []

    def test_final_values_and_read_only_columns(self):
        res, last = self.result, self.result.history[-1]
        assert (res.final_L_C, res.final_L_F, res.final_lambda) == (last.L_C, last.L_F, last.lam)
        with pytest.raises(ValueError):
            res.history.column("L")[0] = 0.0

    def test_retains_at_most_100_bytes_per_iteration(self):
        ds = gen_ellipses(seed=0, n_per_class=5)

        def run():
            return solve(ds.x, ds.covariates, CostModel("sq_euclidean"), SolverConfig(niter=2000))

        run()  # first-use set-up
        tracemalloc.start()
        try:
            result = run()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert result.iterations == 2000
        assert retained <= 100 * 2000


def categorical_p_norm(problem):
    def case(rng):
        x = rng.standard_normal((10, 2))
        cov = Covariates.categorical(rng.integers(0, 2, 10))
        return x, cov, CostModel("p_norm", p=1.5), dict(problem=problem, eta0=0.05), 0
    return case


def ellipses_l2(k, **config):
    def case(rng):
        ds = gen_ellipses(seed=0, n_per_class=10)
        return ds.x, ds.covariates, CostModel("sq_euclidean"), config, k
    return case


def hidden_signal_geodesic(rng):
    ds = lagged_dataset(gen_hidden_signal(seed=0, steps=40))  # continuous: Sinkhorn coupling
    return ds.x, ds.covariates, CostModel("geodesic_sphere"), {}, 3


# mode: rng -> (x, covariates, cost model, config, k); iteration k is checked
DESCENT_SIDES = {
    "kde": categorical_p_norm("kde"),
    "features": categorical_p_norm("features"),
    "kde-sinkhorn-geodesic": hidden_signal_geodesic,
    "kde-halvings": ellipses_l2(4, eta0=50.0),
    "kde-implicit": ellipses_l2(3, update="implicit", eta0=50.0),
}


class TestDescentSides:
    @pytest.mark.parametrize("mode", list(DESCENT_SIDES))
    def test_known_cost_matches_recomputation(self, mode, rng):
        # the recorded sides of iteration k equal both objectives recomputed
        # from scratch, kernel centers at the stepped points
        x, cov, model, config, k = DESCENT_SIDES[mode](rng)
        run = lambda niter: solve(x, cov, model, SolverConfig(**config, niter=niter))
        y = x if k == 0 else run(k).y_final
        res = run(k + 1)
        assert res.iterations == k + 1
        rec, y_new = res.history[k], res.y_final
        if mode == "kde-halvings":
            assert rec.eta_halvings > 0  # the recorded right side is a retried step's
        kde = config.get("problem", "kde") == "kde"
        tf = res.bandwidth_a if kde else monomial_features(x.shape[1], 2)
        coupling = build_couplings(cov)  # the object solve binds, not a dense C of its own
        cost = cost_function(model, x, coupling)
        constraint = constraint_function(coupling, tf)
        ev = evaluate(cost, constraint, y_new)
        lhs = ev.L_C + rec.lam * ev.L_F
        # kde scores y with the centers at y_new through ``before``; features have no centers
        L_F_before = constraint(y_new, before=y)[3] if kde else constraint(y)[0]
        rhs = cost(y)[0] + rec.lam * L_F_before
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
        # once per try, at the points before the step: a rejected try frees
        # them and the next rebuilds them; rejected candidates build none
        builds = []
        hess = MonomialBasis.hess
        monkeypatch.setattr(MonomialBasis, "hess",
                            lambda self, y, weights: builds.append(1) or hess(self, y, weights))
        ds = gen_ellipses(seed=0, n_per_class=10)
        cfg = SolverConfig(problem="features", update="implicit", feature_degree=3,
                           eta0=50.0, niter=30)
        result = solve(ds.x, ds.covariates, CostModel("sq_euclidean"), cfg)
        halvings = sum(h.eta_halvings for h in result.history)
        assert halvings > 0
        assert len(builds) == result.iterations + halvings  # lambda0 uses the first iteration's

    @pytest.mark.parametrize("problem,cost", [("kde", "sq_euclidean"), ("features", "distortion")])
    def test_pair_operators_set_up_once_per_iteration(self, problem, cost, monkeypatch):
        # once per try, at the points before the step: a rejected try frees
        # them and the next rebuilds them; rejected candidates set up none
        builds = count_pair_operators(monkeypatch)
        ds = gen_ellipses(seed=0, n_per_class=10)
        cfg = SolverConfig(problem=problem, update="implicit", eta0=50.0, niter=30)
        result = solve(ds.x, ds.covariates, CostModel(cost), cfg)
        halvings = sum(h.eta_halvings for h in result.history)
        assert halvings > 0
        assert len(builds) == result.iterations + halvings  # lambda0 uses the first iteration's

    @pytest.mark.parametrize("problem,cost", [("kde", "sq_euclidean"), ("features", "distortion")])
    def test_blocks_combined_once_per_try(self, problem, cost, monkeypatch):
        # each try adds D_C + lam D_F and forms I + eta (...) once; MINRES
        # then applies that operator many times
        tries = count_calls(monkeypatch, solver, "step_implicit")
        _, operators, products = count_operators(monkeypatch)
        ds = gen_ellipses(seed=0, n_per_class=10)
        cfg = SolverConfig(problem=problem, update="implicit", eta0=50.0, niter=30)
        result = solve(ds.x, ds.covariates, CostModel(cost), cfg)
        halvings = sum(h.eta_halvings for h in result.history)
        assert halvings > 0
        assert len(tries) == result.iterations + halvings
        sums = [terms for terms in operators if len(terms) == 2]
        assert len(sums) == len(tries)
        assert len(operators) == len(tries) + 1  # and lambda0's, on the constraint alone
        assert len(products) > 3 * len(operators)

    @pytest.mark.parametrize("cost", ["sq_euclidean", "p_norm", "geodesic_sphere", "distortion"])
    def test_explicit_fixed_lambda0_sets_up_no_pair_operator(self, cost, monkeypatch):
        # every evaluation carries its products, and none is ever read
        builds = count_pair_operators(monkeypatch)
        setups, operators, _ = count_operators(monkeypatch)
        if cost == "geodesic_sphere":
            ds = gen_sphere_patches(seed=0, n_per_class=10)
        else:
            ds = gen_ellipses(seed=0, n_per_class=10)
        for problem in ("kde", "features"):
            cfg = SolverConfig(problem=problem, lambda0=1.0, eta0=50.0, niter=20)
            result = solve(ds.x, ds.covariates, CostModel(cost), cfg)
            assert sum(h.eta_halvings for h in result.history) > 0
        assert (builds, setups, operators) == ([], [], [])

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
        kernel = objective._kde_kernel
        monkeypatch.setattr(objective, "_kde_kernel",
                            lambda *args: builds.append(1) or kernel(*args))
        ds = gen_ellipses(seed=0, n_per_class=10)
        result = solve(ds.x, ds.covariates, CostModel("sq_euclidean"),
                       SolverConfig(eta0=50.0, niter=1))
        halvings = result.history[0].eta_halvings
        assert halvings > 0
        assert len(builds) == 1 + 2 * (1 + halvings)

    @pytest.mark.parametrize("update", ["explicit", "implicit"])
    def test_centers_frame_formed_once_per_try(self, update, monkeypatch):
        # one frame at the start; each try builds both its kernels, the points
        # before the step and the stepped points, on the stepped points' frame.
        # An implicit try after a rejected one first rebuilds the products at
        # the points before the step: one more frame, with its one kernel.
        frames, factors = [], []
        frame, kernel = objective._kde_frame, objective._kde_kernel

        def recording_frame(*args):
            frames.append(frame(*args))
            return frames[-1]

        def recording_kernel(u, uu, B):
            factors.append(B)
            return kernel(u, uu, B)

        monkeypatch.setattr(objective, "_kde_frame", recording_frame)
        monkeypatch.setattr(objective, "_kde_kernel", recording_kernel)
        ds = gen_ellipses(seed=0, n_per_class=10)
        result = solve(ds.x, ds.covariates, CostModel("sq_euclidean"),
                       SolverConfig(update=update, eta0=50.0, niter=3))
        tries = sum(1 + h.eta_halvings for h in result.history)
        assert tries > result.iterations
        rebuilds = tries - result.iterations if update == "implicit" else 0
        assert len(frames) == 1 + tries + rebuilds
        later_try = [2] if update == "explicit" else [1, 2]  # [the rebuild,] the try
        kernels = [1] + [k for h in result.history for k in [2] + later_try * h.eta_halvings]
        expected = [B for (*_, B), k in zip(frames, kernels) for _ in range(k)]
        assert len(factors) == len(expected)
        assert all(a is b for a, b in zip(factors, expected))

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
        alive, _ = record_live_kernels(monkeypatch)
        ds = gen_ellipses(seed=0, n_per_class=10)
        cfg = SolverConfig(lambda0=lambda0, eta0=50.0, niter=10)
        result = solve(ds.x, ds.covariates, CostModel(cost), cfg)
        assert sum(h.eta_halvings for h in result.history) > 0
        assert len(alive) > 2 * result.iterations
        assert max(alive) == 0

    @pytest.mark.parametrize("cost", ["sq_euclidean", "distortion"])
    @pytest.mark.parametrize("lambda0", ["auto", 1.0])
    def test_explicit_no_kernel_alive_at_history_append(self, lambda0, cost, monkeypatch):
        # an accepted explicit step drops its unread products, which hold its kernel
        _, live = record_live_kernels(monkeypatch)
        appends, append = [], solver.History.append
        monkeypatch.setattr(solver.History, "append",
                            lambda rows, *values: appends.append(live()) or append(rows, *values))
        ds = gen_ellipses(seed=0, n_per_class=10)
        cfg = SolverConfig(lambda0=lambda0, eta0=50.0, niter=10)
        result = solve(ds.x, ds.covariates, CostModel(cost), cfg)
        assert sum(h.eta_halvings for h in result.history) > 0
        assert len(appends) == result.iterations > 1
        assert max(appends) == 0

    @pytest.mark.parametrize("cost", ["sq_euclidean", "distortion"])
    @pytest.mark.parametrize("lambda0", ["auto", 1.0])
    def test_implicit_kernel_freed_before_the_next_is_built(self, lambda0, cost, monkeypatch):
        # the step frees its products, with the accepted evaluation's weighted
        # kernel, before the candidate's kernel is built
        alive, _ = record_live_kernels(monkeypatch)
        ds = gen_ellipses(seed=0, n_per_class=10)
        cfg = SolverConfig(update="implicit", lambda0=lambda0, eta0=50.0, niter=10)
        result = solve(ds.x, ds.covariates, CostModel(cost), cfg)
        assert len(alive) > 2 * result.iterations
        assert max(alive) == 0

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

        def poisoned(candidate):
            steps.append(1)
            if len(steps) == 1:
                candidate.fill(np.nan)

        watch_candidates(monkeypatch, poisoned)
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
        watch_candidates(monkeypatch,
                         lambda candidate: latitudes.append(np.abs(candidate[:, 1]).max()))
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

    @pytest.mark.parametrize("precondition", [False, True])
    def test_cost_and_shift_read_the_coupling_kde_reads(self, precondition, rng):
        # a Sinkhorn coupling's one C^T is read by the distortion cost, the
        # shift and kde, and none of them changes it
        x = rng.standard_normal((15, 2))
        cov = Covariates.continuous(rng.standard_normal((15, 1)))
        model = CostModel("distortion")
        res = solve(x, cov, model, SolverConfig(niter=3, precondition=precondition, bandwidth_b=0.8))
        assert res.iterations > 0
        coupling = build_couplings(cov, 0.8)
        constraint_function(coupling, 1.0)  # kde's reads first
        if precondition:
            shift = -coupling.product()(x.T).T
            assert res.precondition_shift.tobytes() == shift.tobytes()
        # the cost bound after kde's reads scores the result as the solve did
        assert cost_function(model, x, coupling)(res.y_final)[0] == res.final_L_C

    @pytest.mark.parametrize("niter", [1, 10])
    def test_fixed_inputs_checked_once_per_solve(self, niter, monkeypatch):
        # x is checked where solve takes it, counted at every module that imports
        # the check; C is bound once, where the constraint binds it
        x_checks = []
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "baryflow" and hasattr(module, "as_points"):
                x_checks = count_calls(monkeypatch, module, "as_points", x_checks)
        c_checks = count_calls(monkeypatch, solver, "constraint_function")
        ds = gen_ellipses(seed=0, n_per_class=10)
        cfg = SolverConfig(update="implicit", eta0=50.0, niter=niter)
        result = solve(ds.x, ds.covariates, CostModel("distortion"), cfg)
        assert result.iterations == niter
        assert (len(x_checks), len(c_checks)) == (1, 1)

    def test_kde_implicit_solve_peak_memory(self):
        # no dense Z; test_categorical_kde_solve_holds_kernels_alone pins the peak closer
        ds = gen_ellipses(seed=0, n_per_class=134)
        n = len(ds.x)

        def run():
            solve(ds.x, ds.covariates, CostModel("sq_euclidean"),
                  SolverConfig(update="implicit", niter=2))

        assert peak_bytes(run) < 3.6 * n**2 * 8

    @pytest.mark.parametrize("update", ["explicit", "implicit"])
    def test_categorical_features_solve_holds_no_square_array(self, update, rng):
        # Z and C in their class form: the whole solve, lambda0 included, stays
        # far below one N x N array of doubles
        n = 2000
        x = rng.standard_normal((n, 2))
        cov = Covariates.categorical(rng.integers(0, 3, n))

        def run():
            solve(x, cov, CostModel("sq_euclidean"),
                  SolverConfig(problem="features", update=update, niter=2))

        assert peak_bytes(run) < n**2 * 8 / 4

    def test_categorical_kde_solve_peak_memory(self, rng):
        # no Z or C beside the kernel; ..._holds_kernels_alone pins the peak closer
        n = 600
        x = rng.standard_normal((n, 2))
        cov = Covariates.categorical(rng.integers(0, 3, n))

        def run():
            solve(x, cov, CostModel("sq_euclidean"), SolverConfig(lambda0=1.0, niter=1))

        assert peak_bytes(run) <= 2.2 * n**2 * 8

    @pytest.mark.parametrize("update,lambda0,niter,bound", [
        ("explicit", 1.0, 1, 2.05), ("explicit", "auto", 1, 2.17), ("implicit", "auto", 2, 2.25),
    ])
    def test_categorical_kde_solve_many_classes_peak_memory(self, update, lambda0, niter, bound,
                                                            rng):
        # K = N / 4 classes read a dense C^T, as a Sinkhorn coupling does: the
        # class form would hold and form O(K N d) doubles and take O(K N^2 d)
        # time.  A dense C^T read peaks at 2.045, 2.163 and 2.183 N^2 here:
        # the implicit step frees its weighted kernel before the candidate's
        # kernel is built, so the implicit solve holds one kernel beside C^T
        n = 600
        x = rng.standard_normal((n, 2))
        cov = Covariates.categorical(rng.permutation(np.arange(n) % (n // 4)))

        def run():
            solve(x, cov, CostModel("sq_euclidean"),
                  SolverConfig(update=update, lambda0=lambda0, niter=niter))

        assert peak_bytes(run) <= bound * n**2 * 8

    @pytest.mark.parametrize("update,lambda0,niter,bound", [
        ("explicit", 1.0, 1, 1.15), ("explicit", "auto", 1, 1.25), ("implicit", "auto", 2, 1.3),
    ])
    def test_categorical_kde_solve_holds_kernels_alone(self, update, lambda0, niter, bound, rng):
        # C^T in its class form: kernels are the solve's only N x N arrays, one
        # at a time in either update; the implicit step frees the accepted
        # points' weighted kernel, which its products read, before the
        # candidate's kernel is built (1.20 N^2 here, 2.15 while it was kept)
        n = 600
        x = rng.standard_normal((n, 2))
        cov = Covariates.categorical(rng.integers(0, 3, n))

        def run():
            solve(x, cov, CostModel("sq_euclidean"),
                  SolverConfig(update=update, lambda0=lambda0, niter=niter))

        assert peak_bytes(run) <= bound * n**2 * 8

    @pytest.mark.parametrize("problem,update,lambda0,niter,bound", [
        ("kde", "explicit", 1.0, 1, 2.1), ("kde", "explicit", "auto", 1, 2.25),
        ("kde", "implicit", "auto", 2, 2.25), ("features", "explicit", "auto", 2, 1.2),
        ("features", "implicit", "auto", 2, 1.2),
    ])
    def test_continuous_solve_holds_one_coupling_array(self, problem, update, lambda0, niter,
                                                       bound, rng):
        # a Sinkhorn coupling is scaled into Z in place and held as Z alone,
        # which kde turns into C^T in place: 2.045, 2.160 and 2.183 N^2 for
        # kde, 1.088 and 1.106 for features (3.00 and 2.03 while Z, C and a
        # copy of C^T were held)
        n = 600
        x = rng.standard_normal((n, 2))
        cov = Covariates.continuous(rng.standard_normal((n, 1)))

        def run():
            solve(x, cov, CostModel("sq_euclidean"),
                  SolverConfig(problem=problem, update=update, lambda0=lambda0, niter=niter))

        assert peak_bytes(run) <= bound * n**2 * 8

    def test_categorical_kde_distortion_implicit_solve_peak_memory(self, rng):
        # the distortion cost holds Z and its own N x N arrays beside the
        # kernel; its product's coefficient arrays, with the kde product's
        # weighted kernel, are freed before the candidate is scored: 7.10 N^2
        # here, 8.18 while the step's products were kept
        n = 600
        x = rng.standard_normal((n, 2))
        cov = Covariates.categorical(rng.integers(0, 3, n))

        def run():
            solve(x, cov, CostModel("distortion"), SolverConfig(update="implicit", niter=2))

        assert peak_bytes(run) <= 7.3 * n**2 * 8

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

    def test_non_finite_start_value_raises(self):
        # the degree-2 features of points near 1e200 overflow to inf, under
        # solve's own errstate: the NumericError is the contract, not a warning
        ds = gen_ellipses(seed=0, n_per_class=10)
        with pytest.raises(NumericError, match="^non-finite objective evaluation$"):
            solve(1e200 * ds.x, ds.covariates, CostModel("sq_euclidean"),
                  SolverConfig(problem="features"))

    def test_overflowing_candidates_rejected_whatever_the_warning_filters(self):
        # every candidate's features overflow to inf, which rejects it; with
        # numpy's warnings raised as errors the run still ends at its start
        ds = gen_ellipses(seed=0, n_per_class=10)
        run = lambda: solve(ds.x, ds.covariates, CostModel("sq_euclidean"),
                            SolverConfig(problem="features", eta0=1e200, niter=3, lambda0=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run()
        assert result.iterations == 0
        assert np.array_equal(result.y_final, ds.x)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run()
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_run_ends_when_no_halving_finds_a_step(self, monkeypatch):
        # every candidate's evaluation raises, so each try is rejected until
        # the halvings run out: the run stops at its starting points
        ds = gen_ellipses(seed=0, n_per_class=5)
        calls = 0

        def start_only(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls > 1:
                raise NumericError("non-finite objective evaluation")
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(solver, "evaluate", start_only)
        res = solve(ds.x, ds.covariates, CostModel("sq_euclidean"), SolverConfig(niter=5))
        assert res.iterations == 0 and not res.converged and len(res.history) == 0
        assert calls == 1 + solver._MAX_HALVINGS + 1
        assert np.array_equal(res.y_final, ds.x)

    def test_precondition_result_carries_provenance(self):
        ds = gen_ellipses(seed=4, n_per_class=20)
        cfg = SolverConfig(problem="features", feature_degree=1, niter=100, precondition=True)
        res = solve(ds.x, ds.covariates, CostModel("sq_euclidean"), cfg)
        assert res.precondition_shift is not None

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
        ("bandwidth_a", 0.0), ("bandwidth_a", None), ("bandwidth_a", True),
    ])
    def test_bad_auto_fields_rejected(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
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


def start_system(kind, rng, n=None, d=2):
    """``(hvp, grad)``: the constraint's product and gradient at random starting points.

    ``kind`` is "kde" (three classes), "kde-sinkhorn" (continuous
    covariates) or "features" (degree 2), bound as ``solve`` binds them.
    """
    n = n or int(rng.integers(8, 30))
    y = rng.standard_normal((n, d))
    if kind == "kde-sinkhorn":
        covariates = Covariates.continuous(rng.standard_normal((n, 1)))
    else:
        covariates = Covariates.categorical(np.arange(n) % 3)
    tf = monomial_features(d, 2) if kind == "features" else float(rng.uniform(0.5, 2.0))
    constraint = constraint_function(build_couplings(covariates), tf)
    ev = evaluate(cost_function(CostModel("sq_euclidean"), y), constraint, y)
    return ev.hvp_constraint, ev.grad_constraint


def spectral_radius(hvp, shape):
    """|lambda|max of the product by scipy's ``eigsh``, to 1e-13."""
    m, apply = int(np.prod(shape)), operator_of(hvp)
    A = LinearOperator((m, m), matvec=lambda u: apply(u.reshape(shape)).ravel(), dtype=float)
    return abs(eigsh(A, k=1, which="LM", tol=1e-13)[0][0])


class TestAutoLambda0:
    @pytest.mark.parametrize("kind", ["kde", "kde-sinkhorn", "features"])
    def test_within_one_percent_of_eigsh(self, kind, rng):
        for _ in range(4):
            hvp, grad = start_system(kind, rng)
            radius = 1.0 / solver._auto_lambda0(hvp, grad, 1e6, 0)
            assert rel_err(radius, spectral_radius(hvp, grad.shape)) <= 1e-2

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (1, 4)])
    def test_tiny_system_breaks_down_at_the_exact_radius(self, n, d, rng, monkeypatch):
        # a Krylov space of at most n d <= 4 vectors is exhausted before the
        # first reading: the breakdown returns T_k's exact eigenvalues
        A = rng.standard_normal((n * d, n * d))
        H = (A + A.T) / 2.0
        hvp = remainder_hvp(lambda v: (H @ v.ravel()).reshape(v.shape), n, d)
        products = count_operators(monkeypatch)[2]
        grad = rng.standard_normal((n, d))
        radius = 1.0 / solver._auto_lambda0(hvp, grad, 1e6, 0)
        assert len(products) <= n * d
        assert rel_err(radius, np.abs(np.linalg.eigvalsh(H)).max()) <= 1e-12

    @pytest.mark.parametrize("kind,n,d", [("kde", 3, 1), ("kde", 4, 1), ("features", 4, 1),
                                          ("features", 2, 2)])
    def test_tiny_solver_system_is_exact(self, kind, n, d, rng, monkeypatch):
        # the solver's own product, on points in general position: two points
        # in the plane are not, as kde's gradient there is blind to the
        # pair's rotation
        y = rng.standard_normal((n, d))
        constraint = constraint_function(
            build_couplings(Covariates.categorical(np.arange(n) % 2)),
            1.0 if kind == "kde" else monomial_features(d, 2))
        ev = evaluate(cost_function(CostModel("sq_euclidean"), y), constraint, y)
        H = operator_matrix(ev.hvp_constraint, n, d).reshape(n * d, n * d)
        products = count_operators(monkeypatch)[2]
        radius = 1.0 / solver._auto_lambda0(ev.hvp_constraint, ev.grad_constraint, 1e6, 0)
        assert len(products) <= n * d
        assert rel_err(radius, np.abs(np.linalg.eigvalsh(H)).max()) <= 1e-12

    def test_zero_gradient_starts_from_the_seeded_vector(self, rng, monkeypatch):
        hvp, grad = start_system("kde", rng)
        seeds = count_calls(monkeypatch, np.random, "default_rng")
        radius = 1.0 / solver._auto_lambda0(hvp, np.zeros_like(grad), 1e6, 7)
        assert seeds == [(7,)]
        assert rel_err(radius, spectral_radius(hvp, grad.shape)) <= 1e-2

    def test_one_class_takes_the_seeded_fallback(self, rng, monkeypatch):
        # C = 0: the start gradient is zero and the product flat
        seeds = count_calls(monkeypatch, np.random, "default_rng")
        x = rng.standard_normal((10, 2))
        res = solve(x, Covariates.categorical(np.zeros(10, dtype=int)),
                    CostModel("sq_euclidean"), SolverConfig(seed=5, niter=1))
        assert seeds == [(5,)]
        assert res.lambda0 == 1.0

    @pytest.mark.parametrize("kind", ["kde", "kde-sinkhorn", "features"])
    def test_products_within_fifty(self, kind, rng, monkeypatch):
        products = count_operators(monkeypatch)[2]
        for _ in range(4):
            hvp, grad = start_system(kind, rng, n=int(rng.integers(20, 60)))
            products.clear()
            solver._auto_lambda0(hvp, grad, 1e6, 0)
            assert 4 <= len(products) <= 50

    def test_products_capped_at_fifty(self, rng, monkeypatch):
        monkeypatch.setattr(solver, "_LANCZOS_RTOL", 0.0)  # never settles
        monkeypatch.setattr(solver, "_LANCZOS_SEMI_ORTH", 0.0)  # never loses orthogonality
        A = rng.standard_normal((120, 120))
        H = (A + A.T) / 2.0  # no breakdown in 50 products
        hvp = remainder_hvp(lambda v: (H @ v.ravel()).reshape(v.shape), 60, 2)
        products = count_operators(monkeypatch)[2]
        radius = 1.0 / solver._auto_lambda0(hvp, rng.standard_normal((60, 2)), 1e6, 0)
        assert len(products) == 50
        assert radius <= np.abs(np.linalg.eigvalsh(H)).max() * (1 + 1e-12)  # a Ritz value

    @pytest.mark.parametrize("n_per_class", [5, 20, 50])
    @pytest.mark.parametrize("problem,bound", [("kde", 50), ("features", 10)])
    def test_solve_sets_up_lambda0_within_bound(self, problem, bound, n_per_class, monkeypatch):
        # an explicit solve forms no operator but lambda0's
        products = count_operators(monkeypatch)[2]
        for seed in range(4):
            products.clear()
            ds = gen_ellipses(seed=seed, n_per_class=n_per_class)
            solve(ds.x, ds.covariates, CostModel("sq_euclidean"),
                  SolverConfig(problem=problem, niter=1))
            assert 4 <= len(products) <= bound


# Equivariance properties of short solves with automatic lambda0 (N <= 39,
# at most 30 iterations).  A fixed lambda0 holds kde to 3e-15, so 1e-9 on y
# is fair; lambda0 itself moves only in rounding.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)
FAMILIES = ["sq_euclidean", "p_norm", "geodesic_sphere", "distortion"]


def property_data(seed, n_per_class, family, coupling):
    """Points for ``family`` (sphere patches for the geodesic cost, else ellipses) and covariates.

    The covariates are the class labels, or for a Sinkhorn ``coupling`` one
    standard normal value per point.
    """
    ds = (gen_sphere_patches if family == "geodesic_sphere" else gen_ellipses)(
        seed=seed, n_per_class=n_per_class)
    if coupling == "categorical":
        return ds.x, ds.covariates.labels
    return ds.x, np.random.default_rng(seed).standard_normal((len(ds.x), 1))


def property_solve(x, z, problem, niter, eta0, family="sq_euclidean", update="explicit"):
    covariates = Covariates.categorical(z) if z.ndim == 1 else Covariates.continuous(z)
    model = CostModel("p_norm", p=1.5) if family == "p_norm" else CostModel(family)
    return solve(x, covariates, model,
                 SolverConfig(problem=problem, update=update, niter=niter, eta0=eta0))


def assert_equivariant(moved, result, y_expected):
    assert rel_err(moved.lambda0, result.lambda0) <= 1e-12
    assert np.abs(moved.y_final - y_expected).max() <= 1e-9 * np.abs(y_expected).max()


def every_case(test):
    """``test`` with one example for each cost family, problem, update and coupling."""
    for family, problem, update, coupling in itertools.product(
            FAMILIES, ["kde", "features"], ["explicit", "implicit"], ["categorical", "sinkhorn"]):
        eta0 = 0.1 if amplifies_rounding(family, update, eta0=1.0) else 1.0
        test = example(seed=0, n_per_class=10, problem=problem, niter=30, eta0=eta0,
                       family=family, update=update, coupling=coupling)(test)
    return test


def amplifies_rounding(family, update, eta0):
    """Whether explicit distortion steps from ``eta0`` may amplify rounding past 1e-9 in 30 steps.

    Such steps can pass the cost's stability limit while the descent check
    still accepts them; ``test_permutation_explicit_distortion`` shows it.
    """
    return family == "distortion" and update == "explicit" and eta0 >= 1.0


class TestEquivariance:
    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n_per_class=st.integers(2, 13),
           problem=st.sampled_from(["kde", "features"]), niter=st.integers(1, 30),
           eta0=st.sampled_from([0.1, 1.0, 5.0]), family=st.sampled_from(FAMILIES),
           update=st.sampled_from(["explicit", "implicit"]),
           coupling=st.sampled_from(["categorical", "sinkhorn"]))
    @every_case
    def test_permutation(self, seed, n_per_class, problem, niter, eta0, family, update, coupling):
        assume(not amplifies_rounding(family, update, eta0))
        x, z = property_data(seed, n_per_class, family, coupling)
        order = np.random.default_rng(seed).permutation(len(x))
        result = property_solve(x, z, problem, niter, eta0, family, update)
        moved = property_solve(x[order], z[order], problem, niter, eta0, family, update)
        assert_equivariant(moved, result, result.y_final[order])

    @pytest.mark.xfail(strict=True, reason=(
        "explicit distortion steps of eta >= 1 pass the cost's stability limit and "
        "amplify rounding about tenfold every two iterations (ROADMAP items 4 and 9)"))
    @pytest.mark.parametrize("problem", ["kde", "features"])
    def test_permutation_explicit_distortion(self, problem):
        x, labels = property_data(0, 10, "distortion", "categorical")
        order = np.random.default_rng(0).permutation(len(x))
        result = property_solve(x, labels, problem, 30, 1.0, "distortion")
        moved = property_solve(x[order], labels[order], problem, 30, 1.0, "distortion")
        assert_equivariant(moved, result, result.y_final[order])

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n_per_class=st.integers(2, 13),
           family=st.sampled_from(["sq_euclidean", "p_norm", "distortion"]),
           niter=st.integers(1, 30), eta0=st.sampled_from([0.1, 1.0, 5.0]))
    def test_translation_kde(self, seed, n_per_class, family, niter, eta0):
        x, labels = property_data(seed, n_per_class, family, "categorical")
        shift = np.array([5.0, -3.0])
        result = property_solve(x, labels, "kde", niter, eta0, family)
        moved = property_solve(x + shift, labels, "kde", niter, eta0, family)
        assert_equivariant(moved, result, result.y_final + shift)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 8: features weigh the raw monomials of y, so the penalty "
        "depends on the origin"))
    def test_translation_features(self):
        x, labels = property_data(0, 10, "sq_euclidean", "categorical")
        shift = np.array([5.0, -3.0])
        result = property_solve(x, labels, "features", 30, 1.0)
        moved = property_solve(x + shift, labels, "features", 30, 1.0)
        assert_equivariant(moved, result, result.y_final + shift)

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n_per_class=st.integers(2, 13),
           family=st.sampled_from(["sq_euclidean", "distortion"]),
           angle=st.floats(-np.pi, np.pi), niter=st.integers(1, 30),
           eta0=st.sampled_from([0.1, 1.0, 5.0]))
    def test_rotation_kde(self, seed, n_per_class, family, angle, niter, eta0):
        # not p-norm: that cost is coordinate-wise
        x, labels = property_data(seed, n_per_class, family, "categorical")
        R = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        result = property_solve(x, labels, "kde", niter, eta0, family)
        moved = property_solve(x @ R.T, labels, "kde", niter, eta0, family)
        assert_equivariant(moved, result, result.y_final @ R.T)


def class_mean_spread(points, labels):
    """Largest distance between two class means."""
    means = np.stack([points[labels == k].mean(axis=0) for k in np.unique(labels)])
    return max(np.linalg.norm(a - b) for a in means for b in means)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 15: kde's (2 pi a^2)^(-d/2) scale puts L_F below tol_lf at d = 32, "
    "so the solve stops at once with y = x"))
def test_kde_moves_class_means_together_in_32_dimensions():
    # three classes N(2k e_1, I) in d = 32, 20 points each
    rng = np.random.default_rng(0)
    labels = np.repeat([0, 1, 2], 20)
    x = rng.standard_normal((60, 32))
    x[:, 0] += 2.0 * labels
    result = solve(x, Covariates.categorical(labels), CostModel("sq_euclidean"),
                   SolverConfig(niter=100))
    assert not (result.converged and result.iterations == 1)
    assert class_mean_spread(result.y_final, labels) < 0.5 * class_mean_spread(x, labels)
