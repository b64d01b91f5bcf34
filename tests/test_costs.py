import dataclasses

import numpy as np
import pytest

from baryflow import costs, solver
from baryflow.costs import CostModel, cost_function, pair_outer_operator, parse_cost_spec
from baryflow.couplings import Covariates
from baryflow.errors import InvalidInputError
from baryflow.solver import SolverConfig, solve

from conftest import (
    assert_symmetric,
    categorical_coupling,
    central_diff_grad,
    central_diff_jacobian,
    count_product_setups,
    dense_coupling,
    direct_pair_outer,
    distortion_hvp_reference,
    operator_matrix,
    pairwise_hessian_reference,
    product_peak_bytes,
    rel_err,
)

ALL_FAMILIES = ["sq_euclidean", "p_norm", "geodesic_sphere", "distortion"]
KNOWN_SPECS = "expected l2, pnorm:<p>, geodesic-sphere or distortion:<omega>"


def make_instance(family, rng, n=6):
    """Random (model, x, y, coupling) valid for the family; only distortion has a coupling."""
    if family == "geodesic_sphere":
        x = np.column_stack([rng.uniform(0, 2 * np.pi, n), rng.uniform(-1.2, 1.2, n)])
        y = x + 0.2 * rng.standard_normal((n, 2))
        y[:, 1] = np.clip(y[:, 1], -1.5, 1.5)
        return CostModel("geodesic_sphere"), x, y, None
    x = rng.standard_normal((n, 2))
    y = x + 0.4 * rng.standard_normal((n, 2))
    if family == "p_norm":
        return CostModel("p_norm", p=1.7), x, y, None
    if family == "distortion":
        coupling = dense_coupling(categorical_coupling(rng.integers(0, 2, n)))
        return CostModel("distortion"), x, y, coupling
    return CostModel("sq_euclidean"), x, y, None


class TestParseCostSpec:
    def test_known_specs(self):
        assert parse_cost_spec("l2").family == "sq_euclidean"
        assert parse_cost_spec("pnorm:1.5").p == 1.5
        assert parse_cost_spec("geodesic-sphere").family == "geodesic_sphere"
        assert parse_cost_spec("distortion:0.05").omega == 0.05

    def test_bad_specs(self):
        for text in ("l3", "pnorm:x", "pnorm:0.5", "distortion:-1"):
            with pytest.raises(InvalidInputError):
                parse_cost_spec(text)

    @pytest.mark.parametrize("text,message", [
        ("pnorm:x", "bad p-norm exponent in 'pnorm:x'"),
        ("distortion:", "bad distortion weight in 'distortion:'"),
        ("distortion:1:2", "bad distortion weight in 'distortion:1:2'"),
        ("pnorm:0.5", "p must be >= 1"),
        ("distortion:-1", "omega must be a positive finite number"),
        ("pnorm", f"unknown cost 'pnorm'; {KNOWN_SPECS}"),
        ("l2:3", f"unknown cost 'l2:3'; {KNOWN_SPECS}"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(InvalidInputError) as err:
            parse_cost_spec(text)
        assert str(err.value) == message


class TestCostModel:
    @pytest.mark.parametrize("family,field,value", [
        ("p_norm", "p", "2"), ("p_norm", "p", True), ("p_norm", "p", None),
        ("p_norm", "p", float("nan")),
        ("distortion", "omega", None), ("distortion", "omega", True),
        ("distortion", "omega", float("inf")),
    ])
    def test_non_numbers_rejected(self, family, field, value):
        with pytest.raises(InvalidInputError, match=f"{field} must be a positive finite number"):
            CostModel(family, **{field: value})

    def test_only_family_p_and_omega_are_set(self):
        # the smoothing constants are the module's, not the caller's
        assert [f.name for f in dataclasses.fields(CostModel)] == ["family", "p", "omega"]
        with pytest.raises(TypeError):
            CostModel("p_norm", eps_abs=0.01)

    @pytest.mark.parametrize("p", [0.5, np.float32(0.99)])
    def test_p_below_one_rejected(self, p):
        with pytest.raises(InvalidInputError, match="p must be >= 1"):
            CostModel("p_norm", p=p)


class TestCostValue:
    def test_identity_map_pairwise(self, rng):
        for family in ("sq_euclidean", "p_norm", "geodesic_sphere"):
            model, x, _, coupling = make_instance(family, rng)
            assert cost_function(model, x, coupling)(x)[0] == pytest.approx(0.0, abs=1e-12)

    def test_identity_map_distortion_near_zero(self, rng):
        model, x, _, coupling = make_instance("distortion", rng)
        sq = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
        min_sq = sq[~np.eye(len(x), dtype=bool)].min()
        # ratio term at y = x is bounded by 2*eps^2 / min ||x_i - x_j||^2
        assert cost_function(model, x, coupling)(x)[0] <= 2 * costs._EPS_DIST**2 / min_sq

    def test_sq_euclidean_single_point(self):
        x, y = np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])
        assert cost_function(CostModel("sq_euclidean"), x)(y)[0] == pytest.approx(12.5)

    def test_geodesic_antipodal(self):
        # the arcsin argument is clamped at 1 - 1e-12, shaving ~1.3e-5 off pi^2
        x = np.array([[0.0, 0.0]])
        y = np.array([[np.pi, 0.0]])
        assert cost_function(CostModel("geodesic_sphere"), x)(y)[0] == pytest.approx(np.pi**2, abs=1e-4)
        # gradient is defined as zero at exact antipodes
        assert np.allclose(cost_function(CostModel("geodesic_sphere"), x)(y)[1](), 0.0)

    def test_geodesic_symmetric(self, rng):
        model, x, y, _ = make_instance("geodesic_sphere", rng)
        assert cost_function(model, x)(y)[0] == pytest.approx(cost_function(model, y)(x)[0], rel=1e-12)

    def test_p_norm_against_scalar_oracle(self, rng, monkeypatch):
        # independent per-coordinate loop with the smoothed absolute value
        p, eps = 1.2, 0.02
        monkeypatch.setattr(costs, "_EPS_ABS", eps)
        model = CostModel("p_norm", p=p)
        x = rng.standard_normal((8, 1))
        y = rng.standard_normal((8, 1))
        total = 0.0
        for xi, yi in zip(x[:, 0], y[:, 0]):
            t = xi - yi
            s = np.sqrt(t * t + eps) - np.sqrt(eps)
            total += s**p
        assert cost_function(model, x)(y)[0] == pytest.approx(total / 8, abs=1e-12)

    def test_nonnegative_all_families(self, rng):
        for family in ALL_FAMILIES:
            model, x, y, coupling = make_instance(family, rng)
            assert cost_function(model, x, coupling)(y)[0] >= 0.0

    def test_distortion_translation_invariance_of_ratio_term(self, rng):
        model, x, y, coupling = make_instance("distortion", rng)
        shift = np.array([3.7, -1.2])
        base = cost_function(model, x, coupling)(y)[0]
        anchor = model.omega * np.mean(np.sum((y - x) ** 2, axis=1))
        shifted = cost_function(model, x + shift, coupling)(y + shift)[0]
        anchor_shifted = model.omega * np.mean(np.sum((y - x) ** 2, axis=1))
        assert base - anchor == pytest.approx(shifted - anchor_shifted, abs=1e-12)

    def test_z_required_iff_pairing(self, rng, monkeypatch):
        # only distortion reads the coupling; solve checks its N before any cost is bound
        for family in ALL_FAMILIES[:3]:
            model, x, y, _ = make_instance(family, rng)
            paired = cost_function(model, x, dense_coupling(np.eye(len(x) + 1)))(y)[0]
            assert paired == cost_function(model, x)(y)[0]
        bound = []
        monkeypatch.setattr(solver, "cost_function", lambda *args: bound.append(args))
        model, x, _, _ = make_instance("distortion", rng)
        with pytest.raises(InvalidInputError, match="disagree on N"):
            solve(x, Covariates.categorical(np.arange(len(x) + 1) % 2), model, SolverConfig(niter=1))
        assert bound == []

    def test_shift_moves_only_the_squared_euclidean_origin(self, rng):
        shift = np.array([0.3, -1.1])
        for family in ALL_FAMILIES:
            model, x, y, coupling = make_instance(family, rng)
            origin = x + shift if family == "sq_euclidean" else x
            shifted = cost_function(model, x, coupling, shift)(y)[0]
            assert shifted == cost_function(model, origin, coupling)(y)[0]

    def test_latitude_range_enforced(self):
        model = CostModel("geodesic_sphere")
        x = np.array([[0.0, 2.0], [1.0, 0.0]])
        with pytest.raises(InvalidInputError, match="latitude"):
            cost_function(model, x)  # checked once, at binding
        parts = cost_function(model, np.zeros((2, 2)))
        with pytest.raises(InvalidInputError, match="latitude"):
            parts(x)  # and on every call, as a step can pass a pole

    def test_non_finite_rejected(self, rng, monkeypatch):
        # cost_function takes x as solve checked it: finite, for every family
        bound = []
        monkeypatch.setattr(solver, "cost_function", lambda *args: bound.append(args))
        for family in ALL_FAMILIES:
            model, x, _, _ = make_instance(family, rng)
            x[1, 0] = np.inf
            with pytest.raises(InvalidInputError, match="finite"):
                solve(x, Covariates.categorical(np.arange(len(x)) % 2), model, SolverConfig(niter=1))
        assert bound == []


class TestCostGrad:
    def test_sq_euclidean_closed_form(self, rng):
        model, x, y, _ = make_instance("sq_euclidean", rng)
        assert np.allclose(cost_function(model, x)(y)[1](), (y - x) / len(x))

    def test_zero_at_identity(self, rng):
        model, x, _, _ = make_instance("sq_euclidean", rng)
        assert np.allclose(cost_function(model, x)(x)[1](), 0.0)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_matches_finite_differences(self, family, rng):
        model, x, y, coupling = make_instance(family, rng)
        analytic = cost_function(model, x, coupling)(y)[1]()
        fd = central_diff_grad(lambda yy: cost_function(model, x, coupling)(yy)[0], y)
        assert rel_err(analytic, fd) <= 1e-5


def cost_hessian(model, x, y, coupling=None):
    """The cost's Hessian as (N, d, N, d), assembled from its Hessian-vector product."""
    hvp = cost_function(model, x, coupling)(y)[2]
    return operator_matrix(hvp, *y.shape)


class TestCostHessian:
    def test_sq_euclidean_blocks(self, rng):
        model, x, y, _ = make_instance("sq_euclidean", rng)
        n = len(x)
        assert np.allclose(cost_hessian(model, x, y).reshape(2 * n, 2 * n), np.eye(2 * n) / n)

    def test_p2_small_eps_limit(self, rng, monkeypatch):
        monkeypatch.setattr(costs, "_EPS_ABS", 1e-12)
        model = CostModel("p_norm", p=2.0)
        x = rng.standard_normal((5, 2))
        y = x + rng.standard_normal((5, 2))
        H = cost_hessian(model, x, y).reshape(10, 10)
        assert np.allclose(H, 2 * np.eye(10) / 5, atol=1e-6)

    def test_product_set_up_only_when_read(self, rng, monkeypatch):
        # the value and the gradient set up no product; its first read sets up one
        setups, operators = count_product_setups(monkeypatch)
        for family in ALL_FAMILIES:
            model, x, y, coupling = make_instance(family, rng)
            _, grad, hvp = cost_function(model, x, coupling)(y)
            grad()
            assert (setups, operators) == ([], [])
            hvp.operator()(rng.standard_normal(y.shape))
            assert (len(setups), len(operators)) == (1, 1)
            setups.clear()
            operators.clear()

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_matches_finite_differences_of_grad(self, family, rng):
        model, x, y, coupling = make_instance(family, rng, n=4)
        analytic = cost_hessian(model, x, y, coupling)
        fd = central_diff_jacobian(lambda yy: cost_function(model, x, coupling)(yy)[1](), y)
        assert rel_err(analytic, fd) <= 1e-4

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_hvp_symmetric(self, family, rng):
        model, x, y, coupling = make_instance(family, rng, n=7)
        assert_symmetric(cost_function(model, x, coupling)(y)[2], rng, *y.shape)

    @pytest.mark.parametrize("family,d", [(f, d) for f in ALL_FAMILIES if f != "geodesic_sphere"
                                          for d in (1, 2, 3)] + [("geodesic_sphere", 2)])
    def test_block_form_matches_reference(self, family, d, rng):
        # the blocks plus the remainder against the product from its direct terms
        for _ in range(5):
            model, x, y, coupling = make_instance(family, rng, n=int(rng.integers(2, 30)))
            if family != "geodesic_sphere":
                x = rng.standard_normal((len(x), d)) + rng.uniform(-50.0, 50.0, d)
                y = x + 0.4 * rng.standard_normal(x.shape)
            v = rng.standard_normal(y.shape)
            hvp = cost_function(model, x, coupling)(y)[2]
            if family == "distortion":
                expected = distortion_hvp_reference(model, x, y, coupling.Z())(v)
            else:
                expected = np.einsum("iab,ib->ia", pairwise_hessian_reference(model, x, y), v)
            assert rel_err(hvp.operator()(v), expected) <= 1e-12

    def test_distortion_product_allocates_no_n_by_n_array(self, rng):
        model, x, y, coupling = make_instance("distortion", rng, n=400)
        hvp = cost_function(model, x, coupling)(y)[2]
        assert product_peak_bytes(hvp, rng.standard_normal(y.shape)) < 400**2 * 8 / 4


def pair_products(A, y, v):
    """The pair term B v + S (A T v) of ``pair_outer_operator``, and A v read through S."""
    B, S, rest = pair_outer_operator(A, y)
    pair = np.einsum("jab,jb->ja", B, v) + rest(1.0)(v)
    d = y.shape[1]
    S[...] = 0.0
    S[:, np.arange(d), np.arange(d) * (d + 1) + d] = 1.0
    return pair, rest(1.0)(v)


class TestPairOuterOperator:
    @pytest.mark.parametrize("d", [1, 2, 3], ids=lambda d: f"{d}-c=y")  # centers c at the points
    def test_matches_direct_sum(self, d, rng):
        for _ in range(10):
            n = int(rng.integers(2, 41))
            A = rng.standard_normal((n, n))  # not symmetric
            y = rng.standard_normal((n, d)) + rng.uniform(-100.0, 100.0, d)
            v = rng.standard_normal((n, d))
            pair, Av = pair_products(A, y, v)
            assert rel_err(pair, direct_pair_outer(A, y, v)) <= 1e-12
            assert rel_err(Av, A @ v) <= 1e-12
