import numpy as np
import pytest

from baryflow.costs import CostModel, cost_function, pair_outer_operator, parse_cost_spec
from baryflow.couplings import categorical_coupling
from baryflow.errors import InvalidInputError

from conftest import (
    assert_symmetric,
    central_diff_grad,
    central_diff_jacobian,
    direct_pair_outer,
    operator_matrix,
    product_peak_bytes,
    rel_err,
)

ALL_FAMILIES = ["sq_euclidean", "p_norm", "geodesic_sphere", "distortion"]


def make_instance(family, rng, n=6):
    """Random (model, x, y, Z) with inputs valid for the family."""
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
        Z = categorical_coupling(rng.integers(0, 2, n))
        return CostModel("distortion"), x, y, Z
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


class TestCostModel:
    @pytest.mark.parametrize("family,field,value", [
        ("p_norm", "p", "2"), ("p_norm", "p", True), ("p_norm", "p", None),
        ("p_norm", "p", float("nan")), ("p_norm", "eps_abs", True), ("p_norm", "eps_abs", 0.0),
        ("distortion", "omega", None), ("distortion", "omega", True),
        ("distortion", "omega", float("inf")), ("distortion", "eps_dist", "0.01"),
        ("distortion", "eps_dist", -1.0),
    ])
    def test_non_numbers_rejected(self, family, field, value):
        with pytest.raises(InvalidInputError, match=f"{field} must be a positive finite number"):
            CostModel(family, **{field: value})

    @pytest.mark.parametrize("p", [0.5, np.float32(0.99)])
    def test_p_below_one_rejected(self, p):
        with pytest.raises(InvalidInputError, match="p must be >= 1"):
            CostModel("p_norm", p=p)


class TestCostValue:
    def test_identity_map_pairwise(self, rng):
        for family in ("sq_euclidean", "p_norm", "geodesic_sphere"):
            model, x, _, Z = make_instance(family, rng)
            assert cost_function(model, x, Z)(x)[0] == pytest.approx(0.0, abs=1e-12)

    def test_identity_map_distortion_near_zero(self, rng):
        model, x, _, Z = make_instance("distortion", rng)
        sq = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
        min_sq = sq[~np.eye(len(x), dtype=bool)].min()
        # ratio term at y = x is bounded by 2*eps^2 / min ||x_i - x_j||^2
        assert cost_function(model, x, Z)(x)[0] <= 2 * model.eps_dist**2 / min_sq

    def test_sq_euclidean_single_point(self):
        assert cost_function(CostModel("sq_euclidean"), [[0.0, 0.0]])([[3.0, 4.0]])[0] == pytest.approx(12.5)

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

    def test_p_norm_against_scalar_oracle(self, rng):
        # independent per-coordinate loop with the smoothed absolute value
        p, eps = 1.2, 0.01
        model = CostModel("p_norm", p=p, eps_abs=eps)
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
            model, x, y, Z = make_instance(family, rng)
            assert cost_function(model, x, Z)(y)[0] >= 0.0

    def test_distortion_translation_invariance_of_ratio_term(self, rng):
        model, x, y, Z = make_instance("distortion", rng)
        shift = np.array([3.7, -1.2])
        base = cost_function(model, x, Z)(y)[0]
        anchor = model.omega * np.mean(np.sum((y - x) ** 2, axis=1))
        shifted = cost_function(model, x + shift, Z)(y + shift)[0]
        anchor_shifted = model.omega * np.mean(np.sum((y - x) ** 2, axis=1))
        assert base - anchor == pytest.approx(shifted - anchor_shifted, abs=1e-12)

    def test_z_required_iff_pairing(self, rng):
        model, x, y, _ = make_instance("distortion", rng)
        with pytest.raises(InvalidInputError):
            cost_function(model, x)
        with pytest.raises(InvalidInputError, match="N x N"):
            cost_function(model, x, np.eye(len(x) + 1))

    def test_latitude_range_enforced(self):
        model = CostModel("geodesic_sphere")
        x = np.array([[0.0, 2.0], [1.0, 0.0]])
        with pytest.raises(InvalidInputError, match="latitude"):
            cost_function(model, x)  # checked once, at binding
        parts = cost_function(model, np.zeros((2, 2)))
        with pytest.raises(InvalidInputError, match="latitude"):
            parts(x)  # and on every call, as a step can pass a pole

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            cost_function(CostModel("sq_euclidean"), [[np.inf, 0.0]])


class TestCostGrad:
    def test_sq_euclidean_closed_form(self, rng):
        model, x, y, _ = make_instance("sq_euclidean", rng)
        assert np.allclose(cost_function(model, x)(y)[1](), (y - x) / len(x))

    def test_zero_at_identity(self, rng):
        model, x, _, _ = make_instance("sq_euclidean", rng)
        assert np.allclose(cost_function(model, x)(x)[1](), 0.0)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_matches_finite_differences(self, family, rng):
        model, x, y, Z = make_instance(family, rng)
        analytic = cost_function(model, x, Z)(y)[1]()
        fd = central_diff_grad(lambda yy: cost_function(model, x, Z)(yy)[0], y)
        assert rel_err(analytic, fd) <= 1e-5


def cost_hessian(model, x, y, Z=None):
    """The cost's Hessian as (N, d, N, d), assembled from its Hessian-vector product."""
    hvp = cost_function(model, x, Z)(y, want_hvp=True)[2]
    return operator_matrix(hvp, *y.shape)


class TestCostHessian:
    def test_sq_euclidean_blocks(self, rng):
        model, x, y, _ = make_instance("sq_euclidean", rng)
        n = len(x)
        assert np.allclose(cost_hessian(model, x, y).reshape(2 * n, 2 * n), np.eye(2 * n) / n)

    def test_p2_small_eps_limit(self, rng):
        model = CostModel("p_norm", p=2.0, eps_abs=1e-12)
        x = rng.standard_normal((5, 2))
        y = x + rng.standard_normal((5, 2))
        H = cost_hessian(model, x, y).reshape(10, 10)
        assert np.allclose(H, 2 * np.eye(10) / 5, atol=1e-6)

    def test_no_hvp_unless_requested(self, rng):
        for family in ALL_FAMILIES:
            model, x, y, Z = make_instance(family, rng)
            assert cost_function(model, x, Z)(y)[2] is None

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_matches_finite_differences_of_grad(self, family, rng):
        model, x, y, Z = make_instance(family, rng, n=4)
        analytic = cost_hessian(model, x, y, Z)
        fd = central_diff_jacobian(lambda yy: cost_function(model, x, Z)(yy)[1](), y)
        assert rel_err(analytic, fd) <= 1e-4

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_hvp_symmetric(self, family, rng):
        model, x, y, Z = make_instance(family, rng, n=7)
        assert_symmetric(cost_function(model, x, Z)(y, want_hvp=True)[2], rng, *y.shape)

    def test_distortion_product_allocates_no_n_by_n_array(self, rng):
        model, x, y, Z = make_instance("distortion", rng, n=400)
        hvp = cost_function(model, x, Z)(y, want_hvp=True)[2]
        assert product_peak_bytes(hvp, rng.standard_normal(y.shape)) < 400**2 * 8 / 4


class TestPairOuterOperator:
    @pytest.mark.parametrize("moved", [False, True], ids=["c=y", "c!=y"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_direct_sum(self, d, moved, rng):
        for _ in range(10):
            n = int(rng.integers(2, 41))
            A = rng.standard_normal((n, n))  # not symmetric
            y = rng.standard_normal((n, d)) + rng.uniform(-100.0, 100.0, d)
            c = y + rng.standard_normal((n, d)) if moved else y
            v = rng.standard_normal((n, d))
            pair, Av = pair_outer_operator(A, y, c)(v)
            assert rel_err(pair, direct_pair_outer(A, y, c, v)) <= 1e-12
            assert rel_err(Av, A @ v) <= 1e-12
