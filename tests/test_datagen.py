import numpy as np
import pytest

from baryflow.couplings import Covariates
from baryflow.datagen import (
    cart2sph,
    cross_product_matrix,
    gen_ellipses,
    gen_hidden_signal,
    gen_sphere_patches,
    lagged_dataset,
    reflection_matrix,
    sph2cart,
)
from baryflow.errors import InvalidInputError


def great_circle(u, v):
    # chord-based form, stable for small separations
    chord = np.linalg.norm(u - v, axis=-1)
    return 2.0 * np.arcsin(np.clip(0.5 * chord, -1.0, 1.0))


class TestSphericalCoords:
    def test_equator_origin(self):
        assert np.allclose(sph2cart(1.0, 0.0, 0.0), [1.0, 0.0, 0.0])

    def test_north_pole(self):
        assert np.allclose(sph2cart(1.0, np.pi / 2, 1.234), [0.0, 0.0, 1.0], atol=1e-15)

    def test_round_trip(self, rng):
        phi = rng.uniform(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3, 200)
        theta = rng.uniform(0, 2 * np.pi, 200)
        r, phi2, theta2 = cart2sph(sph2cart(1.0, phi, theta))
        assert np.abs(r - 1).max() <= 1e-12
        assert np.abs(phi2 - phi).max() <= 1e-12
        assert np.abs(theta2 - theta).max() <= 1e-12

    def test_origin_rejected(self):
        with pytest.raises(InvalidInputError):
            cart2sph(np.zeros(3))


class TestReflection:
    def test_cross_product_matrix(self, rng):
        u, v = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(cross_product_matrix(u) @ v, np.cross(u, v))

    def test_reflection_fixes_axis_and_preserves_norm(self, rng):
        for _ in range(10):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            R = reflection_matrix(u)
            assert np.allclose(R @ u, u, atol=1e-12)
            w = rng.normal(size=3)
            w /= np.linalg.norm(w)
            assert np.linalg.norm(R @ w) == pytest.approx(1.0, abs=1e-12)
            # involution: reflecting twice is the identity
            assert np.allclose(R @ R, np.eye(3), atol=1e-12)

    def test_reflection_equals_householder_form(self, rng):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        assert np.allclose(reflection_matrix(u), 2.0 * np.outer(u, u) - np.eye(3))


class TestEllipses:
    def test_counts_and_labels(self):
        ds = gen_ellipses(seed=3, n_per_class=100)
        assert ds.x.shape == (300, 2)
        labels = np.asarray(ds.covariates.labels)
        assert [int((labels == z).sum()) for z in (0, 1, 2)] == [100, 100, 100]

    def test_axis_ratio(self):
        # fitted extent ratio approximates 3:1 (axis ratio of eccentricity 2*sqrt(2)/3)
        ds = gen_ellipses(seed=0, n_per_class=4000)
        labels = np.asarray(ds.covariates.labels)
        for z, vertical in ((0, True), (1, False), (2, False)):
            pts = ds.x[labels == z]
            spread = pts.std(axis=0)
            ratio = spread[1] / spread[0] if vertical else spread[0] / spread[1]
            assert ratio == pytest.approx(3.0, rel=0.1)

    def test_deterministic(self):
        a = gen_ellipses(seed=9)
        b = gen_ellipses(seed=9)
        assert np.array_equal(a.x, b.x)

    def test_points_inside_their_ellipses(self):
        ds = gen_ellipses(seed=1, n_per_class=200)
        labels = np.asarray(ds.covariates.labels)
        centers = {0: (0.0, 3.0), 1: (-2.0, 0.0), 2: (2.0, 0.0)}
        for z, c in centers.items():
            pts = ds.x[labels == z] - c
            a, b = (0.5, 1.5) if z == 0 else (1.5, 0.5)
            assert np.all((pts[:, 0] / a) ** 2 + (pts[:, 1] / b) ** 2 <= 1.0 + 1e-12)


class TestSpherePatches:
    def test_counts(self):
        ds = gen_sphere_patches(seed=0, n_per_class=250)
        assert ds.x.shape == (500, 2)

    def test_bands_antipodal(self):
        ds = gen_sphere_patches(seed=2, n_per_class=300, antipodal=True)
        labels = np.asarray(ds.covariates.labels)
        phi0 = ds.x[labels == 0, 1]
        phi1 = ds.x[labels == 1, 1]
        assert phi0.min() >= 3 * np.pi / 8 and phi0.max() <= np.pi / 2
        assert phi1.min() >= -np.pi / 2 and phi1.max() <= -3 * np.pi / 8

    def test_bands_same_hemisphere(self):
        ds = gen_sphere_patches(seed=2, n_per_class=300, antipodal=False)
        labels = np.asarray(ds.covariates.labels)
        phi1 = ds.x[labels == 1, 1]
        assert phi1.min() >= np.pi / 8 and phi1.max() <= np.pi / 4

    def test_mean_latitude_of_band(self):
        # uniform band mean with a 3-standard-error tolerance
        n = 2000
        ds = gen_sphere_patches(seed=5, n_per_class=n)
        labels = np.asarray(ds.covariates.labels)
        phi0 = ds.x[labels == 0, 1]
        lo, hi = 3 * np.pi / 8, np.pi / 2
        se = (hi - lo) / np.sqrt(12.0) / np.sqrt(n)
        assert abs(phi0.mean() - 0.5 * (lo + hi)) <= 3 * se

    def test_longitudes_in_range(self):
        ds = gen_sphere_patches(seed=4)
        assert ds.x[:, 0].min() >= 0.0 and ds.x[:, 0].max() < 2 * np.pi


class TestHiddenSignal:
    def test_lengths_and_unit_norm(self):
        ts = gen_hidden_signal(seed=0, steps=1000)
        assert ts.x.shape == (1000, 3) and ts.w_hidden.shape == (1000, 3)
        assert np.abs(np.linalg.norm(ts.x, axis=1) - 1).max() <= 1e-12
        assert np.abs(np.linalg.norm(ts.w_hidden, axis=1) - 1).max() <= 1e-12

    def test_hidden_points_on_polar_cap(self):
        ts = gen_hidden_signal(seed=1, steps=500)
        _, phi, _ = cart2sph(ts.w_hidden)
        assert phi.min() >= np.pi / 2 - 0.45 - 1e-12

    def test_degenerate_cap_reproduces_deterministic_path(self):
        # cap width 0 pins w at the north pole; the reflection then lands each
        # step exactly on the advanced deterministic point
        ts = gen_hidden_signal(seed=7, steps=50, cap_width=0.0)
        theta, phi = 0.0, -np.pi / 2
        for n in range(50):
            theta_t = theta + np.sin(theta) + 0.5
            expected = sph2cart(1.0, phi, theta_t)
            assert np.allclose(ts.x[n], expected, atol=1e-12)
            _, phi, theta = cart2sph(ts.x[n])

    def test_reflection_step_is_isometry(self):
        # pairwise great-circle distances among hidden draws survive the map
        # applied at one fixed step
        rng = np.random.default_rng(3)
        phi_w = rng.uniform(np.pi / 2 - 0.45, np.pi / 2, 40)
        theta_w = rng.uniform(0, 2 * np.pi, 40)
        w = sph2cart(1.0, phi_w, theta_w)
        R = reflection_matrix(sph2cart(1.0, 0.3, 1.1))
        mapped = w @ R.T
        before = great_circle(w[:, None, :], w[None, :, :])
        after = great_circle(mapped[:, None, :], mapped[None, :, :])
        assert np.abs(before - after).max() <= 1e-10

    def test_deterministic(self):
        a = gen_hidden_signal(seed=11, steps=100)
        b = gen_hidden_signal(seed=11, steps=100)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.w_hidden, b.w_hidden)


class TestLaggedDataset:
    def test_spherical_lag(self):
        ts = gen_hidden_signal(seed=0, steps=100)
        ds = lagged_dataset(ts, space="spherical")
        assert ds.x.shape == (99, 2)
        assert ds.covariates.kind == "continuous"
        assert ds.covariates.values.shape == (99, 2)
        # covariate row n equals observation row n-1
        assert np.allclose(ds.covariates.values[1:], ds.x[:-1])

    def test_cartesian_lag(self):
        ts = gen_hidden_signal(seed=0, steps=100)
        ds = lagged_dataset(ts, space="cartesian")
        assert ds.covariates.values.shape == (99, 3)
        assert np.allclose(ds.covariates.values, ts.x[:-1])

