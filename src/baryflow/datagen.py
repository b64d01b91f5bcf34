"""Synthetic datasets: ellipse clusters, sphere patches, hidden-signal series.

All generators are deterministic under a fixed seed.  Spherical conventions
throughout: theta is longitude in [0, 2*pi), phi is latitude in
[-pi/2, pi/2], and a 2-D spherical point is stored as the column pair
(theta, phi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .couplings import Covariates
from .errors import InvalidInputError, as_points, integer_at_least, positive_number

__all__ = [
    "Dataset",
    "TimeSeriesSample",
    "cart2sph",
    "cross_product_matrix",
    "gen_ellipses",
    "gen_hidden_signal",
    "gen_sphere_patches",
    "lagged_dataset",
    "reflection_matrix",
    "sph2cart",
]

# Axis ratio 3:1, i.e. eccentricity sqrt(1 - (1/3)^2) = 2*sqrt(2)/3.
_ELLIPSE_AXIS_RATIO = 3.0
_ELLIPSE_CENTERS = ((0.0, 3.0), (-2.0, 0.0), (2.0, 0.0))
_ELLIPSE_SEMI_MAJOR = 1.5
# Latitude bands of the sphere patches: class 0, and class 1 on the same side.
_PATCH_BAND0 = (3.0 * np.pi / 8.0, np.pi / 2.0)
_PATCH_BAND1_SAME_HEMISPHERE = (np.pi / 8.0, np.pi / 4.0)


@dataclass(frozen=True)
class Dataset:
    """Sample points paired with their covariates."""

    x: np.ndarray
    covariates: Covariates

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def dim(self):
        return self.x.shape[1]


@dataclass(frozen=True)
class TimeSeriesSample:
    """Observed unit-sphere series ``x`` and its hidden driver ``w_hidden``; row k is step k."""

    x: np.ndarray
    w_hidden: np.ndarray


def sph2cart(r, phi, theta):
    """(r, latitude, longitude) -> Cartesian; broadcasts over leading axes."""
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return np.stack(
        [
            r * np.cos(phi) * np.cos(theta),
            r * np.cos(phi) * np.sin(theta),
            r * np.sin(phi),
        ],
        axis=-1,
    )


def cart2sph(v):
    """Cartesian -> (r, latitude, longitude in [0, 2*pi)); inverse of sph2cart."""
    v = np.asarray(v, dtype=float)
    r = np.linalg.norm(v, axis=-1)
    if np.any(r == 0):
        raise InvalidInputError("cannot convert the origin to spherical coordinates")
    phi = np.arcsin(np.clip(v[..., 2] / r, -1.0, 1.0))
    theta = np.mod(np.arctan2(v[..., 1], v[..., 0]), 2.0 * np.pi)
    return r, phi, theta


def cross_product_matrix(v):
    """3x3 matrix K with K @ u = v x u."""
    v = np.asarray(v, dtype=float)
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def reflection_matrix(axis):
    """Reflection through the line spanned by a unit vector: I + 2*K(axis)^2.

    Maps the axis to itself, negates the orthogonal complement, and preserves
    norms (hence great-circle distances on the sphere).
    """
    K = cross_product_matrix(axis)
    return np.eye(3) + 2.0 * (K @ K)


def _sample_ellipse_interior(rng, n, center, vertical):
    """Uniform points on an ellipse interior via rejection from the bounding box."""
    semi_major, semi_minor = _ELLIPSE_SEMI_MAJOR, _ELLIPSE_SEMI_MAJOR / _ELLIPSE_AXIS_RATIO
    half_w, half_h = (semi_minor, semi_major) if vertical else (semi_major, semi_minor)
    out = np.empty((n, 2))
    k = 0
    while k < n:
        u = rng.uniform(-half_w, half_w)
        v = rng.uniform(-half_h, half_h)
        if (u / half_w) ** 2 + (v / half_h) ** 2 <= 1.0:
            out[k, 0] = center[0] + u
            out[k, 1] = center[1] + v
            k += 1
    return out


def gen_ellipses(seed, n_per_class=100):
    """Three uniform ellipse clusters with categorical labels 0, 1, 2.

    The geometry is fixed: centers (0, 3), (-2, 0) and (2, 0), semi-major
    axis 1.5 and axis ratio 3:1.  Class 0 has a vertical major axis, classes
    1 and 2 horizontal ones, so class 0 sits above the horizontal pair and is
    the outlier in both shape and position.
    """
    integer_at_least("seed", seed, 0)
    integer_at_least("n_per_class", n_per_class, 1)
    rng = np.random.default_rng(seed)
    blocks, labels = [], []
    for z, center in enumerate(_ELLIPSE_CENTERS):
        blocks.append(_sample_ellipse_interior(rng, n_per_class, center, vertical=(z == 0)))
        labels.extend([z] * n_per_class)
    return Dataset(
        x=np.vstack(blocks),
        covariates=Covariates.categorical(labels),
    )


def gen_sphere_patches(seed, n_per_class=250, antipodal=True):
    """Two uniform latitude-band patches on the unit sphere, labels 0 and 1.

    Longitudes are uniform on [0, 2*pi) for both classes.  Class 0 covers
    latitudes [3*pi/8, pi/2].  With ``antipodal=True`` class 1 mirrors it
    across the equator, [-pi/2, -3*pi/8]; otherwise class 1 covers
    [pi/8, pi/4] on the same side.  Columns are (theta, phi).
    """
    integer_at_least("seed", seed, 0)
    integer_at_least("n_per_class", n_per_class, 1)
    rng = np.random.default_rng(seed)
    band1 = (-_PATCH_BAND0[1], -_PATCH_BAND0[0]) if antipodal else _PATCH_BAND1_SAME_HEMISPHERE
    blocks, labels = [], []
    for z, (lo, hi) in enumerate((_PATCH_BAND0, band1)):
        theta = rng.uniform(0.0, 2.0 * np.pi, n_per_class)
        phi = rng.uniform(lo, hi, n_per_class)
        blocks.append(np.column_stack([theta, phi]))
        labels.extend([z] * n_per_class)
    return Dataset(
        x=np.vstack(blocks),
        covariates=Covariates.categorical(labels),
    )


def gen_hidden_signal(seed, steps=1000, cap_width=0.45):
    """Unit-sphere time series: deterministic drift composed with hidden noise.

    Starting from the south pole, each step advances the longitude by
    sin(theta) + 1/2 (latitude unchanged), draws a hidden point w uniformly
    on the polar cap of angular width ``cap_width``, and reflects w through
    the axis bisecting the north pole and the advanced position.  The
    reflection is an isometry of the sphere, so each step's conditional
    distribution is a rigidly transported copy of the cap; a width of 0
    pins every w at the north pole.
    """
    integer_at_least("seed", seed, 0)
    integer_at_least("steps", steps, 2)  # a lagged dataset pairs each step with the one before
    if isinstance(cap_width, bool) or not (cap_width == 0 or positive_number(cap_width)):
        raise InvalidInputError("cap_width must be a finite number >= 0")
    rng = np.random.default_rng(seed)
    phi_w = rng.uniform(np.pi / 2.0 - cap_width, np.pi / 2.0, steps)
    theta_w = rng.uniform(0.0, 2.0 * np.pi, steps)
    w = sph2cart(1.0, phi_w, theta_w)

    xs = np.empty((steps, 3))
    theta, phi = 0.0, -np.pi / 2.0  # south pole
    for n in range(steps):
        theta_t = theta + np.sin(theta) + 0.5
        phi_t = phi
        axis = sph2cart(1.0, 0.5 * (phi_t + np.pi / 2.0), theta_t)
        xs[n] = reflection_matrix(axis) @ w[n]
        _, phi, theta = cart2sph(xs[n])
    return TimeSeriesSample(x=xs, w_hidden=w)


def lagged_dataset(series, space="spherical"):
    """Pair each observation with the previous one as a continuous covariate.

    ``space="spherical"`` uses (theta, phi) for both the points and the lag
    covariates (the 2-D formulation); ``space="cartesian"`` keeps the points
    spherical but uses the lagged unit 3-vector as the covariate, which
    avoids the longitude wrap-around in covariate space.  The first
    observation is dropped (it has no lag).  ``series.x`` must be a finite
    (T, 3) array with T >= 2.
    """
    x = as_points(series.x, "series.x")
    if x.shape[1] != 3 or x.shape[0] < 2:
        raise InvalidInputError("series.x must be a (T, 3) array with T >= 2")
    _, phi, theta = cart2sph(x)
    coords = np.column_stack([theta, phi])
    if space == "spherical":
        lag = coords[:-1]
    elif space == "cartesian":
        lag = x[:-1]
    else:
        raise InvalidInputError("space must be 'spherical' or 'cartesian'")
    return Dataset(
        x=coords[1:],
        covariates=Covariates.continuous(lag),
    )

