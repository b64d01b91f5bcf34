"""Cost families: value, per-point gradient, Hessian-vector product.

Pairwise families (squared Euclidean, smoothed p-norm, great-circle on the
unit sphere) average a per-sample cost c(x_i, y_i), so their Hessian is
block diagonal and the product applies per-point d x d blocks.  The
distortion family couples sample pairs through the coupling matrix Z,
penalizing deviation of pairwise distance ratios from one.  Its product never
forms the (N, N, d, d) Hessian: :func:`pair_outer_operator` sets up per-point
d x d blocks once in O(N^2 d^2), and each product is then one N x N by
N x (d^2 + 2d + 1) matrix product.

:func:`cost_function` checks x and Z once per solve; per call, only the
great-circle cost's latitudes of y are checked, as a step can pass a pole.
Every family returns its gradient as a function that builds it, as the
constraint modes of :mod:`baryflow.objective` do, so an evaluation whose
gradient is never read builds none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InvalidInputError, as_points, positive_number

__all__ = [
    "CostModel",
    "cost_function",
    "parse_cost_spec",
]

_FAMILIES = ("sq_euclidean", "p_norm", "geodesic_sphere", "distortion")

# Great-circle handling: the arcsin argument is clipped below one to keep the
# derivative finite, and gradients/Hessians are defined as zero at exact
# antipodes (a measure-zero configuration).
_ANTIPODAL_CLIP = 1.0 - 1e-12
_SERIES_CUTOFF = 1e-6
_LATITUDE_SLACK = 1e-9


@dataclass(frozen=True)
class CostModel:
    """Cost specification; the ``distortion`` family needs Z at binding.

    Families: ``sq_euclidean`` (canonical 0.5||x-y||^2), ``p_norm`` (smoothed
    coordinate-wise |t|^p with |t| ~ sqrt(t^2+eps_abs)-sqrt(eps_abs)),
    ``geodesic_sphere`` (squared great-circle distance of (longitude,
    latitude) pairs) and ``distortion`` (pairwise-distance-ratio penalty
    plus a small anchoring term of weight ``omega``).  Every real must be
    finite and positive, and ``p`` at least 1, whatever the family.
    """

    family: str
    p: float = 2.0
    eps_abs: float = 0.01
    eps_dist: float = 0.01
    omega: float = 0.01

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InvalidInputError(f"unknown cost family {self.family!r}")
        for name in ("p", "eps_abs", "eps_dist", "omega"):
            if not positive_number(getattr(self, name)):
                raise InvalidInputError(f"{name} must be a positive finite number")
        if self.p < 1.0:
            raise InvalidInputError("p must be >= 1")


def parse_cost_spec(text):
    """Parse a cost string: ``l2``, ``pnorm:<p>``, ``geodesic-sphere``, ``distortion:<omega>``."""
    text = text.strip()
    if text == "l2":
        return CostModel(family="sq_euclidean")
    if text == "geodesic-sphere":
        return CostModel(family="geodesic_sphere")
    if text.startswith("pnorm:"):
        try:
            p = float(text.split(":", 1)[1])
        except ValueError:
            raise InvalidInputError(f"bad p-norm exponent in {text!r}") from None
        return CostModel(family="p_norm", p=p)
    if text.startswith("distortion:"):
        try:
            omega = float(text.split(":", 1)[1])
        except ValueError:
            raise InvalidInputError(f"bad distortion weight in {text!r}") from None
        return CostModel(family="distortion", omega=omega)
    raise InvalidInputError(
        f"unknown cost {text!r}; expected l2, pnorm:<p>, geodesic-sphere or distortion:<omega>"
    )


def _check_latitudes(points):
    if np.abs(points[:, 1]).max() > 0.5 * np.pi + _LATITUDE_SLACK:
        raise InvalidInputError("latitude outside [-pi/2, pi/2]")


def deferred(build):
    """``build()`` on the first call, the same result after: set-up never used is never built."""
    box = {"build": build}

    def get():
        if "build" in box:  # a build that raises is kept, and raises again on the next call
            box["value"] = box["build"]()
            del box["build"]  # releases build and what it holds
        return box["value"]
    return get


def _lifted(p):
    """[p_j, 1] and the d x (d + 1) block [I, -p_j] for every point p_j."""
    n, d = p.shape
    block = np.zeros((n, d, d + 1))
    block[:, :, :d] = np.eye(d)
    block[:, :, d] = -p
    return np.hstack([p, np.ones((n, 1))]), block


def pair_outer_operator(A, y, c):
    """The map v -> (sum_i A[j, i] D_ji (D_ji . (v_j - v_i)) for every j, A @ v), D_ji = y_j - c_i.

    With P_j = [I, -y_j] and Q_i = [I, -c_i], D_ji = -P_j [c_i, 1] and
    D_ji . v_i = [y_j, 1] . Q_i^T v_i, so the pair term at j is
    B_j v_j + S_j (A V)_j: B_j = P_j (sum_i A[j, i] [c_i, 1] [c_i, 1]^T) P_j^T,
    S_j = [y_j, 1]^T (x) P_j, and V_i = (Q_i^T v_i) (x) [c_i, 1] = T_i v_i has
    (d + 1)^2 columns, v_i among them.  Setting up B, S and T costs
    O(N^2 d^2); each call then costs one N x N by N x (d + 1)^2 product and
    forms no N x N array.  y and c are first shifted by the mean of c, which
    leaves every D_ji unchanged and keeps far-off points from cancelling.
    """
    n, d = y.shape
    mean = c.mean(axis=0)
    y1, P = _lifted(y - mean)
    c1, Q = _lifted(c - mean)
    G = (A @ (c1[:, :, None] * c1[:, None, :]).reshape(n, -1)).reshape(n, d + 1, d + 1)
    B = P @ G @ P.transpose(0, 2, 1)
    S = (y1[:, None, :, None] * P[:, :, None, :]).reshape(n, d, -1)
    T = (Q.transpose(0, 2, 1)[:, :, None, :] * c1[:, None, :, None]).reshape(n, -1, d)

    def apply(v):
        AV = A @ np.einsum("ikb,ib->ik", T, v)
        pair = np.einsum("jab,jb->ja", B, v) + np.einsum("jak,jk->ja", S, AV)
        return pair, AV[:, d::d + 1][:, :d]  # the columns v_i (x) 1
    return apply


def _sq_euclidean_parts(x, y, want_hvp):
    n = x.shape[0]
    diff = y - x
    value = 0.5 * float(np.sum(diff * diff)) / n
    grad = lambda: diff / n
    hvp = (lambda v: v / n) if want_hvp else None
    return value, grad, hvp


def _p_norm_parts(model, x, y, want_hvp):
    n, _ = x.shape
    p, eps = model.p, model.eps_abs
    t = x - y
    si = np.sqrt(t * t + eps)
    s = si - np.sqrt(eps)
    value = float(np.sum(s**p)) / n
    sprime = t / si
    grad = lambda: -(p / n) * s ** (p - 1.0) * sprime
    hvp = None
    if want_hvp:
        # (p-1) s^(p-2) s'^2 has a removable singularity at t = 0 for p < 2.
        curv1 = np.zeros_like(s)
        mask = s > 0
        curv1[mask] = (p - 1.0) * s[mask] ** (p - 2.0) * sprime[mask] ** 2
        curv2 = s ** (p - 1.0) * eps / si**3
        diag = (p / n) * (curv1 + curv2)  # the Hessian is diagonal per coordinate
        hvp = lambda v: diag * v
    return value, grad, hvp


def _geodesic_q(arg, dist):
    """Derivatives of the angle->cost profile q = dist^2 at the clipped haversine argument."""
    qp = np.empty_like(arg)
    qpp = np.empty_like(arg)
    small = arg < _SERIES_CUTOFF
    big = ~small
    a_s = arg[small]
    qp[small] = 4.0 + (8.0 / 3.0) * a_s + (32.0 / 15.0) * a_s**2
    qpp[small] = 8.0 / 3.0 + (64.0 / 15.0) * a_s
    a_b = arg[big]
    prod = a_b * (1.0 - a_b)
    qp[big] = 2.0 * dist[big] / np.sqrt(prod)
    qpp[big] = 2.0 / prod - dist[big] * (1.0 - 2.0 * a_b) / prod**1.5
    return qp, qpp


def _geodesic_parts(x, y, want_hvp):
    n, _ = x.shape
    theta_x, phi_x = x[:, 0], x[:, 1]
    theta_y, phi_y = y[:, 0], y[:, 1]
    dtheta = theta_x - theta_y
    dphi = phi_x - phi_y
    cpx, cpy = np.cos(phi_x), np.cos(phi_y)
    st2 = np.sin(0.5 * dtheta) ** 2
    arg = np.sin(0.5 * dphi) ** 2 + cpx * cpy * st2
    arg = np.clip(arg, 0.0, 1.0)
    antipodal = arg >= _ANTIPODAL_CLIP
    arg_c = np.minimum(arg, _ANTIPODAL_CLIP)
    dist = 2.0 * np.arcsin(np.sqrt(arg_c))

    value = float(np.sum(dist**2)) / n

    dA = np.empty((n, 2))
    dA[:, 0] = -0.5 * cpx * cpy * np.sin(dtheta)
    dA[:, 1] = -0.5 * np.sin(dphi) - cpx * np.sin(phi_y) * st2
    qp, qpp = _geodesic_q(arg_c, dist)

    grad = lambda: np.where(antipodal[:, None], 0.0, (qp[:, None] * dA) / n)

    hvp = None
    if want_hvp:
        @deferred
        def hess():
            hA = np.empty((n, 2, 2))
            hA[:, 0, 0] = 0.5 * cpx * cpy * np.cos(dtheta)
            hA[:, 0, 1] = 0.5 * cpx * np.sin(phi_y) * np.sin(dtheta)
            hA[:, 1, 0] = hA[:, 0, 1]
            hA[:, 1, 1] = 0.5 * np.cos(dphi) - cpx * cpy * st2
            out = (qpp[:, None, None] * dA[:, :, None] * dA[:, None, :]
                   + qp[:, None, None] * hA) / n
            out[antipodal] = 0.0
            return out

        hvp = lambda v: np.einsum("iab,ib->ia", hess(), v)
    return value, grad, hvp


def _distortion_parts(model, x, y, denom, W, want_hvp):
    n = x.shape[0]
    omega = model.omega
    dev = cdist(y, y, metric="sqeuclidean") / denom - 1.0
    weighted = W * dev
    anchor_diff = y - x
    value = float(np.sum(weighted * dev)) / n**2 + omega * float(
        np.sum(anchor_diff * anchor_diff)
    ) / n
    coeff = deferred(lambda: weighted / denom)  # shared by the gradient and the product

    grad = lambda: (8.0 / n**2) * (coeff().sum(axis=1)[:, None] * y - coeff() @ y) + (
        2.0 * omega / n) * anchor_diff

    hvp = None
    if want_hvp:
        # Pair (j, i) contributes c_outer (d d^T) + c_eye I, d = y_j - y_i, to
        # the (j, j) block and its negative to the (j, i) block; W has a zero
        # diagonal, so the pair (j, j) contributes nothing.
        @deferred
        def coefficients():
            c_eye = (8.0 / n**2) * coeff()
            eye_rows = c_eye.sum(axis=1)[:, None] + 2.0 * omega / n
            return pair_outer_operator((16.0 / n**2) * W / denom**2, y, y), c_eye, eye_rows

        def hvp(v):
            pair, c_eye, eye_rows = coefficients()
            return pair(v)[0] + eye_rows * v - c_eye @ v
    return value, grad, hvp


def cost_function(model, x, Z=None):
    """Bind ``model`` to the points x (and, for distortion, the N x N coupling Z) of one solve.

    Checks x (finite N x d; 2 columns and latitudes in range for the
    great-circle cost) and Z here, once; distortion also computes its x- and
    Z-only terms here.  Returns ``parts(y, want_hvp=False) -> (value, grad,
    hvp)`` for a finite float y of x's shape, which checks only the
    great-circle latitudes of y.  ``grad`` is a function of no arguments that
    builds the N x d gradient.  ``hvp`` maps an N x d array v to the Hessian
    of the cost at y applied to v; it is None unless ``want_hvp``.
    """
    x = as_points(x)
    if model.family == "sq_euclidean":
        return lambda y, want_hvp=False: _sq_euclidean_parts(x, y, want_hvp)
    if model.family == "p_norm":
        return lambda y, want_hvp=False: _p_norm_parts(model, x, y, want_hvp)
    if model.family == "geodesic_sphere":
        if x.shape[1] != 2:
            raise InvalidInputError("geodesic cost expects 2 columns: (longitude, latitude)")
        _check_latitudes(x)

        def parts(y, want_hvp=False):
            _check_latitudes(y)
            return _geodesic_parts(x, y, want_hvp)
        return parts
    if Z is None or np.shape(Z) != (len(x), len(x)):
        raise InvalidInputError("the distortion cost requires an N x N coupling matrix Z")
    Z = np.asarray(Z, dtype=float)
    denom = cdist(x, x, metric="sqeuclidean") + model.eps_dist**2
    W = 0.5 * (Z + Z.T)
    np.fill_diagonal(W, 0.0)
    return lambda y, want_hvp=False: _distortion_parts(model, x, y, denom, W, want_hvp)
