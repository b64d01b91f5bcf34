"""Cost families: value, per-point gradient, Hessian-vector product.

Pairwise families (squared Euclidean, smoothed p-norm, great-circle on the
unit sphere) average a per-sample cost c(x_i, y_i), so their Hessian is
block diagonal and their product is its blocks alone.  The distortion
family couples sample pairs through the solve's coupling Z, penalizing
deviation of pairwise distance ratios from one.  Every family keeps the
lazy contract of :mod:`baryflow.objective`, its product in the block form of
:class:`BlockHvp` (a pair term's set up by :func:`pair_outer_operator`), and
a product's build holds only what the gradient holds, x and y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InvalidInputError, positive_number

__all__ = [
    "CostModel",
    "cost_function",
    "parse_cost_spec",
]

_FAMILIES = ("sq_euclidean", "p_norm", "geodesic_sphere", "distortion")
_SUFFIXED_SPECS = {  # "<prefix>:<number>": (family, the field the number sets, message if no number)
    "pnorm": ("p_norm", "p", "bad p-norm exponent"),
    "distortion": ("distortion", "omega", "bad distortion weight"),
}

# Great-circle handling: the arcsin argument is clipped below one to keep the
# derivative finite, and gradients/Hessians are defined as zero at exact
# antipodes (a measure-zero configuration).
_ANTIPODAL_CLIP = 1.0 - 1e-12
_SERIES_CUTOFF = 1e-6
_LATITUDE_SLACK = 1e-9
_EPS_ABS = 0.01  # the p-norm's |t| ~ sqrt(t^2 + _EPS_ABS) - sqrt(_EPS_ABS)
_EPS_DIST = 0.01  # the distortion ratios' denominators |x_j - x_i|^2 + _EPS_DIST^2


@dataclass(frozen=True)
class CostModel:
    """Cost specification; the ``distortion`` family needs the solve's coupling at binding.

    Families: ``sq_euclidean`` (canonical 0.5||x-y||^2), ``p_norm`` (smoothed
    coordinate-wise |t|^p with |t| ~ sqrt(t^2+0.01)-sqrt(0.01)),
    ``geodesic_sphere`` (squared great-circle distance of (longitude,
    latitude) pairs) and ``distortion`` (pairwise-distance-ratio penalty
    plus a small anchoring term of weight ``omega``).  ``p`` and ``omega``
    must be finite and positive, and ``p`` at least 1, whatever the family.
    """

    family: str
    p: float = 2.0
    omega: float = 0.01

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InvalidInputError(f"unknown cost family {self.family!r}")
        for name in ("p", "omega"):
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
    prefix, colon, number = text.partition(":")
    if colon and prefix in _SUFFIXED_SPECS:
        family, field, message = _SUFFIXED_SPECS[prefix]
        try:
            value = float(number)
        except ValueError:
            raise InvalidInputError(f"{message} in {text!r}") from None
        return CostModel(family=family, **{field: value})
    raise InvalidInputError(
        f"unknown cost {text!r}; expected l2, pnorm:<p>, geodesic-sphere or distortion:<omega>"
    )


def _check_latitudes(points):
    if np.abs(points[:, 1]).max() > 0.5 * np.pi + _LATITUDE_SLACK:
        raise InvalidInputError("latitude outside [-pi/2, pi/2]")


class deferred:
    """``build()`` on the first call, the same result after: set-up never used is never built.

    A slotted object rather than a closure: every evaluation makes several.
    """

    __slots__ = ("_build", "_value")

    def __init__(self, build):
        self._build = build

    def __call__(self):
        if self._build is not None:  # a build that raises is kept, and raises again on the next call
            self._value = self._build()
            self._build = None  # releases build and what it holds
        return self._value


class BlockHvp:
    """A Hessian-vector product in block form: v -> D v + the remainders' products.

    D holds per-point d x d blocks, an (N, d, d) array, so no product forms
    the (N, N, d, d) Hessian.  Each remainder is a function ``rest(s)`` that
    sets up, once, the product v -> s R v, with the scale s folded into its
    factors.  ``parts() -> (D, remainders)`` gives both; a cost or constraint
    passes a :func:`deferred` build, so an evaluation whose product is never
    used sets up none.  Sums (:meth:`plus`) and scalings act on the blocks and
    remainders themselves, and :meth:`operator` forms a scaled and shifted
    product once, to apply many times: one einsum over the blocks, O(N d^2),
    plus the remainders' products.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts):
        self._parts = parts

    def plus(self, lam, other):
        """The product of H + lam * H_other.

        Its blocks are added when an operator is formed, and not kept: the
        sum lives only as long as that operator.
        """
        def parts():
            (D, rests), (D_other, rests_other) = self._parts(), other._parts()
            return D + lam * D_other, rests + tuple(
                (lambda s, rest=rest: rest(lam * s)) for rest in rests_other)
        return BlockHvp(parts)

    def operator(self, scale=1.0, shift=0.0):
        """v -> (shift I + scale H) v, its blocks and scaled remainders formed now, once.

        Each application is one einsum over the blocks plus one product per
        remainder, added in place.
        """
        D, rests = self._parts()
        if scale != 1.0 or shift:
            D = scale * D + shift * np.eye(D.shape[-1])
        products = [rest(scale) for rest in rests]

        def apply(v):
            out = np.einsum("jab,jb->ja", D, v)
            for product in products:
                out += product(v)
            return out
        return apply


def add_diagonal(blocks, values):
    """Add ``values`` (a scalar, (N, 1) or (N, d)) to the diagonal of every block, in place."""
    r = np.arange(blocks.shape[-1])
    blocks[:, r, r] += values
    return blocks


def pair_outer_operator(A, y):
    """Blocks and remainder of v -> sum_i A[j, i] D_ji (D_ji . (v_j - v_i)), D_ji = y_j - y_i.

    With P_j = [I, -y_j], D_ji = -P_j [y_i, 1] and
    D_ji . v_i = [y_j, 1] . P_i^T v_i, so the pair term at j is
    B_j v_j + S_j (A V)_j: B_j = P_j (sum_i A[j, i] [y_i, 1] [y_i, 1]^T) P_j^T,
    S_j = [y_j, 1]^T (x) P_j, and V_i = (P_i^T v_i) (x) [y_i, 1] = T_i v_i has
    (d + 1)^2 columns, v_i among them: column a (d + 1) + d of A V is
    (A v)_a.  Returns ``(B, S, rest)``: the (N, d, d) blocks, the
    (N, d, (d + 1)^2) factor and ``rest(s)`` -> (v -> s S_j (A T v)_j), which
    reads S when it is called, so a caller may fold terms into B and S in
    place first: adding k to S[j, a, a (d + 1) + d] adds k (A v)[j, a] to
    row j of the product.  Setting up B, S and T costs O(N^2 d^2); each
    product then costs one N x N by N x (d + 1)^2 product and forms no
    N x N array.  y is first shifted by its mean, which leaves every D_ji
    unchanged and keeps far-off points from cancelling.
    """
    n, d = y.shape
    y1 = np.hstack([y - y.mean(axis=0), np.ones((n, 1))])  # [y_j, 1], shifted
    P = np.zeros((n, d, d + 1))
    P[:, :, :d] = np.eye(d)
    P[:, :, d] = -y1[:, :d]
    G = (A @ (y1[:, :, None] * y1[:, None, :]).reshape(n, -1)).reshape(n, d + 1, d + 1)
    B = P @ G @ P.transpose(0, 2, 1)
    S = (y1[:, None, :, None] * P[:, :, None, :]).reshape(n, d, -1)
    T = (P[:, :, :, None] * y1[:, None, None, :]).reshape(n, d, -1)  # T_i^T, row-major

    def rest(s):
        Ss = S if s == 1.0 else s * S
        return lambda v: np.einsum("jak,jk->ja", Ss, A @ np.einsum("ibk,ib->ik", T, v))
    return B, S, rest


def _sq_euclidean_parts(x, y, hvp):
    n = x.shape[0]
    diff = y - x
    value = 0.5 * float(np.sum(diff * diff)) / n
    grad = lambda: diff / n
    return value, grad, hvp


def _p_norm_parts(model, x, y):
    n, d = x.shape
    p, eps = model.p, _EPS_ABS
    t = x - y
    si = np.sqrt(t * t + eps)
    s = si - np.sqrt(eps)
    value = float(np.sum(s**p)) / n
    sprime = t / si
    grad = lambda: -(p / n) * s ** (p - 1.0) * sprime

    def hessian():
        t = x - y
        si = np.sqrt(t * t + eps)  # recomputed, bit for bit, rather than kept
        # (p-1) s^(p-2) s'^2 has a removable singularity at t = 0 for p < 2.
        curv1 = np.zeros_like(s)
        mask = s > 0
        curv1[mask] = (p - 1.0) * s[mask] ** (p - 2.0) * sprime[mask] ** 2
        curv2 = s ** (p - 1.0) * eps / si**3
        diag = (p / n) * (curv1 + curv2)  # the Hessian is diagonal per coordinate
        return add_diagonal(np.zeros((n, d, d)), diag), ()

    return value, grad, BlockHvp(deferred(hessian))


def _geodesic_qp(arg, dist):
    """q' of the angle->cost profile q = dist^2 at the clipped haversine argument."""
    qp = np.empty_like(arg)
    small = arg < _SERIES_CUTOFF
    big = ~small
    a_s = arg[small]
    qp[small] = 4.0 + (8.0 / 3.0) * a_s + (32.0 / 15.0) * a_s**2
    a_b = arg[big]
    qp[big] = 2.0 * dist[big] / np.sqrt(a_b * (1.0 - a_b))
    return qp


def _geodesic_qpp(arg, dist):
    """q'' of the angle->cost profile q = dist^2 at the clipped haversine argument."""
    qpp = np.empty_like(arg)
    small = arg < _SERIES_CUTOFF
    big = ~small
    qpp[small] = 8.0 / 3.0 + (64.0 / 15.0) * arg[small]
    a_b = arg[big]
    prod = a_b * (1.0 - a_b)
    qpp[big] = 2.0 / prod - dist[big] * (1.0 - 2.0 * a_b) / prod**1.5
    return qpp


def _geodesic_angles(x, y):
    """dtheta, dphi, cos phi_x, cos phi_y, sin^2(dtheta/2), the clipped haversine arg, dist."""
    dtheta = x[:, 0] - y[:, 0]
    dphi = x[:, 1] - y[:, 1]
    cpx, cpy = np.cos(x[:, 1]), np.cos(y[:, 1])
    st2 = np.sin(0.5 * dtheta) ** 2
    arg = np.clip(np.sin(0.5 * dphi) ** 2 + cpx * cpy * st2, 0.0, 1.0)
    arg = np.minimum(arg, _ANTIPODAL_CLIP)  # at the clip exactly when antipodal
    return dtheta, dphi, cpx, cpy, st2, arg, 2.0 * np.arcsin(np.sqrt(arg))


def _geodesic_parts(x, y):
    n, _ = x.shape
    dtheta, dphi, cpx, cpy, st2, arg, dist = _geodesic_angles(x, y)
    antipodal = arg >= _ANTIPODAL_CLIP

    value = float(np.sum(dist**2)) / n

    dA = np.empty((n, 2))
    dA[:, 0] = -0.5 * cpx * cpy * np.sin(dtheta)
    dA[:, 1] = -0.5 * np.sin(dphi) - cpx * np.sin(y[:, 1]) * st2
    qp = _geodesic_qp(arg, dist)

    grad = lambda: np.where(antipodal[:, None], 0.0, (qp[:, None] * dA) / n)

    def hessian():
        # the angles are recomputed from x and y, bit for bit, rather than kept; q' is the grad's
        dtheta, dphi, cpx, cpy, st2, arg, dist = _geodesic_angles(x, y)
        qpp = _geodesic_qpp(arg, dist)
        hA = np.empty((n, 2, 2))
        hA[:, 0, 0] = 0.5 * cpx * cpy * np.cos(dtheta)
        hA[:, 0, 1] = 0.5 * cpx * np.sin(y[:, 1]) * np.sin(dtheta)
        hA[:, 1, 0] = hA[:, 0, 1]
        hA[:, 1, 1] = 0.5 * np.cos(dphi) - cpx * cpy * st2
        out = (qpp[:, None, None] * dA[:, :, None] * dA[:, None, :]
               + qp[:, None, None] * hA) / n
        out[antipodal] = 0.0
        return out, ()

    return value, grad, BlockHvp(deferred(hessian))


def _distortion_parts(model, x, y, denom, W):
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

    # Pair (j, i) contributes c_outer (d d^T) + c_eye I, d = y_j - y_i, to
    # the (j, j) block and its negative to the (j, i) block; W has a zero
    # diagonal, so the pair (j, j) contributes nothing.  The (j, j) terms
    # fold into the pair operator's blocks; the remainder is
    # S (A T v) - c_eye @ v.
    def hessian():
        c_eye = (8.0 / n**2) * coeff()
        B, _, pair = pair_outer_operator((16.0 / n**2) * W / denom**2, y)
        add_diagonal(B, c_eye.sum(axis=1)[:, None] + 2.0 * omega / n)

        def rest(s):
            pair_s = pair(s)
            return lambda v: pair_s(v) - s * (c_eye @ v)
        return B, (rest,)

    return value, grad, BlockHvp(deferred(hessian))


def cost_function(model, x, coupling=None, shift=None):
    """Bind ``model`` to the points x of one solve, with its ``coupling`` and ``shift``.

    x is a finite float N x d array, with 2 columns and latitudes in range
    for the great-circle cost.  The squared-Euclidean cost measures from
    x + ``shift`` when one is given, every other family from x.  Only the
    distortion cost reads the coupling, which it needs: its N x N Z, here,
    and its x- and Z-only terms with it.  Returns ``parts(y) -> (value,
    grad, hvp)`` for a finite float y of x's shape.
    ``grad`` is a function of no arguments that builds the N x d gradient.
    ``hvp`` is the product of the cost's Hessian at y in block form, a
    :class:`BlockHvp` that sets up nothing until it is read.
    """
    if model.family == "sq_euclidean":
        x = x if shift is None else x + shift
        n, d = x.shape
        hvp = BlockHvp(lambda: (add_diagonal(np.zeros((n, d, d)), 1.0 / n), ()))  # I / N at every y
        return lambda y: _sq_euclidean_parts(x, y, hvp)
    if model.family == "p_norm":
        return lambda y: _p_norm_parts(model, x, y)
    if model.family == "geodesic_sphere":
        if x.shape[1] != 2:
            raise InvalidInputError("geodesic cost expects 2 columns: (longitude, latitude)")
        _check_latitudes(x)

        def parts(y):
            _check_latitudes(y)
            return _geodesic_parts(x, y)
        return parts
    denom = cdist(x, x, metric="sqeuclidean") + _EPS_DIST**2
    W = coupling.Z()  # the pair weights; both couplings give a new, exactly symmetric Z
    np.fill_diagonal(W, 0.0)
    return lambda y: _distortion_parts(model, x, y, denom, W)
