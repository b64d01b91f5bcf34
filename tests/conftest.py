"""Shared numerical helpers for the test suite."""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from baryflow import costs, solver
from baryflow.couplings import Covariates, DenseCoupling, build_couplings
from baryflow.errors import InvalidInputError


class ReferenceMonomial:
    """One monomial prod_j y_j**e_j, evaluated on its own: the reference for MonomialBasis.

    ``value``, ``grad`` and ``hess`` give the (N,), (N, d) and (N, d, d)
    arrays; products run over the coordinates in index order, and entries
    that vanish because of a small exponent are never written (+0.0).
    """

    def __init__(self, exponents):
        self.exponents = tuple(int(e) for e in exponents)

    def _partial(self, y, skip):
        out = np.ones(y.shape[0])
        for j, e in enumerate(self.exponents):
            if j in skip or e == 0:
                continue
            out = out * y[:, j] ** e
        return out

    def value(self, y):
        return self._partial(y, skip=())

    def grad(self, y):
        n, d = y.shape
        out = np.zeros((n, d))
        for j, e in enumerate(self.exponents):
            if e == 0:
                continue
            rest = self._partial(y, skip=(j,))
            out[:, j] = e * y[:, j] ** (e - 1) * rest
        return out

    def hess(self, y):
        n, d = y.shape
        out = np.zeros((n, d, d))
        for j1, e1 in enumerate(self.exponents):
            if e1 == 0:
                continue
            if e1 >= 2:
                rest = self._partial(y, skip=(j1,))
                out[:, j1, j1] = e1 * (e1 - 1) * y[:, j1] ** (e1 - 2) * rest
            for j2 in range(j1 + 1, d):
                e2 = self.exponents[j2]
                if e2 == 0:
                    continue
                rest = self._partial(y, skip=(j1, j2))
                mixed = e1 * e2 * y[:, j1] ** (e1 - 1) * y[:, j2] ** (e2 - 1) * rest
                out[:, j1, j2] = mixed
                out[:, j2, j1] = mixed
        return out


def dense_coupling(Z):
    """A dense, symmetric coupling Z, wrapped as the coupling ``constraint_function`` binds.

    Its C^T = Z - 1/N is formed as ``build_couplings`` forms a Sinkhorn
    coupling's, in place, here on a copy, so the caller's Z stays as it was.
    """
    CT = np.array(Z, dtype=float)
    CT -= 1.0 / len(CT)
    return DenseCoupling(CT)


def categorical_coupling(labels):
    """Class-indicator coupling: Z[i, j] = 1/N_c when points i and j share class c, else 0.

    Bi-stochastic and symmetric by construction; block diagonal under any
    class-sorted permutation.  The dense Z of the coupling ``build_couplings`` returns.
    """
    return build_couplings(Covariates.categorical(labels)).Z()


def gaussian_kernel(points, bandwidth):
    """Normalized Gaussian kernel of a point set against itself, from its closed form.

    K[i, j] = (2 pi h^2)^(-m/2) exp(-||p_i - p_j||^2 / (2 h^2)) for N x m
    points and bandwidth h; each row integrates to one.  The kernel
    ``build_couplings`` scales into the Z of continuous covariates.
    """
    points = np.asarray(points, dtype=float)
    sq = cdist(points, points, "sqeuclidean")
    return (2.0 * np.pi * bandwidth**2) ** (-points.shape[1] / 2) * np.exp(-sq / (2.0 * bandwidth**2))


def centering_matrix(Z):
    """Subtract each row's mean: C[i, l] = Z[i, l] - mean_k Z[i, k].

    Every column of C sums to zero when Z is bi-stochastic, and the
    quadratic form x'Cx is nonnegative for every x when Z is positive
    semidefinite with unit row sums.  Row i differs from the C = Z - 11^T/N
    the couplings imply by (sum_k Z[i, k] - 1) / N.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise InvalidInputError("Z must be a square matrix")
    return Z - Z.mean(axis=1, keepdims=True)


def combined_grad(ev, lam):
    """Gradient of L = L_C + lam * L_F from an ``ObjectiveEval``, formed as the solver forms it."""
    return ev.grad_cost + lam * ev.grad_constraint


def step_explicit(y, grad, eta):
    """Plain gradient step y - eta * grad, the expression the solver's explicit step evaluates."""
    return y - eta * grad


def central_diff_grad(f, y, h=1e-6):
    """Central finite-difference gradient of a scalar function of an N x d array."""
    g = np.zeros_like(y)
    for i in range(y.shape[0]):
        for j in range(y.shape[1]):
            yp = y.copy()
            yp[i, j] += h
            ym = y.copy()
            ym[i, j] -= h
            g[i, j] = (f(yp) - f(ym)) / (2.0 * h)
    return g


def central_diff_jacobian(g, y, h=1e-6):
    """Central finite-difference Jacobian of a vector field g: (N,d) -> (N,d).

    Returns shape (N, d, N, d): entry [i, a, k, b] = d g[i,a] / d y[k,b].
    """
    n, d = y.shape
    out = np.zeros((n, d, n, d))
    for k in range(n):
        for b in range(d):
            yp = y.copy()
            yp[k, b] += h
            ym = y.copy()
            ym[k, b] -= h
            out[:, :, k, b] = (g(yp) - g(ym)) / (2.0 * h)
    return out


def operator_of(hvp, scale=1.0, shift=0.0):
    """The operator ``costs.block_operator`` forms from a list of terms, or from one build alone.

    ``hvp`` is a ``[(lam, parts)]`` list or one ``parts`` function, the
    Hessian build a cost or constraint returns, read as ``[(1.0, parts)]``.
    """
    terms = hvp if isinstance(hvp, list) else [(1.0, hvp)]
    return costs.block_operator(terms, scale, shift)


def operator_matrix(hvp, n, d):
    """Matrix of a product, assembled column by column from its products with e_k.

    ``hvp`` is what :func:`operator_of` takes.  Returns shape (N, d, N, d),
    laid out like ``central_diff_jacobian``.
    """
    hvp = operator_of(hvp)
    out = np.zeros((n, d, n, d))
    for k in range(n):
        for b in range(d):
            e = np.zeros((n, d))
            e[k, b] = 1.0
            out[:, :, k, b] = hvp(e)
    return out


def assert_symmetric(hvp, rng, n, d, trials=5):
    """|<u, H v> - <H u, v>| <= 1e-12 * ||u|| * ||H v|| on random u, v, for a Hessian build."""
    hvp = operator_of(hvp)
    for _ in range(trials):
        u = rng.standard_normal((n, d))
        v = rng.standard_normal((n, d))
        hv = hvp(v)
        gap = abs(np.sum(u * hv) - np.sum(hvp(u) * v))
        assert gap <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(hv)


def direct_pair_outer(A, y, v):
    """sum_i A[j, i] D_ji (D_ji . (v_j - v_i)), D_ji = y_j - y_i, from the (N, N, d) differences."""
    D = y[:, None, :] - y[None, :, :]
    dv = v[:, None, :] - v[None, :, :]
    return np.einsum("ji,jia,ji->ja", A, D, np.einsum("jia,jia->ji", D, dv))


def kde_hvp_reference(y, a, CT):
    """The kde product 2 norm / r^2 (2 outer - s v + M v), r^2 = 2 a^2, from its direct terms.

    Written as (pair / a^2 - s v + M v) / a^2 with M[j, i] = K_a(y_j, y_i) C[i, j]
    (K_a the normalized Gaussian kernel), s = M 1 and the pair term of
    :func:`direct_pair_outer`; ``CT`` is the dense C^T.
    """
    D = y[:, None, :] - y[None, :, :]
    d = y.shape[1]
    M = np.exp(-np.einsum("jia,jia->ji", D, D) / (2 * a**2)) / (2 * np.pi * a**2) ** (d / 2) * CT
    s = M.sum(axis=1)[:, None]
    return lambda v: (direct_pair_outer(M, y, v) / a**2 - s * v + M @ v) / a**2


def distortion_hvp_reference(model, x, y, Z):
    """The distortion cost's product pair + eye_rows v - c_eye @ v, from dense coefficients."""
    n = len(x)
    denom = cdist(x, x, "sqeuclidean") + costs._EPS_DIST**2
    W = 0.5 * (Z + Z.T)
    np.fill_diagonal(W, 0.0)
    c_eye = (8.0 / n**2) * W * (cdist(y, y, "sqeuclidean") / denom - 1.0) / denom
    eye_rows = c_eye.sum(axis=1)[:, None] + 2.0 * model.omega / n
    A = (16.0 / n**2) * W / denom**2
    return lambda v: direct_pair_outer(A, y, v) + eye_rows * v - c_eye @ v


def pairwise_hessian_reference(model, x, y):
    """The (N, d, d) Hessian blocks of a squared-Euclidean, p-norm or great-circle cost at y.

    The p-norm cost differentiates |t|_eps^p, t = x - y, coordinate by
    coordinate; the great-circle cost differentiates q(h) = (2 arcsin sqrt h)^2
    with the haversine h = (1 - cos phi_x cos phi_y cos dtheta - sin phi_x sin phi_y) / 2
    written in cosines, away from coincident and antipodal points.
    """
    n, d = x.shape
    if model.family == "sq_euclidean":
        return np.broadcast_to(np.eye(d) / n, (n, d, d))
    if model.family == "p_norm":
        p, eps = model.p, costs._EPS_ABS
        t = x - y
        root = np.sqrt(t * t + eps)
        s = root - np.sqrt(eps)
        second = (p * (p - 1.0) * s ** (p - 2.0) * (t / root) ** 2
                  + p * s ** (p - 1.0) * eps / root**3)
        return np.einsum("ia,ab->iab", second / n, np.eye(d))
    dtheta = x[:, 0] - y[:, 0]
    cx, sx, cy, sy = np.cos(x[:, 1]), np.sin(x[:, 1]), np.cos(y[:, 1]), np.sin(y[:, 1])
    h = 0.5 * (1.0 - cx * cy * np.cos(dtheta) - sx * sy)
    dh = np.column_stack([-0.5 * cx * cy * np.sin(dtheta),
                          0.5 * (cx * sy * np.cos(dtheta) - sx * cy)])
    d2h = np.empty((n, 2, 2))
    d2h[:, 0, 0] = 0.5 * cx * cy * np.cos(dtheta)
    d2h[:, 0, 1] = d2h[:, 1, 0] = 0.5 * cx * sy * np.sin(dtheta)
    d2h[:, 1, 1] = 0.5 * (cx * cy * np.cos(dtheta) + sx * sy)
    dist = 2.0 * np.arcsin(np.sqrt(h))
    hh = h * (1.0 - h)
    q1 = 2.0 * dist / np.sqrt(hh)
    q2 = 2.0 / hh - dist * (1.0 - 2.0 * h) / hh**1.5
    return (q2[:, None, None] * dh[:, :, None] * dh[:, None, :] + q1[:, None, None] * d2h) / n


def features_hvp_reference(y, C, exponents):
    """The features product 2 sum_l [(C f_l)_i H_l(y_i) v_i + grad f_l(y_i) (C g_l)_i].

    g_l[k] = grad f_l(y_k) . v_k, each monomial a :class:`ReferenceMonomial`.
    """
    monomials = [ReferenceMonomial(e) for e in exponents]
    grads = [m.grad(y) for m in monomials]
    weighted = [(C @ m.value(y))[:, None, None] * m.hess(y) for m in monomials]

    def hvp(v):
        out = np.zeros_like(v)
        for g, wh in zip(grads, weighted):
            cross = g * (C @ np.einsum("kb,kb->k", g, v))[:, None]
            out += 2.0 * (np.einsum("iab,ib->ia", wh, v) + cross)
        return out
    return hvp


def remainder_hvp(product, n, d):
    """A bare product v -> H v of N x d arrays as a Hessian build: zero blocks, H its remainder."""
    return lambda: (np.zeros((n, d, d)), (lambda s: lambda v: s * product(v),))


def count_operators(monkeypatch):
    """Record what ``block_operator`` does, called through ``costs`` or ``solver``.

    Returns ``(setups, operators, products)``: ``setups`` gains an entry
    each time a term's blocks and remainders are built (its ``parts()`` is
    called), ``operators`` the list of terms of each operator formed, and
    ``products`` an entry for each application of any of them.
    """
    setups, operators, products = [], [], []
    form = costs.block_operator

    def counting(terms, *args, **kwargs):
        operators.append(terms)
        apply = form([(lam, lambda parts=parts: setups.append(1) or parts())
                      for lam, parts in terms], *args, **kwargs)
        return lambda v: products.append(1) or apply(v)

    monkeypatch.setattr(costs, "block_operator", counting)
    monkeypatch.setattr(solver, "block_operator", counting)
    return setups, operators, products


def peak_bytes(call):
    """tracemalloc peak of one call(), after a first call that does any deferred or first-use set-up."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def product_peak_bytes(hvp, v):
    """tracemalloc peak of one product of a Hessian build with v, its operator formed too.

    A first product does any deferred set-up.
    """
    return peak_bytes(lambda: operator_of(hvp)(v))


def rel_err(a, b):
    """Frobenius relative error of a against reference b."""
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / max(
        np.linalg.norm(np.asarray(b)), 1e-12
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)
