"""Shared numerical helpers for the test suite."""

import tracemalloc

import numpy as np
import pytest

from baryflow.couplings import DenseCoupling


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


def dense_coupling(C):
    """A dense centering matrix C, wrapped as the coupling ``constraint_function`` binds."""
    return DenseCoupling(np.asarray(C, dtype=float))


def combined_grad(ev, lam):
    """Gradient of L = L_C + lam * L_F from an ``ObjectiveEval``, formed as the solver forms it."""
    return ev.grad_cost + lam * ev.grad_constraint


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


def operator_matrix(hvp, n, d):
    """Matrix of an (N, d) -> (N, d) operator, assembled column by column from hvp(e_k).

    Returns shape (N, d, N, d), laid out like ``central_diff_jacobian``.
    """
    out = np.zeros((n, d, n, d))
    for k in range(n):
        for b in range(d):
            e = np.zeros((n, d))
            e[k, b] = 1.0
            out[:, :, k, b] = hvp(e)
    return out


def assert_symmetric(hvp, rng, n, d, trials=5):
    """|<u, H v> - <H u, v>| <= 1e-12 * ||u|| * ||H v|| on random u, v."""
    for _ in range(trials):
        u = rng.standard_normal((n, d))
        v = rng.standard_normal((n, d))
        hv = hvp(v)
        gap = abs(np.sum(u * hv) - np.sum(hvp(u) * v))
        assert gap <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(hv)


def direct_pair_outer(A, y, c, v):
    """sum_i A[j, i] D_ji (D_ji . (v_j - v_i)), D_ji = y_j - c_i, from the (N, N, d) differences."""
    D = y[:, None, :] - c[None, :, :]
    dv = v[:, None, :] - v[None, :, :]
    return np.einsum("ji,jia,ji->ja", A, D, np.einsum("jia,jia->ji", D, dv))


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
    """tracemalloc peak of one call hvp(v), after a first call that does any deferred set-up."""
    return peak_bytes(lambda: hvp(v))


def rel_err(a, b):
    """Frobenius relative error of a against reference b."""
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / max(
        np.linalg.norm(np.asarray(b)), 1e-12
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)
