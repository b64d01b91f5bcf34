"""Objective assembly: constraint functionals, gradients, Hessian-vector products.

The full objective is L = L_C + lambda * L_F, where L_C is a cost from
:mod:`baryflow.costs` and L_F tests whether the mapped points depend on the
covariate; an evaluation returns the two parts (:class:`ObjectiveEval`).
Two constraint modes exist:

* ``kde`` scores the discrepancy between conditional kernel density
  estimates of the mapped points: L_F = sum_{i,l} K_a(y_l, y_i) C[i, l],
  K_a the Gaussian density of bandwidth a, whose (2 pi a^2)^(-d/2) scales
  the value and the O(N d) outputs, never N x N arrays.  The kernel centers
  are the evaluated points themselves, and ``before`` (see
  :func:`constraint_function`) is the one way to score points against
  centers elsewhere.  The descent direction differentiates the kernel only
  through the evaluation slot, holding the centers at the current positions.
  A value is one matrix product and ``exp``, taken about the points' mean so
  that far-off clouds lose no digits, then the coupling's value read of C^T
  (:meth:`~baryflow.couplings.CategoricalCoupling.kde`).
* ``features`` penalizes disagreement of conditional feature averages
  through the quadratic forms f_l' C f_l over the m monomials f_l of one
  :class:`MonomialBasis`: ``value_and_grad(y)`` gives their (m, N) values
  and (m, N, d) gradients, and ``hess(y, W)`` the (N, d, d) sum of their
  Hessians weighed by an (m, N) W, added monomial by monomial in row order
  with no (m, N, d, d) stack.  Gradients use the symmetric form
  2 (C f_l)_i f_l'(y_i), exact because every coupling's C is exactly
  symmetric, and so are the Hessian-vector products MINRES reads.

Both terms of the objective share one lazy contract: a bound term returns
its value, and builders of its gradient and of its Hessian in the block
form of :func:`~baryflow.costs.block_operator`, each run on first read.
Gradient and product build from what the value left behind (the kde
kernel matrix, the features' C f_l) and the points, nothing else.
Products apply the Jacobian of the returned gradient field, so they include
the cross terms of the kernel centers (or feature averages) tracking the
points; kde's is set up by :func:`~baryflow.costs.pair_outer_operator`.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .costs import add_diagonal, deferred, pair_outer_operator
from .errors import NumericError

__all__ = [
    "MonomialBasis",
    "ObjectiveEval",
    "constraint_function",
    "evaluate",
    "monomial_features",
]


def _product(factors):
    """Left-to-right product of a sequence of arrays; 1.0 when it is empty."""
    out = None
    for f in factors:
        out = f if out is None else out * f
    return 1.0 if out is None else out


@dataclass(frozen=True, eq=False)
class MonomialBasis:
    """The m monomials prod_j y_j**E[l, j], one per row l of an (m, d) exponent matrix E.

    All are evaluated together: each takes its rows from one table of y[:, j]**e
    and one of e * y[:, j]**(e - 1).  Products run over the coordinates in index
    order, and an entry that vanishes because of a small exponent is +0.0.
    """

    exponents: np.ndarray

    def __post_init__(self):
        E = np.array(self.exponents, dtype=np.intp)
        E.setflags(write=False)
        object.__setattr__(self, "exponents", E)
        object.__setattr__(self, "_degree", max(int(E.max()), 1))
        d = E.shape[1]
        # (d, m): the row of a flattened (degree + 1, d, N) table that holds y_j**E[l, j]
        rows_of = (E * d + np.arange(d)).T
        object.__setattr__(self, "_rows", rows_of)
        # One Hessian term per coordinate pair j1 <= j2 that some monomial reaches:
        # its monomials, their integer coefficients, the table rows of the
        # differentiated factors and those of the factors left as they are.
        terms = []
        for j1, j2 in itertools.combinations_with_replacement(range(d), 2):
            if j1 == j2:  # e (e - 1) y_j**(e - 2)
                rows = np.flatnonzero(E[:, j1] >= 2)
                e = E[rows, j1]
                coeff, slots = e * (e - 1), [(e - 2) * d + j1]
            else:  # e1 e2 y_j1**(e1 - 1) y_j2**(e2 - 1)
                rows = np.flatnonzero(E[:, j1] * E[:, j2])
                e1, e2 = E[rows, j1], E[rows, j2]
                coeff, slots = e1 * e2, [(e1 - 1) * d + j1, (e2 - 1) * d + j2]
            if rows.size:
                rest = [rows_of[k, rows] for k in range(d) if k not in (j1, j2)]
                terms.append((j1, j2, rows, coeff[:, None], slots, rest))
        object.__setattr__(self, "_hess_terms", terms)

    def _powers(self, y):
        n, d = y.shape
        powers = np.empty((self._degree + 1, d, n))
        powers[0] = 1.0
        powers[1] = y.T  # y**1 is y
        for e, j in itertools.product(range(2, self._degree + 1), range(d)):
            powers[e, j] = y[:, j] ** e
        return powers

    def value_and_grad(self, y):
        n, d = y.shape
        powers = self._powers(y)
        slopes = np.zeros_like(powers)  # row e: e * y_j**(e - 1)
        for e in range(1, self._degree + 1):
            np.multiply(e, powers[e - 1], out=slopes[e])
        factors = powers.reshape(-1, n).take(self._rows, axis=0)  # (d, m, N)
        grads = slopes.reshape(-1, n).take(self._rows, axis=0)
        del powers, slopes  # the tables are freed once their rows are taken
        for j in range(d):
            grads[j] *= _product(factors[k] for k in range(d) if k != j)
        grads[self.exponents.T == 0] = 0.0
        vals = _product(factors)
        del factors
        return vals, np.ascontiguousarray(grads.transpose(1, 2, 0))

    def hess(self, y, weights):
        n, d = y.shape
        table = self._powers(y).reshape(-1, n)
        out = np.zeros((n, d, d))
        for j1, j2, rows, coeff, slots, rest in self._hess_terms:
            block = coeff * table[slots[0]]
            for slot in slots[1:]:
                block *= table[slot]
            block *= _product(table[r] for r in rest)
            entry = out[:, j1, j2]
            for term in block * weights[rows]:
                entry += term
            out[:, j2, j1] = entry
        return out


def monomial_features(dim, degree):
    """The basis of all monomials of total degree 1..degree in ``dim`` variables.

    Degree 1 yields the coordinates; degree 2 adds squares and cross terms,
    ordered by total degree then lexicographically (y1, y2, y1^2, y1*y2, ...).
    """
    return MonomialBasis([
        np.bincount(combo, minlength=dim)
        for total in range(1, degree + 1)
        for combo in itertools.combinations_with_replacement(range(dim), total)
    ])


def _sq_norms(p):
    """|p_j|^2 for every row j."""
    return np.einsum("ja,ja->j", p, p)


def _kde_frame(y, r):
    """The points' frame: mean, w = (y - mean) / r, |w|^2 and the factor [2 w, -1, -|w|^2]^T.

    The kernel centers are the points, so this is the centers' frame too.
    Centered on the mean, a kernel's squares stay near its distances.
    """
    mean = y.sum(axis=0) / len(y)
    w = (y - mean) / r
    ww = _sq_norms(w)
    B = np.full((w.shape[1] + 2, len(w)), -1.0)
    B[:-2], B[-1] = 2.0 * w.T, -ww
    return mean, w, ww, B


def _kde_kernel(u, uu, B):
    """exp(-|u_j - w_i|^2) for every j, i, from one matrix product and ``exp`` in place.

    The exponent is [u_j, |u_j|^2, 1] . [2 w_i, -1, -|w_i|^2], with ``uu`` the
    |u_j|^2, u taken in the frame of :func:`_kde_frame` and ``B`` its factor.
    """
    A = np.ones((len(u), u.shape[1] + 2))
    A[:, :-2], A[:, -2] = u, uu
    E = A @ B
    return np.exp(E, out=E)


def _kde_parts(y, kde, bandwidth, before=None):
    kde_value, kde_terms = kde
    r = np.sqrt(2.0) * bandwidth
    mean, w, ww, B = _kde_frame(y, r)  # w_j - w_i = D_ji / r, D_ji = y_j - y_i
    norm = (np.pi * r * r) ** (-0.5 * y.shape[1])  # (2 pi a^2)^(-d/2)
    if before is not None:  # a kernel of its own, freed before y's is built
        ub = (before - mean) / r
        value_before = norm * kde_value(_kde_kernel(ub, _sq_norms(ub), B))
    E = _kde_kernel(w, ww, B)
    value = norm * kde_value(E)
    # s = M 1, () -> M @ w and weigh() -> M, with M[j, i] = E[j, i] * C[i, j]
    terms = deferred(lambda: kde_terms(E, w))
    grad = lambda: -2.0 * norm / r * (terms()[0][:, None] * w - terms()[1]())

    def hessian():
        # The product is k (2 pair - s v + M v), the pair term in units of
        # r.  k, the 2 and -s v fold into the pair operator's blocks; k,
        # the 2 and the columns M v of M (T v) fold into S.
        k = 2.0 * norm / r**2
        D, S, pair = pair_outer_operator(terms()[2](), w)
        D *= 2.0 * k
        add_diagonal(D, -k * terms()[0][:, None])
        S *= 2.0 * k
        d = w.shape[1]
        S[:, np.arange(d), np.arange(d) * (d + 1) + d] += k
        return D, (pair,)

    parts = value, grad, deferred(hessian)
    return parts if before is None else (*parts, value_before)


def _features_parts(y, product, basis):
    vals, grads = basis.value_and_grad(y)
    cv = product(vals)  # row l is C @ f_l
    value = float(np.einsum("li,li->l", vals, cv).sum())  # sum_l f_l' C f_l
    grad = lambda: 2.0 * np.einsum("li,lia->ia", cv, grads)

    def hessian():
        def cross(s):  # v -> s * 2 sum_l grad f_l (C g_l), g[l, k] = f_l'(y_k) . v_k
            def apply(v):
                g = np.einsum("lkb,kb->lk", grads, v)
                return (2.0 * s) * np.einsum("lia,li->ia", grads, product(g))
            return apply
        return 2.0 * basis.hess(y, cv), (cross,)

    return value, grad, deferred(hessian)


def constraint_function(coupling, test_functions):
    """Bind a constraint to the coupling of one solve.

    ``coupling`` is what :func:`baryflow.couplings.build_couplings` returns.
    ``test_functions`` is the kde bandwidth, positive, or the features mode's
    :class:`MonomialBasis`, whose m terms weigh equally.  Features keep the
    coupling's product with C^T, and kde its reads of C^T; each holds only
    what it reads.  Returns ``parts(y) -> (value, grad, hvp)`` for a finite
    N x d float y, under the module's lazy contract.  kde's ``parts`` also
    takes ``before``, points of y's shape, and then returns
    ``(value, grad, hvp, value_before)``: the value at ``before`` with the
    centers at y.  One call forms y's frame (their mean, the scaled points
    and the centers' factor) once, scores both point sets in it, and frees
    the kernel at ``before`` before it builds y's.
    """
    if isinstance(test_functions, MonomialBasis):
        product = coupling.product()
        return lambda y: _features_parts(y, product, test_functions)
    kde, a = coupling.kde(), float(test_functions)
    return lambda y, before=None: _kde_parts(y, kde, a, before)


def _built_on_first_read(build, term):
    """``build()`` on the first call, kept after; raises NumericError when it is not finite."""
    def checked():
        grad = build()
        if not np.isfinite(grad).all():
            raise NumericError(f"non-finite {term} gradient")
        return grad
    return deferred(checked)


@dataclass
class ObjectiveEval:
    """One objective evaluation, split into its cost and constraint parts.

    No multiplier enters an evaluation: the solver forms L = L_C + lam * L_F and
    its gradient at whatever multiplier its outer iteration holds, and
    :meth:`hvp` weighs the two Hessian builds the same way.  ``grads`` holds
    the cost's and the constraint's gradient builders; each gradient is built
    on the first read of ``grad_cost`` or ``grad_constraint``, which raises
    NumericError when it is not finite, and the build is dropped then.
    :func:`~baryflow.solver.solve` tells who holds ``hvp_cost`` and
    ``hvp_constraint`` and when they are dropped.  ``L_F_before`` is kde's
    value at :func:`evaluate`'s ``before``; None without one.
    """

    L_C: float
    L_F: float
    grads: tuple = field(repr=False)
    hvp_cost: Callable | None = None
    hvp_constraint: Callable | None = None
    L_F_before: float | None = None

    grad_cost = property(lambda self: self.grads[0]())
    grad_constraint = property(lambda self: self.grads[1]())

    def hvp(self, lam):
        """The terms of H_C + lam * H_F that :func:`~baryflow.costs.block_operator` forms."""
        return [(1.0, self.hvp_cost), (lam, self.hvp_constraint)]


def evaluate(cost, constraint, y, before=None):
    """Evaluate a bound cost and constraint at y: values now, gradients and products on first read.

    ``cost`` and ``constraint`` come from :func:`baryflow.costs.cost_function`
    and :func:`constraint_function`; kernel centers sit at y.  Raises
    NumericError when either value is not finite, and on a read of ``grad_cost``
    or ``grad_constraint`` whose gradient is not finite.  With ``before`` (kde
    only) the same constraint call also scores those points, as ``L_F_before``:
    the descent check's right side.
    """
    cv, cg, chvp = cost(y)
    fv, fg, fhvp, *fv_before = constraint(y) if before is None else constraint(y, before=before)
    if not (math.isfinite(cv) and math.isfinite(fv)):
        raise NumericError("non-finite objective evaluation")
    grads = (_built_on_first_read(cg, "cost"), _built_on_first_read(fg, "constraint"))
    return ObjectiveEval(L_C=cv, L_F=fv, grads=grads, hvp_cost=chvp, hvp_constraint=fhvp,
                         L_F_before=fv_before[0] if fv_before else None)
