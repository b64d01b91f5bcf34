"""Objective assembly: constraint functionals, gradients, Hessian-vector products.

The full objective is L = L_C + lambda * L_F, where L_C is a cost from
:mod:`baryflow.costs` and L_F tests whether the mapped points depend on the
covariate.  An evaluation returns the two parts separately; the multiplier
lambda belongs to the solver's outer iteration, which combines them.  Two
constraint modes exist:

* ``kde`` scores the discrepancy between conditional kernel density
  estimates of the mapped points: L_F = sum_{i,l} K_a(y_l, y_i) C[i, l].
  Its descent direction differentiates the kernel only through the
  evaluation slot, holding the kernel centers at the current positions.
  The kernel centers default to the evaluated points; the solver's descent
  check passes the stepped points as ``centers`` to score the points before
  the step.
* ``features`` penalizes disagreement of conditional feature averages
  through the quadratic forms f_l' C f_l over the m monomials f_l of one
  :class:`MonomialBasis`: ``len`` is m, ``value_and_grad(y)`` gives their
  (m, N) values and (m, N, d) gradients and ``hess(y)`` their (m, N, d, d)
  Hessians.  Gradients use the symmetric form 2 * (C f_l)_i * f_l'(y_i),
  exact for symmetric C.  The C built by this package is symmetric only to
  rounding (categorical covariates) or to the Sinkhorn tolerance (continuous
  ones), and so are the gradient and the Hessian-vector products MINRES reads.

The constraint binds to one solve through :func:`constraint_function`, which
takes a kde bandwidth or a features basis and checks it and C once; per call,
only the features' width is checked, and the solver checks that each candidate
is finite.

Both terms of the objective share one contract: a bound term returns its value,
its gradient as a function that builds it, and its Hessian-vector product.  The
constraint's gradient builds from the terms the value left behind (the kde
kernel matrix, the features' C f_l), which the Hessian-vector product shares.
:func:`evaluate` computes both values and builds each gradient on its first
read.  The solver reads them only at the points it keeps, so a rejected step
or a descent check's right side pays for its values alone.

Hessian-vector products apply the Jacobian of the returned gradient field,
so they include the cross terms that arise from the kernel centers (or
feature averages) tracking the points.  They reuse the gradient's
intermediate terms and never form the (N, N, d, d) Hessian.  kde sets up
per-point d x d blocks once per evaluation, in O(N^2 d^2), on the first
product (see :func:`baryflow.costs.pair_outer_operator`); each product is then
one N x N by N x (d^2 + 2d + 1) matrix product.  A features product costs
O(N^2 m + N m d^2) for m features.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .costs import deferred, pair_outer_operator
from .couplings import kernel_cross_matrix
from .errors import InvalidInputError, NumericError, positive_number

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
        E = np.array(self.exponents)
        if E.ndim != 2 or 0 in E.shape or E.dtype.kind not in "iu" or (E < 0).any():
            raise InvalidInputError("exponents must be a nonempty (m, d) array of integers >= 0")
        E = E.astype(np.intp)
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

    def __len__(self):
        return self.exponents.shape[0]

    def _powers(self, y):
        n, d = y.shape
        if d != self.exponents.shape[1]:
            raise InvalidInputError(f"points have {d} coordinates, not {self.exponents.shape[1]}")
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

    def hess(self, y):
        n, d = y.shape
        table = self._powers(y).reshape(-1, n)
        out = np.zeros((len(self), n, d, d))
        for j1, j2, rows, coeff, slots, rest in self._hess_terms:
            block = coeff * table[slots[0]]
            for slot in slots[1:]:
                block *= table[slot]
            block *= _product(table[r] for r in rest)
            out[rows, :, j1, j2] = out[rows, :, j2, j1] = block
        return out


def monomial_features(dim, degree):
    """The basis of all monomials of total degree 1..degree in ``dim`` variables.

    Degree 1 yields the coordinates; degree 2 adds squares and cross terms,
    ordered by total degree then lexicographically (y1, y2, y1^2, y1*y2, ...).
    """
    if dim < 1 or degree < 1:
        raise InvalidInputError("dim and degree must be >= 1")
    return MonomialBasis([
        np.bincount(combo, minlength=dim)
        for total in range(1, degree + 1)
        for combo in itertools.combinations_with_replacement(range(dim), total)
    ])


def _kde_parts(y, CT, bandwidth, centers, want_hvp):
    a2 = bandwidth**2
    M = kernel_cross_matrix(y, centers, bandwidth)
    M *= CT  # M[j, i] = K(y_j, centers_i) * C[i, j]
    value = float(M.sum())
    s = deferred(lambda: M.sum(axis=1))
    grad = lambda: -(s()[:, None] * y - M @ centers) / a2
    hvp = None
    if want_hvp:
        pair = deferred(lambda: pair_outer_operator(M, y, centers))

        def hvp(v):
            outer, Mv = pair()(v)
            return (outer / a2 - s()[:, None] * v + Mv) / a2
    return value, grad, hvp


def _features_parts(y, C, basis, want_hvp):
    vals, grads = basis.value_and_grad(y)
    cv = vals @ C.T  # row l is C @ f_l
    value = float(np.einsum("li,li->l", vals, cv).sum())  # sum_l f_l' C f_l
    grad = lambda: 2.0 * np.einsum("li,lia->ia", cv, grads)
    hvp = None
    if want_hvp:
        diag = deferred(lambda: 2.0 * np.einsum("li,liab->iab", cv, basis.hess(y)))

        def hvp(v):
            g = np.einsum("lkb,kb->lk", grads, v)  # g[l, k] = f_l'(y_k) . v_k
            cross = 2.0 * np.einsum("lia,li->ia", grads, g @ C.T)
            return np.einsum("iab,ib->ia", diag(), v) + cross
    return value, grad, hvp


def constraint_function(C, test_functions):
    """Bind a constraint to the N x N centering matrix C of one solve.

    ``test_functions`` is a kde bandwidth (a positive number) or the
    :class:`MonomialBasis` of features mode, whose m terms weigh equally.
    Checks here, once, that C is square and ``test_functions`` is one of the
    two; kde keeps the C-contiguous copy of C^T its kernel product reads.
    Returns ``parts(y, centers=None, want_hvp=False) -> (value, grad, hvp)``
    for a finite N x d float y.  ``grad`` is a function of no arguments that builds
    the N x d gradient.  For kde it differentiates only the evaluation slot of
    the kernel (centers held at ``centers``, default ``y``; features ignore
    them).  ``hvp`` (None unless ``want_hvp``) applies the Jacobian of that
    gradient field once the centers track the points again to an N x d array.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise InvalidInputError("the centering matrix C must be square")
    if isinstance(test_functions, MonomialBasis):
        return lambda y, centers=None, want_hvp=False: _features_parts(
            y, C, test_functions, want_hvp)
    if not positive_number(test_functions):
        raise InvalidInputError("kde needs a positive bandwidth_a; features need a MonomialBasis")
    CT, a = np.ascontiguousarray(C.T), float(test_functions)
    return lambda y, centers=None, want_hvp=False: _kde_parts(
        y, CT, a, y if centers is None else centers, want_hvp)


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

    No multiplier enters an evaluation: the solver forms L = L_C + lam * L_F
    and its gradient at whatever multiplier its outer iteration holds, and
    :meth:`hvp` combines the two products the same way.  ``grads`` holds the
    cost's and the constraint's gradient builders; each gradient is built on
    the first read of ``grad_cost`` or ``grad_constraint``, which raises
    NumericError when it is not finite, and the build and what it held (such
    as the kernel matrix) are dropped then.
    """

    L_C: float
    L_F: float
    grads: tuple = field(repr=False)
    hvp_cost: Callable | None = None
    hvp_constraint: Callable | None = None

    grad_cost = property(lambda self: self.grads[0]())
    grad_constraint = property(lambda self: self.grads[1]())

    def hvp(self, lam):
        """Hessian-vector product v -> (H_C + lam * H_F) v at multiplier ``lam``."""
        if self.hvp_cost is None:
            raise InvalidInputError("evaluation was performed without Hessian-vector products")
        return lambda v: self.hvp_cost(v) + lam * self.hvp_constraint(v)


def evaluate(cost, constraint, y, want_hvp=False):
    """Evaluate a bound cost and constraint at y: values now, gradients on first read.

    ``cost`` and ``constraint`` come from :func:`baryflow.costs.cost_function`
    and :func:`constraint_function`; kernel centers sit at y.  Raises
    NumericError when either value is not finite.  Each gradient is built on
    the first read of ``grad_cost`` or ``grad_constraint``, which raises
    NumericError when it is not finite; the solver reads them only at the
    starting points and at each accepted step.  Hessian-vector products come
    on request.
    """
    cv, cg, chvp = cost(y, want_hvp=want_hvp)
    fv, fg, fhvp = constraint(y, want_hvp=want_hvp)
    if not np.isfinite([cv, fv]).all():
        raise NumericError("non-finite objective evaluation")
    grads = (_built_on_first_read(cg, "cost"), _built_on_first_read(fg, "constraint"))
    return ObjectiveEval(L_C=cv, L_F=fv, grads=grads, hvp_cost=chvp, hvp_constraint=fhvp)
