"""Objective assembly: constraint functionals, gradients, Hessian-vector products.

The full objective is L = L_C + lambda * L_F, where L_C is a cost from
:mod:`baryflow.costs` and L_F tests whether the mapped points depend on the
covariate.  Two constraint modes exist:

* ``kde`` scores the discrepancy between conditional kernel density
  estimates of the mapped points: L_F = sum_{i,l} K_a(y_l, y_i) C[i, l].
  Its descent direction differentiates the kernel only through the
  evaluation slot, holding the kernel centers at the current positions.
  :func:`constraint_parts` accepts other ``centers``: the solver's descent
  check scores the points before a step against centers at the stepped
  points.
* ``features`` penalizes disagreement of conditional feature averages
  through the quadratic forms f_l' C f_l.  Gradients use the symmetric form
  2 * (C f_l)_i * f_l'(y_i), which is the exact derivative for symmetric C
  (the two one-sided terms coincide; couplings built by this package are
  always symmetric).

Hessian-vector products apply the Jacobian of the returned gradient field,
so they include the cross terms that arise from the kernel centers (or
feature averages) tracking the points.  They reuse the gradient's
intermediate terms and never form the (N, N, d, d) Hessian: a kde product
costs O(N^2 d) in matrix products, a features product O(N^2 m + N m d^2)
for m features.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .costs import cost_parts, pair_outer_hvp
from .couplings import kernel_cross_matrix
from .errors import InvalidInputError, NumericError

__all__ = [
    "Monomial",
    "ObjectiveEval",
    "TestFunctionSpec",
    "constraint_parts",
    "evaluate",
    "monomial_features",
]


@dataclass(frozen=True)
class Monomial:
    """Monomial feature prod_j y_j**e_j with analytic gradient and Hessian."""

    exponents: tuple

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


def monomial_features(dim, degree):
    """All monomials of total degree 1..degree in ``dim`` variables.

    Degree 1 yields the coordinates; degree 2 adds squares and cross terms,
    ordered by total degree then lexicographically (y1, y2, y1^2, y1*y2, ...).
    """
    if dim < 1 or degree < 1:
        raise InvalidInputError("dim and degree must be >= 1")
    feats = []
    for total in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(dim), total):
            exps = [0] * dim
            for j in combo:
                exps[j] += 1
            feats.append(Monomial(exponents=tuple(exps)))
    return tuple(feats)


@dataclass(frozen=True)
class TestFunctionSpec:
    """Which constraint functional to use and its parameters.

    ``mode`` is "kde" (needs ``bandwidth_a``) or "features" (needs a
    non-empty tuple of feature objects exposing value/grad/hess).  Optional
    ``feature_weights`` reweight the per-feature terms; uniform when None.
    """

    mode: str
    bandwidth_a: float | None = None
    features: tuple = ()
    feature_weights: np.ndarray | None = None

    def __post_init__(self):
        if self.mode == "kde":
            if self.bandwidth_a is None or not np.isfinite(self.bandwidth_a) or self.bandwidth_a <= 0:
                raise InvalidInputError("kde mode needs a positive bandwidth_a")
        elif self.mode == "features":
            if len(self.features) == 0:
                raise InvalidInputError("features mode needs at least one feature")
            if self.feature_weights is not None:
                w = np.asarray(self.feature_weights, dtype=float)
                if w.shape != (len(self.features),) or np.any(w < 0):
                    raise InvalidInputError("feature_weights must be nonnegative, one per feature")
                object.__setattr__(self, "feature_weights", w)
        else:
            raise InvalidInputError(f"unknown test-function mode {self.mode!r}")

    @classmethod
    def kde(cls, bandwidth_a):
        return cls(mode="kde", bandwidth_a=float(bandwidth_a))

    @classmethod
    def polynomial(cls, dim, degree, feature_weights=None):
        return cls(mode="features", features=monomial_features(dim, degree),
                   feature_weights=feature_weights)


def _kde_parts(y, C, bandwidth, centers, want_hvp):
    a2 = bandwidth**2
    M = kernel_cross_matrix(y, centers, bandwidth)
    M *= C.T  # M[j, i] = K(y_j, centers_i) * C[i, j]
    value = float(M.sum())
    s = M.sum(axis=1)
    grad = -(s[:, None] * y - M @ centers) / a2
    hvp = None
    if want_hvp:
        def hvp(v):
            return (pair_outer_hvp(M, y, centers, v) / a2 - s[:, None] * v + M @ v) / a2
    return value, grad, hvp


def _features_parts(y, C, features, weights, want_hvp):
    m = len(features)
    w = np.ones(m) if weights is None else weights
    vals = np.stack([f.value(y) for f in features])
    grads = np.stack([f.grad(y) for f in features])
    cv = vals @ C.T  # row l is C @ f_l
    terms = np.einsum("li,li->l", vals, cv)  # f_l' C f_l
    value = float(terms.sum() if weights is None else weights @ terms)
    grad = 2.0 * np.einsum("l,li,lia->ia", w, cv, grads)
    hvp = None
    if want_hvp:
        hesses = np.stack([f.hess(y) for f in features])
        diag = 2.0 * np.einsum("l,li,liab->iab", w, cv, hesses)

        def hvp(v):
            g = np.einsum("lkb,kb->lk", grads, v)  # g[l, k] = f_l'(y_k) . v_k
            cross = 2.0 * np.einsum("l,lia,li->ia", w, grads, g @ C.T)
            return np.einsum("iab,ib->ia", diag, v) + cross
    return value, grad, hvp


def constraint_parts(y, C, tf_spec, centers=None, want_hvp=False):
    """Constraint value, gradient and optional Hessian-vector product.

    For kde mode the gradient differentiates only the evaluation slot of the
    kernel (centers held fixed at ``centers``, default ``y``); ``hvp`` (None
    unless ``want_hvp``) applies the Jacobian of that gradient field once the
    centers track the points again to an N x d array.
    """
    y = np.asarray(y, dtype=float)
    C = np.asarray(C, dtype=float)
    if y.ndim != 2 or C.shape != (y.shape[0], y.shape[0]):
        raise InvalidInputError("y must be N x d with a matching N x N centering matrix")
    if tf_spec.mode == "kde":
        centers = y if centers is None else np.asarray(centers, dtype=float)
        return _kde_parts(y, C, tf_spec.bandwidth_a, centers, want_hvp)
    return _features_parts(y, C, tf_spec.features, tf_spec.feature_weights, want_hvp)


@dataclass
class ObjectiveEval:
    """One objective evaluation: totals, split parts, Hessian-vector products.

    ``grad`` combines cost and constraint at the ``lam`` supplied at
    evaluation time; the ``*_cost`` / ``*_constraint`` parts allow
    recombination at a different multiplier without re-evaluating.
    """

    L: float
    L_C: float
    L_F: float
    lam: float
    grad: np.ndarray
    grad_cost: np.ndarray
    grad_constraint: np.ndarray
    hvp_cost: Callable | None = None
    hvp_constraint: Callable | None = None

    def hvp(self, lam):
        """Hessian-vector product v -> (H_C + lam * H_F) v at multiplier ``lam``."""
        if self.hvp_cost is None:
            raise InvalidInputError("evaluation was performed without Hessian-vector products")
        return lambda v: self.hvp_cost(v) + lam * self.hvp_constraint(v)


def evaluate(x, y, lam, cost_model, C, tf_spec, Z=None, want_hvp=False):
    """Evaluate L = L_C + lam * L_F with gradients (and Hessian-vector products on request).

    Kernel centers sit at the current ``y``.  Raises NumericError when a
    non-finite value or gradient shows up.
    """
    if not np.isfinite(lam) or lam < 0:
        raise InvalidInputError("lam must be a nonnegative finite number")
    cv, cg, chvp = cost_parts(cost_model, x, y, Z, want_hvp=want_hvp)
    fv, fg, fhvp = constraint_parts(y, C, tf_spec, want_hvp=want_hvp)
    total = cv + lam * fv
    grad = cg + lam * fg
    if not (np.isfinite(total) and np.isfinite(grad).all()):
        raise NumericError("non-finite objective evaluation")
    return ObjectiveEval(
        L=total, L_C=cv, L_F=fv, lam=lam,
        grad=grad, grad_cost=cg, grad_constraint=fg,
        hvp_cost=chvp, hvp_constraint=fhvp,
    )
