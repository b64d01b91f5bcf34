"""Covariate couplings: the coupling Z of class labels or of continuous covariates.

Z encodes similarity between covariate values: for categorical covariates
it averages over class members, for continuous ones it is the bi-stochastic
scaling of their Gaussian kernel.  Both are exactly symmetric, with unit
row and column sums (a Sinkhorn Z's to its tolerance), so the centering
matrix C = Z - 11^T/N that the objective contracts against is symmetric:
its columns sum to zero and x'Cx >= 0 for every x whenever Z is positive
semidefinite.  :func:`build_couplings` returns one small, read-only object
per solve, and a solve reads the covariates only through it, in any order:
the conditional means under Z, the features product with C^T, kde's reads
of C^T (told in :meth:`CategoricalCoupling.kde` and :meth:`DenseCoupling.kde`)
and the dense Z.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .errors import ConvergenceError, InvalidInputError, as_points

__all__ = [
    "CategoricalCoupling",
    "Covariates",
    "DenseCoupling",
    "build_couplings",
    "median_heuristic_bandwidth",
]


_BLOCK = 32  # rows (and columns) per block of in-place work on an N x N array
_CLASS_FORM_MAX_K = 4  # most classes for which kde reads a categorical C^T in its class form


def median_heuristic_bandwidth(points):
    """Median pairwise distance of N x d float points divided by sqrt(2); 1.0 when degenerate.

    Scale-robust default bandwidth.  The median is one in-place selection of
    the distances ``pdist`` returns, so they are held once.  It is exactly
    ``np.median``'s: finite points' distances need no NaN check
    (``np.median``'s second selection), and an even count takes the mean
    (lo + hi) / 2 of the two middle values, as ``np.median`` does.
    """
    if points.shape[0] < 2:
        return 1.0
    dist = pdist(points)
    mid = len(dist) // 2
    if len(dist) % 2:
        dist.partition(mid)
        med = float(dist[mid])
    else:
        dist.partition([mid - 1, mid])
        med = (float(dist[mid - 1]) + float(dist[mid])) / 2.0
    if med <= 0.0:
        return 1.0
    return med / np.sqrt(2.0)


def _scale_in_place(K, tol=1e-10, max_iter=10_000):
    """Scale an exactly symmetric, nonnegative K in place into the bi-stochastic Z = D K D.

    The damped symmetric fixed-point step d <- sqrt(d / (K d)) keeps one
    scaling vector, so rows and columns are balanced together.  Z[i, j] is
    formed as K[i, j] (d_i d_j) in mirrored pairs of ``_BLOCK`` x ``_BLOCK``
    blocks, exactly symmetric because K is and d_i d_j = d_j d_i, and positive
    semidefinite whenever K is.  Raises InvalidInputError when K d has an
    entry <= 0, and ConvergenceError, carrying the achieved residual, when the
    largest row-sum residual is above ``tol`` after ``max_iter`` steps.
    """
    d = np.ones(K.shape[0])
    residual = np.inf
    for _ in range(max_iter):
        u = K @ d
        if np.any(u <= 0):
            raise InvalidInputError("K admits no positive bi-stochastic scaling")
        r = d * u  # row sums of diag(d) K diag(d)
        residual = float(np.abs(r - 1.0).max())
        if residual <= tol:
            break
        d = np.sqrt(d / u)
    if residual > tol:
        raise ConvergenceError(
            f"Sinkhorn scaling did not reach tol={tol:g} "
            f"(residual {residual:.3e} after {max_iter} iterations)",
            residual=residual,
            iterations=max_iter,
        )
    n = len(K)
    for r0 in range(0, n, _BLOCK):
        rows = slice(r0, r0 + _BLOCK)
        for c0 in range(r0, n, _BLOCK):
            cols = slice(c0, c0 + _BLOCK)
            block = K[rows, cols]
            block *= d[rows, None] * d[cols]
            K[cols, rows] = block.T


def _classes(labels):
    """Labels as a non-empty 1-D array, with each label's class index and the class sizes.

    Classes are numbered in sorted label order.  Raises InvalidInputError on
    NaN labels, of any dtype, and on labels that cannot be ordered together
    (None beside numbers, or numbers beside strings).
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise InvalidInputError("labels must be a non-empty 1-D sequence")
    if labels.dtype.kind in "fcO" and (labels != labels).any():
        raise InvalidInputError("labels must not be NaN")
    try:
        _, index, counts = np.unique(labels, return_inverse=True, return_counts=True)
    except TypeError as err:
        raise InvalidInputError(f"labels must be mutually comparable: {err}") from None
    return labels, index, counts


@dataclass(frozen=True)
class Covariates:
    """Conditioning data: class labels, or continuous vectors.

    Labels must form a non-empty 1-D array of mutually comparable labels
    with no NaN; their class ``index`` and sizes ``counts`` are taken here,
    and the coupling holds them.  Continuous values must form a finite
    N x m float matrix.  Their kernel's bandwidth is a setting of the solve,
    ``SolverConfig.bandwidth_b``, not of the data.
    """

    kind: str
    labels: np.ndarray | None = None
    values: np.ndarray | None = None
    index: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    counts: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "categorical":
            for name, value in zip(("labels", "index", "counts"), _classes(self.labels)):
                object.__setattr__(self, name, value)
        elif self.kind == "continuous":
            object.__setattr__(self, "values", as_points(self.values, "covariate values"))
        else:
            raise InvalidInputError(f"unknown covariate kind {self.kind!r}")

    @classmethod
    def categorical(cls, labels):
        return cls(kind="categorical", labels=labels)

    @classmethod
    def continuous(cls, values):
        return cls(kind="continuous", values=values)

    @property
    def n(self):
        if self.kind == "categorical":
            return len(self.labels)
        return int(self.values.shape[0])


class CategoricalCoupling:
    """The coupling of class labels, held as each point's class index and the class sizes.

    Z[i, j] is 1/N_c when points i and j share class c, else 0.  With
    U = [class indicator | 1], an N x (K + 1) matrix, and w = [1/N_c | -1/N],
    C = Z - 11^T/N = U diag(w) U^T, symmetric by construction.  Only the
    class index and sizes, as :class:`Covariates` takes them, and w are
    stored; each method builds what it returns.
    """

    def __init__(self, index, counts):
        self.index, self.counts = index, counts
        self._w = np.append(1.0 / counts, -1.0 / len(index))

    def product(self):
        """F -> F @ C^T for an (m, N) array F, as ((F @ U) * w) @ U^T.

        Row l of the result is f_l's class means minus its overall mean.
        The function holds U, N x (K + 1) doubles for K classes, and costs
        O(N m K): linear in N for a fixed number of classes.
        """
        index, k, w = self.index, len(self.counts), self._w
        U = np.zeros((len(index), k + 1))
        U[np.arange(len(index)), index] = 1.0
        U[:, k] = 1.0
        return lambda F: ((F @ U) * w) @ U.T

    def kde(self):
        """kde's reads of C^T, as :meth:`DenseCoupling.kde` gives them, from C^T's K distinct rows.

        Row l of C^T is CTrow[c(l)], CTrow[c, i] = [c(i) = c] / N_c - 1/N,
        the entries of Z - 1/N exactly.  With at most ``_CLASS_FORM_MAX_K``
        classes the reads take the class form: ``value(E)`` is
        vdot(Ind @ E, CTrow), Ind the K x N class indicator; ``terms`` takes
        s and M @ w from one product E @ (CTrow^T (x) [1 | w]), gathered by
        class; ``weigh()``, which only a Hessian-vector product reads, forms
        M in E in blocks of ``_BLOCK`` rows, bitwise the product with a dense
        C^T.  For N x d points the class form holds 3 K N doubles, a gradient
        forms 2 K (d + 1) N more, and no N x N array is formed beside the
        kernel.  Its products take K and K (d + 1) multiply-adds per kernel
        entry, so with more classes the reads are those of
        :class:`DenseCoupling` on C^T, formed in place on the dense Z, bit for
        bit, and hold and cost what a Sinkhorn coupling's do.
        """
        index, n, k, w = self.index, len(self.index), len(self.counts), self._w
        if k > _CLASS_FORM_MAX_K:
            CT = self.Z()
            CT -= 1.0 / n
            return DenseCoupling(CT).kde()
        is_class = np.arange(k)[:, None] == index
        CTrow = np.where(is_class, w[:k, None] + w[k], w[k])
        Ind = is_class.astype(float)
        CTcol = np.ascontiguousarray(CTrow.T)
        own = np.arange(n) * k + index  # row (j, c(j)) of an (N K, .) array

        def weigh(E):
            for r0 in range(0, n, _BLOCK):
                E[r0:r0 + _BLOCK] *= CTrow[index[r0:r0 + _BLOCK]]
            return E

        def terms(E, w):
            # P[j, (c, b)] = sum_i E[j, i] CTrow[c, i] [1 | w][i, b]
            F = np.empty((n, k, w.shape[1] + 1))
            F[:, :, 0] = CTcol
            for b in range(w.shape[1]):
                np.multiply(CTcol, w[:, b:b + 1], out=F[:, :, b + 1])
            G = np.take((E @ F.reshape(n, -1)).reshape(n * k, -1), own, axis=0)
            return G[:, 0], lambda: G[:, 1:], lambda: weigh(E)

        return lambda E: float(np.vdot(Ind @ E, CTrow)), terms

    def conditional_means(self, x):
        """Each point's class mean of the N x d points x: the conditional mean under Z."""
        cond = np.empty_like(x)
        for c in range(len(self.counts)):
            idx = self.index == c
            cond[idx] = x[idx].mean(axis=0)
        return cond

    def Z(self):
        """The dense N x N coupling, from one comparison of the class index."""
        return np.where(self.index[:, None] == self.index, (1.0 / self.counts)[self.index], 0.0)


class DenseCoupling:
    """A coupling held as its N x N C^T = Z - 1/N alone: a Sinkhorn coupling.

    C^T is exactly symmetric because the dense Z it comes from is.  Every
    method reads it and none changes it.  A categorical coupling of more than
    ``_CLASS_FORM_MAX_K`` classes reads kde through one, built from its dense Z.
    """

    def __init__(self, CT):
        self.CT = CT

    def product(self):
        """F -> F @ C^T for an (m, N) array F; the function holds C^T alone."""
        CT = self.CT
        return lambda F: F @ CT

    def kde(self):
        """kde's reads of C^T: ``(value, terms)``, which hold C^T.

        For an N x N kernel E, ``value(E)`` is sum_{j,i} E[j, i] C[i, j].
        ``terms(E, w)``, for an N x d w, returns the row sums s of
        M = E * C^T and two functions: one returns M @ w, and ``weigh()``,
        called at most once, returns M formed in E.  Here M is formed in
        place when ``terms`` is called, and M @ w when it is asked for.
        """
        CT = self.CT

        def terms(E, w):
            M = np.multiply(E, CT, out=E)
            return M.sum(axis=1), lambda: M @ w, lambda: M

        return lambda E: float(np.vdot(E, CT)), terms

    def conditional_means(self, x):
        """Z^T x = C x + mean(x) for N x d points x: row k is the weighted mean sum_i Z[i, k] x_i."""
        return self.CT.T @ x + x.mean(axis=0)

    def Z(self):
        """The dense Z = C^T + 1/N, as a new array."""
        return self.CT + 1.0 / len(self.CT)


def build_couplings(covariates, bandwidth_b="auto"):
    """Return the coupling of one solve: a :class:`CategoricalCoupling` or a :class:`DenseCoupling`.

    Computed once per solve.  Categorical covariates give the O(N) class
    form, built from the class index :class:`Covariates` took, and take no
    bandwidth: a ``bandwidth_b`` other than "auto" raises InvalidInputError.
    Continuous values v_i with bandwidth b (``bandwidth_b``, or the median
    heuristic on the values for "auto") give the Gaussian kernel
    K[i, j] = exp(-||v_i - v_j||^2 / (2 b^2)), formed in place from the
    squared distances, scaled in place by :func:`_scale_in_place` into the
    dense Z, and turned in place into C^T = Z - 1/N: the build holds one
    N x N array.  The density's constant is left out, as the scaling divides
    it out.  A b whose 2 b^2 is below the normal float range raises
    InvalidInputError; a huge b gives Z = 11^T/N.
    """
    if covariates.kind == "categorical":
        if bandwidth_b != "auto":
            raise InvalidInputError("bandwidth_b applies only to continuous covariates")
        return CategoricalCoupling(covariates.index, covariates.counts)
    values = covariates.values
    b = float(median_heuristic_bandwidth(values) if bandwidth_b == "auto" else bandwidth_b)
    if not 2.0 * b * b >= sys.float_info.min:  # numpy divides by 2 b^2
        raise InvalidInputError(f"bandwidth_b = {b!r} puts 2 b^2 below the normal float range")
    Z = cdist(values, values, metric="sqeuclidean")
    Z /= -(2.0 * b * b)
    np.exp(Z, out=Z)
    _scale_in_place(Z)
    Z -= 1.0 / len(Z)  # C^T, as Z is symmetric
    return DenseCoupling(Z)
