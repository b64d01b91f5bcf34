"""Covariate couplings: the coupling Z of class labels or of continuous covariates.

The coupling matrix Z encodes similarity between covariate values.  For
categorical covariates it averages over class members; for continuous ones it
is the bi-stochastic scaling of their Gaussian kernel matrix of bandwidth b,
a setting of the solve.  Both are exactly symmetric, with unit row and
column sums (a Sinkhorn Z's to its tolerance), so the centering matrix
C = Z - 11^T/N, the quadratic form the objective contracts against, is
symmetric: its columns sum to zero and x'Cx >= 0 for every x whenever Z is
positive semidefinite.

:func:`build_couplings` returns one small object per solve.  A
:class:`CategoricalCoupling` holds only each point's class and the class
sizes: with U = [class indicator | 1] and w = [1/N_c | -1/N], C is
U diag(w) U^T, symmetric by construction, and a product with C^T costs
O(N m K) for m stacked rows and K classes.  Every coupling's C is
Z - 11^T/N exactly, so C^T = C.  A categorical C^T has only K distinct
rows, one per class; with at most four classes kde weighs its N x N
kernel by C^T from those K rows and forms no N x N array of its own, and
with more it reads the dense Z as a :class:`DenseCoupling`, bit for bit
the Sinkhorn path.  A :class:`DenseCoupling` holds a Sinkhorn coupling as
its N x N Z alone, with C implied.  The continuous covariates' kernel is
formed and scaled into Z in place, so a continuous-covariate solve holds
one N x N coupling array from the kernel to the last read of kde.  Both
give the conditional means under Z, the features product, kde's reads of
C^T and the dense Z, the last only when a caller asks: a solve reads the
covariates only through its coupling.
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

    Scale-robust default bandwidth.  Falls back to 1.0 when there are no
    pairs or all points coincide.  The median is one in-place selection of
    the distances ``pdist`` returns, so they are held once.  It is exactly
    ``np.median``'s: the points are finite, checked where they entered, so
    the distances need no NaN check (``np.median``'s second selection), and
    an even count takes the mean (lo + hi) / 2 of the two middle values, as
    ``np.median`` does.
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
    """Scale a symmetric, nonnegative K in place into the bi-stochastic Z = D K D.

    The damped symmetric fixed-point step d <- sqrt(d / (K d)) keeps one
    scaling vector, so rows and columns are balanced together.  Z is formed
    as (D K D + (D K D)^T) / 2 in mirrored pairs of 32 x 32 blocks, so it is
    exactly symmetric, and positive semidefinite whenever K is.  Raises
    InvalidInputError when K d has an entry <= 0, and ConvergenceError,
    carrying the achieved residual, when the largest row-sum residual is
    above ``tol`` after ``max_iter`` steps.
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
    K *= d[:, None]
    K *= d[None, :]
    n = len(K)
    for r0 in range(0, n, _BLOCK):
        rows = slice(r0, r0 + _BLOCK)
        for c0 in range(r0, n, _BLOCK):
            cols = slice(c0, c0 + _BLOCK)
            block = np.add(K[rows, cols], K[cols, rows].T)
            block *= 0.5
            K[rows, cols] = block
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

    Labels are checked here, once: a non-empty 1-D array of mutually
    comparable labels with no NaN.  Their class ``index`` (classes numbered
    in sorted label order) and class sizes ``counts`` are taken here too,
    and the coupling holds them.
    Continuous values go through :func:`~baryflow.errors.as_points`, once:
    a finite N x m float matrix, N, m >= 1.  Their kernel's bandwidth is a
    setting of the solve, ``SolverConfig.bandwidth_b``, not of the data.
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
    class index and sizes are stored, as :class:`Covariates` takes them; each
    method builds what it returns.
    """

    def __init__(self, index, counts):
        self.index, self.counts = index, counts

    def product(self):
        """F -> F @ C^T for an (m, N) array F, as ((F @ U) * w) @ U^T.

        Row l of the result is f_l's class means minus its overall mean.
        The function holds U, N x (K + 1) doubles for K classes, and costs
        O(N m K): linear in N for a fixed number of classes.
        """
        index, k = self.index, len(self.counts)
        U = np.zeros((len(index), k + 1))
        U[np.arange(len(index)), index] = 1.0
        U[:, k] = 1.0
        w = np.append(1.0 / self.counts, -1.0 / len(index))
        return lambda F: ((F @ U) * w) @ U.T

    def kde(self):
        """kde's reads of C^T, as :meth:`DenseCoupling.kde` gives them, from C^T's K distinct rows.

        Row l of C^T is CTrow[c(l)], CTrow[c, i] = [c(i) = c] / N_c - 1/N,
        the entries of Z - 1/N exactly.  With at most ``_CLASS_FORM_MAX_K``
        classes the reads take the class form: ``value(E)`` is
        vdot(Ind @ E, CTrow), Ind the K x N class indicator; ``terms`` takes
        s and M @ w from one product E @ (CTrow^T (x) [1 | w]), gathered by
        class; ``weigh()`` forms M in E in blocks of 32 rows, bitwise the
        product with a dense C^T.  For N x d points the class form holds
        3 K N doubles, a gradient forms 2 K (d + 1) N more, and no N x N
        array is formed.  Its products take K and K (d + 1) multiply-adds
        per kernel entry, so with more classes the reads are those of
        :class:`DenseCoupling` on the dense Z, bit for bit, and hold and
        cost what a Sinkhorn coupling's do.
        """
        index, n, k = self.index, len(self.index), len(self.counts)
        if k > _CLASS_FORM_MAX_K:
            return DenseCoupling(self.Z()).kde()
        is_class = np.arange(k)[:, None] == index
        w = np.append(1.0 / self.counts, -1.0 / n)  # product()'s w: C = U diag(w) U^T
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
    """A coupling held as its dense, exactly symmetric N x N Z alone: a Sinkhorn coupling.

    C = Z - 11^T/N is implied, never stored, and exactly symmetric because Z
    is.  kde forms C^T = C in place on Z, which spends the coupling: it is
    taken last, as :func:`baryflow.solver.solve` takes it, and ``Z()``,
    ``product()`` or ``conditional_means()`` after it raises.  A categorical
    coupling of more than four classes reads kde through one, built from
    its dense Z.
    """

    def __init__(self, Z):
        self._Z = Z

    def _held(self):
        if self._Z is None:
            raise InvalidInputError("the coupling is spent: kde() formed C^T in place on Z")
        return self._Z

    def product(self):
        """F -> F @ C^T = F Z - (F 1) 1^T / N for an (m, N) array F; the function holds Z alone."""
        Z = self._held()
        return lambda F: F @ Z - F.sum(axis=1, keepdims=True) / len(Z)

    def kde(self):
        """kde's reads of C^T: ``(value, terms)``, which hold C^T = Z - 1/N, formed in place on Z.

        For an N x N kernel E, ``value(E)`` is sum_{j,i} E[j, i] C[i, j].
        ``terms(E, w)``, for an N x d w, returns the row sums s of
        M = E * C^T and two functions: one returns M @ w, and ``weigh()``,
        called at most once, returns M formed in E.  Here M is formed when
        ``terms`` is called, and M @ w when it is asked for.  The coupling
        is spent: its Z became C^T.
        """
        CT, self._Z = self._held(), None
        CT -= 1.0 / len(CT)

        def terms(E, w):
            M = np.multiply(E, CT, out=E)
            return M.sum(axis=1), lambda: M @ w, lambda: M

        return lambda E: float(np.vdot(E, CT)), terms

    def conditional_means(self, x):
        """Z^T x for N x d points x: row k is the coupling-weighted mean sum_i Z[i, k] x_i."""
        return self._held().T @ x

    def Z(self):
        """The dense Z itself, until kde spends it."""
        return self._held()


def build_couplings(covariates, bandwidth_b="auto"):
    """Return the coupling of one solve: a :class:`CategoricalCoupling` or a :class:`DenseCoupling`.

    Computed once per solve.  Categorical covariates give the O(N) class
    form, built from the class index :class:`Covariates` took, and take no
    bandwidth: a ``bandwidth_b`` other than "auto" raises InvalidInputError.
    Continuous values v_i of width m with bandwidth b (``bandwidth_b``, or
    the median heuristic on the values for "auto") give the Gaussian kernel
    K[i, j] = (2 pi b^2)^(-m/2) exp(-||v_i - v_j||^2 / (2 b^2)), formed in
    place from the squared distances and scaled in place by
    :func:`_scale_in_place` into the dense Z: the build holds one N x N array.
    A b whose 2 b^2 is subnormal, or whose scale is 0 or overflows, raises InvalidInputError.
    """
    if covariates.kind == "categorical":
        if bandwidth_b != "auto":
            raise InvalidInputError("bandwidth_b applies only to continuous covariates")
        return CategoricalCoupling(covariates.index, covariates.counts)
    values = covariates.values
    b = float(median_heuristic_bandwidth(values) if bandwidth_b == "auto" else bandwidth_b)
    try:  # in Python floats, which raise where numpy would warn
        norm = (2.0 * np.pi * b**2) ** (-0.5 * values.shape[1])
    except ArithmeticError:  # 2 b^2 is zero, or b^2 or the scale overflows
        norm = 0.0
    if not (norm > 0.0 and 2.0 * b**2 >= sys.float_info.min):  # numpy divides by 2 b^2
        raise InvalidInputError(f"bandwidth_b = {b!r} is out of the Gaussian kernel's float range")
    Z = cdist(values, values, metric="sqeuclidean")
    Z /= -(2.0 * b**2)
    np.exp(Z, out=Z)
    Z *= norm
    _scale_in_place(Z)
    return DenseCoupling(Z)
