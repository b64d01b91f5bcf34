"""Covariate couplings: Gaussian kernels, bi-stochastic scaling, centering.

The coupling matrix Z encodes similarity between covariate values.  For
categorical covariates it averages over class members; for continuous ones it
is the bi-stochastic rescaling of their own Gaussian kernel matrix.  The centering
matrix C = Z - rowmean(Z) is the quadratic form the objective contracts
against: its columns sum to zero and x'Cx >= 0 for every x whenever Z is
positive semidefinite with unit row sums.

:func:`build_couplings` returns one small object per solve.  A
:class:`CategoricalCoupling` holds only each point's class and the class
sizes: with U = [class indicator | 1] and w = [1/N_c | -1/N], C is
U diag(w) U^T, symmetric by construction, and a product with C^T costs
O(N m K) for m stacked rows and K classes.  A :class:`DenseCoupling`
holds the N x N arrays of a Sinkhorn coupling.  Both give the product, kde's
C-contiguous C^T and the dense Z, the last two only when a caller asks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .errors import ConvergenceError, InvalidInputError, positive_number

__all__ = [
    "CategoricalCoupling",
    "Covariates",
    "DenseCoupling",
    "build_couplings",
    "categorical_coupling",
    "centering_matrix",
    "median_heuristic_bandwidth",
    "sinkhorn_bistochastic",
]


def kernel_cross_matrix(points_a, points_b, bandwidth):
    """Matrix of normalized Gaussian kernel values K[i, j] = k(a_i, b_j).

    k(u, v) = (2*pi*h^2)^(-d/2) * exp(-||u - v||^2 / (2*h^2)) with h the
    bandwidth and d the width of the point sets; it integrates to one.  Against
    itself a point set gives an exactly symmetric, positive semidefinite matrix,
    as the couplings need; the kde constraint builds its own and does not call this.
    Unchecked: callers pass finite points and a positive bandwidth, checked where they entered.
    """
    a = np.asarray(points_a, dtype=float)
    b = np.asarray(points_b, dtype=float)
    d = a.shape[1]
    norm = (2.0 * np.pi * bandwidth**2) ** (-0.5 * d)
    K = cdist(a, b, metric="sqeuclidean")  # built in place: one N x M array
    K /= -(2.0 * bandwidth**2)
    np.exp(K, out=K)
    K *= norm
    return K


def median_heuristic_bandwidth(points):
    """Median pairwise distance divided by sqrt(2); 1.0 when degenerate.

    Scale-robust default bandwidth.  Falls back to 1.0 when there are no
    pairs or all points coincide.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise InvalidInputError("points must be a 2-D array")
    if points.shape[0] < 2:
        return 1.0
    med = float(np.median(pdist(points), overwrite_input=True))  # no copy of the N^2/2 distances
    if med <= 0.0:
        return 1.0
    return med / np.sqrt(2.0)


def sinkhorn_bistochastic(K, tol=1e-10, max_iter=10_000):
    """Scale a symmetric matrix with positive row action to Z = D K D bi-stochastic.

    Uses the damped symmetric fixed-point step d <- sqrt(d / (K d)), which
    keeps a single scaling vector (rows and columns are balanced together)
    and converges for symmetric matrices with positive entries.  Returns
    ``(Z, d)`` where Z is exactly symmetric and positive semidefinite
    whenever K is.

    Raises ConvergenceError (carrying the achieved residual) if the maximum
    row/column-sum residual does not fall below ``tol`` within ``max_iter``
    iterations.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise InvalidInputError("K must be a square matrix")
    if not np.isfinite(K).all():
        raise InvalidInputError("K must be finite")
    if np.any(K < 0):
        raise InvalidInputError("K must have nonnegative entries")
    scale = max(1.0, float(np.abs(K).max()))
    asymmetry = K - K.T
    np.abs(asymmetry, out=asymmetry)
    if float(asymmetry.max()) > 1e-8 * scale:
        raise InvalidInputError("K must be symmetric")
    del asymmetry
    K = np.add(K, K.T)  # the one working copy: symmetrised here, scaled by d in place below
    K *= 0.5

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
    Z = np.add(K, K.T)
    Z *= 0.5
    return Z, d


def _check_labels(labels):
    """Labels as a non-empty 1-D array; raises InvalidInputError on NaN labels."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise InvalidInputError("labels must be a non-empty 1-D sequence")
    if labels.dtype.kind in "fc" and np.isnan(labels).any():
        raise InvalidInputError("labels must not be NaN")
    return labels


def categorical_coupling(labels):
    """Class-indicator coupling: Z[i, j] = 1/N_i when labels agree, else 0.

    Bi-stochastic and symmetric by construction; block diagonal under any
    class-sorted permutation.
    """
    return CategoricalCoupling(_check_labels(labels)).Z()


def centering_matrix(Z):
    """Subtract each row's mean: C[i, l] = Z[i, l] - mean_k Z[i, k].

    Every column of C sums to zero when Z is bi-stochastic, and the
    quadratic form x'Cx is nonnegative for every x when Z is positive
    semidefinite with unit row sums.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise InvalidInputError("Z must be a square matrix")
    return Z - Z.mean(axis=1, keepdims=True)


@dataclass(frozen=True)
class Covariates:
    """Conditioning data: class labels, or continuous vectors plus a bandwidth.

    Labels are checked here, once: a non-empty 1-D array with no NaN.
    ``bandwidth_b`` applies to continuous covariates only; :func:`build_couplings`
    resolves "auto" with the median heuristic on the values.
    """

    kind: str
    labels: np.ndarray | None = None
    values: np.ndarray | None = None
    bandwidth_b: float | str = "auto"

    def __post_init__(self):
        if self.kind == "categorical":
            object.__setattr__(self, "labels", _check_labels(self.labels))
        elif self.kind == "continuous":
            values = np.asarray(self.values, dtype=float) if self.values is not None else None
            if values is None or values.ndim != 2 or values.shape[0] == 0:
                raise InvalidInputError("continuous covariates need an N x m value matrix")
            if not np.isfinite(values).all():
                raise InvalidInputError("covariate values must be finite")
            object.__setattr__(self, "values", values)
            if self.bandwidth_b != "auto" and not positive_number(self.bandwidth_b):
                raise InvalidInputError("bandwidth_b must be positive or 'auto'")
        else:
            raise InvalidInputError(f"unknown covariate kind {self.kind!r}")

    @classmethod
    def categorical(cls, labels):
        return cls(kind="categorical", labels=np.asarray(labels))

    @classmethod
    def continuous(cls, values, bandwidth_b="auto"):
        return cls(kind="continuous", values=np.asarray(values, dtype=float), bandwidth_b=bandwidth_b)

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
    class index and sizes are stored; each method builds what it returns.
    ``labels`` must be a checked 1-D array, as :class:`Covariates` holds them.
    """

    def __init__(self, labels):
        _, self.index, self.counts = np.unique(labels, return_inverse=True, return_counts=True)

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

    def CT(self):
        """C-contiguous C^T, bitwise equal to that of ``centering_matrix(self.Z())``.

        Each class's row mean of Z is taken from one O(N) representative row,
        as :func:`centering_matrix` takes it from every row of Z; one
        comparison of the class index then fills C^T[l, i] = Z[i, l] - mean_i.
        """
        index, inv = self.index, 1.0 / self.counts
        row_means = np.empty(len(inv))
        row = np.zeros(len(index))
        for c in range(len(inv)):
            members = index == c
            row[members] = inv[c]
            row_means[c] = row.mean()
            row[members] = 0.0
        return np.where(index[:, None] == index, (inv - row_means)[index], -row_means[index])

    def Z(self):
        """The dense N x N coupling, from one comparison of the class index."""
        return np.where(self.index[:, None] == self.index, (1.0 / self.counts)[self.index], 0.0)


class DenseCoupling:
    """A coupling held as its dense N x N arrays: C, and Z when it is known.

    Sinkhorn couplings take this form; so does a centering matrix C passed
    on its own, whose Z is then None.
    """

    def __init__(self, C, Z=None):
        self.C, self._Z = C, Z

    def product(self):
        """F -> F @ C^T for an (m, N) array F; the function holds C alone."""
        C = self.C
        return lambda F: F @ C.T

    def CT(self):
        """C-contiguous copy of C^T."""
        return np.ascontiguousarray(self.C.T)

    def Z(self):
        """The dense Z; None when only C was given."""
        return self._Z


def build_couplings(covariates):
    """Return the coupling of one solve: a :class:`CategoricalCoupling` or a :class:`DenseCoupling`.

    Computed once per solve.  Categorical covariates give the O(N) class
    form, built from the labels :class:`Covariates` checked; continuous ones
    give the dense form of the bi-stochastic scaling of their Gaussian kernel
    matrix, with its C = Z - rowmean(Z).
    """
    if covariates.kind == "categorical":
        return CategoricalCoupling(covariates.labels)
    b = covariates.bandwidth_b
    b = median_heuristic_bandwidth(covariates.values) if b == "auto" else float(b)
    Z, _ = sinkhorn_bistochastic(kernel_cross_matrix(covariates.values, covariates.values, b))
    return DenseCoupling(centering_matrix(Z), Z)
