"""Covariate couplings: Gaussian kernels, bi-stochastic scaling, centering.

The coupling matrix Z encodes similarity between covariate values.  For
categorical covariates it averages over class members; for continuous ones it
is the bi-stochastic rescaling of their own Gaussian kernel matrix.  The centering
matrix C = Z - rowmean(Z) is the quadratic form the objective contracts
against: its columns sum to zero and x'Cx >= 0 for every x whenever Z is
positive semidefinite with unit row sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .errors import ConvergenceError, InvalidInputError, positive_number

__all__ = [
    "Covariates",
    "build_couplings",
    "categorical_coupling",
    "centering_matrix",
    "kernel_cross_matrix",
    "median_heuristic_bandwidth",
    "sinkhorn_bistochastic",
]


def kernel_cross_matrix(points_a, points_b, bandwidth):
    """Matrix of normalized Gaussian kernel values K[i, j] = k(a_i, b_j).

    k(u, v) = (2*pi*h^2)^(-d/2) * exp(-||u - v||^2 / (2*h^2)) with h the
    bandwidth and d the width of the point sets; it integrates to one.  Against
    itself a point set gives an exactly symmetric, positive semidefinite matrix.
    """
    if not np.isfinite(bandwidth) or bandwidth <= 0:
        raise InvalidInputError("bandwidth must be a positive finite number")
    a = np.asarray(points_a, dtype=float)
    b = np.asarray(points_b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise InvalidInputError("point sets must be 2-D arrays with matching width")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidInputError("point sets must be finite")
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
    med = float(np.median(pdist(points)))
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
    if float(np.abs(K - K.T).max()) > 1e-8 * scale:
        raise InvalidInputError("K must be symmetric")
    K = 0.5 * (K + K.T)

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
    Z = d[:, None] * K * d[None, :]
    Z = 0.5 * (Z + Z.T)
    return Z, d


def categorical_coupling(labels):
    """Class-indicator coupling: Z[i, j] = 1/N_i when labels agree, else 0.

    Bi-stochastic and symmetric by construction; block diagonal under any
    class-sorted permutation.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise InvalidInputError("labels must be a non-empty 1-D sequence")
    n = labels.size
    Z = np.zeros((n, n))
    for value in np.unique(labels):
        idx = np.flatnonzero(labels == value)
        Z[np.ix_(idx, idx)] = 1.0 / idx.size
    return Z


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

    ``bandwidth_b`` applies to continuous covariates only; :func:`build_couplings`
    resolves "auto" with the median heuristic on the values.
    """

    kind: str
    labels: np.ndarray | None = None
    values: np.ndarray | None = None
    bandwidth_b: float | str = "auto"

    def __post_init__(self):
        if self.kind == "categorical":
            if self.labels is None or np.asarray(self.labels).size == 0:
                raise InvalidInputError("categorical covariates need labels")
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
            return int(np.asarray(self.labels).size)
        return int(self.values.shape[0])


def build_couplings(covariates):
    """Return ``(Z, C)``, the N x N coupling and its centering; computed once per solve."""
    if covariates.kind == "categorical":
        Z = categorical_coupling(covariates.labels)
    else:
        b = covariates.bandwidth_b
        b = median_heuristic_bandwidth(covariates.values) if b == "auto" else float(b)
        Z, _ = sinkhorn_bistochastic(kernel_cross_matrix(covariates.values, covariates.values, b))
    return Z, centering_matrix(Z)
