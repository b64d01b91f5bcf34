"""Penalty-method gradient flow driving mapped points to the barycenter.

One solve owns its state exclusively.  The objective is evaluated once on
the starting points; then each iteration grows the learning rate, raises the
multiplier to keep the descent direction of the full objective a descent
direction for the constraint, steps (explicit or implicit), and backtracks
the learning rate until the stepped objective does not increase with the
kernel centers at the stepped positions on both sides.  The evaluation at
the accepted step is the next iteration's evaluation, so each point set is
evaluated once.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, minres

from .costs import cost_function
from .couplings import build_couplings, median_heuristic_bandwidth
from .errors import InvalidInputError, NumericError, as_points, positive_number
from .objective import constraint_function, evaluate, monomial_features

__all__ = [
    "BarycenterResult",
    "HistoryRecord",
    "SolverConfig",
    "lambda_update",
    "precondition_mean_shift",
    "solve",
    "step_implicit",
]

_GRAD_SQ_FLOOR = 1e-30
_KRYLOV_RTOL = 1e-12  # MINRES stopping tolerance of the implicit step
_KRYLOV_MAXITER = 500
_RESIDUAL_RTOL = 1e-8  # accepted ||b - A x|| / ||b|| of the implicit step
_MAX_HALVINGS = 60  # learning-rate halvings before a run ends without a step
_POWER_STEPS = 50  # power-iteration steps of the lambda0 estimate


@dataclass(frozen=True)
class SolverConfig:
    """Tunable knobs of the penalty flow; defaults are desk-scale safe.

    Each field is a flag of the ``solve`` and ``filter-timeseries`` commands.
    ``lambda0="auto"`` estimates 1/spectral-radius of the constraint Hessian
    at the starting positions: 50 steps of seeded power iteration on its
    Hessian-vector product, so the Hessian is never formed.  ``bandwidth_a``
    applies to kde mode and resolves "auto" with the median heuristic on the
    starting positions.  ``feature_degree`` applies to features mode.  Every
    field is checked on construction: reals must be finite and positive,
    counts must be integers, and a bad value raises InvalidInputError.
    """

    problem: str = "kde"
    update: str = "explicit"
    eta0: float = 0.1
    niter: int = 2000
    lambda0: float | str = "auto"
    lambda_max: float = 1e6
    omega_alpha: float = 0.5
    tol_y: float = 1e-6
    tol_lf: float = 1e-6
    precondition: bool = False
    bandwidth_a: float | str = "auto"
    feature_degree: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.problem not in ("kde", "features"):
            raise InvalidInputError("problem must be 'kde' or 'features'")
        if self.update not in ("explicit", "implicit"):
            raise InvalidInputError("update must be 'explicit' or 'implicit'")
        for name in ("eta0", "lambda_max", "tol_y", "tol_lf"):
            if not positive_number(getattr(self, name)):
                raise InvalidInputError(f"{name} must be a positive finite number")
        if not (positive_number(self.omega_alpha) and self.omega_alpha < 1.0):
            raise InvalidInputError("omega_alpha must lie in (0, 1)")
        for name, low in (("niter", 1), ("feature_degree", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise InvalidInputError(f"{name} must be an integer")
            if value < low:
                raise InvalidInputError(f"{name} must be >= {low}")
        if self.lambda0 != "auto":
            if not positive_number(self.lambda0):
                raise InvalidInputError("lambda0 must be positive or 'auto'")
            if self.lambda_max < self.lambda0:
                raise InvalidInputError("lambda_max must be >= lambda0")
        if self.bandwidth_a != "auto" and not positive_number(self.bandwidth_a):
            raise InvalidInputError("bandwidth_a must be positive or 'auto'")


@dataclass
class HistoryRecord:
    """Per-iteration diagnostics after the accepted step, whose ``L`` was <= ``descent_rhs``."""

    n: int
    L: float
    L_C: float
    L_F: float
    lam: float
    eta: float
    eta_halvings: int
    descent_rhs: float
    lambda_slack: float
    lambda_clamped: bool
    lambda_skipped: bool
    implicit_fallback: bool


@dataclass
class BarycenterResult:
    """Final positions plus provenance of one solve.

    ``x_original`` is always the unshifted input, so costs of the composed
    map can be recomputed against it; ``precondition_shift`` is the rigid
    per-point translation applied before the flow (None when preconditioning
    was off).
    """

    y_final: np.ndarray
    converged: bool
    iterations: int
    history: list
    precondition_shift: np.ndarray | None
    x_original: np.ndarray
    lambda0: float
    bandwidth_a: float | None

    @property
    def final_L_C(self):
        return self.history[-1].L_C if self.history else None

    @property
    def final_L_F(self):
        return self.history[-1].L_F if self.history else None

    @property
    def final_lambda(self):
        return self.history[-1].lam if self.history else self.lambda0


def precondition_mean_shift(x, covariates, Z):
    """Rigid per-point translation matching all conditional means.

    Categorical covariates use exact class means; continuous ones use the
    coupling-weighted conditional mean xbar(z_k) = sum_i Z[i, k] x_i, which
    needs the N x N coupling Z.  Returns ``(w, shift)`` with ``w = x + shift``.
    """
    x = as_points(x)
    if covariates.kind == "categorical":
        labels = np.asarray(covariates.labels)
        cond = np.empty_like(x)
        for value in np.unique(labels):
            idx = labels == value
            cond[idx] = x[idx].mean(axis=0)
    elif Z is None or np.shape(Z) != (len(x), len(x)):
        raise InvalidInputError("continuous covariates need an N x N coupling matrix Z")
    else:
        cond = np.asarray(Z, dtype=float).T @ x
    shift = x.mean(axis=0) - cond
    return x + shift, shift


def lambda_update(lam, grad_cost, grad_constraint, omega_alpha, lambda_max):
    """Raise the multiplier so descent on L also descends the constraint.

    The floor is lambda_min = alpha - <gC, gF>/<gF, gF> with alpha =
    omega_alpha * lam, clamped so the multiplier never decreases and never
    exceeds ``lambda_max``.  When the constraint gradient is numerically
    zero the update is skipped (constraint locally satisfied).

    Returns ``(new_lam, clamped_at_max, skipped, slack)`` where ``slack`` is
    the achieved margin <gC + new_lam*gF, gF> - alpha*<gF, gF>.
    """
    gf_sq = float(np.sum(grad_constraint * grad_constraint))
    alpha = omega_alpha * lam
    if gf_sq < _GRAD_SQ_FLOOR:
        return lam, False, True, 0.0
    inner = float(np.sum(grad_cost * grad_constraint))
    lam_min = alpha - inner / gf_sq
    clamped = False
    if lam < lam_min <= lambda_max:
        new_lam = lam_min
    elif lam_min > lambda_max:
        new_lam = lambda_max
        clamped = True
    else:
        new_lam = lam
    slack = inner + new_lam * gf_sq - alpha * gf_sq
    return new_lam, clamped, False, slack


def step_explicit(y, grad, eta):
    """Plain gradient step y - eta * grad."""
    return y - eta * grad


def step_implicit(y, grad, hvp, eta):
    """Resolvent step: solve (I + eta*H) delta = eta*grad, H given by ``hvp``.

    ``hvp`` maps an N x d array v to H v.  The symmetric, possibly indefinite
    system is solved matrix-free with MINRES (relative tolerance 1e-12, at
    most 500 iterations), warm-started from the explicit step's delta.  Falls
    back to the explicit step when MINRES hits its iteration cap or when the
    explicitly recomputed residual ||eta*grad - (I + eta*H) delta|| is not
    within 1e-8 * ||eta*grad||; that test also catches a breakdown (singular
    or non-symmetric operator) and a non-finite delta, whose residual is NaN.
    Returns ``(candidate, used_fallback)``.
    """
    n, d = y.shape
    b = eta * grad.ravel()

    def matvec(u):
        return u + eta * hvp(u.reshape(n, d)).ravel()

    A = LinearOperator((n * d, n * d), matvec=matvec, dtype=float)
    delta, info = minres(A, b, x0=b, rtol=_KRYLOV_RTOL, maxiter=_KRYLOV_MAXITER)
    residual = np.linalg.norm(b - matvec(delta))
    if info != 0 or not residual <= _RESIDUAL_RTOL * np.linalg.norm(b):
        return step_explicit(y, grad, eta), True
    return y - delta.reshape(n, d), False


def _auto_lambda0(hvp, shape, lambda_max, seed):
    """1 / spectral-radius estimate of the constraint Hessian at the start.

    Seeded power iteration on the constraint's Hessian-vector product ``hvp``
    over arrays of ``shape``; the estimate is 1 when the constraint is
    locally flat.  Never more than ``lambda_max``.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(shape)
    v /= np.linalg.norm(v)
    estimate = 0.0
    for _ in range(_POWER_STEPS):
        w = hvp(v)
        estimate = np.linalg.norm(w)
        if estimate < 1e-30:
            break
        v = w / estimate
    return min(1.0 / estimate if estimate > 1e-12 else 1.0, lambda_max)


def solve(x, covariates, cost_model, config=None):
    """Run the penalty flow; returns a :class:`BarycenterResult`.

    Builds the couplings once, optionally preconditions with the rigid
    mean-matching shift (in which case every cost except the canonical
    squared-Euclidean one keeps being evaluated against the original
    points), and iterates until the positions stall with a satisfied
    constraint or ``config.niter`` is reached.  x, Z and C are checked once,
    when the cost and the constraint bind them.  A candidate step is rejected,
    and the learning rate halved, when it is not finite, raises the objective,
    leaves the cost's domain, or gives a non-finite value or gradient; both
    gradients are built on first read, which happens only for the starting
    points and for each accepted step.  The run ends early when 60 halvings
    find no step.  ``lambda0="auto"`` runs on the starting points' one
    evaluation.  Raises :class:`NumericError` only when that evaluation (its
    values or either gradient) is not finite.
    """
    config = config or SolverConfig()
    x = as_points(x)
    n, d = x.shape
    if covariates.n != n:
        raise InvalidInputError("covariates and points disagree on N")

    Z, C = build_couplings(covariates)

    if config.precondition:
        w, shift = precondition_mean_shift(x, covariates, Z)
        y = w.copy()
        x_cost = w if cost_model.family == "sq_euclidean" else x
    else:
        y = x.copy()
        x_cost = x
        shift = None

    kde = config.problem == "kde"
    bandwidth_a = None
    if kde:
        a = config.bandwidth_a
        bandwidth_a = float(median_heuristic_bandwidth(y) if a == "auto" else a)
    cost = cost_function(cost_model, x_cost, Z)
    constraint = constraint_function(
        C, bandwidth_a if kde else monomial_features(d, config.feature_degree))
    del Z, C  # the bound terms keep what they read of them
    implicit = config.update == "implicit"
    auto = config.lambda0 == "auto"
    ev = evaluate(cost, constraint, y, want_hvp=implicit or auto)
    ev.grad_cost, ev.grad_constraint  # built now: a non-finite start raises NumericError here
    if auto:
        lam = _auto_lambda0(ev.hvp_constraint, y.shape, config.lambda_max, config.seed)
        if not implicit:  # the loop holds no product, nor the kernel it keeps
            ev.hvp_cost = ev.hvp_constraint = None
    else:
        lam = float(config.lambda0)

    lambda0 = lam
    eta = config.eta0
    history = []
    converged = False

    for it in range(config.niter):
        eta = min(2.01 * eta, config.eta0)
        lam, clamped, skipped, slack = lambda_update(
            lam, ev.grad_cost, ev.grad_constraint, config.omega_alpha, config.lambda_max,
        )
        grad = ev.grad_cost + lam * ev.grad_constraint
        hvp = ev.hvp(lam) if implicit else None

        # Descent check: L must not increase with the kernel centers at the
        # stepped points on both sides.  The left side is the next
        # iteration's evaluation; the right side is formed first, so its
        # kernel is freed before the left side builds one.
        ev_new = None
        halvings = 0
        fallback = False
        while halvings <= _MAX_HALVINGS:
            if implicit:
                candidate, fallback = step_implicit(y, grad, hvp, eta)
            else:
                candidate = step_explicit(y, grad, eta)
            try:
                if not np.isfinite(candidate).all():
                    raise NumericError("non-finite candidate")
                L_F_old = ev.L_F  # features have no kernel centers to move
                if kde:
                    L_F_old = constraint(y, centers=candidate)[0]
                rhs = ev.L_C + lam * L_F_old
                ev_new = evaluate(cost, constraint, candidate, want_hvp=implicit)
                L = ev_new.L_C + lam * ev_new.L_F
                if L <= rhs:
                    # built only now: a non-finite gradient rejects the step
                    ev_new.grad_cost, ev_new.grad_constraint
                    break
            except (InvalidInputError, NumericError):
                pass  # candidate left the cost's domain or blew up
            ev_new = None  # rejected
            eta *= 0.5
            halvings += 1

        if ev_new is None:
            break

        rel_change = float(np.abs(candidate - y).max()) / max(1.0, float(np.abs(y).max()))
        y, ev = candidate, ev_new
        history.append(HistoryRecord(
            n=it, L=L, L_C=ev.L_C, L_F=ev.L_F,
            lam=lam, eta=eta, eta_halvings=halvings, descent_rhs=rhs,
            lambda_slack=slack, lambda_clamped=clamped, lambda_skipped=skipped,
            implicit_fallback=fallback,
        ))
        if rel_change < config.tol_y and ev.L_F < config.tol_lf:
            converged = True
            break

    return BarycenterResult(
        y_final=y,
        converged=converged,
        iterations=len(history),
        history=history,
        precondition_shift=shift,
        x_original=x,
        lambda0=lambda0,
        bandwidth_a=bandwidth_a,
    )
