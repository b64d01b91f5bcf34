"""Penalty-method gradient flow driving mapped points to the barycenter.

One solve owns its state exclusively.  The objective is evaluated once on
the starting points; then each iteration grows the learning rate, raises the
multiplier to keep the descent direction of the full objective a descent
direction for the constraint, steps (explicit, or implicit by
:func:`step_implicit`), and backtracks the learning rate until the stepped
objective does not increase with the kernel centers at the stepped positions
on both sides.  The evaluation at the accepted step is the next iteration's
evaluation, so each point set is evaluated once; :func:`solve` tells what an
evaluation holds and when each part is dropped.  Each accepted step writes
one row of the run's :class:`History`.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .costs import cost_function
from .couplings import build_couplings, median_heuristic_bandwidth
from .errors import InvalidInputError, NumericError, as_points, integer_at_least, positive_number
from .objective import constraint_function, evaluate, monomial_features

__all__ = [
    "BarycenterResult",
    "History",
    "HistoryRecord",
    "SolverConfig",
    "lambda_update",
    "solve",
    "step_implicit",
]

_GRAD_SQ_FLOOR = 1e-30
_KRYLOV_RTOL = 1e-12  # MINRES stopping tolerance of the implicit step
_KRYLOV_MAXITER = 500  # MINRES iterations before the implicit step falls back
_RESIDUAL_RTOL = 1e-8  # accepted ||b - A x|| / ||b|| of the implicit step
_MAX_HALVINGS = 60  # learning-rate halvings before a run ends without a step
_LANCZOS_RTOL = 1e-3  # settled move of the lambda0 estimate between two readings
_LANCZOS_BREAKDOWN = 1e-12  # beta_k / ||T_k|| at which the lambda0 estimate is exact
_LANCZOS_SEMI_ORTH = math.sqrt(sys.float_info.epsilon)  # Ritz residual / radius that ends it
_LANCZOS_MAX_PRODUCTS = 50  # Hessian-vector products of the lambda0 estimate at most
_LANCZOS_FLAT = 1e-12  # spectral radius at or below which the constraint is flat and lambda0 is 1


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the penalty flow; its fields are the solve flags, in order.

    ``lambda0="auto"`` estimates 1/spectral-radius of the constraint Hessian
    at the starting positions by Lanczos (:func:`_auto_lambda0`).  ``seed``
    draws its start vector only when the constraint gradient there is zero,
    as it is for a flat constraint such as one class.  ``bandwidth_a``
    applies to kde mode and resolves "auto" with the median heuristic on the
    starting positions; ``bandwidth_b``, the covariate kernel's, applies to
    continuous covariates and resolves "auto" with the median heuristic on
    their values.  ``feature_degree`` k applies to features mode, whose
    m = C(d + k, k) - 1 monomials take m N d doubles per evaluation.  A field
    in :attr:`CHOICES` takes one of its values.  Every field is checked on
    construction; a bad value raises InvalidInputError.
    """

    CHOICES = {"problem": ("kde", "features"), "update": ("explicit", "implicit")}

    problem: str = "kde"
    feature_degree: int = 2
    bandwidth_a: float | str = "auto"
    bandwidth_b: float | str = "auto"
    update: str = "explicit"
    eta0: float = 0.1
    niter: int = 2000
    lambda0: float | str = "auto"
    lambda_max: float = 1e6
    omega_alpha: float = 0.5
    tol_y: float = 1e-6
    tol_lf: float = 1e-6
    precondition: bool = False
    seed: int = 0

    def __post_init__(self):
        for name, allowed in self.CHOICES.items():
            if getattr(self, name) not in allowed:
                raise InvalidInputError(f"{name} must be {' or '.join(map(repr, allowed))}")
        for name in ("eta0", "lambda_max", "tol_y", "tol_lf"):
            if not positive_number(getattr(self, name)):
                raise InvalidInputError(f"{name} must be a positive finite number")
        if not (positive_number(self.omega_alpha) and self.omega_alpha < 1.0):
            raise InvalidInputError("omega_alpha must lie in (0, 1)")
        if not isinstance(self.precondition, bool):
            raise InvalidInputError("precondition must be True or False")
        for name, low in (("niter", 1), ("feature_degree", 1), ("seed", 0)):
            integer_at_least(name, getattr(self, name), low)
        for name in ("lambda0", "bandwidth_a", "bandwidth_b"):
            value = getattr(self, name)
            if value != "auto" and not positive_number(value):
                raise InvalidInputError(f"{name} must be positive or 'auto'")
        if self.lambda0 != "auto" and self.lambda_max < self.lambda0:
            raise InvalidInputError("lambda_max must be >= lambda0")


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


class History(Sequence):
    """The accepted steps of one solve, read as a sequence of :class:`HistoryRecord`.

    Rows live in one structured numpy array with a column per record field
    (float64, int64 or bool, 75 bytes a row), which doubles when full, so
    it never holds more than twice the rows used.  Indexing (negative
    indices too) and iteration build records of Python floats, ints and
    bools; :meth:`column` reads one field of every row without building any.
    """

    _DTYPE = np.dtype([(f.name, {"float": "f8", "int": "i8", "bool": "?"}[f.type])
                       for f in dataclasses.fields(HistoryRecord)])

    def __init__(self):
        self._rows = np.empty(0, dtype=self._DTYPE)
        self._len = 0

    def append(self, *values):
        """Write one row; ``values`` come in the field order of :class:`HistoryRecord`."""
        if self._len == len(self._rows):
            grown = np.empty(max(1, 2 * self._len), dtype=self._DTYPE)
            grown[:self._len] = self._rows
            self._rows = grown
        self._rows[self._len] = values
        self._len += 1

    def column(self, name):
        """Read-only view of field ``name`` over every record, in index order."""
        view = self._rows[name][:self._len]
        view.flags.writeable = False
        return view

    def __len__(self):
        return self._len

    def __getitem__(self, index):
        row = range(self._len)[operator.index(index)]  # negative from the end; IndexError past it
        return HistoryRecord(*self._rows[row].item())


@dataclass
class BarycenterResult:
    """Final positions plus provenance of one solve.

    ``history`` is a :class:`History`, one record per accepted step, which
    holds each value in a column of one array and builds a record only when
    one is read.  ``precondition_shift`` is the rigid per-point translation
    applied before the flow, the overall mean of x minus each point's
    conditional mean under the coupling (None when preconditioning was off).
    """

    y_final: np.ndarray
    converged: bool
    iterations: int
    history: History
    precondition_shift: np.ndarray | None
    lambda0: float
    bandwidth_a: float | None

    def _last(self, name, default):
        column = self.history.column(name)
        return column[-1].item() if len(column) else default

    @property
    def final_L_C(self):
        return self._last("L_C", None)

    @property
    def final_L_F(self):
        return self._last("L_F", None)

    @property
    def final_lambda(self):
        return self._last("lam", self.lambda0)


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


def _norm(v):
    """The 2-norm of an array's entries, as ``np.linalg.norm`` takes it, without its argument checks."""
    f = v.ravel(order="K")
    return math.sqrt(f.dot(f))


def step_implicit(y, grad, hvp, eta):
    """Resolvent step: solve (I + eta*H) delta = eta*grad, H given by ``hvp``.

    ``hvp`` is H's product in block form, a :class:`~baryflow.costs.BlockHvp`
    such as :meth:`~baryflow.objective.ObjectiveEval.hvp` returns.  The step
    forms the operator I + eta*H once, by
    :meth:`~baryflow.costs.BlockHvp.operator`: its blocks I + eta*D are added
    and scaled, and each remainder takes eta into its factors.  Each of its
    products is then one einsum over the blocks plus the remainders'
    products: for l2 and kde, three einsums, one N x N by N x (d + 1)^2
    product and an add.  The symmetric, possibly indefinite system is solved
    matrix-free by :func:`_minres`, warm-started from the explicit step's
    delta.  Falls back to the explicit step when MINRES does not converge, or
    when the explicitly recomputed residual ||eta*grad - (I + eta*H) delta||
    is above ``_RESIDUAL_RTOL`` ||eta*grad||; that test also catches a
    breakdown (singular or non-symmetric operator) and a non-finite delta,
    whose residual is NaN.  Returns ``(candidate, used_fallback)``.
    """
    n, d = y.shape
    b = eta * grad.ravel()
    operator = hvp.operator(eta, shift=1.0)

    def matvec(u):
        return operator(u.reshape(n, d)).ravel()

    delta, converged = _minres(matvec, b)
    if converged and _norm(b - matvec(delta)) <= _RESIDUAL_RTOL * _norm(b):
        return y - delta.reshape(n, d), False
    return y - eta * grad, True


def _minres(matvec, b):
    """MINRES (Paige & Saunders 1975) for A x = b, A symmetric and given by ``matvec``.

    Unpreconditioned, with the recurrences, operation order and stopping
    tests of ``scipy.sparse.linalg.minres`` started from x0 = b, with
    ``rtol=_KRYLOV_RTOL`` and ``maxiter=_KRYLOV_MAXITER``, so the iterates are
    bitwise equal to scipy's, on buffers updated in place.  The run
    stops when the residual estimate is within ``rtol * ||A|| ||x||`` (or
    A r within ``rtol * ||A|| ||r||``), when x is accurate to machine
    precision or A looks singular, and after ``maxiter`` iterations.
    Returns ``(x, converged)``: ``converged`` is False only at the iteration
    cap or at a non-finite Lanczos norm beta, where the run stops at once.
    """
    eps = sys.float_info.epsilon
    rtol, maxiter = _KRYLOV_RTOL, _KRYLOV_MAXITER
    x = b.copy()
    r1 = b - matvec(x)
    beta1 = np.inner(r1, r1)
    if beta1 == 0:
        return x, True
    if not math.isfinite(beta1):
        return x, False
    beta1 = math.sqrt(beta1)

    n = len(b)
    v, tmp, w1 = np.empty(n), np.empty(n), np.empty(n)
    w, w2 = np.zeros(n), np.zeros(n)
    # The 2-norm of a Givens pair is taken as numpy's norm takes it, a dot
    # product of a 2-element array: math.hypot and sqrt(a*a + b*b) differ
    # from it in the last bit for some pairs.
    pair = np.empty(2)
    r2 = y = r1
    oldb, beta, dbar, epsln, phibar, tnorm2 = 0, beta1, 0, 0, beta1, 0
    gmax, gmin = 0, sys.float_info.max
    cs, sn = -1, 0
    for itn in range(1, maxiter + 1):
        # Lanczos step: v = y / beta, y = A v - (beta/oldb) r1 - (alfa/beta) r2
        np.multiply(y, 1.0 / beta, out=v)
        y = matvec(v)
        if itn >= 2:
            np.multiply(r1, beta / oldb, out=tmp)
            y -= tmp
        alfa = float(np.inner(v, y))
        np.multiply(r2, alfa / beta, out=tmp)
        y -= tmp
        r1, r2 = r2, y
        oldb, beta = beta, np.inner(r2, y)
        if not math.isfinite(beta):
            return x, False
        beta = math.sqrt(beta)
        tnorm2 += alfa**2 + oldb**2 + beta**2
        eigenvector = itn == 1 and beta / beta1 <= 10 * eps  # b - A x0 is an eigenvector of A

        # apply the previous rotation, then form the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        pair[0], pair[1] = gbar, dbar
        root = math.sqrt(pair.dot(pair))
        pair[1] = beta
        gamma = max(math.sqrt(pair.dot(pair)), eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        # x += phi * w with w = (v - oldeps * w1 - delta * w2) / gamma
        w1, w2, w = w2, w, w1
        np.multiply(w1, oldeps, out=w)
        np.subtract(v, w, out=w)
        np.multiply(w2, delta, out=tmp)
        w -= tmp
        w *= 1.0 / gamma
        np.multiply(w, phi, out=tmp)
        x += tmp

        gmax = max(gmax, gamma)
        gmin = min(gmin, gamma)
        Anorm = math.sqrt(tnorm2)
        ynorm = math.sqrt(x.dot(x))
        test1 = math.inf if ynorm == 0 or Anorm == 0 else phibar / (Anorm * ynorm)
        test2 = math.inf if Anorm == 0 else root / Anorm
        if eigenvector or test1 <= rtol or test2 <= rtol:
            return x, True
        if Anorm * ynorm * eps >= beta1 or gmax / gmin >= 0.1 / eps:
            return x, True  # x is as accurate as eps allows, or cond(A) exceeds 0.1/eps
    return x, False


def _auto_lambda0(hvp, grad, lambda_max, seed):
    """1 / spectral-radius estimate of the constraint Hessian H at the start.

    Lanczos on ``hvp``, the constraint's :class:`~baryflow.costs.BlockHvp`,
    whose product is formed once, started from the starting constraint
    gradient ``grad``.  That vector moves with the data, so the estimate is
    permutation-equivariant, and rotation-equivariant wherever the
    constraint is; a gradient whose squared norm is below the solver's floor
    gives way to a standard normal vector drawn with ``seed``.  The
    recurrence holds three vectors and the tridiagonal T_k, but no Krylov
    basis.  The radius, max |theta| over T_k's eigenvalues, is read at every
    other product from the fourth.  The estimate stops when a reading moves
    by at most ``_LANCZOS_RTOL`` of itself; at a breakdown, beta_k at most
    ``_LANCZOS_BREAKDOWN`` ||T_k||, where T_k's eigenvalues are H's own; once
    a Ritz residual beta_k |s_ki| falls to ``_LANCZOS_SEMI_ORTH`` times the
    radius, past which the Lanczos vectors lose orthogonality along that pair
    (Paige 1971) and take in rounding that differs between a data set and its
    permuted or rotated copy; and after ``_LANCZOS_MAX_PRODUCTS`` products.
    Points with a symmetry (two in the plane, say) confine the gradient to an
    invariant subspace of H, whose spectrum alone it sees.  The estimate is 1
    when the radius is at most ``_LANCZOS_FLAT`` (a locally flat constraint),
    and never more than ``lambda_max``.
    """
    hvp = hvp.operator()
    if float(np.sum(grad * grad)) < _GRAD_SQ_FLOOR:
        grad = np.random.default_rng(seed).standard_normal(grad.shape)
    v = grad / _norm(grad)
    v_old = np.zeros_like(v)
    alphas, betas = [], []  # T_k's diagonal and subdiagonal
    beta = t_norm2 = radius = 0.0
    for k in range(1, _LANCZOS_MAX_PRODUCTS + 1):
        w = hvp(v)
        w -= beta * v_old
        alpha = float(np.vdot(v, w))
        w -= alpha * v
        alphas.append(alpha)
        t_norm2 += alpha**2 + 2 * beta**2
        beta = _norm(w)
        done = beta <= _LANCZOS_BREAKDOWN * math.sqrt(t_norm2) or k == _LANCZOS_MAX_PRODUCTS
        if done or (k >= 4 and k % 2 == 0):
            # eigh reads T_k's lower triangle; S[-1] gives the Ritz residuals
            T = np.zeros((k, k))
            T.flat[::k + 1], T.flat[k::k + 1] = alphas, betas  # diagonal, subdiagonal
            theta, S = np.linalg.eigh(T)
            last, radius = radius, max(-theta[0], theta[-1])
            if (done or beta * np.abs(S[-1]).min() <= _LANCZOS_SEMI_ORTH * radius
                    or k > 4 and abs(radius - last) <= _LANCZOS_RTOL * radius):
                break
        betas.append(beta)
        v_old, v = v, w
        v /= beta
    return float(min(1.0 / radius if radius > _LANCZOS_FLAT else 1.0, lambda_max))


def solve(x, covariates, cost_model, config=None):
    """Run the penalty flow; returns a :class:`BarycenterResult`.

    Builds the coupling once; from then on the covariates are read only
    through it.  With ``config.precondition`` the flow starts from
    x + shift, shift = mean(x) - the coupling's conditional means of x, and
    the squared-Euclidean cost measures from the shifted points too, every
    other cost from x.  It iterates until the positions stall with a
    satisfied constraint or ``config.niter`` is reached, and ends early when
    ``_MAX_HALVINGS`` halvings find no step.  A candidate step is rejected,
    and the learning rate halved, when it is not finite, raises the
    objective, leaves the cost's domain, or gives a non-finite value or
    gradient.  Both gradients are built on first read, only for the starting
    points and each accepted step, so a rejected step pays for its values
    alone.  The evaluations run under one ``np.errstate`` that ignores
    overflow, invalid and divide-by-zero, so a non-finite result is a value
    the checks read, whatever the caller's warning filters.

    An evaluation's Hessian-vector products are unbuilt and hold what its
    gradients hold, kde's kernel among it.  The start's serve
    ``lambda0="auto"``; each iteration then hands its evaluation's products
    to the implicit step, or drops them.  An accepted explicit step drops its
    own at once, as it never reads them.  An implicit step frees its own,
    with the weighted kernel and the operator's factors, before its candidate
    is scored, and a try after a rejected one rebuilds them at the same
    points, bit for bit.  So a categorical coupling forms no N x N array
    beside kde's kernel unless the distortion cost reads Z or kde reads a
    dense C^T, and a Sinkhorn coupling is one N x N array, C^T, from its
    kernel on.  Raises :class:`NumericError` only when the starting
    evaluation (its values or either gradient) is not finite.
    """
    config = config or SolverConfig()
    x = as_points(x)
    n, d = x.shape
    if covariates.n != n:
        raise InvalidInputError("covariates and points disagree on N")

    coupling = build_couplings(covariates, config.bandwidth_b)
    shift = x.mean(axis=0) - coupling.conditional_means(x) if config.precondition else None
    y = x.copy() if shift is None else x + shift

    kde = config.problem == "kde"
    bandwidth_a = None
    if kde:
        a = config.bandwidth_a
        bandwidth_a = float(median_heuristic_bandwidth(y) if a == "auto" else a)
    cost = cost_function(cost_model, x, coupling, shift)
    constraint = constraint_function(
        coupling, bandwidth_a if kde else monomial_features(d, config.feature_degree))
    implicit = config.update == "implicit"
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ev = evaluate(cost, constraint, y)
        ev.grad_cost, ev.grad_constraint  # built now: a non-finite start raises NumericError here
        if config.lambda0 == "auto":
            lam = _auto_lambda0(ev.hvp_constraint, ev.grad_constraint, config.lambda_max,
                                config.seed)
        else:
            lam = float(config.lambda0)

        lambda0 = lam
        eta = config.eta0
        history = History()
        converged = False

        for it in range(config.niter):
            eta = min(2.01 * eta, config.eta0)
            lam, clamped, skipped, slack = lambda_update(
                lam, ev.grad_cost, ev.grad_constraint, config.omega_alpha, config.lambda_max,
            )
            grad = ev.grad_cost + lam * ev.grad_constraint
            # A product lives until its last step: the loop's hvp holds it from here.
            hvp = ev.hvp(lam) if implicit else None
            ev.hvp_cost = ev.hvp_constraint = None

            # Descent check: L must not increase with the kernel centers at the
            # stepped points on both sides.  The left side is the next
            # iteration's evaluation.  For kde the same constraint call scores
            # the right side in the centers' frame the left side's kernel uses,
            # and frees that kernel before it builds the left side's.
            ev_new = None
            halvings = 0
            fallback = False
            while halvings <= _MAX_HALVINGS:
                if implicit:
                    if hvp is None:  # a rejected try released it: rebuild it at y, bit for bit
                        hvp = evaluate(cost, constraint, y).hvp(lam)
                    candidate, fallback = step_implicit(y, grad, hvp, eta)
                    hvp = None  # frees M and the operator's factors before the candidate is scored
                else:
                    candidate = y - eta * grad
                try:
                    if not np.isfinite(candidate).all():
                        raise NumericError("non-finite candidate")
                    ev_new = evaluate(cost, constraint, candidate, before=y if kde else None)
                    # features have no kernel centers to move
                    rhs = ev.L_C + lam * (ev_new.L_F_before if kde else ev.L_F)
                    L = ev_new.L_C + lam * ev_new.L_F
                    if L <= rhs:
                        # built only now: a non-finite gradient rejects the step
                        ev_new.grad_cost, ev_new.grad_constraint
                        if not implicit:  # its products, and kde's kernel, are not read
                            ev_new.hvp_cost = ev_new.hvp_constraint = None
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
            history.append(it, L, ev.L_C, ev.L_F, lam, eta, halvings, rhs,  # HistoryRecord's order
                           slack, clamped, skipped, fallback)
            if rel_change < config.tol_y and ev.L_F < config.tol_lf:
                converged = True
                break

    return BarycenterResult(
        y_final=y,
        converged=converged,
        iterations=len(history),
        history=history,
        precondition_shift=shift,
        lambda0=lambda0,
        bandwidth_a=bandwidth_a,
    )
