"""Core numerical workhorses.

Contains the optimizers everything else is built on: ordinary least squares
(ridge-jittered normal equations), IRLS logistic regression, an SMO-style
solver for the weighted hinge-loss dual, and one bounded-variable revised
simplex (Dantzig pricing, Bland's rule after a degenerate run).  That simplex
solves the (1+2p)-row dual LP of the L1-penalized weighted hinge loss, and
runs both phases of the general LP solver simplex_solve.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ConvergenceError,
    DataError,
    InfeasibleLPError,
    UnboundedLPError,
)

__all__ = [
    "LinearModel",
    "LogisticModel",
    "DualSolution",
    "LinearProgram",
    "LPSolution",
    "HingeL1Solution",
    "ols_fit",
    "logistic_fit",
    "wsvm_dual_solve",
    "simplex_solve",
    "l1_hinge_dual_solve",
]

_OLS_JITTER = 1e-8
_LOGISTIC_RIDGE = 1e-6
_LOGISTIC_GTOL = 1e-8
_LOGISTIC_MAXIT = 100
_COEF_CAP = 30.0


@dataclass(frozen=True)
class LinearModel:
    intercept: float
    slopes: np.ndarray

    def predict(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.intercept + X @ self.slopes


@dataclass(frozen=True)
class LogisticModel:
    intercept: float
    slopes: np.ndarray
    converged: bool
    iterations: int

    def decision_value(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.slopes.size == 0:
            return np.full(X.shape[0], self.intercept)
        return self.intercept + X @ self.slopes

    def predict_proba(self, X):
        return 1.0 / (1.0 + np.exp(-np.clip(self.decision_value(X), -35, 35)))


def ols_fit(X, y) -> LinearModel:
    """Least squares of y on [1, X] with a 1e-8 ridge jitter for rank safety."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise DataError("ols_fit requires finite inputs")
    A = np.column_stack([np.ones(X.shape[0]), X])
    H = A.T @ A + _OLS_JITTER * np.eye(A.shape[1])
    beta = np.linalg.solve(H, A.T @ y)
    return LinearModel(intercept=float(beta[0]), slopes=beta[1:])


def _irls(A, y, max_iter, gtol, beta=None):
    """Ridge-damped Newton ascent on the Bernoulli log-likelihood of y, batched.

    A stacks designs (B, n, d) and beta their starts (B, d), zero when None.
    The Hessians get a 1e-6 ridge, weights a 1e-10 floor, and steps are clipped
    to |coef| <= 30; a design stops once its gradient norm falls below gtol.
    Each design's arithmetic is its own, whatever else is in the stack.
    Returns (coefficients (B, d), iterations (B,), converged (B,)).
    """
    B, _, d = A.shape
    beta = np.zeros((B, d)) if beta is None else np.array(beta, dtype=float)
    iterations = np.full(B, max_iter)
    converged = np.zeros(B, dtype=bool)
    ridge = _LOGISTIC_RIDGE * np.eye(d)
    active = np.arange(B)
    for it in range(1, max_iter + 1):
        eta = np.clip(np.matmul(A, beta[active, :, None])[..., 0], -35, 35)
        p = 1.0 / (1.0 + np.exp(-eta))
        grad = np.matmul((y - p)[:, None, :], A)[:, 0]
        done = np.linalg.norm(grad, axis=1) < gtol
        if done.any():
            iterations[active[done]] = it
            converged[active[done]] = True
            active, A, p, grad = (v[~done] for v in (active, A, p, grad))
            if not active.size:
                break
        w = np.maximum(p * (1.0 - p), 1e-10)
        H = np.matmul(A.transpose(0, 2, 1) * w[:, None, :], A) + ridge
        step = np.linalg.solve(H, grad[..., None])[..., 0]
        beta[active] = np.clip(beta[active] + step, -_COEF_CAP, _COEF_CAP)
    return beta, iterations, converged


def logistic_fit(X, labels) -> LogisticModel:
    """IRLS maximization of the Bernoulli log-likelihood.

    Hessian gets a 1e-6 ridge; stops at gradient norm < 1e-8.  Separated data
    does not error: coefficients are capped at |coef| <= 30 and the model is
    returned with converged=False.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(labels, dtype=float)
    if set(np.unique(y)) - {0.0, 1.0}:
        raise DataError("labels must be 0/1")
    if np.unique(y).size < 2:
        raise DataError("logistic_fit needs both classes present")
    A = np.column_stack([np.ones(X.shape[0]), X])
    (beta,), (it,), (converged,) = _irls(A[None], y, _LOGISTIC_MAXIT, _LOGISTIC_GTOL)
    if np.any(np.abs(beta) >= _COEF_CAP - 1e-12):
        converged = False
    return LogisticModel(
        intercept=float(beta[0]), slopes=beta[1:], converged=bool(converged), iterations=int(it)
    )


@dataclass(frozen=True)
class DualSolution:
    """Solution of max sum(a) - 1/2 a'Qa s.t. 0 <= alpha <= C, sum(alpha*label) = 0.

    updates counts the SMO pair updates made.
    """

    alphas: np.ndarray
    intercept: float
    objective: float
    kkt_violation: float
    updates: int


def _check_positive(name, value):
    """DataError unless value is a finite positive real number; bools are not."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and 0 < value < math.inf):
        raise DataError(f"{name} must be a finite positive number, not {value!r}")


_INIT_RTOL = 1e-9  # slack allowed on a start's box and equality before clipping


def _feasible_start(init, labels, caps):
    """init clipped into the box; DataError unless it is feasible to _INIT_RTOL."""
    alpha = np.array(init, dtype=float)
    if alpha.shape != caps.shape or not np.all(np.isfinite(alpha)):
        raise DataError("init must be a finite vector with one entry per sample")
    if np.any(alpha < -_INIT_RTOL * caps) or np.any(alpha > caps * (1.0 + _INIT_RTOL)):
        raise DataError("init must satisfy 0 <= alpha <= caps")
    if abs(float(alpha @ labels)) > _INIT_RTOL * max(1.0, float(np.sum(caps))):
        raise DataError("init must satisfy sum(alpha * labels) = 0")
    return np.clip(alpha, 0.0, caps)


def wsvm_dual_solve(
    gram, labels, caps, tol=1e-5, max_updates=1_000_000, init=None
) -> DualSolution:
    """SMO on the weighted hinge-loss dual, maximal-KKT-violating pair selection.

    gram is the kernel matrix and must be symmetric: the solver reads its rows
    where the gradient update needs columns.  caps are the per-sample box
    bounds C_i.  init is a feasible start (0 <= alpha <= C, sum(alpha*label)
    = 0), zero when None; an infeasible one raises DataError.

    The state is vals = -label * gradient; a pair step of length t moves it by
    -t * (K[i] - K[j]) since label^2 = 1, and the two-variable step itself runs
    on Python floats.  The recovered intercept averages over free support
    vectors, falling back to the midpoint of the feasible interval.
    """
    K = np.asarray(gram, dtype=float)
    a = np.asarray(labels, dtype=float)
    C = np.asarray(caps, dtype=float)
    m = a.shape[0]
    if K.shape != (m, m) or C.shape != (m,):
        raise DataError("wsvm_dual_solve shape mismatch")
    if np.any(C <= 0) or not np.all(np.isfinite(C)):
        raise DataError("caps must be finite and positive")
    _check_positive("tol", tol)  # a NaN tol would never stop the loop
    eps = 1e-12
    pos = a > 0
    if init is None:
        alpha = np.zeros(m)
        vals = a.copy()
    else:
        alpha = _feasible_start(init, a, C)
        vals = a - K @ (alpha * a)
    # index k may be the "up" end of a pair when up_pen[k] = 0 (else -inf) and
    # the "low" end when low_pen[k] = 0 (else +inf)
    rise = alpha < C - eps
    fall = alpha > eps
    up_pen = np.where(np.where(pos, rise, fall), 0.0, -np.inf)
    low_pen = np.where(np.where(pos, fall, rise), 0.0, np.inf)
    alpha_l = alpha.tolist()
    cap_l = C.tolist()
    pos_l = pos.tolist()
    diag_l = np.diagonal(K).tolist()
    vu = np.empty(m)
    vl = np.empty(m)
    delta = np.empty(m)
    updates = 0
    while True:
        np.add(vals, up_pen, out=vu)
        np.add(vals, low_pen, out=vl)
        i = int(vu.argmax())
        j = int(vl.argmin())
        viol = vu.item(i) - vl.item(j)
        if viol == -np.inf:  # no index can be the up end, or none the low end
            viol = 0.0
        if viol < tol or updates >= max_updates:
            break
        # feasible step along alpha_i += a_i*t, alpha_j -= a_j*t (t > 0)
        ai, ci, aj, cj = alpha_l[i], cap_l[i], alpha_l[j], cap_l[j]
        Ki, Kj = K[i], K[j]
        quad = diag_l[i] + diag_l[j] - 2.0 * Ki.item(j)
        t = viol / quad if quad > 1e-12 else np.inf
        t = min(t, ci - ai if pos_l[i] else ai, aj if pos_l[j] else cj - aj)
        ai = min(ai + t, ci) if pos_l[i] else max(ai - t, 0.0)
        aj = max(aj - t, 0.0) if pos_l[j] else min(aj + t, cj)
        alpha_l[i], alpha_l[j] = ai, aj
        np.subtract(Ki, Kj, out=delta)
        delta *= t
        vals -= delta
        for k, ak, ck in ((i, ai, ci), (j, aj, cj)):
            rises, falls = ak < ck - eps, ak > eps
            if not pos_l[k]:
                rises, falls = falls, rises
            up_pen[k] = 0.0 if rises else -np.inf
            low_pen[k] = 0.0 if falls else np.inf
        updates += 1
    alpha = np.array(alpha_l)
    coef = alpha * a
    fx = K @ coef
    free = (alpha > 1e-8 * C) & (alpha < C * (1 - 1e-8))
    resid = a - fx
    if free.any():
        b0 = float(np.mean(resid[free]))
    else:
        lower = resid[(pos & (alpha <= eps)) | (~pos & (alpha >= C - eps))]
        upper = resid[(pos & (alpha >= C - eps)) | (~pos & (alpha <= eps))]
        lo = np.max(lower) if lower.size else -np.inf
        hi = np.min(upper) if upper.size else np.inf
        if np.isfinite(lo) and np.isfinite(hi):
            b0 = float((lo + hi) / 2.0)
        elif np.isfinite(lo):
            b0 = float(lo)
        elif np.isfinite(hi):
            b0 = float(hi)
        else:
            b0 = 0.0
    objective = float(np.sum(alpha) - 0.5 * coef @ fx)
    sol = DualSolution(
        alphas=alpha,
        intercept=b0,
        objective=objective,
        kkt_violation=float(viol),
        updates=updates,
    )
    if updates >= max_updates and viol > 10 * tol:
        raise ConvergenceError(
            f"SMO hit {max_updates} pair updates with violation {viol:.3g}", best=sol
        )
    return sol


@dataclass(frozen=True)
class LinearProgram:
    """min c'x  s.t.  G x (sense_i) h,  x_j >= 0 unless free[j]; c, G, h finite."""

    c: np.ndarray
    G: np.ndarray
    h: np.ndarray
    senses: tuple
    free: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        G = np.atleast_2d(np.asarray(self.G, dtype=float))
        h = np.asarray(self.h, dtype=float)
        free = np.asarray(self.free, dtype=bool)
        if G.shape != (h.shape[0], c.shape[0]) or free.shape != c.shape:
            raise DataError("LinearProgram dimensions inconsistent")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(G)) and np.all(np.isfinite(h))):
            raise DataError("LinearProgram requires finite c, G and h")
        if len(self.senses) != h.shape[0]:
            raise DataError("one sense per constraint row required")
        for s in self.senses:
            if s not in ("<=", "=", ">="):
                raise DataError(f"bad constraint sense {s!r}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "senses", tuple(self.senses))
        object.__setattr__(self, "free", free)


@dataclass(frozen=True)
class LPSolution:
    x: np.ndarray
    objective: float
    pivots: int  # basis changes plus bound flips over both phases


_LP_TOL = 1e-9
_DEGENERATE_RUN = 50  # consecutive degenerate pivots before Bland's rule takes over


def _bounded_simplex(A, cost, upper, rhs, basis):
    """Bounded-variable revised simplex: min cost'x s.t. Ax = rhs, 0 <= x <= upper.

    basis holds one column index per row, a feasible start with every other
    variable at 0; it is updated in place.  The basis inverse gets a rank-1
    update when the basis changes; a bound flip (a nonbasic variable moving
    between 0 and its finite upper bound) keeps it and the reduced costs.  A
    variable whose upper bound is 0 never enters.  Pricing is Dantzig's
    largest reduced cost until a run of degenerate pivots, then Bland's
    smallest index until the objective moves again, which rules out cycling.
    The ratio test is one pass over the few rows (1+2p for the L1 dual) on
    Python floats.  The final vertex x and the dual prices are solved from
    the final basis, not read off the updates.  Returns (x, prices, pivots),
    where pivots counts basis changes plus bound flips; UnboundedLPError when
    the objective has no lower bound.
    """
    at_upper = np.zeros(A.shape[1], dtype=bool)
    # gain = d * sgn is the objective decrease per unit step; sgn is -1 at the
    # lower bound, +1 at the upper, 0 when basic or when the upper bound is 0
    sgn = np.where(upper > 0, -1.0, 0.0)
    sgn[basis] = 0.0
    Binv = np.linalg.inv(A[:, basis])
    xB = Binv @ rhs
    basic_upper = upper[basis].tolist()
    d = cost - (cost[basis] @ Binv) @ A
    pivots = degenerate_run = 0
    while True:
        gain = d * sgn
        bland = degenerate_run >= _DEGENERATE_RUN
        enter = int((gain > _LP_TOL if bland else gain).argmax())
        if not gain.item(enter) > _LP_TOL:  # a NaN reduced cost stops, not cycles
            break
        pivots += 1
        # x_B moves by -t * delta as the entering variable leaves its bound
        sign = -sgn.item(enter)
        alpha = Binv @ A[:, enter]
        delta = sign * alpha
        # ratio test; a tie leaves by largest |alpha| (Dantzig) or smallest basis index
        step, r, key = math.inf, -1, math.inf
        for i, (t, x, u) in enumerate(zip(delta.tolist(), xB.tolist(), basic_upper)):
            if t > _LP_TOL:
                ratio = max(x, 0.0) / t
            elif t < -_LP_TOL:
                ratio = max(u - x, 0.0) / -t
            else:
                continue
            if ratio <= step:
                k = basis.item(i) if bland else -abs(t)
                if ratio < step or k < key:
                    step, r, key = ratio, i, k
        u_enter = upper.item(enter)
        if not math.isfinite(min(step, u_enter)):  # step is inf when there are no rows
            raise UnboundedLPError("LP objective unbounded below")
        if u_enter <= step:  # a bound flip: basis, Binv and so d are unchanged
            xB -= u_enter * delta
            at_upper[enter] = sign > 0
            sgn[enter] = sign
            degenerate_run = 0
            continue
        leave = basis.item(r)
        xB -= step * delta
        xB[r] = (u_enter if sign < 0 else 0.0) + sign * step
        to_upper = at_upper[leave] = delta.item(r) < 0  # leave rises to its upper bound
        at_upper[enter] = False
        sgn[leave] = (1.0 if to_upper else -1.0) if upper.item(leave) > 0 else 0.0
        sgn[enter] = 0.0
        basis[r] = enter
        basic_upper[r] = u_enter
        prow = Binv[r] / alpha[r]
        Binv -= alpha[:, None] * prow
        Binv[r] = prow
        degenerate_run = degenerate_run + 1 if step <= _LP_TOL else 0
        d = cost - (cost[basis] @ Binv) @ A
    B = A[:, basis]
    x = np.where(at_upper, upper, 0.0)
    x[basis] = np.linalg.solve(B, rhs - A[:, at_upper] @ upper[at_upper])
    prices = np.linalg.solve(B.T, cost[basis])
    return x, prices, pivots


def simplex_solve(lp: LinearProgram) -> LPSolution:
    """Two-phase simplex on the standard form of lp, by _bounded_simplex.

    Free variables are split into x+ - x-, rows are negated where h < 0, and
    each inequality row gets a slack.  A "<=" row starts with its slack basic;
    "=" and ">=" rows start with an artificial.  Phase 1 minimizes the sum of
    the artificials and raises InfeasibleLPError above 1e-7.  Phase 2 bounds
    the artificials at 0, so one left basic at level 0 on a redundant row
    stays there, inert.
    """
    m, nv = lp.G.shape
    structural = np.hstack([lp.G, -lp.G[:, lp.free]])
    nstd = structural.shape[1]
    flip = lp.h < 0
    structural[flip] *= -1.0
    senses = np.array(lp.senses, dtype=str)
    le = np.where(flip, senses == ">=", senses == "<=")
    ineq = np.flatnonzero(senses != "=")
    slacks = np.zeros((m, ineq.size))
    slacks[ineq, np.arange(ineq.size)] = np.where(le[ineq], 1.0, -1.0)
    art = np.flatnonzero(~le)
    A = np.hstack([structural, slacks, np.eye(m)[:, art]])
    first_art = A.shape[1] - art.size
    basis = np.empty(m, dtype=int)
    basis[ineq] = nstd + np.arange(ineq.size)
    basis[art] = first_art + np.arange(art.size)  # overrides a ">=" row's -1 slack
    upper = np.full(A.shape[1], np.inf)
    rhs = np.abs(lp.h)
    pivots = 0
    if art.size:
        phase1 = np.zeros(A.shape[1])
        phase1[first_art:] = 1.0
        x, _, pivots = _bounded_simplex(A, phase1, upper, rhs, basis)
        if phase1 @ x > 1e-7:
            raise InfeasibleLPError("phase-1 objective positive: LP infeasible")
        upper[first_art:] = 0.0
    cost = np.zeros(A.shape[1])
    cost[:nstd] = np.concatenate([lp.c, -lp.c[lp.free]])
    x, _, phase2 = _bounded_simplex(A, cost, upper, rhs, basis)
    out = x[:nv].copy()
    out[lp.free] -= x[nv:nstd]
    return LPSolution(x=out, objective=float(lp.c @ out), pivots=pivots + phase2)


@dataclass(frozen=True)
class HingeL1Solution:
    """Minimizer of (1/m) sum w_i max(0, 1 - y_i (b0 + x_i'b)) + lam ||b||_1.

    objective is that primal value at (intercept, slopes); duality_gap is it
    minus the dual value sum(u).  pivots counts simplex iterations: basis
    changes plus bound flips.
    """

    intercept: float
    slopes: np.ndarray
    objective: float
    duality_gap: float
    pivots: int


_GAP_RTOL = 1e-9


def l1_hinge_dual_solve(X, labels, weights, lam) -> HingeL1Solution:
    """L1-penalized weighted hinge loss through its (1+2p)-row dual LP.

    The dual (Zhu, Rosset, Hastie & Tibshirani, "1-norm Support Vector
    Machines", 2003) is max sum(u) s.t. sum(u_i y_i) = 0,
    |sum(u_i y_i x_ij)| <= lam and 0 <= u_i <= w_i/m.  It is solved as
    min -sum(u) over [u, s+, s-] with rows

        y'u = 0,   (y*x_j)'u + s+_j = lam,   -(y*x_j)'u + s-_j = lam,

    by _bounded_simplex; a bound flip moves a u_i between 0 and w_i/m.  The
    start basis {u_0 in row 0 at value 0, every slack at lam} is feasible, so
    there is no phase 1.  The primal comes from the dual prices pi of the
    final basis: b0 = -pi_0 and b_j = pi-_j - pi+_j.  ConvergenceError is
    raised when the primal and dual objectives differ by more than
    1e-9 * max(1, |objective|), or when the simplex finds an unbounded ray.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(labels, dtype=float)
    w = np.asarray(weights, dtype=float)
    m, p = X.shape
    if y.shape != (m,) or w.shape != (m,):
        raise DataError("l1_hinge_dual_solve shape mismatch")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(w))):
        raise DataError("l1_hinge_dual_solve requires finite inputs")
    if np.any(np.abs(y) != 1.0) or np.unique(y).size < 2:
        raise DataError("labels must be +-1 with both classes present")
    if np.any(w <= 0):
        raise DataError("weights must be positive")
    _check_positive("lam", lam)
    rows = 1 + 2 * p
    yx = (y[:, None] * X).T
    A = np.zeros((rows, m + 2 * p))
    A[0, :m] = y
    A[1 : 1 + p, :m] = yx
    A[1 + p :, :m] = -yx
    A[1:, m:] = np.eye(2 * p)
    cost = np.concatenate([-np.ones(m), np.zeros(2 * p)])
    upper = np.concatenate([w / m, np.full(2 * p, np.inf)])
    rhs = np.concatenate([[0.0], np.full(2 * p, float(lam))])
    basis = np.concatenate([[0], m + np.arange(2 * p)])
    try:
        u, pi, pivots = _bounded_simplex(A, cost, upper, rhs, basis)
    except UnboundedLPError:
        raise ConvergenceError("L1 hinge dual simplex found an unbounded ray") from None
    intercept = float(-pi[0])
    slopes = pi[1 + p :] - pi[1 : 1 + p]
    margins = y * (intercept + X @ slopes)
    objective = float(
        np.mean(w * np.maximum(0.0, 1.0 - margins)) + lam * np.sum(np.abs(slopes))
    )
    gap = objective - float(np.sum(u[:m]))
    sol = HingeL1Solution(
        intercept=intercept,
        slopes=slopes,
        objective=objective,
        duality_gap=gap,
        pivots=pivots,
    )
    if abs(gap) > _GAP_RTOL * max(1.0, abs(objective)):
        raise ConvergenceError(
            f"L1 hinge dual simplex: duality gap {gap:.3g} after {pivots} pivots",
            best=sol,
        )
    return sol
