"""Core numerical workhorses.

The optimizers everything else is built on: least squares (ridge-jittered
normal equations), IRLS logistic regression, SMO for the weighted hinge-loss
dual on a Gram matrix, a batched interior-point method for that dual on
linear features, and one bounded-variable revised simplex (Dantzig pricing, Bland's rule
after a degenerate run, dual pivots from a warm start).  It solves both
phases of simplex_solve and the (1+2p)-row dual LP of the L1-penalized
weighted hinge loss, built once per step, each solve but the first from an
earlier final basis of it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .data import _check_integer, _feature_rows, _float_array
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
    "ols_fit",
    "logistic_fit",
    "wsvm_dual_solve",
    "simplex_solve",
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
    """Least squares of y on [1, X] with a 1e-8 ridge jitter for rank safety;
    DataError unless X holds finite rows and y one finite outcome per row."""
    X = _feature_rows(X, None)
    y = _float_array("outcomes", y)
    if y.shape != (X.shape[0],) or not np.all(np.isfinite(y)):
        raise DataError("ols_fit needs one finite outcome per row of X")
    A = np.column_stack([np.ones(X.shape[0]), X])
    H = A.T @ A + _OLS_JITTER * np.eye(A.shape[1])
    beta = np.linalg.solve(H, A.T @ y)
    return LinearModel(intercept=float(beta[0]), slopes=beta[1:])


def _irls(D, y, max_iter, gtol, start, Zc=None, held=None):
    """Ridge-damped Newton ascent on the Bernoulli log-likelihood of y, B fits at once.

    Every fit shares the block D (n, s).  With Zc (B, n), fit b also has the
    column Zc[b], as its last coefficient; with held (B,), fit b keeps its
    coefficient held[b] at 0 (its row and column of the Newton system are
    the identity's).  start (B, d) holds the starting coefficients.

    Nothing of size B*n*d is built.  Each step computes, on (B, n) arrays,
    eta = beta_S D' + beta_c * Zc (clipped to +-35), the gradient r D beside
    the row-wise r.Zc, and the Hessian's shared block w O (O holds the
    s(s+1)/2 row-wise products of D's columns), its cross terms (w * Zc) D
    and its corner the row-wise w.Zc^2.  When every fit starts at the same
    eta, the first step's p, w, shared gradient and shared Hessian block are
    computed once.  The Hessians get a 1e-6 ridge, weights a 1e-10 floor,
    and steps are clipped to |coef| <= 30; a fit stops once its gradient
    norm falls below gtol.  Returns (coefficients (B, d), iterations (B,),
    converged (B,), log-likelihoods (B,) at the eta where each fit stopped).
    """
    n, s = D.shape
    beta = np.array(start, dtype=float)
    B, d = beta.shape
    iu, ju = np.triu_indices(s)
    O = D[:, iu] * D[:, ju]
    iterations = np.full(B, max_iter)
    converged = np.zeros(B, dtype=bool)
    loglik = np.empty(B)
    active = np.arange(B)
    Za, held_a = Zc, held
    shared = bool((beta == beta[:1]).all()) and (Zc is None or not beta[0, s:].any())
    bufs = np.empty((4, B, n))  # eta, p, r-then-w and w * Zc of the active fits
    for it in range(1, max_iter + 2):
        eta, p, w = bufs[:3, : 1 if shared else active.size]
        if shared:  # one eta, broadcast over the fits
            np.matmul(D, beta[0, :s], out=eta[0])
        else:
            np.matmul(beta[active, :s], D.T, out=eta)
            if Za is not None:
                eta += np.multiply(beta[active, s, None], Za, out=p)
        np.clip(eta, -35, 35, out=eta)
        if it > max_iter:
            loglik[active] = eta @ y - np.log1p(np.exp(eta)).sum(axis=1)
            break
        np.negative(eta, out=p)
        np.exp(p, out=p)
        p += 1.0
        np.divide(1.0, p, out=p)
        r = np.subtract(y, p, out=w)
        grad = np.empty((active.size, d))
        grad[:, :s] = r @ D
        if Za is not None:
            grad[:, s] = np.einsum("bn,bn->b", r, Za)
        if held_a is not None:
            grad[np.arange(active.size), held_a] = 0.0
        done = np.sqrt((grad * grad).sum(axis=1)) < gtol  # np.linalg.norm's arithmetic
        if done.any():
            stop = np.broadcast_to(eta, (active.size, n))[done]
            loglik[active[done]] = stop @ y - np.log1p(np.exp(stop)).sum(axis=1)
            iterations[active[done]] = it
            converged[active[done]] = True
            keep = ~done
            active, grad = active[keep], grad[keep]
            if not active.size:
                break
            if not shared:
                p, w = p[keep], w[: keep.sum()]
            Za = None if Za is None else Za[keep]
            held_a = None if held_a is None else held_a[keep]
        np.subtract(1.0, p, out=w)
        w *= p
        np.maximum(w, 1e-10, out=w)
        H = np.empty((active.size, d, d))
        H[:, iu, ju] = H[:, ju, iu] = w @ O
        if Za is not None:
            wZ = np.multiply(w, Za, out=bufs[3, : active.size])
            H[:, s, :s] = H[:, :s, s] = wZ @ D
            H[:, s, s] = np.einsum("bn,bn->b", wZ, Za)
        H.reshape(active.size, d * d)[:, :: d + 1] += _LOGISTIC_RIDGE
        if held_a is not None:
            rows = np.arange(active.size)
            H[rows, held_a, :] = 0.0
            H[rows, :, held_a] = 0.0
            H[rows, held_a, held_a] = 1.0
        step = np.linalg.solve(H, grad[..., None])[..., 0]
        step += beta[active]
        beta[active] = np.clip(step, -_COEF_CAP, _COEF_CAP, out=step)
        shared = False
    return beta, iterations, converged, loglik


def logistic_fit(X, labels) -> LogisticModel:
    """IRLS maximization of the Bernoulli log-likelihood.

    Hessian gets a 1e-6 ridge; stops at gradient norm < 1e-8.  Separated data
    does not error: coefficients are capped at |coef| <= 30 and the model is
    returned with converged=False.
    """
    X = _float_array("features", X)
    X = _feature_rows(X[:, None] if X.ndim == 1 else X, None)  # a vector is one column
    y = _float_array("labels", labels)
    if y.shape != (X.shape[0],):
        raise DataError("logistic_fit needs one label per row of X")
    if set(np.unique(y)) - {0.0, 1.0}:
        raise DataError("labels must be 0/1")
    if np.unique(y).size < 2:
        raise DataError("logistic_fit needs both classes present")
    D = np.column_stack([np.ones(X.shape[0]), X])
    start = np.zeros((1, D.shape[1]))
    (beta,), (it,), (converged,), _ = _irls(D, y, _LOGISTIC_MAXIT, _LOGISTIC_GTOL, start)
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

    gram is the finite kernel matrix and must be symmetric: the solver reads
    its rows where the gradient update needs columns.  labels are +-1 and caps
    the per-sample box bounds C_i >= 0, positive on rows of both labels; a
    row of cap 0 is outside the problem (alpha 0, in no pair, not in the
    intercept).  init is a feasible start (0 <= alpha <= C,
    sum(alpha*label) = 0), zero when None; an infeasible one raises DataError.

    The state is one (3, m) array V.  Row 0 is vals = -label * gradient; a pair
    step of length t moves it by -t * (K[i] - K[j]) since label^2 = 1.  Row 1
    is vals where index k may be the "up" end of a pair and -inf elsewhere;
    row 2 is vals where k may be the "low" end and +inf elsewhere.  One
    V -= delta moves all three rows, and only i and j can change status.  The
    two-variable step itself runs on Python floats.  The recovered intercept
    averages over free support vectors, falling back to the midpoint of the
    feasible interval.
    """
    return _smo(_finite_gram(_float_array("gram", gram)), labels, caps, tol, max_updates, init)


def _finite_gram(K):
    """K, or DataError unless every entry is finite: one pass, made where K is built."""
    if not np.all(np.isfinite(K)):
        raise DataError("gram must be finite")
    return K


def _smo(gram, labels, caps, tol=1e-5, max_updates=1_000_000, init=None):
    """wsvm_dual_solve without the m^2 finiteness pass over gram, which its
    caller made once where gram was built; every other check stays."""
    K = np.asarray(gram, dtype=float)
    a = _float_array("labels", labels)
    C = _float_array("caps", caps)
    m = a.size
    if a.ndim != 1 or K.shape != (m, m) or C.shape != (m,):
        raise DataError("wsvm_dual_solve shape mismatch")
    if np.any(np.abs(a) != 1.0):
        raise DataError("labels must be +-1")
    if not np.all((C >= 0) & (C < np.inf)):  # NaN fails too
        raise DataError("caps must be finite and >= 0")
    pos = a > 0
    if not ((C > 0) & pos).any() or not ((C > 0) & ~pos).any():
        raise DataError("caps must be positive on rows of both labels")
    _check_positive("tol", tol)  # a NaN tol would never stop the loop
    _check_integer("max_updates", max_updates, 1)
    eps = 1e-12
    V = np.empty((3, m))
    vals, vu, vl = V
    if init is None:
        alpha = np.zeros(m)
        vals[:] = a
    else:
        alpha = _feasible_start(init, a, C)
        vals[:] = a - K @ (alpha * a)
    # index k may be the "up" end of a pair when its row-1 entry is finite
    # (else -inf) and the "low" end when its row-2 entry is finite (else +inf)
    rise = alpha < C - eps
    fall = alpha > eps
    np.copyto(vu, np.where(np.where(pos, rise, fall), vals, -np.inf))
    np.copyto(vl, np.where(np.where(pos, fall, rise), vals, np.inf))
    alpha_l = alpha.tolist()
    cap_l = C.tolist()
    pos_l = pos.tolist()
    diag_l = np.diagonal(K).tolist()
    delta = np.empty(m)
    updates = 0
    while True:
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
        V -= delta  # the +-inf entries of rows 1 and 2 stay infinite
        for k, ak, ck in ((i, ai, ci), (j, aj, cj)):
            rises, falls = ak < ck - eps, ak > eps
            if not pos_l[k]:
                rises, falls = falls, rises
            v = vals.item(k)
            vu[k] = v if rises else -np.inf
            vl[k] = v if falls else np.inf
        updates += 1
    alpha = np.array(alpha_l)
    coef = alpha * a
    fx = K @ coef
    free = (alpha > 1e-8 * C) & (alpha < C * (1 - 1e-8))
    resid = a - fx
    if free.any():
        b0 = float(np.mean(resid[free]))
    else:  # the rows of cap 0 are outside the problem and bound neither end
        at_zero, at_cap = (alpha <= eps) & (C > 0), (alpha >= C - eps) & (C > 0)
        lower = resid[(pos & at_zero) | (~pos & at_cap)]
        upper = resid[(pos & at_cap) | (~pos & at_zero)]
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
    if updates >= max_updates and not viol <= 10 * tol:  # a NaN violation raises too
        raise ConvergenceError(
            f"SMO hit {max_updates} pair updates with violation {viol:.3g}", best=sol
        )
    if not np.all(np.isfinite(alpha)):
        # finite gram entries whose differences overflow turn the state into
        # NaN, and a NaN alpha leaves both masks, so the loop stops as if done
        raise ConvergenceError("SMO state became non-finite; gram entries too large", best=sol)
    return sol


_IPM_RTOL = 1e-8  # residuals, in margin units, at which an interior-point solve stops
_IPM_GTOL = 1e-14  # complementarity gap over sum(C) at which it stops
_IPM_MAX_ITER = 50
_IPM_STEP = 0.99  # share of the way to the boundary that a step goes
_IPM_SPLIT = 1e6  # rows of larger v^2/D stay out of the elimination


def _linear_svm_ipm(X, labels, caps):
    """B weighted-SVM duals on the linear kernel of X (m x p), solved in lockstep.

    Problem b has the box caps caps[b] (caps is B x m, 0 on rows outside the
    problem; its positive caps cover both labels).  In beta = alpha / C it
    reads min 1/2 beta'Q beta - C'beta s.t. v'beta = 0, beta + s = 1 and
    beta, s >= 0, with v = C * labels and Q = V V', V = diag(v) X, of rank
    <= p and never formed.  The upper slack s is a variable of its own, so
    no digit is lost to 1 - beta.  A primal-dual predictor-corrector
    (Mehrotra) method runs on (beta, s, z, u) and nu: z and u are the
    bounds' multipliers, started at beta = s = 1/2 and z = u = 1 + C, and nu
    is the equality's, which is the intercept.

    Each Newton system is (D + V V') d_beta + v d_nu = g, v'd_beta = -r_e,
    with D = z/beta + u/s diagonal.  Sherman-Morrison-Woodbury eliminates
    d_beta_i = (g_i - v_i x1_i'd) / D_i, x1_i = (x_i, 1), leaving a
    (p+1)-vector d = (V'd_beta, d_nu) and the capacitance matrix
    I' + X1' diag(v^2/D) X1, I' = diag(1, ..., 1, 0): one (B, m) @
    (m, (p+1)(p+2)/2) product builds all B of them.  Near the optimum the
    free rows' D goes to 0, and their huge v^2/D would swamp the rest of
    that sum in rounding.  So the k rows of largest v^2/D (at least p+1, and
    every row above _IPM_SPLIT) keep d_beta_i as an unknown, with their own
    equation v_i x1_i'd + D_i d_beta_i = g_i beside the capacitance block:
    one stacked np.linalg.solve of (p+1+k)-square systems per direction.
    The products of X1's columns are checked finite first (DataError "gram
    must be finite").

    A problem stops, its rows frozen, once every dual residual over its C_i
    (the margin units of SMO's KKT violation) and the equality residual over
    sum(C) are within _IPM_RTOL and the complementarity gap over sum(C) is
    within _IPM_GTOL.  Returns (alphas (B, m), slopes X'(alpha * labels)
    (B, p), intercepts (B,), iterations).  A problem left open after
    _IPM_MAX_ITER iterations, or whose state turns non-finite, raises
    ConvergenceError; its best holds those first three arrays at each
    problem's least-residual iterate.
    """
    m, p = X.shape
    X1 = np.column_stack([X, np.ones(m)])
    iu, ju = np.triu_indices(p + 1)
    O = _finite_gram(X1[:, iu] * X1[:, ju])
    c = np.asarray(caps, dtype=float)
    v = c * labels
    B = c.shape[0]
    total, cscale = c.sum(axis=1), np.where(c > 0, c, 1.0)
    P = np.empty((4, B, m))  # beta, s, z, u
    P[:2], P[2:] = 0.5, 1.0 + c
    beta, s, z, u = P
    nu = np.zeros(B)
    rows = np.arange(B)[:, None]
    open_ = np.ones(B, dtype=bool)
    best_err = np.full(B, np.inf)
    best = (np.zeros((B, m)), np.zeros((B, p)), np.zeros(B))

    def to_boundary(d):
        """The longest step per problem along d that keeps P >= 0 (P > 0 now)."""
        lo = (d / P).min(axis=(0, 2))
        return np.divide(-1.0, lo, out=np.full(B, np.inf), where=lo < 0)

    def direction(rz, ru):
        """The Newton step (d_P, d_nu) toward z beta = z beta + rz, u s = u s + ru."""
        g = rz / beta - (ru + u * rs) / s - rd
        h = v * g / D
        h[rows, K] = 0.0
        rhs = np.concatenate([h @ X1, g[rows, K]], axis=1)
        rhs[:, p] += re
        try:
            sol = np.linalg.solve(A, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            raise ConvergenceError("interior-point Newton system singular", best=best) from None
        d = np.empty_like(P)
        d[0] = (g - v * (sol[:, : p + 1] @ X1.T)) / D
        d[0][rows, K] = sol[:, p + 1 :]
        d[1] = -rs - d[0]
        d[2] = (rz - z * d[0]) / beta
        d[3] = (ru - u * d[1]) / s
        return d, sol[:, p]

    for it in range(_IPM_MAX_ITER + 1):
        alpha = c * beta
        slopes = (v * beta) @ X
        rd = v * (slopes @ X.T + nu[:, None]) - c - z + u
        re = np.einsum("bm,bm->b", v, beta)
        rs = beta + s - 1.0
        gap = np.einsum("bm,bm->b", z, beta) + np.einsum("bm,bm->b", u, s)
        err = np.maximum.reduce([
            (np.abs(rd) / cscale).max(axis=1) / _IPM_RTOL, np.abs(re) / total / _IPM_RTOL,
            np.abs(rs).max(axis=1) / _IPM_RTOL, gap / total / _IPM_GTOL,
        ])
        better = open_ & (err < best_err)
        best_err[better] = err[better]
        for kept, now in zip(best, (alpha, slopes, nu)):
            kept[better] = now[better]
        if not np.all(np.isfinite(err[open_])):
            raise ConvergenceError("interior-point state became non-finite", best=best)
        open_ &= err > 1.0
        if not open_.any():
            return alpha, slopes, nu, it
        if it == _IPM_MAX_ITER:
            break
        D = z / beta + u / s
        omega = v * v / D
        k = min(m, max(p + 1, int((omega > _IPM_SPLIT).sum(axis=1).max())))
        K = np.argpartition(-omega, k - 1, axis=1)[:, :k]
        omega[rows, K] = 0.0
        A = np.zeros((B, p + 1 + k, p + 1 + k))
        A[:, iu, ju] = A[:, ju, iu] = omega @ O
        A[:, np.arange(p), np.arange(p)] += 1.0
        vXK = v[rows, K][..., None] * X1[K]  # (B, k, p + 1)
        A[:, p + 1 :, : p + 1] = vXK
        A[:, : p + 1, p + 1 :] = -vXK.transpose(0, 2, 1)
        A[:, np.arange(p + 1, p + 1 + k), np.arange(p + 1, p + 1 + k)] = D[rows, K]
        d, _ = direction(-z * beta, -u * s)
        Pa = P + np.minimum(1.0, to_boundary(d))[:, None] * d
        mu = gap / (2 * m)
        mu_aff = (np.einsum("bm,bm->b", Pa[0], Pa[2])
                  + np.einsum("bm,bm->b", Pa[1], Pa[3])) / (2 * m)
        target = ((mu_aff / mu) ** 3 * mu)[:, None]
        d, dnu = direction(target - z * beta - d[2] * d[0], target - u * s - d[3] * d[1])
        d[:, ~open_], dnu[~open_] = 0.0, 0.0  # frozen, also where d is not finite
        t = np.minimum(1.0, _IPM_STEP * to_boundary(d))
        P += t[:, None] * d
        nu += t * dnu
    raise ConvergenceError(
        f"interior-point solve open after {_IPM_MAX_ITER} iterations, "
        f"residual {best_err.max():.3g} times its tolerance",
        best=best,
    )


@dataclass(frozen=True)
class LinearProgram:
    """min c'x  s.t.  G x (sense_i) h,  x_j >= 0 unless free[j]; c, G, h finite."""

    c: np.ndarray
    G: np.ndarray
    h: np.ndarray
    senses: tuple
    free: np.ndarray

    def __post_init__(self):
        c = _float_array("c", self.c)
        G = np.atleast_2d(_float_array("G", self.G))
        h = _float_array("h", self.h)
        free = np.asarray(self.free)
        if free.dtype != bool or free.shape != c.shape:
            raise DataError("LinearProgram's free must hold one boolean per variable")
        if G.shape != (h.shape[0], c.shape[0]):
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
    """Bounded-variable revised simplex: min cost'x s.t. Ax = rhs, 0 <= x <= upper,
    from a feasible basis with every nonbasic variable at 0.

    The pivots of _simplex_pivots, then x and the dual prices solved from the
    final basis in the order the pivots left its columns.  basis is updated
    in place.  Returns (x, prices, pivots).
    """
    at_upper, pivots = _simplex_pivots(A, cost, upper, rhs, basis)
    x, prices = _vertex(A, cost, upper, rhs, basis, at_upper)
    return x, prices, pivots


def _vertex(A, cost, upper, rhs, basis, at_upper):
    """(x, dual prices) of the basis: nonbasic variables at 0 or, where
    at_upper, at their upper bound; two solves with the basis matrix."""
    B = A[:, basis]
    x = np.where(at_upper, upper, 0.0)
    x[basis] = np.linalg.solve(B, rhs - A[:, at_upper] @ upper[at_upper])
    return x, np.linalg.solve(B.T, cost[basis])


def _leaving_row(xB, basic_upper, basis, bland):
    """The dual pivot's leaving row: the first row of largest violation
    max(-x, x - upper) above _LP_TOL, or under Bland's rule the violated row
    of smallest basis index; -1 when every row is within its bounds.  A NaN
    row never leaves."""
    viol = np.fmax(np.fmax(-xB, xB - basic_upper), 0.0)  # NaN reads 0
    r = int(viol.argmax())
    if not viol.item(r) > _LP_TOL:
        return -1
    if bland:
        out = (viol > _LP_TOL).nonzero()[0]
        r = int(out[basis[out].argmin()])
    return r


def _simplex_pivots(A, cost, upper, rhs, basis, at_upper=None):
    """The pivot loop of _bounded_simplex: returns (at_upper, pivots).

    basis holds one column index per row and at_upper flags the nonbasic
    variables at their upper bound (None: none, from a feasible basis); both
    are updated in place.  A given start must be primal feasible or dual
    feasible, as a final basis is after a change to rhs, or to upper once
    each nonbasic variable sits at the bound its reduced cost prefers.
    While x_B leaves its bounds, dual pivots come first: the row of largest
    violation leaves (_leaving_row; a NaN row never does), and of the columns
    whose move reduces it, the one of smallest |d_j / rho_j| enters (rho is
    that row of Binv A; ties go to the largest |rho_j|), else
    InfeasibleLPError.  The basis inverse gets a rank-1 update
    when the basis changes; a bound flip (a nonbasic variable moving between 0 and its
    finite upper bound) keeps it and the reduced costs.  A variable whose
    upper bound is 0 never enters.  Pricing is Dantzig's largest reduced cost
    until a run of degenerate pivots, then Bland's smallest index (and the
    violated row of smallest basis index) until the objective moves again,
    which rules out cycling.  The ratio test is one pass over the few rows
    (1+2p for the L1 dual) on Python floats.  pivots counts dual pivots,
    basis changes and bound flips; UnboundedLPError when the objective has
    no lower bound.
    """
    warm = at_upper is not None
    at_upper = at_upper if warm else np.zeros(A.shape[1], dtype=bool)
    # gain = d * sgn is the objective decrease per unit step; sgn is -1 at the
    # lower bound, +1 at the upper, 0 when basic or when the upper bound is 0
    sgn = np.where(upper > 0, np.where(at_upper, 1.0, -1.0), 0.0)
    sgn[basis] = 0.0
    Binv = np.linalg.inv(A[:, basis])
    xB = Binv @ (rhs - A[:, at_upper] @ upper[at_upper])
    basic_upper = upper[basis]
    d = cost - (cost[basis] @ Binv) @ A
    pivots = degenerate_run = 0

    def exchange(r, enter, alpha, move, to_upper):
        """enter, moved by move, replaces basis[r], which leaves at upper if to_upper, else 0."""
        np.subtract(xB, move * alpha, out=xB)
        xB[r] = (upper.item(enter) if sgn.item(enter) > 0 else 0.0) + move
        leave = basis.item(r)
        at_upper[leave], at_upper[enter] = to_upper, False
        sgn[leave] = (1.0 if to_upper else -1.0) if upper.item(leave) > 0 else 0.0
        sgn[enter] = 0.0
        basis[r] = enter
        basic_upper[r] = upper.item(enter)
        prow = Binv[r] / alpha[r]
        np.subtract(Binv, alpha[:, None] * prow, out=Binv)
        Binv[r] = prow

    while warm and xB.size:
        bland = degenerate_run >= _DEGENERATE_RUN
        r = _leaving_row(xB, basic_upper, basis, bland)
        if r < 0:
            break
        pivots += 1
        rise = xB.item(r) < 0  # the leaving variable goes to 0, else to its upper bound
        rho = Binv[r] @ A
        toward = sgn * rho if rise else sgn * -rho  # |rho_j| where a move of j helps row r
        cand = (toward > _LP_TOL).nonzero()[0]
        if not cand.size:
            raise InfeasibleLPError("no column can bring a basic variable back to its bounds")
        ratio = np.minimum(d[cand] * sgn[cand], 0.0) / toward[cand]  # -|d_j / rho_j|
        best = ratio.max()
        tied = cand[ratio >= best]
        enter = int(tied[0] if bland else tied[toward[tied].argmax()])
        alpha = Binv @ A[:, enter]
        move = (xB.item(r) - (0.0 if rise else basic_upper.item(r))) / alpha.item(r)
        d -= (d.item(enter) / rho.item(enter)) * rho
        exchange(r, enter, alpha, move, not rise)
        degenerate_run = degenerate_run + 1 if best >= -_LP_TOL else 0
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
        for i, (t, x, u) in enumerate(zip(delta.tolist(), xB.tolist(), basic_upper.tolist())):
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
        exchange(r, enter, alpha, sign * step, delta.item(r) < 0)  # leave rises to its upper bound
        degenerate_run = degenerate_run + 1 if step <= _LP_TOL else 0
        d = cost - (cost[basis] @ Binv) @ A
    return at_upper, pivots


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
class _HingeL1Solution:
    """Minimizer of (1/m) sum w_i max(0, 1 - y_i (b0 + x_i'b)) + lam ||b||_1.

    objective is that primal value at (intercept, slopes); duality_gap is it
    minus the dual value sum(u).  pivots counts simplex iterations: dual
    pivots, basis changes and bound flips.
    """

    intercept: float
    slopes: np.ndarray
    objective: float
    duality_gap: float
    pivots: int


_GAP_RTOL = 1e-9


class _L1DualLP:
    """The (1+2p)-row dual LP of the L1-penalized weighted hinge loss over
    every row of X, built once and solved by _l1_path for any weights.

    The dual (Zhu, Rosset, Hastie & Tibshirani, "1-norm Support Vector
    Machines", 2003) is max sum(u) s.t. sum(u_i y_i) = 0,
    |sum(u_i y_i x_ij)| <= lam and 0 <= u_i <= w_i/m.  It is solved as
    min -sum(u) over [u, s+, s-] with rows

        y'u = 0,   (y*x_j)'u + s+_j = lam,   -(y*x_j)'u + s-_j = lam,

    by _bounded_simplex; a bound flip moves a u_i between 0 and w_i/m.  The
    cold start basis {the first positive-weight u_i in row 0 at value 0, every
    slack at lam} is feasible, so there is no phase 1.  The primal comes from
    the dual prices pi of the final basis, its columns sorted: b0 = -pi_0 and
    b_j = pi-_j - pi+_j.
    _l1_path raises ConvergenceError when the primal and dual objectives
    differ by more than 1e-9 * max(1, |objective|), or when the simplex finds
    an unbounded ray.  starts maps each lambda to the final (basis, at_upper,
    prices) of its latest solve.
    """

    def __init__(self, X, labels):
        X = _feature_rows(X, None)
        y = _float_array("labels", labels)
        m, p = X.shape
        if y.shape != (m,):
            raise DataError("L1 dual LP: labels need one entry per row of X")
        if np.any(np.abs(y) != 1.0):
            raise DataError("labels must be +-1 with both classes present")
        yx = (y[:, None] * X).T
        A = np.zeros((1 + 2 * p, m + 2 * p))
        A[0, :m] = y
        A[1 : 1 + p, :m] = yx
        A[1 + p :, :m] = -yx
        A[1:, m:] = np.eye(2 * p)
        self.X, self.y, self.A = X, y, A
        self.cost = np.concatenate([-np.ones(m), np.zeros(2 * p)])
        self.starts = {}


def _l1_path(lp, weights, lambdas):
    """The L1 hinge fit on lp (an _L1DualLP) with weights, per lambda, in order.

    weights are finite, >= 0 and one per row, else DataError; the positive
    ones, on rows of both classes, give upper bounds w_i / (their count), and
    the other u's 0, so they never enter.  A lambda an earlier call solved,
    with any weights, starts from lp.starts[lambda], so in cv_tune each later
    fold starts from the previous fold's final basis at it and the refit from
    the last fold's; any other lambda from the previous lambda's final basis,
    or cold from {the first positive-weight u, every slack} for the first.
    The reduced costs d = -1 - pi'A_j of a basis depend on neither weights nor
    lambda, so a start whose nonbasic u's sit at the bound d prefers (upper
    where d < 0 and upper > 0, else 0; kept where d = 0) is dual feasible,
    and dual pivots drive out the basic u's now outside their bounds.  A warm
    solve that fails is solved again cold.  u and the prices are solved once,
    from the final basis sorted, so the fit depends on that basis alone, not
    on the order in which pivots placed its columns.  Returns the solutions;
    lp.starts then holds their bases.
    """
    for lam in lambdas:
        _check_positive("lam", lam)
    weights = _float_array("weights", weights)
    if weights.shape != lp.y.shape or not np.all((weights >= 0) & (weights < np.inf)):
        raise DataError("weights must be finite and >= 0, one per row")
    rows = np.flatnonzero(weights > 0)
    y, w = lp.y[rows], weights[rows]
    if np.unique(y).size < 2:
        raise DataError("labels must be +-1 with both classes present")
    X = lp.X[rows]
    n, p = lp.y.size, lp.X.shape[1]
    upper = np.zeros(n + 2 * p)
    upper[rows] = w / rows.size
    upper[n:] = np.inf
    cold = np.concatenate([rows[:1], n + np.arange(2 * p)])
    basis, at_upper = cold.copy(), np.zeros(n + 2 * p, dtype=bool)

    def solve(lam):
        rhs = np.concatenate([[0.0], np.full(2 * p, float(lam))])
        try:
            _, pivots = _simplex_pivots(lp.A, lp.cost, upper, rhs, basis, at_upper)
        except UnboundedLPError:
            raise ConvergenceError("L1 hinge dual simplex found an unbounded ray") from None
        basis.sort()
        u, pi = _vertex(lp.A, lp.cost, upper, rhs, basis, at_upper)
        intercept = float(-pi[0])
        slopes = pi[1 + p :] - pi[1 : 1 + p]
        hinge = np.mean(w * np.maximum(0.0, 1.0 - y * (intercept + X @ slopes)))
        objective = float(hinge + lam * np.sum(np.abs(slopes)))
        gap = objective - float(np.sum(u[rows]))
        sol = _HingeL1Solution(intercept, slopes, objective, gap, pivots)
        if abs(gap) > _GAP_RTOL * max(1.0, abs(objective)):
            msg = f"L1 hinge dual simplex: duality gap {gap:.3g} after {pivots} pivots"
            raise ConvergenceError(msg, best=sol)
        return sol, pi

    # the cold start is feasible, so from it the dual loop makes no pivot
    path, finals = [], {}
    for k, lam in enumerate(lambdas):
        start = lp.starts.get(lam)
        if start is not None:
            basis[:], at_upper[:] = start[0], start[1]
            d = lp.cost[:n] - start[2] @ lp.A[:, :n]
            at_upper[:n] = ((d < 0) | ((d == 0) & at_upper[:n])) & (upper[:n] > 0)
            at_upper[basis] = False
        try:
            sol, pi = solve(lam)
        except (ConvergenceError, InfeasibleLPError):
            if k == 0 and start is None:
                raise
            basis[:], at_upper[:] = cold, False
            sol, pi = solve(lam)
        path.append(sol)
        finals[lam] = (basis.copy(), at_upper.copy(), pi)
    lp.starts.update(finals)
    return path
