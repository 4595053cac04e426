"""Independent brute-force oracles used by the acceptance suite.

These deliberately avoid the package's own solvers: the quadratic-program
oracle enumerates active sets of the box-and-hyperplane feasible region, and
the linear-program oracle enumerates basic feasible points (vertices).  Both
are exponential and only suitable for the tiny instances the acceptance
criteria prescribe.  The module also keeps small reference helpers for the
unit tests: a direct kernel evaluation, the L1 zero-slope penalty level, a
Monte Carlo check of the simulation settings, the one-candidate-at-a-time
stepwise screen and the stacked-design batched screen the gather-free one is
checked against, the vectorised bounded simplex the Python-float pivot loop
is checked against, the Python-float scan for a dual pivot's leaving row
the numpy one is checked against, the two-penalty-vector SMO loop the stacked-state one
is checked against, and the allocating Gram path (a new Gram matrix per
sigma and per prediction block) the shared-distance, buffered one is checked
against.
"""

import itertools

import numpy as np

from ordinalsr import solvers
from ordinalsr.exceptions import DataError, UnboundedLPError
from ordinalsr.simgen import true_optimal
from ordinalsr.varselect import EBIC_GAMMA, ScreenResult, _ebic


def svm_dual_oracle(gram, labels, caps):
    """Exact maximum of sum(a) - 1/2 (a*y)' K (a*y) over the dual feasible set.

    Feasible set: 0 <= alpha <= C, sum(alpha * y) = 0.  Every candidate active
    set (each coordinate at its lower bound, upper bound, or free) yields one
    stationary candidate; the optimum is the best feasible candidate.  The
    candidates are enumerated by free set: for each of the 2^m free sets, one
    least-squares call solves the stationarity system for every 0/C pattern of
    the fixed coordinates at once, one right-hand side per pattern.
    """
    K = np.asarray(gram, dtype=float)
    y = np.asarray(labels, dtype=float)
    C = np.asarray(caps, dtype=float)
    m = y.shape[0]
    Q = np.outer(y, y) * K
    best = -np.inf
    best_alpha = None
    for free_mask in itertools.product((False, True), repeat=m):
        free = np.flatnonzero(free_mask)
        fixed = np.flatnonzero(~np.array(free_mask))
        nf = free.size
        # one column per 0/C pattern of the fixed coordinates (bit k of the
        # column index puts fixed coordinate k at its cap)
        patterns = np.arange(2**fixed.size)
        at_cap = (patterns >> np.arange(fixed.size)[:, None]) & 1
        alpha = np.zeros((m, patterns.size))
        alpha[fixed] = at_cap * C[fixed, None]
        if nf:
            # stationarity on the free block with the hyperplane multiplier
            A = np.zeros((nf + 1, nf + 1))
            A[:nf, :nf] = Q[np.ix_(free, free)]
            A[:nf, nf] = y[free]
            A[nf, :nf] = y[free]
            rhs = np.empty((nf + 1, alpha.shape[1]))
            rhs[:nf] = 1.0 - Q[np.ix_(free, fixed)] @ alpha[fixed]
            rhs[nf] = -(y[fixed] @ alpha[fixed])
            sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
            solved = np.linalg.norm(A @ sol - rhs, axis=0) <= 1e-8
            alpha[free] = sol[:nf]
            alpha = alpha[:, solved]
        feasible = (
            np.all(alpha >= -1e-10, axis=0)
            & np.all(alpha <= C[:, None] + 1e-10, axis=0)
            & (np.abs(y @ alpha) <= 1e-8)
        )
        clipped = np.clip(alpha[:, feasible], 0.0, C[:, None])
        if clipped.shape[1]:
            values = clipped.sum(axis=0) - 0.5 * np.einsum("ip,ij,jp->p", clipped, Q, clipped)
            j = int(np.argmax(values))
            if values[j] > best:
                best = float(values[j])
                best_alpha = clipped[:, j]
    return best, best_alpha


def lp_vertex_oracle(c, G, h, senses, free):
    """Exact minimum of c'x over {G x (sense) h, x_j >= 0 unless free[j]}.

    Enumerates all vertices: intersections of n linearly independent active
    constraints drawn from the rows of G plus the nonnegativity bounds.
    Returns the best objective, or None if no feasible vertex exists.  Only
    valid for pointed, bounded feasible regions.
    """
    c = np.asarray(c, dtype=float)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    h = np.asarray(h, dtype=float)
    free = np.asarray(free, dtype=bool)
    m, n = G.shape
    rows = [(G[i], h[i]) for i in range(m)]
    for j in range(n):
        if not free[j]:
            e = np.zeros(n)
            e[j] = 1.0
            rows.append((e, 0.0))
    total = len(rows)
    best = None
    for combo in itertools.combinations(range(total), n):
        A = np.array([rows[i][0] for i in combo])
        b = np.array([rows[i][1] for i in combo])
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if _feasible(x, G, h, senses, free):
            val = float(c @ x)
            if best is None or val < best:
                best = val
    return best


def _feasible(x, G, h, senses, free, tol=1e-7):
    vals = G @ x
    for i, s in enumerate(senses):
        if s == "<=" and vals[i] > h[i] + tol:
            return False
        if s == ">=" and vals[i] < h[i] - tol:
            return False
        if s == "=" and abs(vals[i] - h[i]) > tol:
            return False
    return bool(np.all(x[~free] >= -tol))


def l1_aol_lp_encoding(X, labels, weights, lam):
    """LP encoding of the L1-penalized weighted hinge fit, for the vertex oracle.

    Variables: [beta0 (free), beta+ (p), beta- (p), xi (m)]; minimize
    lam * 1'(beta+ + beta-) + (w/m)' xi subject to
    label_i * (beta0 + x_i beta) + xi_i >= 1, all non-intercept parts >= 0.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    labels = np.asarray(labels, dtype=float)
    weights = np.asarray(weights, dtype=float)
    m, p = X.shape
    nv = 1 + 2 * p + m
    c = np.concatenate([[0.0], np.full(2 * p, lam), weights / m])
    G = np.zeros((m, nv))
    G[:, 0] = labels
    lx = labels[:, None] * X
    G[:, 1 : 1 + p] = lx
    G[:, 1 + p : 1 + 2 * p] = -lx
    G[np.arange(m), 1 + 2 * p + np.arange(m)] = 1.0
    free = np.zeros(nv, dtype=bool)
    free[0] = True
    return c, G, np.ones(m), (">=",) * m, free


def kernel_eval(spec, u, v) -> float:
    """One kernel value k(u, v), computed directly; gram_matrix is checked against it."""
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if u.shape != v.shape:
        raise DataError("kernel arguments must have equal dimension")
    if spec.kind == "linear":
        return float(u @ v)
    d2 = float(np.sum((u - v) ** 2))
    return float(np.exp(-d2 / (2.0 * spec.bandwidth**2)))


def lambda_max(sub) -> float:
    """Smallest L1 penalty level at which every slope of the L1 rule is zero."""
    keep = sub.weights > 0
    X = sub.features[keep]
    wl = sub.weights[keep] * sub.labels[keep]
    m = X.shape[0]
    return float(np.max(np.abs(wl @ X)) / m)


def validate_setting(spec, draws=100_000, seed=20_260_824, min_freq=0.01):
    """Monte Carlo check that every class occupies >= 1% of covariate space."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(draws, spec.p))
    d = true_optimal(spec, X)
    freqs = np.bincount(d, minlength=spec.k_arms + 1)[1:] / draws
    if np.any(freqs < min_freq):
        raise DataError(
            f"{spec.id}: class frequencies {freqs.round(4).tolist()} below {min_freq}"
        )
    return freqs


def _irls(A, y, max_iter, gtol):
    """Ridge-damped Newton ascent on the Bernoulli log-likelihood of y on A.

    The Hessian gets a 1e-6 ridge and every step is clipped to |coef| <= 30.
    Returns (beta, iterations, whether the gradient norm fell below gtol).
    """
    d = A.shape[1]
    ridge = 1e-6 * np.eye(d)
    beta = np.zeros(d)
    for it in range(1, max_iter + 1):
        eta = np.clip(A @ beta, -35, 35)
        p = 1.0 / (1.0 + np.exp(-eta))
        grad = A.T @ (y - p)
        if np.linalg.norm(grad) < gtol:
            return beta, it, True
        w = np.maximum(p * (1.0 - p), 1e-10)
        H = (A * w[:, None]).T @ A + ridge
        beta = np.clip(beta + np.linalg.solve(H, grad), -30.0, 30.0)
    return beta, max_iter, False


def _loglik(A, y):
    """Bernoulli log-likelihood of y on design A at its IRLS fit."""
    beta, _, _ = _irls(A, y, 25, 1e-6)
    eta = np.clip(A @ beta, -35, 35)
    return float(y @ eta - np.sum(np.log1p(np.exp(eta))))


def screen_stepwise_serial(X_aug, labels, descriptors=None, gamma=EBIC_GAMMA):
    """Forward-backward stepwise logistic screening scored by EBIC.

    The reference for varselect.screen_stepwise: every candidate model is
    fitted on its own by a cold-started Newton loop.
    """
    X_aug = np.atleast_2d(np.asarray(X_aug, dtype=float))
    y = np.asarray(labels, dtype=float)
    n, P = X_aug.shape
    if n < 20:
        raise DataError("screen_stepwise needs n >= 20")
    if np.unique(y).size < 2:
        raise DataError("screen_stepwise needs both classes present")
    if descriptors is None:
        descriptors = tuple((j,) for j in range(P))
    mu = X_aug.mean(axis=0)
    sd = X_aug.std(axis=0)
    usable = sd > 1e-12
    Z = np.zeros_like(X_aug)
    Z[:, usable] = (X_aug[:, usable] - mu[usable]) / sd[usable]
    ones = np.ones((n, 1))

    def model_ll(cols):
        return _loglik(np.column_stack([ones, Z[:, cols]]) if cols else ones, y)

    cap = int(min(n / 5, 50))
    selected = []
    current = _ebic(model_ll([]), 0, n, P, gamma)
    trace = [("init", None, current)]
    improved = True
    while improved:
        improved = False
        # forward
        if len(selected) < cap:
            best_j, best_val = -1, current
            for j in range(P):
                if j in selected or not usable[j]:
                    continue
                val = _ebic(model_ll(selected + [j]), len(selected) + 1, n, P, gamma)
                if val < best_val - 1e-8:
                    best_j, best_val = j, val
            if best_j >= 0:
                selected.append(best_j)
                current = best_val
                trace.append(("add", descriptors[best_j], current))
                improved = True
        # backward
        if len(selected) > 1:
            best_j, best_val = -1, current
            for j in selected:
                rest = [s for s in selected if s != j]
                val = _ebic(model_ll(rest), len(rest), n, P, gamma)
                if val < best_val - 1e-8:
                    best_j, best_val = j, val
            if best_j >= 0:
                selected.remove(best_j)
                current = best_val
                trace.append(("drop", descriptors[best_j], current))
                improved = True
    monomials = tuple(descriptors[j] for j in sorted(selected))
    covariates = tuple(sorted({idx for mono in monomials for idx in mono}))
    return ScreenResult(
        selected_monomials=monomials, selected_covariates=covariates, trace=tuple(trace)
    )


def _irls_batched(A, y, max_iter, gtol, beta=None):
    """Ridge-damped Newton ascent on stacked designs A (B, n, d) from beta (B, d).

    The same Newton steps as _irls, one batched np.matmul per product, each
    design stopping once its gradient norm falls below gtol.  Returns
    (coefficients (B, d), iterations (B,), converged (B,)).
    """
    B, _, d = A.shape
    beta = np.zeros((B, d)) if beta is None else np.array(beta, dtype=float)
    iterations = np.full(B, max_iter)
    converged = np.zeros(B, dtype=bool)
    ridge = 1e-6 * np.eye(d)
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
        beta[active] = np.clip(beta[active] + step, -30.0, 30.0)
    return beta, iterations, converged


def screen_stepwise_batched(X_aug, labels, descriptors=None):
    """The batched screen the gather-free one is checked against.

    Each pass gathers its candidates' designs [1 | Z_S | z_j] (or [1 | Z_S]
    less one column) into (B, n, d) stacks of at most 32 MB and fits
    them with _irls_batched, warm from the current model; a candidate that
    reaches the 25-iteration cap is refitted from zero.  Its moves, fits and
    newton_iterations are the reference counts.
    """
    X_aug = np.atleast_2d(np.asarray(X_aug, dtype=float))
    y = np.asarray(labels, dtype=float)
    n, P = X_aug.shape
    if descriptors is None:
        descriptors = tuple((j,) for j in range(P))
    mu = X_aug.mean(axis=0)
    sd = X_aug.std(axis=0)
    usable = sd > 1e-12
    Z = np.zeros_like(X_aug)
    Z[:, usable] = (X_aug[:, usable] - mu[usable]) / sd[usable]
    D = np.column_stack([np.ones(n), Z])
    cap = int(min(n / 5, 50))
    selected, fits, iterations, current = [], 0, 0, np.inf

    def best_move(cols, starts, k_terms):
        nonlocal fits, iterations
        m, d = cols.shape
        lls, betas = np.empty(m), np.empty((m, d))
        chunk = max(1, 32 * 2**20 // (8 * n * d))
        for rows in (slice(lo, lo + chunk) for lo in range(0, m, chunk)):
            A = D[np.arange(n)[:, None], cols[rows, None, :]]
            beta, its, converged = _irls_batched(A, y, 25, 1e-6, starts[rows])
            iterations += int(its.sum())
            if not converged.all():
                beta[~converged], its, _ = _irls_batched(A[~converged], y, 25, 1e-6)
                iterations += int(its.sum())
            eta = np.clip(np.matmul(A, beta[..., None])[..., 0], -35, 35)
            lls[rows] = (eta * y).sum(axis=1) - np.log1p(np.exp(eta)).sum(axis=1)
            betas[rows] = beta
        fits += m
        best, best_val = -1, current
        for i, val in enumerate(_ebic(lls, k_terms, n, P)):
            if val < best_val - 1e-8:
                best, best_val = i, float(val)
        return best, best_val, betas

    _, current, betas = best_move(np.zeros((1, 1), dtype=int), np.zeros((1, 1)), 0)
    beta, trace = betas[0], [("init", None, current)]
    improved = True
    while improved:
        improved = False
        if len(selected) < cap:
            cand = [j for j in range(P) if j not in selected and usable[j]]
            cols = np.array([[0] + [1 + s for s in selected] + [1 + j] for j in cand], dtype=int)
            starts = np.tile(np.append(beta, 0.0), (len(cand), 1))
            best, value, betas = best_move(cols.reshape(starts.shape), starts, len(selected) + 1)
            if best >= 0:
                selected.append(cand[best])
                beta, current = betas[best], value
                trace.append(("add", descriptors[cand[best]], current))
                improved = True
        if len(selected) > 1:
            k = len(selected)
            keep = np.array([[i for i in range(k + 1) if i != drop] for drop in range(1, k + 1)])
            cols = np.array([0] + [1 + s for s in selected])[keep]
            best, value, betas = best_move(cols, beta[keep], k - 1)
            if best >= 0:
                beta, current = betas[best], value
                trace.append(("drop", descriptors[selected.pop(best)], current))
                improved = True
    monomials = tuple(descriptors[j] for j in sorted(selected))
    covariates = tuple(sorted({idx for mono in monomials for idx in mono}))
    return ScreenResult(monomials, covariates, tuple(trace), fits, iterations)


def bounded_simplex_vector(A, cost, upper, rhs, basis):
    """The reference for solvers._bounded_simplex, which must match it bit for bit.

    Each pivot prices every column again and runs the ratio test as masked
    numpy operations over all rows.  It reads solvers._LP_TOL and
    solvers._DEGENERATE_RUN at call time, so a test that patches them
    patches both engines.
    """
    rows, n = A.shape
    can_enter = upper > 0
    can_enter[basis] = False
    at_upper = np.zeros(n, dtype=bool)
    Binv = np.linalg.inv(A[:, basis])
    xB = Binv @ rhs
    pivots = degenerate_run = 0
    while True:
        d = cost - (cost[basis] @ Binv) @ A
        gain = np.where(at_upper, d, -d)  # objective decrease per unit step
        gain[~can_enter] = 0.0
        bland = degenerate_run >= solvers._DEGENERATE_RUN
        if bland:
            improving = np.flatnonzero(gain > solvers._LP_TOL)
            if not improving.size:
                break
            enter = int(improving[0])
        else:
            enter = int(np.argmax(gain))
            if not gain[enter] > solvers._LP_TOL:  # a NaN reduced cost stops, not cycles
                break
        pivots += 1
        # x_B moves by -t * delta as the entering variable leaves its bound
        sign = -1.0 if at_upper[enter] else 1.0
        alpha = Binv @ A[:, enter]
        delta = sign * alpha
        ratios = np.full(rows, np.inf)
        down = delta > solvers._LP_TOL
        up = delta < -solvers._LP_TOL
        ratios[down] = np.maximum(xB[down], 0.0) / delta[down]
        ratios[up] = np.maximum(upper[basis[up]] - xB[up], 0.0) / -delta[up]
        step = float(np.min(ratios, initial=np.inf))  # inf when there are no rows
        if not np.isfinite(min(step, upper[enter])):
            raise UnboundedLPError("LP objective unbounded below")
        if upper[enter] <= step:
            xB -= upper[enter] * delta
            at_upper[enter] = not at_upper[enter]
            degenerate_run = 0
            continue
        ties = np.flatnonzero(ratios <= step)
        if bland:
            r = int(ties[np.argmin(basis[ties])])
        else:
            r = int(ties[np.argmax(np.abs(alpha[ties]))])
        leave = basis[r]
        entering_value = (upper[enter] if at_upper[enter] else 0.0) + sign * step
        xB -= step * delta
        xB[r] = entering_value
        at_upper[leave] = delta[r] < 0
        at_upper[enter] = False
        can_enter[leave] = upper[leave] > 0
        can_enter[enter] = False
        basis[r] = enter
        prow = Binv[r] / alpha[r]
        Binv -= np.outer(alpha, prow)
        Binv[r] = prow
        degenerate_run = degenerate_run + 1 if step <= solvers._LP_TOL else 0
    B = A[:, basis]
    x = np.where(at_upper, upper, 0.0)
    x[basis] = np.linalg.solve(B, rhs - A[:, at_upper] @ upper[at_upper])
    prices = np.linalg.solve(B.T, cost[basis])
    return x, prices, pivots


def leaving_row_list(xB, basic_upper, basis, bland):
    """The reference for solvers._leaving_row, which must pick the same row:
    the violations max(-x, x - u) as Python floats, the rows above
    solvers._LP_TOL in a list, and the first of largest violation among them
    (or, by Bland's rule, the one of smallest basis index); -1 when none."""
    viol = [max(-x, x - u) for x, u in zip(xB.tolist(), basic_upper.tolist())]
    out = [i for i, v in enumerate(viol) if v > solvers._LP_TOL]
    if not out:
        return -1
    return min(out, key=basis.item) if bland else max(out, key=viol.__getitem__)


def smo_serial(gram, labels, caps, tol=1e-5, max_updates=1_000_000, init=None):
    """The reference for solvers.wsvm_dual_solve, which must match it bit for bit.

    The state is vals = -label * gradient beside two penalty vectors: up_pen[k]
    is 0 where k may be the "up" end of a pair (else -inf) and low_pen[k] is 0
    where it may be the "low" end (else +inf).  Each pair selection adds vals
    to each penalty vector with np.add, and each update moves vals alone.  No
    input is validated and nothing is raised: a run stopped by max_updates
    returns what ConvergenceError.best would carry.
    """
    K = np.asarray(gram, dtype=float)
    a = np.asarray(labels, dtype=float)
    C = np.asarray(caps, dtype=float)
    m = a.shape[0]
    eps = 1e-12
    pos = a > 0
    if init is None:
        alpha = np.zeros(m)
        vals = a.copy()
    else:
        alpha = np.clip(np.array(init, dtype=float), 0.0, C)
        vals = a - K @ (alpha * a)
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
    return solvers.DualSolution(
        alphas=alpha, intercept=b0, objective=objective, kkt_violation=float(viol),
        updates=updates,
    )


def _squared_distances_fresh(A, B):
    """kernels._squared_distances as it was before its out= buffers: two new blocks."""
    out = np.sum(A**2, axis=1)[:, None] + np.sum(B**2, axis=1)[None, :]
    cross = A @ B.T
    cross *= 2.0
    out -= cross
    return np.maximum(out, 0.0, out=out)


def gram_matrix_fresh(spec, A, B):
    """kernels.gram_matrix as it was before its out= buffers: new arrays per call."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if spec.kind == "linear":
        return A @ B.T
    out = _squared_distances_fresh(A, B)
    np.negative(out, out=out)
    out /= 2.0 * spec.bandwidth**2
    return np.exp(out, out=out)


def decision_value_per_block(rule, X, block_bytes):
    """KernelExpansionRule.decision_value with one gram_matrix_fresh call per
    block of max(1, block_bytes // (8 * len(points))) rows, on the selected
    columns of X and the points, as it was before the block buffers;
    decision_value must match it bit for bit."""
    X, points = np.atleast_2d(np.asarray(X, dtype=float)), rule.points
    if len(rule.selected_features) != rule.n_features:
        X = np.take(X, rule.selected_features, axis=1)
        points = np.take(points, rule.selected_features, axis=1)
    out = np.empty(X.shape[0])
    rows = max(1, block_bytes // (8 * rule.coefs.shape[0]))
    for lo in range(0, X.shape[0], rows):
        block = slice(lo, lo + rows)
        out[block] = gram_matrix_fresh(rule.kernel, X[block], points) @ rule.coefs
    out += rule.intercept
    return out


def cv_tune_per_sigma_gram(sub, lambda_grid, sigma_grid, folds=5, seed=0, cv_tol=1e-3):
    """The L2 path of evaluate.cv_tune as it was before it shared one distance
    matrix: gram_matrix_fresh per Gaussian sigma, every SMO solve through the
    checking solvers.wsvm_dual_solve on the fold's training rows alone,
    gathered with np.ix_ (cv_tune solves on the whole Gram matrix with caps
    0 outside them), and the winner's Gram matrix held for the refit.  A
    linear sigma's folds are one solvers._linear_svm_ipm call, as in
    cv_tune, and leave the Gaussian sigmas' starts alone.

    Returns (rule, best_lambda, best_sigma, table); cv_tune must match it bit
    for bit.
    """
    from ordinalsr import aol, evaluate
    from ordinalsr.kernels import KernelSpec

    if sub.m < 2 * folds:
        folds = max(2, sub.m // 2)
    assign, folds = evaluate._stratified_folds(sub.labels, sub.weights, folds, seed)
    table, best = [], None
    sigma_starts = [None] * folds
    for sigma in sigma_grid:
        kernel = KernelSpec("linear") if sigma is None else KernelSpec("gaussian", sigma)
        gram_full = gram_matrix_fresh(kernel, sub.features, sub.features)
        scores = [[] for _ in lambda_grid]
        positive = sub.weights > 0
        splits = [(np.flatnonzero(assign == f), np.flatnonzero((assign != f) & positive))
                  for f in range(folds)]
        if sigma is None:
            caps = np.zeros((folds, len(lambda_grid), sub.m))
            for f, (_, active) in enumerate(splits):
                for k, lam in enumerate(lambda_grid):
                    caps[f, k, active] = sub.weights[active] / (2.0 * lam * active.size)
            _, slopes, b0, _ = solvers._linear_svm_ipm(
                sub.features, sub.labels, caps.reshape(-1, sub.m))
            fits_all, size = list(zip(slopes, b0)), len(lambda_grid)
            fold_fits = [fits_all[f * size : (f + 1) * size] for f in range(folds)]
        for f, (te, active) in enumerate(splits):
            if sigma is None:
                fits, design = fold_fits[f], sub.features[te]
            else:
                labels, weights = sub.labels[active], sub.weights[active]
                gram_tr = gram_full[np.ix_(active, active)]
                fits, alpha, lam_prev = [], None, None
                for lam in lambda_grid:
                    init = sigma_starts[f] if alpha is None else alpha * (lam_prev / lam)
                    caps = weights / (2.0 * lam * labels.shape[0])
                    sol = solvers.wsvm_dual_solve(gram_tr, labels, caps, tol=cv_tol, init=init)
                    coefs = sol.alphas * labels
                    if alpha is None:
                        sigma_starts[f] = coefs * labels
                    alpha, lam_prev = coefs * labels, lam
                    fits.append((coefs, sol.intercept))
                design = gram_full[np.ix_(te, active)]
            for (coefs, b0), fold_scores in zip(fits, scores):
                pred = np.where(design @ coefs + b0 > 0, 1, -1)
                fold_scores.append(evaluate._holdout_score(pred, sub, te))
        for lam, fold_scores in zip(lambda_grid, scores):
            if all(np.isnan(fold_scores)):
                mean_score = float("-inf")
            else:
                mean_score = float(np.nanmean(fold_scores))
            table.append((float(lam), sigma, mean_score))
            rank = (mean_score, float(lam), 0.0 if sigma is None else sigma)
            if best is None or rank >= best[0]:
                best = (rank, float(lam), kernel, gram_full)
    _, lam, kernel, gram_full = best
    rule = aol._fit_l2(sub, kernel, lam, gram_full)
    return rule, lam, kernel.bandwidth, tuple(table)
