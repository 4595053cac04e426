"""Variable selection for binary steps.

Linear rules get selection for free through the L1 penalty.  Gaussian-kernel
rules use a two-stage procedure: a forward-backward stepwise logistic screen
over first- and second-order monomials scored by EBIC, followed by a kernel
fit restricted to the covariates appearing in any selected monomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .aol import BinarySubproblem, fit_aol_l2
from .exceptions import DataError
from .solvers import _irls

__all__ = [
    "ScreenResult",
    "expand_second_order",
    "screen_stepwise",
    "screen_for_subproblem",
    "screen_mask",
    "fit_two_stage",
]

EBIC_GAMMA = 0.5
_NEWTON_ITERS = 25
_NEWTON_GTOL = 1e-6
_CHUNK_BYTES = 32 * 2**20  # cap on one chunk of stacked candidate designs


@dataclass(frozen=True)
class ScreenResult:
    selected_monomials: tuple  # (j,) first-order or (j, k) second-order, 0-based
    selected_covariates: tuple  # union of covariate indices in the monomials
    trace: tuple  # (action, monomial, ebic) per accepted move
    fits: int = 0  # candidate models fitted
    newton_iterations: int = 0  # summed over those fits


def expand_second_order(X):
    """Append quadratic and two-way interaction columns.

    Returns (augmented matrix, descriptors); descriptors list the p
    first-order terms (j,) then pairs (j, k) with j <= k in lexicographic
    order, matching column order.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    p = X.shape[1]
    if p < 1:
        raise DataError("expand_second_order needs at least one covariate")
    cols = [X]
    desc = [(j,) for j in range(p)]
    second = []
    for j in range(p):
        for k in range(j, p):
            second.append(X[:, j] * X[:, k])
            desc.append((j, k))
    cols.append(np.column_stack(second))
    return np.column_stack(cols), tuple(desc)


def _ebic(ll, k_terms, n, n_candidates, gamma=EBIC_GAMMA):
    penalty = (k_terms + 1) * math.log(n)
    choose = (
        math.lgamma(n_candidates + 1)
        - math.lgamma(k_terms + 1)
        - math.lgamma(n_candidates - k_terms + 1)
    )
    return -2.0 * ll + penalty + 2.0 * gamma * choose


def screen_stepwise(X_aug, labels, descriptors=None):
    """Forward-backward stepwise logistic screening scored by EBIC (gamma = EBIC_GAMMA).

    X_aug columns are monomials (see expand_second_order); columns are
    standardized internally so the screen is scale-invariant.  The
    likelihood is unweighted.  Each pass fits all of its candidates together
    in stacked Newton iterations: a forward candidate starts from the current
    model's coefficients with a 0 appended, a backward one from them with the
    dropped coefficient removed, which reaches the same maximum likelihood as
    a cold start.
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
    D = np.column_stack([np.ones(n), Z])  # intercept, then monomial j in column 1 + j
    cap = int(min(n / 5, 50))
    selected, fits, iterations, current = [], 0, 0, math.inf

    def best_move(cols, starts, k_terms):
        """Fit the candidate designs D[:, cols[i]] from starts[i], a chunk of
        stacked designs at a time.  Returns the index of the candidate a scan
        in candidate order accepts, each replacing the best so far when it
        beats it by more than 1e-8 (-1 if none beats the current model), its
        EBIC and every fit's coefficients."""
        nonlocal fits, iterations
        m, d = cols.shape
        lls, betas = np.empty(m), np.empty((m, d))
        chunk = max(1, _CHUNK_BYTES // (8 * n * d))
        for rows in (slice(lo, lo + chunk) for lo in range(0, m, chunk)):
            # a C-ordered gather keeps each design's BLAS calls chunk-independent
            A = D[np.arange(n)[:, None], cols[rows, None, :]]
            beta, its, converged = _irls(A, y, _NEWTON_ITERS, _NEWTON_GTOL, starts[rows])
            iterations += int(its.sum())
            # a likelihood with no maximum (separated classes) is scored where
            # a cold start stops, not wherever this start reached by the cap
            if not converged.all():
                beta[~converged], its, _ = _irls(A[~converged], y, _NEWTON_ITERS, _NEWTON_GTOL)
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
        if len(selected) < cap:  # forward: one more usable monomial
            cand = [j for j in range(P) if j not in selected and usable[j]]
            cols = np.array([[0] + [1 + s for s in selected] + [1 + j] for j in cand], dtype=int)
            starts = np.tile(np.append(beta, 0.0), (len(cand), 1))
            best, value, betas = best_move(cols.reshape(starts.shape), starts, len(selected) + 1)
            if best >= 0:
                selected.append(cand[best])
                beta, current = betas[best], value
                trace.append(("add", descriptors[cand[best]], current))
                improved = True
        if len(selected) > 1:  # backward: one selected monomial fewer
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


def screen_for_subproblem(sub: BinarySubproblem) -> ScreenResult:
    """Stage-1 screen on a binary step: labels A*sign(e) rescaled to {0, 1}."""
    X_aug, desc = expand_second_order(sub.features)
    return screen_stepwise(X_aug, (sub.labels + 1) // 2, descriptors=desc)


def mask_features(features, selected, p):
    out = np.array(features, dtype=float, copy=True)
    mask = np.zeros(p, dtype=bool)
    mask[list(selected)] = True
    out[:, ~mask] = 0.0
    return out


def screen_mask(sub: BinarySubproblem, screen=None) -> BinarySubproblem:
    """The stage-1 screen as a fixed feature mask on a binary step.

    Returns sub with its unselected covariates zeroed and selected_features
    and selection_fallback set, which fit_aol_l2 copies onto its rule.
    Zeroing rather than dropping keeps rule dimensions stable.  An empty
    screen, or a step too small or single-class to screen, keeps every
    covariate with the fallback flag raised.
    """
    if screen is None:
        try:
            screen = screen_for_subproblem(sub)
        except DataError:
            screen = ScreenResult((), (), ())
    selected = screen.selected_covariates
    fallback = not selected
    if fallback:
        selected = tuple(range(sub.p))
    masked = mask_features(sub.features, selected, sub.p)
    return replace(sub, features=masked, selected_features=selected, selection_fallback=fallback)


def fit_two_stage(sub: BinarySubproblem, kernel, lam, screen=None, tol=1e-5):
    """Screen-then-refit: the L2 fit on the screen_mask of sub."""
    return fit_aol_l2(screen_mask(sub, screen), kernel, lam, tol=tol)
