"""Variable selection for binary steps.

Linear rules get selection for free through the L1 penalty.  Gaussian-kernel
rules use a two-stage procedure: a forward-backward stepwise logistic screen
over first- and second-order monomials scored by EBIC, followed by a kernel
fit restricted to the covariates appearing in any selected monomial.  Each
pass of the screen fits its candidates in the one Newton loop of
solvers._irls, over the shared block of the current model's columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .aol import BinarySubproblem, fit_aol_l2
from .data import _feature_rows, _float_array
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
_CHUNK_BYTES = 32 * 2**20  # cap on a chunk's Newton arrays: ~8 rows of n and 3 d x d per fit
_MIN_SCREEN_ROWS = 20  # a smaller step keeps every covariate (screen_mask's fallback)


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
    order, matching column order.  DataError unless X holds finite rows.
    """
    X = _feature_rows(X, None)
    p = X.shape[1]
    if p < 1:
        raise DataError("expand_second_order needs at least one covariate")
    J, K = np.triu_indices(p)
    desc = [(j,) for j in range(p)] + list(zip(J.tolist(), K.tolist()))
    return np.column_stack([X, X[:, J] * X[:, K]]), tuple(desc)


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

    X_aug columns are monomials (see expand_second_order), finite; labels
    are 0/1; descriptors name the columns.  Columns are standardized
    internally so the screen is scale-invariant.  The likelihood is
    unweighted.  Each pass fits all of its candidates in one Newton loop
    (solvers._irls) over the current model's block [1 | Z_S]: a forward
    candidate adds its own column and starts from the current model's
    coefficients with a 0 appended, a backward one holds a dropped
    coefficient at 0 and starts from the others, which reaches the same
    maximum likelihood as a cold start.
    """
    X_aug = _feature_rows(X_aug, None)
    y = _float_array("labels", labels)
    n, P = X_aug.shape
    if y.shape != (n,):
        raise DataError("screen_stepwise needs one label per row of X_aug")
    if n < _MIN_SCREEN_ROWS:
        raise DataError(f"screen_stepwise needs n >= {_MIN_SCREEN_ROWS}")
    if set(np.unique(y)) - {0.0, 1.0}:
        raise DataError("screen_stepwise labels must be 0/1")
    if np.unique(y).size < 2:
        raise DataError("screen_stepwise needs both classes present")
    if descriptors is None:
        descriptors = tuple((j,) for j in range(P))
    if len(descriptors) != P:
        raise DataError("screen_stepwise needs one descriptor per column of X_aug")
    mu = X_aug.mean(axis=0)
    sd = X_aug.std(axis=0)
    usable = sd > 1e-12
    ZT = np.zeros((P, n))  # standardized monomial j in row j: a chunk's gather is contiguous
    ZT[usable] = ((X_aug[:, usable] - mu[usable]) / sd[usable]).T
    cap = int(min(n / 5, 50))
    selected, fits, iterations, current = [], 0, 0, math.inf

    def best_move(starts, k_terms, cand=None, held=None):
        """Fit the candidates over [1 | Z_S] from starts, a chunk at a time:
        candidate i adds monomial cand[i] (forward) or holds coefficient
        held[i] at 0 (backward).  Returns the index of the candidate a scan
        in candidate order accepts, each replacing the best so far when it
        beats it by more than 1e-8 (-1 if none beats the current model), its
        EBIC and every fit's coefficients."""
        nonlocal fits, iterations
        D_S = np.column_stack([np.ones(n), ZT[selected].T])
        m, d = starts.shape
        lls, betas = np.empty(m), np.empty((m, d))
        chunk = max(1, _CHUNK_BYTES // (8 * (8 * n + 3 * d * d)))
        for rows in (slice(lo, lo + chunk) for lo in range(0, m, chunk)):
            Zc = None if cand is None else ZT[cand[rows]]
            hold = None if held is None else held[rows]
            beta, its, converged, ll = _irls(
                D_S, y, _NEWTON_ITERS, _NEWTON_GTOL, starts[rows], Zc, hold
            )
            iterations += int(its.sum())
            # a likelihood with no maximum (separated classes) is scored where
            # a cold start stops, not wherever this start reached by the cap
            cold = ~converged
            if cold.any():
                beta[cold], its, _, ll[cold] = _irls(
                    D_S, y, _NEWTON_ITERS, _NEWTON_GTOL, np.zeros((int(cold.sum()), d)),
                    None if Zc is None else Zc[cold], None if hold is None else hold[cold],
                )
                iterations += int(its.sum())
            lls[rows], betas[rows] = ll, beta
        fits += m
        best, best_val = -1, current
        for i, val in enumerate(_ebic(lls, k_terms, n, P)):
            if val < best_val - 1e-8:
                best, best_val = i, float(val)
        return best, best_val, betas

    _, current, betas = best_move(np.zeros((1, 1)), 0)
    beta, trace = betas[0], [("init", None, current)]
    improved = True
    while improved:
        improved = False
        if len(selected) < cap:  # forward: one more usable monomial
            avail = usable.copy()
            avail[selected] = False
            cand = np.flatnonzero(avail)
            starts = np.tile(np.append(beta, 0.0), (cand.size, 1))
            best, value, betas = best_move(starts, len(selected) + 1, cand=cand)
            if best >= 0:
                selected.append(int(cand[best]))
                beta, current = betas[best], value
                trace.append(("add", descriptors[cand[best]], current))
                improved = True
        if len(selected) > 1:  # backward: one selected monomial fewer
            k = len(selected)
            held = np.arange(1, k + 1)
            starts = np.tile(beta, (k, 1))
            starts[held - 1, held] = 0.0
            best, value, betas = best_move(starts, k - 1, held=held)
            if best >= 0:
                beta, current = np.delete(betas[best], held[best]), value
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


def screen_mask(sub: BinarySubproblem) -> BinarySubproblem:
    """The stage-1 screen as a fixed feature mask on a binary step.

    Returns sub with its unselected covariates zeroed and selected_features
    and selection_fallback set, which fit_aol_l2 copies onto its rule.
    Zeroing rather than dropping keeps rule dimensions stable.  An empty
    screen, or a step too small or single-class to screen, keeps every
    covariate with the fallback flag raised.
    """
    selected = ()
    if sub.m >= _MIN_SCREEN_ROWS and np.unique(sub.labels).size >= 2:
        # any DataError of the screen is the caller's to see
        selected = screen_for_subproblem(sub).selected_covariates
    fallback = not selected
    if fallback:
        selected = tuple(range(sub.p))
    masked = mask_features(sub.features, selected, sub.p)
    return replace(sub, features=masked, selected_features=selected, selection_fallback=fallback)


def fit_two_stage(sub: BinarySubproblem, kernel, lam):
    """Screen-then-refit: the L2 fit on the screen_mask of sub."""
    return fit_aol_l2(screen_mask(sub), kernel, lam)
