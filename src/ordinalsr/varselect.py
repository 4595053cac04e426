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


@dataclass(frozen=True)
class ScreenResult:
    selected_monomials: tuple  # (j,) first-order or (j, k) second-order, 0-based
    selected_covariates: tuple  # union of covariate indices in the monomials
    trace: tuple  # (action, monomial, ebic) per accepted move


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


def _loglik(A, y):
    """Bernoulli log-likelihood of y on design A at its IRLS fit."""
    beta, _, _ = _irls(A, y, _NEWTON_ITERS, _NEWTON_GTOL)
    eta = np.clip(A @ beta, -35, 35)
    return float(y @ eta - np.sum(np.log1p(np.exp(eta))))


def _ebic(ll, k_terms, n, n_candidates, gamma=EBIC_GAMMA):
    penalty = (k_terms + 1) * math.log(n)
    choose = (
        math.lgamma(n_candidates + 1)
        - math.lgamma(k_terms + 1)
        - math.lgamma(n_candidates - k_terms + 1)
    )
    return -2.0 * ll + penalty + 2.0 * gamma * choose


def screen_stepwise(X_aug, labels, descriptors=None, gamma=EBIC_GAMMA):
    """Forward-backward stepwise logistic screening scored by EBIC.

    X_aug columns are monomials (see expand_second_order); columns are
    standardized internally so the screen is scale-invariant.  The
    likelihood is unweighted.
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


def screen_mask(sub: BinarySubproblem, screen=None):
    """The stage-1 screen as a fixed feature mask on a binary step.

    Returns (sub with unselected covariates zeroed, kept covariates, fallback
    flag).  Zeroing rather than dropping keeps rule dimensions stable.  An
    empty screen, or a step too small or single-class to screen, keeps every
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
    masked = replace(sub, features=mask_features(sub.features, selected, sub.p))
    return masked, selected, fallback


def fit_two_stage(sub: BinarySubproblem, kernel, lam, screen=None, tol=1e-5):
    """Screen-then-refit: the L2 fit on the screen_mask of sub."""
    masked, selected, fallback = screen_mask(sub, screen)
    rule = fit_aol_l2(masked, kernel, lam, tol=tol)
    return replace(rule, selected_features=selected, selection_fallback=fallback)
