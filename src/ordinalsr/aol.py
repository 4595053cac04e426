"""Augmented outcome-weighted binary subproblems and their fitted rules.

Each sequential or re-estimation step reduces to a weighted binary
classification: labels are the arm-side indicator flipped by the sign of the
outcome residual, and case weights are |residual| / propensity-of-side.
Rules come in two flavors: an L2 (kernel) weighted SVM fit, and an L1 linear
fit solved through the (1+2p)-row dual of its linear program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DataError, DegenerateStepError
from .kernels import KernelSpec, gram_matrix
from .solvers import _check_positive, l1_hinge_dual_solve, logistic_fit, wsvm_dual_solve

__all__ = [
    "BinarySubproblem",
    "SparseLinearRule",
    "KernelExpansionRule",
    "build_subproblem",
    "fit_aol_l2",
    "fit_aol_l1_linear",
]

PROPENSITY_FLOOR = 0.01
COEF_SNAP = 1e-8
SUPPORT_EPS = 1e-12
_BLOCK_BYTES = 4 * 2**20  # cap on one block of Gram rows in KernelExpansionRule.decision_value


@dataclass(frozen=True)
class BinarySubproblem:
    """One S- or R-step classification problem over its eligible subjects."""

    features: np.ndarray
    labels: np.ndarray  # +-1, arm side flipped by sign of residual
    weights: np.ndarray  # |e| / P(side | X), >= 0
    arm_labels: np.ndarray  # +-1 arm side of the observed treatment
    outcomes: np.ndarray
    propensities: np.ndarray  # P(side | X), floored
    step_id: str
    selected_features: tuple = None  # set by varselect.screen_mask; None means all
    selection_fallback: bool = False

    @property
    def m(self):
        return self.features.shape[0]

    @property
    def p(self):
        return self.features.shape[1]


@dataclass(frozen=True)
class SparseLinearRule:
    intercept: float
    slopes: np.ndarray
    selected_features: tuple = None  # None means the full feature set
    selection_fallback: bool = False

    def __post_init__(self):
        _set_selection(self, self.slopes.shape[0])

    def decision_value(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.slopes.shape[0]:
            raise DataError("feature dimension mismatch in rule")
        return self.intercept + X @ self.slopes

    def predict(self, X):
        return _sign_tie_negative(self.decision_value(X))


@dataclass(frozen=True)
class KernelExpansionRule:
    """f(x) = b0 + sum_i coef_i K(x_i, x); coef_i = alpha_i * label_i.

    When selected_features is a proper subset, the unselected coordinates are
    zeroed before kernel evaluation (the fixed diagonal-mask formulation).
    """

    points: np.ndarray
    coefs: np.ndarray
    intercept: float
    kernel: KernelSpec
    n_features: int
    selected_features: tuple = None  # None means the full feature set
    selection_fallback: bool = False

    def __post_init__(self):
        if self.points.shape != (self.coefs.shape[0], self.n_features):
            raise DataError("expansion points do not match the coefficients and n_features")
        _set_selection(self, self.n_features)

    def decision_value(self, X):
        """b0 + K(X, points) @ coefs, one block of rows at a time.

        A block has max(1, _BLOCK_BYTES // (8 * len(points))) rows, so its Gram
        matrix stays near _BLOCK_BYTES however many rows X has.  A row's value
        does not depend on the other rows, but BLAS may round it differently
        for another block size (a few ulps).
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features:
            raise DataError("feature dimension mismatch in rule")
        if len(self.selected_features) != self.n_features:
            mask = np.zeros(self.n_features)
            mask[list(self.selected_features)] = 1.0
            X = X * mask
        if self.coefs.size == 0:
            return np.full(X.shape[0], self.intercept)
        out = np.empty(X.shape[0])
        rows = max(1, _BLOCK_BYTES // (8 * self.coefs.shape[0]))
        for lo in range(0, X.shape[0], rows):
            block = slice(lo, lo + rows)
            out[block] = gram_matrix(self.kernel, X[block], self.points) @ self.coefs
        out += self.intercept
        return out

    def predict(self, X):
        return _sign_tie_negative(self.decision_value(X))


def _set_selection(rule, p):
    """Default selected_features to all p features; DataError unless increasing in 0..p-1."""
    selected = tuple(range(p)) if rule.selected_features is None else rule.selected_features
    if list(selected) != sorted(set(selected) & set(range(p))):
        raise DataError(f"selected features {selected} are not increasing indices below {p}")
    object.__setattr__(rule, "selected_features", selected)


def _sign_tie_negative(f):
    """+1 where f > 0, else -1 (ties at 0 go to the less intensive side)."""
    return np.where(np.asarray(f) > 0, 1, -1)


def build_subproblem(
    data,
    negative_arms,
    positive_arms,
    eligible,
    residual_model,
    propensity_mode="known",
    step_id="",
    min_size=10,
    features=None,
) -> BinarySubproblem:
    """Assemble labels/weights for the binary step comparing two arm groups.

    residual_model must expose .predict(X) giving m-hat; residuals
    e = Y - m-hat(X) set both the weight magnitude and a possible label flip
    (sign(0) counts as +1).  ``features`` overrides data.features when the
    pipeline works in scaled coordinates.
    """
    negative_arms = tuple(sorted(negative_arms))
    positive_arms = tuple(sorted(positive_arms))
    if set(negative_arms) & set(positive_arms):
        raise DataError("arm groups must be disjoint")
    eligible = np.asarray(eligible, dtype=int)
    X_all = data.features if features is None else np.asarray(features, dtype=float)
    arms = data.treatment[eligible]
    in_neg = np.isin(arms, negative_arms)
    in_pos = np.isin(arms, positive_arms)
    if not np.all(in_neg | in_pos):
        raise DataError("eligible subject with arm outside both groups")
    if eligible.shape[0] < min_size:
        raise DegenerateStepError(
            f"{step_id or 'step'}: only {eligible.shape[0]} eligible subjects"
        )
    b = np.where(in_pos, 1, -1)
    if np.unique(b).size < 2:
        raise DegenerateStepError(f"{step_id or 'step'}: single-class arm labels")
    X = X_all[eligible]
    y = data.outcome[eligible]
    e = y - np.asarray(residual_model.predict(X), dtype=float)
    sign_e = np.where(e >= 0, 1, -1)
    labels = b * sign_e
    if propensity_mode == "known":
        per_arm = data.effective_propensity()[eligible]
        group_size = np.where(b > 0, len(positive_arms), len(negative_arms))
        prop = per_arm * group_size
    elif propensity_mode == "logistic":
        model = logistic_fit(X, (b + 1) // 2)
        p_pos = model.predict_proba(X)
        prop = np.where(b > 0, p_pos, 1.0 - p_pos)
    else:
        raise DataError(f"unknown propensity mode {propensity_mode!r}")
    prop = np.clip(prop, PROPENSITY_FLOOR, 1.0)
    weights = np.abs(e) / prop
    return BinarySubproblem(
        features=X,
        labels=labels,
        weights=weights,
        arm_labels=b,
        outcomes=y,
        propensities=prop,
        step_id=step_id or "step",
    )


def _active(sub):
    """Rows with positive weight; fitting is invariant to dropping the rest."""
    keep = sub.weights > 0
    if np.unique(sub.labels[keep]).size < 2:
        raise DegenerateStepError(
            f"{sub.step_id}: single-class labels among weighted subjects"
        )
    return keep


def fit_l2_from_gram(labels, weights, gram, lam, tol=1e-5, init=None):
    """Shared core of fit_aol_l2: returns (coefs = alpha*label, intercept).

    Caps follow C_i = w_i / (2 lambda m) with m the active sample count.
    gram must be symmetric; init is an optional feasible start for alpha.
    """
    m = labels.shape[0]
    caps = weights / (2.0 * lam * m)
    sol = wsvm_dual_solve(gram, labels, caps, tol=tol, init=init)
    return sol.alphas * labels, sol.intercept


def fit_aol_l2(sub: BinarySubproblem, kernel: KernelSpec, lam, tol=1e-5):
    """Weighted hinge loss + lambda * ||f||^2, via the SMO dual solver; the rule
    carries sub's selected_features and selection_fallback."""
    return _fit_l2(sub, kernel, lam, None, tol)


def _fit_l2(sub, kernel, lam, gram_full, tol=1e-5):
    """fit_aol_l2, reading the active rows of gram_full (the kernel's Gram
    matrix over all of sub's rows) when it is given."""
    _check_positive("lam", lam)
    keep = _active(sub)
    X = sub.features[keep]
    gram = gram_matrix(kernel, X, X) if gram_full is None else gram_full
    if gram.shape[0] != X.shape[0]:  # gram_full has inactive rows; copy only then
        gram = gram[np.ix_(keep, keep)]
    coefs, b0 = fit_l2_from_gram(sub.labels[keep], sub.weights[keep], gram, lam, tol=tol)
    selection = dict(selected_features=sub.selected_features,
                     selection_fallback=sub.selection_fallback)
    if kernel.kind == "linear":
        return SparseLinearRule(intercept=b0, slopes=X.T @ coefs, **selection)
    support = np.abs(coefs) > SUPPORT_EPS
    return KernelExpansionRule(
        points=X[support],
        coefs=coefs[support],
        intercept=b0,
        kernel=kernel,
        n_features=sub.p,
        **selection,
    )


def fit_aol_l1_linear(sub: BinarySubproblem, lam) -> SparseLinearRule:
    """Weighted hinge loss + lambda * ||beta||_1 (intercept unpenalized).

    Solved by l1_hinge_dual_solve on the active rows: a bounded-variable
    simplex on the dual LP, whose 1+2p rows do not grow with the subject
    count.  Slopes below 1e-8 in magnitude are snapped to exactly zero.
    """
    _check_positive("lam", lam)
    keep = _active(sub)
    slopes, b0 = _l1_coefs(sub.features[keep], sub.labels[keep], sub.weights[keep], lam)
    selected = tuple(int(j) for j in np.flatnonzero(slopes))
    return SparseLinearRule(intercept=b0, slopes=slopes, selected_features=selected)


def _l1_coefs(X, labels, weights, lam):
    """(slopes, intercept) of l1_hinge_dual_solve, slopes within COEF_SNAP of 0 set to 0."""
    sol = l1_hinge_dual_solve(X, labels, weights, lam)
    return np.where(np.abs(sol.slopes) <= COEF_SNAP, 0.0, sol.slopes), sol.intercept
