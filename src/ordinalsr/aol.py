"""Augmented outcome-weighted binary subproblems and their fitted rules.

Each sequential or re-estimation step reduces to a weighted binary
classification: labels are the arm-side indicator flipped by the sign of the
outcome residual, and case weights are |residual| / propensity-of-side.
Rules come in two flavors: an L2 (kernel) weighted SVM fit, by an
interior-point method on the features for the linear kernel and by SMO on the
Gram matrix for the Gaussian one, and an L1 linear fit solved through the
(1+2p)-row dual of its linear program.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data import _check_integer, _feature_rows, _float_array, _readonly
from .exceptions import DataError, DegenerateStepError
from .kernels import KernelSpec, _gaussian_from_squared, _gram_into, _squared_distances
from .solvers import (
    _L1DualLP, _check_positive, _finite_gram, _l1_path, _linear_svm_ipm, _smo, logistic_fit,
    ols_fit,
)

__all__ = [
    "BinarySubproblem",
    "SparseLinearRule",
    "KernelExpansionRule",
    "build_subproblem",
    "fit_aol_l2",
    "fit_aol_l1_linear",
]

PROPENSITY_FLOOR = 0.01
MIN_STEP_SIZE = 10  # fewer eligible subjects make a step degenerate
COEF_SNAP = 1e-8
CV_TOL = 1e-3  # SMO tolerance of the Gaussian CV fold solves; the refit solves to 1e-5
SUPPORT_EPS = 1e-12
# cap on one block of Gram rows in KernelExpansionRule.decision_value: the block
# and its scratch block, 1 MiB together, stay in a 2 MiB L2 (README: the sweep)
_BLOCK_BYTES = 2**19


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

    @cached_property
    def squared_distances(self):
        """The m x m squared distances D2 between the feature rows, computed on
        first use and read-only: a Gaussian step's median bandwidth and every
        Gram matrix of its CV grid.  A masked copy (dataclasses.replace)
        computes its own; features changed in place would leave D2 stale."""
        return _readonly(_squared_distances(self.features, self.features))


class _Rule:
    """A fitted binary rule: decision values f(x) by its class docstring's
    formula, computed by its _decision_value, and the decisions they give."""

    def decision_value(self, X):
        """f on each row; DataError unless X holds finite rows of n_features features."""
        return self._decision_value(_feature_rows(X, self.n_features))

    def predict(self, X):
        return _sign_tie_negative(self.decision_value(X))


@dataclass(frozen=True)
class SparseLinearRule(_Rule):
    """f(x) = b0 + x @ slopes."""

    intercept: float
    slopes: np.ndarray
    selected_features: tuple = None  # None means the full feature set
    selection_fallback: bool = False

    def __post_init__(self):
        _read_rule_numbers(self, slopes=1)
        _set_selection(self, self.slopes.shape[0])

    @property
    def n_features(self):
        return self.slopes.shape[0]

    def _decision_value(self, X):
        """decision_value of rows already checked, as predict_ordinal's are."""
        return self.intercept + X @ self.slopes


@dataclass(frozen=True)
class KernelExpansionRule(_Rule):
    """f(x) = b0 + sum_i coef_i K(x_i, x); coef_i = alpha_i * label_i.

    When selected_features is a proper subset, the kernel reads only those
    coordinates (the fixed diagonal-mask formulation); the points must be 0
    outside them, as screen_mask leaves a step's features, else DataError.
    """

    points: np.ndarray
    coefs: np.ndarray
    intercept: float
    kernel: KernelSpec
    n_features: int
    selected_features: tuple = None  # None means the full feature set
    selection_fallback: bool = False

    def __post_init__(self):
        _check_integer("n_features", self.n_features, 1)
        _read_rule_numbers(self, points=2, coefs=1)
        if self.points.shape != (self.coefs.shape[0], self.n_features):
            raise DataError("expansion points do not match the coefficients and n_features")
        _set_selection(self, self.n_features)
        if np.any(np.delete(self.points, self.selected_features, axis=1)):
            raise DataError("expansion points must be 0 outside the selected features")

    def _decision_value(self, X):
        """decision_value of rows already checked, one block of rows at a time.

        A screened rule computes on its selected columns alone (gram_matrix of
        the masked rows, up to rounding).  A block has max(1, _BLOCK_BYTES //
        (8 * len(points))) rows, so its Gram matrix stays near _BLOCK_BYTES
        however many rows X has.  Every block of the call fills one pair of
        buffers (the Gram block and the Gaussian's scratch block) by
        gram_matrix's operations in its order, and its product is written
        straight into the result.  A row's value does not depend on the other
        rows, but BLAS may round it differently for another block size (ulps).
        """
        if self.coefs.size == 0:
            return np.full(X.shape[0], self.intercept)
        points = self.points
        if len(self.selected_features) != self.n_features:
            columns = self.selected_features  # np.take keeps the rows C-contiguous
            X, points = np.take(X, columns, axis=1), np.take(points, columns, axis=1)
        out = np.empty(X.shape[0])
        rows = max(1, min(X.shape[0], _BLOCK_BYTES // (8 * self.coefs.shape[0])))
        # two arrays, not one of twice the size: glibc raises its mmap and trim
        # thresholds to the largest chunk freed, so one chunk of both would stay
        # resident after the call
        shape = (rows, self.coefs.shape[0])
        gram, cross = np.empty(shape), np.empty(shape)
        for lo in range(0, X.shape[0], rows):
            r = min(rows, X.shape[0] - lo)
            block = _gram_into(self.kernel, X[lo : lo + r], points, gram[:r], cross[:r])
            np.matmul(block, self.coefs, out=out[lo : lo + r])
        out += self.intercept
        return out


def _read_rule_numbers(rule, **arrays):
    """Set each named array of rule, of the given ndim, to its float array;
    DataError unless its entries and rule.intercept are finite real numbers,
    which the model file can hold."""
    b0 = rule.intercept
    if isinstance(b0, bool) or not (isinstance(b0, numbers.Real) and math.isfinite(b0)):
        raise DataError(f"a rule's intercept must be a finite number, not {b0!r}")
    for name, ndim in arrays.items():
        values = _float_array(name, getattr(rule, name))
        if values.ndim != ndim or not np.all(np.isfinite(values)):
            raise DataError(f"a rule's {name} must be a {ndim}-D array of finite numbers")
        object.__setattr__(rule, name, values)


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
    data, features, negative_arms, positive_arms, eligible, propensity_mode="known", step_id=""
) -> BinarySubproblem:
    """Assemble labels/weights for the binary step comparing two arm groups.

    features holds one row per subject of data, in the coordinates the rule
    is fitted in (the pipeline's scaled features); eligible holds distinct
    integer row indices of data, else DataError.  The residuals
    e = Y - m-hat(X) of the OLS main-effect model m-hat, fitted on the
    eligible rows, set both the weight magnitude and a possible label flip
    (sign(0) counts as +1).  Fewer than MIN_STEP_SIZE eligible subjects, or
    one arm side only, is a DegenerateStepError.
    """
    negative_arms = tuple(sorted(negative_arms))
    positive_arms = tuple(sorted(positive_arms))
    if set(negative_arms) & set(positive_arms):
        raise DataError("arm groups must be disjoint")
    X_all = _float_array("features", features)
    if X_all.ndim != 2 or X_all.shape[0] != data.n:
        raise DataError(f"features need one row per subject, not shape {X_all.shape}")
    eligible = np.asarray(eligible)
    if eligible.size == 0:
        eligible = np.zeros(0, dtype=int)
    elif (eligible.ndim != 1 or eligible.dtype.kind not in "iu" or eligible.min() < 0
          or eligible.max() >= data.n or np.unique(eligible).size < eligible.size):
        raise DataError(f"eligible must hold distinct integer indices in 0..{data.n - 1}")
    arms = data.treatment[eligible]
    in_neg = np.isin(arms, negative_arms)
    in_pos = np.isin(arms, positive_arms)
    if not np.all(in_neg | in_pos):
        raise DataError("eligible subject with arm outside both groups")
    if eligible.shape[0] < MIN_STEP_SIZE:
        raise DegenerateStepError(
            f"{step_id or 'step'}: only {eligible.shape[0]} eligible subjects"
        )
    b = np.where(in_pos, 1, -1)
    if np.unique(b).size < 2:
        raise DegenerateStepError(f"{step_id or 'step'}: single-class arm labels")
    X = X_all[eligible]
    y = data.outcome[eligible]
    e = y - ols_fit(X, y).predict(X)
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
    """The SMO fit behind Gaussian L2 steps: returns (coefs = alpha*label, intercept).

    Caps follow _box_caps, so a row of weight 0 gets coefficient 0; lam is a
    finite positive number, else DataError.  gram must be symmetric and
    finite, checked where it was built, as _smo does not check it; init is
    an optional feasible start for alpha.  Linear steps run _linear_svm_ipm
    on their features instead, with no Gram matrix.
    """
    _check_positive("lam", lam)
    weights = _float_array("weights", weights)
    sol = _smo(gram, labels, _box_caps(weights, lam), tol=tol, init=init)
    return sol.alphas * labels, sol.intercept


def _box_caps(weights, lam):
    """The dual's box caps C_i = w_i / (2 lambda m), m the count of positive
    weights (at least 1); a weight of 0 is a cap of 0, outside the problem."""
    return weights / (2.0 * lam * max(1, np.count_nonzero(weights > 0)))


def fit_aol_l2(sub: BinarySubproblem, kernel: KernelSpec, lam):
    """Weighted hinge loss + lambda * ||f||^2 on the active rows; the rule
    carries sub's selected_features and selection_fallback.

    A linear kernel is solved on the features by the interior-point method
    (solvers._linear_svm_ipm), a Gaussian one by SMO on its Gram matrix
    (fit_l2_from_gram, tol 1e-5) on a copy of sub, so no m x m D2 stays on sub.
    """
    return _fit_l2(replace(sub), kernel, lam, None)


def _fit_l2(sub, kernel, lam, gram):
    """fit_aol_l2, on gram (_step_gram of the Gaussian kernel) when it is
    given.  Both kernels are fitted on all of sub's rows, those of weight 0
    with cap 0 (see _box_caps)."""
    _check_positive("lam", lam)
    _active(sub)  # DegenerateStepError unless the positive weights hold both labels
    selection = dict(selected_features=sub.selected_features,
                     selection_fallback=sub.selection_fallback)
    if kernel.kind == "linear":
        ((slopes, b0),) = _linear_fold_fits(sub, [sub.weights], (lam,))[0]
        return SparseLinearRule(intercept=float(b0), slopes=slopes, **selection)
    if gram is None:
        gram = _step_gram(sub, kernel.bandwidth)
    coefs, b0 = fit_l2_from_gram(sub.labels, sub.weights, gram, lam)
    support = np.abs(coefs) > SUPPORT_EPS
    return KernelExpansionRule(
        points=sub.features[support],
        coefs=coefs[support],
        intercept=b0,
        kernel=kernel,
        n_features=sub.p,
        **selection,
    )


def _step_gram(sub, sigma, out=None):
    """sub's Gaussian Gram matrix of bandwidth sigma, filled into out (new unless
    given) from sub.squared_distances by gram_matrix's operations, so its
    entries are gram_matrix's; DataError unless finite, checked once here."""
    return _finite_gram(_gaussian_from_squared(sub.squared_distances, sigma, out=out))


def _linear_fold_fits(sub, fold_weights, lambdas):
    """Per weight vector of fold_weights (sub's weights, 0 outside a fold's
    training rows), the (slopes, intercept) per lambda of the linear L2 fit
    with those weights, all from one _linear_svm_ipm call whose problem
    (f, lambda) has the caps _box_caps(fold_weights[f], lambda)."""
    caps = [_box_caps(weights, lam) for weights in fold_weights for lam in lambdas]
    _, slopes, b0, _ = _linear_svm_ipm(sub.features, sub.labels, np.array(caps))
    fits, size = list(zip(slopes, b0)), len(lambdas)
    return [fits[f * size : (f + 1) * size] for f in range(len(fold_weights))]


def _gaussian_fold_fits(sub, gram, fold_weights, lambdas, starts):
    """Per weight vector of fold_weights, the (coefs, intercept) per lambda of
    the SMO fit on gram (_step_gram of sub), solved to CV_TOL.  Each solve
    starts from the previous lambda's alpha times lambda_prev / lambda,
    feasible as the caps _box_caps(weights, lambda) scale the same way; the
    first from starts[f], the fold's first-lambda alpha on the previous
    sigma's gram (cold when None), feasible as no cap or equality constraint
    depends on sigma, and replaced by this sigma's."""
    fits = []
    for f, weights in enumerate(fold_weights):
        path, alpha = [], starts[f]
        for k, lam in enumerate(lambdas):
            init = alpha * (lambdas[k - 1] / lam) if k else alpha
            path.append(fit_l2_from_gram(sub.labels, weights, gram, lam, tol=CV_TOL, init=init))
            alpha = path[-1][0] * sub.labels
        starts[f] = path[0][0] * sub.labels
        fits.append(path)
    return fits


def fit_aol_l1_linear(sub: BinarySubproblem, lam) -> SparseLinearRule:
    """Weighted hinge loss + lambda * ||beta||_1 (intercept unpenalized).

    Solved by solvers._l1_path on the step's solvers._L1DualLP, in which
    zero-weight rows never enter: a bounded-variable simplex on the dual LP,
    whose 1+2p rows do not grow with the subject count.  Slopes below 1e-8
    in magnitude are snapped to exactly zero.
    """
    _check_positive("lam", lam)
    _active(sub)  # DegenerateStepError unless the positive weights hold both labels
    return _l1_rule(_L1DualLP(sub.features, sub.labels), sub.weights, lam)


def _l1_rule(lp, weights, lam):
    """fit_aol_l1_linear's rule on lp (sub's _L1DualLP) with weights."""
    ((slopes, b0),) = _l1_coefs(lp, weights, (lam,))
    selected = tuple(int(j) for j in np.flatnonzero(slopes))
    return SparseLinearRule(intercept=b0, slopes=slopes, selected_features=selected)


def _l1_coefs(lp, weights, lambdas):
    """(slopes, intercept) of _l1_path per lambda, slopes within COEF_SNAP of 0 set to 0."""
    path = _l1_path(lp, weights, lambdas)
    return [(np.where(np.abs(s.slopes) <= COEF_SNAP, 0.0, s.slopes), s.intercept) for s in path]
