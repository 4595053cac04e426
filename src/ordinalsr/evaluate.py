"""Evaluation metrics, cross-validated tuning, and the replicated benchmark runner.

All value estimates use the self-normalized (ratio) IPW form, which under
constant propensities reduces to the plain mean outcome over subjects whose
observed arm matches the rule.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .aol import (
    _fit_l2, _gaussian_fold_fits, _l1_coefs, _l1_rule, _linear_fold_fits, _sign_tie_negative,
    _step_gram,
)
from .data import _check_integer, _whole_numbers, _write_csv
from .exceptions import (
    DataError,
    DegenerateStepError,
    OrdinalSRError,
    UndefinedMetricError,
)
from .kernels import KernelSpec
from .solvers import _L1DualLP, _check_positive
from .simgen import get_setting, generate

__all__ = [
    "EvaluationReport",
    "CVResult",
    "misclassification",
    "disagreement",
    "value_estimate",
    "itr_effect",
    "assignment_proportions",
    "evaluate_rule",
    "cv_tune",
    "METHOD_PRESETS",
    "run_benchmark",
    "summarize",
]


@dataclass(frozen=True)
class EvaluationReport:
    n_test: int
    value: float
    itr_effect: float  # nan when the complement set is empty
    assignment_proportions: tuple
    misclassification: float = None  # None when no true-optimal labels exist
    disagreement: float = None


@dataclass(frozen=True)
class CVResult:
    best_lambda: float
    best_sigma: float  # None for linear kernels
    table: tuple  # (lambda, sigma, mean held-out value) per grid point
    folds: int  # the fold count _stratified_folds settled on


def _arms(pred, k_arms=None):
    """pred as an int array of arms; DataError unless every entry is a whole
    number, and in 1..k_arms when k_arms is given."""
    pred = _whole_numbers("arm", pred)
    if k_arms is not None and pred.size and (pred.min() < 1 or pred.max() > k_arms):
        raise DataError(f"predicted arms must lie in 1..{k_arms}")
    return pred


def misclassification(pred, truth) -> float:
    pred, truth = _arms(pred), _arms(truth)
    if pred.shape != truth.shape or pred.size == 0:
        raise DataError("misclassification needs equal non-empty vectors")
    return float(np.mean(pred != truth))


def disagreement(pred, truth) -> float:
    """Mean |pred - truth|: penalizes far misses more than near ones."""
    pred, truth = _arms(pred), _arms(truth)
    if pred.shape != truth.shape or pred.size == 0:
        raise DataError("disagreement needs equal non-empty vectors")
    return float(np.mean(np.abs(pred - truth)))


def _ipw_mean(outcome, propensity, matched):
    """Sum of y / propensity over the matched rows, over the sum of 1 / propensity."""
    invp = 1.0 / propensity[matched]
    return np.sum(outcome[matched] * invp) / np.sum(invp)


def value_estimate(pred, data) -> float:
    """Self-normalized IPW value of an assignment vector against observed data."""
    pred = _arms(pred, data.k_arms)
    if pred.shape != (data.n,):
        raise DataError("prediction length mismatch")
    matched = pred == data.treatment
    if not matched.any():
        raise UndefinedMetricError("no subject's observed arm matches the rule")
    return float(_ipw_mean(data.outcome, data.effective_propensity(), matched))


def itr_effect(pred, data) -> float:
    """Value among rule-concordant subjects minus value among the rest."""
    pred = _arms(pred, data.k_arms)
    if pred.shape != (data.n,):
        raise DataError("prediction length mismatch")
    matched = pred == data.treatment
    if not matched.any() or matched.all():
        raise UndefinedMetricError("itr_effect needs matched and unmatched subjects")
    prop = data.effective_propensity()
    return float(_ipw_mean(data.outcome, prop, matched) - _ipw_mean(data.outcome, prop, ~matched))


def assignment_proportions(pred, k_arms) -> tuple:
    """Share of pred in each arm 1..k_arms; pred is a non-empty vector of arms."""
    _check_integer("k_arms", k_arms, 1)
    pred = _arms(pred, k_arms)
    if pred.ndim != 1 or not pred.size:
        raise DataError("assignment_proportions needs a non-empty vector of arms")
    counts = np.bincount(pred, minlength=k_arms + 1)[1:]
    return tuple(counts / pred.size)


def evaluate_rule(pred, data) -> EvaluationReport:
    try:
        effect = itr_effect(pred, data)
    except UndefinedMetricError:
        effect = float("nan")
    misc = dis = None
    if data.true_optimal is not None:
        misc = misclassification(pred, data.true_optimal)
        dis = disagreement(pred, data.true_optimal)
    return EvaluationReport(
        n_test=data.n,
        value=value_estimate(pred, data),
        itr_effect=effect,
        assignment_proportions=assignment_proportions(pred, data.k_arms),
        misclassification=misc,
        disagreement=dis,
    )


# ---------------------------------------------------------------------------
# cross-validated tuning of one binary step

_FOLD_REDRAWS = 20

def _stratified_folds(labels, weights, folds, seed):
    """(assign, folds): a fold assignment stratified by binary label, and the
    fold count it settled on.

    The count is capped at m // 2, and lowered by one whenever _FOLD_REDRAWS
    redraws cannot give every training part both classes among its
    positive-weight rows and every fold a held-out row; DegenerateStepError
    when fewer than 2 folds remain.
    """
    rng = np.random.default_rng(seed)
    n = labels.shape[0]
    positive = weights > 0
    folds = min(folds, n // 2)
    while folds >= 2:
        for _ in range(_FOLD_REDRAWS):
            assign = np.empty(n, dtype=int)
            for lab in (-1, 1):
                idx = rng.permutation(np.flatnonzero(labels == lab))
                assign[idx] = np.arange(idx.size) % folds
            if all(np.unique(labels[(assign != f) & positive]).size == 2 and (assign == f).any()
                   for f in range(folds)):
                return assign, folds
        folds -= 1
    raise DegenerateStepError("could not build two-class CV folds")


def _holdout_score(pred, sub, rows):
    matched = pred == sub.arm_labels[rows]
    if not matched.any():
        return float("nan")
    return float(_ipw_mean(sub.outcomes[rows], sub.propensities[rows], matched))


def cv_tune(sub, lambda_grid, sigma_grid=(None,), folds=5, seed=0, penalty="l2"):
    """Tune and fit one binary step: returns (rule, CVResult).

    The grid search maximizes the held-out binary IPW value (ratio form) over
    label-stratified folds: folds of them (an integer >= 2) drawn under seed
    (an integer >= 0), else DataError; _stratified_folds may settle on fewer,
    which CVResult.folds records.  penalty "l2" fits the kernel rule of each sigma in sigma_grid
    (None means the linear kernel); "l1linear" fits the L1 linear rule, whose
    callers pass sigma_grid=(None,), else DataError.  A screened step arrives
    with its features already masked and its selection set (see
    varselect.screen_mask).  The last highest (score, lambda, sigma) of the
    table wins: ties break toward larger lambda, then larger sigma (simpler
    rules).

    Every fitter takes a fold as sub's weights set to 0 outside its training
    rows and fits all of sub's rows, a weight of 0 being a cap of 0 and a
    coefficient of 0; it returns one (coefs, b0) per fold and lambda, and
    the fold's held-out rows te score sign(design[te] @ coefs + b0).  Linear
    L2 fits come from one interior-point solve over every fold and lambda
    (aol._linear_fold_fits), L1 fits from one dual LP per step
    (solvers._L1DualLP, through aol._l1_coefs; solvers._l1_path picks each
    solve's start), both on the features as design.  A Gaussian sigma's
    design is its Gram matrix over the whole step (aol._step_gram, in one
    m x m buffer for every sigma), on which aol._gaussian_fold_fits walks
    each fold's lambda path by warm-started SMO solves.  The rule is then
    refitted at the chosen point with sub's own weights: L1 on the same LP,
    L2 by aol._fit_l2, cold, on the Gram buffer, rebuilt unless the winner
    is the grid's last sigma.  A malformed grid is a DataError before any
    fold is drawn.
    """
    if penalty not in ("l2", "l1linear"):
        raise DataError(f"unknown penalty {penalty!r}")
    try:
        lambda_grid, sigma_grid = tuple(lambda_grid), tuple(sigma_grid)
    except TypeError:
        raise DataError("cv_tune's lambda and sigma grids must be sequences") from None
    if not lambda_grid or not sigma_grid:
        raise DataError("cv_tune needs non-empty lambda and sigma grids")
    if penalty == "l1linear" and sigma_grid != (None,):
        raise DataError("the L1 linear rule has no kernel: its sigma_grid is (None,)")
    for lam in lambda_grid:
        _check_positive("lambda", lam)
    kernels = [KernelSpec("linear") if s is None else KernelSpec("gaussian", s)
               for s in sigma_grid]
    _check_integer("folds", folds, 2)
    _check_integer("seed", seed, 0)
    assign, folds = _stratified_folds(sub.labels, sub.weights, folds, seed)
    held_out = [np.flatnonzero(assign == f) for f in range(folds)]
    fold_weights = [np.where(assign != f, sub.weights, 0.0) for f in range(folds)]
    if penalty == "l1linear":
        lp = _L1DualLP(sub.features, sub.labels)
    table, gram = [], None  # (lambda, sigma, mean held-out value), sigma-major; the Gram buffer
    starts = [None] * folds  # each fold's first-lambda alpha at the previous Gaussian sigma
    for sigma in sigma_grid:
        design = sub.features
        if penalty == "l1linear":
            fold_fits = [_l1_coefs(lp, weights, lambda_grid) for weights in fold_weights]
        elif sigma is None:
            fold_fits = _linear_fold_fits(sub, fold_weights, lambda_grid)
        else:
            gram = design = _step_gram(sub, sigma, out=gram)
            fold_fits = _gaussian_fold_fits(sub, gram, fold_weights, lambda_grid, starts)
        scores = [[] for _ in lambda_grid]
        for te, fits in zip(held_out, fold_fits):
            for (coefs, b0), fold_scores in zip(fits, scores):
                pred = _sign_tie_negative(design[te] @ coefs + b0)
                fold_scores.append(_holdout_score(pred, sub, te))
        for lam, fold_scores in zip(lambda_grid, scores):
            scored = not all(math.isnan(s) for s in fold_scores)
            mean_score = float(np.nanmean(fold_scores)) if scored else -math.inf
            table.append((float(lam), sigma, mean_score))
    # the last of the highest (score, lambda, sigma) wins
    best = max(range(len(table)), key=lambda i: (table[i][2], table[i][0], table[i][1] or 0, i))
    lam, sigma, _ = table[best]
    if sigma is not None and sigma != sigma_grid[-1]:  # a later sigma overwrote its entries
        gram = _step_gram(sub, sigma, out=gram)
    rule = (_l1_rule(lp, sub.weights, lam) if penalty == "l1linear"
            else _fit_l2(sub, kernels[best // len(lambda_grid)], lam, gram))
    return rule, CVResult(best_lambda=lam, best_sigma=sigma, table=tuple(table), folds=folds)


# ---------------------------------------------------------------------------
# replicated benchmark

METHOD_PRESETS = {
    "oracle": {"kind": "oracle"},
    "sr-linear": {"kind": "sr", "kernel_kind": "linear", "penalty": "l2"},
    "sr-linear-l1": {
        "kind": "sr",
        "kernel_kind": "linear",
        "penalty": "l1linear",
        "selection": "embedded",
    },
    "sr-gaussian": {"kind": "sr", "kernel_kind": "gaussian", "penalty": "l2"},
    "sr-gaussian-select": {
        "kind": "sr",
        "kernel_kind": "gaussian",
        "penalty": "l2",
        "selection": "two-stage",
    },
    "sr-linear-no-r": {
        "kind": "sr",
        "kernel_kind": "linear",
        "penalty": "l2",
        "use_r_steps": False,
    },
}


def resolve_method(name):
    """The SRConfig overrides (and "kind") of a method preset, as a new dict."""
    if name not in METHOD_PRESETS:
        raise DataError(f"unknown method preset {name!r}")
    return dict(METHOD_PRESETS[name])


def _run_cell(cell):
    from .sr import SRConfig, fit_sr, predict_ordinal

    spec, n, rep, methods, seed, test_size = cell

    train_seed = seed + rep
    test_seed = seed + 100_000 + rep
    train = generate(spec, n, train_seed)
    test = generate(spec, test_size, test_seed)
    rows, failures = [], []
    for name in methods:
        params = resolve_method(name)
        kind = params.pop("kind", "sr")
        try:
            if kind == "oracle":
                pred = test.true_optimal
            else:
                config = SRConfig(seed=train_seed, **params)
                model = fit_sr(train, config)
                pred = predict_ordinal(model, test.features)
            report = evaluate_rule(pred, test)
            rows.append(
                {
                    "setting": spec.id,
                    "n": n,
                    "method": name,
                    "replicate": rep,
                    "misclass": report.misclassification,
                    "value": report.value,
                    "itr_effect": report.itr_effect,
                    "props": report.assignment_proportions,
                    "seed": train_seed,
                }
            )
        except OrdinalSRError as exc:
            failures.append(
                {"setting": spec.id, "n": n, "method": name, "replicate": rep,
                 "error": str(exc)}
            )
    return rows, failures


def run_benchmark(
    settings, n_list, replicates, methods, seed=0, test_size=10_000, jobs=1, p=None
):
    """Replicated simulation benchmark.

    settings are setting ids and methods are METHOD_PRESETS names.  The test
    set is shared by all methods within a (setting, n, replicate) cell.
    Returns (rows, failures); rows are canonically sorted so output is
    independent of scheduling.
    """
    from concurrent.futures import ProcessPoolExecutor

    _check_integer("replicates", replicates, 1)
    _check_integer("jobs", jobs, 1)
    specs = [get_setting(s, p=p) for s in settings]
    cells = [
        (spec, n, rep, methods, seed, test_size)
        for spec in specs
        for n in n_list
        for rep in range(replicates)
    ]
    rows, failures = [], []
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        for r, f in (map if pool is None else pool.map)(_run_cell, cells):
            rows.extend(r)
            failures.extend(f)
    order = {name: i for i, name in enumerate(methods)}
    rows.sort(key=lambda r: (r["setting"], r["n"], order[r["method"]], r["replicate"]))
    return rows, failures


def summarize(rows):
    """Per-(setting, n, method) mean and sd of misclassification and value."""
    cells = {}
    for row in rows:
        cells.setdefault((row["setting"], row["n"], row["method"]), []).append(row)
    out = []
    for (setting, n, method), group in sorted(cells.items()):
        misc = [r["misclass"] for r in group if r["misclass"] is not None]
        vals = [r["value"] for r in group]
        out.append(
            {
                "setting": setting,
                "n": n,
                "method": method,
                "replicates": len(group),
                "misclass_mean": float(np.mean(misc)) if misc else float("nan"),
                "misclass_sd": float(np.std(misc, ddof=1)) if len(misc) > 1 else 0.0,
                "value_mean": float(np.mean(vals)),
                "value_sd": float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0,
            }
        )
    return out


def _write_rows_csv(rows, path, k_arms):
    _write_csv(
        path,
        ["setting", "n", "method", "replicate", "misclass", "value", "itr_effect"]
        + [f"prop_{k}" for k in range(1, k_arms + 1)]
        + ["seed"],
        ([r["setting"], r["n"], r["method"], r["replicate"], r["misclass"], r["value"],
          r["itr_effect"], *r["props"], r["seed"]] for r in rows),
    )


_SUMMARY_COLUMNS = ("setting", "n", "method", "replicates",
                    "misclass_mean", "misclass_sd", "value_mean", "value_sd")


def _write_summary_csv(summary, path):
    _write_csv(path, _SUMMARY_COLUMNS, ([s[c] for c in _SUMMARY_COLUMNS] for s in summary))


def _write_manifest(path, settings, n_list, replicates, methods, seed, test_size, p=None):
    """Plain-text record of every generator constant the benchmark relies on."""
    specs = [get_setting(s, p=p) for s in settings]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("ordinalsr benchmark manifest\n")
        fh.write(f"replicates {replicates} (desk scale; reference studies use 500)\n")
        fh.write(f"seed {seed}\n")
        fh.write(f"test_size {test_size}\n")
        fh.write(f"n_list {','.join(str(n) for n in n_list)}\n")
        fh.write(f"methods {','.join(methods)}\n")
        fh.write(
            "note: boundary parameterizations and mu(X) are package constants, "
            "not published values; parallel settings use index weights "
            f"{_p_weights_str()} with the thresholds below.\n"
        )
        fh.write(
            "note: mu(X) = 5 + X1 + 2*X2 for parallel-family settings, 5 otherwise.\n"
        )
        fh.write(
            "note: nonlinear variable screening is forward-backward stepwise "
            "logistic with EBIC(gamma=0.5) over first/second-order monomials.\n"
        )
        fh.write(
            "note: outcome mean is mu(X) - effect_scale * loss(A, D*(X)); the "
            "per-setting effect_scale below reproduces the treatment-effect-to-"
            "noise ratio implied by the reference value tables.\n"
        )
        for spec in specs:
            fh.write(
                f"setting {spec.id} K={spec.k_arms} p={spec.p} loss={spec.loss_kind} "
                f"kind={spec.kind} params={list(spec.params)} "
                f"effect_scale={spec.effect_scale}\n"
            )


def _p_weights_str():
    from .simgen import _P_WEIGHTS

    return str(list(_P_WEIGHTS))
