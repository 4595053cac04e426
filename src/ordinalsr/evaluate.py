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

from .aol import _fit_l2, _l1_coefs, _sign_tie_negative, fit_aol_l1_linear, fit_l2_from_gram
from .data import _write_csv
from .exceptions import (
    DataError,
    DegenerateStepError,
    OrdinalSRError,
    UndefinedMetricError,
)
from .kernels import KernelSpec, gram_matrix
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
    "write_rows_csv",
    "write_summary_csv",
    "write_manifest",
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
    fold_seed: int


def misclassification(pred, truth) -> float:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.size == 0:
        raise DataError("misclassification needs equal non-empty vectors")
    return float(np.mean(pred != truth))


def disagreement(pred, truth) -> float:
    """Mean |pred - truth|: penalizes far misses more than near ones."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape or pred.size == 0:
        raise DataError("disagreement needs equal non-empty vectors")
    return float(np.mean(np.abs(pred - truth)))


def _ipw_mean(outcome, propensity, matched):
    """Sum of y / propensity over the matched rows, over the sum of 1 / propensity."""
    invp = 1.0 / propensity[matched]
    return np.sum(outcome[matched] * invp) / np.sum(invp)


def value_estimate(pred, data) -> float:
    """Self-normalized IPW value of an assignment vector against observed data."""
    pred = np.asarray(pred)
    if pred.shape != (data.n,):
        raise DataError("prediction length mismatch")
    matched = pred == data.treatment
    if not matched.any():
        raise UndefinedMetricError("no subject's observed arm matches the rule")
    return float(_ipw_mean(data.outcome, data.effective_propensity(), matched))


def itr_effect(pred, data) -> float:
    """Value among rule-concordant subjects minus value among the rest."""
    pred = np.asarray(pred)
    matched = pred == data.treatment
    if not matched.any() or matched.all():
        raise UndefinedMetricError("itr_effect needs matched and unmatched subjects")
    prop = data.effective_propensity()
    return float(_ipw_mean(data.outcome, prop, matched) - _ipw_mean(data.outcome, prop, ~matched))


def assignment_proportions(pred, k_arms) -> tuple:
    pred = np.asarray(pred)
    counts = np.bincount(pred, minlength=k_arms + 1)[1 : k_arms + 1]
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
    """Fold assignment stratified by binary label; every training part must
    keep both classes among positive-weight rows.  Reduces the fold count when
    _FOLD_REDRAWS redraws cannot achieve that."""
    rng = np.random.default_rng(seed)
    n = labels.shape[0]
    while folds >= 2:
        for _ in range(_FOLD_REDRAWS):
            assign = np.empty(n, dtype=int)
            for lab in (-1, 1):
                idx = np.flatnonzero(labels == lab)
                idx = rng.permutation(idx)
                assign[idx] = np.arange(idx.size) % folds
            ok = True
            for f in range(folds):
                tr = assign != f
                active = tr & (weights > 0)
                if np.unique(labels[active]).size < 2 or not (~tr).any():
                    ok = False
                    break
            if ok:
                return assign, folds
        folds -= 1
    raise DegenerateStepError("could not build two-class CV folds")


def _holdout_score(pred, sub, rows):
    matched = pred == sub.arm_labels[rows]
    if not matched.any():
        return float("nan")
    return float(_ipw_mean(sub.outcomes[rows], sub.propensities[rows], matched))


def cv_tune(
    sub,
    lambda_grid,
    sigma_grid=(None,),
    folds=5,
    seed=0,
    penalty="l2",
    cv_tol=1e-3,
):
    """Tune and fit one binary step: returns (rule, CVResult).

    The grid search maximizes the held-out binary IPW value (ratio form).
    penalty "l2" fits the kernel rule of each sigma in sigma_grid (None means
    the linear kernel); "l1linear" fits the L1 linear rule, whose callers pass
    sigma_grid=(None,).  A screened step arrives with its features already
    masked and its selection set (see varselect.screen_mask).  Ties break
    toward larger lambda, then larger sigma (simpler rules).

    One fold loop serves both penalties.  A fold fits one (coefs, b0) per
    lambda on its positive-weight training rows, then scores its held-out rows
    as sign(design @ coefs + b0).  For L2 the design is the held-out rows of
    the sigma's Gram matrix against the training rows, and the fits walk the
    lambda grid in order, each starting from the previous alpha times
    lambda_prev / lambda: the caps C_i = w_i / (2 lambda m) scale the same
    way, so that start is feasible.  For L1 the design is the held-out
    features and each lambda is solved cold.  The rule is then fitted on all
    of sub at the chosen lambda/sigma, cold at tol 1e-5, an L2 rule reading
    the chosen sigma's Gram matrix from the search.
    """
    if penalty not in ("l2", "l1linear"):
        raise DataError(f"unknown penalty {penalty!r}")
    if not len(lambda_grid) or not len(sigma_grid):
        raise DataError("cv_tune needs non-empty lambda and sigma grids")
    if sub.m < 2 * folds:
        folds = max(2, sub.m // 2)
    if sub.m < 4:
        raise DegenerateStepError(f"{sub.step_id}: too few subjects for CV")
    assign, folds = _stratified_folds(sub.labels, sub.weights, folds, seed)
    table = []
    best = None  # (rank, lambda, kernel, gram_full) of the winner so far
    for sigma in sigma_grid:
        kernel = KernelSpec("linear") if sigma is None else KernelSpec("gaussian", sigma)
        gram_full = gram_matrix(kernel, sub.features, sub.features) if penalty == "l2" else None
        scores = [[] for _ in lambda_grid]
        for f in range(folds):
            te = np.flatnonzero(assign == f)
            active = np.flatnonzero((assign != f) & (sub.weights > 0))
            labels, weights = sub.labels[active], sub.weights[active]
            if penalty == "l1linear":
                X_tr = sub.features[active]
                fits = [_l1_coefs(X_tr, labels, weights, lam) for lam in lambda_grid]
                design = sub.features[te]
            else:
                gram_tr = gram_full[np.ix_(active, active)]
                fits, alpha, lam_prev = [], None, None
                for lam in lambda_grid:
                    init = None if alpha is None else alpha * (lam_prev / lam)
                    coefs, b0 = fit_l2_from_gram(
                        labels, weights, gram_tr, lam, tol=cv_tol, init=init
                    )
                    alpha, lam_prev = coefs * labels, lam
                    fits.append((coefs, b0))
                gram_tr = None  # the training and held-out blocks are never held at once
                design = gram_full[np.ix_(te, active)]
            for (coefs, b0), fold_scores in zip(fits, scores):
                pred = _sign_tie_negative(design @ coefs + b0)
                fold_scores.append(_holdout_score(pred, sub, te))
            design = None  # nor across folds
        for lam, fold_scores in zip(lambda_grid, scores):
            mean_score = float(np.nanmean(fold_scores)) if not all(
                math.isnan(s) for s in fold_scores
            ) else float("-inf")
            table.append((float(lam), sigma, mean_score))
            # the last of the highest (score, lambda, sigma) wins
            rank = (mean_score, float(lam), 0.0 if sigma is None else sigma)
            if best is None or rank >= best[0]:
                best = (rank, float(lam), kernel, gram_full)
        gram_full = None  # only the winner's Gram matrix outlives its sigma
    _, lam, kernel, gram_full = best
    if penalty == "l1linear":
        rule = fit_aol_l1_linear(sub, lam)
    else:
        rule = _fit_l2(sub, kernel, lam, gram_full)
    cv = CVResult(
        best_lambda=lam, best_sigma=kernel.bandwidth, table=tuple(table), fold_seed=seed
    )
    return rule, cv


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

    if replicates < 1:
        raise DataError("replicates must be >= 1")
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


def write_rows_csv(rows, path, k_arms):
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


def write_summary_csv(summary, path):
    _write_csv(path, _SUMMARY_COLUMNS, ([s[c] for c in _SUMMARY_COLUMNS] for s in summary))


def write_manifest(path, settings, n_list, replicates, methods, seed, test_size, p=None):
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
