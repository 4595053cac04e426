"""The sequential re-estimation cascade.

Fits K-1 sequential rules (arm k vs. everything more intensive) and K-2
re-estimation rules (arm k vs. k+1 on the refined subpopulation), then
ensembles the binary decisions into an ordinal assignment by walking the
decision tree: the first sequential step that settles on its own arm hands
the final call to the matching re-estimation rule.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .aol import KernelExpansionRule, SparseLinearRule, build_subproblem, fit_aol_l2, fit_aol_l1_linear
from .data import ScalingParams, TrialDataset, _read_text, apply_scaling, fit_scaling
from .exceptions import DataError, DegenerateStepError
from .kernels import KernelSpec, median_bandwidth
from .solvers import ols_fit

__all__ = [
    "SRConfig",
    "SRModel",
    "ConstantRule",
    "eligibility_sequential",
    "eligibility_reestimation",
    "fit_sr",
    "predict_ordinal",
    "save_model",
    "load_model",
]

DEFAULT_LAMBDA_GRID = (0.01, 0.05, 0.25)
DEFAULT_SIGMA_SCALES = (0.5, 1.0, 2.0)


def _positive_grid(name, values):
    """values as a non-empty tuple of finite positive floats, else DataError."""
    try:
        grid = tuple(float(v) for v in values)
    except (TypeError, ValueError):
        raise DataError(f"{name} must be a sequence of numbers") from None
    if not grid:
        raise DataError(f"{name} must be non-empty")
    if not all(math.isfinite(v) and v > 0 for v in grid):
        raise DataError(f"{name} entries must be finite and positive: {grid}")
    return grid


@dataclass(frozen=True)
class SRConfig:
    kernel_kind: str = "linear"
    penalty: str = "l2"
    selection: str = "none"
    lambda_grid: tuple = DEFAULT_LAMBDA_GRID
    sigma_grid: tuple = None  # absolute bandwidths; None -> median * sigma_scales
    sigma_scales: tuple = DEFAULT_SIGMA_SCALES
    cv_folds: int = 5
    min_step_size: int = 10
    seed: int = 0
    propensity_mode: str = "known"
    use_r_steps: bool = True

    def __post_init__(self):
        if self.kernel_kind not in ("linear", "gaussian"):
            raise DataError(f"unknown kernel {self.kernel_kind!r}")
        if self.penalty not in ("l2", "l1linear"):
            raise DataError(f"unknown penalty {self.penalty!r}")
        if self.selection not in ("none", "embedded", "two-stage"):
            raise DataError(f"unknown selection mode {self.selection!r}")
        if self.selection == "embedded" and self.kernel_kind != "linear":
            raise DataError("embedded L1 selection requires the linear kernel")
        if self.selection == "embedded":
            # embedded selection is the L1 penalty's own sparsity
            object.__setattr__(self, "penalty", "l1linear")
        if self.penalty == "l1linear" and self.kernel_kind != "linear":
            raise DataError("the L1 penalty applies to linear rules only")
        if self.penalty == "l1linear" and self.selection == "two-stage":
            raise DataError(
                "two-stage selection screens for an L2 fit; the L1 penalty "
                "selects by itself (selection='embedded')"
            )
        if not isinstance(self.cv_folds, numbers.Integral) or isinstance(
            self.cv_folds, bool
        ):
            raise DataError(f"cv_folds must be an integer, not {self.cv_folds!r}")
        if self.cv_folds < 2:
            raise DataError("cv_folds must be >= 2")
        if self.propensity_mode not in ("known", "logistic"):
            raise DataError(f"unknown propensity mode {self.propensity_mode!r}")
        object.__setattr__(self, "lambda_grid", _positive_grid("lambda_grid", self.lambda_grid))
        if self.sigma_grid is not None:
            object.__setattr__(self, "sigma_grid", _positive_grid("sigma_grid", self.sigma_grid))
        object.__setattr__(self, "sigma_scales", _positive_grid("sigma_scales", self.sigma_scales))


@dataclass(frozen=True)
class ConstantRule:
    """Stand-in for a degenerate step; always emits the same binary decision."""

    decision: int
    reason: str
    selected_features: tuple = ()

    def decision_value(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.full(X.shape[0], float(self.decision))

    def predict(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.full(X.shape[0], self.decision, dtype=int)


@dataclass(frozen=True)
class SRModel:
    k_arms: int
    sequential_rules: tuple
    reestimation_rules: tuple
    scaling: ScalingParams
    config: SRConfig
    cv_trace: tuple = ()

    def __post_init__(self):
        if len(self.sequential_rules) != self.k_arms - 1:
            raise DataError("need exactly K-1 sequential rules")
        if len(self.reestimation_rules) != self.k_arms - 2:
            raise DataError("need exactly K-2 re-estimation rules")


def eligibility_sequential(data: TrialDataset, k, prior_equals) -> np.ndarray:
    """Subjects entering sequential step k.

    prior_equals[j] (j = 1..k-1) are boolean arrays marking subjects whose
    step-j prediction settled on arm j.  Step 1 includes everyone.
    """
    n = data.n
    if k == 1:
        return np.arange(n)
    mask = data.treatment > (k - 1)
    for j in range(1, k):
        mask &= ~np.asarray(prior_equals[j])
    return np.flatnonzero(mask)


def eligibility_reestimation(data: TrialDataset, k, sk_equals) -> np.ndarray:
    """Subjects entering re-estimation step k: observed arm in {k, k+1} and
    the k-th sequential prediction settled on arm k."""
    mask = ((data.treatment == k) | (data.treatment == k + 1)) & np.asarray(sk_equals)
    return np.flatnonzero(mask)


def _majority_rule(data, eligible, negative_arms, positive_arms, reason) -> ConstantRule:
    """Inverse-propensity-weighted majority side over the eligible pool.

    Falls back to all subjects observed in either arm group when the eligible
    set is empty; ties go to the less intensive side.
    """
    pool = np.asarray(eligible, dtype=int)
    arms = data.treatment[pool] if pool.size else np.empty(0, dtype=int)
    both = negative_arms + positive_arms
    if pool.size == 0 or not np.isin(arms, both).any():
        pool = np.flatnonzero(np.isin(data.treatment, both))
        arms = data.treatment[pool]
    w = 1.0 / data.effective_propensity()[pool]
    mass_pos = w[np.isin(arms, positive_arms)].sum()
    mass_neg = w[np.isin(arms, negative_arms)].sum()
    return ConstantRule(decision=1 if mass_pos > mass_neg else -1, reason=reason)


def _resolve_sigma_grid(config, features, seed):
    if config.kernel_kind != "gaussian":
        return (None,)
    if config.sigma_grid is not None:
        return config.sigma_grid
    try:
        med = median_bandwidth(features, seed=seed)
    except DataError:
        med = 1.0
    return tuple(s * med for s in config.sigma_scales)


def _fit_step(data, Xs, config, step_id, negative_arms, positive_arms, eligible, seed):
    """Build, tune, and fit one binary step; ConstantRule on degeneracy.

    Two-stage selection masks the step's features once, up front, so the
    sigma grid, CV and final fit all see an ordinary L2 subproblem.
    """
    from .evaluate import cv_tune
    from .varselect import screen_mask

    try:
        sub = build_subproblem(
            data,
            negative_arms,
            positive_arms,
            eligible,
            ols_fit(Xs[eligible], data.outcome[eligible]),
            propensity_mode=config.propensity_mode,
            step_id=step_id,
            min_size=config.min_step_size,
            features=Xs,
        )
        screened = config.selection == "two-stage"
        if screened:
            sub, selected, fallback = screen_mask(sub)
        cv = cv_tune(
            sub,
            lambda_grid=config.lambda_grid,
            sigma_grid=_resolve_sigma_grid(config, sub.features, seed),
            folds=config.cv_folds,
            seed=seed,
            penalty=config.penalty,
        )
        if config.penalty == "l1linear":
            return fit_aol_l1_linear(sub, cv.best_lambda), cv
        rule = fit_aol_l2(sub, KernelSpec(config.kernel_kind, cv.best_sigma), cv.best_lambda)
        if screened:
            rule = replace(rule, selected_features=selected, selection_fallback=fallback)
        return rule, cv
    except DegenerateStepError as exc:
        return (
            _majority_rule(data, eligible, negative_arms, positive_arms, str(exc)),
            None,
        )


def fit_sr(data: TrialDataset, config: SRConfig) -> SRModel:
    """Train the full cascade: K-1 sequential steps, then K-2 re-estimation steps."""
    K = data.k_arms
    if K < 3:
        raise DataError("SR learning requires K >= 3 ordinal arms")
    observed = np.unique(data.treatment)
    missing = sorted(set(range(1, K + 1)) - set(observed.tolist()))
    if missing:
        raise DataError(f"arms never observed in the data: {missing}")
    scaling = fit_scaling(data)
    Xs = apply_scaling(scaling, data.features)
    seq_rules = []
    cv_trace = []
    s_equals = {}  # k -> bool array, in-sample prediction settled on arm k
    for k in range(1, K):
        eligible = eligibility_sequential(data, k, s_equals)
        rule, cv = _fit_step(
            data,
            Xs,
            config,
            step_id=f"S{k}",
            negative_arms=(k,),
            positive_arms=tuple(range(k + 1, K + 1)),
            eligible=eligible,
            seed=config.seed + k,
        )
        seq_rules.append(rule)
        cv_trace.append((f"S{k}", cv))
        s_equals[k] = rule.predict(Xs) == -1
    re_rules = []
    for k in range(1, K - 1):
        eligible = eligibility_reestimation(data, k, s_equals[k])
        rule, cv = _fit_step(
            data,
            Xs,
            config,
            step_id=f"R{k}",
            negative_arms=(k,),
            positive_arms=(k + 1,),
            eligible=eligible,
            seed=config.seed + K + k,
        )
        re_rules.append(rule)
        cv_trace.append((f"R{k}", cv))
    return SRModel(
        k_arms=K,
        sequential_rules=tuple(seq_rules),
        reestimation_rules=tuple(re_rules),
        scaling=scaling,
        config=config,
        cv_trace=tuple(cv_trace),
    )


def predict_ordinal(model: SRModel, features) -> np.ndarray:
    """Ensemble the binary rules into arm assignments in 1..K.

    Accepts raw (unscaled) features; scaling stored in the model is applied
    first.  With use_r_steps=False (ablation) a settled sequential step
    assigns its own arm directly instead of consulting the R-rule.
    """
    X = np.asarray(features, dtype=float)
    single = X.ndim == 1
    Xs = apply_scaling(model.scaling, X)
    n = Xs.shape[0]
    K = model.k_arms
    pred = np.zeros(n, dtype=int)
    remaining = np.ones(n, dtype=bool)
    for k in range(1, K - 1):
        s_dec = model.sequential_rules[k - 1].predict(Xs)
        settled = remaining & (s_dec == -1)
        if model.config.use_r_steps:
            r_dec = model.reestimation_rules[k - 1].predict(Xs)
            pred[settled] = np.where(r_dec[settled] == -1, k, k + 1)
        else:
            pred[settled] = k
        remaining &= ~settled
    last = model.sequential_rules[K - 2].predict(Xs)
    pred[remaining] = np.where(last[remaining] == -1, K - 1, K)
    return int(pred[0]) if single else pred


# ---------------------------------------------------------------------------
# model file format (versioned plain text; repr round-trips floats exactly)

_MODEL_HEADER = "ordinalsr-model v1"

# (write, read) of each SRConfig field type; a None field is left out
_CONFIG_CODECS = {
    "str": (str, str),
    "int": (str, int),
    "bool": (lambda v: str(int(v)), lambda text: bool(int(text))),
    "tuple": (
        lambda v: " ".join(repr(float(x)) for x in v),
        lambda text: tuple(float(x) for x in text.split()),
    ),
}
# config lines of options since removed, with the one value they could take
_RETIRED_CONFIG = {"residual_model": "ols", "cv_criterion": "value"}


def _write_rule(fh, tag, rule):
    if isinstance(rule, ConstantRule):
        fh.write(f"rule {tag} constant\n")
        fh.write(f"decision {rule.decision}\n")
        fh.write(f"reason {rule.reason}\n")
    elif isinstance(rule, SparseLinearRule):
        fh.write(f"rule {tag} sparse_linear\n")
        fh.write(f"intercept {float(rule.intercept)!r}\n")
        fh.write("slopes " + " ".join(repr(float(v)) for v in rule.slopes) + "\n")
        fh.write("selected " + " ".join(str(j) for j in rule.selected_features) + "\n")
        fh.write(f"fallback {int(rule.selection_fallback)}\n")
    elif isinstance(rule, KernelExpansionRule):
        fh.write(f"rule {tag} kernel_expansion\n")
        if rule.kernel.kind == "gaussian":
            fh.write(f"kernel gaussian {float(rule.kernel.bandwidth)!r}\n")
        else:
            fh.write("kernel linear\n")
        fh.write(f"intercept {float(rule.intercept)!r}\n")
        fh.write(f"n_features {rule.n_features}\n")
        fh.write("selected " + " ".join(str(j) for j in rule.selected_features) + "\n")
        fh.write(f"fallback {int(rule.selection_fallback)}\n")
        for coef, pt in zip(rule.coefs, rule.points):
            fh.write("point " + repr(float(coef)) + " " + " ".join(repr(float(v)) for v in pt) + "\n")
    else:
        raise DataError(f"cannot serialize rule type {type(rule).__name__}")
    fh.write("end\n")


def save_model(model: SRModel, path):
    cfg = model.config
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_MODEL_HEADER + "\n")
        fh.write(f"k_arms {model.k_arms}\n")
        fh.write("config\n")
        for f in fields(SRConfig):
            value = getattr(cfg, f.name)
            if value is not None:
                fh.write(f"{f.name} {_CONFIG_CODECS[f.type][0](value)}\n")
        fh.write("end\n")
        fh.write("scaling\n")
        for lo, hi in zip(model.scaling.mins, model.scaling.maxs):
            fh.write(f"{float(lo)!r} {float(hi)!r}\n")
        fh.write("end\n")
        for k, rule in enumerate(model.sequential_rules, start=1):
            _write_rule(fh, f"S{k}", rule)
        for k, rule in enumerate(model.reestimation_rules, start=1):
            _write_rule(fh, f"R{k}", rule)


def _parse_rule(lines, i):
    head = lines[i].split()
    tag, kind = head[1], head[2]
    i += 1
    fields = {}
    points = []
    while lines[i] != "end":
        key, _, rest = lines[i].partition(" ")
        if key == "point":
            points.append(rest)
        else:
            fields[key] = rest
        i += 1
    if kind == "constant":
        rule = ConstantRule(decision=int(fields["decision"]), reason=fields.get("reason", ""))
    elif kind == "sparse_linear":
        slopes = np.array([float(v) for v in fields["slopes"].split()])
        sel = tuple(int(v) for v in fields["selected"].split()) if fields["selected"] else ()
        rule = SparseLinearRule(
            intercept=float(fields["intercept"]),
            slopes=slopes,
            selected_features=sel,
            selection_fallback=bool(int(fields.get("fallback", "0"))),
        )
    elif kind == "kernel_expansion":
        kparts = fields["kernel"].split()
        kernel = (
            KernelSpec("linear")
            if kparts[0] == "linear"
            else KernelSpec("gaussian", float(kparts[1]))
        )
        coefs, pts = [], []
        for rec in points:
            vals = rec.split()
            coefs.append(float(vals[0]))
            pts.append([float(v) for v in vals[1:]])
        nf = int(fields["n_features"])
        sel = tuple(int(v) for v in fields["selected"].split()) if fields["selected"] else ()
        rule = KernelExpansionRule(
            points=np.array(pts).reshape(len(points), nf),
            coefs=np.array(coefs),
            intercept=float(fields["intercept"]),
            kernel=kernel,
            n_features=nf,
            selected_features=sel,
            selection_fallback=bool(int(fields.get("fallback", "0"))),
        )
    else:
        raise DataError(f"unknown rule kind {kind!r} in model file")
    return tag, rule, i + 1


def _expect(lines, i, section):
    if lines[i] != section:
        raise ValueError(f"line {i + 1}: expected {section!r}")
    return i + 1


def load_model(path) -> SRModel:
    """Read a model file; DataError if it is not one, or is truncated or malformed."""
    with _read_text(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != _MODEL_HEADER:
        raise DataError(f"{path}: not an ordinalsr model file")
    try:
        return _parse_model(lines)
    except (IndexError, KeyError, ValueError) as exc:
        raise DataError(f"{path}: truncated or malformed model file ({exc!r})") from None


def _parse_model(lines) -> SRModel:
    k_arms = int(lines[1].split()[1])
    i = _expect(lines, 2, "config")
    cfg = {}
    while lines[i] != "end":
        key, _, rest = lines[i].partition(" ")
        if key in cfg:
            raise DataError(f"config key {key!r} given twice")
        cfg[key] = rest
        i += 1
    i += 1
    for key, only in _RETIRED_CONFIG.items():
        if cfg.pop(key, only) != only:
            raise DataError(f"config {key} must be {only!r}; its other values were removed")
    kwargs = {}
    for f in fields(SRConfig):
        if f.name in cfg or f.default is not None:
            kwargs[f.name] = _CONFIG_CODECS[f.type][1](cfg.pop(f.name))
    if cfg:
        raise DataError(f"unknown config keys {sorted(cfg)}")
    config = SRConfig(**kwargs)
    i = _expect(lines, i, "scaling")
    mins, maxs = [], []
    while lines[i] != "end":
        lo, hi = lines[i].split()
        mins.append(float(lo))
        maxs.append(float(hi))
        i += 1
    i += 1
    scaling = ScalingParams(mins=np.array(mins), maxs=np.array(maxs))
    seq, re_ = {}, {}
    while i < len(lines) and lines[i].startswith("rule "):
        tag, rule, i = _parse_rule(lines, i)
        (seq if tag.startswith("S") else re_)[int(tag[1:])] = rule
    return SRModel(
        k_arms=k_arms,
        sequential_rules=tuple(seq[k] for k in sorted(seq)),
        reestimation_rules=tuple(re_[k] for k in sorted(re_)),
        scaling=scaling,
        config=config,
    )
