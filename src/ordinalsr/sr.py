"""The sequential re-estimation cascade.

Fits K-1 sequential rules (arm k vs. everything more intensive) and K-2
re-estimation rules (arm k vs. k+1 on the refined subpopulation), then
ensembles the binary decisions into an ordinal assignment by walking the
decision tree: the first sequential step that settles on its own arm hands
the final call to the matching re-estimation rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .aol import KernelExpansionRule, SparseLinearRule, build_subproblem
from .data import ScalingParams, TrialDataset, _check_integer, _read_text, apply_scaling, fit_scaling
from .evaluate import cv_tune
from .exceptions import DataError, DegenerateStepError
from .kernels import KernelSpec, median_bandwidth
from .solvers import ols_fit
from .varselect import screen_mask

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
SIGMA_SCALES = (0.5, 1.0, 2.0)  # multiples of the median bandwidth when sigma_grid is None


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
    sigma_grid: tuple = None  # absolute bandwidths; None -> median * SIGMA_SCALES
    cv_folds: int = 5
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
        for name, low in (("cv_folds", 2), ("seed", 0)):
            _check_integer(name, getattr(self, name), low)
        if not isinstance(self.use_r_steps, bool):
            raise DataError(f"use_r_steps must be a bool, not {self.use_r_steps!r}")
        if self.propensity_mode not in ("known", "logistic"):
            raise DataError(f"unknown propensity mode {self.propensity_mode!r}")
        object.__setattr__(self, "lambda_grid", _positive_grid("lambda_grid", self.lambda_grid))
        if self.sigma_grid is not None:
            object.__setattr__(self, "sigma_grid", _positive_grid("sigma_grid", self.sigma_grid))


@dataclass(frozen=True)
class ConstantRule:
    """Stand-in for a degenerate step; always emits the same binary decision."""

    decision: int
    reason: str
    selected_features: tuple = ()

    def __post_init__(self):
        if self.decision not in (-1, 1):
            raise DataError(f"a constant rule decides -1 or 1, not {self.decision!r}")
        if not isinstance(self.reason, str) or "\n" in self.reason or "\r" in self.reason:
            # the model file keeps the reason on one line
            raise DataError(f"a constant rule's reason is one line of text, not {self.reason!r}")

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
    if pool.size == 0:
        pool = np.flatnonzero(np.isin(data.treatment, negative_arms + positive_arms))
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
    return tuple(s * med for s in SIGMA_SCALES)


def _fit_step(data, Xs, config, step_id, negative_arms, positive_arms, eligible, seed):
    """Build, tune and fit one binary step: (rule, CVResult), or a ConstantRule
    and None on degeneracy.

    Two-stage selection masks the step's features once, up front, so the
    sigma grid and cv_tune see an ordinary L2 subproblem carrying its selection.
    """
    try:
        sub = build_subproblem(
            data,
            negative_arms,
            positive_arms,
            eligible,
            ols_fit(Xs[eligible], data.outcome[eligible]),
            propensity_mode=config.propensity_mode,
            step_id=step_id,
            features=Xs,
        )
        if config.selection == "two-stage":
            sub = screen_mask(sub)
        return cv_tune(
            sub,
            lambda_grid=config.lambda_grid,
            sigma_grid=_resolve_sigma_grid(config, sub.features, seed),
            folds=config.cv_folds,
            seed=seed,
            penalty=config.penalty,
        )
    except DegenerateStepError as exc:
        return _majority_rule(data, eligible, negative_arms, positive_arms, str(exc)), None


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
    first.  Each rule sees only the rows that reach it: S_k the rows no earlier
    S-rule settled, R_k the rows S_k settles, and S_{K-1} the rest.  With
    use_r_steps=False (ablation) a settled sequential step assigns its own arm
    directly and no R-rule runs.
    """
    X = np.asarray(features, dtype=float)
    single = X.ndim == 1
    Xs = apply_scaling(model.scaling, X)
    n = Xs.shape[0]
    K = model.k_arms
    pred = np.zeros(n, dtype=int)
    rows = np.arange(n)  # rows no S-rule has settled yet
    for k in range(1, K - 1):
        settles = model.sequential_rules[k - 1].predict(Xs[rows]) == -1
        settled, rows = rows[settles], rows[~settles]
        if model.config.use_r_steps:
            r_dec = model.reestimation_rules[k - 1].predict(Xs[settled])
            pred[settled] = np.where(r_dec == -1, k, k + 1)
        else:
            pred[settled] = k
    last = model.sequential_rules[K - 2].predict(Xs[rows])
    pred[rows] = np.where(last == -1, K - 1, K)
    return int(pred[0]) if single else pred


# ---------------------------------------------------------------------------
# model file format v1 (plain text; repr round-trips floats exactly): a header,
# "k_arms K", a config block (one "<field> <value>" line per SRConfig field
# that is not None), a scaling block (one "<min> <max>" line per feature) and
# one block per rule, tagged S1..S{K-1} then R1..R{K-2}.  Every block ends with
# "end".  save_model and load_model both run off the field tables below.

_MODEL_HEADER = "ordinalsr-model v1"


def _join_floats(values):
    return " ".join(repr(float(v)) for v in values)


def _floats(text):
    values = tuple(float(v) for v in text.split())
    if not all(math.isfinite(v) for v in values):
        raise DataError(f"non-finite number in {text!r}")
    return values


def _float(text):
    (value,) = _floats(text)
    return value


def _read_kernel(text):
    kind, *bandwidth = text.split(" ")
    if (kind, len(bandwidth)) not in (("linear", 0), ("gaussian", 1)):
        raise DataError(f"unknown kernel {text!r}")
    return KernelSpec(kind, *map(_float, bandwidth))


# codec name -> (write, read); an SRConfig field's codec is its type
_CODECS = {
    "str": (str, str),
    "int": (str, int),
    "bool": (lambda v: str(int(v)), {"0": False, "1": True}.__getitem__),
    "tuple": (_join_floats, _floats),
    "array": (_join_floats, lambda text: np.array(_floats(text))),
    "float": (lambda v: repr(float(v)), _float),
    "ints": (lambda v: " ".join(map(str, v)), lambda text: tuple(map(int, text.split()))),
    "kernel": (
        lambda k: "linear" if k.kind == "linear" else f"gaussian {float(k.bandwidth)!r}",
        _read_kernel,
    ),
}
_CONFIG_FIELDS = tuple((f.name, f.name, f.type) for f in fields(SRConfig))
_OPTIONAL_CONFIG = tuple(f.name for f in fields(SRConfig) if f.default is None)
# config lines of options since removed, at the one value they could take
_RETIRED_CONFIG = ("residual_model ols", "cv_criterion value", "sigma_scales 0.5 1.0 2.0",
                   "min_step_size 10")
_INTERCEPT = ("intercept", "intercept", "float")
_SELECTION = (("selected", "selected_features", "ints"), ("fallback", "selection_fallback", "bool"))
# rule kind -> (class, (file key, attribute, codec) per line); a kernel rule's
# block also has one "point <coef> <x...>" line per expansion point
_RULE_FIELDS = {
    "constant": (ConstantRule, (("decision", "decision", "int"), ("reason", "reason", "str"))),
    "sparse_linear": (SparseLinearRule, (_INTERCEPT, ("slopes", "slopes", "array"), *_SELECTION)),
    "kernel_expansion": (KernelExpansionRule, (("kernel", "kernel", "kernel"), _INTERCEPT,
                                               ("n_features", "n_features", "int"), *_SELECTION)),
}
_RULE_KINDS = {cls: kind for kind, (cls, _) in _RULE_FIELDS.items()}


def _rule_tags(k_arms):
    yield from (f"S{k}" for k in range(1, k_arms))
    yield from (f"R{k}" for k in range(1, k_arms - 1))


def _write_block(fh, head, obj, table, rows=()):
    fh.write(head + "\n")
    for key, attr, codec in table:
        value = getattr(obj, attr)
        if value is not None:
            fh.write(f"{key} {_CODECS[codec][0](value)}\n")
    for row in rows:
        fh.write(row + "\n")
    fh.write("end\n")


def save_model(model: SRModel, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{_MODEL_HEADER}\nk_arms {model.k_arms}\n")
        _write_block(fh, "config", model.config, _CONFIG_FIELDS)
        bounds = zip(model.scaling.mins, model.scaling.maxs)
        _write_block(fh, "scaling", None, (), map(_join_floats, bounds))
        rules = model.sequential_rules + model.reestimation_rules
        for tag, rule in zip(_rule_tags(model.k_arms), rules):
            kind = _RULE_KINDS.get(type(rule))
            if kind is None:
                raise DataError(f"cannot serialize rule type {type(rule).__name__}")
            points = zip(rule.coefs, rule.points) if kind == "kernel_expansion" else ()
            rows = (f"point {_join_floats((c, *x))}" for c, x in points)
            _write_block(fh, f"rule {tag} {kind}", rule, _RULE_FIELDS[kind][1], rows)


def _read_block(lines, i, head, table=(), rows_key=None, optional=(), skip=()):
    """Read the block that opens at line i with head, passing over skip lines.

    Returns ({attribute: value} per table entry, [rest of each line that starts
    with rows_key], index after the block's "end"); DataError on a wrong head or
    on a missing, unknown or repeated key."""
    if lines[i] != head:
        raise DataError(f"line {i + 1}: expected {head!r}")
    end = lines.index("end", i + 1)
    given, rows = {}, []
    for line in lines[i + 1 : end]:
        if rows_key is not None and line.startswith(rows_key):
            rows.append(line[len(rows_key) :])
        elif line not in skip:
            key, _, text = line.partition(" ")
            if key in given:
                raise DataError(f"key {key!r} given twice")
            given[key] = text
    values = {}
    for key, attr, codec in table:
        if key in given:
            values[attr] = _CODECS[codec][1](given.pop(key))
        elif key not in optional:
            raise DataError(f"missing key {key!r}")
    if given:
        raise DataError(f"unknown keys {sorted(given)}")
    return values, rows, end + 1


def load_model(path) -> SRModel:
    """Read a model file; DataError if it is not one, or is truncated or malformed."""
    with _read_text(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != _MODEL_HEADER:
        raise DataError(f"{path}: not an ordinalsr model file")
    try:
        if not lines[1].startswith("k_arms "):
            raise DataError("line 2: expected 'k_arms <K>'")
        k_arms = int(lines[1][len("k_arms ") :])
        config, _, i = _read_block(
            lines, 2, "config", _CONFIG_FIELDS, None, _OPTIONAL_CONFIG, _RETIRED_CONFIG
        )
        _, bounds, i = _read_block(lines, i, "scaling", rows_key="")
        bounds = np.array([_floats(row) for row in bounds]).reshape(len(bounds), 2)
        rules = []
        for tag in _rule_tags(k_arms):
            kind = lines[i].removeprefix(f"rule {tag} ")
            if kind not in _RULE_FIELDS:
                raise DataError(f"line {i + 1}: expected a rule {tag} block")
            cls, table = _RULE_FIELDS[kind]
            rows_key = "point " if cls is KernelExpansionRule else None
            values, rows, i = _read_block(lines, i, f"rule {tag} {kind}", table, rows_key)
            if rows_key:
                grid = np.array([_floats(row) for row in rows])
                grid = grid.reshape(len(rows), values["n_features"] + 1)
                values.update(coefs=grid[:, 0], points=grid[:, 1:])
            rules.append(cls(**values))
        if i != len(lines):
            raise DataError(f"line {i + 1}: text after the last rule")
        return SRModel(
            k_arms=k_arms,
            sequential_rules=tuple(rules[: k_arms - 1]),
            reestimation_rules=tuple(rules[k_arms - 1 :]),
            scaling=ScalingParams(mins=bounds[:, 0], maxs=bounds[:, 1]),
            config=SRConfig(**config),
        )
    except (IndexError, KeyError, ValueError, DataError) as exc:
        raise DataError(f"{path}: truncated or malformed model file ({exc!r})") from None
