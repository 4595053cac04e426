"""The sequential re-estimation cascade.

Fits K-1 sequential rules (arm k vs. everything more intensive) and K-2
re-estimation rules (arm k vs. k+1 on the refined subpopulation), then
ensembles the binary decisions into an ordinal assignment by walking the
decision tree: the first sequential step that settles on its own arm hands
the final call to the matching re-estimation rule.

A step learns from its eligible subjects.  S_k takes those that no earlier
S-rule settled (an in-sample decision of -1 at S_j settles a row on arm j)
and whose observed arm is k or higher, so S_1 takes everyone.  R_k takes
those that S_k settled and whose observed arm is k or k+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .aol import KernelExpansionRule, SparseLinearRule, _sign_tie_negative, build_subproblem
from .data import (
    ScalingParams, TrialDataset, _check_integer, _feature_rows, _read_text, apply_scaling,
    fit_scaling,
)
from .evaluate import cv_tune
from .exceptions import DataError, DegenerateStepError
from .kernels import MEDIAN_SUBSAMPLE_CAP, KernelSpec, _median_distance, median_bandwidth
from .solvers import _check_positive
from .varselect import screen_mask

__all__ = [
    "SRConfig",
    "SRModel",
    "ConstantRule",
    "fit_sr",
    "predict_ordinal",
    "save_model",
    "load_model",
]

DEFAULT_LAMBDA_GRID = (0.01, 0.05, 0.25)
SIGMA_SCALES = (0.5, 1.0, 2.0)  # multiples of the median bandwidth when sigma_grid is None


def _positive_grid(name, values):
    """values as a non-empty tuple of floats, each a finite positive number by
    cv_tune's rule (solvers._check_positive), else DataError."""
    try:
        grid = () if isinstance(values, str) else tuple(values)
    except TypeError:
        grid = ()
    if not grid:
        raise DataError(f"{name} must be a non-empty sequence of numbers, not {values!r}")
    for v in grid:
        _check_positive(f"{name} entry", v)
    return tuple(float(v) for v in grid)


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
    # None takes rows of any feature count; a fitted or loaded rule has its
    # model's (the model file does not store it)
    n_features: int = None

    def __post_init__(self):
        d = self.decision  # the model file holds an integer
        if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d not in (-1, 1):
            raise DataError(f"a constant rule decides -1 or 1, not {self.decision!r}")
        if not isinstance(self.reason, str) or "\n" in self.reason or "\r" in self.reason:
            # the model file keeps the reason on one line
            raise DataError(f"a constant rule's reason is one line of text, not {self.reason!r}")

    def decision_value(self, X):
        """The decision for each row; DataError unless X holds finite rows of n_features."""
        return self._decision_value(_feature_rows(X, self.n_features))

    def _decision_value(self, X):
        return np.full(X.shape[0], float(self.decision))

    def predict(self, X):
        return _sign_tie_negative(self.decision_value(X))


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
        # predict_ordinal hands the rules its checked rows of scaling.p features
        for rule in self.sequential_rules + self.reestimation_rules:
            if rule.n_features not in (None, self.scaling.p):
                raise DataError(
                    f"a rule over {rule.n_features} features in a model of {self.scaling.p}"
                )


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
    decision = 1 if mass_pos > mass_neg else -1
    return ConstantRule(decision=decision, reason=reason, n_features=data.p)


def _resolve_sigma_grid(config, sub, seed):
    """(None,), the config's grid or SIGMA_SCALES times the median bandwidth of
    sub's features: from sub.squared_distances, or median_bandwidth's
    subsample above MEDIAN_SUBSAMPLE_CAP rows; 1.0 when all rows are identical."""
    if config.kernel_kind != "gaussian":
        return (None,)
    if config.sigma_grid is not None:
        return config.sigma_grid
    try:
        if sub.m > MEDIAN_SUBSAMPLE_CAP:
            med = median_bandwidth(sub.features, seed=seed)
        else:
            med = _median_distance(sub.squared_distances)
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
        sub = build_subproblem(data, Xs, negative_arms, positive_arms, eligible,
                               propensity_mode=config.propensity_mode, step_id=step_id)
        if config.selection == "two-stage":
            sub = screen_mask(sub)
        return cv_tune(
            sub,
            lambda_grid=config.lambda_grid,
            sigma_grid=_resolve_sigma_grid(config, sub, seed),
            folds=config.cv_folds,
            seed=seed,
            penalty=config.penalty,
        )
    except DegenerateStepError as exc:
        return _majority_rule(data, eligible, negative_arms, positive_arms, str(exc)), None


def fit_sr(data: TrialDataset, config: SRConfig) -> SRModel:
    """Train the full cascade: K-1 sequential steps, then K-2 re-estimation
    steps, each on the eligible rows of the module docstring, read from one
    mask of the rows no S-rule has settled yet."""
    K = data.k_arms
    if K < 3:
        raise DataError("SR learning requires K >= 3 ordinal arms")
    observed = np.unique(data.treatment)
    missing = sorted(set(range(1, K + 1)) - set(observed.tolist()))
    if missing:
        raise DataError(f"arms never observed in the data: {missing}")
    scaling = fit_scaling(data)
    Xs = apply_scaling(scaling, data.features)
    t = data.treatment
    open_rows = np.ones(data.n, dtype=bool)  # rows no S-rule has settled yet
    seq_rules, re_rules, cv_trace, re_eligible = [], [], [], []
    for k in range(1, K):
        rule, cv = _fit_step(
            data,
            Xs,
            config,
            step_id=f"S{k}",
            negative_arms=(k,),
            positive_arms=tuple(range(k + 1, K + 1)),
            eligible=np.flatnonzero(open_rows & (t >= k)),
            seed=config.seed + k,
        )
        seq_rules.append(rule)
        cv_trace.append((f"S{k}", cv))
        settles = rule.predict(Xs) == -1
        open_rows &= ~settles
        re_eligible.append(np.flatnonzero(settles & ((t == k) | (t == k + 1))))
    for k in range(1, K - 1):
        rule, cv = _fit_step(
            data,
            Xs,
            config,
            step_id=f"R{k}",
            negative_arms=(k,),
            positive_arms=(k + 1,),
            eligible=re_eligible[k - 1],
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


def _decide(rule, X):
    """rule.predict(X) for rows predict_ordinal has checked, not checked again."""
    return _sign_tie_negative(rule._decision_value(X))


def predict_ordinal(model: SRModel, features) -> np.ndarray:
    """Ensemble the binary rules into arm assignments in 1..K.

    Accepts raw (unscaled) features; scaling stored in the model is applied
    first.  Each rule sees only the rows that reach it: S_k the rows no earlier
    S-rule settled, R_k the rows S_k settles, and S_{K-1} the rest.  With
    use_r_steps=False (ablation) a settled sequential step assigns its own arm
    directly and no R-rule runs.
    """
    # DataError on a wrong shape or a non-finite entry; the rules then take the
    # checked rows without checking them again
    Xs = apply_scaling(model.scaling, features)
    single = np.ndim(features) == 1
    n = Xs.shape[0]
    K = model.k_arms
    pred = np.zeros(n, dtype=int)
    rows = np.arange(n)  # rows no S-rule has settled yet
    for k in range(1, K - 1):
        settles = _decide(model.sequential_rules[k - 1], Xs[rows]) == -1
        settled, rows = rows[settles], rows[~settles]
        if model.config.use_r_steps:
            r_dec = _decide(model.reestimation_rules[k - 1], Xs[settled])
            pred[settled] = np.where(r_dec == -1, k, k + 1)
        else:
            pred[settled] = k
    last = _decide(model.sequential_rules[K - 2], Xs[rows])
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
            if cls is ConstantRule:
                values["n_features"] = len(bounds)
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
