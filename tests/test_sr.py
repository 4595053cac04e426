"""Tests for the sequential re-estimation cascade: eligibility, fitting,
ensembling, and the plain-text model format."""

import itertools
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordinalsr.evaluate as evaluate_module
from ordinalsr.aol import KernelExpansionRule, SparseLinearRule
from ordinalsr.data import ScalingParams, TrialDataset
from ordinalsr.exceptions import DataError, OrdinalSRError
from ordinalsr.kernels import KernelSpec, median_bandwidth
from ordinalsr.simgen import SETTINGS, generate, get_setting
from ordinalsr.sr import (
    _RETIRED_CONFIG,
    SIGMA_SCALES,
    ConstantRule,
    SRConfig,
    SRModel,
    eligibility_reestimation,
    eligibility_sequential,
    fit_sr,
    load_model,
    predict_ordinal,
    save_model,
    _majority_rule,
    _resolve_sigma_grid,
)


def _unit_scaling(p):
    return ScalingParams(mins=-np.ones(p), maxs=np.ones(p))


def _stub_model(k_arms, s_decisions, r_decisions, use_r_steps=True, config=None):
    """SRModel whose binary rules are constants; for ensembling logic tests."""
    return SRModel(
        k_arms=k_arms,
        sequential_rules=tuple(
            ConstantRule(decision=d, reason="stub") for d in s_decisions
        ),
        reestimation_rules=tuple(
            ConstantRule(decision=d, reason="stub") for d in r_decisions
        ),
        scaling=_unit_scaling(2),
        config=config or SRConfig(use_r_steps=use_r_steps),
    )


class TestEligibility:
    def test_first_sequential_step_includes_everyone(self):
        d = TrialDataset(
            features=np.zeros((5, 1)),
            treatment=np.array([1, 2, 3, 1, 2]),
            outcome=np.zeros(5),
            k_arms=3,
        )
        np.testing.assert_array_equal(eligibility_sequential(d, 1, {}), np.arange(5))

    def test_later_steps_drop_lower_arms_and_settled_subjects(self):
        d = TrialDataset(
            features=np.zeros((6, 1)),
            treatment=np.array([1, 2, 3, 2, 3, 1]),
            outcome=np.zeros(6),
            k_arms=3,
        )
        settled = {1: np.array([False, True, False, False, False, False])}
        elig = eligibility_sequential(d, 2, settled)
        # arm-1 subjects are out; subject 1 settled at step 1 and is out
        np.testing.assert_array_equal(elig, [2, 3, 4])

    def test_reestimation_needs_matching_arm_and_settled_prediction(self):
        d = TrialDataset(
            features=np.zeros((5, 1)),
            treatment=np.array([1, 2, 3, 2, 1]),
            outcome=np.zeros(5),
            k_arms=3,
        )
        sk = np.array([True, True, True, False, False])
        np.testing.assert_array_equal(eligibility_reestimation(d, 1, sk), [0, 1])


class TestEnsemblingStubs:
    def test_k3_settle_first_step(self):
        X = np.zeros((1, 2))
        # S1 settles (-1); R1 decides between arms 1 and 2
        assert predict_ordinal(_stub_model(3, (-1, 1), (-1,)), X)[0] == 1
        assert predict_ordinal(_stub_model(3, (-1, 1), (1,)), X)[0] == 2

    def test_k3_fall_through_to_last_step(self):
        X = np.zeros((1, 2))
        assert predict_ordinal(_stub_model(3, (1, -1), (1,)), X)[0] == 2
        assert predict_ordinal(_stub_model(3, (1, 1), (1,)), X)[0] == 3

    def test_ablation_assigns_settled_arm_directly(self):
        X = np.zeros((1, 2))
        model = _stub_model(3, (-1, 1), (1,), use_r_steps=False)
        assert predict_ordinal(model, X)[0] == 1  # R1 would have said 2

    def test_single_row_returns_scalar(self):
        model = _stub_model(3, (1, 1), (1,))
        assert predict_ordinal(model, np.zeros(2)) == 3

    def test_rule_count_validation(self):
        with pytest.raises(DataError):
            SRModel(
                k_arms=3,
                sequential_rules=(ConstantRule(1, "x"),),
                reestimation_rules=(),
                scaling=_unit_scaling(2),
                config=SRConfig(),
            )


class _SpyRule:
    """Decides row i of the routing inputs by decisions[i] (feature 0 holds i)
    and records the row indices of every call."""

    def __init__(self, decisions):
        self.decisions = np.asarray(decisions)
        self.received = []

    def predict(self, X):
        rows = np.asarray(X)[:, 0].astype(int)
        self.received.append(rows)
        return self.decisions[rows]


def _cascade(s, r, use_r_steps):
    """The SR decision tree for one row: S-decisions s, R-decisions r."""
    for k, sk in enumerate(s[:-1], start=1):
        if sk == -1:
            return k + (use_r_steps and r[k - 1] == 1)
    return len(s) + (s[-1] == 1)


class TestRouting:
    """Each rule sees only the rows that reach it; one row per combination of
    binary decisions, so every path through the cascade is taken."""

    @pytest.mark.parametrize("use_r_steps", [True, False])
    @pytest.mark.parametrize("k_arms", [3, 4])
    def test_rules_receive_only_the_rows_that_reach_them(self, k_arms, use_r_steps):
        combos = np.array(list(itertools.product((-1, 1), repeat=2 * k_arms - 3)))
        s_dec, r_dec = combos[:, : k_arms - 1], combos[:, k_arms - 1 :]
        s_rules = [_SpyRule(s_dec[:, j]) for j in range(k_arms - 1)]
        r_rules = [_SpyRule(r_dec[:, j]) for j in range(k_arms - 2)]
        model = SRModel(
            k_arms=k_arms,
            sequential_rules=tuple(s_rules),
            reestimation_rules=tuple(r_rules),
            scaling=_unit_scaling(2),
            config=SRConfig(use_r_steps=use_r_steps),
        )
        X = np.column_stack([np.arange(len(combos)), np.zeros(len(combos))])
        pred = predict_ordinal(model, X)

        want = [_cascade(s, r, use_r_steps) for s, r in zip(s_dec, r_dec)]
        np.testing.assert_array_equal(pred, want)
        assert pred.dtype.kind == "i"
        reaches = np.ones(len(combos), dtype=bool)  # not settled by an earlier S-rule
        for k in range(1, k_arms):
            (got,) = s_rules[k - 1].received
            np.testing.assert_array_equal(got, np.flatnonzero(reaches))
            if k < k_arms - 1:
                settles = reaches & (s_dec[:, k - 1] == -1)
                if use_r_steps:
                    (got,) = r_rules[k - 1].received
                    np.testing.assert_array_equal(got, np.flatnonzero(settles))
                else:
                    assert r_rules[k - 1].received == []
                reaches &= ~settles

    def test_zero_rows_give_an_empty_integer_array(self):
        model = _stub_model(3, (1, -1), (1,))
        pred = predict_ordinal(model, np.empty((0, 2)))
        assert pred.shape == (0,) and pred.dtype.kind == "i"


class TestFitSr:
    @pytest.fixture(scope="class")
    @staticmethod
    def p1_model():
        data = generate(SETTINGS["P1"], 200, seed=11)
        config = SRConfig(kernel_kind="linear", lambda_grid=(0.05,), seed=1)
        return data, fit_sr(data, config)

    def test_structure(self, p1_model):
        _, model = p1_model
        assert model.k_arms == 3
        assert len(model.sequential_rules) == 2
        assert len(model.reestimation_rules) == 1
        assert len(model.cv_trace) == 3

    def test_predictions_in_range_and_reasonable(self, p1_model):
        data, model = p1_model
        test = generate(SETTINGS["P1"], 2000, seed=99)
        pred = predict_ordinal(model, test.features)
        assert set(np.unique(pred)) <= {1, 2, 3}
        assert np.mean(pred != test.true_optimal) < 0.30

    def test_deterministic_refit(self, p1_model, tmp_path):
        data, model = p1_model
        again = fit_sr(data, model.config)
        p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        save_model(model, p1)
        save_model(again, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_k4_setting(self):
        data = generate(SETTINGS["P5"], 260, seed=5)
        model = fit_sr(data, SRConfig(lambda_grid=(0.05,)))
        assert len(model.sequential_rules) == 3
        assert len(model.reestimation_rules) == 2
        pred = predict_ordinal(model, data.features)
        assert set(np.unique(pred)) <= {1, 2, 3, 4}

    def test_requires_three_arms(self):
        d = TrialDataset(
            features=np.zeros((20, 1)),
            treatment=np.array([1, 2] * 10),
            outcome=np.zeros(20),
            k_arms=2,
        )
        with pytest.raises(DataError):
            fit_sr(d, SRConfig())

    def test_unobserved_arm_rejected(self):
        d = TrialDataset(
            features=np.random.default_rng(0).normal(size=(30, 1)),
            treatment=np.array([1, 3] * 15),
            outcome=np.zeros(30),
            k_arms=3,
        )
        with pytest.raises(DataError):
            fit_sr(d, SRConfig())

    def test_degenerate_steps_become_constant_rules(self):
        # nearly all mass on arm 1: later steps cannot be fit
        rng = np.random.default_rng(4)
        n = 60
        treatment = np.concatenate([np.full(n - 4, 1), [2, 2, 3, 3]])
        d = TrialDataset(
            features=rng.uniform(-1, 1, size=(n, 2)),
            treatment=treatment,
            outcome=rng.normal(size=n),
            k_arms=3,
        )
        model = fit_sr(d, SRConfig())
        assert any(
            isinstance(r, ConstantRule)
            for r in model.sequential_rules + model.reestimation_rules
        )
        pred = predict_ordinal(model, d.features)
        assert set(np.unique(pred)) <= {1, 2, 3}


class TestSigmaGrid:
    """The bandwidths a Gaussian step is tuned over."""

    def _features(self):
        return np.random.default_rng(3).uniform(-1, 1, size=(40, 3))

    def test_linear_kernel_has_no_bandwidth(self):
        assert _resolve_sigma_grid(SRConfig(), self._features(), seed=1) == (None,)

    def test_explicit_grid_is_used_as_given(self):
        config = SRConfig(kernel_kind="gaussian", sigma_grid=(0.3, 2.0))
        assert _resolve_sigma_grid(config, self._features(), seed=1) == (0.3, 2.0)

    def test_default_grid_scales_the_median_bandwidth(self):
        """sigma_grid=None tunes over the median bandwidth times 0.5, 1 and 2,
        the one value the retired sigma_scales line of older model files holds."""
        X = self._features()
        med = median_bandwidth(X, seed=4)
        grid = _resolve_sigma_grid(SRConfig(kernel_kind="gaussian"), X, seed=4)
        assert SIGMA_SCALES == (0.5, 1.0, 2.0)
        assert grid == (0.5 * med, med, 2.0 * med)
        assert "sigma_scales " + " ".join(map(str, SIGMA_SCALES)) in _RETIRED_CONFIG

    def test_identical_rows_fall_back_to_unit_median(self):
        grid = _resolve_sigma_grid(SRConfig(kernel_kind="gaussian"), np.ones((5, 2)), seed=0)
        assert grid == SIGMA_SCALES


class TestMajorityRule:
    """The constant rule a degenerate step falls back to."""

    def _trial(self, treatment, propensity=None):
        n = len(treatment)
        return TrialDataset(
            features=np.zeros((n, 1)),
            treatment=np.asarray(treatment),
            outcome=np.zeros(n),
            k_arms=3,
            propensity=None if propensity is None else np.asarray(propensity, dtype=float),
        )

    def test_inverse_propensity_mass_picks_the_side(self):
        # two arm-1 subjects at propensity 0.5 (mass 4) against one arm-2
        # subject at 0.1 (mass 10): the weighted majority is the positive side
        data = self._trial([1, 1, 2], propensity=[0.5, 0.5, 0.1])
        rule = _majority_rule(data, np.arange(3), (1,), (2,), "why")
        assert (rule.decision, rule.reason) == (1, "why")
        unweighted = _majority_rule(self._trial([1, 1, 2]), np.arange(3), (1,), (2,), "why")
        assert unweighted.decision == -1

    def test_tie_goes_to_the_less_intensive_side(self):
        rule = _majority_rule(self._trial([1, 2, 3]), np.arange(2), (1,), (2,), "tie")
        assert rule.decision == -1

    def test_empty_pool_falls_back_to_both_arm_groups(self):
        # no eligible subject: the pool is every subject in arm 1 or arms {2, 3}
        data = self._trial([1, 2, 3, 3])
        rule = _majority_rule(data, np.array([], dtype=int), (1,), (2, 3), "empty")
        assert rule.decision == 1
        assert _majority_rule(data, np.array([], dtype=int), (1, 2), (3,), "e").decision == -1


class TestInvariance:
    """The units and the order of the feature columns do not reach a prediction."""

    _N, _N_TEST = 80, 200

    def _predictions(self, spec, config, seed, transform):
        """Predictions of the fitted cascade on a test draw, both as drawn and
        after transform maps the train and test features."""
        train = generate(spec, self._N, seed)
        X_test = generate(spec, self._N_TEST, seed + 1).features
        mapped = replace(train, features=transform(train.features))
        return (predict_ordinal(fit_sr(train, config), X_test),
                predict_ordinal(fit_sr(mapped, config), transform(X_test)))

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([("P1", {}), ("P1", dict(selection="embedded")),
                         ("N8", dict(kernel_kind="gaussian"))]),
        st.integers(0, 10**6),
        st.lists(st.tuples(st.floats(0.01, 100.0), st.floats(-100.0, 100.0)),
                 min_size=5, max_size=5),
    )
    def test_positive_affine_map_of_each_feature(self, case, seed, maps):
        """min/max scaling undoes a positive affine map of each column."""
        setting, overrides = case
        spec = SETTINGS[setting]
        scale, shift = np.array(maps[: spec.p]).T
        plain, mapped = self._predictions(
            spec, SRConfig(seed=seed, **overrides), seed, lambda X: X * scale + shift
        )
        np.testing.assert_array_equal(mapped, plain)

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([dict(), dict(kernel_kind="gaussian"), dict(selection="embedded"),
                         dict(kernel_kind="gaussian", selection="two-stage")]),
        st.integers(0, 10**6),
        st.permutations(range(4)),
    )
    def test_column_permutation(self, overrides, seed, order):
        plain, permuted = self._predictions(
            get_setting("N8", p=4), SRConfig(seed=seed, **overrides), seed,
            lambda X: X[:, order],
        )
        np.testing.assert_array_equal(permuted, plain)


class TestConfigValidation:
    def test_bad_combinations_rejected(self):
        with pytest.raises(DataError):
            SRConfig(kernel_kind="gaussian", penalty="l1linear")
        with pytest.raises(DataError):
            SRConfig(kernel_kind="gaussian", selection="embedded")
        with pytest.raises(DataError):
            SRConfig(lambda_grid=())
        with pytest.raises(DataError):
            SRConfig(cv_folds=1)
        with pytest.raises(DataError):
            SRConfig(kernel_kind="cubic")

    @pytest.mark.parametrize("folds", [2.5, 3.0, "3", True, None])
    def test_non_integer_cv_folds_rejected(self, folds):
        with pytest.raises(DataError, match="cv_folds"):
            SRConfig(cv_folds=folds)

    def test_integer_cv_folds_accepted(self):
        assert SRConfig(cv_folds=np.int64(3)).cv_folds == 3

    @pytest.mark.parametrize("field", ["lambda_grid", "sigma_grid"])
    @pytest.mark.parametrize(
        "grid", [(-0.1,), (0.0,), (float("nan"),), (float("inf"),), (0.1, -1.0), ("x",), ()]
    )
    def test_grids_need_finite_positive_entries(self, field, grid):
        with pytest.raises(DataError, match=field):
            SRConfig(kernel_kind="gaussian", **{field: grid})

    def test_grids_become_float_tuples(self):
        config = SRConfig(lambda_grid=[1, 2], sigma_grid=[3])
        assert config.lambda_grid == (1.0, 2.0)
        assert config.sigma_grid == (3.0,)

    @pytest.mark.parametrize("field", ["propensity_mode"])
    def test_unknown_mode_strings_rejected(self, field):
        with pytest.raises(DataError, match="unknown"):
            SRConfig(**{field: "bogus"})

    @pytest.mark.parametrize(
        "field, value",
        [("seed", -5), ("seed", 1.5), ("seed", True), ("seed", "3"), ("use_r_steps", "no"),
         ("use_r_steps", 1), ("use_r_steps", None)],
    )
    def test_seed_and_r_steps_checked(self, field, value):
        with pytest.raises(DataError, match=field):
            SRConfig(**{field: value})

    def test_integer_seed_accepted(self):
        config = SRConfig(seed=np.int64(3), use_r_steps=False)
        assert (config.seed, config.use_r_steps) == (3, False)

    def test_fitter_resolution(self, monkeypatch):
        """The penalty alone picks the rule fitter inside cv_tune; a two-stage
        step is an L2 fit on masked features that carries the screen's selection."""
        calls = []
        for name in ("_fit_l2", "fit_aol_l1_linear"):
            fitter = getattr(evaluate_module, name)

            def recorded(*args, _name=name, _fitter=fitter, **kwargs):
                calls.append(_name)
                return _fitter(*args, **kwargs)

            monkeypatch.setattr(evaluate_module, name, recorded)
        data = generate(get_setting("N8", p=6), 120, seed=5)
        fast = dict(lambda_grid=(0.05,), cv_folds=2)
        # the fold fits of either penalty run inside cv_tune's one fold loop,
        # so each fitted step calls its rule fitter once, for the final fit
        cases = [
            (SRConfig(**fast), "_fit_l2"),
            (SRConfig(penalty="l1linear", **fast), "fit_aol_l1_linear"),
            (SRConfig(selection="embedded", **fast), "fit_aol_l1_linear"),
            (
                SRConfig(
                    kernel_kind="gaussian", selection="two-stage", sigma_grid=(0.6,), **fast
                ),
                "_fit_l2",
            ),
        ]
        for config, expected in cases:
            calls.clear()
            model = fit_sr(data, config)
            rules = model.sequential_rules + model.reestimation_rules
            fitted = [r for r in rules if not isinstance(r, ConstantRule)]
            assert fitted and calls == [expected] * len(fitted)
        screened = [r for r in fitted if not r.selection_fallback]
        assert screened and all(len(r.selected_features) < data.p for r in screened)

    def test_embedded_selection_records_the_l1_penalty(self, tmp_path):
        config = SRConfig(selection="embedded")
        assert config.penalty == "l1linear"
        assert SRConfig(selection="embedded", penalty="l2") == config
        path = tmp_path / "model.txt"
        save_model(_stub_model(3, (-1, 1), (1,), config=config), path)
        assert "penalty l1linear\n" in path.read_text()

    def test_l1_penalty_with_two_stage_selection_rejected(self):
        with pytest.raises(DataError, match="two-stage"):
            SRConfig(penalty="l1linear", selection="two-stage")


# A model file written before the residual_model, cv_criterion, sigma_scales
# and min_step_size options were removed: its config block still carries a line
# for each.
PARENT_FORMAT_MODEL = """\
ordinalsr-model v1
k_arms 3
config
kernel_kind gaussian
penalty l2
selection two-stage
lambda_grid 0.01 0.05
sigma_grid 0.7
sigma_scales 0.5 1.0 2.0
cv_folds 5
min_step_size 10
seed 7
residual_model ols
propensity_mode known
use_r_steps 1
cv_criterion value
end
scaling
-2.0 2.0
0.0 10.0
end
rule S1 sparse_linear
intercept 0.25
slopes 1.5 0.0
selected 0
fallback 0
end
rule S2 kernel_expansion
kernel gaussian 0.7
intercept -0.125
n_features 2
selected 0
fallback 0
point 1.0 0.5 0.0
point -0.75 -0.3 0.0
end
rule R1 constant
decision -1
reason R1: only 4 eligible subjects
end
"""

PARENT_FORMAT_ROWS = np.array(
    [[-2.0, 5.0], [-0.5, 1.0], [0.0, 0.0], [0.4, 9.0], [1.0, 3.0], [2.0, 10.0]]
)

# replacement tokens for the fuzz test: numbers at and past the edges, and
# words of the format in the wrong place
_FUZZ_TOKENS = st.sampled_from(
    ["", "0", "1", "-1", "2", "0.5", "-0.5", "1e308", "-1e308", "1e-320", "nan", "inf",
     "-inf", "99999999999", "x", "end", "rule", "S1", "R1", "point", "config", "scaling",
     "linear", "gaussian", "constant", "kernel_expansion"]
) | st.text(max_size=6)


@st.composite
def _mutated_model_files(draw):
    """PARENT_FORMAT_MODEL cut short, or with one line deleted, duplicated or
    with one token replaced."""
    text = PARENT_FORMAT_MODEL
    lines = text.splitlines(keepends=True)
    edit = draw(st.sampled_from(["truncate", "delete", "duplicate", "replace"]))
    if edit == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    i = draw(st.integers(0, len(lines) - 1))
    if edit == "delete":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    else:
        tokens = lines[i].rstrip("\n").split(" ")
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_FUZZ_TOKENS)
        lines[i] = " ".join(tokens) + "\n"
    return "".join(lines)


_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_nan=False)
_grid = st.lists(_positive, min_size=1, max_size=4).map(tuple)


@st.composite
def _sr_configs(draw):
    kernel_kind = draw(st.sampled_from(["linear", "gaussian"]))
    selections = ["none", "two-stage"] + (["embedded"] if kernel_kind == "linear" else [])
    selection = draw(st.sampled_from(selections))
    penalties = ["l2"] + (["l1linear"] if (kernel_kind, selection) == ("linear", "none") else [])
    return SRConfig(
        kernel_kind=kernel_kind,
        penalty=draw(st.sampled_from(penalties)),
        selection=selection,
        lambda_grid=draw(_grid),
        sigma_grid=draw(st.none() | _grid),
        cv_folds=draw(st.integers(2, 100)),
        seed=draw(st.integers(0, 2**63)),
        propensity_mode=draw(st.sampled_from(["known", "logistic"])),
        use_r_steps=draw(st.booleans()),
    )


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _random_rules(draw, p):
    """A rule of any kind over p features, with any selection it can carry."""
    kind = draw(st.sampled_from(["constant", "sparse_linear", "kernel_expansion"]))
    if kind == "constant":
        reason = draw(st.text(st.characters(codec="utf-8", exclude_characters="\r\n")))
        return ConstantRule(decision=draw(st.sampled_from([-1, 1])), reason=reason)
    selection = {}
    if draw(st.booleans()):
        selection = dict(
            selected_features=tuple(sorted(draw(st.sets(st.integers(0, p - 1))))),
            selection_fallback=draw(st.booleans()),
        )
    floats = lambda shape: np.array(draw(st.lists(_finite, min_size=int(np.prod(shape)),
                                                   max_size=int(np.prod(shape))))).reshape(shape)
    if kind == "sparse_linear":
        return SparseLinearRule(intercept=draw(_finite), slopes=floats((p,)), **selection)
    m = draw(st.integers(0, 4))
    kernel = draw(st.sampled_from([KernelSpec("linear")]) | st.builds(
        KernelSpec, st.just("gaussian"), st.floats(min_value=1e-150, max_value=1e150)
    ))
    return KernelExpansionRule(points=floats((m, p)), coefs=floats((m,)), intercept=draw(_finite),
                               kernel=kernel, n_features=p, **selection)


@st.composite
def _random_rule_models(draw):
    k_arms, p = draw(st.integers(3, 5)), draw(st.integers(1, 4))
    rules = [draw(_random_rules(p)) for _ in range(2 * k_arms - 3)]
    return SRModel(k_arms=k_arms, sequential_rules=tuple(rules[: k_arms - 1]),
                   reestimation_rules=tuple(rules[k_arms - 1 :]), scaling=_unit_scaling(p),
                   config=SRConfig())


class TestModelFile:
    @settings(max_examples=60, deadline=None)
    @given(_sr_configs())
    def test_every_config_field_round_trips(self, config):
        model = _stub_model(3, (-1, 1), (1,), config=config)
        with tempfile.TemporaryDirectory() as tmp:
            p1, p2 = Path(tmp) / "a.txt", Path(tmp) / "b.txt"
            save_model(model, p1)
            back = load_model(p1)
            save_model(back, p2)
            assert back.config == config
            assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(_random_rule_models())
    def test_random_rules_round_trip_bit_exact(self, model):
        with tempfile.TemporaryDirectory() as tmp:
            p1, p2 = Path(tmp) / "a.txt", Path(tmp) / "b.txt"
            save_model(model, p1)
            save_model(load_model(p1), p2)
            assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("reason", ["a\nb", "\r", "x\r\n", None])
    def test_reason_not_one_line_of_text_rejected(self, reason):
        with pytest.raises(DataError, match="one line of text"):
            ConstantRule(decision=1, reason=reason)

    def test_parent_format_file_loads_and_predicts(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(PARENT_FORMAT_MODEL)
        model = load_model(path)
        assert model.config == SRConfig(
            kernel_kind="gaussian",
            selection="two-stage",
            lambda_grid=(0.01, 0.05),
            sigma_grid=(0.7,),
            seed=7,
        )
        np.testing.assert_array_equal(
            predict_ordinal(model, PARENT_FORMAT_ROWS), [1, 1, 2, 3, 3, 3]
        )
        again = tmp_path / "again.txt"
        save_model(model, again)
        dropped = ("residual_model ols\n", "cv_criterion value\n", "sigma_scales 0.5 1.0 2.0\n",
                   "min_step_size 10\n")
        expected = "".join(
            line for line in PARENT_FORMAT_MODEL.splitlines(keepends=True)
            if line not in dropped
        )
        assert again.read_text() == expected

    @pytest.mark.parametrize(
        "old, new",
        [
            ("residual_model ols\n", "residual_model kernel_ridge\n"),
            ("cv_criterion value\n", "cv_criterion weighted_misclass\n"),
            ("min_step_size 10\n", "min_step_size 5\n"),
            ("sigma_scales 0.5 1.0 2.0\n", "sigma_scales 1.0\n"),
            ("seed 7\n", "seed 7\nbogus_key 1\n"),
            ("seed 7\n", "seed 7\nseed 8\n"),
            ("seed 7\n", ""),
            ("intercept 0.25\n", "intercept nan\n"),
            ("slopes 1.5 0.0\n", "slopes inf 0.0\n"),
            ("-2.0 2.0\n", "nan nan\n"),
            ("subjects\nend\n", "subjects\nend\njunk\n"),
            ("rule S1 sparse_linear\n", "rule S0 sparse_linear\n"),
            ("fallback 0\nend\nrule S2", "fallback 0\nbogus 1\nend\nrule S2"),
            ("intercept 0.25\n", "intercept 0.25\nintercept 0.25\n"),
            ("fallback 0\nend\nrule S2", "fallback 2\nend\nrule S2"),
            ("decision -1\n", "decision 0\n"),
        ],
        ids=["kernel_ridge", "weighted_misclass", "min_step_size_5", "sigma_scales_1",
             "unknown_key", "repeated_key", "missing_key", "nan_intercept", "inf_slope",
             "nan_scaling_row", "junk_after_last_rule", "tag_S0", "unknown_rule_key",
             "repeated_rule_key", "fallback_2", "decision_0"],
    )
    def test_retired_values_and_unknown_keys_raise_data_error(self, tmp_path, old, new):
        """Each edit of the parent-format file is malformed and raises DataError."""
        assert PARENT_FORMAT_MODEL.count(old) == 1
        path = tmp_path / "model.txt"
        path.write_text(PARENT_FORMAT_MODEL.replace(old, new))
        with pytest.raises(DataError):
            load_model(path)

    @settings(max_examples=400, deadline=None)
    @given(_mutated_model_files())
    def test_mutated_files_load_or_raise_typed_errors(self, text):
        """A damaged file either loads or raises an OrdinalSRError, and so does
        predicting with whatever loads."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.txt"
            path.write_bytes(text.encode("utf-8"))
            try:
                model = load_model(path)
            except OrdinalSRError:
                return
        try:
            with np.errstate(all="ignore"):  # edited numbers may overflow
                predict_ordinal(model, PARENT_FORMAT_ROWS)
        except OrdinalSRError:
            pass

    def _configs(self):
        return [
            SRConfig(kernel_kind="linear", lambda_grid=(0.05,), seed=2),
            SRConfig(
                kernel_kind="gaussian",
                lambda_grid=(0.05,),
                sigma_grid=(0.8,),
                seed=2,
            ),
            SRConfig(penalty="l1linear", selection="embedded", lambda_grid=(0.05,)),
        ]

    @pytest.mark.parametrize("idx", [0, 1, 2])
    def test_round_trip_preserves_predictions(self, tmp_path, idx):
        config = self._configs()[idx]
        data = generate(SETTINGS["P1"], 150, seed=21)
        model = fit_sr(data, config)
        path = tmp_path / "model.txt"
        save_model(model, path)
        back = load_model(path)
        test = generate(SETTINGS["P1"], 500, seed=77)
        np.testing.assert_array_equal(
            predict_ordinal(back, test.features), predict_ordinal(model, test.features)
        )

    def test_round_trip_byte_identical(self, tmp_path):
        data = generate(SETTINGS["N8"], 120, seed=8)
        model = fit_sr(
            data,
            SRConfig(kernel_kind="gaussian", lambda_grid=(0.05,), sigma_grid=(0.6,)),
        )
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert "np.float64" not in p1.read_text()

    def test_non_utf8_file_raises_data_error(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_bytes(b"ordinalsr-model v1\n\xff\xfe\n")
        with pytest.raises(DataError, match="UTF-8"):
            load_model(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a model\n")
        with pytest.raises(DataError):
            load_model(path)

    @pytest.mark.parametrize("cut", ["third", "half", "end-20"])
    def test_truncated_file_raises_data_error(self, tmp_path, cut):
        kernel = KernelSpec("gaussian", 0.7)
        model = SRModel(
            k_arms=3,
            sequential_rules=(
                SparseLinearRule(intercept=0.25, slopes=np.array([1.5, 0.0])),
                KernelExpansionRule(
                    points=np.array([[0.1, -0.2], [0.3, 0.4]]),
                    coefs=np.array([0.5, -0.5]),
                    intercept=-0.125,
                    kernel=kernel,
                    n_features=2,
                ),
            ),
            reestimation_rules=(ConstantRule(decision=1, reason="stub"),),
            scaling=_unit_scaling(2),
            config=SRConfig(kernel_kind="gaussian", sigma_grid=(0.7,)),
        )
        path = tmp_path / "model.txt"
        save_model(model, path)
        load_model(path)
        text = path.read_bytes()
        keep = {"third": len(text) // 3, "half": len(text) // 2, "end-20": len(text) - 20}
        path.write_bytes(text[: keep[cut]])
        with pytest.raises(DataError):
            load_model(path)

    def test_constant_rules_serialize(self, tmp_path):
        model = _stub_model(3, (-1, 1), (1,))
        path = tmp_path / "stub.txt"
        save_model(model, path)
        back = load_model(path)
        assert predict_ordinal(back, np.zeros((1, 2)))[0] == predict_ordinal(
            model, np.zeros((1, 2))
        )[0]
