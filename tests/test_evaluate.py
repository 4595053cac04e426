"""Tests for evaluation metrics, CV tuning, and the benchmark runner."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import make_subproblem
from ordinalsr.data import TrialDataset
from ordinalsr.evaluate import (
    METHOD_PRESETS,
    cv_tune,
    disagreement,
    evaluate_rule,
    itr_effect,
    misclassification,
    resolve_method,
    run_benchmark,
    summarize,
    value_estimate,
    write_manifest,
    write_rows_csv,
    write_summary_csv,
)
from ordinalsr.aol import build_subproblem, fit_aol_l1_linear, fit_aol_l2, fit_l2_from_gram
from ordinalsr.evaluate import _holdout_score, _stratified_folds
from ordinalsr.exceptions import DataError, UndefinedMetricError
from ordinalsr.kernels import KernelSpec, gram_matrix
from ordinalsr.simgen import SETTINGS, generate
from ordinalsr.solvers import ols_fit
from ordinalsr.varselect import ScreenResult, screen_mask


def _observational(pred_match_mask, outcomes, k=3, prop=None):
    n = len(outcomes)
    treatment = np.where(pred_match_mask, 2, 1)
    return TrialDataset(
        features=np.zeros((n, 1)),
        treatment=treatment,
        outcome=np.asarray(outcomes, dtype=float),
        k_arms=k,
        propensity=prop,
    )


class TestMetrics:
    def test_misclassification_and_disagreement(self):
        pred = np.array([1, 2, 3, 1])
        truth = np.array([1, 3, 1, 1])
        assert misclassification(pred, truth) == pytest.approx(0.5)
        assert disagreement(pred, truth) == pytest.approx((0 + 1 + 2 + 0) / 4)

    def test_disagreement_at_least_misclassification(self, rng):
        pred = rng.integers(1, 4, size=50)
        truth = rng.integers(1, 4, size=50)
        assert disagreement(pred, truth) >= misclassification(pred, truth)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            misclassification(np.array([]), np.array([]))

    def test_value_is_matched_mean_under_uniform(self):
        mask = np.array([True, False, True, True])
        data = _observational(mask, [1.0, 99.0, 3.0, 5.0])
        pred = np.full(4, 2)
        assert value_estimate(pred, data) == pytest.approx(3.0, abs=1e-12)

    def test_value_undefined_with_no_matches(self):
        data = _observational(np.zeros(3, dtype=bool), [1.0, 2.0, 3.0])
        with pytest.raises(UndefinedMetricError):
            value_estimate(np.full(3, 2), data)

    def test_itr_effect_is_value_gap(self):
        mask = np.array([True, True, False, False])
        data = _observational(mask, [4.0, 6.0, 1.0, 3.0])
        pred = np.full(4, 2)
        assert itr_effect(pred, data) == pytest.approx(5.0 - 2.0)

    def test_itr_effect_undefined_when_all_match(self):
        data = _observational(np.ones(3, dtype=bool), [1.0, 2.0, 3.0])
        with pytest.raises(UndefinedMetricError):
            itr_effect(np.full(3, 2), data)

    def test_evaluate_rule_report(self):
        test = generate(SETTINGS["P1"], 500, seed=0)
        report = evaluate_rule(test.true_optimal, test)
        assert report.misclassification == 0.0
        assert report.disagreement == 0.0
        assert report.n_test == 500
        assert sum(report.assignment_proportions) == pytest.approx(1.0)

    def test_evaluate_rule_without_truth(self):
        test = generate(SETTINGS["P1"], 100, seed=0)
        blind = TrialDataset(
            features=test.features,
            treatment=test.treatment,
            outcome=test.outcome,
            k_arms=3,
        )
        report = evaluate_rule(np.full(100, 2), blind)
        assert report.misclassification is None
        assert report.disagreement is None


class TestCvTune:
    def _linear_sub(self, rng, n=80):
        X = rng.uniform(-1, 1, size=(n, 2))
        labels = np.where(X[:, 0] > 0, 1, -1)
        flip = rng.uniform(size=n) < 0.15
        labels = np.where(flip, -labels, labels)
        outcomes = rng.normal(size=n) + (labels == np.where(X[:, 0] > 0, 1, -1))
        sub = make_subproblem(X, labels, rng.uniform(0.5, 2.0, size=n))
        return sub

    def test_table_covers_grid(self, rng):
        sub = self._linear_sub(rng)
        _, cv = cv_tune(sub, lambda_grid=(0.01, 0.1), folds=3, seed=0)
        assert len(cv.table) == 2
        assert cv.best_lambda in (0.01, 0.1)
        assert cv.best_sigma is None

    def test_gaussian_grid_cross_product(self, rng):
        sub = self._linear_sub(rng)
        _, cv = cv_tune(
            sub, lambda_grid=(0.01, 0.1), sigma_grid=(0.5, 1.0), folds=3, seed=0
        )
        assert len(cv.table) == 4
        assert cv.best_sigma in (0.5, 1.0)

    def test_deterministic_under_seed(self, rng):
        sub = self._linear_sub(rng)
        _, cv1 = cv_tune(sub, lambda_grid=(0.01, 0.05, 0.25), folds=4, seed=3)
        _, cv2 = cv_tune(sub, lambda_grid=(0.01, 0.05, 0.25), folds=4, seed=3)
        assert cv1 == cv2

    def test_ties_break_toward_larger_lambda(self, rng):
        # constant-label holdouts give identical scores across the grid
        X = rng.uniform(-1, 1, size=(24, 1))
        labels = np.array([1, -1] * 12)
        sub = make_subproblem(X, labels, np.ones(24))
        _, cv = cv_tune(sub, lambda_grid=(0.01, 0.1, 1.0), folds=3, seed=0)
        scores = {lam: s for lam, _, s in cv.table}
        best_score = scores[cv.best_lambda]
        tied = [lam for lam, s in scores.items() if s == best_score]
        assert cv.best_lambda == max(tied)


    def test_warm_started_table_matches_cold_reference(self):
        data = generate(SETTINGS["N8"], 150, seed=5)
        sub = build_subproblem(
            data, (1,), (2, 3), np.arange(data.n), ols_fit(data.features, data.outcome)
        )
        lambdas, sigmas, folds, seed = (0.01, 0.05, 0.25), (0.5, 1.0), 3, 2
        _, cv = cv_tune(
            sub, lambdas, sigma_grid=sigmas, folds=folds, seed=seed, cv_tol=1e-9
        )
        assign, folds = _stratified_folds(sub.labels, sub.weights, folds, seed)
        reference = []
        for sigma in sigmas:
            K = gram_matrix(KernelSpec("gaussian", sigma), sub.features, sub.features)
            for lam in lambdas:
                scores = []
                for f in range(folds):
                    te = np.flatnonzero(assign == f)
                    tr = np.flatnonzero((assign != f) & (sub.weights > 0))
                    coefs, b0 = fit_l2_from_gram(
                        sub.labels[tr], sub.weights[tr], K[np.ix_(tr, tr)], lam, tol=1e-9
                    )
                    pred = np.where(K[np.ix_(te, tr)] @ coefs + b0 > 0, 1, -1)
                    scores.append(_holdout_score(pred, sub, te))
                reference.append((lam, sigma, float(np.mean(scores))))
        assert [row[:2] for row in cv.table] == [row[:2] for row in reference]
        np.testing.assert_allclose(
            [row[2] for row in cv.table], [row[2] for row in reference], rtol=0, atol=1e-9
        )


    def test_l1_table_matches_fits_on_fold_subproblems(self):
        """The L1 fold fits equal fit_aol_l1_linear on each fold's training rows."""
        sub = self._n8_sub()
        lambdas, folds, seed = (0.01, 0.05, 0.25), 3, 2
        _, cv = cv_tune(sub, lambdas, folds=folds, seed=seed, penalty="l1linear")
        assign, folds = _stratified_folds(sub.labels, sub.weights, folds, seed)
        reference = []
        for lam in lambdas:
            scores = []
            for f in range(folds):
                te = np.flatnonzero(assign == f)
                tr = np.flatnonzero(assign != f)
                train = make_subproblem(sub.features[tr], sub.labels[tr], sub.weights[tr])
                pred = fit_aol_l1_linear(train, lam).predict(sub.features[te])
                scores.append(_holdout_score(pred, sub, te))
            reference.append((lam, None, float(np.mean(scores))))
        assert list(cv.table) == reference

    def test_empty_grid_raises_data_error(self, rng):
        sub = self._linear_sub(rng)
        with pytest.raises(DataError, match="non-empty"):
            cv_tune(sub, lambda_grid=())
        with pytest.raises(DataError, match="non-empty"):
            cv_tune(sub, (0.1,), sigma_grid=())

    @staticmethod
    def _n8_sub():
        data = generate(SETTINGS["N8"], 150, seed=5)
        return build_subproblem(
            data, (1,), (2, 3), np.arange(data.n), ols_fit(data.features, data.outcome)
        )

    @pytest.mark.parametrize(
        "penalty, sigmas, zero_weights",
        [("l2", (None,), False), ("l2", (0.5, 1.0), False), ("l1linear", (None,), False),
         ("l2", (0.5, 1.0), True)],
        ids=["linear", "gaussian", "l1", "gaussian-zero-weights"],
    )
    def test_rule_is_the_fit_at_the_chosen_point(self, penalty, sigmas, zero_weights):
        """The returned rule is what the public fitter gives at the chosen
        lambda/sigma, also when some rows carry no weight."""
        sub = self._n8_sub()
        if zero_weights:
            sub = replace(sub, weights=np.where(np.arange(sub.m) % 7 == 0, 0.0, sub.weights))
        rule, cv = cv_tune(
            sub, (0.01, 0.05, 0.25), sigma_grid=sigmas, folds=3, seed=2, penalty=penalty
        )
        if penalty == "l1linear":
            direct = fit_aol_l1_linear(sub, cv.best_lambda)
        elif cv.best_sigma is None:
            direct = fit_aol_l2(sub, KernelSpec("linear"), cv.best_lambda)
        else:
            direct = fit_aol_l2(sub, KernelSpec("gaussian", cv.best_sigma), cv.best_lambda)
        assert type(rule) is type(direct)
        assert rule.selected_features == direct.selected_features
        X = np.random.default_rng(0).uniform(-1, 1, size=(2000, sub.p))
        np.testing.assert_array_equal(rule.predict(X), direct.predict(X))
        for name in ("intercept", "slopes", "coefs", "points"):
            if hasattr(direct, name):
                np.testing.assert_allclose(
                    getattr(rule, name), getattr(direct, name), rtol=0, atol=1e-8
                )

    def test_screened_step_rule_carries_selection(self):
        sub = screen_mask(self._n8_sub(), ScreenResult(((0,),), (0,), ()))
        rule, cv = cv_tune(sub, (0.05,), sigma_grid=(0.5,), folds=3, seed=2)
        assert (rule.selected_features, rule.selection_fallback) == ((0,), False)
        probe = np.zeros((2, sub.p))
        probe[1, 1] = 0.9  # a masked covariate
        assert rule.decision_value(probe)[0] == rule.decision_value(probe)[1]


class TestBenchmark:
    def test_presets_resolve(self):
        for name in METHOD_PRESETS:
            params = resolve_method(name)
            assert params == METHOD_PRESETS[name] and params is not METHOD_PRESETS[name]
        with pytest.raises(DataError):
            resolve_method("nope")

    def test_rows_sorted_and_reproducible(self):
        rows1, fails1 = run_benchmark(
            ["P1"], [80], 2, ["oracle", "sr-linear"], seed=7, test_size=300, jobs=1
        )
        rows2, _ = run_benchmark(
            ["P1"], [80], 2, ["oracle", "sr-linear"], seed=7, test_size=300, jobs=1
        )
        assert rows1 == rows2
        assert not fails1
        assert [r["method"] for r in rows1] == ["oracle", "oracle", "sr-linear", "sr-linear"]

    def test_process_pool_rows_match_serial_rows(self):
        """jobs > 1 runs the cells in a process pool, as the CLI does by default."""
        args = (["P1"], [80], 2, ["oracle", "sr-linear"])
        serial = run_benchmark(*args, seed=7, test_size=300, jobs=1)
        pooled = run_benchmark(*args, seed=7, test_size=300, jobs=2)
        assert pooled == serial

    def test_oracle_has_zero_misclassification(self):
        rows, _ = run_benchmark(["N8"], [50], 2, ["oracle"], seed=1, test_size=400, jobs=1)
        assert all(r["misclass"] == 0.0 for r in rows)

    def test_shared_test_set_within_cell(self):
        rows, _ = run_benchmark(
            ["P1"], [80], 1, ["oracle", "sr-linear"], seed=3, test_size=300, jobs=1
        )
        # both methods evaluated on the same draw: oracle value >= fitted value
        oracle = next(r for r in rows if r["method"] == "oracle")
        fitted = next(r for r in rows if r["method"] == "sr-linear")
        assert oracle["seed"] == fitted["seed"]

    def test_summarize_means(self):
        rows = [
            {"setting": "P1", "n": 80, "method": "m", "misclass": 0.1, "value": 4.0},
            {"setting": "P1", "n": 80, "method": "m", "misclass": 0.3, "value": 6.0},
        ]
        out = summarize(rows)
        assert len(out) == 1
        assert out[0]["misclass_mean"] == pytest.approx(0.2)
        assert out[0]["value_mean"] == pytest.approx(5.0)
        assert out[0]["replicates"] == 2

    def test_csv_writers_are_clean(self, tmp_path):
        rows, _ = run_benchmark(["P1"], [60], 1, ["oracle"], seed=0, test_size=200, jobs=1)
        rows_path = tmp_path / "rows.csv"
        sum_path = tmp_path / "summary.csv"
        man_path = tmp_path / "manifest.txt"
        write_rows_csv(rows, rows_path, 3)
        write_summary_csv(summarize(rows), sum_path)
        write_manifest(man_path, ["P1"], [60], 1, ["oracle"], 0, 200)
        for path in (rows_path, sum_path):
            text = path.read_text()
            assert "np.float64" not in text
        manifest = man_path.read_text()
        assert "effect_scale" in manifest
        assert "P1" in manifest

    def test_replicate_validation(self):
        with pytest.raises(DataError):
            run_benchmark(["P1"], [50], 0, ["oracle"])
