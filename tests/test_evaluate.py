"""Tests for evaluation metrics, CV tuning, and the benchmark runner."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from _oracles import cv_tune_per_sigma_gram
from conftest import make_subproblem
from ordinalsr.data import TrialDataset
from ordinalsr.evaluate import (
    METHOD_PRESETS,
    assignment_proportions,
    cv_tune,
    disagreement,
    evaluate_rule,
    itr_effect,
    misclassification,
    resolve_method,
    run_benchmark,
    summarize,
    value_estimate,
)
from ordinalsr import aol, evaluate, solvers, varselect
from ordinalsr.aol import build_subproblem, fit_aol_l1_linear, fit_aol_l2, fit_l2_from_gram
from ordinalsr.evaluate import (
    _holdout_score, _stratified_folds, _write_manifest, _write_rows_csv, _write_summary_csv,
)
from ordinalsr.exceptions import DataError, DegenerateStepError, UndefinedMetricError
from ordinalsr.kernels import KernelSpec, _squared_distances, gram_matrix, median_bandwidth
from ordinalsr.simgen import SETTINGS, generate, get_setting
from ordinalsr.sr import SIGMA_SCALES, SRConfig, _resolve_sigma_grid
from ordinalsr.varselect import ScreenResult, screen_mask


def _masked(monkeypatch, sub, screen):
    """screen_mask of sub under a stage-1 screen that returns screen."""
    monkeypatch.setattr(varselect, "screen_for_subproblem", lambda sub: screen)
    return screen_mask(sub)


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

    def test_itr_effect_rejects_a_prediction_of_the_wrong_length(self):
        data = _observational(np.array([True, False, True]), [1.0, 2.0, 3.0])
        with pytest.raises(DataError, match="length"):
            itr_effect(np.full(4, 2), data)

    @pytest.mark.parametrize(
        "bad",
        [[np.nan] * 4, [1.5, 2.0, 3.0, 1.0], ["1"] * 3 + ["x"], [np.inf, 1, 1, 1],
         np.array([1, 3, 1, 1]) + 1j],
        ids=["nan", "fraction", "text", "inf", "complex"],
    )
    def test_misclassification_and_disagreement_take_only_whole_number_arms(self, bad):
        truth = np.array([1, 3, 1, 1])
        for metric in (misclassification, disagreement):
            with pytest.raises(DataError, match="arm"):
                metric(bad, truth)
            with pytest.raises(DataError, match="arm"):
                metric(truth, bad)
        # numeric text and floats of whole numbers are arms, as TrialDataset reads them
        assert misclassification(["1", "3", "3", "1"], truth) == 0.25
        assert disagreement(np.array([1.0, 3.0, 3.0, 1.0]), truth) == 0.5

    @pytest.mark.parametrize(
        "pred", [[0, 2, 2, 2], [2, 2, 4, 2], [20] * 4, [-1] * 4, [np.nan] * 4, [2.5] * 4],
        ids=["zero", "above-k", "ten-times", "negative", "nan", "fraction"],
    )
    def test_value_and_itr_effect_take_only_arms_in_1_to_k(self, pred):
        data = _observational(np.array([True, True, False, False]), [4.0, 6.0, 1.0, 3.0])
        for metric in (value_estimate, itr_effect):
            with pytest.raises(DataError, match="arm"):
                metric(pred, data)

    def test_assignment_proportions(self):
        assert assignment_proportions([1, 3, 3, 2], 3) == (0.25, 0.25, 0.5)
        assert assignment_proportions(np.array([2.0, 2.0]), 4) == (0.0, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "pred, k_arms",
        [([], 3), ([0, 1, 2], 3), ([5, 1, 2], 3), ([-1, 1, 2], 3), ([1.5, 2.0], 3), (["a"], 3),
         ([[1, 2], [2, 3]], 3), ([np.nan, 1.0], 3), ([1, 2], 2.5), ([1, 2], True), ([1, 2], "3")],
        ids=["empty", "zero", "above-k", "negative", "fraction", "text", "matrix", "nan",
             "fractional-k", "bool-k", "text-k"],
    )
    def test_assignment_proportions_rejects_bad_arm_vectors(self, pred, k_arms):
        with pytest.raises(DataError):
            assignment_proportions(pred, k_arms)

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

    def test_ties_break_toward_larger_lambda_then_larger_sigma(self):
        """Zero outcomes score every grid point 0: the largest (lambda, sigma)
        wins, wherever it sits in the grids."""
        X = np.linspace(-1, 1, 24)[:, None]
        sub = make_subproblem(X, np.resize([1, -1], 24), np.ones(24))
        _, cv = cv_tune(sub, (0.1, 1.0, 0.01), sigma_grid=(0.5, 2.0, 1.0), folds=3, seed=0)
        assert {s for _, _, s in cv.table} == {0.0}
        assert (cv.best_lambda, cv.best_sigma) == (1.0, 2.0)


    def test_warm_started_table_matches_cold_reference(self, monkeypatch):
        data = generate(SETTINGS["N8"], 150, seed=5)
        sub = build_subproblem(data, data.features, (1,), (2, 3), np.arange(data.n))
        lambdas, sigmas, folds, seed = (0.01, 0.05, 0.25), (0.5, 1.0), 3, 2
        monkeypatch.setattr(aol, "CV_TOL", 1e-9)
        _, cv = cv_tune(sub, lambdas, sigma_grid=sigmas, folds=folds, seed=seed)
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


    def test_first_lambda_starts_from_the_previous_sigma(self, monkeypatch):
        """Each fold's first-lambda solve is cold at the first sigma and starts
        from that fold's first-lambda alpha at the previous sigma after it; the
        later lambdas walk the path, and the final refit is cold."""
        calls = []  # (init, alphas) of every solve, in order
        solve = aol._smo

        def spy(gram, labels, caps, tol=1e-5, init=None):
            sol = solve(gram, labels, caps, tol=tol, init=init)
            calls.append((None if init is None else np.array(init), sol.alphas, tol))
            return sol

        monkeypatch.setattr(aol, "_smo", spy)
        sub = self._n8_sub()
        lambdas, sigmas, folds = (0.01, 0.05, 0.25), (0.5, 1.0, 2.0), 3
        rule, cv = cv_tune(sub, lambdas, sigma_grid=sigmas, folds=folds, seed=2)
        assert len(calls) == len(sigmas) * folds * len(lambdas) + 1

        def call(s, f, k):  # the grid runs sigma, then fold, then lambda
            return calls[(s * folds + f) * len(lambdas) + k]

        for s in range(len(sigmas)):
            for f in range(folds):
                init = call(s, f, 0)[0]
                if s == 0:
                    assert init is None
                else:
                    np.testing.assert_array_equal(init, call(s - 1, f, 0)[1])
                for k in range(1, len(lambdas)):
                    np.testing.assert_array_equal(
                        call(s, f, k)[0], call(s, f, k - 1)[1] * (lambdas[k - 1] / lambdas[k])
                    )
        refit_init, _, refit_tol = calls[-1]
        assert refit_init is None and refit_tol == 1e-5
        direct = fit_aol_l2(sub, KernelSpec("gaussian", cv.best_sigma), cv.best_lambda)
        for name in ("points", "coefs", "intercept"):
            np.testing.assert_array_equal(getattr(rule, name), getattr(direct, name))

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

    def test_each_l1_step_builds_one_lp_and_starts_cold_once(self, monkeypatch):
        """One dual LP per step; each fold solves the whole grid on it, fold 0
        from one cold start, every later fold starting each lambda from the
        previous fold's basis at that lambda; the refit starts from the last
        fold's basis at the chosen lambda."""
        builds, calls, solves = [], [], []

        def build(*args):
            builds.append(lp_class(*args))
            return builds[-1]

        def path(lp, weights, lambdas):
            result = l1_path(lp, weights, lambdas)
            finals = [lp.starts[lam][0].tolist() for lam in lambdas]
            calls.append((lp, weights, tuple(lambdas), finals))
            return result

        def engine(*args):
            solves.append(args[4].copy())  # the start basis
            return pivot_loop(*args)

        lp_class, l1_path = evaluate._L1DualLP, aol._l1_path
        pivot_loop = solvers._simplex_pivots
        monkeypatch.setattr(evaluate, "_L1DualLP", build)
        monkeypatch.setattr(aol, "_l1_path", path)
        monkeypatch.setattr(solvers, "_simplex_pivots", engine)
        sub = self._n8_sub()
        lambdas = (0.25, 0.01, 0.05)
        _, cv = cv_tune(sub, lambdas, folds=4, seed=3, penalty="l1linear")
        assert len(builds) == 1 and all(call[0] is builds[0] for call in calls)
        assert [call[2] for call in calls] == [lambdas] * 4 + [(cv.best_lambda,)]
        k = lambdas.index(cv.best_lambda)
        np.testing.assert_array_equal(calls[4][1], sub.weights)
        # one solve per lambda and fold and one for the refit: no cold re-solve,
        # and only the first starts at the cold basis of its rows; every later
        # fold's solve starts at the previous fold's final basis at its lambda
        assert len(solves) == 4 * len(lambdas) + 1
        slacks = builds[0].y.size + np.arange(2 * sub.p)
        cold = [np.append(np.flatnonzero(call[1])[0], slacks).tolist() for call in calls]
        starts = [basis.tolist() for basis in solves]
        assert starts[0] == cold[0]
        assert all(basis not in cold for basis in starts[1:])
        finals = [call[3] for call in calls]
        for f in range(1, 4):
            assert starts[3 * f : 3 * f + 3] == finals[f - 1]
        assert starts[12] == finals[3][k]

    def test_l1_rejects_a_sigma_grid(self):
        """The L1 rule is linear: a sigma grid other than (None,) is a DataError,
        not a fold loop per sigma that reports a sigma it never used."""
        sub = self._n8_sub()
        for sigmas in ((0.5, 1.0), (None, 1.0), (0.5,)):
            with pytest.raises(DataError, match="sigma"):
                cv_tune(sub, (0.05,), sigma_grid=sigmas, folds=3, penalty="l1linear")
        _, cv = cv_tune(sub, (0.05,), sigma_grid=[None], folds=3, penalty="l1linear")
        assert cv.best_sigma is None

    @pytest.mark.parametrize(
        "kwargs",
        [{"folds": 2.5}, {"folds": 1}, {"folds": 0}, {"folds": True}, {"folds": "5"},
         {"seed": 1.5}, {"seed": -1}, {"seed": None}],
        ids=["fractional-folds", "one-fold", "no-folds", "bool-folds", "text-folds",
             "fractional-seed", "negative-seed", "no-seed"],
    )
    def test_folds_and_seed_are_checked(self, rng, kwargs):
        """Not a raw TypeError or ValueError, nor a DegenerateStepError that
        _fit_step would turn into a constant rule without a word."""
        (name,) = kwargs
        with pytest.raises(DataError, match=f"{name} must be an integer"):
            cv_tune(self._linear_sub(rng), (0.1,), **kwargs)
        _, cv = cv_tune(self._linear_sub(rng), (0.1,), folds=np.int64(3), seed=np.uint8(2))
        assert cv.folds == 3

    @pytest.mark.parametrize("m, folds", [(4, 2), (6, 3), (9, 4), (10, 5), (40, 5)])
    def test_fold_count_is_capped_at_half_the_rows(self, m, folds):
        """A step of fewer than 2 * folds rows runs m // 2 folds, and
        CVResult.folds records the count the folds settled on."""
        sub = make_subproblem(np.linspace(-1, 1, m)[:, None], np.resize([1, -1], m), np.ones(m))
        _, cv = cv_tune(sub, (0.1,), folds=5, seed=0)
        assert cv.folds == folds
        assert _stratified_folds(sub.labels, sub.weights, 5, 0)[1] == folds

    def test_fewer_than_four_rows_have_no_folds(self):
        sub = make_subproblem(np.linspace(-1, 1, 3)[:, None], [1, -1, 1], np.ones(3))
        with pytest.raises(DegenerateStepError, match="two-class CV folds"):
            cv_tune(sub, (0.1,), folds=5, seed=0)

    def test_empty_grid_raises_data_error(self, rng):
        sub = self._linear_sub(rng)
        with pytest.raises(DataError, match="non-empty"):
            cv_tune(sub, lambda_grid=())
        with pytest.raises(DataError, match="non-empty"):
            cv_tune(sub, (0.1,), sigma_grid=())

    BAD_LAMBDAS = {"negative": (-0.1,), "zero": (0.0,), "text": ("a",), "nested": ([0.1],),
                   "bool": (True,), "nan": (np.nan,), "inf": (0.1, np.inf), "scalar": 0.1}

    @pytest.mark.parametrize(
        "fitter, lambdas, sigma",
        [pytest.param(fitter, lambdas, None, id=f"{fitter}-{name}")
         for name, lambdas in BAD_LAMBDAS.items() for fitter in ("linear", "gaussian", "l1")]
        + [pytest.param("gaussian", (0.1,), "x", id="gaussian-text-sigma"),
           pytest.param("gaussian", (0.1,), True, id="gaussian-bool-sigma")],
    )
    def test_malformed_grid_raises_before_any_fold(self, monkeypatch, fitter, lambdas, sigma):
        """DataError before any fold is drawn, not a ConvergenceError after 50
        interior-point iterations (lambda <= 0), a raw TypeError or ValueError,
        or a fit at lambda = 1 (True)."""
        calls = []
        for module, name in ((evaluate, "_stratified_folds"), (aol, "_smo"),
                             (aol, "_linear_svm_ipm"), (aol, "_l1_path")):
            monkeypatch.setattr(module, name, lambda *a, _n=name, **k: calls.append(_n))
        sigmas = {"linear": (None,), "gaussian": (0.5 if sigma is None else sigma,),
                  "l1": (None,)}[fitter]
        penalty = "l1linear" if fitter == "l1" else "l2"
        with pytest.raises(DataError, match="lambda" if sigma is None else "bandwidth"):
            cv_tune(self._n8_sub(), lambdas, sigma_grid=sigmas, folds=3, penalty=penalty)
        assert calls == []

    @staticmethod
    def _n8_sub():
        data = generate(SETTINGS["N8"], 150, seed=5)
        return build_subproblem(data, data.features, (1,), (2, 3), np.arange(data.n))

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

    def test_screened_step_rule_carries_selection(self, monkeypatch):
        sub = _masked(monkeypatch, self._n8_sub(), ScreenResult(((0,),), (0,), ()))
        rule, cv = cv_tune(sub, (0.05,), sigma_grid=(0.5,), folds=3, seed=2)
        assert (rule.selected_features, rule.selection_fallback) == ((0,), False)
        probe = np.zeros((2, sub.p))
        probe[1, 1] = 0.9  # a masked covariate
        assert rule.decision_value(probe)[0] == rule.decision_value(probe)[1]


class TestOneDistanceMatrix:
    """cv_tune derives every Gaussian Gram matrix of a step from one distance
    matrix in one buffer; the tables, choices and rules are bit for bit those
    of a new gram_matrix per sigma (tests/_oracles.cv_tune_per_sigma_gram)."""

    LAMBDAS = (0.01, 0.05, 0.25)

    @staticmethod
    def _n8_sub(n=150, seed=5, p=None):
        data = generate(get_setting("N8", p=p), n, seed=seed)
        return build_subproblem(data, data.features, (1,), (2, 3), np.arange(data.n))

    def _assert_bit_identical(self, sub, sigmas):
        rule, cv = cv_tune(sub, self.LAMBDAS, sigma_grid=sigmas, folds=3, seed=2)
        want, lam, sigma, table = cv_tune_per_sigma_gram(sub, self.LAMBDAS, sigmas, 3, 2)
        assert repr(cv.table) == repr(table)  # float reprs round-trip exactly
        assert (cv.best_lambda, cv.best_sigma) == (lam, sigma)
        assert type(rule) is type(want)
        for name in ("points", "coefs", "intercept", "slopes"):
            if hasattr(want, name):
                assert np.asarray(getattr(rule, name)).tobytes() == np.asarray(
                    getattr(want, name)).tobytes()
        X = np.random.default_rng(0).uniform(-1, 1, size=(500, sub.p))
        assert rule.decision_value(X).tobytes() == want.decision_value(X).tobytes()
        return cv

    @pytest.mark.parametrize(
        "sigmas",
        [(0.3, 0.6, 1.2), (1.2, 0.6, 0.3), (0.6, 0.6), (None, 0.6), (0.6, None)],
        ids=["increasing", "decreasing", "repeated", "linear-first", "linear-last"],
    )
    def test_explicit_grid(self, sigmas):
        self._assert_bit_identical(self._n8_sub(), sigmas)

    def test_the_winner_is_rebuilt_when_a_later_sigma_overwrote_it(self):
        """Both refit cases happen: the winner is the last sigma built, or not."""
        sub = self._n8_sub()
        last = [self._assert_bit_identical(sub, s).best_sigma == s[-1]
                for s in ((0.3, 0.6, 1.2), (1.2, 0.3, 0.6))]  # 0.6 wins both
        assert last == [False, True]

    def test_median_derived_grid(self, monkeypatch):
        """The sr path: one D2, the step's squared_distances computed once,
        gives the median bandwidth and every Gram matrix."""
        computed = []

        def spy(A, B, *args):
            computed.append(A.shape[0])
            return _squared_distances(A, B, *args)

        monkeypatch.setattr(aol, "_squared_distances", spy)
        sub = self._n8_sub(n=300, seed=8)
        grid = _resolve_sigma_grid(SRConfig(kernel_kind="gaussian"), sub, 4)
        med = median_bandwidth(sub.features, seed=4)
        assert repr(grid) == repr(tuple(s * med for s in SIGMA_SCALES))
        self._assert_bit_identical(sub, grid)
        assert computed == [sub.m]
        assert not sub.squared_distances.flags.writeable

    def test_zero_weight_rows(self):
        sub = self._n8_sub()
        sub = replace(sub, weights=np.where(np.arange(sub.m) % 7 == 0, 0.0, sub.weights))
        self._assert_bit_identical(sub, (0.3, 0.6, 1.2))

    def test_two_stage_masked_features(self, monkeypatch):
        sub = _masked(monkeypatch, self._n8_sub(p=6), ScreenResult(((0, 1),), (0, 1), ()))
        assert not sub.features[:, 2:].any()
        self._assert_bit_identical(sub, (0.3, 0.6, 1.2))

    def test_non_finite_gram_raises_before_any_solve(self, monkeypatch):
        """A 1e200 feature makes D2 NaN (inf - inf) and overflows the linear
        kernel's feature products, which the interior-point solve checks
        before its first step: DataError, and no SMO runs."""
        solves = []
        monkeypatch.setattr(aol, "_smo", lambda *args, **kwargs: solves.append(args))
        sub = self._n8_sub()
        features = sub.features.copy()
        features[3, 0] = 1e200
        sub = replace(sub, features=features)
        with np.errstate(over="ignore", invalid="ignore"):
            for sigmas in ((0.6,), (None,)):
                with pytest.raises(DataError, match="gram must be finite"):
                    cv_tune(sub, self.LAMBDAS, sigma_grid=sigmas, folds=3, seed=2)
            with pytest.raises(DataError, match="gram must be finite"):
                fit_aol_l2(sub, KernelSpec("gaussian", 0.6), 0.05)
        assert solves == []

    def test_peak_memory_holds_two_m_by_m_blocks(self):
        """D2 and the one Gram buffer, plus a fold's held-out rows of it while
        they are scored: folds solve on the Gram buffer itself, with no
        training block copied out of it (2.56 m x m blocks when one was).
        Holding a winner's Gram matrix beside a new one and its two distance
        blocks peaked above three m x m blocks."""
        sub = self._n8_sub(n=400, seed=3)
        assert sub.m == 400 and np.all(sub.weights > 0)
        tracemalloc.start()
        try:
            cv_tune(sub, self.LAMBDAS, sigma_grid=(0.3, 0.6, 1.2), folds=3, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * sub.m**2


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
        _write_rows_csv(rows, rows_path, 3)
        _write_summary_csv(summarize(rows), sum_path)
        _write_manifest(man_path, ["P1"], [60], 1, ["oracle"], 0, 200)
        for path in (rows_path, sum_path):
            text = path.read_text()
            assert "np.float64" not in text
        manifest = man_path.read_text()
        assert "effect_scale" in manifest
        assert "P1" in manifest

    @pytest.mark.parametrize(
        "replicates, jobs", [(0, 1), (1, "x"), (1, 2.5), (1, -3), (1, 0), (1, True)]
    )
    def test_replicate_validation(self, replicates, jobs):
        with pytest.raises(DataError):
            run_benchmark(["P1"], [50], replicates, ["oracle"], jobs=jobs)
