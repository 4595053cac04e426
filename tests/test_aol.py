"""Tests for binary subproblem construction and the weighted classifiers."""

import tracemalloc

import numpy as np
import pytest

import ordinalsr.aol as aol
from _oracles import decision_value_per_block, lambda_max
from conftest import make_subproblem
from ordinalsr.aol import (
    KernelExpansionRule,
    SparseLinearRule,
    build_subproblem,
    fit_aol_l1_linear,
    fit_aol_l2,
)
from ordinalsr.data import TrialDataset
from ordinalsr.exceptions import DataError, DegenerateStepError
from ordinalsr.kernels import KernelSpec, gram_matrix
from ordinalsr.solvers import ols_fit


class _ZeroModel:
    def predict(self, X):
        return np.zeros(np.atleast_2d(X).shape[0])


@pytest.fixture
def zero_residual_model(monkeypatch):
    """build_subproblem's residual model predicts 0, so that e = Y."""
    monkeypatch.setattr(aol, "ols_fit", lambda X, y: _ZeroModel())


@pytest.fixture
def any_step_size(monkeypatch):
    monkeypatch.setattr(aol, "MIN_STEP_SIZE", 1)


def _trial(outcomes, treatments, k=3, features=None):
    n = len(outcomes)
    if features is None:
        features = np.arange(n, dtype=float)[:, None]
    return TrialDataset(
        features=features,
        treatment=np.asarray(treatments),
        outcome=np.asarray(outcomes, dtype=float),
        k_arms=k,
    )


def _build(data, negative_arms, positive_arms, eligible, **kwargs):
    return build_subproblem(data, data.features, negative_arms, positive_arms, eligible, **kwargs)


@pytest.mark.usefixtures("zero_residual_model")
class TestBuildSubproblem:
    @pytest.mark.usefixtures("any_step_size")
    def test_labels_flip_with_residual_sign(self):
        # residual model is zero, so e = Y; negative outcome flips the side
        data = _trial([2.0, -1.0, 3.0, -0.5], [1, 1, 2, 3])
        sub = _build(data, (1,), (2, 3), np.arange(4))
        np.testing.assert_array_equal(sub.arm_labels, [-1, -1, 1, 1])
        np.testing.assert_array_equal(sub.labels, [-1, 1, 1, -1])

    @pytest.mark.usefixtures("any_step_size")
    def test_zero_residual_counts_as_positive(self):
        data = _trial([0.0, 1.0], [1, 2])
        sub = _build(data, (1,), (2, 3), np.arange(2))
        assert sub.labels[0] == -1  # no flip at e == 0

    @pytest.mark.usefixtures("any_step_size")
    def test_known_propensity_uses_group_size(self):
        # uniform 1/3 per arm; the positive group {2, 3} has mass 2/3
        data = _trial([1.0, 1.0], [1, 2])
        sub = _build(data, (1,), (2, 3), np.arange(2))
        np.testing.assert_allclose(sub.propensities, [1.0 / 3.0, 2.0 / 3.0])
        np.testing.assert_allclose(sub.weights, [3.0, 1.5])

    @pytest.mark.usefixtures("any_step_size")
    def test_weights_are_abs_residual_over_propensity(self):
        data = _trial([-2.0, 4.0], [1, 2])
        sub = _build(data, (1,), (2, 3), np.arange(2))
        np.testing.assert_allclose(sub.weights, [2.0 * 3.0, 4.0 * 1.5])

    def test_propensity_floor(self):
        n = 30
        data = TrialDataset(
            features=np.linspace(-1, 1, n)[:, None],
            treatment=np.array([1, 2] * (n // 2)),
            outcome=np.ones(n),
            k_arms=3,
            propensity=np.full(n, 0.001),
        )
        sub = _build(data, (1,), (2,), np.arange(n))
        assert np.all(sub.propensities >= 0.01)

    def test_logistic_propensity_mode(self):
        rng = np.random.default_rng(0)
        n = 200
        X = rng.uniform(-1, 1, size=(n, 1))
        arms = np.where(rng.uniform(size=n) < 0.7, 2, 1)  # 70 percent on side +1
        data = TrialDataset(features=X, treatment=arms, outcome=np.ones(n), k_arms=3)
        sub = _build(data, (1,), (2, 3), np.arange(n), propensity_mode="logistic")
        est = float(np.mean(sub.propensities[sub.arm_labels == 1]))
        assert est == pytest.approx(0.7, abs=0.08)

    def test_overlapping_groups_rejected(self):
        data = _trial([1.0, 1.0], [1, 2])
        with pytest.raises(DataError):
            _build(data, (1, 2), (2, 3), np.arange(2))

    def test_small_step_degenerate(self):
        data = _trial([1.0, 1.0], [1, 2])
        with pytest.raises(DegenerateStepError):
            _build(data, (1,), (2, 3), np.arange(2))

    @pytest.mark.parametrize("n, degenerate", [(9, True), (10, False)], ids=["n9", "n10"])
    def test_default_step_size_floor_is_ten(self, n, degenerate):
        """A step needs MIN_STEP_SIZE = 10 eligible subjects, the floor the
        cascade fits under."""
        assert aol.MIN_STEP_SIZE == 10
        data = _trial([1.0] * n, [1, 2] * (n // 2) + [3] * (n % 2))
        if degenerate:
            with pytest.raises(DegenerateStepError, match="only 9 eligible"):
                _build(data, (1,), (2, 3), np.arange(n))
        else:
            assert _build(data, (1,), (2, 3), np.arange(n)).m == n

    def test_single_arm_side_degenerate(self):
        data = _trial([1.0] * 12, [1] * 12)
        with pytest.raises(DegenerateStepError):
            _build(data, (1,), (2, 3), np.arange(12))

    @pytest.mark.parametrize(
        "eligible",
        [np.arange(12) + 0.7, np.arange(12.0), list(range(-12, 0)), np.arange(1, 13),
         [0, 1, 1] + list(range(3, 12)), np.ones(12, dtype=bool), [list(range(12))], 3],
        ids=["fractional", "whole-floats", "negative", "past-the-end", "repeated", "boolean",
             "matrix", "scalar"],
    )
    def test_eligible_must_be_distinct_row_indices(self, eligible):
        """Not truncated, wrapped, repeated or a raw IndexError: a DataError."""
        data = _trial([1.0] * 12, [1, 2] * 6)
        with pytest.raises(DataError, match="distinct integer indices in 0..11"):
            _build(data, (1,), (2, 3), eligible)

    def test_empty_or_unsigned_eligible_indices(self):
        data = _trial([1.0] * 12, [1, 2] * 6)
        for empty in ([], np.zeros(0, dtype=int)):
            with pytest.raises(DegenerateStepError, match="only 0 eligible"):
                _build(data, (1,), (2, 3), empty)
        assert _build(data, (1,), (2, 3), np.arange(12, dtype=np.uint8)).m == 12

    @pytest.mark.parametrize("shape", [(11, 1), (12,), (12, 1, 1)])
    def test_features_need_one_row_per_subject(self, shape):
        data = _trial([1.0] * 12, [1, 2] * 6)
        with pytest.raises(DataError, match="one row per subject"):
            build_subproblem(data, np.zeros(shape), (1,), (2, 3), np.arange(12))


def test_residuals_come_from_ols_on_the_eligible_rows(rng):
    """e = Y - m-hat(X), with m-hat the OLS fit of Y on the eligible rows of
    the features given, not of data.features nor of every subject."""
    n = 40
    data = _trial(rng.normal(size=n), rng.integers(1, 4, size=n),
                  features=rng.uniform(-1, 1, size=(n, 2)))
    scaled = 3.0 * data.features - 1.0
    eligible = np.flatnonzero(data.treatment != 3)[:25]
    sub = build_subproblem(data, scaled, (1,), (2,), eligible)
    X, y = scaled[eligible], data.outcome[eligible]
    e = y - ols_fit(X, y).predict(X)
    np.testing.assert_array_equal(sub.features, X)
    np.testing.assert_array_equal(sub.labels, sub.arm_labels * np.where(e >= 0, 1, -1))
    np.testing.assert_array_equal(sub.weights, np.abs(e) / sub.propensities)


class TestL2Fit:
    def test_separates_weighted_linear_data(self, rng):
        X = rng.uniform(-1, 1, size=(60, 2))
        labels = np.where(X[:, 0] > 0.1, 1, -1)
        sub = make_subproblem(X, labels, rng.uniform(0.5, 2.0, size=60))
        rule = fit_aol_l2(sub, KernelSpec("linear"), lam=0.01)
        assert np.mean(rule.predict(X) == labels) > 0.9

    def test_gaussian_kernel_fits_circle(self, rng):
        X = rng.uniform(-1, 1, size=(120, 2))
        labels = np.where(X[:, 0] ** 2 + X[:, 1] ** 2 > 0.5, 1, -1)
        sub = make_subproblem(X, labels, np.ones(120))
        rule = fit_aol_l2(sub, KernelSpec("gaussian", 0.5), lam=0.01)
        assert np.mean(rule.predict(X) == labels) > 0.9

    def test_gaussian_fit_leaves_no_distances_on_the_step(self, rng):
        """The fit's m x m squared distances die with the call, and a step that
        cached them already gets the same rule bit for bit."""
        X = rng.uniform(-1, 1, size=(80, 2))
        labels = np.where(X[:, 0] ** 2 + X[:, 1] ** 2 > 0.5, 1, -1)
        sub = make_subproblem(X, labels, rng.uniform(0.5, 2.0, size=80))
        rule = fit_aol_l2(sub, KernelSpec("gaussian", 0.5), lam=0.05)
        assert "squared_distances" not in vars(sub)
        sub.squared_distances
        again = fit_aol_l2(sub, KernelSpec("gaussian", 0.5), lam=0.05)
        assert again.coefs.tobytes() == rule.coefs.tobytes()
        assert again.points.tobytes() == rule.points.tobytes()
        assert again.intercept == rule.intercept

    def test_zero_weight_rows_do_not_matter(self, rng):
        X = rng.uniform(-1, 1, size=(40, 2))
        labels = np.where(X[:, 0] + X[:, 1] > 0, 1, -1)
        w = rng.uniform(0.5, 1.5, size=40)
        sub = make_subproblem(X, labels, w)
        rule = fit_aol_l2(sub, KernelSpec("linear"), lam=0.05)
        # append adversarial rows carrying zero weight
        X2 = np.vstack([X, -X[:5]])
        labels2 = np.concatenate([labels, labels[:5]])
        w2 = np.concatenate([w, np.zeros(5)])
        sub2 = make_subproblem(X2, labels2, w2)
        rule2 = fit_aol_l2(sub2, KernelSpec("linear"), lam=0.05)
        assert rule2.intercept == pytest.approx(rule.intercept, abs=1e-8)
        np.testing.assert_allclose(rule2.slopes, rule.slopes, atol=1e-8)

    def test_heavier_weights_win_conflicts(self):
        # two coincident points with opposite labels: prediction follows weight
        X = np.array([[0.5, 0.0], [0.5, 0.0], [-0.5, 0.0], [-0.5, 0.0]])
        labels = np.array([1, -1, -1, 1])
        rule = fit_aol_l2(
            make_subproblem(X, labels, np.array([5.0, 0.5, 5.0, 0.5])),
            KernelSpec("linear"),
            lam=0.01,
        )
        np.testing.assert_array_equal(rule.predict([[0.5, 0.0], [-0.5, 0.0]]), [1, -1])

    def test_single_class_after_weighting_degenerate(self):
        X = np.arange(6, dtype=float)[:, None]
        labels = np.array([1, 1, 1, -1, -1, -1])
        w = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        with pytest.raises(DegenerateStepError):
            fit_aol_l2(make_subproblem(X, labels, w), KernelSpec("linear"), lam=0.1)


@pytest.mark.parametrize("lam", ["0.1", None, True, np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize(
    "fit", [lambda sub, lam: fit_aol_l2(sub, KernelSpec("linear"), lam), fit_aol_l1_linear],
    ids=["l2", "l1"],
)
def test_invalid_lambda_raises_before_any_solver(monkeypatch, fit, lam):
    def unreachable(*args, **kwargs):
        raise AssertionError("a solver ran with an invalid lambda")

    for name in ("_smo", "_linear_svm_ipm", "_l1_path"):
        monkeypatch.setattr(aol, name, unreachable)
    sub = make_subproblem(np.arange(6.0)[:, None], [1, -1, 1, -1, 1, -1], np.ones(6))
    with pytest.raises(DataError, match="lam"):
        fit(sub, lam)


class TestL1Fit:
    # Frozen reference: six points, lam = 0.1; optimum derived independently
    # with an interior-point solver (objective 17/30, slope on x2 exactly 0).
    FROZEN_X = np.array(
        [[0.2, -1.0], [-0.4, 0.3], [1.1, 0.5], [-0.9, -0.2], [0.3, 0.7], [0.6, -0.6]]
    )
    FROZEN_LABELS = np.array([1, -1, 1, -1, 1, -1])
    FROZEN_WEIGHTS = np.array([0.5, 1.2, 0.8, 0.3, 1.0, 0.7])
    FROZEN_OBJECTIVE = 17.0 / 30.0

    def _objective(self, rule, X, labels, weights, lam):
        f = rule.decision_value(X)
        hinge = np.maximum(0.0, 1.0 - labels * f)
        return float(np.mean(weights * hinge) + lam * np.sum(np.abs(rule.slopes)))

    def test_frozen_instance(self):
        sub = make_subproblem(self.FROZEN_X, self.FROZEN_LABELS, self.FROZEN_WEIGHTS)
        rule = fit_aol_l1_linear(sub, lam=0.1)
        obj = self._objective(
            rule, self.FROZEN_X, self.FROZEN_LABELS, self.FROZEN_WEIGHTS, 0.1
        )
        assert obj == pytest.approx(self.FROZEN_OBJECTIVE, abs=1e-9)
        assert rule.slopes[1] == 0.0
        assert rule.selected_features == (0,)

    def test_sparsity_increases_with_lambda(self, rng):
        X = rng.uniform(-1, 1, size=(50, 4))
        labels = np.where(X[:, 0] - 0.5 * X[:, 1] > 0, 1, -1)
        sub = make_subproblem(X, labels, rng.uniform(0.5, 1.5, size=50))
        small = fit_aol_l1_linear(sub, lam=1e-3)
        big = fit_aol_l1_linear(sub, lam=0.2)
        assert np.sum(big.slopes != 0) <= np.sum(small.slopes != 0)

    def test_all_slopes_zero_at_lambda_max(self, rng):
        X = rng.uniform(-1, 1, size=(30, 3))
        labels = np.where(X[:, 0] > 0, 1, -1)
        sub = make_subproblem(X, labels, rng.uniform(0.5, 1.5, size=30))
        lmax = lambda_max(sub)
        rule = fit_aol_l1_linear(sub, lam=lmax * 1.001)
        np.testing.assert_array_equal(rule.slopes, 0.0)
        just_below = fit_aol_l1_linear(sub, lam=lmax * 0.5)
        assert np.any(just_below.slopes != 0)

    def test_zero_weight_rows_do_not_matter(self, rng):
        X = rng.uniform(-1, 1, size=(25, 2))
        labels = np.where(X[:, 0] > 0, 1, -1)
        w = rng.uniform(0.5, 1.5, size=25)
        r1 = fit_aol_l1_linear(make_subproblem(X, labels, w), lam=0.05)
        X2 = np.vstack([X, -X[:4]])
        labels2 = np.concatenate([labels, labels[:4]])
        w2 = np.concatenate([w, np.zeros(4)])
        r2 = fit_aol_l1_linear(make_subproblem(X2, labels2, w2), lam=0.05)
        obj1 = self._objective(r1, X, labels, w, 0.05)
        obj2 = self._objective(r2, X, labels, w, 0.05)
        assert obj2 == pytest.approx(obj1, abs=1e-9)


class TestRulePredictions:
    def test_tie_at_zero_goes_negative(self):
        from ordinalsr.aol import SparseLinearRule

        rule = SparseLinearRule(intercept=0.0, slopes=np.array([1.0]))
        np.testing.assert_array_equal(rule.predict([[0.0], [0.5], [-0.5]]), [-1, 1, -1])

    def test_kernel_rule_feature_mask(self):
        from ordinalsr.aol import KernelExpansionRule

        rule = KernelExpansionRule(
            points=np.array([[1.0, 0.0]]),
            coefs=np.array([1.0]),
            intercept=0.0,
            kernel=KernelSpec("gaussian", 1.0),
            n_features=2,
            selected_features=(0,),
        )
        # second coordinate is masked out, so it cannot change the value
        a = rule.decision_value([[1.0, 0.0]])[0]
        b = rule.decision_value([[1.0, 99.0]])[0]
        assert a == pytest.approx(b, abs=1e-12)

    def test_dimension_mismatch_raises(self):
        from ordinalsr.aol import SparseLinearRule

        rule = SparseLinearRule(intercept=0.0, slopes=np.array([1.0, 2.0]))
        with pytest.raises(DataError):
            rule.predict(np.zeros((2, 3)))


def _linear_kernel_rule(points=((1.0,),), coefs=(1.0,), intercept=0.0, n_features=1):
    return KernelExpansionRule(points, coefs, intercept, KernelSpec("linear"), n_features)


class TestRuleNumbers:
    """A fitted rule holds only what the model file can hold: finite real
    numbers, read as float arrays."""

    def test_sequences_are_read_as_float_arrays(self):
        linear = SparseLinearRule(0.0, [1.0, 2.0])
        np.testing.assert_array_equal(linear.decision_value([[1.0, 1.0]]), [3.0])
        np.testing.assert_array_equal(_linear_kernel_rule().decision_value([[2.0]]), [2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_numbers_rejected(self, bad):
        cases = [
            lambda: SparseLinearRule(bad, np.ones(5)),
            lambda: SparseLinearRule(0.0, [1.0, bad]),
            lambda: _linear_kernel_rule(points=[[bad]]),
            lambda: _linear_kernel_rule(coefs=[bad]),
            lambda: _linear_kernel_rule(intercept=bad),
        ]
        for case in cases:
            with pytest.raises(DataError, match="finite"):
                case()

    @pytest.mark.parametrize("intercept", ["0.5", True, None, np.array([0.5]), 1j])
    def test_intercept_must_be_a_real_number(self, intercept):
        with pytest.raises(DataError, match="intercept"):
            SparseLinearRule(intercept, np.ones(2))
        with pytest.raises(DataError, match="intercept"):
            _linear_kernel_rule(intercept=intercept)

    @pytest.mark.parametrize("n_features", [True, 1.0, "1", 0])
    def test_kernel_rule_feature_count_is_a_positive_integer(self, n_features):
        with pytest.raises(DataError, match="n_features"):
            _linear_kernel_rule(n_features=n_features)


class TestBlockedKernelDecision:
    """KernelExpansionRule.decision_value over row blocks of aol._BLOCK_BYTES."""

    @staticmethod
    def _points(rng, n_points, selected, p=3):
        """Uniform points, 0 outside the selected columns as a fitted rule's are."""
        points = rng.uniform(-1, 1, size=(n_points, p))
        if selected is not None:
            points[:, np.setdiff1d(np.arange(p), selected)] = 0.0
        return points

    @classmethod
    def _rule(cls, rng, n_points, selected=None):
        return KernelExpansionRule(
            points=cls._points(rng, n_points, selected),
            coefs=rng.normal(size=n_points),
            intercept=0.3,
            kernel=KernelSpec("gaussian", 0.7),
            n_features=3,
            selected_features=selected,
        )

    @staticmethod
    def _gram_rows(monkeypatch):
        """Row count of every block Gram matrix decision_value fills."""
        calls = []
        fill = aol._gram_into

        def spy(spec, A, B, out=None, cross=None):
            calls.append(A.shape[0])
            return fill(spec, A, B, out, cross)

        monkeypatch.setattr(aol, "_gram_into", spy)
        return calls

    @pytest.mark.parametrize(
        "block_rows, calls", [(1, [1] * 30), (7, [7, 7, 7, 7, 2]), (31, [30])]
    )
    @pytest.mark.parametrize("selected", [None, (0, 2)])
    def test_matches_one_shot_gram(self, monkeypatch, rng, block_rows, calls, selected):
        rule = self._rule(rng, 13, selected)
        X = rng.uniform(-1.5, 1.5, size=(30, 3))
        mask = np.isin(np.arange(3), rule.selected_features)
        want = rule.intercept + gram_matrix(rule.kernel, X * mask, rule.points) @ rule.coefs
        monkeypatch.setattr(aol, "_BLOCK_BYTES", 8 * 13 * block_rows)
        rows = self._gram_rows(monkeypatch)
        got = rule.decision_value(X)
        assert rows == calls
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(rule.predict(X), np.where(want > 0, 1, -1))

    def test_budget_below_one_row_still_takes_one_row(self, monkeypatch, rng):
        rule = self._rule(rng, 13)
        monkeypatch.setattr(aol, "_BLOCK_BYTES", 1)
        rows = self._gram_rows(monkeypatch)
        assert rule.decision_value(np.zeros((3, 3))).shape == (3,)
        assert rows == [1, 1, 1]

    def test_zero_points_give_the_intercept(self, monkeypatch, rng):
        rule = KernelExpansionRule(
            points=np.empty((0, 3)), coefs=np.empty(0), intercept=-0.25,
            kernel=KernelSpec("gaussian", 1.0), n_features=3,
        )
        rows = self._gram_rows(monkeypatch)
        np.testing.assert_array_equal(rule.decision_value(rng.normal(size=(5, 3))), -0.25)
        np.testing.assert_array_equal(rule.predict(rng.normal(size=(5, 3))), -1)
        assert rows == []

    @pytest.mark.parametrize("n_points", [0, 13])
    def test_zero_rows(self, monkeypatch, rng, n_points):
        rule = self._rule(rng, n_points)
        rows = self._gram_rows(monkeypatch)
        got = rule.decision_value(np.empty((0, 3)))
        assert got.shape == (0,) and got.dtype == float
        assert rule.predict(np.empty((0, 3))).shape == (0,)
        assert rows == []

    @pytest.mark.parametrize("block_rows, n_rows", [(7, 28), (7, 30), (64, 30), (1, 5)],
                             ids=["full-last", "partial-last", "one-partial", "one-row"])
    @pytest.mark.parametrize(
        "kernel, selected",
        [(KernelSpec("gaussian", 0.7), None), (KernelSpec("gaussian", 1.3), (0, 2)),
         (KernelSpec("linear"), None)],
        ids=["gaussian", "masked", "linear"],
    )
    def test_block_buffers_are_bit_identical_to_fresh_blocks(
        self, monkeypatch, rng, block_rows, n_rows, kernel, selected
    ):
        """Filling one pair of buffers gives the floats of a new gram_matrix per
        block, for full and partial last blocks."""
        rule = KernelExpansionRule(
            points=self._points(rng, 13, selected), coefs=rng.normal(size=13),
            intercept=0.3, kernel=kernel, n_features=3, selected_features=selected,
        )
        X = rng.uniform(-1.5, 1.5, size=(n_rows, 3))
        monkeypatch.setattr(aol, "_BLOCK_BYTES", 8 * 13 * block_rows)
        got = rule.decision_value(X)
        want = decision_value_per_block(rule, X, aol._BLOCK_BYTES)
        assert got.tobytes() == want.tobytes()

    def test_default_budget_is_bit_identical_to_fresh_blocks(self, rng):
        # 300 points: 218-row blocks, so 4000 rows end in a partial block
        rule = self._rule(rng, 300, (0, 1))
        X = rng.uniform(-1.5, 1.5, size=(4000, 3))
        want = decision_value_per_block(rule, X, aol._BLOCK_BYTES)
        assert rule.decision_value(X).tobytes() == want.tobytes()

    def test_peak_memory_is_bounded_by_the_block_budget(self, rng):
        # one-shot, 10k rows x 800 points held two 64 MB blocks at once
        rule = self._rule(rng, 800)
        X = rng.uniform(-1, 1, size=(10_000, 3))
        tracemalloc.start()
        try:
            out = rule.decision_value(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * aol._BLOCK_BYTES + out.nbytes

    def test_screened_rule_computes_in_its_selected_columns(self, rng):
        """3 of 20 columns: the call holds the block pair, the result and the
        rows' 3 selected columns, with no masked copy of all 20.  The slack
        holds _feature_rows' finiteness mask, a byte per entry, and later the
        sliced points and numpy's 128 KiB of broadcast buffers."""
        selected = (2, 7, 11)
        rule = KernelExpansionRule(
            points=self._points(rng, 300, selected, p=20), coefs=rng.normal(size=300),
            intercept=0.3, kernel=KernelSpec("gaussian", 0.7), n_features=20,
            selected_features=selected,
        )
        X = rng.uniform(-1, 1, size=(10_000, 20))
        tracemalloc.start()
        try:
            out = rule.decision_value(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns = X[:, list(selected)]
        assert peak < 2 * aol._BLOCK_BYTES + out.nbytes + columns.nbytes + X.size + 2**16
        mask = np.isin(np.arange(20), selected)
        want = rule.intercept + gram_matrix(rule.kernel, X * mask, rule.points) @ rule.coefs
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)

    def test_points_outside_the_selection_are_rejected(self, rng):
        points = self._points(rng, 4, (0, 2))
        points[1, 1] = 1e-300
        with pytest.raises(DataError, match="outside the selected features"):
            KernelExpansionRule(points=points, coefs=np.ones(4), intercept=0.0,
                                kernel=KernelSpec("gaussian", 1.0), n_features=3,
                                selected_features=(0, 2))
