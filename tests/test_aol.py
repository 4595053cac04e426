"""Tests for binary subproblem construction and the weighted classifiers."""

import tracemalloc

import numpy as np
import pytest

import ordinalsr.aol as aol
from _oracles import lambda_max
from conftest import make_subproblem
from ordinalsr.aol import (
    KernelExpansionRule,
    build_subproblem,
    fit_aol_l1_linear,
    fit_aol_l2,
)
from ordinalsr.data import TrialDataset
from ordinalsr.exceptions import DataError, DegenerateStepError
from ordinalsr.kernels import KernelSpec, gram_matrix


class _ZeroModel:
    def predict(self, X):
        return np.zeros(np.atleast_2d(X).shape[0])


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


class TestBuildSubproblem:
    def test_labels_flip_with_residual_sign(self):
        # residual model is zero, so e = Y; negative outcome flips the side
        data = _trial([2.0, -1.0, 3.0, -0.5], [1, 1, 2, 3])
        sub = build_subproblem(
            data, (1,), (2, 3), np.arange(4), _ZeroModel(), min_size=1
        )
        np.testing.assert_array_equal(sub.arm_labels, [-1, -1, 1, 1])
        np.testing.assert_array_equal(sub.labels, [-1, 1, 1, -1])

    def test_zero_residual_counts_as_positive(self):
        data = _trial([0.0, 1.0], [1, 2])
        sub = build_subproblem(data, (1,), (2, 3), np.arange(2), _ZeroModel(), min_size=1)
        assert sub.labels[0] == -1  # no flip at e == 0

    def test_known_propensity_uses_group_size(self):
        # uniform 1/3 per arm; the positive group {2, 3} has mass 2/3
        data = _trial([1.0, 1.0], [1, 2])
        sub = build_subproblem(data, (1,), (2, 3), np.arange(2), _ZeroModel(), min_size=1)
        np.testing.assert_allclose(sub.propensities, [1.0 / 3.0, 2.0 / 3.0])
        np.testing.assert_allclose(sub.weights, [3.0, 1.5])

    def test_weights_are_abs_residual_over_propensity(self):
        data = _trial([-2.0, 4.0], [1, 2])
        sub = build_subproblem(data, (1,), (2, 3), np.arange(2), _ZeroModel(), min_size=1)
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
        sub = build_subproblem(data, (1,), (2,), np.arange(n), _ZeroModel(), min_size=1)
        assert np.all(sub.propensities >= 0.01)

    def test_logistic_propensity_mode(self):
        rng = np.random.default_rng(0)
        n = 200
        X = rng.uniform(-1, 1, size=(n, 1))
        arms = np.where(rng.uniform(size=n) < 0.7, 2, 1)  # 70 percent on side +1
        data = TrialDataset(features=X, treatment=arms, outcome=np.ones(n), k_arms=3)
        sub = build_subproblem(
            data, (1,), (2, 3), np.arange(n), _ZeroModel(), propensity_mode="logistic"
        )
        est = float(np.mean(sub.propensities[sub.arm_labels == 1]))
        assert est == pytest.approx(0.7, abs=0.08)

    def test_overlapping_groups_rejected(self):
        data = _trial([1.0, 1.0], [1, 2])
        with pytest.raises(DataError):
            build_subproblem(data, (1, 2), (2, 3), np.arange(2), _ZeroModel())

    def test_small_step_degenerate(self):
        data = _trial([1.0, 1.0], [1, 2])
        with pytest.raises(DegenerateStepError):
            build_subproblem(data, (1,), (2, 3), np.arange(2), _ZeroModel(), min_size=10)

    @pytest.mark.parametrize("n, degenerate", [(9, True), (10, False)], ids=["n9", "n10"])
    def test_default_step_size_floor_is_ten(self, n, degenerate):
        """Without min_size, a step needs 10 eligible subjects, the floor the
        cascade fits under."""
        data = _trial([1.0] * n, [1, 2] * (n // 2) + [3] * (n % 2))
        if degenerate:
            with pytest.raises(DegenerateStepError, match="only 9 eligible"):
                build_subproblem(data, (1,), (2, 3), np.arange(n), _ZeroModel())
        else:
            assert build_subproblem(data, (1,), (2, 3), np.arange(n), _ZeroModel()).m == n

    def test_single_arm_side_degenerate(self):
        data = _trial([1.0] * 12, [1] * 12)
        with pytest.raises(DegenerateStepError):
            build_subproblem(data, (1,), (2, 3), np.arange(12), _ZeroModel(), min_size=5)


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

    for name in ("wsvm_dual_solve", "l1_hinge_dual_solve"):
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


class TestBlockedKernelDecision:
    """KernelExpansionRule.decision_value over row blocks of aol._BLOCK_BYTES."""

    @staticmethod
    def _rule(rng, n_points, selected=None):
        return KernelExpansionRule(
            points=rng.uniform(-1, 1, size=(n_points, 3)),
            coefs=rng.normal(size=n_points),
            intercept=0.3,
            kernel=KernelSpec("gaussian", 0.7),
            n_features=3,
            selected_features=selected,
        )

    @staticmethod
    def _gram_rows(monkeypatch):
        """Row count of every gram_matrix call decision_value makes."""
        calls = []

        def spy(spec, A, B):
            calls.append(A.shape[0])
            return gram_matrix(spec, A, B)

        monkeypatch.setattr(aol, "gram_matrix", spy)
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
