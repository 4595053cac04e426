"""Tests for stepwise screening and the two-stage kernel fit."""

import numpy as np
import pytest

import _oracles
from conftest import make_subproblem
from ordinalsr import varselect
from ordinalsr.exceptions import DataError
from ordinalsr.kernels import KernelSpec
from ordinalsr.simgen import generate, get_setting
from ordinalsr.varselect import (
    expand_second_order,
    fit_two_stage,
    mask_features,
    screen_for_subproblem,
    screen_mask,
    screen_stepwise,
)


class TestExpandSecondOrder:
    def test_column_count_and_descriptors(self):
        X = np.arange(6.0).reshape(2, 3)
        aug, desc = expand_second_order(X)
        # p first-order + p*(p+1)/2 second-order columns
        assert aug.shape == (2, 3 + 6)
        assert desc[:3] == ((0,), (1,), (2,))
        assert desc[3:] == ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

    def test_columns_are_products(self):
        X = np.array([[2.0, 3.0]])
        aug, desc = expand_second_order(X)
        np.testing.assert_allclose(aug[0], [2.0, 3.0, 4.0, 6.0, 9.0])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            expand_second_order(np.zeros((2, 0)))

    def test_columns_bit_equal_to_pairwise_loop(self, rng):
        X = rng.normal(size=(50, 7)) * np.logspace(-3, 3, 7)
        aug, desc = expand_second_order(X)
        second, loop_desc = [], [(j,) for j in range(7)]
        for j in range(7):
            for k in range(j, 7):
                second.append(X[:, j] * X[:, k])
                loop_desc.append((j, k))
        assert desc == tuple(loop_desc)
        assert np.array_equal(aug, np.column_stack([X, np.column_stack(second)]))


class TestScreenStepwise:
    def test_recovers_linear_signal(self, rng):
        n = 300
        X = rng.uniform(-1, 1, size=(n, 6))
        y = (X[:, 2] - 0.5 * X[:, 4] + 0.1 * rng.normal(size=n) > 0).astype(int)
        aug, desc = expand_second_order(X)
        res = screen_stepwise(aug, y, descriptors=desc)
        assert 2 in res.selected_covariates
        assert 4 in res.selected_covariates

    def test_recovers_quadratic_signal(self, rng):
        n = 400
        X = rng.uniform(-1, 1, size=(n, 8))
        y = (X[:, 0] ** 2 + X[:, 1] ** 2 > 0.5).astype(int)
        flip = rng.uniform(size=n) < 0.1
        y = np.where(flip, 1 - y, y)
        aug, desc = expand_second_order(X)
        res = screen_stepwise(aug, y, descriptors=desc)
        assert 0 in res.selected_covariates
        assert 1 in res.selected_covariates
        # pure-noise covariates should mostly stay out
        assert len(res.selected_covariates) <= 5

    def test_pure_noise_selects_little(self, rng):
        n = 200
        X = rng.uniform(-1, 1, size=(n, 5))
        y = rng.integers(0, 2, size=n)
        aug, desc = expand_second_order(X)
        res = screen_stepwise(aug, y, descriptors=desc)
        assert len(res.selected_monomials) <= 2

    def test_trace_records_moves(self, rng):
        X = rng.uniform(-1, 1, size=(100, 3))
        y = (X[:, 0] > 0).astype(int)
        aug, desc = expand_second_order(X)
        res = screen_stepwise(aug, y, descriptors=desc)
        assert res.trace[0][0] == "init"
        assert all(t[0] in ("init", "add", "drop") for t in res.trace)

    def test_small_sample_rejected(self):
        with pytest.raises(DataError):
            screen_stepwise(np.zeros((10, 2)), np.zeros(10))

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            screen_stepwise(np.random.default_rng(0).normal(size=(30, 2)), np.ones(30))

    def _problem(self):
        X = np.random.default_rng(0).uniform(-1, 1, size=(60, 3))
        return X, (X[:, 0] > 0).astype(int)

    def test_plus_minus_one_labels_rejected(self):
        X, y = self._problem()
        with pytest.raises(DataError, match="0/1"):
            screen_stepwise(X, 2 * y - 1)

    def test_zero_three_labels_rejected(self):
        X, y = self._problem()
        with pytest.raises(DataError, match="0/1"):
            screen_stepwise(X, 3 * y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_column_rejected(self, bad):
        X, y = self._problem()
        X[5, 1] = bad
        with pytest.raises(DataError, match="finite"):
            screen_stepwise(X, y)

    def test_wrong_length_labels_rejected(self):
        X, y = self._problem()
        with pytest.raises(DataError, match="one label per row"):
            screen_stepwise(X, y[:-1])

    def test_short_descriptors_rejected(self):
        X, y = self._problem()
        with pytest.raises(DataError, match="one descriptor per column"):
            screen_stepwise(X, y, descriptors=((0,), (1,)))

    def test_scale_invariance(self, rng):
        X = rng.uniform(-1, 1, size=(150, 4))
        y = (X[:, 1] > 0).astype(int)
        aug, desc = expand_second_order(X)
        res1 = screen_stepwise(aug, y, descriptors=desc)
        scaled = aug * np.array([1.0, 1e3, 1.0, 1e-3, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
                                 1.0, 1.0, 1.0, 1.0])
        res2 = screen_stepwise(scaled, y, descriptors=desc)
        assert res1.selected_monomials == res2.selected_monomials


def _n8_screen_problem(p, n, seed, noise=0.3, constant_column=None):
    """Monomials of N8 covariates padded to p, labels from its inner circle plus noise."""
    X = np.array(generate(get_setting("N8", p=p), n, seed).features)
    if constant_column is not None:
        X[:, constant_column] = 0.7
    r2 = X[:, 0] ** 2 + X[:, 1] ** 2
    y = (r2 + noise * np.random.default_rng(seed).normal(size=n) > 0.6).astype(int)
    aug, desc = expand_second_order(X)
    return aug, y, desc


SCREEN_PROBLEMS = [
    *[dict(p=p, n=n, seed=seed) for p in (2, 5, 20) for n in (40, 200) for seed in range(3)],
    dict(p=5, n=200, seed=0, noise=0.02),  # near-separable: fits reach the Newton cap
    dict(p=5, n=200, seed=1, constant_column=3),
]


class TestBatchedScreen:
    """The gather-free, warm-started screen against the serial cold-start oracle
    and the frozen stacked-design screen."""

    @pytest.mark.parametrize("problem", SCREEN_PROBLEMS, ids=str)
    def test_same_moves_as_serial_oracle(self, problem, monkeypatch):
        aug, y, desc = _n8_screen_problem(**problem)
        serial_fits = []
        irls = _oracles._irls

        def counted_irls(*args):
            serial_fits.append(1)
            return irls(*args)

        monkeypatch.setattr(_oracles, "_irls", counted_irls)
        ref = _oracles.screen_stepwise_serial(aug, y, desc)
        res = screen_stepwise(aug, y, desc)
        assert res.selected_monomials == ref.selected_monomials
        assert [t[:2] for t in res.trace] == [t[:2] for t in ref.trace]
        np.testing.assert_allclose(
            [t[2] for t in res.trace], [t[2] for t in ref.trace], rtol=0, atol=1e-8
        )
        assert res.fits == len(serial_fits)
        assert res.newton_iterations >= res.fits

    @pytest.mark.parametrize(
        "problem", [*SCREEN_PROBLEMS, dict(p=50, n=400, seed=1)], ids=str
    )
    def test_same_moves_and_counts_as_stacked_designs(self, problem):
        aug, y, desc = _n8_screen_problem(**problem)
        ref = _oracles.screen_stepwise_batched(aug, y, desc)
        res = screen_stepwise(aug, y, desc)
        assert [t[:2] for t in res.trace] == [t[:2] for t in ref.trace]
        np.testing.assert_allclose(
            [t[2] for t in res.trace], [t[2] for t in ref.trace], rtol=0, atol=1e-8
        )
        assert (res.fits, res.newton_iterations) == (ref.fits, ref.newton_iterations)

    @pytest.mark.parametrize(
        "problem", [dict(p=20, n=40, seed=2), dict(p=20, n=200, seed=1)], ids=str
    )
    def test_one_candidate_per_chunk_gives_the_same_screen(self, problem, monkeypatch):
        # a chunk of one runs its products as BLAS gemv, not gemm, so the
        # floats may move in the last bits, never the moves or the counts
        aug, y, desc = _n8_screen_problem(**problem)
        default = screen_stepwise(aug, y, desc)
        monkeypatch.setattr(varselect, "_CHUNK_BYTES", 1)
        single = screen_stepwise(aug, y, desc)
        assert [t[:2] for t in single.trace] == [t[:2] for t in default.trace]
        np.testing.assert_allclose(
            [t[2] for t in single.trace], [t[2] for t in default.trace], rtol=0, atol=1e-12
        )
        assert (single.selected_monomials, single.fits, single.newton_iterations) == (
            default.selected_monomials, default.fits, default.newton_iterations
        )


class TestMaskFeatures:
    def test_unselected_columns_zeroed(self):
        X = np.arange(8.0).reshape(2, 4)
        out = mask_features(X, (1, 3), 4)
        np.testing.assert_array_equal(out[:, 0], 0.0)
        np.testing.assert_array_equal(out[:, 2], 0.0)
        np.testing.assert_array_equal(out[:, 1], X[:, 1])

    def test_input_not_mutated(self):
        X = np.ones((2, 3))
        mask_features(X, (0,), 3)
        np.testing.assert_array_equal(X, 1.0)


class TestTwoStage:
    def _circle_subproblem(self, rng, n=150, p=10):
        X = rng.uniform(-1, 1, size=(n, p))
        labels = np.where(X[:, 0] ** 2 + X[:, 1] ** 2 > 0.5, 1, -1)
        flip = rng.uniform(size=n) < 0.1  # label noise keeps the screen stable
        labels = np.where(flip, -labels, labels)
        return make_subproblem(X, labels, rng.uniform(0.5, 2.0, size=n))

    def test_selects_signal_covariates(self, rng):
        sub = self._circle_subproblem(rng)
        res = screen_for_subproblem(sub)
        assert 0 in res.selected_covariates
        assert 1 in res.selected_covariates

    def test_fitted_rule_carries_selection(self, rng):
        sub = self._circle_subproblem(rng)
        rule = fit_two_stage(sub, KernelSpec("gaussian", 0.6), lam=0.05)
        assert not rule.selection_fallback
        assert set(rule.selected_features) <= set(range(10))
        # the fitted rule must ignore masked covariates entirely
        probe = np.zeros((1, 10))
        probe2 = probe.copy()
        unselected = sorted(set(range(10)) - set(rule.selected_features))
        if unselected:
            probe2[0, unselected[0]] = 5.0
            assert rule.decision_value(probe)[0] == pytest.approx(
                rule.decision_value(probe2)[0], abs=1e-12
            )

    def test_masked_step_carries_selection(self, rng, monkeypatch):
        sub = self._circle_subproblem(rng)
        screen = varselect.ScreenResult(((0, 1),), (0, 1), ())
        monkeypatch.setattr(varselect, "screen_for_subproblem", lambda sub: screen)
        masked = screen_mask(sub)
        assert (masked.selected_features, masked.selection_fallback) == ((0, 1), False)
        assert not masked.features[:, 2:].any()
        np.testing.assert_array_equal(masked.features[:, :2], sub.features[:, :2])
        assert sub.selected_features is None

    def test_empty_screen_falls_back_to_full_set(self, rng, monkeypatch):
        # a screen that keeps nothing: the fit falls back to every covariate
        X = rng.uniform(-1, 1, size=(60, 3))
        labels = np.array([1, -1] * 30)
        sub = make_subproblem(X, labels, np.ones(60))
        empty = varselect.ScreenResult((), (), (("init", None, 0.0),))
        monkeypatch.setattr(varselect, "screen_for_subproblem", lambda sub: empty)
        rule = fit_two_stage(sub, KernelSpec("gaussian", 0.8), lam=0.1)
        assert rule.selection_fallback
        assert rule.selected_features == tuple(range(3))

    @pytest.mark.parametrize("case", ["labels-two", "nan-feature"])
    def test_other_screen_errors_propagate(self, rng, case):
        """Only a step too small or single-class to screen falls back."""
        X = rng.uniform(-1, 1, size=(60, 3))
        labels = np.array([1, -1] * 30)
        if case == "labels-two":
            labels = 2 * labels
        else:
            X[5, 1] = np.nan
        with pytest.raises(DataError):
            screen_mask(make_subproblem(X, labels, np.ones(60)))

    @pytest.mark.parametrize("n, labels", [(19, [1, -1]), (60, [1, 1])],
                             ids=["too-small", "single-class"])
    def test_too_small_or_single_class_falls_back(self, rng, n, labels):
        X = rng.uniform(-1, 1, size=(n, 3))
        sub = make_subproblem(X, np.resize(labels, n), np.ones(n))
        masked = screen_mask(sub)
        assert (masked.selected_features, masked.selection_fallback) == ((0, 1, 2), True)
        np.testing.assert_array_equal(masked.features, X)

    def test_accuracy_beats_unscreened_in_high_dimensions(self, rng):
        sub = self._circle_subproblem(rng, n=200, p=40)
        from ordinalsr.aol import fit_aol_l2
        from ordinalsr.kernels import median_bandwidth

        res = screen_for_subproblem(sub)
        masked = mask_features(sub.features, res.selected_covariates or (0, 1), 40)
        sig_two = median_bandwidth(masked, seed=0)
        sig_full = median_bandwidth(sub.features, seed=0)
        two = fit_two_stage(sub, KernelSpec("gaussian", sig_two), lam=0.01)
        full = fit_aol_l2(sub, KernelSpec("gaussian", sig_full), lam=0.01)
        Xt = rng.uniform(-1, 1, size=(2000, 40))
        truth = np.where(Xt[:, 0] ** 2 + Xt[:, 1] ** 2 > 0.5, 1, -1)
        acc_two = np.mean(two.predict(Xt) == truth)
        acc_full = np.mean(full.predict(Xt) == truth)
        assert acc_two > acc_full
