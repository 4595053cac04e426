"""Tests for the simulation settings registry and trial generator."""

import numpy as np
import pytest

from _oracles import validate_setting
from ordinalsr.exceptions import DataError
from ordinalsr.simgen import (
    SETTINGS,
    generate,
    get_setting,
    loss,
    mean_effect,
    true_optimal,
)

ALL_IDS = sorted(SETTINGS)


class TestRegistry:
    def test_ten_settings_shipped(self):
        assert len(SETTINGS) == 10
        assert {"P1", "P2", "P3", "P4", "P5", "P6", "N7", "N8", "N9", "N10"} == set(
            SETTINGS
        )

    def test_arm_counts(self):
        assert SETTINGS["P5"].k_arms == 4
        assert SETTINGS["N10"].k_arms == 4
        for sid in ("P1", "P2", "P3", "P4", "P6", "N7", "N8", "N9"):
            assert SETTINGS[sid].k_arms == 3

    def test_unknown_id_rejected(self):
        with pytest.raises(DataError):
            get_setting("P99")

    def test_noise_padding(self):
        spec = get_setting("N8", p=50)
        assert spec.p == 50
        with pytest.raises(DataError):
            get_setting("P1", p=2)  # cannot shrink below the signal dims

    @pytest.mark.parametrize("sid", ALL_IDS)
    def test_every_class_occupies_at_least_one_percent(self, sid):
        freqs = validate_setting(SETTINGS[sid], draws=20_000)
        assert freqs.shape == (SETTINGS[sid].k_arms,)
        assert np.all(freqs >= 0.01)


class TestTrueOptimal:
    def test_p1_threshold_points(self):
        spec = SETTINGS["P1"]
        # index w.X with w = (1, 1, .5, .5, .5); thresholds -0.5 and 0.5
        pts = np.array(
            [
                [-0.9, 0.0, 0.0, 0.0, 0.0],  # index -0.9 -> arm 1
                [0.0, 0.0, 0.0, 0.0, 0.0],  # index 0 -> arm 2
                [0.9, 0.0, 0.0, 0.0, 0.0],  # index 0.9 -> arm 3
            ]
        )
        np.testing.assert_array_equal(true_optimal(spec, pts), [1, 2, 3])

    def test_n8_circle_membership(self):
        spec = SETTINGS["N8"]
        pts = np.array([[0.1, 0.1], [0.7, 0.0], [0.9, 0.9]])
        # r^2 = 0.02, 0.49, 1.62 against cuts 0.4 and 1.2
        np.testing.assert_array_equal(true_optimal(spec, pts), [1, 2, 3])

    def test_n10_four_arms(self):
        spec = SETTINGS["N10"]
        pts = np.array([[0.0, 0.0], [0.6, 0.0], [0.9, 0.0], [0.9, 0.9]])
        np.testing.assert_array_equal(true_optimal(spec, pts), [1, 2, 3, 4])

    def test_n9_square_then_ellipse(self):
        spec = SETTINGS["N9"]
        pts = np.array([[0.2, 0.2], [0.9, 0.0], [0.9, 0.75]])
        np.testing.assert_array_equal(true_optimal(spec, pts), [1, 2, 3])

    def test_dimension_check(self):
        with pytest.raises(DataError):
            true_optimal(SETTINGS["P1"], np.zeros((2, 3)))

    def test_noise_dims_do_not_move_boundary(self, rng):
        base = SETTINGS["N8"]
        padded = get_setting("N8", p=30)
        X = rng.uniform(-1, 1, size=(200, 30))
        np.testing.assert_array_equal(
            true_optimal(padded, X), true_optimal(base, X[:, :2])
        )


class TestLoss:
    def test_absolute_loss_values(self):
        spec = SETTINGS["P1"]
        np.testing.assert_allclose(
            loss(spec, [1, 2, 3, 1], [1, 1, 1, 3]), [0.0, 1.0, 2.0, 2.0]
        )

    def test_quadratic_loss_values(self):
        spec = SETTINGS["P6"]
        np.testing.assert_allclose(loss(spec, [3], [1]), [4.0])

    @pytest.mark.parametrize("assigned", [[4], [1.5], [np.nan]], ids=["four", "fraction", "nan"])
    def test_out_of_range_arm_rejected(self, assigned):
        with pytest.raises(DataError):
            loss(SETTINGS["P1"], assigned, [2])


class TestGenerate:
    def test_reproducible_under_seed(self):
        a = generate(SETTINGS["P1"], 50, seed=3)
        b = generate(SETTINGS["P1"], 50, seed=3)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.treatment, b.treatment)
        np.testing.assert_array_equal(a.outcome, b.outcome)

    def test_different_seeds_differ(self):
        a = generate(SETTINGS["P1"], 50, seed=3)
        b = generate(SETTINGS["P1"], 50, seed=4)
        assert not np.array_equal(a.outcome, b.outcome)

    def test_shapes_and_uniform_propensity(self):
        d = generate(SETTINGS["N10"], 80, seed=0)
        assert d.n == 80 and d.p == 2 and d.k_arms == 4
        np.testing.assert_allclose(d.propensity, 0.25)
        np.testing.assert_array_equal(d.true_optimal, true_optimal(SETTINGS["N10"], d.features))

    def test_outcome_mean_structure(self):
        # with noise sd 1, the mean outcome at the optimal arm should sit near
        # mu(X) and drop by about effect_scale per unit of loss
        spec = SETTINGS["N8"]
        d = generate(spec, 40_000, seed=1)
        lo = loss(spec, d.treatment, d.true_optimal)
        resid = d.outcome - mean_effect(spec, d.features) + spec.effect_scale * lo
        assert abs(float(np.mean(resid))) < 0.02
        assert abs(float(np.std(resid)) - 1.0) < 0.02

    def test_optimal_arm_has_best_mean_outcome(self):
        d = generate(SETTINGS["P1"], 30_000, seed=2)
        match = d.treatment == d.true_optimal
        assert np.mean(d.outcome[match]) > np.mean(d.outcome[~match]) + 1.0

    def test_invalid_n(self):
        with pytest.raises(DataError):
            generate(SETTINGS["P1"], 0, seed=0)

    @pytest.mark.parametrize("n", [-3, 2.5, "5", True, None])
    def test_n_must_be_a_positive_integer(self, n):
        with pytest.raises(DataError, match="n must be an integer >= 1"):
            generate(SETTINGS["P1"], n, seed=0)

    @pytest.mark.parametrize("p", [7.5, "7", True, 2])
    def test_invalid_noise_dimension(self, p):
        """p pads the covariates: an integer no smaller than the signal dimension."""
        with pytest.raises(DataError, match="p must be an integer >= 5"):
            get_setting("P1", p=p)
        assert get_setting("P1", p=np.int64(7)).p == 7

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_invalid_seed(self, seed):
        with pytest.raises(DataError, match="seed"):
            generate(SETTINGS["P1"], 10, seed)

    def test_numpy_integer_seed_accepted(self):
        a = generate(SETTINGS["P1"], 10, np.int64(3))
        np.testing.assert_array_equal(a.features, generate(SETTINGS["P1"], 10, 3).features)

    def test_padded_noise_is_uniform(self):
        d = generate(get_setting("N8", p=10), 5_000, seed=5)
        assert d.p == 10
        assert np.all(d.features[:, 2:] >= -1) and np.all(d.features[:, 2:] <= 1)
        assert abs(float(np.mean(d.features[:, 5]))) < 0.05
