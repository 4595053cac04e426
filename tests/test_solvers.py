"""Tests for the numerical workhorses: OLS, logistic IRLS, SMO dual, simplex,
and the dual simplex for the L1 hinge fit."""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    _irls,
    bounded_simplex_vector,
    l1_aol_lp_encoding,
    leaving_row_list,
    lp_vertex_oracle,
    smo_serial,
    svm_dual_oracle,
)
from ordinalsr import SRConfig, aol, fit_sr, generate, get_setting, solvers
from ordinalsr.aol import build_subproblem
from ordinalsr.evaluate import METHOD_PRESETS, _stratified_folds, cv_tune
from ordinalsr.exceptions import (
    ConvergenceError,
    DataError,
    InfeasibleLPError,
    UnboundedLPError,
)
from ordinalsr.kernels import KernelSpec, gram_matrix
from ordinalsr.solvers import (
    LinearProgram,
    logistic_fit,
    ols_fit,
    simplex_solve,
    wsvm_dual_solve,
)


class TestOls:
    def test_exact_on_noiseless_linear_data(self, rng):
        X = rng.normal(size=(30, 3))
        y = 2.0 - X[:, 0] + 0.5 * X[:, 2]
        model = ols_fit(X, y)
        assert model.intercept == pytest.approx(2.0, abs=1e-6)
        np.testing.assert_allclose(model.slopes, [-1.0, 0.0, 0.5], atol=1e-6)
        np.testing.assert_allclose(model.predict(X), y, atol=1e-6)

    def test_rank_deficient_design_does_not_crash(self):
        X = np.column_stack([np.ones(5), np.ones(5)])
        model = ols_fit(X, np.arange(5.0))
        assert np.all(np.isfinite(model.slopes))

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            ols_fit(np.array([[np.nan]]), np.array([1.0]))


class TestLogistic:
    def test_recovers_coefficients(self, rng):
        X = rng.normal(size=(4000, 2))
        p = 1.0 / (1.0 + np.exp(-(0.5 + 1.5 * X[:, 0] - 1.0 * X[:, 1])))
        y = (rng.uniform(size=4000) < p).astype(int)
        model = logistic_fit(X, y)
        assert model.converged
        assert model.intercept == pytest.approx(0.5, abs=0.2)
        np.testing.assert_allclose(model.slopes, [1.5, -1.0], atol=0.2)

    def test_separated_data_capped_not_crashed(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        model = logistic_fit(X, y)
        assert not model.converged
        assert np.all(np.abs(model.slopes) <= 30.0)
        # direction is still right even when the scale diverges
        assert model.predict_proba([[5.0]])[0] > 0.99
        assert model.predict_proba([[-5.0]])[0] < 0.01

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            logistic_fit(np.zeros((4, 1)), np.ones(4))

    def test_non_binary_labels_rejected(self):
        with pytest.raises(DataError):
            logistic_fit(np.zeros((3, 1)), np.array([0, 1, 2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, bad):
        X = np.arange(8.0).reshape(4, 2)
        X[2, 1] = bad
        with pytest.raises(DataError, match="finite"):
            logistic_fit(X, np.array([0, 1, 0, 1]))

    def test_wrong_length_labels_rejected(self):
        with pytest.raises(DataError, match="one label per row"):
            logistic_fit(np.arange(8.0).reshape(4, 2), np.array([0, 1, 0]))

    @pytest.mark.parametrize(
        "X, kind",
        [
            (np.random.default_rng(3).normal(size=(300, 4)), "noisy"),
            (np.array([[-2.0], [-1.0], [1.0], [2.0]]), "separated"),
            (np.random.default_rng(4).normal(size=(60, 3)), "separated"),
        ],
        ids=["noisy", "separated-1d", "separated-3d"],
    )
    def test_matches_one_design_newton_loop(self, X, kind):
        noise = np.random.default_rng(5).normal(size=len(X)) if kind == "noisy" else 0.0
        y = (X.sum(axis=1) + noise > 0).astype(int)
        beta, its, converged = _irls(np.column_stack([np.ones(len(y)), X]), y, 100, 1e-8)
        model = logistic_fit(X, y)
        np.testing.assert_allclose(
            np.r_[model.intercept, model.slopes], beta, rtol=1e-9, atol=1e-9
        )
        assert model.iterations == its
        assert model.converged == (kind == "noisy")
        if X.shape[1] == 3:  # this one runs into the coefficient cap
            assert np.abs(model.slopes).max() == 30.0


class TestWsvmDual:
    # Frozen reference for a fixed 4-point linear-kernel instance; the dual
    # optimum was derived independently with an interior-point QP solver.
    FROZEN_X = np.array([[0.5, -0.2], [-0.3, 0.8], [0.9, 0.1], [-0.7, -0.5]])
    FROZEN_LABELS = np.array([1.0, -1.0, 1.0, -1.0])
    FROZEN_CAPS = np.array([0.8, 1.5, 0.3, 2.0])
    FROZEN_OBJECTIVE = 1.4152389159904757

    def test_frozen_instance_objective(self):
        K = self.FROZEN_X @ self.FROZEN_X.T
        sol = wsvm_dual_solve(K, self.FROZEN_LABELS, self.FROZEN_CAPS, tol=1e-8)
        assert sol.objective == pytest.approx(self.FROZEN_OBJECTIVE, abs=1e-6)
        # caps that bind at the optimum
        assert sol.alphas[0] == pytest.approx(0.8, abs=1e-6)
        assert sol.alphas[2] == pytest.approx(0.3, abs=1e-6)

    def test_equality_constraint_maintained(self, rng):
        for _ in range(10):
            m = int(rng.integers(3, 9))
            X = rng.normal(size=(m, 2))
            labels = rng.choice([-1.0, 1.0], size=m)
            if np.unique(labels).size < 2:
                labels[0] = -labels[0]
            caps = rng.uniform(0.05, 2.0, size=m)
            sol = wsvm_dual_solve(X @ X.T, labels, caps, tol=1e-8)
            assert abs(float(labels @ sol.alphas)) < 1e-10
            assert np.all(sol.alphas >= -1e-12)
            assert np.all(sol.alphas <= caps + 1e-12)

    def test_kkt_margin_conditions(self, rng):
        for _ in range(10):
            m = int(rng.integers(4, 9))
            X = rng.normal(size=(m, 2))
            labels = rng.choice([-1.0, 1.0], size=m)
            if np.unique(labels).size < 2:
                labels[0] = -labels[0]
            caps = rng.uniform(0.1, 2.0, size=m)
            K = X @ X.T
            sol = wsvm_dual_solve(K, labels, caps, tol=1e-9)
            margin = labels * (K @ (sol.alphas * labels) + sol.intercept)
            tol = 1e-5
            assert np.all(margin[sol.alphas < 1e-9] >= 1 - tol)
            assert np.all(margin[sol.alphas > caps - 1e-9] <= 1 + tol)
            free = (sol.alphas > 1e-7) & (sol.alphas < caps - 1e-7)
            assert np.all(np.abs(margin[free] - 1.0) <= tol)

    def test_gaussian_kernel_separates_xor(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        labels = np.array([1.0, 1.0, -1.0, -1.0])
        from ordinalsr.kernels import gram_matrix

        K = gram_matrix(KernelSpec("gaussian", 0.5), X, X)
        sol = wsvm_dual_solve(K, labels, np.full(4, 10.0), tol=1e-8)
        f = K @ (sol.alphas * labels) + sol.intercept
        assert np.all(np.sign(f) == labels)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-5, "1e-5", None, True])
    def test_tol_must_be_finite_and_positive(self, tol):
        # viol < nan is never true, so a NaN tol would run to max_updates
        K = np.eye(2)
        with pytest.raises(DataError, match="tol"):
            wsvm_dual_solve(K, np.array([1.0, -1.0]), np.ones(2), tol=tol)

    def test_shape_and_cap_validation(self):
        with pytest.raises(DataError):
            wsvm_dual_solve(np.eye(3), np.ones(2), np.ones(3))
        with pytest.raises(DataError):
            wsvm_dual_solve(np.eye(2), np.array([1.0, -1.0]), np.array([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gram_raises(self, bad):
        # a NaN entry used to run to max_updates and return alpha = [1, 1]
        K = np.eye(2)
        K[0, 1] = bad
        with pytest.raises(DataError, match="gram"):
            wsvm_dual_solve(K, np.array([1.0, -1.0]), np.ones(2))

    @pytest.mark.parametrize(
        "labels, caps, tol, match",
        [([1.0, 2.0], [1.0, 1.0], 1e-5, "labels"), ([1.0, -1.0], [1.0, -0.5], 1e-5, "caps"),
         ([1.0, -1.0], [1.0, np.nan], 1e-5, "caps"), ([1.0, -1.0], [1.0, 1.0], np.nan, "tol"),
         ([1.0, -1.0, 1.0], [1.0, 1.0], 1e-5, "shape"),
         ([1.0, 1.0], [1.0, 1.0], 1e-5, "both labels"),
         ([1.0, -1.0], [1.0, 0.0], 1e-5, "both labels")],
        ids=["labels", "negative-cap", "nan-cap", "nan-tol", "shape", "one-label",
             "one-label-of-positive-cap"],
    )
    def test_the_unchecked_gram_entry_keeps_every_other_check(self, labels, caps, tol, match):
        """solvers._smo, which cv_tune's solves use on Gram matrices checked
        where they were built, skips only the m^2 finiteness pass (the NaN-alpha
        check on exit runs under wsvm_dual_solve's tests below)."""
        with pytest.raises(DataError, match=match):
            solvers._smo(np.eye(2), np.array(labels), np.array(caps), tol=tol)

    @pytest.mark.parametrize(
        "call",
        [lambda: wsvm_dual_solve(np.eye(2), ["a", "b"], np.ones(2)),
         lambda: wsvm_dual_solve(np.eye(2), [1.0, -1.0], [1.0, 1.0 + 1j]),
         lambda: wsvm_dual_solve([["a", 0.0], [0.0, 1.0]], [1.0, -1.0], np.ones(2)),
         lambda: wsvm_dual_solve(np.eye(2), [1.0, -1.0], np.ones(2), max_updates="x"),
         lambda: wsvm_dual_solve(np.eye(2), [1.0, -1.0], np.ones(2), max_updates=0),
         lambda: aol.fit_l2_from_gram(np.array([1.0, -1.0]), np.ones(2), np.eye(2), "a"),
         lambda: aol.fit_l2_from_gram(np.array([1.0, -1.0]), ["a", 1.0], np.eye(2), 0.1)],
        ids=["text-labels", "complex-caps", "text-gram", "text-max-updates", "zero-max-updates",
             "text-lambda", "text-weights"],
    )
    def test_malformed_arguments_raise_data_error(self, call):
        with pytest.raises(DataError):
            call()

    @pytest.mark.parametrize("bounded", [False, True], ids=["free-rows", "every-row-at-its-cap"])
    def test_a_zero_cap_row_is_outside_the_problem(self, bounded):
        """A cold solve with caps 0 on some rows gives the other rows the alphas
        of the problem without those rows, bit for bit, and alpha 0 on them.
        Under equal tiny caps on 15 rows of each label every alpha ends at its
        cap, so the intercept comes from the bounds of the rows inside the
        problem alone; the 10 zero-cap rows, all positive, would pull it from
        about 0 to about 1."""
        K, labels, w = _svm_problem(3, 40, "gaussian")
        caps = _caps(w, 0.05)
        out = np.arange(40) % 4 == 1
        if bounded:
            out = np.arange(40) < 10
            labels = np.where(out | (np.arange(40) % 2 == 0), 1.0, -1.0)
            caps = np.full(40, 1e-6)
        caps[out] = 0.0
        keep = np.flatnonzero(~out)
        full = wsvm_dual_solve(K, labels, caps, tol=1e-9)
        alone = wsvm_dual_solve(K[np.ix_(keep, keep)], labels[keep], caps[keep], tol=1e-9)
        assert full.alphas[keep].tobytes() == alone.alphas.tobytes()
        assert not full.alphas[out].any()
        assert full.updates == alone.updates
        assert full.intercept == pytest.approx(alone.intercept, abs=1e-12)
        if bounded:
            assert np.array_equal(full.alphas[keep], caps[keep])
            assert abs(full.intercept) < 1e-3

    @pytest.mark.parametrize(
        "labels",
        [[0.5, -2.0, 1.0], [0.0, 1.0, -1.0], [1.0, -1.0, np.nan], [1.0, -1.0, 2.0]],
        ids=["fractions", "zero", "nan", "two"],
    )
    def test_labels_must_be_plus_or_minus_one(self, labels):
        # labels (0.5, -2, 1) on I_3 returned alpha with sum(alpha * label) = -1.125
        with pytest.raises(DataError, match="labels"):
            wsvm_dual_solve(np.eye(3), np.array(labels), np.ones(3))

    def test_nan_violation_at_the_update_cap_raises(self):
        # finite entries whose differences overflow: quad is inf, the step t is
        # 0, and (K[0] - K[1]) * 0 turns the state into NaN after one update;
        # viol > 10 * tol is False for NaN, so that used to return quietly
        K = np.array([[1e308, -1e308], [-1e308, 1e308]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConvergenceError) as exc:
            wsvm_dual_solve(K, np.array([1.0, -1.0]), np.ones(2), max_updates=1)
        assert exc.value.best.updates == 1
        assert np.isnan(exc.value.best.kkt_violation)

    def test_nan_alphas_without_an_update_cap_raise(self):
        # the same Gram without the cap: both alphas turn NaN, neither index can
        # end a pair, and the violation reads 0, which used to look converged
        K = np.array([[1e308, -1e308], [-1e308, 1e308]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConvergenceError) as exc:
            wsvm_dual_solve(K, np.array([1.0, -1.0]), np.ones(2))
        assert "non-finite" in str(exc.value)
        assert np.isnan(exc.value.best.alphas).all()

    def test_updates_counts_pair_steps(self):
        K = self.FROZEN_X @ self.FROZEN_X.T
        sol = wsvm_dual_solve(K, self.FROZEN_LABELS, self.FROZEN_CAPS, tol=1e-8)
        assert sol.updates > 1
        with pytest.raises(ConvergenceError) as exc:
            wsvm_dual_solve(
                K, self.FROZEN_LABELS, self.FROZEN_CAPS, tol=1e-8, max_updates=1
            )
        assert exc.value.best.updates == 1


def _svm_problem(seed, m, kind):
    """Random gram, +-1 labels with both classes, and weights for caps w/(2 lam m)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, 2))
    labels = np.where(X[:, 0] + 0.7 * rng.normal(size=m) > 0, 1.0, -1.0)
    labels[:2] = [1.0, -1.0]
    if kind == "linear":
        K = gram_matrix(KernelSpec("linear"), X, X)
    else:
        K = gram_matrix(KernelSpec("gaussian", 0.8), X, X)
    return K, labels, rng.uniform(0.1, 2.0, size=m)


def _caps(weights, lam):
    return weights / (2.0 * lam * weights.shape[0])


class TestWsvmWarmStart:
    @pytest.mark.parametrize("kind", ["linear", "gaussian"])
    @pytest.mark.parametrize("m", [5, 50, 300])
    def test_warm_and_cold_starts_reach_the_same_objective(self, m, kind):
        K, labels, w = _svm_problem(m, m, kind)
        lam_prev, lam = 0.05, 0.2
        prev = wsvm_dual_solve(K, labels, _caps(w, lam_prev), tol=1e-9)
        warm = wsvm_dual_solve(
            K, labels, _caps(w, lam), tol=1e-9, init=prev.alphas * (lam_prev / lam)
        )
        cold = wsvm_dual_solve(K, labels, _caps(w, lam), tol=1e-9)
        assert abs(warm.objective - cold.objective) <= 1e-8
        assert warm.kkt_violation < 1e-9

    @pytest.mark.parametrize("kind", ["linear", "gaussian"])
    def test_init_start_keeps_box_and_equality(self, kind):
        K, labels, w = _svm_problem(7, 60, kind)
        caps = _caps(w, 0.1)
        # a feasible start with free, zero and capped entries
        init = np.zeros(60)
        pos, neg = np.flatnonzero(labels > 0), np.flatnonzero(labels < 0)
        init[pos[:3]] = caps[pos[:3]]
        share = caps[pos[:3]].sum() / caps[neg].sum()
        assert share < 1.0
        init[neg] = share * caps[neg]
        sol = wsvm_dual_solve(K, labels, caps, tol=1e-9, init=init)
        assert np.all(sol.alphas >= 0.0) and np.all(sol.alphas <= caps)
        assert abs(float(labels @ sol.alphas)) < 1e-10
        cold = wsvm_dual_solve(K, labels, caps, tol=1e-9)
        assert sol.objective == pytest.approx(cold.objective, abs=1e-8)

    def test_optimal_init_needs_no_updates(self):
        K, labels, w = _svm_problem(3, 40, "gaussian")
        caps = _caps(w, 0.1)
        sol = wsvm_dual_solve(K, labels, caps, tol=1e-9)
        again = wsvm_dual_solve(K, labels, caps, tol=1e-6, init=sol.alphas)
        assert again.updates == 0
        np.testing.assert_array_equal(again.alphas, sol.alphas)

    @pytest.mark.parametrize(
        "bad",
        ["above_box", "below_box", "unbalanced", "wrong_shape", "nan"],
    )
    def test_infeasible_init_raises(self, bad):
        K, labels, w = _svm_problem(4, 10, "linear")
        caps = _caps(w, 0.1)
        i, j = int(np.flatnonzero(labels > 0)[0]), int(np.flatnonzero(labels < 0)[0])
        init = np.zeros(10)
        if bad == "above_box":
            init[i] = init[j] = 2.0 * max(caps[i], caps[j])
        elif bad == "below_box":
            init[i] = init[j] = -0.5 * min(caps[i], caps[j])
        elif bad == "unbalanced":
            init[i] = 0.5 * caps[i]
        elif bad == "wrong_shape":
            init = np.zeros(9)
        else:
            init[i] = np.nan
        with pytest.raises(DataError):
            wsvm_dual_solve(K, labels, caps, init=init)

    @pytest.mark.parametrize("kind", ["linear", "gaussian"])
    def test_warm_path_makes_fewer_updates(self, kind):
        K, labels, w = _svm_problem(11, 200, kind)
        cold_updates = warm_updates = 0
        alpha = lam_prev = None
        for lam in (0.01, 0.05, 0.25):
            init = None if alpha is None else alpha * (lam_prev / lam)
            warm = wsvm_dual_solve(K, labels, _caps(w, lam), tol=1e-3, init=init)
            cold = wsvm_dual_solve(K, labels, _caps(w, lam), tol=1e-3)
            alpha, lam_prev = warm.alphas, lam
            warm_updates += warm.updates
            cold_updates += cold.updates
        assert warm_updates < cold_updates


def _dual_bits(sol):
    floats = np.array([sol.intercept, sol.objective, sol.kkt_violation])
    return sol.alphas.tobytes(), floats.tobytes(), sol.updates


def _assert_matches_serial(K, labels, caps, **kwargs):
    """wsvm_dual_solve equals tests/_oracles.smo_serial bit for bit; returns it."""
    try:
        sol = wsvm_dual_solve(K, labels, caps, **kwargs)
    except ConvergenceError as exc:
        sol = exc.best
    assert _dual_bits(sol) == _dual_bits(smo_serial(K, labels, caps, **kwargs))
    return sol


class TestWsvmMatchesSerialOracle:
    """The stacked-state SMO loop against its frozen two-penalty-vector
    predecessor: the same pairs in the same order, so alpha, intercept,
    objective, violation and update count agree bit for bit."""

    @pytest.mark.parametrize("start", ["cold", "lambda-path", "other-kernel"])
    @pytest.mark.parametrize("tol", [1e-3, 1e-5, 1e-9])
    @pytest.mark.parametrize("kind", ["linear", "gaussian"])
    def test_random_instances(self, kind, tol, start):
        for seed in range(3):
            m = 8 + 47 * seed
            K, labels, w = _svm_problem(100 * seed + m, m, kind)
            caps = _caps(w, 0.05)
            init = None
            if start == "lambda-path":  # the previous lambda's alpha, rescaled
                init = wsvm_dual_solve(K, labels, _caps(w, 0.01), tol=tol).alphas * 0.2
            elif start == "other-kernel":  # the same caps solved on another Gram
                other, _, _ = _svm_problem(100 * seed + m, m,
                                           "gaussian" if kind == "linear" else "linear")
                init = wsvm_dual_solve(other, labels, caps, tol=tol).alphas
            sol = _assert_matches_serial(K, labels, caps, tol=tol, init=init)
            assert sol.updates > 0

    def test_stopped_by_max_updates(self):
        K, labels, w = _svm_problem(5, 120, "gaussian")
        sol = _assert_matches_serial(K, labels, _caps(w, 0.01), tol=1e-9, max_updates=37)
        assert sol.updates == 37 and sol.kkt_violation > 1e-8

    def test_solves_of_a_gaussian_cv_grid(self, monkeypatch):
        """Every solve of a 3-sigma CV grid, sigma warm starts included."""
        recorded = []

        def spy(gram, labels, caps, tol=1e-5, init=None):
            recorded.append((np.array(gram), labels.copy(), caps.copy(), tol,
                             None if init is None else np.array(init)))
            return wsvm_dual_solve(gram, labels, caps, tol=tol, init=init)

        data = generate(get_setting("N8"), 120, 7)
        sub = build_subproblem(data, data.features, (1,), (2, 3), np.arange(data.n))
        monkeypatch.setattr(aol, "_smo", spy)
        cv_tune(sub, (0.01, 0.05, 0.25), sigma_grid=(0.3, 0.6, 1.2), folds=3, seed=1)
        assert len(recorded) == 28  # 3 sigmas x 3 folds x 3 lambdas + 1 refit
        assert sum(init is not None for *_, init in recorded) == 24
        for K, labels, caps, tol, init in recorded:
            _assert_matches_serial(K, labels, caps, tol=tol, init=init)


def _ipm(X, labels, caps):
    """_linear_svm_ipm on one problem: (alphas, slopes, intercept, iterations)."""
    alphas, slopes, b0, iterations = solvers._linear_svm_ipm(X, labels, caps[None])
    return alphas[0], slopes[0], b0[0], iterations


def _ipm_problem(seed, m, p, tied=False, duplicated=False):
    """Features, +-1 labels with both classes, and weights for caps w/(2 lam m)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, p))
    if duplicated:
        X[m // 2 :] = X[: m - m // 2]
    labels = np.where(X[:, 0] + 0.7 * rng.normal(size=m) > 0, 1.0, -1.0)
    labels[:2] = [1.0, -1.0]
    weights = np.full(m, 1.3) if tied else rng.uniform(0.1, 2.0, size=m)
    return X, labels, weights


def _margins_satisfy_kkt(X, labels, caps, alphas, slopes, b0, tol):
    """a_i f(x_i) >= 1 where alpha_i = 0, <= 1 where alpha_i = C_i, = 1 between."""
    margin = labels * (X @ slopes + b0)
    low, high = alphas <= 1e-7 * caps, alphas >= caps * (1 - 1e-7)
    assert np.all(margin[low] >= 1 - tol)
    assert np.all(margin[high] <= 1 + tol)
    assert np.all(np.abs(margin[~low & ~high] - 1) <= tol)


class TestLinearIpm:
    """solvers._linear_svm_ipm, the batched interior-point solve of linear L2
    steps, against SMO on the Gram matrix X X' and the enumeration oracle."""

    def _assert_matches_smo(self, X, labels, caps):
        alphas, slopes, b0, _ = _ipm(X, labels, caps)
        sol = wsvm_dual_solve(X @ X.T, labels, caps, tol=1e-9)
        objective = alphas.sum() - 0.5 * slopes @ slopes
        assert objective == pytest.approx(sol.objective, rel=1e-9, abs=1e-12)
        want = X.T @ (sol.alphas * labels)
        np.testing.assert_allclose(slopes, want, rtol=0, atol=1e-6 * max(1.0, np.abs(want).max()))
        free = (sol.alphas > 1e-6 * caps) & (sol.alphas < caps * (1 - 1e-6))
        if free.any():  # otherwise the intercept is any point of an interval
            assert b0 == pytest.approx(sol.intercept, abs=1e-6)
        _margins_satisfy_kkt(X, labels, caps, alphas, slopes, b0, 1e-6)
        assert np.all(alphas >= 0) and np.all(alphas <= caps)
        assert abs(labels @ alphas) <= 1e-8 * caps.sum()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("lam", [0.01, 0.05, 0.25])
    def test_matches_smo_on_random_steps(self, seed, lam):
        X, labels, w = _ipm_problem(seed, 40 + 30 * seed, 1 + seed % 5)
        self._assert_matches_smo(X, labels, _caps(w, lam))

    @pytest.mark.parametrize("seed", range(4))
    def test_tied_weights_and_duplicated_rows(self, seed):
        X, labels, w = _ipm_problem(seed, 60, 3, tied=True, duplicated=seed % 2 == 1)
        self._assert_matches_smo(X, labels, _caps(w, 0.05))

    @pytest.mark.parametrize("scale", [1.0, 1e4])
    def test_matches_the_enumeration_oracle(self, scale):
        """Criterion 1's draws on the linear kernel, caps also times 1e4."""
        rng = np.random.default_rng(20_260_824)
        for _ in range(60):
            m, p = int(rng.integers(3, 9)), int(rng.integers(1, 3))
            X = rng.normal(size=(m, p))
            labels = rng.choice([-1.0, 1.0], size=m)
            labels[:2] = [1.0, -1.0]
            caps = scale * rng.uniform(1e-6, 2.0, size=m) / (2.0 * rng.uniform(0.05, 0.5) * m)
            alphas, slopes, b0, _ = _ipm(X, labels, caps)
            oracle, _ = svm_dual_oracle(X @ X.T, labels, caps)
            objective = alphas.sum() - 0.5 * slopes @ slopes
            assert objective == pytest.approx(oracle, rel=1e-9, abs=1e-9)
            _margins_satisfy_kkt(X, labels, caps, alphas, slopes, b0, 1e-6)

    def test_all_at_bound_optimum(self):
        """Tiny balanced caps put every alpha at its cap: no free row fixes
        the intercept, which then lies where every margin is at most 1."""
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 2))
        labels = np.resize([1.0, -1.0], 40)
        caps = np.full(40, 1e-4)
        alphas, slopes, b0, _ = _ipm(X, labels, caps)
        np.testing.assert_allclose(alphas, caps, rtol=1e-6)
        np.testing.assert_allclose(slopes, X.T @ (caps * labels), rtol=0, atol=1e-12)
        assert np.all(labels * (X @ slopes + b0) <= 1 + 1e-8)
        self._assert_matches_smo(X, labels, caps)

    def test_large_caps(self):
        """Outcomes times 1e4 make caps near 1e4: SMO needs many updates, the
        interior-point method about as many iterations as at caps near 1."""
        X, labels, w = _ipm_problem(3, 50, 2)
        iterations = [_ipm(X, labels, _caps(w * scale, 0.05))[3] for scale in (1.0, 1e4)]
        assert max(iterations) <= 30
        self._assert_matches_smo(X, labels, _caps(w * 1e4, 0.05))

    def test_many_free_rows_at_large_caps(self):
        """Labels unrelated to a single feature, 17 against 13, under caps of
        1e4: many optima have w = 0, nu = 1 and every positive row on the
        margin, so far more than p + 1 rows have D near 0.  Eliminating all
        but p + 1 of them left 15 of these 40 solves open at the cap."""
        for seed in range(40):
            X = np.random.default_rng(seed).normal(size=(30, 1))
            labels = np.where(np.arange(30) < 17, 1.0, -1.0)
            caps = np.full(30, 1e4)
            alphas, slopes, b0, _ = _ipm(X, labels, caps)
            _margins_satisfy_kkt(X, labels, caps, alphas, slopes, b0, 1e-6)
            assert abs(labels @ alphas) <= 1e-8 * caps.sum()

    def test_zero_cap_rows_of_a_fold_layout(self):
        """A problem whose caps are 0 outside its rows is the problem on those
        rows alone; its alphas there are 0."""
        X, labels, w = _ipm_problem(8, 90, 3)
        assign = np.arange(90) % 3
        caps = np.zeros((3, 90))
        for f in range(3):
            train = np.flatnonzero(assign != f)
            caps[f, train] = _caps(w[train], 0.05)
        alphas, slopes, b0, _ = solvers._linear_svm_ipm(X, labels, caps)
        for f in range(3):
            train = np.flatnonzero(assign != f)
            alone = _ipm(X[train], labels[train], caps[f, train])
            assert not alphas[f, assign == f].any()
            np.testing.assert_allclose(alphas[f, train], alone[0], rtol=0, atol=1e-9)
            np.testing.assert_allclose(slopes[f], alone[1], rtol=0, atol=1e-9)
            assert b0[f] == pytest.approx(alone[2], abs=1e-9)

    def test_a_row_of_a_batch_is_the_problem_solved_alone(self):
        X, labels, w = _ipm_problem(3, 120, 4)
        caps = np.array([_caps(w, lam) for lam in (0.01, 0.05, 0.25, 1.0)])
        alphas, slopes, b0, _ = solvers._linear_svm_ipm(X, labels, caps)
        for b in range(4):
            alone = _ipm(X, labels, caps[b])
            np.testing.assert_allclose(alphas[b], alone[0], rtol=0, atol=1e-12 * caps[b].max())
            np.testing.assert_allclose(slopes[b], alone[1], rtol=0, atol=1e-12)
            assert b0[b] == pytest.approx(alone[2], abs=1e-12)

    def test_stall_raises_with_the_best_point(self, monkeypatch):
        X, labels, w = _ipm_problem(4, 50, 3)
        caps = np.array([_caps(w, 0.01), _caps(w, 0.25)])
        monkeypatch.setattr(solvers, "_IPM_MAX_ITER", 3)
        with pytest.raises(ConvergenceError, match="open after 3 iterations") as exc:
            solvers._linear_svm_ipm(X, labels, caps)
        alphas, slopes, b0 = exc.value.best
        assert alphas.shape == (2, 50) and slopes.shape == (2, 3) and b0.shape == (2,)
        assert np.all(np.isfinite(alphas)) and np.all(np.isfinite(slopes))
        assert np.all(alphas > 0) and np.all(alphas < caps)

    def test_overflowing_feature_products_raise_before_any_step(self):
        X, labels, w = _ipm_problem(2, 20, 2)
        X[3, 0] = 1e200
        with np.errstate(over="ignore"), pytest.raises(DataError, match="gram must be finite"):
            solvers._linear_svm_ipm(X, labels, _caps(w, 0.1)[None])


class TestSimplex:
    def test_maximize_sum_on_simplex(self):
        lp = LinearProgram(
            c=np.array([-1.0, -1.0]),
            G=np.array([[1.0, 1.0]]),
            h=np.array([1.0]),
            senses=("<=",),
            free=np.zeros(2, dtype=bool),
        )
        sol = simplex_solve(lp)
        assert sol.objective == pytest.approx(-1.0, abs=1e-9)
        assert sol.pivots == 1

    def test_equality_and_ge_senses(self):
        # min x1 + 2 x2 s.t. x1 + x2 = 2, x1 >= 0.5 -> x = (2, 0), obj 2
        lp = LinearProgram(
            c=np.array([1.0, 2.0]),
            G=np.array([[1.0, 1.0], [1.0, 0.0]]),
            h=np.array([2.0, 0.5]),
            senses=("=", ">="),
            free=np.zeros(2, dtype=bool),
        )
        sol = simplex_solve(lp)
        assert sol.objective == pytest.approx(2.0, abs=1e-9)
        np.testing.assert_allclose(sol.x, [2.0, 0.0], atol=1e-9)

    def test_free_variable(self):
        # min x (free) s.t. x >= -3 -> x = -3
        lp = LinearProgram(
            c=np.array([1.0]),
            G=np.array([[1.0]]),
            h=np.array([-3.0]),
            senses=(">=",),
            free=np.ones(1, dtype=bool),
        )
        sol = simplex_solve(lp)
        assert sol.objective == pytest.approx(-3.0, abs=1e-9)

    def test_infeasible_raises(self):
        lp = LinearProgram(
            c=np.array([1.0]),
            G=np.array([[1.0], [1.0]]),
            h=np.array([1.0, 3.0]),
            senses=("<=", ">="),
            free=np.zeros(1, dtype=bool),
        )
        with pytest.raises(InfeasibleLPError):
            simplex_solve(lp)

    def test_unbounded_raises(self):
        lp = LinearProgram(
            c=np.array([-1.0]),
            G=np.array([[1.0]]),
            h=np.array([1.0]),
            senses=(">=",),
            free=np.zeros(1, dtype=bool),
        )
        with pytest.raises(UnboundedLPError):
            simplex_solve(lp)
        no_rows = LinearProgram(
            c=np.array([-1.0]),
            G=np.zeros((0, 1)),
            h=np.zeros(0),
            senses=(),
            free=np.zeros(1, dtype=bool),
        )
        with pytest.raises(UnboundedLPError):
            simplex_solve(no_rows)

    def test_degenerate_redundant_constraints(self):
        # duplicated rows exercise the Bland anti-cycling path
        lp = LinearProgram(
            c=np.array([1.0, 1.0]),
            G=np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]]),
            h=np.array([2.0, 2.0, 1.0]),
            senses=(">=", ">=", "<="),
            free=np.zeros(2, dtype=bool),
        )
        sol = simplex_solve(lp)
        assert sol.objective == pytest.approx(2.0, abs=1e-9)

    def test_duplicated_equality_row_keeps_an_artificial_basic_at_zero(
        self, monkeypatch
    ):
        # phase 1 can drive only one of the two artificials on x1 + x2 = 2 out;
        # phase 2 bounds the other at 0 and leaves it basic there
        ends = []
        engine = solvers._bounded_simplex

        def spy(A, cost, upper, rhs, basis):
            x, prices, pivots = engine(A, cost, upper, rhs, basis)
            ends.append((upper.copy(), basis.copy(), x))
            return x, prices, pivots

        monkeypatch.setattr(solvers, "_bounded_simplex", spy)
        lp = LinearProgram(
            c=np.array([1.0, 2.0]),
            G=np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]]),
            h=np.array([2.0, 2.0, 1.5]),
            senses=("=", "=", "<="),
            free=np.zeros(2, dtype=bool),
        )
        sol = simplex_solve(lp)
        np.testing.assert_allclose(sol.x, [1.5, 0.5], atol=1e-12)
        assert sol.objective == pytest.approx(2.5, abs=1e-12)
        assert len(ends) == 2
        upper, basis, x = ends[1]
        pinned = basis[upper[basis] == 0.0]
        assert pinned.size == 1
        assert x[pinned[0]] == 0.0

    def test_dimension_validation(self):
        with pytest.raises(DataError):
            LinearProgram(
                c=np.ones(2),
                G=np.ones((1, 3)),
                h=np.ones(1),
                senses=("<=",),
                free=np.zeros(2, dtype=bool),
            )
        with pytest.raises(DataError):
            LinearProgram(
                c=np.ones(1),
                G=np.ones((1, 1)),
                h=np.ones(1),
                senses=("<",),
                free=np.zeros(1, dtype=bool),
            )

    @pytest.mark.parametrize("free", [["a", "b"], [2, 0], np.ones(2), [True], np.zeros((2, 1), bool)])
    def test_free_must_hold_one_boolean_per_variable(self, free):
        """Not free flags cast from text or numbers, where any non-empty
        string or nonzero number would read as free."""
        with pytest.raises(DataError, match="free"):
            LinearProgram(np.ones(2), np.ones((2, 2)), np.ones(2), ("<=", "<="), free)
        assert LinearProgram(np.ones(2), np.ones((2, 2)), np.ones(2), ("<=", "<="),
                             [True, False]).free.tolist() == [True, False]

    @pytest.mark.parametrize("field", ["c", "G", "h"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, field, bad):
        # NaN or inf data would poison pricing and the ratio test
        data = dict(c=np.ones(1), G=np.ones((1, 1)), h=np.ones(1))
        data[field] = np.full_like(data[field], bad)
        with pytest.raises(DataError, match="finite"):
            LinearProgram(**data, senses=("<=",), free=np.zeros(1, dtype=bool))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_bounded_lp_matches_brute_force(self, seed):
        # tiny LPs checked against vertex enumeration over active-set combos
        import itertools

        rng = np.random.default_rng(seed)
        n, m = 2, 3
        G = rng.normal(size=(m, n))
        x0 = rng.uniform(0, 1, size=n)
        h = G @ x0 + rng.uniform(0.1, 1.0, size=m)
        c = rng.uniform(0.1, 1.0, size=n)
        lp = LinearProgram(c=c, G=G, h=h, senses=("<=",) * m, free=np.zeros(n, bool))
        sol = simplex_solve(lp)
        rows = [(G[i], h[i]) for i in range(m)] + [
            (np.eye(n)[j], 0.0) for j in range(n)
        ]
        best = np.inf
        for combo in itertools.combinations(range(len(rows)), n):
            A = np.array([rows[i][0] for i in combo])
            b = np.array([rows[i][1] for i in combo])
            if abs(np.linalg.det(A)) < 1e-10:
                continue
            x = np.linalg.solve(A, b)
            if np.all(x >= -1e-9) and np.all(G @ x <= h + 1e-9):
                best = min(best, float(c @ x))
        assert sol.objective == pytest.approx(best, abs=1e-8)


@st.composite
def boxed_lps(draw):
    """Small LPs with integer data: mixed senses, free variables, a box on
    every variable, and now and then a moved right-hand side, a duplicated
    row or a contradictory pair of rows."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _boxed_lp(rng, n, m, *(draw(st.booleans()) for _ in range(3)))


def _boxed_lp(rng, n, m, moved, duplicated, contradictory):
    """One boxed LP of boxed_lps, its extra rows switched by the three flags."""
    free = rng.random(n) < 0.4
    G = rng.integers(-3, 4, size=(m, n)).astype(float)
    # rows hold at an integer point x0 unless one right-hand side is moved
    x0 = rng.integers(np.where(free, -2, 0), 3)
    kinds = rng.choice(["<=", ">=", "="], size=m)
    gap = rng.integers(0, 3, size=m)
    h = G @ x0 + np.where(kinds == "<=", gap, 0) - np.where(kinds == ">=", gap, 0)
    senses = list(kinds)
    if moved:
        h[int(rng.integers(m))] += rng.choice([-2, -1, 1, 2])
    if duplicated:
        i = int(rng.integers(m))
        G, h, senses = np.vstack([G, G[i]]), np.append(h, h[i]), senses + [senses[i]]
    if contradictory:
        g = rng.integers(-3, 4, size=n).astype(float)
        t = float(rng.integers(-4, 5))
        G, h = np.vstack([G, g, g]), np.append(h, [t, t + 1.0])
        senses = senses + ["<=", ">="]
    box = np.vstack([np.eye(n), np.eye(n)[free]])
    G = np.vstack([G, box])
    h = np.concatenate([h, np.full(n, 3.0), np.full(int(free.sum()), -3.0)])
    senses = tuple(senses) + ("<=",) * n + (">=",) * int(free.sum())
    c = rng.integers(-3, 4, size=n).astype(float)
    return c, G, h, senses, free


@settings(max_examples=100, deadline=None)
@given(boxed_lps())
def test_simplex_matches_vertex_oracle_on_boxed_lps(case):
    c, G, h, senses, free = case
    lp = LinearProgram(c=c, G=G, h=h, senses=senses, free=free)
    oracle = lp_vertex_oracle(c, G, h, senses, free)
    if oracle is None:
        with pytest.raises(InfeasibleLPError):
            simplex_solve(lp)
        return
    sol = simplex_solve(lp)
    assert sol.objective == pytest.approx(oracle, abs=1e-8)
    slack = G @ sol.x - h
    kinds = np.array(senses)
    assert np.all(slack[kinds == "<="] <= 1e-8)
    assert np.all(slack[kinds == ">="] >= -1e-8)
    assert np.all(np.abs(slack[kinds == "="]) <= 1e-8)
    assert np.all(sol.x[~free] >= -1e-8)


def _primal_l1_fit(X, labels, weights, lam):
    """The L1 hinge fit as its m-row primal LP, solved by the general simplex."""
    p = X.shape[1]
    c, G, h, senses, free = l1_aol_lp_encoding(X, labels, weights, lam)
    sol = simplex_solve(LinearProgram(c=c, G=G, h=h, senses=senses, free=free))
    return sol.x[0], sol.x[1 : 1 + p] - sol.x[1 + p : 1 + 2 * p], sol.objective


def _hinge_objective(X, labels, weights, lam, b0, slopes):
    margins = labels * (b0 + X @ slopes)
    return float(
        np.mean(weights * np.maximum(0.0, 1.0 - margins)) + lam * np.sum(np.abs(slopes))
    )


def _l1_fit(X, labels, weights, lam):
    """The L1 hinge fit of every row at one lambda: solvers._l1_path on a new
    solvers._L1DualLP, solved cold."""
    (sol,) = solvers._l1_path(solvers._L1DualLP(X, labels), weights, (lam,))
    return sol


class TestL1HingeDual:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_primal_simplex_on_random_subproblems(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(20, 301))
        p = int(rng.integers(1, 11))
        X = rng.uniform(-1, 1, size=(m, p))
        labels = np.where(X[:, 0] + rng.normal(scale=0.7, size=m) > 0, 1.0, -1.0)
        weights = rng.uniform(0.05, 3.0, size=m)
        lam = float(rng.uniform(0.002, 0.3))
        b0, slopes, objective = _primal_l1_fit(X, labels, weights, lam)
        sol = _l1_fit(X, labels, weights, lam)
        assert sol.objective == pytest.approx(objective, abs=1e-8)
        assert sol.intercept == pytest.approx(b0, abs=1e-8)
        np.testing.assert_allclose(sol.slopes, slopes, atol=1e-8)
        assert abs(sol.duality_gap) <= 1e-9 * max(1.0, sol.objective)
        assert sol.pivots > 0

    def test_duplicated_rows_and_tied_weights(self, rng):
        base = rng.uniform(-1, 1, size=(12, 3))
        X = np.vstack([base, base, base])
        labels = np.tile(np.where(base[:, 1] > 0, 1.0, -1.0), 3)
        labels[:4] = -labels[:4]  # overlap so the hinge cannot reach zero
        weights = np.ones(36)
        for lam in (0.001, 0.03, 0.3):
            sol = _l1_fit(X, labels, weights, lam)
            _, _, objective = _primal_l1_fit(X, labels, weights, lam)
            assert sol.objective == pytest.approx(objective, abs=1e-8)
            recomputed = _hinge_objective(
                X, labels, weights, lam, sol.intercept, sol.slopes
            )
            assert recomputed == pytest.approx(sol.objective, abs=1e-12)

    def test_bland_rule_alone_reaches_the_same_optimum(self, monkeypatch, rng):
        # a degenerate-run threshold of 0 prices every pivot by Bland's rule
        X = rng.integers(-1, 2, size=(60, 4)).astype(float)
        labels = np.where(X[:, 0] + rng.normal(scale=0.8, size=60) > 0, 1.0, -1.0)
        weights = rng.integers(1, 4, size=60).astype(float)
        dantzig = _l1_fit(X, labels, weights, 0.02)
        monkeypatch.setattr(solvers, "_DEGENERATE_RUN", 0)
        bland = _l1_fit(X, labels, weights, 0.02)
        assert bland.objective == pytest.approx(dantzig.objective, abs=1e-10)
        assert bland.pivots != dantzig.pivots

    def test_one_row_per_class(self):
        X = np.array([[0.5, -1.0], [-0.25, 0.75]])
        labels = np.array([1.0, -1.0])
        for lam in (0.01, 0.5, 5.0):
            weights = np.array([2.0, 1.0])
            sol = _l1_fit(X, labels, weights, lam)
            _, _, objective = _primal_l1_fit(X, labels, weights, lam)
            assert sol.objective == pytest.approx(objective, abs=1e-10)

    @pytest.mark.parametrize("heavier", [1.0, -1.0])
    def test_large_lambda_gives_zero_slopes_and_majority_intercept(self, rng, heavier):
        # at lam >= sum(w)/m * max|x|, beta = 0 and the intercept minimizes the
        # weighted hinge alone: +1 when the positive class weighs more, else -1
        X = rng.uniform(-1, 1, size=(40, 4))
        labels = np.where(np.arange(40) % 2 == 0, 1.0, -1.0)
        weights = np.where(labels == heavier, 1.5, 1.0)
        lam = 2.0 * weights.mean() * np.max(np.abs(X))
        sol = _l1_fit(X, labels, weights, lam)
        np.testing.assert_allclose(sol.slopes, 0.0, atol=1e-12)
        assert sol.intercept == pytest.approx(heavier, abs=1e-12)
        minority = weights[labels != heavier].sum() / 40
        assert sol.objective == pytest.approx(2.0 * minority, abs=1e-12)

    def test_duality_gap_check_raises_with_best_iterate(self, monkeypatch, rng):
        # pricing that stops far from optimal leaves a primal/dual gap
        X = rng.uniform(-1, 1, size=(30, 2))
        labels = np.where(X[:, 0] > 0, 1.0, -1.0)
        weights = rng.uniform(0.5, 1.5, size=30)
        monkeypatch.setattr(solvers, "_LP_TOL", 0.5)
        with pytest.raises(ConvergenceError) as info:
            _l1_fit(X, labels, weights, 0.05)
        assert info.value.best.duality_gap > 1e-9

    def test_input_validation(self):
        X = np.zeros((3, 1))
        with pytest.raises(DataError):
            _l1_fit(X, np.array([1.0, 1.0, 1.0]), np.ones(3), 0.1)
        with pytest.raises(DataError):
            _l1_fit(X, np.array([1.0, -1.0, 1.0]), np.ones(3), 0.0)
        with pytest.raises(DataError):
            _l1_fit(X, np.array([1.0, -1.0, 1.0]), np.zeros(3), 0.1)
        with pytest.raises(DataError):
            _l1_fit(X, np.array([1.0, -1.0]), np.ones(3), 0.1)
        with pytest.raises(DataError, match="complex"):  # not fitted on the real part
            _l1_fit(X, np.array([1.0, -1.0, 1.0]), np.ones(3) + 1j, 0.1)
        with pytest.raises(DataError, match="finite"):
            _l1_fit(X, np.array([1.0, -1.0, 1.0]), np.array([1.0, np.inf, 1.0]), 0.1)

    @pytest.mark.parametrize(
        "lam", ["0.1", None, np.array([0.1]), np.array([0.1, 0.2]), np.nan, -np.inf, True]
    )
    def test_lambda_must_be_a_finite_positive_number(self, monkeypatch, lam):
        def never(*args):
            raise AssertionError("the simplex ran")

        monkeypatch.setattr(solvers, "_simplex_pivots", never)
        X = np.zeros((3, 1))
        with pytest.raises(DataError, match="lam"):
            _l1_fit(X, np.array([1.0, -1.0, 1.0]), np.ones(3), lam)


def _solve(engine, lp):
    """(x, prices, pivots, final basis) of engine on a copy of lp = (A, cost,
    upper, rhs, basis); x, prices and pivots are None when the LP is
    unbounded, and the basis is kept then too, since the engine updates it
    in place."""
    A, cost, upper, rhs, basis = (v.copy() for v in lp)
    try:
        x, prices, pivots = engine(A, cost, upper, rhs, basis)
    except UnboundedLPError:
        return None, None, None, basis
    return x, prices, pivots, basis


def _bits(result):
    return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in result)


class TestBoundedSimplexMatchesVectorLoop:
    """_bounded_simplex against its frozen vectorised predecessor: every pivot
    must be the same, so x, prices, pivots and the final basis agree bit for
    bit, under Dantzig pricing and under Bland's rule from the first pivot."""

    ENGINE = staticmethod(solvers._bounded_simplex)
    PIVOTS = staticmethod(solvers._simplex_pivots)

    @pytest.fixture
    def recorded(self, monkeypatch):
        """Every LP solved, from its cold start: the spy sits on the pivot loop,
        which simplex_solve reaches through _bounded_simplex and an L1 path
        directly; an L1 path's solve (one given at_upper) is recorded from the
        L1 start basis {u_0, slacks}."""
        lps = []

        def spy(A, cost, upper, rhs, basis, at_upper=None):
            start = basis
            if at_upper is not None:
                p = (A.shape[0] - 1) // 2
                start = np.concatenate([[0], A.shape[1] - 2 * p + np.arange(2 * p)])
            lps.append(tuple(v.copy() for v in (A, cost, upper, rhs, start)))
            return self.PIVOTS(A, cost, upper, rhs, basis, at_upper)

        monkeypatch.setattr(solvers, "_simplex_pivots", spy)
        return lps

    def assert_same(self, lps, monkeypatch):
        monkeypatch.undo()  # the replay is not recorded
        for run in (solvers._DEGENERATE_RUN, 0):
            with monkeypatch.context() as patch:
                patch.setattr(solvers, "_DEGENERATE_RUN", run)
                for lp in lps:
                    expected = _bits(_solve(bounded_simplex_vector, lp))
                    assert _bits(_solve(self.ENGINE, lp)) == expected

    @pytest.mark.parametrize("seed", [101, 102])
    def test_l1_dual_lps_of_p1_fits(self, recorded, monkeypatch, seed):
        params = dict(METHOD_PRESETS["sr-linear-l1"])
        params.pop("kind")
        fit_sr(generate(get_setting("P1"), 200, seed), SRConfig(seed=seed, **params))
        assert len(recorded) == 48  # 3 steps x (5 folds x 3 lambdas + 1 refit)
        self.assert_same(recorded, monkeypatch)

    def test_phase_one_and_two_lps_with_duplicated_and_contradictory_rows(
        self, recorded, monkeypatch
    ):
        infeasible = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            c, G, h, senses, free = _boxed_lp(
                rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)),
                moved=seed % 3 == 0, duplicated=True, contradictory=seed % 2 == 0,
            )
            try:
                simplex_solve(LinearProgram(c=c, G=G, h=h, senses=senses, free=free))
            except InfeasibleLPError:
                infeasible += 1
        phase2 = sum(bool((upper == 0).any()) for _, _, upper, _, _ in recorded)
        assert infeasible > 0 and phase2 > 0 and len(recorded) > 40
        self.assert_same(recorded, monkeypatch)

    def test_unbounded_lps(self, recorded, monkeypatch):
        # x0 - x1 <= 1 lets x1 grow once x0 is basic; the no-row LP has no ratio
        for G, senses in ((np.array([[1.0, -1.0]]), ("<=",)), (np.zeros((0, 2)), ())):
            lp = LinearProgram(
                c=np.array([-1.0, -1.0]), G=G, h=np.ones(len(senses)),
                senses=senses, free=np.zeros(2, dtype=bool),
            )
            with pytest.raises(UnboundedLPError):
                simplex_solve(lp)
        self.assert_same(recorded, monkeypatch)
        assert all(_solve(self.ENGINE, lp)[2] is None for lp in recorded)

    @pytest.mark.parametrize("rhs", [[1.0, 2.0], [-1e-12, 0.0]])
    def test_ratio_tie_leaves_by_largest_alpha_or_smallest_index(self, monkeypatch, rhs):
        # entering x0 ties rows 0 and 1 (at step 1, or at 0 when s0 sits a
        # rounding error below its bound); |alpha| = 2 picks row 1, Bland's
        # smallest basis index (s0) picks row 0
        lp = (np.array([[1.0, 1.0, 0.0], [2.0, 0.0, 1.0]]), np.array([-1.0, 0.0, 0.0]),
              np.full(3, np.inf), np.array(rhs), np.array([1, 2]))
        self.assert_same([lp], monkeypatch)
        assert _solve(self.ENGINE, lp)[3].tolist() == [1, 0]
        monkeypatch.setattr(solvers, "_DEGENERATE_RUN", 0)
        assert _solve(self.ENGINE, lp)[3].tolist() == [0, 2]

    def test_bound_flip_wins_a_tie_with_the_ratio(self, monkeypatch):
        # x0's upper bound 1 equals its ratio 1/1, so x0 flips and s stays basic
        lp = (np.array([[1.0, 1.0]]), np.array([-1.0, 0.0]), np.array([1.0, np.inf]),
              np.array([1.0]), np.array([1]))
        self.assert_same([lp], monkeypatch)
        x, _, pivots, basis = _solve(self.ENGINE, lp)
        assert pivots == 1 and basis.tolist() == [1] and x.tolist() == [1.0, 0.0]

    def test_flip_after_flip_reuses_prices(self, monkeypatch):
        # both boxed columns flip to their bounds in turn; the basis never changes
        lp = (np.array([[0.3, 0.7, 1.1]]), np.array([-1.3, -0.9, 0.2]),
              np.array([1.0, 1.0, np.inf]), np.array([2.9]), np.array([2]))
        self.assert_same([lp], monkeypatch)
        x, _, pivots, basis = _solve(self.ENGINE, lp)
        assert pivots == 2 and basis.tolist() == [2] and x[:2].tolist() == [1.0, 1.0]

    def test_no_rows_gives_an_infinite_step(self, monkeypatch):
        # with no row to block it, x0 flips to its bound 2
        lp = (np.zeros((0, 2)), np.array([-1.0, 1.0]), np.array([2.0, np.inf]),
              np.zeros(0), np.zeros(0, dtype=int))
        self.assert_same([lp], monkeypatch)
        x, prices, pivots, _ = _solve(self.ENGINE, lp)
        assert pivots == 1 and prices.size == 0 and x.tolist() == [2.0, 0.0]


def _step(setting, n, seed):
    """The first S-step of a simulated trial: its BinarySubproblem."""
    data = generate(get_setting(setting), n, seed)
    return build_subproblem(data, data.features, (1,), (2, 3), np.arange(data.n))


def _step_problem(setting, n, seed):
    """The first S-step's positive-weight rows: (X, labels, weights)."""
    sub = _step(setting, n, seed)
    keep = sub.weights > 0
    return sub.features[keep], sub.labels[keep].astype(float), sub.weights[keep]


def _path(X, labels, weights, grid):
    """solvers._l1_path with weights on a new LP of X: its solutions."""
    return solvers._l1_path(solvers._L1DualLP(X, labels), weights, grid)


def _same(sol, cold):
    """sol's intercept, slopes (-0 read as 0) and objective equal cold's bit
    for bit.  The duality gap is not compared: where the optimum is
    degenerate (every slope 0 at a large lambda), u is not unique."""
    def key(s):
        return _bits((s.intercept, s.slopes + 0.0, s.objective))

    return key(sol) == key(cold)


def _fold_weights(setting, n, seed, folds=5):
    """The first S-step's LP over all its rows, each CV fold's weights (the
    step's, 0 outside the fold's training rows), as cv_tune draws them, and
    the step's weights."""
    sub = _step(setting, n, seed)
    assign, folds = _stratified_folds(sub.labels, sub.weights, folds, seed)
    weights = [np.where(assign != f, sub.weights, 0.0) for f in range(folds)]
    return solvers._L1DualLP(sub.features, sub.labels), weights, sub.weights


def _cold(lp, weights, lam):
    """_l1_fit on an LP built from the positive-weight rows alone."""
    rows = weights > 0
    return _l1_fit(lp.X[rows], lp.y[rows], weights[rows], lam)


class TestL1Path:
    """solvers._l1_path: each lambda from the LP's latest final basis at it,
    or else the first cold and each later one warm from the previous basis,
    and every fit bit for bit a cold solve's (u and the prices are solved
    from the sorted final basis)."""

    GRIDS = {
        "ascending": (0.002, 0.01, 0.05, 0.25),
        "descending": (0.25, 0.05, 0.01, 0.002),
        "unsorted": (0.05, 0.002, 0.25, 0.01),
        "repeated": (0.01, 0.01, 0.25, 0.25, 0.25, 0.05),
    }

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    @pytest.mark.parametrize("n", [40, 200])
    @pytest.mark.parametrize("setting", ["P1", "N8"])
    def test_every_lambda_matches_a_cold_solve(self, setting, n, grid):
        X, labels, weights = _step_problem(setting, n, seed=n + 7)
        path = _path(X, labels, weights, grid)
        assert len(path) == len(grid)
        for k, (lam, warm) in enumerate(zip(grid, path)):
            cold = _l1_fit(X, labels, weights, lam)
            if k == 0:  # the first lambda is the cold solve itself
                assert _bits(astuple(warm)) == _bits(astuple(cold))
            assert _same(warm, cold)
            if k and lam == grid[k - 1]:  # the previous final basis is optimal already
                assert warm.pivots == 0

    def test_warm_solves_take_fewer_pivots(self):
        X, labels, weights = _step_problem("P1", 200, seed=101)
        grid = self.GRIDS["ascending"]
        warm = sum(sol.pivots for sol in _path(X, labels, weights, grid)[1:])
        cold = sum(_l1_fit(X, labels, weights, lam).pivots for lam in grid[1:])
        assert 0 < warm < cold / 2

    @pytest.mark.parametrize("n", [40, 200])
    @pytest.mark.parametrize("setting", ["P1", "N8"])
    def test_folds_and_refit_started_from_other_row_sets_match_cold_solves(self, setting, n):
        """As in cv_tune: fold 0 walks the grid from a cold start, each later
        fold starts every lambda from the previous fold's basis at that
        lambda, and the refit on all rows from the last fold's basis at its
        lambda; all match cold solves on their rows in fewer pivots."""
        lp, folds, everyone = _fold_weights(setting, n, seed=n + 7)
        grid = self.GRIDS["unsorted"]
        for f, weights in enumerate(folds):
            path = solvers._l1_path(lp, weights, grid)
            colds = [_cold(lp, weights, lam) for lam in grid]
            assert all(_same(sol, cold) for sol, cold in zip(path, colds))
            warm = sum(sol.pivots for sol in path[f == 0 :])
            assert warm < sum(cold.pivots for cold in colds[f == 0 :])
        for lam in grid:
            (refit,) = solvers._l1_path(lp, everyone, (lam,))
            cold = _cold(lp, everyone, lam)
            assert _same(refit, cold) and refit.pivots < cold.pivots

    def test_each_lambda_starts_from_the_latest_basis_at_it(self, monkeypatch):
        """A lambda an earlier call solved starts from that call's final
        basis at it; one no call has solved continues from the previous
        lambda's final basis, or starts cold when it comes first.  The LP
        then holds the latest final basis at every lambda."""
        lp, folds, _ = _fold_weights("P1", 200, seed=101)
        grid = self.GRIDS["ascending"]
        solvers._l1_path(lp, folds[0], grid[3:0:-2])  # 0.25, then 0.01
        before = {lam: start[0].tolist() for lam, start in lp.starts.items()}
        engine, seen = solvers._simplex_pivots, []

        def recorded(A, cost, upper, rhs, basis, at_upper):
            seen.append(basis.tolist())
            return engine(A, cost, upper, rhs, basis, at_upper)

        monkeypatch.setattr(solvers, "_simplex_pivots", recorded)
        path = solvers._l1_path(lp, folds[1], grid)
        after = {lam: start[0].tolist() for lam, start in lp.starts.items()}
        n, p = lp.y.size, lp.X.shape[1]
        assert seen[0] == [int(np.flatnonzero(folds[1])[0]), *range(n, n + 2 * p)]  # cold
        assert seen[1] == before[grid[1]]
        assert seen[2] == after[grid[1]]  # the previous lambda's final basis
        assert seen[3] == before[grid[3]]
        assert sorted(after) == sorted(grid)
        monkeypatch.undo()
        for lam, sol in zip(grid, path):
            assert _same(sol, _cold(lp, folds[1], lam))

    def test_dual_pivots_drive_out_the_rows_a_new_row_set_leaves_out(self, monkeypatch):
        # fold 0's final basis holds u's of fold 1's held-out rows, strictly
        # inside their bounds; their upper bound is 0 in fold 1, so they start
        # above it and leave, and every u basic at the end is one of fold 1's
        lp, folds, _ = _fold_weights("P1", 200, seed=101)
        vertex, solved = solvers._vertex, []

        def recorded(*args):
            solved.append(vertex(*args))
            return solved[-1]

        monkeypatch.setattr(solvers, "_vertex", recorded)
        solvers._l1_path(lp, folds[0], (0.05,))
        monkeypatch.undo()
        n, rows = lp.y.size, set(np.flatnonzero(folds[1]).tolist())
        out = [j for j in lp.starts[0.05][0].tolist() if j < n and j not in rows]
        assert out and np.all(solved[0][0][out] > 1e-9)
        (sol,) = solvers._l1_path(lp, folds[1], (0.05,))
        final = lp.starts[0.05][0].tolist()
        assert not set(out) & set(final)
        assert set(j for j in final if j < n) <= rows
        assert _same(sol, _cold(lp, folds[1], 0.05)) and sol.pivots > 0

    @pytest.mark.parametrize("fault", ["no-entering-column", "duality-gap"])
    def test_a_failed_warm_solve_is_solved_again_cold(self, monkeypatch, fault):
        """Every warm start fails: each later lambda of fold 0, each lambda of
        fold 1 (from fold 0's basis at that lambda) and the refit (from fold
        1's basis) is solved again cold, and all of them match cold solves."""
        lp, folds, everyone = _fold_weights("N8", 200, seed=3)
        grid = self.GRIDS["unsorted"]
        pivots, vertex, starts = solvers._simplex_pivots, solvers._vertex, []

        def faulty(A, cost, upper, rhs, basis, at_upper):
            slacks = list(range(A.shape[1] - (A.shape[0] - 1), A.shape[1]))
            first_row = int((upper > 0).argmax())  # the cold start's basic u
            cold = basis.tolist() == [first_row, *slacks] and not at_upper.any()
            starts.append("cold" if cold else "warm")
            if not cold and fault == "no-entering-column":
                raise InfeasibleLPError("no column can bring a basic variable back")
            return pivots(A, cost, upper, rhs, basis, at_upper)

        def halved(*args):  # a warm solve's u is off by half: a duality gap
            x, prices = vertex(*args)
            return (x * 0.5 if starts[-1] == "warm" else x), prices

        monkeypatch.setattr(solvers, "_simplex_pivots", faulty)
        monkeypatch.setattr(solvers, "_vertex", halved)
        fold0 = solvers._l1_path(lp, folds[0], grid)
        fold1 = solvers._l1_path(lp, folds[1], grid)
        (refit,) = solvers._l1_path(lp, everyone, grid[:1])
        tries = ["cold"] + ["warm", "cold"] * (len(grid) - 1)
        assert starts == tries + ["warm", "cold"] * len(grid) + ["warm", "cold"]
        monkeypatch.undo()
        for weights, path in ((folds[0], fold0), (folds[1], fold1), (everyone, [refit])):
            for lam, sol in zip(grid, path):
                assert _bits(astuple(sol)) == _bits(astuple(_cold(lp, weights, lam)))

    def test_duplicated_rows_under_the_smallest_index_rule(self, monkeypatch, rng):
        # a degenerate-run threshold of 0 runs both phases by Bland's rule from
        # the first pivot, on an LP whose tripled rows make many pivots degenerate
        base = rng.uniform(-1, 1, size=(12, 3))
        X = np.vstack([base, base, base])
        labels = np.tile(np.where(base[:, 1] > 0, 1.0, -1.0), 3)
        labels[:4] = -labels[:4]
        weights = np.ones(36)
        grid = (0.3, 0.001, 0.03, 0.001)
        monkeypatch.setattr(solvers, "_DEGENERATE_RUN", 0)
        path = _path(X, labels, weights, grid)
        assert all(sol.pivots > 0 for sol in path[1:3])
        monkeypatch.undo()
        for lam, sol in zip(grid, path):
            _, _, objective = _primal_l1_fit(X, labels, weights, lam)
            assert sol.objective == pytest.approx(objective, abs=1e-10)
            assert abs(sol.duality_gap) <= 1e-9 * max(1.0, sol.objective)


def _warm_simplex(A, cost, upper, rhs, basis, at_upper):
    """The simplex from a warm start: the pivot loop, then the final vertex,
    as an L1 path runs them.  Returns (x, prices, pivots)."""
    at_upper, pivots = solvers._simplex_pivots(A, cost, upper, rhs, basis, at_upper)
    return (*solvers._vertex(A, cost, upper, rhs, basis, at_upper), pivots)


class TestDualPhase:
    """Hand-sized warm starts of the simplex whose dual pivots are known.

    One row x0 + x1 + x2 + s = b with costs (-3, -2, -1, 0), x0..x2 in [0, 1]
    and s >= 0: the optimum fills the cheapest variables first, and every
    reduced cost below follows from the one basic variable's cost.
    """

    A = np.array([[1.0, 1.0, 1.0, 1.0]])
    COST = np.array([-3.0, -2.0, -1.0, 0.0])
    UPPER = np.array([1.0, 1.0, 1.0, np.inf])

    def solve(self, b, basis, at_upper):
        basis, at_upper = np.array(basis), np.array(at_upper)
        x, prices, pivots = _warm_simplex(
            self.A, self.COST, self.UPPER, np.array([b]), basis, at_upper
        )
        return x.tolist(), prices.tolist(), pivots, basis.tolist(), at_upper.tolist()

    def test_one_dual_pivot_takes_the_smallest_ratio(self):
        # from b = 2.5's optimum (x2 basic, x0 and x1 at 1) b falls to 1.5, so
        # x2 = -0.5.  x0 (|d/rho| = 2) and x1 (|d/rho| = 1) can raise it; x1
        # enters at 0.5 and the vertex is optimal.  Had x0 entered, a primal
        # pivot would have been needed too.
        got = self.solve(1.5, [2], [True, True, False, False])
        assert got == ([1.0, 0.5, 0.0, 0.0], [-2.0], 1, [1], [True, False, False, False])

    def test_an_entering_column_may_overshoot_and_leave_next(self):
        # at b = 0.5, x1 enters as above but at -0.5; only x0 can then raise it
        got = self.solve(0.5, [2], [True, True, False, False])
        assert got == ([0.5, 0.0, 0.0, 0.0], [-3.0], 2, [0], [False, False, False, False])

    def test_a_basic_variable_above_its_upper_bound_leaves_at_it(self):
        # from b = 0.5's optimum b rises to 2.5: x0 = 2.5 leaves at 1 for x1
        # (ratio 1 of x1, x2, s = 1, 2, 3), x1 = 1.5 then leaves at 1 for x2
        got = self.solve(2.5, [0], [False, False, False, False])
        assert got == ([1.0, 1.0, 0.5, 0.0], [-1.0], 2, [2], [True, True, False, False])

    @pytest.mark.parametrize("run, pivots, x", [(50, 1, [1.0, 0.0, 0.0]), (0, 2, [0.0, 0.5, 0.0])])
    def test_a_ratio_tie_enters_by_largest_row_entry_or_smallest_index(
        self, monkeypatch, run, pivots, x
    ):
        # min -x0 - 2x1 s.t. x0 + 2x1 + s = 1 from the basis {s}, x0 and x1 at
        # 1: s = -2, and x0 and x1 tie at |d/rho| = 1.  x1 (|rho| = 2) enters
        # at 0 and is optimal; under Bland's rule x0 enters at -1 and leaves
        # for x1 at 0.5, a vertex of the same objective
        monkeypatch.setattr(solvers, "_DEGENERATE_RUN", run)
        A = np.array([[1.0, 2.0, 1.0]])
        cost, upper = np.array([-1.0, -2.0, 0.0]), np.array([1.0, 1.0, np.inf])
        basis, at_upper = np.array([2]), np.array([True, True, False])
        got = _warm_simplex(A, cost, upper, np.array([1.0]), basis, at_upper)
        assert got[2] == pivots and basis.tolist() == [1] and got[0].tolist() == x

    def test_no_column_can_restore_the_bound(self):
        # b = -1 with every variable at 0: s = -1 and nothing can raise it
        with pytest.raises(InfeasibleLPError):
            self.solve(-1.0, [3], [False, False, False, False])

    # two rows, x0 + s0 = 0.5 and x0 + x1 + s1 = 1, costs (-1, -2, 0, 0), x0
    # and x1 in [0, 1] and both at 1: s0 = -0.5 and s1 = -1 leave their bounds
    TWO_ROWS = (np.array([[1.0, 0.0, 1.0, 0.0], [1.0, 1.0, 0.0, 1.0]]),
                np.array([-1.0, -2.0, 0.0, 0.0]), np.array([1.0, 1.0, np.inf, np.inf]))

    @pytest.mark.parametrize("run, pivots, basis", [(50, 1, [2, 0]), (0, 2, [0, 2])])
    def test_the_leaving_row_is_the_largest_violation_or_the_smallest_index(
        self, monkeypatch, run, pivots, basis
    ):
        # Dantzig: s1 (violation 1) leaves, x0 (|d/rho| 1 against x1's 2)
        # enters at 0 and lifts s0 to 0.5 on the way.  Bland: s0 (basis index
        # 2 < 3) leaves first, x0 enters at 0.5, s1 = -0.5 then leaves for s0
        monkeypatch.setattr(solvers, "_DEGENERATE_RUN", run)
        A, cost, upper = self.TWO_ROWS
        start, at_upper = np.array([2, 3]), np.array([True, True, False, False])
        x, _, got = _warm_simplex(A, cost, upper, np.array([0.5, 1.0]), start, at_upper)
        assert got == pivots and start.tolist() == basis
        assert x.tolist() == [0.0, 1.0, 0.5, 0.0]

    @pytest.mark.parametrize("seed", range(40))
    def test_the_row_scan_matches_the_python_float_scan(self, seed):
        # basic values inside, below and above their bounds, on a coarse grid
        # so that violations tie, within _LP_TOL of a bound, NaN and -inf; an
        # infinite upper bound in half the rows (+inf only at a finite one,
        # since inf - inf warns)
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 12))
        upper = np.where(rng.random(rows) < 0.5, np.inf, rng.integers(0, 3, rows) / 2.0)
        xB = rng.integers(-4, 8, rows) / 4.0
        kind = rng.integers(0, 8, rows)
        xB[kind == 0] = np.nan
        xB[kind == 1] = -np.inf
        xB[(kind == 2) & np.isfinite(upper)] = np.inf
        xB[kind == 3] = -0.5e-9
        basis = rng.permutation(3 * rows)[:rows]
        for bland in (False, True):
            got = solvers._leaving_row(xB, upper, basis, bland)
            assert got == leaving_row_list(xB, upper, basis, bland)

    def test_a_nan_basic_value_never_leaves(self):
        # rows 0 and 2 violate by 2; NaN rows 1 and 3 are passed over, and the
        # first (Dantzig) or the smaller basis index (Bland: row 2) leaves
        xB = np.array([-2.0, np.nan, 3.0, np.nan])
        upper, basis = np.array([np.inf, 1.0, 1.0, np.inf]), np.array([7, 0, 4, 1])
        assert solvers._leaving_row(xB, upper, basis, False) == 0
        assert solvers._leaving_row(xB, upper, basis, True) == 2
        assert solvers._leaving_row(np.full(3, np.nan), np.ones(3), basis[:3], True) == -1
