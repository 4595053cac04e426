"""Tests for kernel evaluation, Gram matrices, and the median bandwidth heuristic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _oracles import kernel_eval
from ordinalsr.exceptions import DataError
from ordinalsr.kernels import KernelSpec, gram_matrix, median_bandwidth

finite_matrix = arrays(
    dtype=float,
    shape=st.tuples(st.integers(2, 8), st.integers(1, 4)),
    elements=st.floats(min_value=-10, max_value=10),
)


class TestKernelSpec:
    def test_gaussian_requires_bandwidth(self):
        with pytest.raises(DataError):
            KernelSpec("gaussian")
        with pytest.raises(DataError):
            KernelSpec("gaussian", 0.0)

    @pytest.mark.parametrize("bandwidth", ["x", "0.5", True, [0.5], 1j, np.nan, 1e200, 1e-170])
    def test_bandwidth_must_be_a_real_number_with_a_finite_square(self, bandwidth):
        with pytest.raises(DataError, match="bandwidth"):
            KernelSpec("gaussian", bandwidth)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataError):
            KernelSpec("polynomial")


class TestKernelEval:
    def test_linear_is_dot_product(self):
        assert kernel_eval(KernelSpec("linear"), [1.0, 2.0], [3.0, -1.0]) == 1.0

    def test_gaussian_at_zero_distance(self):
        assert kernel_eval(KernelSpec("gaussian", 0.7), [1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_gaussian_known_value(self):
        # distance^2 = 2, sigma = 1 -> exp(-1)
        val = kernel_eval(KernelSpec("gaussian", 1.0), [0.0, 0.0], [1.0, 1.0])
        assert val == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            kernel_eval(KernelSpec("linear"), [1.0], [1.0, 2.0])


class TestGramMatrix:
    def test_matches_pairwise_eval(self, rng):
        A = rng.normal(size=(4, 3))
        B = rng.normal(size=(5, 3))
        for spec in (KernelSpec("linear"), KernelSpec("gaussian", 0.9)):
            G = gram_matrix(spec, A, B)
            assert G.shape == (4, 5)
            for i in range(4):
                for j in range(5):
                    assert G[i, j] == pytest.approx(
                        kernel_eval(spec, A[i], B[j]), abs=1e-12
                    )

    @settings(max_examples=40, deadline=None)
    @given(finite_matrix, st.floats(min_value=0.1, max_value=5.0))
    def test_gaussian_gram_symmetric_psd(self, X, sigma):
        G = gram_matrix(KernelSpec("gaussian", sigma), X, X)
        np.testing.assert_allclose(G, G.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(G), 1.0, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(G)) >= -1e-8

    def test_gaussian_values_in_unit_interval(self, rng):
        X = rng.normal(size=(6, 2))
        G = gram_matrix(KernelSpec("gaussian", 0.5), X, X)
        assert np.all(G > 0) and np.all(G <= 1.0 + 1e-15)

    def test_column_mismatch(self):
        with pytest.raises(DataError):
            gram_matrix(KernelSpec("linear"), np.zeros((2, 2)), np.zeros((2, 3)))


class TestMedianBandwidth:
    def test_known_small_case(self):
        X = np.array([[0.0], [1.0], [3.0]])
        # pairwise distances 1, 3, 2 -> median 2
        assert median_bandwidth(X) == pytest.approx(2.0)

    def test_deterministic_under_seed(self, rng):
        X = rng.normal(size=(1500, 3))
        assert median_bandwidth(X, seed=7) == median_bandwidth(X, seed=7)

    def test_subsample_close_to_full_median(self, rng):
        X = rng.normal(size=(1500, 2))
        sub = median_bandwidth(X, seed=0)
        full_sq = (
            np.sum(X**2, axis=1)[:, None]
            + np.sum(X**2, axis=1)[None, :]
            - 2 * X @ X.T
        )
        iu = np.triu_indices(X.shape[0], k=1)
        full = float(np.median(np.sqrt(np.maximum(full_sq[iu], 0))))
        assert abs(sub - full) / full < 0.05

    def test_identical_rows_rejected(self):
        with pytest.raises(DataError):
            median_bandwidth(np.ones((5, 2)))

    def test_needs_two_rows(self):
        with pytest.raises(DataError):
            median_bandwidth(np.ones((1, 2)))

    @pytest.mark.parametrize("seed", ["x", -1, 1.5, True, None])
    @pytest.mark.parametrize("n", [5, 1200], ids=["all-rows", "subsampled"])
    def test_seed_must_be_an_integer_of_at_least_zero(self, rng, seed, n):
        """Checked whether or not the row count calls for a subsample."""
        with pytest.raises(DataError, match="seed"):
            median_bandwidth(rng.uniform(-1, 1, size=(n, 2)), seed=seed)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [5, 1200], ids=["all-rows", "subsampled"])
    def test_non_finite_row_rejected(self, rng, bad, n):
        """A NaN or infinite entry is a DataError, not a nan bandwidth, also
        where the subsample would leave its row out."""
        X = rng.uniform(-1, 1, size=(n, 2))
        X[n - 1, 1] = bad
        with pytest.raises(DataError, match="finite"):
            median_bandwidth(X, seed=0)
