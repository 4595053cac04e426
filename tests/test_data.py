"""Tests for trial containers, CSV round-trips, and covariate scaling."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordinalsr.data import (
    ScalingParams,
    TrialDataset,
    apply_scaling,
    compute_utility,
    fit_scaling,
    load_csv,
    save_csv,
)
from ordinalsr.exceptions import DataError, OrdinalSRError


def _toy(n=6, p=3, k=3, seed=0, with_prop=True, with_opt=True):
    rng = np.random.default_rng(seed)
    return TrialDataset(
        features=rng.normal(size=(n, p)),
        treatment=rng.integers(1, k + 1, size=n),
        outcome=rng.normal(size=n),
        k_arms=k,
        propensity=np.full(n, 1.0 / k) if with_prop else None,
        true_optimal=rng.integers(1, k + 1, size=n) if with_opt else None,
    )


class TestTrialDataset:
    def test_basic_properties(self):
        d = _toy(n=7, p=4)
        assert d.n == 7
        assert d.p == 4
        assert d.feature_names == ("x1", "x2", "x3", "x4")

    def test_arrays_are_readonly(self):
        d = _toy()
        with pytest.raises(ValueError):
            d.features[0, 0] = 99.0
        with pytest.raises(ValueError):
            d.treatment[0] = 2

    @pytest.mark.parametrize(
        "names", [("a", "y"), ("x1", "prop"), ("d_star", "x2"), ("x", "x")]
    )
    def test_reserved_or_repeated_feature_names_rejected(self, names):
        with pytest.raises(DataError, match="feature names"):
            TrialDataset(np.zeros((3, 2)), [1, 2, 3], np.zeros(3), 3, feature_names=names)

    def test_treatment_out_of_range_rejected(self):
        with pytest.raises(DataError):
            TrialDataset(
                features=np.zeros((3, 1)),
                treatment=np.array([1, 2, 4]),
                outcome=np.zeros(3),
                k_arms=3,
            )
        with pytest.raises(DataError):
            TrialDataset(
                features=np.zeros((3, 1)),
                treatment=np.array([0, 1, 2]),
                outcome=np.zeros(3),
                k_arms=3,
            )

    @pytest.mark.parametrize("k", [3.5, 3.0, True, 1, "3", None])
    def test_k_arms_must_be_an_integer_of_at_least_two(self, k):
        with pytest.raises(DataError, match="k_arms"):
            TrialDataset(np.zeros((3, 1)), [1, 1, 2], np.zeros(3), k)

    @pytest.mark.parametrize("field", ["treatment", "true_optimal"])
    @pytest.mark.parametrize(
        "labels",
        [[1.5, 2.9, 1.0], [np.nan, 1, 2], [np.inf, 1, 2], [1e30, 1, 2], ["x", 1, 2],
         [2**70, 1, 2], [None, 1, 2]],
    )
    def test_labels_must_be_whole_numbers(self, field, labels):
        # a fraction is refused, not truncated to an arm
        arms = dict(treatment=[1, 2, 1], true_optimal=[1, 2, 2])
        arms[field] = labels
        with pytest.raises(DataError, match=field):
            TrialDataset(np.zeros((3, 1)), outcome=np.zeros(3), k_arms=3, **arms)

    def test_whole_float_labels_accepted(self):
        d = TrialDataset(np.zeros((3, 1)), [1.0, 3.0, 2.0], np.zeros(3), 3,
                         true_optimal=np.array([2.0, 2.0, 1.0]))
        assert d.treatment.tolist() == [1, 3, 2] and d.true_optimal.tolist() == [2, 2, 1]

    def test_numpy_integer_k_arms_accepted(self):
        d = TrialDataset(np.zeros((3, 1)), [1, 1, 2], np.zeros(3), np.int64(2))
        assert d.k_arms == 2

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            TrialDataset(
                features=np.array([[np.nan]]),
                treatment=np.array([1]),
                outcome=np.zeros(1),
                k_arms=2,
            )
        with pytest.raises(DataError):
            TrialDataset(
                features=np.zeros((1, 1)),
                treatment=np.array([1]),
                outcome=np.array([np.inf]),
                k_arms=2,
            )

    @pytest.mark.parametrize("field", ["features", "outcome", "propensity"])
    def test_non_numeric_values_raise_data_error(self, field):
        values = dict(features=np.zeros((3, 1)), outcome=np.zeros(3), propensity=None)
        values[field] = [["a"], ["b"], ["c"]] if field == "features" else ["1.0", "x", "2"]
        with pytest.raises(DataError, match="must be numbers"):
            TrialDataset(treatment=[1, 1, 2], k_arms=2, **values)

    @pytest.mark.parametrize("field", ["features", "treatment", "outcome", "propensity"])
    def test_complex_values_raise_data_error(self, field):
        """The float cast would drop the imaginary part with only a warning."""
        values = dict(features=np.zeros((3, 1)), treatment=np.array([1, 1, 2]),
                      outcome=np.zeros(3), propensity=np.full(3, 0.5))
        values[field] = values[field] + 1j
        with pytest.raises(DataError, match="not complex"):
            TrialDataset(k_arms=2, **values)

    def test_bad_propensity_rejected(self):
        for bad in ([0.0, 0.5, 0.5], [0.5, 0.5, 1.5], [np.nan, 0.5, 0.5]):
            with pytest.raises(DataError):
                TrialDataset(
                    features=np.zeros((3, 1)),
                    treatment=np.array([1, 1, 2]),
                    outcome=np.zeros(3),
                    k_arms=2,
                    propensity=np.array(bad),
                )

    def test_effective_propensity_defaults_uniform(self):
        d = _toy(k=3, with_prop=False)
        np.testing.assert_allclose(d.effective_propensity(), 1.0 / 3.0)

    def test_relabel_reversed_is_involution(self):
        d = _toy(k=4)
        back = d.relabel_reversed().relabel_reversed()
        np.testing.assert_array_equal(back.treatment, d.treatment)
        np.testing.assert_array_equal(back.true_optimal, d.true_optimal)

    def test_relabel_reversed_maps_ends(self):
        d = _toy(k=3)
        rev = d.relabel_reversed()
        np.testing.assert_array_equal(rev.treatment, 4 - d.treatment)


# CSV fields for the fuzz test: names of the format, numbers at and past the
# edges, one past the csv module's field size limit, quotes and separators, and
# free text
_CSV_FIELDS = st.sampled_from(
    ["a", "y", "prop", "d_star", "x1", "x2", "", " ", "0", "1", "2", "3", "-1", "0.5", "1.0",
     "1e308", "1e400", "-0", "1e-320", "nan", "inf", "-inf", "2.5", "9007199254740993",
     "1_0", '"', '""', '"1"', "\r", "\t", "\x00", "9" * 131_073]
) | st.text(max_size=8)
_CSV_TEXT = st.lists(st.lists(_CSV_FIELDS, max_size=6), max_size=8).flatmap(
    lambda rows: st.sampled_from(["\n", "\r\n", "\r"]).map(
        lambda eol: eol.join(",".join(row) for row in rows)
    )
) | st.text()


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        d = _toy(n=9, p=2, seed=3)
        path = tmp_path / "trial.csv"
        save_csv(d, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.features, d.features)
        np.testing.assert_array_equal(back.treatment, d.treatment)
        np.testing.assert_array_equal(back.outcome, d.outcome)
        np.testing.assert_array_equal(back.propensity, d.propensity)
        np.testing.assert_array_equal(back.true_optimal, d.true_optimal)

    def test_round_trip_byte_identical(self, tmp_path):
        d = _toy(n=5, p=2, seed=9)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(d, p1)
        save_csv(load_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_feature_names_with_commas_and_quotes_round_trip(self, tmp_path):
        d = _toy(n=4, p=2, seed=5)
        d = TrialDataset(d.features, d.treatment, d.outcome, d.k_arms,
                         feature_names=("a,b", 'c"d'))
        path = tmp_path / "t.csv"
        save_csv(d, path)
        back = load_csv(path)
        assert back.feature_names == ("a,b", 'c"d')
        np.testing.assert_array_equal(back.features, d.features)
        assert path.read_text().splitlines()[0] == '"a,b","c""d",a,y'

    def test_feature_names_with_surrounding_spaces_round_trip(self, tmp_path):
        d = _toy(n=4, p=2, seed=6)
        d = TrialDataset(d.features, d.treatment, d.outcome, d.k_arms,
                         feature_names=(" x", "x "))
        path = tmp_path / "t.csv"
        save_csv(d, path)
        back = load_csv(path)
        assert back.feature_names == (" x", "x ")
        np.testing.assert_array_equal(back.features, d.features)

    @pytest.mark.parametrize("header", ["x,x,a,y", "x,a,a,y", "x,a,y,y"])
    def test_repeated_header_name_raises_data_error(self, tmp_path, header):
        path = tmp_path / "t.csv"
        path.write_text(f"{header}\n0.1,1,2,2.0\n0.3,2,1,1.0\n")
        with pytest.raises(DataError, match="twice"):
            load_csv(path)

    def test_no_numpy_reprs_in_file(self, tmp_path):
        d = _toy(n=4)
        path = tmp_path / "t.csv"
        save_csv(d, path)
        assert "np.float64" not in path.read_text()

    def test_optional_columns_absent(self, tmp_path):
        d = _toy(with_prop=False, with_opt=False)
        path = tmp_path / "t.csv"
        save_csv(d, path)
        back = load_csv(path)
        assert back.propensity is None
        assert back.true_optimal is None

    def test_k_arms_defaults_to_max_label(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x1,a,y\n0.1,1,2.0\n0.2,3,1.0\n")
        assert load_csv(path).k_arms == 3
        assert load_csv(path, k_arms=5).k_arms == 5

    def test_malformed_rows_raise(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x1,a,y\n0.1,1\n")
        with pytest.raises(DataError):
            load_csv(path)
        path.write_text("x1,a,y\n0.1,1.5,2.0\n")
        with pytest.raises(DataError):
            load_csv(path)
        path.write_text("x1,y\n0.1,2.0\n")
        with pytest.raises(DataError):
            load_csv(path)
        path.write_text("")
        with pytest.raises(DataError):
            load_csv(path)

    def test_non_utf8_field_raises_data_error(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"x1,a,y\n\xff,1,2.0\n")
        with pytest.raises(DataError, match="UTF-8"):
            load_csv(path)

    def test_crlf_line_endings_still_read(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"x1,a,y\r\n0.5,1,2.0\r\n0.25,3,1.0\r\n")
        data = load_csv(path)
        np.testing.assert_array_equal(data.features[:, 0], [0.5, 0.25])
        np.testing.assert_array_equal(data.treatment, [1, 3])

    @pytest.mark.parametrize("column", ["a", "d_star"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e300", "2.5"])
    def test_nonfinite_or_huge_labels_raise_data_error(self, tmp_path, column, value):
        row = {"a": "1", "d_star": "2"}
        row[column] = value
        path = tmp_path / "t.csv"
        path.write_text(f"x1,a,y,d_star\n0.1,{row['a']},2.0,{row['d_star']}\n")
        with pytest.raises(DataError):
            load_csv(path)

    @settings(max_examples=400, deadline=None)
    @given(_CSV_TEXT)
    def test_fuzzed_text_loads_or_raises_typed_errors(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_bytes(text.encode("utf-8"))
            try:
                load_csv(path)
            except OrdinalSRError:
                pass

    def test_field_past_csv_size_limit_raises_data_error(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('x1,a,y\n"' + "1" * 131_073 + '",1,2.0\n')
        with pytest.raises(DataError, match="field larger"):
            load_csv(path)

    def test_reverse_arms_flag(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x1,a,y\n0.1,1,2.0\n0.2,3,1.0\n")
        rev = load_csv(path, reverse_arms=True)
        np.testing.assert_array_equal(rev.treatment, [3, 1])


class TestScaling:
    def test_min_max_map_to_unit_interval_ends(self):
        X = np.array([[0.0, -3.0], [2.0, 5.0], [1.0, 1.0]])
        params = fit_scaling(X)
        Z = apply_scaling(params, X)
        np.testing.assert_allclose(Z.min(axis=0), -1.0)
        np.testing.assert_allclose(Z.max(axis=0), 1.0)

    def test_degenerate_column_maps_to_zero(self):
        X = np.array([[1.0, 2.0], [1.0, 4.0]])
        params = fit_scaling(X)
        Z = apply_scaling(params, np.array([[1.0, 3.0], [7.0, 3.0]]))
        np.testing.assert_allclose(Z[:, 0], 0.0)

    def test_degenerate_is_read_from_the_bounds(self):
        params = ScalingParams(mins=np.array([1.0, 0.0]), maxs=np.array([1.0, 2.0]))
        np.testing.assert_array_equal(params.degenerate, [True, False])
        np.testing.assert_array_equal(apply_scaling(params, [[5.0, 1.0]]), [[0.0, 0.0]])
        with pytest.raises(TypeError):  # no longer settable apart from the bounds
            ScalingParams(mins=np.ones(1), maxs=np.ones(1), degenerate=np.array([False]))

    @pytest.mark.parametrize(
        "mins, maxs",
        [([np.nan, 0.0], [np.nan, np.inf]), ([0.0], [np.inf]), ([-np.inf], [0.0]),
         ([0.0, np.nan], [1.0, 1.0]), ([0.0], [np.nan])],
        ids=["nan-and-inf", "inf-max", "minus-inf-min", "nan-min", "nan-max"],
    )
    def test_non_finite_bounds_raise(self, mins, maxs):
        # a NaN bound passes the maxs < mins check; apply_scaling then returned NaN
        with pytest.raises(DataError, match="finite"):
            ScalingParams(mins=np.array(mins), maxs=np.array(maxs))

    def test_out_of_range_not_clipped(self):
        params = ScalingParams(mins=np.array([0.0]), maxs=np.array([1.0]))
        Z = apply_scaling(params, np.array([[2.0]]))
        assert Z[0, 0] == pytest.approx(3.0)

    def test_dimension_mismatch(self):
        params = ScalingParams(mins=np.zeros(2), maxs=np.ones(2))
        with pytest.raises(DataError):
            apply_scaling(params, np.zeros((3, 3)))

    @pytest.mark.parametrize(
        "rows, match",
        [([[0.0, np.nan]], "non-finite"), ([[np.inf, 0.0], [0.0, 0.0]], "non-finite"),
         ([-np.inf, 0.0], "non-finite"), (np.zeros((2, 2, 2)), "features"),
         ([["a", "b"]], "must be numbers"), (np.zeros((1, 2)) + 1j, "not complex")],
    )
    def test_rows_must_be_finite_numbers_of_the_right_shape(self, rows, match):
        params = ScalingParams(mins=np.zeros(2), maxs=np.ones(2))
        with pytest.raises(DataError, match=match):
            apply_scaling(params, rows)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6),
            min_size=2,
            max_size=12,
        )
    )
    def test_affine_map_invertible(self, values):
        X = np.array(values)[:, None]
        params = fit_scaling(X)
        Z = apply_scaling(params, X)
        if params.degenerate[0]:
            np.testing.assert_allclose(Z[:, 0], 0.0)
            return
        span = params.maxs[0] - params.mins[0]
        back = (Z[:, 0] + 1.0) / 2.0 * span + params.mins[0]
        np.testing.assert_allclose(back, X[:, 0], rtol=1e-9, atol=1e-6)


class TestUtility:
    def test_linear_tradeoff(self):
        np.testing.assert_allclose(
            compute_utility([3.0, 1.0], [1.0, 2.0], b=0.5), [2.5, 0.0]
        )

    def test_zero_tradeoff_ignores_risk(self):
        np.testing.assert_allclose(compute_utility([3.0], [99.0], b=0.0), [3.0])

    def test_negative_tradeoff_rejected(self):
        with pytest.raises(DataError):
            compute_utility([1.0], [1.0], b=-0.1)

    @pytest.mark.parametrize("b", [np.nan, np.inf, -np.inf, "x", None, True, [0.5]])
    def test_tradeoff_must_be_a_finite_number(self, b):
        with pytest.raises(DataError, match="trade-off"):
            compute_utility([1.0, 2.0], [1.0, 0.5], b=b)

    @pytest.mark.parametrize(
        "benefit, risk",
        [([1.0, np.nan], [1.0, 1.0]), ([1.0, 2.0], [np.inf, 1.0]), ([-np.inf], [0.0]),
         (["a", 1.0], [1.0, 1.0]), ([1.0, 2.0], [1.0, 2.0, 3.0]), ([1.0 + 1j], [1.0]),
         ([1.0], np.array([1.0]) + 0j)],
        ids=["nan-benefit", "inf-risk", "inf-benefit", "text", "shapes", "complex-benefit",
             "complex-risk"],
    )
    def test_benefit_and_risk_must_be_finite_numbers(self, benefit, risk):
        with pytest.raises(DataError):
            compute_utility(benefit, risk, b=0.5)

    def test_integer_tradeoff_accepted(self):
        np.testing.assert_array_equal(compute_utility([3.0], [1.0], b=np.int64(2)), [1.0])
