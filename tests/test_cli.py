"""End-to-end tests for the command-line interface."""

import os

import numpy as np
import pytest

from ordinalsr import aol, cli
from ordinalsr.data import TrialDataset, load_csv, save_csv
from ordinalsr.exceptions import ConvergenceError
from ordinalsr.sr import load_model
from test_sr import PARENT_FORMAT_MODEL


def run(argv):
    return cli.main(argv)


NO_CONVERGENCE = "the L2 solver hit its iteration cap"


@pytest.fixture
def no_convergence(monkeypatch):
    """Every L2 solve fails: SMO (the Gaussian fits) and the interior-point
    method (the linear fits) both raise at their caps."""

    def capped(*args, **kwargs):
        raise ConvergenceError(NO_CONVERGENCE)

    monkeypatch.setattr(aol, "_smo", capped)
    monkeypatch.setattr(aol, "_linear_svm_ipm", capped)


@pytest.fixture
def trial_csv(tmp_path):
    path = tmp_path / "train.csv"
    assert run(["simgen", "--setting", "P1", "--n", "150", "--seed", "4", "--out", str(path)]) == 0
    return path


class TestSimgen:
    def test_writes_csv_and_manifest(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["simgen", "--setting", "N8", "--n", "40", "--out", str(out)]) == 0
        data = load_csv(out)
        assert data.n == 40 and data.p == 2
        manifest = (tmp_path / "d.csv.manifest.txt").read_text()
        assert "setting N8" in manifest
        assert "effect_scale" in manifest

    def test_noise_padding_flag(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["simgen", "--setting", "N8", "--n", "30", "--p", "10", "--out", str(out)]) == 0
        assert load_csv(out).p == 10

    @pytest.mark.parametrize("seed", ["-5", "-1"])
    def test_negative_seed_exits_one(self, tmp_path, seed):
        out = tmp_path / "d.csv"
        assert run(["simgen", "--setting", "N8", "--n", "30", "--seed", seed,
                    "--out", str(out)]) == 1
        assert not out.exists()

    def test_unknown_setting_exits_one(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["simgen", "--setting", "ZZ", "--n", "10", "--out", str(out)]) == 1

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["simgen", "--n", "10"])
        assert exc.value.code == 2


class TestFitPredictEvaluate:
    def test_full_pipeline(self, tmp_path, trial_csv):
        model_path = tmp_path / "model.txt"
        assert run(
            ["fit", "--data", str(trial_csv), "--out", str(model_path),
             "--kernel", "linear", "--lambdas", "0.05", "--seed", "1"]
        ) == 0
        model = load_model(model_path)
        assert model.k_arms == 3

        pred_path = tmp_path / "pred.csv"
        assert run(
            ["predict", "--model", str(model_path), "--data", str(trial_csv),
             "--out", str(pred_path)]
        ) == 0
        lines = pred_path.read_text().strip().splitlines()
        assert lines[0] == "row,pred"
        assert len(lines) == 151

        eval_path = tmp_path / "eval.csv"
        assert run(
            ["evaluate", "--model", str(model_path), "--data", str(trial_csv),
             "--out", str(eval_path)]
        ) == 0
        text = eval_path.read_text()
        assert "np.float64" not in text
        header = text.splitlines()[0].split(",")
        assert "value" in header and "misclass" in header

    def test_select_embedded_fits_the_l1_rule(self, tmp_path, trial_csv):
        model_path = tmp_path / "model.txt"
        assert run(
            ["fit", "--data", str(trial_csv), "--out", str(model_path),
             "--select", "embedded", "--lambdas", "0.05"]
        ) == 0
        assert load_model(model_path).config.selection == "embedded"
        manifest = (tmp_path / "model.txt.manifest.txt").read_text()
        assert "selection embedded\n" in manifest and "penalty" not in manifest

    def test_cv_trace_written(self, tmp_path, trial_csv):
        model_path = tmp_path / "model.txt"
        trace_path = tmp_path / "trace.csv"
        assert run(
            ["fit", "--data", str(trial_csv), "--out", str(model_path),
             "--lambdas", "0.01,0.05", "--cv-trace", str(trace_path)]
        ) == 0
        lines = trace_path.read_text().strip().splitlines()
        assert lines[0] == "step,lambda,sigma,mean_value,selected"
        assert len(lines) > 3
        assert "np.float64" not in trace_path.read_text()

    def test_cv_trace_marks_degenerate_steps(self, tmp_path):
        """Four subjects in arms 2 and 3: S2 has too few to fit and falls back
        to a constant rule, one degenerate row; S1 and R1 have their tables."""
        rng = np.random.default_rng(4)
        data_path, trace_path = tmp_path / "skewed.csv", tmp_path / "trace.csv"
        save_csv(TrialDataset(features=rng.uniform(-1, 1, size=(60, 2)),
                              treatment=np.r_[np.ones(56, dtype=int), 2, 2, 3, 3],
                              outcome=rng.normal(size=60), k_arms=3), data_path)
        assert run(["fit", "--data", str(data_path), "--out", str(tmp_path / "m.txt"),
                    "--lambdas", "0.01,0.05", "--cv-trace", str(trace_path)]) == 0
        rows = [line.split(",") for line in trace_path.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["S1", "S1", "S2", "R1", "R1"]
        assert rows[2][1:] == ["", "", "", "degenerate"]
        for table in (rows[:2], rows[3:]):
            assert sorted(row[4] for row in table) == ["0", "1"]

    @pytest.mark.usefixtures("no_convergence")
    def test_non_convergence_exits_three(self, tmp_path, trial_csv, capsys):
        model_path = tmp_path / "model.txt"
        assert run(["fit", "--data", str(trial_csv), "--out", str(model_path)]) == 3
        assert NO_CONVERGENCE in capsys.readouterr().err
        assert not model_path.exists()

    def test_invalid_flag_combo_exits_two(self, tmp_path, trial_csv):
        with pytest.raises(SystemExit) as exc:
            run(
                ["fit", "--data", str(trial_csv), "--out", str(tmp_path / "m.txt"),
                 "--select", "embedded", "--kernel", "gaussian"]
            )
        assert exc.value.code == 2
        assert not (tmp_path / "m.txt").exists()

    def test_removed_penalty_flag_exits_two(self, tmp_path, trial_csv):
        """--penalty is gone: --select embedded is the L1 rule."""
        with pytest.raises(SystemExit) as exc:
            run(
                ["fit", "--data", str(trial_csv), "--out", str(tmp_path / "m.txt"),
                 "--penalty", "l1"]
            )
        assert exc.value.code == 2
        assert not (tmp_path / "m.txt").exists()

    def test_missing_data_exits_one(self, tmp_path):
        assert run(
            ["predict", "--model", str(tmp_path / "none.txt"),
             "--data", str(tmp_path / "none.csv"), "--out", str(tmp_path / "o.csv")]
        ) == 1

    def test_non_utf8_csv_exits_one(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"x1,a,y\n\xff,1,2.0\n")
        assert run(["fit", "--data", str(path), "--out", str(tmp_path / "m.txt")]) == 1

    def test_non_utf8_model_exits_one(self, tmp_path, trial_csv):
        path = tmp_path / "m.txt"
        path.write_bytes(b"ordinalsr-model v1\n\xff\xfe\n")
        assert run(
            ["predict", "--model", str(path), "--data", str(trial_csv),
             "--out", str(tmp_path / "o.csv")]
        ) == 1

    def test_model_point_outside_its_selection_exits_one(self, tmp_path, capsys):
        """A kernel rule's point must be 0 outside the rule's selected features."""
        path, data = tmp_path / "m.txt", tmp_path / "d.csv"
        text = PARENT_FORMAT_MODEL.replace("point 1.0 0.5 0.0\n", "point 1.0 0.5 0.25\n")
        path.write_text(text)
        assert run(["simgen", "--setting", "N8", "--n", "20", "--out", str(data)]) == 0
        assert run(["predict", "--model", str(path), "--data", str(data),
                    "--out", str(tmp_path / "o.csv")]) == 1
        assert "outside the selected features" in capsys.readouterr().err

    def test_nonpositive_lambda_exits_one(self, tmp_path, trial_csv):
        assert run(
            ["fit", "--data", str(trial_csv), "--out", str(tmp_path / "m.txt"),
             "--lambdas", "0.1,-0.1"]
        ) == 1

    def test_repeated_feature_name_exits_one(self, tmp_path):
        data = tmp_path / "dup.csv"
        data.write_text("x,x,a,y\n" + "".join(f"0.{i},0.5,{1 + i % 3},1.0\n" for i in range(30)))
        assert run(["fit", "--data", str(data), "--out", str(tmp_path / "m.txt")]) == 1

    @pytest.mark.parametrize("seed", ["-5", "-1"])
    def test_negative_seed_exits_one(self, tmp_path, trial_csv, seed):
        assert run(
            ["fit", "--data", str(trial_csv), "--out", str(tmp_path / "m.txt"),
             "--seed", seed]
        ) == 1
        assert not (tmp_path / "m.txt").exists()


class TestBenchmark:
    def test_outputs_written(self, tmp_path):
        prefix = str(tmp_path / "bench")
        assert run(
            ["benchmark", "--settings", "P1", "--n", "60", "--replicates", "2",
             "--methods", "oracle", "--seed", "1", "--test-size", "200",
             "--jobs", "1", "--out-prefix", prefix]
        ) == 0
        rows = (tmp_path / "bench_rows.csv").read_text()
        summary = (tmp_path / "bench_summary.csv").read_text()
        manifest = (tmp_path / "bench_manifest.txt").read_text()
        assert rows.count("\n") == 3  # header + 2 replicates
        assert "oracle" in summary
        assert "effect_scale" in manifest
        assert "np.float64" not in rows + summary
        assert not (tmp_path / "bench_failures.csv").exists()

    @pytest.mark.usefixtures("no_convergence")
    def test_failed_fits_are_written_to_the_failures_file(self, tmp_path):
        """A fit that raises is one row of <prefix>_failures.csv; the run goes
        on, and the methods that did not fail keep their rows."""
        prefix = str(tmp_path / "bench")
        assert run(
            ["benchmark", "--settings", "P1", "--n", "60", "--replicates", "2",
             "--methods", "oracle,sr-linear", "--seed", "1", "--test-size", "200",
             "--jobs", "1", "--out-prefix", prefix]
        ) == 0
        failures = (tmp_path / "bench_failures.csv").read_text().splitlines()
        assert failures == ["setting,n,method,replicate,error"] + [
            f"P1,60,sr-linear,{rep},{NO_CONVERGENCE}" for rep in (0, 1)
        ]
        rows = (tmp_path / "bench_rows.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["oracle", "oracle"]

    def test_negative_seed_exits_one(self, tmp_path):
        assert run(
            ["benchmark", "--settings", "P1", "--n", "60", "--replicates", "2",
             "--methods", "oracle", "--seed", "-1", "--test-size", "200",
             "--jobs", "1", "--out-prefix", str(tmp_path / "bench")]
        ) == 1

    def test_unknown_method_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(
                ["benchmark", "--settings", "P1", "--n", "60", "--methods", "bad",
                 "--out-prefix", str(tmp_path / "b")]
            )
        assert exc.value.code == 2


    @pytest.mark.parametrize("n", ["abc", "1.5", "60,x"])
    def test_non_integer_n_exits_two(self, tmp_path, n):
        with pytest.raises(SystemExit) as exc:
            run(
                ["benchmark", "--settings", "P1", "--n", n, "--methods", "oracle",
                 "--out-prefix", str(tmp_path / "b")]
            )
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("jobs", ["0", "-2", "two"])
    def test_jobs_below_one_exits_two(self, tmp_path, jobs):
        with pytest.raises(SystemExit) as exc:
            run(
                ["benchmark", "--settings", "P1", "--n", "60", "--methods", "oracle",
                 "--jobs", jobs, "--out-prefix", str(tmp_path / "b")]
            )
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    def test_jobs_ignores_the_environment(self, tmp_path, monkeypatch):
        # --jobs is the one way to set the worker count
        monkeypatch.setenv("ORDINALSR_JOBS", "abc")
        out = tmp_path / "d.csv"
        assert run(["simgen", "--setting", "N8", "--n", "20", "--out", str(out)]) == 0
        args = cli.build_parser().parse_args(
            ["benchmark", "--settings", "P1", "--n", "60", "--out-prefix", "b"]
        )
        assert args.jobs == (os.cpu_count() or 1)


class TestReverseArms:
    def test_reverse_flag_flips_labels(self, tmp_path, trial_csv):
        data = load_csv(trial_csv)
        rev = load_csv(trial_csv, reverse_arms=True)
        np.testing.assert_array_equal(rev.treatment, 4 - data.treatment)
