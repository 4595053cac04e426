"""Acceptance suite: nine criteria, one verdict line each in the run summary.

Criteria 1-2 check the in-package optimizers against independent brute-force
oracles (active-set enumeration for the SVM dual, vertex enumeration for
LPs).  Criterion 3 checks the ensembling logic exhaustively against literal
truth tables.  Criteria 4-7 are replicated simulation benchmarks with
relaxed quantitative targets.  Criterion 8 checks metric identities, and
criterion 9 checks byte-level CLI determinism.
"""

import itertools
import time

import numpy as np
import pytest

from _oracles import l1_aol_lp_encoding, lp_vertex_oracle, svm_dual_oracle
from conftest import make_subproblem, record_criterion
from ordinalsr import cli
from ordinalsr.aol import fit_aol_l1_linear
from ordinalsr.data import TrialDataset
from ordinalsr.evaluate import run_benchmark, value_estimate
from ordinalsr.kernels import KernelSpec, gram_matrix
from ordinalsr.simgen import SETTINGS, generate, get_setting
from ordinalsr.solvers import LinearProgram, simplex_solve, wsvm_dual_solve
from ordinalsr.sr import ConstantRule, SRConfig, SRModel, fit_sr, predict_ordinal
from ordinalsr.data import ScalingParams

BENCH_TEST_SIZE = 2000
BENCH_REPLICATES = 20


def test_criterion_1_svm_dual_matches_oracle():
    """200 tiny weighted-SVM duals: objective within 1e-6 of the enumeration
    oracle and KKT conditions at tolerance 1e-5, in under 30 seconds."""
    rng = np.random.default_rng(20_260_824)
    start = time.time()
    max_gap = 0.0
    max_kkt = 0.0
    for trial in range(200):
        m = int(rng.integers(3, 9))
        p = int(rng.integers(1, 3))
        X = rng.normal(size=(m, p))
        labels = rng.choice([-1.0, 1.0], size=m)
        if np.unique(labels).size < 2:
            labels[0] = -labels[0]
        weights = rng.uniform(1e-6, 2.0, size=m)  # weights in (0, 2]
        lam = float(rng.uniform(0.05, 0.5))
        caps = weights / (2.0 * lam * m)
        if trial % 2:
            K = gram_matrix(KernelSpec("gaussian", float(rng.uniform(0.3, 2.0))), X, X)
        else:
            K = X @ X.T
        sol = wsvm_dual_solve(K, labels, caps, tol=1e-9)
        oracle_obj, _ = svm_dual_oracle(K, labels, caps)
        max_gap = max(max_gap, abs(sol.objective - oracle_obj))
        # KKT invariants: box, hyperplane, margin complementarity
        assert np.all(sol.alphas >= -1e-12) and np.all(sol.alphas <= caps + 1e-12)
        eq = abs(float(labels @ sol.alphas))
        margin = labels * (K @ (sol.alphas * labels) + sol.intercept)
        viol = 0.0
        lo = sol.alphas < 1e-9
        hi = sol.alphas > caps - 1e-9
        free = ~lo & ~hi
        if lo.any():
            viol = max(viol, float(np.max(1.0 - margin[lo], initial=0.0)))
        if hi.any():
            viol = max(viol, float(np.max(margin[hi] - 1.0, initial=0.0)))
        if free.any():
            viol = max(viol, float(np.max(np.abs(margin[free] - 1.0))))
        max_kkt = max(max_kkt, eq, viol)
    elapsed = time.time() - start
    ok = max_gap <= 1e-6 and max_kkt <= 1e-5 and elapsed < 30.0
    record_criterion(
        1,
        ok,
        f"200 SVM duals, max objective gap {max_gap:.2e}, "
        f"max KKT violation {max_kkt:.2e}, {elapsed:.1f}s",
    )
    assert max_gap <= 1e-6
    assert max_kkt <= 1e-5
    assert elapsed < 30.0


def test_criterion_2_lp_matches_vertex_enumeration():
    """200 random feasible LPs plus 20 L1 hinge fits: objectives within 1e-8
    of the vertex-enumeration oracle, in under 30 seconds."""
    rng = np.random.default_rng(77)
    start = time.time()
    max_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 9))
        G = rng.normal(size=(m, n))
        x0 = rng.uniform(0.0, 1.0, size=n)
        senses = tuple(rng.choice(["<=", ">=", "="], size=m))
        h = G @ x0
        slack = rng.uniform(0.1, 1.0, size=m)
        h = np.where(
            [s == "<=" for s in senses], h + slack,
            np.where([s == ">=" for s in senses], h - slack, h),
        )
        c = rng.uniform(0.1, 2.0, size=n)  # positive costs keep the LP bounded
        free = np.zeros(n, dtype=bool)
        lp = LinearProgram(c=c, G=G, h=h, senses=senses, free=free)
        sol = simplex_solve(lp)
        oracle = lp_vertex_oracle(c, G, h, senses, free)
        assert oracle is not None
        max_gap = max(max_gap, abs(sol.objective - oracle))
    l1_gap = 0.0
    for _ in range(20):
        m = int(rng.integers(4, 6))
        X = rng.uniform(-1, 1, size=(m, 2))
        labels = rng.choice([-1, 1], size=m)
        if np.unique(labels).size < 2:
            labels[0] = -labels[0]
        weights = rng.uniform(0.2, 2.0, size=m)
        lam = float(rng.uniform(0.02, 0.3))
        sub = make_subproblem(X, labels, weights)
        rule = fit_aol_l1_linear(sub, lam)
        f = rule.decision_value(X)
        fitted_obj = float(
            np.mean(weights * np.maximum(0.0, 1.0 - labels * f))
            + lam * np.sum(np.abs(rule.slopes))
        )
        oracle = lp_vertex_oracle(*l1_aol_lp_encoding(X, labels, weights, lam))
        assert oracle is not None
        l1_gap = max(l1_gap, abs(fitted_obj - oracle))
    elapsed = time.time() - start
    ok = max_gap <= 1e-8 and l1_gap <= 1e-8 and elapsed < 30.0
    record_criterion(
        2,
        ok,
        f"200 LPs max gap {max_gap:.2e}, 20 L1 fits max gap {l1_gap:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert max_gap <= 1e-8
    assert l1_gap <= 1e-8
    assert elapsed < 30.0


def _stub_model(k, s_dec, r_dec, use_r_steps=True):
    return SRModel(
        k_arms=k,
        sequential_rules=tuple(ConstantRule(d, "stub") for d in s_dec),
        reestimation_rules=tuple(ConstantRule(d, "stub") for d in r_dec),
        scaling=ScalingParams(mins=-np.ones(2), maxs=np.ones(2)),
        config=SRConfig(use_r_steps=use_r_steps),
    )


def _truth_table_k3(s1, s2, r1):
    if s1 == -1:
        return 1 if r1 == -1 else 2
    return 2 if s2 == -1 else 3


def _truth_table_k4(s1, s2, s3, r1, r2):
    if s1 == -1:
        return 1 if r1 == -1 else 2
    if s2 == -1:
        return 2 if r2 == -1 else 3
    return 3 if s3 == -1 else 4


def test_criterion_3_ensembling_truth_tables():
    """The cascade's ordinal assignment matches the literal decision tree for
    every combination of binary sub-decisions at K=3 and K=4, exactly."""
    X = np.zeros((1, 2))
    failures = []
    checked = 0
    for s1, s2, r1 in itertools.product((-1, 1), repeat=3):
        got = predict_ordinal(_stub_model(3, (s1, s2), (r1,)), X)[0]
        want = _truth_table_k3(s1, s2, r1)
        checked += 1
        if got != want:
            failures.append(("K3", s1, s2, r1, got, want))
    for s1, s2, s3, r1, r2 in itertools.product((-1, 1), repeat=5):
        got = predict_ordinal(_stub_model(4, (s1, s2, s3), (r1, r2)), X)[0]
        want = _truth_table_k4(s1, s2, s3, r1, r2)
        checked += 1
        if got != want:
            failures.append(("K4", s1, s2, s3, r1, r2, got, want))
    record_criterion(
        3, not failures, f"{checked} stub combinations (K=3 and K=4), exact"
    )
    assert not failures


@pytest.fixture(scope="module")
def bench_n8():
    rows, failures = run_benchmark(
        ["N8"], [400, 800], BENCH_REPLICATES, ["sr-gaussian"],
        seed=0, test_size=BENCH_TEST_SIZE, jobs=1,
    )
    assert not failures
    return rows


def test_criterion_4_nonparallel_benchmark(bench_n8):
    """N8 (concentric circles), Gaussian-kernel SR, 20 replicates: mean
    misclassification at most 0.10 at n=400 and 0.08 at n=800."""
    means = {}
    for n in (400, 800):
        vals = [r["misclass"] for r in bench_n8 if r["n"] == n]
        assert len(vals) == BENCH_REPLICATES
        means[n] = float(np.mean(vals))
    ok = means[400] <= 0.10 and means[800] <= 0.08
    record_criterion(
        4,
        ok,
        f"N8 gaussian mean misclass {means[400]:.4f} @400 (<=0.10), "
        f"{means[800]:.4f} @800 (<=0.08), 20 reps",
    )
    assert means[400] <= 0.10
    assert means[800] <= 0.08


@pytest.fixture(scope="module")
def bench_p1_800():
    """The P1 n=800 sr-linear rows that criteria 5 and 6 share."""
    rows, failures = run_benchmark(
        ["P1"], [800], BENCH_REPLICATES, ["sr-linear"],
        seed=0, test_size=BENCH_TEST_SIZE, jobs=1,
    )
    assert not failures
    return rows


def test_criterion_5_parallel_linear_benchmark(bench_p1_800):
    """P1 (parallel linear boundaries), linear-kernel SR, 20 replicates: mean
    misclassification at most 0.08 at n=400 and 0.06 at n=800."""
    rows, failures = run_benchmark(
        ["P1"], [400], BENCH_REPLICATES, ["sr-linear"],
        seed=0, test_size=BENCH_TEST_SIZE, jobs=1,
    )
    assert not failures
    rows += bench_p1_800
    means = {}
    for n in (400, 800):
        vals = [r["misclass"] for r in rows if r["n"] == n]
        assert len(vals) == BENCH_REPLICATES
        means[n] = float(np.mean(vals))
    ok = means[400] <= 0.08 and means[800] <= 0.06
    record_criterion(
        5,
        ok,
        f"P1 linear mean misclass {means[400]:.4f} @400 (<=0.08), "
        f"{means[800]:.4f} @800 (<=0.06), 20 reps",
    )
    assert means[400] <= 0.08
    assert means[800] <= 0.06


def test_criterion_6_reestimation_ablation(bench_p1_800):
    """Dropping the re-estimation rules must hurt: over 20 paired replicates
    of P1 at n=800, the full cascade has a mean misclassification no higher
    than the ablation, and is strictly lower in at least 70 percent."""
    rows, failures = run_benchmark(
        ["P1"], [800], BENCH_REPLICATES, ["sr-linear-no-r"],
        seed=0, test_size=BENCH_TEST_SIZE, jobs=1,
    )
    assert not failures
    rows += bench_p1_800
    with_r = {r["replicate"]: r["misclass"] for r in rows if r["method"] == "sr-linear"}
    without = {
        r["replicate"]: r["misclass"] for r in rows if r["method"] == "sr-linear-no-r"
    }
    assert len(with_r) == len(without) == BENCH_REPLICATES
    mean_with = float(np.mean(list(with_r.values())))
    mean_without = float(np.mean(list(without.values())))
    wins = sum(with_r[rep] < without[rep] for rep in with_r)
    frac = wins / BENCH_REPLICATES
    ok = mean_with <= mean_without and frac >= 0.70
    record_criterion(
        6,
        ok,
        f"P1 n=800: with R-steps {mean_with:.4f} vs without {mean_without:.4f}, "
        f"strictly lower in {wins}/{BENCH_REPLICATES} pairs (>=70%)",
    )
    assert mean_with <= mean_without
    assert frac >= 0.70


def _selected_covariates(model):
    out = set()
    for rule in model.sequential_rules + model.reestimation_rules:
        sel = getattr(rule, "selected_features", ())
        fallback = getattr(rule, "selection_fallback", False)
        if sel and not fallback and len(sel) < 50:
            out |= set(sel)
    return out


def test_criterion_7_variable_selection_rescue():
    """N8 padded to p=50 (48 pure noise), n=400, 20 replicates: the two-stage
    screen must at least halve the no-selection mean misclassification and
    keep both signal covariates in at least 80 percent of fits."""
    spec = get_setting("N8", p=50)
    two_cfg = dict(kernel_kind="gaussian", selection="two-stage")
    plain_cfg = dict(kernel_kind="gaussian")
    two_mis, plain_mis, both_found = [], [], 0
    for rep in range(BENCH_REPLICATES):
        train = generate(spec, 400, seed=rep)
        test = generate(spec, BENCH_TEST_SIZE, seed=100_000 + rep)
        model_two = fit_sr(train, SRConfig(seed=rep, **two_cfg))
        model_plain = fit_sr(train, SRConfig(seed=rep, **plain_cfg))
        two_mis.append(
            float(np.mean(predict_ordinal(model_two, test.features) != test.true_optimal))
        )
        plain_mis.append(
            float(np.mean(predict_ordinal(model_plain, test.features) != test.true_optimal))
        )
        if {0, 1} <= _selected_covariates(model_two):
            both_found += 1
    mean_two = float(np.mean(two_mis))
    mean_plain = float(np.mean(plain_mis))
    frac_found = both_found / BENCH_REPLICATES
    ok = mean_two <= 0.5 * mean_plain and frac_found >= 0.80
    record_criterion(
        7,
        ok,
        f"N8 p=50: two-stage {mean_two:.4f} vs no-selection {mean_plain:.4f} "
        f"(ratio {mean_two / mean_plain:.3f} <= 0.5), both signal covariates "
        f"kept in {both_found}/{BENCH_REPLICATES} fits (>=80%)",
    )
    assert mean_two <= 0.5 * mean_plain
    assert frac_found >= 0.80


def test_criterion_8_oracle_and_metric_sanity():
    """On every shipped setting: the oracle rule never misclassifies; the IPW
    value under constant propensities equals the matched-subject mean; and
    rescaling all propensities by a constant leaves the value unchanged."""
    max_mean_gap = 0.0
    max_rescale_gap = 0.0
    oracle_clean = True
    for sid, spec in sorted(SETTINGS.items()):
        test = generate(spec, 1500, seed=17)
        pred = test.true_optimal
        if float(np.mean(pred != test.true_optimal)) != 0.0:
            oracle_clean = False
        val = value_estimate(pred, test)
        matched = pred == test.treatment
        max_mean_gap = max(
            max_mean_gap, abs(val - float(np.mean(test.outcome[matched])))
        )
        rescaled = TrialDataset(
            features=test.features,
            treatment=test.treatment,
            outcome=test.outcome,
            k_arms=test.k_arms,
            propensity=test.propensity * 0.37,
            true_optimal=test.true_optimal,
        )
        max_rescale_gap = max(
            max_rescale_gap, abs(val - value_estimate(pred, rescaled))
        )
    ok = oracle_clean and max_mean_gap <= 1e-12 and max_rescale_gap <= 1e-10
    record_criterion(
        8,
        ok,
        f"all 10 settings: oracle misclass 0, value-vs-matched-mean gap "
        f"{max_mean_gap:.1e} (<=1e-12), propensity-rescale gap "
        f"{max_rescale_gap:.1e} (<=1e-10)",
    )
    assert oracle_clean
    assert max_mean_gap <= 1e-12
    assert max_rescale_gap <= 1e-10


def test_criterion_9_cli_determinism(tmp_path):
    """Every CLI command, run twice with identical arguments and --jobs 1,
    writes byte-identical outputs."""

    def run_all(root):
        root.mkdir(exist_ok=True)
        train = root / "train.csv"
        model = root / "model.txt"
        assert cli.main(
            ["simgen", "--setting", "N8", "--n", "120", "--seed", "5",
             "--out", str(train)]
        ) == 0
        assert cli.main(
            ["fit", "--data", str(train), "--out", str(model),
             "--kernel", "gaussian", "--lambdas", "0.05", "--sigmas", "0.6",
             "--seed", "2", "--cv-trace", str(root / "trace.csv")]
        ) == 0
        assert cli.main(
            ["predict", "--model", str(model), "--data", str(train),
             "--out", str(root / "pred.csv")]
        ) == 0
        assert cli.main(
            ["evaluate", "--model", str(model), "--data", str(train),
             "--out", str(root / "eval.csv")]
        ) == 0
        assert cli.main(
            ["benchmark", "--settings", "P1", "--n", "80", "--replicates", "2",
             "--methods", "oracle,sr-linear", "--seed", "3", "--test-size", "300",
             "--jobs", "1", "--out-prefix", str(root / "bench")]
        ) == 0
        return sorted(f.name for f in root.iterdir())

    root = tmp_path / "run"
    names1 = run_all(root)
    first = {name: (root / name).read_bytes() for name in names1}
    names2 = run_all(root)  # identical arguments, outputs overwritten in place
    assert names1 == names2
    different = [name for name in names1 if (root / name).read_bytes() != first[name]]
    record_criterion(
        9,
        not different,
        f"{len(names1)} output files from 5 commands byte-identical across reruns",
    )
    assert not different, f"outputs differ: {different}"
