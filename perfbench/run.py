"""Fit/predict benchmark for ordinalsr over the four SR method presets.

Each workload is a closed loop, in one process, of ``fit_sr`` followed by
``predict_ordinal`` on a 10 000-row test set.  The data come from
``simgen.generate`` with the convention of ``evaluate.run_benchmark``: for
replicate ``rep`` the train seed is ``seed + rep``, the test seed is
``seed + 100000 + rep`` and the config is ``SRConfig(seed=train seed)``.
Every output is checked, and the last line of standard output is one JSON
result.  Run it from the repository root:

    python3 perfbench/run.py --workload linear-p1 --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
fits each replicate once plainly and once under the outside-in tracer
(perfbench/tracer.py) and reports the per-layer metrics.  Records of each
run, spans included, go to .bench_build/perfbench/.
"""

import os

# Pinned before numpy is first imported.  On a 2-core host, two BLAS threads
# spread Gaussian predict times over 127-227 ms; one thread gives 195-205 ms.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(HERE))
from tracer import Tracer, has_ancestor, roots, self_times  # noqa: E402

TEST_ROWS = 10_000
SETUP_PROBES = 7
HARD_STOP_S = 120.0  # start no replicate after this, so a run ends within 180 s

# Layers whose presence the traced run checks: each must be called on the
# workloads that list it and never on the others.
SMO = "solvers.wsvm_dual_solve"
SIMPLEX = "solvers.simplex_solve"
SCREEN = "varselect.screen_for_subproblem"
GRAM_FIT = "kernels.gram_matrix.fit"
GRAM_PREDICT = "kernels.gram_matrix.predict"
BANDWIDTH = "kernels.median_bandwidth"
EVERY_WORKLOAD = frozenset(
    {"evaluate.cv_tune", "solvers.ols_fit", "aol.build_subproblem", "sr.final_fit",
     "sr.predict_ordinal", "simgen.generate"}
)
CHECKED_LAYERS = EVERY_WORKLOAD | {SMO, SIMPLEX, SCREEN, GRAM_FIT, GRAM_PREDICT, BANDWIDTH}

# Final fits are the rule fits sr makes after tuning (direct children of fit_sr).
FINAL_FITS = {"aol.fit_aol_l2", "aol.fit_aol_l1_linear", "varselect.fit_two_stage"}
SOLVERS = {SMO, SIMPLEX}


@dataclass(frozen=True)
class Workload:
    setting: str
    p: int | None  # pad the setting with noise covariates up to p
    n: int
    preset: str
    min_reps: int  # replicates always run; test_accuracy averages exactly these
    layers: frozenset  # checked layers this workload must call


WORKLOADS = {
    "linear-p1": Workload("P1", None, 800, "sr-linear", 8, EVERY_WORKLOAD | {SMO, GRAM_FIT}),
    "gaussian-n8": Workload(
        "N8", None, 800, "sr-gaussian", 4,
        EVERY_WORKLOAD | {SMO, GRAM_FIT, GRAM_PREDICT, BANDWIDTH},
    ),
    "l1-p1": Workload("P1", None, 200, "sr-linear-l1", 2, EVERY_WORKLOAD | {SIMPLEX}),
    "select-n8p20": Workload(
        "N8", 20, 200, "sr-gaussian-select", 8,
        EVERY_WORKLOAD | {SMO, SCREEN, GRAM_FIT, GRAM_PREDICT, BANDWIDTH},
    ),
}


class Outcome:
    """Counts attempted and failed operations; keeps what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def import_checkout_package():
    """Import ordinalsr from this checkout's src/, never from elsewhere."""
    if not (SRC / "ordinalsr" / "__init__.py").is_file():
        raise FileNotFoundError(f"no ordinalsr package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ordinalsr

    if Path(ordinalsr.__file__).resolve().parent != SRC / "ordinalsr":
        raise ImportError(f"ordinalsr imported from {ordinalsr.__file__}, not {SRC}")
    return ordinalsr


def source_digest():
    digest = hashlib.sha256()
    for path in sorted([*SRC.glob("ordinalsr/*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def host_record(seed):
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def measure_setup(wl, seed):
    """Median over fresh interpreters of import plus train/test generation."""
    cmd = [
        sys.executable, str(HERE / "setup_probe.py"), "--setting", wl.setting,
        "--n", str(wl.n), "--test-rows", str(TEST_ROWS), "--seed", str(seed),
    ]
    if wl.p is not None:
        cmd += ["--p", str(wl.p)]
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": statistics.median(p["import_s"] + p["generate_s"] for p in probes),
        "import_s": statistics.median(p["import_s"] for p in probes),
    }


def make_data(ordinalsr, wl, seed, rep):
    spec = ordinalsr.get_setting(wl.setting, p=wl.p)
    train = ordinalsr.generate(spec, wl.n, seed + rep)
    test = ordinalsr.generate(spec, TEST_ROWS, seed + 100_000 + rep)
    params = dict(ordinalsr.evaluate.METHOD_PRESETS[wl.preset])
    params.pop("kind")
    return train, test, ordinalsr.SRConfig(seed=seed + rep, **params)


def valid_predictions(pred, k_arms):
    pred = np.asarray(pred)
    return (
        pred.shape == (TEST_ROWS,)
        and np.issubdtype(pred.dtype, np.integer)
        and pred.min() >= 1
        and pred.max() <= k_arms
    )


def timed_fit(ordinalsr, train, config, outcome, rep):
    start = time.perf_counter()
    try:
        model = ordinalsr.fit_sr(train, config)
    except ordinalsr.exceptions.OrdinalSRError as exc:
        outcome.check(False, f"rep {rep}: fit_sr raised {exc!r}")
        return None, None
    elapsed = time.perf_counter() - start
    outcome.check(True, "fit_sr")
    return model, elapsed


def round_trip_identical(ordinalsr, model, features, pred):
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        path = Path(tmp) / "model.txt"
        ordinalsr.save_model(model, path)
        loaded = ordinalsr.load_model(path)
    return np.array_equal(ordinalsr.predict_ordinal(loaded, features), pred)


def plain_rep(ordinalsr, wl, seed, rep, outcome, samples):
    """One untraced replicate: fit, predict, save/load round trip."""
    train, test, config = make_data(ordinalsr, wl, seed, rep)
    model, fit_s = timed_fit(ordinalsr, train, config, outcome, rep)
    if model is None:
        return
    samples["fit_s"].append(fit_s)
    pred = ordinalsr.predict_ordinal(model, test.features)
    outcome.check(
        valid_predictions(pred, train.k_arms),
        f"rep {rep}: predictions of wrong shape or outside 1..K",
    )
    try:
        same = round_trip_identical(ordinalsr, model, test.features, pred)
        problem = f"rep {rep}: save/load changed predictions"
    except ordinalsr.exceptions.OrdinalSRError as exc:
        same, problem = False, f"rep {rep}: save/load raised {exc!r}"
    outcome.check(same, problem)
    if rep < wl.min_reps:
        samples["misclass"].append(ordinalsr.misclassification(pred, test.true_optimal))


def layer_metrics(spans):
    """Per-layer metrics of one traced replicate (times in s, counts exact)."""
    selfs = self_times(spans)
    top = roots(spans)
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for i, span in enumerate(spans):
        phase = spans[top[i]].name
        name = span.name
        if name == "kernels.gram_matrix":
            name += ".fit" if phase == "sr.fit_sr" else ".predict"
        elif phase != "sr.fit_sr" and name not in ("sr.predict_ordinal", "simgen.generate"):
            continue
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", selfs[i])
        add(f"{name}.incl_s", span.duration)
        # the screen's counts describe its ScreenResult, not the call
        prefix = "varselect.screen" if name == SCREEN else name
        for key, value in span.counts.items():
            if key == "kkt_violation":
                out[f"{prefix}.kkt_violation_max"] = max(out.get(f"{prefix}.kkt_violation_max", 0.0), value)
            else:
                add(f"{prefix}.{key}", value)
        if name in SOLVERS and has_ancestor(spans, i, "evaluate.cv_tune"):
            add("evaluate.cv_tune.inner_fits", 1)
        if name in FINAL_FITS and spans[span.parent].name == "sr.fit_sr":
            add("sr.final_fit.calls", 1)
            add("sr.final_fit.incl_s", span.duration)
    fit = out["sr.fit_sr.incl_s"]
    out["trace.fit_coverage_frac"] = (fit - out["sr.fit_sr.self_s"]) / fit
    return out


def traced_rep(ordinalsr, wl, seed, rep, outcome, samples):
    """Fit plainly, then under the tracer; both must predict bit-identically."""
    tracer = Tracer()
    with tracer.installed():
        train, test, config = make_data(ordinalsr, wl, seed, rep)
    model, plain_fit_s = timed_fit(ordinalsr, train, config, outcome, rep)
    if model is None:
        return
    plain = ordinalsr.predict_ordinal(model, test.features)
    with tracer.installed():
        model, traced_fit_s = timed_fit(ordinalsr, train, config, outcome, rep)
        if model is None:
            return
        traced = ordinalsr.predict_ordinal(model, test.features)
    outcome.check(
        valid_predictions(plain, train.k_arms) and np.array_equal(plain, traced),
        f"rep {rep}: traced fit predicts differently from the untraced fit",
    )
    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead_frac"] = traced_fit_s / plain_fit_s - 1.0
    samples["layers"].append(metrics)
    samples["spans"].append(
        [[s.name, s.start, s.end, s.parent, s.counts] for s in tracer.spans]
    )
    samples["bindings"] = tracer.bindings


def layer_check_failures(wl, counts):
    wrong = []
    for layer in sorted(CHECKED_LAYERS):
        calls = counts.get(f"{layer}.calls", 0)
        if (calls > 0) != (layer in wl.layers):
            wrong.append(f"{layer}: {calls} calls")
    return wrong


def is_count(key):
    return not key.endswith(("_s", "_frac"))


def check_counts_repeat(path, host, layers, outcome):
    """Computed counts of replicate 0 must equal those of an earlier traced
    run of the same code, workload and seed, when one is on record."""
    try:
        earlier = json.loads(path.read_text())
    except (OSError, ValueError):
        return
    if earlier["host"]["source_sha256"] != host["source_sha256"] or not earlier["layers"]:
        return
    old = {k: v for k, v in earlier["layers"][0].items() if is_count(k)}
    new = {k: v for k, v in layers[0].items() if is_count(k)}
    outcome.check(old == new, "computed counts differ from an earlier traced run")


def write_record(path, record):
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record))
    os.replace(tmp, path)


def main(argv=None):
    parser = argparse.ArgumentParser(description="ordinalsr fit/predict benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        ordinalsr = import_checkout_package()
    except (OSError, ImportError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    host = host_record(args.seed)
    print("host:", json.dumps(host), flush=True)
    setup = measure_setup(wl, args.seed)
    outcome = Outcome()
    samples = {"fit_s": [], "misclass": [], "layers": [], "spans": []}
    one_rep = traced_rep if args.trace else plain_rep
    min_reps = 1 if args.trace else wl.min_reps
    start = time.perf_counter()
    rep = 0
    while rep < min_reps or time.perf_counter() - start < args.seconds:
        if time.perf_counter() - start > HARD_STOP_S:
            break
        one_rep(ordinalsr, wl, args.seed, rep, outcome, samples)
        rep += 1
    record = {"host": host, "workload": args.workload, "seconds": args.seconds, "reps": rep}
    if args.trace:
        values = layer_values(wl, samples, setup, outcome, [m["name"] for m in spec["per_layer"]])
        record.update(layers=samples["layers"], bindings=samples.get("bindings"),
                      spans=samples["spans"])
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        check_counts_repeat(path, host, samples["layers"], outcome)
        section = "per_layer"
    else:
        values = {
            # the mean: l1-p1 holds only about three fits per run, and the
            # median of three moved twice as much as the mean between seeds
            "fit_s": statistics.fmean(samples["fit_s"]),
            "test_accuracy": 1.0 - statistics.fmean(samples["misclass"]),
            "setup_s": setup["setup_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record.update(samples={k: samples[k] for k in ("fit_s", "misclass")})
        path = OUT / f"run-{args.workload}-seed{args.seed}.json"
        section = "end_to_end"
    record.update(setup=setup, attempted=outcome.attempted, failed=outcome.failed,
                  problems=outcome.problems)
    write_record(path, record)
    print("detail:", json.dumps({
        "reps": rep, "fit_samples": len(samples["fit_s"]),
        "test_misclass": samples["misclass"], "problems": outcome.problems,
    }), flush=True)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]
    }
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


def layer_values(wl, samples, setup, outcome, names):
    """Times are medians over traced replicates; counts come from replicate 0.

    A layer with no span in the trace was never called, so it reads 0.
    """
    reps = samples["layers"]
    keys = sorted({k for rep in reps for k in rep} | set(names))
    values = {}
    for key in keys:
        if is_count(key):
            values[key] = reps[0].get(key, 0)
        else:
            values[key] = statistics.median(rep.get(key, 0.0) for rep in reps)
    wrong = layer_check_failures(wl, reps[0])
    outcome.problems.extend(f"layer check: {w}" for w in wrong)
    values["trace.layer_check_failures"] = len(wrong)
    values["ordinalsr.import_s"] = setup["import_s"]
    return values


if __name__ == "__main__":
    sys.exit(main())
