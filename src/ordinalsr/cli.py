"""Command-line entry point.

Subcommands: simgen, fit, predict, evaluate, benchmark.  Exit codes:
0 success, 1 data/model error, 2 usage error, 3 numerical non-convergence.
Every run echoes its fully-resolved configuration into a sidecar
``<out>.manifest.txt`` so outputs are reproducible from the manifest alone.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import evaluate as ev
from .data import _write_csv, load_csv, save_csv
from .exceptions import ConvergenceError, OrdinalSRError
from .simgen import generate, get_setting
from .sr import SRConfig, fit_sr, load_model, predict_ordinal, save_model

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_NONCONVERGED = 3


def _write_manifest(out_path, command, resolved):
    with open(out_path + ".manifest.txt", "w", encoding="utf-8", newline="") as fh:
        fh.write(f"ordinalsr {command} manifest\n")
        for key in sorted(resolved):
            fh.write(f"{key} {resolved[key]}\n")


def _csv_floats(text):
    return tuple(float(v) for v in text.split(","))


def _csv_ints(text):
    return tuple(int(v) for v in text.split(","))


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, not {value}")
    return value


def _add_fit_flags(sp):
    sp.add_argument("--kernel", choices=["linear", "gaussian"], default="linear")
    sp.add_argument("--penalty", choices=["l2", "l1"], default="l2")
    sp.add_argument(
        "--select", choices=["none", "embedded", "two-stage"], default="none"
    )
    sp.add_argument("--cv", type=int, default=5, help="cross-validation folds")
    sp.add_argument("--lambdas", type=_csv_floats, default=None)
    sp.add_argument("--sigmas", type=_csv_floats, default=None)
    sp.add_argument(
        "--propensity", choices=["known", "logistic"], default="known"
    )
    sp.add_argument("--no-r-steps", action="store_true")
    sp.add_argument("--seed", type=int, default=0)


def _config_from_args(args, parser):
    if args.select == "embedded" and args.kernel != "linear":
        parser.error("--select embedded requires --kernel linear")
    if args.penalty == "l1" and args.kernel != "linear":
        parser.error("--penalty l1 requires --kernel linear")
    if args.penalty == "l1" and args.select == "two-stage":
        parser.error("--select two-stage requires --penalty l2")
    kwargs = dict(
        kernel_kind=args.kernel,
        penalty="l1linear" if args.penalty == "l1" else "l2",
        selection=args.select,
        cv_folds=args.cv,
        seed=args.seed,
        propensity_mode=args.propensity,
        use_r_steps=not args.no_r_steps,
    )
    if args.lambdas is not None:
        kwargs["lambda_grid"] = args.lambdas
    if args.sigmas is not None:
        kwargs["sigma_grid"] = args.sigmas
    return SRConfig(**kwargs)


def cmd_simgen(args, parser):
    spec = get_setting(args.setting, p=args.p)
    data = generate(spec, args.n, args.seed)
    save_csv(data, args.out)
    _write_manifest(
        args.out,
        "simgen",
        {
            "setting": spec.id,
            "k_arms": spec.k_arms,
            "p": spec.p,
            "loss": spec.loss_kind,
            "kind": spec.kind,
            "params": list(spec.params),
            "effect_scale": spec.effect_scale,
            "n": args.n,
            "seed": args.seed,
        },
    )
    return EXIT_OK


def cmd_fit(args, parser):
    config = _config_from_args(args, parser)
    data = load_csv(args.data, reverse_arms=args.reverse_arms)
    model = fit_sr(data, config)
    save_model(model, args.out)
    resolved = {f.name: getattr(config, f.name) for f in config.__dataclass_fields__.values()}
    resolved.update({"data": args.data, "n": data.n, "k_arms": data.k_arms})
    _write_manifest(args.out, "fit", resolved)
    if args.cv_trace:
        rows = []
        for step, cv in model.cv_trace:
            if cv is None:
                rows.append([step, None, None, None, "degenerate"])
                continue
            for lam, sigma, score in cv.table:
                chosen = lam == cv.best_lambda and sigma == cv.best_sigma
                rows.append([step, lam, sigma, score, int(chosen)])
        header = ["step", "lambda", "sigma", "mean_value", "selected"]
        _write_csv(args.cv_trace, header, rows)
    return EXIT_OK


def cmd_predict(args, parser):
    model = load_model(args.model)
    data = load_csv(args.data, k_arms=model.k_arms)
    pred = predict_ordinal(model, data.features)
    _write_csv(args.out, ["row", "pred"], enumerate(pred.tolist()))
    _write_manifest(args.out, "predict", {"model": args.model, "data": args.data, "n": data.n})
    return EXIT_OK


def cmd_evaluate(args, parser):
    model = load_model(args.model)
    data = load_csv(args.data, k_arms=model.k_arms)
    pred = predict_ordinal(model, data.features)
    report = ev.evaluate_rule(pred, data)
    header = ["n_test", "value", "itr_effect"] + [f"prop_{k}" for k in range(1, data.k_arms + 1)]
    row = [report.n_test, report.value, report.itr_effect, *report.assignment_proportions]
    if report.misclassification is not None:
        header += ["misclass", "disagreement"]
        row += [report.misclassification, report.disagreement]
    _write_csv(args.out, header, [row])
    _write_manifest(args.out, "evaluate", {"model": args.model, "data": args.data})
    return EXIT_OK


def cmd_benchmark(args, parser):
    settings = args.settings.split(",")
    methods = args.methods.split(",")
    for m in methods:
        if m not in ev.METHOD_PRESETS:
            parser.error(f"unknown method {m!r}; presets: {sorted(ev.METHOD_PRESETS)}")
    rows, failures = ev.run_benchmark(
        settings,
        args.n,
        args.replicates,
        methods,
        seed=args.seed,
        test_size=args.test_size,
        jobs=args.jobs,
        p=args.p,
    )
    k_max = max(get_setting(s, p=args.p).k_arms for s in settings)
    ev._write_rows_csv(rows, args.out_prefix + "_rows.csv", k_max)
    ev._write_summary_csv(ev.summarize(rows), args.out_prefix + "_summary.csv")
    ev._write_manifest(
        args.out_prefix + "_manifest.txt",
        settings,
        args.n,
        args.replicates,
        methods,
        args.seed,
        args.test_size,
        p=args.p,
    )
    if failures:
        header = ["setting", "n", "method", "replicate", "error"]
        rows = ([f[c] for c in header] for f in failures)
        _write_csv(args.out_prefix + "_failures.csv", header, rows)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ordinalsr",
        description="Sequential re-estimation learning for ordinal treatment rules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simgen", help="generate a simulated trial CSV")
    sp.add_argument("--setting", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--p", type=int, default=None, help="pad with noise covariates")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("fit", help="fit an SR model from a trial CSV")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--cv-trace", default=None)
    sp.add_argument("--reverse-arms", action="store_true")
    _add_fit_flags(sp)

    sp = sub.add_parser("predict", help="predict arms for a CSV with a fitted model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("evaluate", help="evaluate a fitted model on a CSV")
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("benchmark", help="replicated simulation benchmark")
    sp.add_argument("--settings", required=True, help="comma-separated setting ids")
    sp.add_argument("--n", type=_csv_ints, required=True, help="comma-separated training sizes")
    sp.add_argument("--replicates", type=int, default=20)
    sp.add_argument("--methods", default="sr-linear,oracle")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--test-size", type=int, default=10_000)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--jobs", type=_positive_int, default=os.cpu_count() or 1)
    sp.add_argument("--out-prefix", required=True)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simgen": cmd_simgen,
        "fit": cmd_fit,
        "predict": cmd_predict,
        "evaluate": cmd_evaluate,
        "benchmark": cmd_benchmark,
    }
    try:
        return handlers[args.command](args, parser)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except (OrdinalSRError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
