#!/bin/sh
# End-to-end command-line workflow: simulate, fit, predict, evaluate, benchmark.
# Every command writes a .manifest.txt sidecar recording its full configuration.
# Runs the installed `ordinalsr` entry point, or else `python3 -m ordinalsr.cli`
# (run from a checkout with PYTHONPATH=src).
set -e
command -v ordinalsr >/dev/null 2>&1 || ordinalsr() { python3 -m ordinalsr.cli "$@"; }
out=$(mktemp -d)

ordinalsr simgen --setting P1 --n 400 --seed 1 --out "$out/train.csv"
ordinalsr simgen --setting P1 --n 2000 --seed 2 --out "$out/test.csv"

ordinalsr fit --data "$out/train.csv" --out "$out/model.txt" \
  --kernel linear --seed 1 --cv-trace "$out/cv_trace.csv"

ordinalsr predict --model "$out/model.txt" --data "$out/test.csv" \
  --out "$out/predictions.csv"

ordinalsr evaluate --model "$out/model.txt" --data "$out/test.csv" \
  --out "$out/eval.csv"
echo "--- evaluation ---"
cat "$out/eval.csv"

ordinalsr benchmark --settings P1 --n 200 --replicates 3 \
  --methods oracle,sr-linear --seed 0 --test-size 1000 --jobs 1 \
  --out-prefix "$out/bench"
echo "--- benchmark summary ---"
cat "$out/bench_summary.csv"

echo "outputs in $out"
