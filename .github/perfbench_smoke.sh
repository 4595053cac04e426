#!/bin/sh
# One zero-second perfbench run per workload, plain and traced, from the
# repository root; fails unless every run's last line reports "correct": true.
set -e
for w in linear-p1 gaussian-n8 l1-p1 select-n8p20; do
  for t in 0 1; do
    last=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 0 --trace "$t" | tail -n 1)
    echo "$w trace=$t: $last"
    echo "$last" | python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.stdin.read())["correct"] is True else 1)'
  done
done
