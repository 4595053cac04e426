"""Time one cold set-up of a benchmark workload in a fresh interpreter.

Set-up is importing ordinalsr (numpy included) from the checkout's ``src``
plus generating the train and test sets.  Prints one JSON object with
``import_s`` and ``generate_s``.  ``run.py`` starts this script several times
per run and reports the median.

    python3 perfbench/setup_probe.py --setting P1 --n 800 --test-rows 10000 --seed 1
"""

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setting", required=True)
    parser.add_argument("--p", type=int, default=None)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--test-rows", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import ordinalsr

    t1 = time.perf_counter()
    spec = ordinalsr.get_setting(args.setting, p=args.p)
    ordinalsr.generate(spec, args.n, args.seed)
    ordinalsr.generate(spec, args.test_rows, args.seed + 100_000)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "generate_s": t2 - t1}))


if __name__ == "__main__":
    main()
