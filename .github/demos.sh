#!/bin/sh
# Every demo, from the repository root; silent inf/NaN arithmetic fails the
# Python demos as it fails the tests.
set -e
for demo in demos/01_fit_linear_rule.py demos/02_gaussian_kernel_boundaries.py demos/03_variable_selection.py; do
  PYTHONPATH=src python -W error::RuntimeWarning "$demo"
done
PYTHONPATH=src sh demos/04_cli_workflow.sh
