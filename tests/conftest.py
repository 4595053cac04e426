"""Shared fixtures plus the acceptance-criteria report hook.

Acceptance tests record one line per criterion through ``record_criterion``;
the lines are echoed in the terminal summary so every run shows an explicit
pass/fail verdict for each criterion.
"""

import numpy as np
import pytest

from ordinalsr.aol import BinarySubproblem

ACCEPTANCE_LINES = []


def record_criterion(number, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"criterion {number}: {verdict} ({detail})")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def make_subproblem(X, labels, weights, propensities=None, step_id="test"):
    """Assemble a BinarySubproblem directly from arrays (bypasses the builder)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    labels = np.asarray(labels, dtype=int)
    weights = np.asarray(weights, dtype=float)
    m = X.shape[0]
    if propensities is None:
        propensities = np.full(m, 0.5)
    return BinarySubproblem(
        features=X,
        labels=labels,
        weights=weights,
        arm_labels=labels.copy(),
        outcomes=np.zeros(m),
        propensities=np.asarray(propensities, dtype=float),
        step_id=step_id,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
