"""The package's public surface: the names its modules export in __all__.

The project tracks their number, the number of defaulted parameters of the
exported functions and the source lines of the package, so a new public
name or knob has to displace one, and growth is stated where it happens.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import ordinalsr
from ordinalsr.aol import KernelExpansionRule, SparseLinearRule
from ordinalsr.data import ScalingParams, fit_scaling
from ordinalsr.evaluate import run_benchmark
from ordinalsr.exceptions import DataError
from ordinalsr.kernels import KernelSpec, gram_matrix, median_bandwidth
from ordinalsr.simgen import SETTINGS, loss, mean_effect, true_optimal
from ordinalsr.solvers import LinearProgram, _L1DualLP, _l1_path, logistic_fit, ols_fit
from ordinalsr.varselect import expand_second_order, screen_stepwise

MAX_PUBLIC_NAMES = 57
MAX_DEFAULTED_PARAMETERS = 18
MAX_SOURCE_LINES = 3319
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _modules_with_all():
    names = sorted(info.name for info in pkgutil.iter_modules(ordinalsr.__path__))
    modules = [importlib.import_module(f"ordinalsr.{name}") for name in names]
    return [module for module in modules if hasattr(module, "__all__")]


def test_public_names_stay_within_the_budget():
    exported = [name for module in _modules_with_all() for name in module.__all__]
    assert len(set(exported)) <= MAX_PUBLIC_NAMES


def test_defaulted_parameters_stay_within_the_budget():
    exported = [getattr(module, name) for module in _modules_with_all() for name in module.__all__]
    defaulted = {
        f"{fn.__module__}.{fn.__name__}({param.name}=)"
        for fn in exported if inspect.isfunction(fn)
        for param in inspect.signature(fn).parameters.values()
        if param.default is not param.empty
    }
    assert len(defaulted) <= MAX_DEFAULTED_PARAMETERS, sorted(defaulted)


def test_source_lines_stay_within_the_budget():
    """A change that grows src/ordinalsr/*.py raises MAX_SOURCE_LINES and
    says why in CHANGES.md."""
    sources = Path(ordinalsr.__file__).parent.glob("*.py")
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in sources)
    assert lines <= MAX_SOURCE_LINES


BAD_ROWS = {
    "text": [["a", "b"], ["c", "d"]],
    "nan": [[np.nan, 0.5], [0.2, 0.1]],
    "complex": np.ones((2, 2)) + 1j,
}
# each entry point: a call with the bad rows in place of its main array (a
# scalar read from them for run_benchmark's replicates), and a mismatched shape
ENTRY_POINTS = {
    "gram_matrix": (
        lambda X: gram_matrix(KernelSpec("gaussian", 0.5), X, np.ones((2, 2))),
        lambda: gram_matrix(KernelSpec("linear"), np.ones((2, 2)), np.ones((2, 3))),
    ),
    "median_bandwidth": (median_bandwidth, lambda: median_bandwidth(np.ones((2, 2, 2)))),
    "ols_fit": (lambda X: ols_fit(X, np.ones(2)), lambda: ols_fit(np.ones((3, 2)), np.ones(2))),
    "LinearProgram": (
        lambda G: LinearProgram(np.ones(2), G, np.ones(2), ("<=", "<="), np.zeros(2, bool)),
        lambda: LinearProgram(np.ones(2), np.ones((2, 3)), np.ones(2), ("<=", "<="),
                              np.zeros(2, bool)),
    ),
    "expand_second_order": (expand_second_order, lambda: expand_second_order(np.ones((2, 2, 2)))),
    "screen_stepwise": (
        lambda X: screen_stepwise(X, np.array([0.0, 1.0])),
        lambda: screen_stepwise(np.ones((30, 2)), np.resize([0.0, 1.0], 29)),
    ),
    "run_benchmark": (
        lambda X: run_benchmark(["N8"], [20], np.asarray(X)[0, 0], ["oracle"]),
        lambda: run_benchmark(["N8"], [20], [2], ["oracle"]),
    ),
    "logistic_fit": (
        lambda X: logistic_fit(X, [0, 1]),
        lambda: logistic_fit(np.ones((3, 2)), [0, 1]),
    ),
    "logistic_fit-labels": (
        lambda X: logistic_fit(np.eye(2), np.asarray(X)[0]),
        lambda: logistic_fit(np.eye(2), [[0, 1]]),
    ),
    "ScalingParams": (lambda X: ScalingParams(*X), lambda: ScalingParams(np.ones(2), np.ones(3))),
    "fit_scaling": (fit_scaling, lambda: fit_scaling(np.ones((2, 2, 2)))),
    "_L1DualLP": (
        lambda X: _L1DualLP(X, [1, -1]),
        lambda: _L1DualLP(np.eye(2), [1, -1, 1]),
    ),
    "_L1DualLP-labels": (
        lambda X: _L1DualLP(np.eye(2), np.asarray(X)[0]),
        lambda: _L1DualLP(np.eye(2), [[1, -1]]),
    ),
    "_l1_path-weights": (
        lambda X: _l1_path(_L1DualLP(np.eye(2), [1, -1]), np.asarray(X)[0], (0.1,)),
        lambda: _l1_path(_L1DualLP(np.eye(2), [1, -1]), np.ones((2, 2)), (0.1,)),
    ),
    "SparseLinearRule": (
        lambda X: SparseLinearRule(0.0, np.asarray(X)[0]),
        lambda: SparseLinearRule(0.0, np.ones((2, 2))),
    ),
    "KernelExpansionRule": (
        lambda X: KernelExpansionRule(X, [1.0, 1.0], 0.0, KernelSpec("linear"), 2),
        lambda: KernelExpansionRule(np.ones((2, 3)), [1.0, 1.0], 0.0, KernelSpec("linear"), 2),
    ),
    "true_optimal": (
        lambda X: true_optimal(SETTINGS["N8"], X),
        lambda: true_optimal(SETTINGS["P1"], np.ones((2, 3))),
    ),
    "mean_effect": (
        lambda X: mean_effect(SETTINGS["N8"], X),
        lambda: mean_effect(SETTINGS["P1"], [[0.0]]),
    ),
    "loss": (
        lambda X: loss(SETTINGS["N8"], X, X),
        lambda: loss(SETTINGS["N8"], [1, 2], [1, 2, 3]),
    ),
}


@pytest.mark.parametrize("bad", [*BAD_ROWS, "shape"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_reject_malformed_input(entry, bad):
    """Strings, NaN, complex values and a mismatched shape end in DataError,
    never a raw ValueError or TypeError, nor a NaN result."""
    with_rows, mismatched = ENTRY_POINTS[entry]
    with pytest.raises(DataError):
        mismatched() if bad == "shape" else with_rows(BAD_ROWS[bad])


def test_every_traced_layer_function_resolves():
    """perfbench's tracer looks up each (module, function) of its
    LAYER_FUNCTIONS in the package; a missing one fails its traced runs."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    (layers,) = [
        ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "LAYER_FUNCTIONS" for target in node.targets)
    ]
    assert layers
    for module_name, name in layers:
        module = importlib.import_module(f"ordinalsr.{module_name}")
        assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_every_exported_name_resolves_once_per_module():
    for module in _modules_with_all():
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(ordinalsr.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, "the package imports only its own modules"
        module = importlib.import_module(f"ordinalsr.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert getattr(ordinalsr, alias.asname or alias.name) is getattr(module, alias.name)
