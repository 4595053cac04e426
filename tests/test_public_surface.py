"""The package's public surface: the names its modules export in __all__.

The project tracks their number, and the number of defaulted parameters of
the exported functions, so a new public name or knob has to displace one.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import ordinalsr

MAX_PUBLIC_NAMES = 64
MAX_DEFAULTED_PARAMETERS = 19
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
