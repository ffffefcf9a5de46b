import ast
import importlib
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# tier-1 never runs the benchmark, so a name renamed in the package would
# break it unseen
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
MISSING = object()


def _imported(module, name):
    """What ``from module import name`` binds, or MISSING."""
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module.__name__}.{name}")
    except ModuleNotFoundError:
        return MISSING


def _kpplab_modules(tree):
    """Check every name a parsed file imports from kpplab; return the kpplab
    modules it binds, by local name."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] != "kpplab":
                continue
            module = importlib.import_module(node.module)
            bound = {alias.asname or alias.name: _imported(module, alias.name)
                     for alias in node.names}
            missing = [name for name, value in bound.items()
                       if value is MISSING]
            assert not missing, f"{node.module} lacks {missing}"
            modules.update((name, value) for name, value in bound.items()
                           if isinstance(value, types.ModuleType))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "kpplab":
                    module = importlib.import_module(alias.name)
                    if alias.asname:
                        modules[alias.asname] = module
                    else:
                        modules["kpplab"] = importlib.import_module("kpplab")
    return modules


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_imports_name_what_kpplab_has(path):
    # parsed, never run: a name deleted from the package would otherwise
    # break a demo unseen
    _kpplab_modules(ast.parse(path.read_text(), str(path)))


@pytest.mark.parametrize("path", PERFBENCH,
                         ids=lambda path: f"perfbench/{path.name}")
def test_perfbench_reads_what_kpplab_has(path):
    # every imported name, and every attribute read off an imported kpplab
    # module (ops.assemble_tilted, pde.ReactionSpec, ...), resolves
    tree = ast.parse(path.read_text(), str(path))
    modules = _kpplab_modules(tree)
    missing = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name)
               and node.value.id in modules
               and not hasattr(modules[node.value.id], node.attr)]
    assert not missing, f"kpplab lacks {missing}"


def test_perfbench_traces_functions_kpplab_has():
    path = ROOT / "perfbench" / "spans.py"
    traced = [node.value for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Assign)
              and [t.id for t in node.targets if isinstance(t, ast.Name)]
              == ["TRACED"]]
    assert len(traced) == 1
    keys = [ast.literal_eval(key) for key in traced[0].keys]
    assert len(keys) >= 8
    missing = [key for key in keys
               if not callable(getattr(importlib.import_module(
                   f"kpplab.{key.split('.')[0]}"), key.split(".")[1], None))]
    assert not missing, f"kpplab lacks the traced {missing}"
