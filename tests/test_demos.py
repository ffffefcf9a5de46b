import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_imports_name_what_kpplab_has(path):
    # parsed, never run: a name deleted from the package would otherwise
    # break a demo unseen
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] != "kpplab":
                continue
            module = importlib.import_module(node.module)
            missing = [alias.name for alias in node.names
                       if not hasattr(module, alias.name)]
            assert not missing, f"{node.module} lacks {missing}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "kpplab":
                    importlib.import_module(alias.name)
