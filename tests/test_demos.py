"""Every ``from qcbnn.<module> import <name>`` in the demo scripts resolves.

The demos are narrative scripts that no other test runs; this keeps them
in step with the package when names are removed or renamed, without
running any training.
"""

import ast
import importlib
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "qcbnn"]
    assert imports, f"{path.name} imports nothing from qcbnn"
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), \
                f"{path.name}:{node.lineno} {node.module} has no {alias.name}"
