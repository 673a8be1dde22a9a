"""The demo scripts stay in step with the package.

Every ``from qcbnn.<module> import <name>`` in them resolves, and every
demo runs to completion in a subprocess.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

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


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    """Each demo runs to completion from a scratch directory; QBNN_OUT
    points any artifacts it writes there too."""
    env = dict(os.environ, QBNN_OUT=str(tmp_path / "out"))
    proc = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, f"{path.name} exited {proc.returncode}\n{proc.stderr}"
