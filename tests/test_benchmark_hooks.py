"""The benchmark's span hooks name bindings that exist in the package.

``benchmarks/tracing.py`` wraps package attributes from outside and
skips any it cannot find, so a rename in ``src/`` would otherwise show
up only as an "unhooked" entry in a traced benchmark run.
"""

import importlib.util
import os
import sys
from types import SimpleNamespace

import pytest

from qcbnn import autodiff, circuits, config, experiment, samplers, statevector, training

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "tracing.py")


def _tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


PACKAGE = SimpleNamespace(autodiff=autodiff, circuits=circuits, config=config,
                          experiment=experiment, samplers=samplers,
                          statevector=statevector, training=training)


@pytest.mark.parametrize("level", ["e2e_hooks", "layer_hooks"])
def test_every_hooked_binding_exists(level, monkeypatch):
    hooks = getattr(_tracing(monkeypatch), level)(PACKAGE)
    assert hooks
    missing = [f"{owner.__name__}.{attr}" for _, owner, attr, _ in hooks
               if attr not in owner.__dict__]
    assert missing == []
