"""Span recording around qcbnn's public functions, applied from outside.

The benchmark never edits the package.  It replaces module and class
attributes with thin wrappers that record one span per call: name,
start, end, parent span, run id and a few counts (rows, images, bytes)
taken from the arguments or the result after the clock has stopped.

A function that another module imported by name has one binding per
importing module (``samplers.run_circuit_batch`` and
``statevector.run_circuit_batch`` are two attributes), so every binding
that the package calls through is wrapped.  A binding that a later
version of the package no longer has is skipped and listed in
``Recorder.missing``; the layers behind it then read zero.

Two levels exist.  ``e2e_hooks`` are the four entry points the
end-to-end metrics are timed from; they stay on in every run.
``layer_hooks`` add one wrapper per layer boundary and are only
installed for traced iterations.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a root span
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store; spans are written out once, at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run = ""
        self.missing: set[str] = set()

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append(Span(name, 0.0, 0.0, parent, self.run))
        return self.spans[-1]

    def close(self):
        self._stack.pop()

    def to_rows(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "run": s.run, **s.attrs}
            for s in self.spans
        ]


def _wrap(recorder: Recorder, name: str, fn, attrs_fn):
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            recorder.close()
        if attrs_fn is not None:
            span.attrs = attrs_fn(args, kwargs, result)
        return result

    return wrapper


def _arg(args, kwargs, position: int, keyword: str):
    return args[position] if len(args) > position else kwargs[keyword]


def _step_key(args, kwargs, result):
    cfg = args[0].config
    cell = cfg.sampler if cfg.sampler != "quantum" else (
        f"{cfg.arch.value}_L{cfg.layers}" + ("re" if cfg.reupload else ""))
    return {"cell": cell}


def _evaluate_images(args, kwargs, result):
    dataset = _arg(args, kwargs, 2, "dataset")
    tag = kwargs.get("tag", args[4] if len(args) > 4 else "test")
    n_images = int((dataset.tags == tag).sum())
    return {"member_images": _arg(args, kwargs, 3, "n_ensemble") * n_images}


def _draws(args, kwargs, result):
    return {"draws": _arg(args, kwargs, 1, "n_draws")}


def _result_rows(args, kwargs, result):
    return {"rows": int(result.shape[0])}


def _noise_rows(args, kwargs, result):
    return {"rows": int(len(args[1]))}


def _ensemble_images(args, kwargs, result):
    return {"member_images": _arg(args, kwargs, 2, "n_members") * len(args[1])}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def e2e_hooks(q):
    """(name, owner, attribute, attrs_fn) for the end-to-end timers."""
    return [
        ("training.train_step", q.training, "train_step", _step_key),
        ("experiment.train_model", q.experiment, "train_model", None),
        ("experiment.run_evaluate", q.experiment, "run_evaluate", _evaluate_images),
        ("experiment.dump_weight_samples", q.experiment, "dump_weight_samples", _draws),
    ]


def layer_hooks(q):
    """(name, owner, attribute, attrs_fn) for every traced layer boundary."""
    sv, sm, ad, tr, ex = q.statevector, q.samplers, q.autodiff, q.training, q.experiment
    return [
        ("statevector.run_circuit_batch", sv, "run_circuit_batch", _result_rows),
        ("statevector.run_circuit_batch", sm, "run_circuit_batch", _result_rows),
        ("samplers.forward", sm.QuantumWeightSampler, "expectations", _noise_rows),
        ("samplers.forward", sm.ClassicalWeightSampler, "forward", _noise_rows),
        ("samplers.jacobian", sm.QuantumWeightSampler, "jacobian", _noise_rows),
        ("samplers.discriminator", sm.Discriminator, "forward", None),
        ("samplers.noise_block", tr, "sample_noise_block", None),
        ("autodiff.conv2d", ad, "conv2d", None),
        ("autodiff.backward", ad, "backward", None),
        ("autodiff.adam", ad.Adam, "step", None),
        ("autodiff.checkpoint", ex, "save_checkpoint", _file_bytes),
        ("autodiff.checkpoint", ex, "load_checkpoint", _file_bytes),
        ("training.ensemble", tr, "ensemble_outputs", _ensemble_images),
        ("training.ensemble", ex, "ensemble_outputs", _ensemble_images),
        ("training.forward_probs", tr, "forward_probs_np", None),
        ("metrics.report", ex, "build_eval_report", None),
        ("metrics.kde", ex, "kde_density", None),
        ("data", ex, "synth_generate", None),
        ("data", ex, "split", None),
        ("data", ex, "load_dataset", None),
        ("circuits", tr, "assemble_pqc", None),
        ("experiment.train_one_run", ex, "train_one_run", None),
        ("experiment.run_report", ex, "run_report", None),
    ]


class Patches:
    """Installs wrappers for a hook list and restores the originals."""

    def __init__(self, recorder: Recorder, hooks):
        self.recorder = recorder
        self.hooks = hooks
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for name, owner, attr, attrs_fn in self.hooks:
            original = owner.__dict__.get(attr)
            if original is None:
                self.recorder.missing.add(f"{owner.__name__}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(self.recorder, name, original, attrs_fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


# --- span arithmetic ------------------------------------------------------------


class SpanView:
    """Queries over the spans of one run id.

    ``measure`` gives a span's duration; the default is its wall time.
    """

    def __init__(self, spans: list[Span], run: str, measure=None):
        self.all = spans
        self.run = run
        self.measure = measure or (lambda span: span.duration)
        self.index = [i for i, s in enumerate(spans) if s.run == run]
        self._children: dict[int, list[int]] = {}
        for i in self.index:
            self._children.setdefault(spans[i].parent, []).append(i)

    def named(self, name: str) -> list[int]:
        return [i for i in self.index if self.all[i].name == name]

    def has_ancestor(self, i: int, name: str) -> bool:
        parent = self.all[i].parent
        while parent >= 0:
            if self.all[parent].name == name:
                return True
            parent = self.all[parent].parent
        return False

    def outermost(self, name: str) -> list[int]:
        """Spans of ``name`` not nested in another span of the same name."""
        return [i for i in self.named(name) if not self.has_ancestor(i, name)]

    def busy(self, name: str) -> float:
        return sum(self.measure(self.all[i]) for i in self.outermost(name))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def total(self, name: str, key: str) -> int:
        return sum(self.all[i].attrs.get(key, 0) for i in self.named(name))

    def self_time(self, name: str) -> float:
        """Duration of ``name`` spans minus the time their children cover."""
        out = 0.0
        for i in self.named(name):
            children = self._children.get(i, [])
            out += self.measure(self.all[i]) - sum(self.measure(self.all[c]) for c in children)
        return out

    def children_named(self, name: str, parent_name: str) -> list[int]:
        return [i for i in self.named(name)
                if self.all[i].parent >= 0 and self.all[self.all[i].parent].name == parent_name]

    def busy_within(self, name: str, ancestor: str) -> float:
        return sum(self.measure(self.all[i]) for i in self.outermost(name)
                   if self.has_ancestor(i, ancestor))
