"""qcbnn benchmark: one command, three workloads, end-to-end and per-layer metrics.

Run from the root of a qcbnn checkout (the package is imported from
``src/``, nothing needs installing)::

    python3 benchmarks/run.py --workload train-quantum-depth --seed 1 --seconds 30 --trace 0

Each run is one process and one client in a closed loop: it sets the
workload up several times (``setup_s`` is the median), checks gradients
outside the timed region, then repeats the workload's timed iteration
(at least twice) until ``--seconds`` would be exceeded, starting the
next iteration only after the previous one has finished and been
checked.  BLAS and OpenMP are pinned to one thread.  Inputs (synthetic
dataset, split, training seed) all derive from ``--seed``.

Every reported time is at the host's reference speed: ``speed.py``
times a fixed piece of reference work every 50 ms of the timed regions
and scales each timed interval by how fast the host ran near it,
because the shared host's CPU speed changes by up to 1.7x for seconds
at a time.  The raw wall times and the probe's readings are printed on
the ``info`` line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics of the
traced ones; the traced iterations wrap the package's public functions
from ``tracing.py`` and must produce the same output digest as the
untraced ones.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads (see BENCHMARK.json for why each exists):

* ``train-quantum-depth`` -- one ``run_train`` sweep of circuit_iii with
  layers 1,2 and reupload false,true (cells L1 and L2re).
* ``train-baselines`` -- one ``run_train`` cell each with the classical
  and the plain-VI sampler on the same data and seed.
* ``evaluate-checkpoints`` -- set-up trains circuit_iii L1, matic_ii L1
  and classical for two epochs; the timed region evaluates each
  checkpoint on the test and train splits (100 members), dumps 1000
  weight draws from each and runs ``run_report`` over both sweeps.  It
  has no training in its timed region, so its ``train_*`` metrics are
  taken from the set-up training.

Every sweep cell, evaluation, dump, report, gradient check and repeat
check is one operation; a failed check or an exception counts as a
failed operation, and ``error_rate`` is failed / attempted.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import replace
from types import SimpleNamespace

import speed
import tracing

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")

EPOCHS = 1             # per sweep cell in the training workloads
CHECKPOINT_EPOCHS = 2  # per set-up run of evaluate-checkpoints, whose train_* metrics they give
EVAL_MEMBERS = 100
DUMP_DRAWS = 1000
GRAD_ROWS = 16
SETUP_REPEATS = {"train-quantum-depth": 15, "train-baselines": 15, "evaluate-checkpoints": 4}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "train_steps_per_s": "1/s",
    "train_step_ms_p50": "ms",
    "train_step_ms_p90": "ms",
    "eval_member_images_per_s": "1/s",
    "weight_draws_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "statevector.calls": "count",
    "statevector.rows": "count",
    "statevector.rows_per_call": "rows/call",
    "statevector.busy_s": "s",
    "samplers.forward.calls": "count",
    "samplers.forward.rows": "count",
    "samplers.forward.busy_s": "s",
    "samplers.forward.useful_ratio": "ratio",
    "samplers.jacobian.calls": "count",
    "samplers.jacobian.shifted_rows": "count",
    "samplers.jacobian.busy_s": "s",
    "samplers.discriminator.calls": "count",
    "samplers.discriminator.busy_s": "s",
    "autodiff.conv2d.calls": "count",
    "autodiff.conv2d.busy_s": "s",
    "autodiff.backward.calls": "count",
    "autodiff.backward.busy_s": "s",
    "autodiff.adam.calls": "count",
    "autodiff.adam.busy_s": "s",
    "autodiff.checkpoint.bytes": "B",
    "autodiff.checkpoint.busy_s": "s",
    "training.train_step.calls": "count",
    "training.train_step.busy_s": "s",
    "training.train_step.self_s": "s",
    "training.ensemble.calls": "count",
    "training.ensemble.member_images": "count",
    "training.ensemble.busy_s": "s",
    "training.forward_probs.busy_s": "s",
    "training.eval_share": "ratio",
    "metrics.report.busy_s": "s",
    "metrics.kde.calls": "count",
    "metrics.kde.busy_s": "s",
    "data.busy_s": "s",
    "circuits.busy_s": "s",
    "experiment.train_one_run.busy_s": "s",
    "experiment.run_evaluate.busy_s": "s",
    "experiment.dump_weight_samples.busy_s": "s",
    "experiment.run_report.busy_s": "s",
    "experiment.artifacts.files": "count",
    "experiment.artifacts.bytes": "B",
}

HASHED_SET = ("summary.csv", "epochs.csv", "eval_test.csv", "weight_samples.csv")
CELL_FILES = ("epochs.csv", "eval_test.csv", "weight_samples.csv", "checkpoint.qckpt",
              "config.cfg")


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


class Ledger:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @contextlib.contextmanager
    def op(self, what: str):
        self.attempted += 1
        try:
            yield
        except Exception as err:  # a failed op is counted and the run goes on
            self.failures.append(f"{what}: {type(err).__name__}: {err}")
            traceback.print_exc(file=sys.stderr)


def load_package():
    """Import qcbnn from the checkout's ``src``; None when it is missing."""
    if not os.path.isfile(os.path.join(SRC, "qcbnn", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import numpy
    from qcbnn import (autodiff, circuits, config, experiment, samplers, statevector,
                       training)

    return SimpleNamespace(np=numpy, autodiff=autodiff, circuits=circuits, config=config,
                           experiment=experiment, samplers=samplers,
                           statevector=statevector, training=training)


# --- output checks -------------------------------------------------------------------


def digest(root: str, names) -> str:
    """sha256 over (relative path, bytes) of every file under root whose
    name is in ``names``, in sorted path order."""
    h = hashlib.sha256()
    found = []
    for dirpath, _, files in os.walk(root):
        found += [os.path.join(dirpath, f) for f in files if f in names]
    for path in sorted(found):
        h.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_cell(sweep_dir: str, label: str, seed: int, sampler: str, epochs: int):
    run_dir = os.path.join(sweep_dir, label, f"seed{seed}")
    for name in CELL_FILES:
        path = os.path.join(run_dir, name)
        require(os.path.isfile(path) and os.path.getsize(path) > 0, f"missing {path}")
    train_rows = [r for r in read_rows(os.path.join(run_dir, "epochs.csv"))
                  if r["split"] == "train"]
    require(len(train_rows) == epochs, f"{label}: {len(train_rows)} epoch rows, want {epochs}")
    loss_keys = ("likelihood", "kl", "combined") + (() if sampler == "vi" else ("disc",))
    for row in train_rows:
        for key in loss_keys:
            require(math.isfinite(float(row[key])), f"{label}: non-finite {key} {row[key]}")
    summary = read_rows(os.path.join(sweep_dir, "summary.csv"))
    require(any(r["label"] == label and r["seed"] == str(seed) for r in summary),
            f"summary.csv has no row for {label} seed {seed}")


def same_bytes(path_a: str, path_b: str) -> bool:
    with open(path_a, "rb") as a, open(path_b, "rb") as b:
        return a.read() == b.read()


def check_report(path: str):
    overall = {r["metric"]: r["value"] for r in read_rows(path) if r["subset"] == "all"}
    value = float(overall["accuracy"])
    require(0.0 <= value <= 1.0, f"{path}: accuracy {value} outside [0, 1]")


def check_gradients(q, sampler, rng, label: str):
    """Batched shift-rule Jacobian against the per-row shift rule (while
    the package has one) and central finite differences on GRAD_ROWS
    noise rows."""
    np = q.np
    template, theta = sampler.template, sampler.theta.data
    noise = rng.uniform(0.0, 2 * math.pi, size=(GRAD_ROWS, template.input_slots))
    jac = sampler.jacobian(noise)
    reference = getattr(q.statevector, "parameter_shift_grad", None)
    for i in range(GRAD_ROWS if reference else 0):
        require(np.allclose(jac[i], reference(template, theta, noise[i]), rtol=0, atol=1e-10),
                f"{label}: jacobian row {i} differs from parameter_shift_grad")
    h = 1e-6
    fd = np.empty_like(jac)
    for j in range(template.param_slots):
        step = np.zeros_like(theta)
        step[j] = h
        plus = q.statevector.run_circuit_batch(template, theta + step, noise)
        minus = q.statevector.run_circuit_batch(template, theta - step, noise)
        fd[:, :, j] = (plus - minus) / (2 * h)
    err = float(np.abs(fd - jac).max())
    require(err < 1e-6, f"{label}: jacobian differs from central differences by {err}")


# --- workloads --------------------------------------------------------------------------


class Workload:
    """Set-up, checks and one timed iteration of a workload."""

    def __init__(self, q, seed: int, ledger: Ledger):
        self.q, self.seed, self.ledger = q, seed, ledger
        arch = q.circuits.Architecture
        self.base = q.config.RunConfig(
            archs=[arch.CIRCUIT_III], seeds=[seed], epochs=EPOCHS,
            synth_seed=seed, split_seed=seed, n_ensemble=EVAL_MEMBERS)
        self.digests: dict[str, set[str]] = {}

    def record_digest(self, kind: str, value: str):
        """Repeats of one seed within a run must give the same digest."""
        seen = self.digests.setdefault(kind, set())
        if seen:
            with self.ledger.op(f"repeat {kind}"):
                require(value in seen, f"{kind} digest {value[:12]} differs from "
                                       f"earlier repeat {sorted(seen)[0][:12]}")
        seen.add(value)

    def artifact_dirs(self, it_dir: str) -> list[str]:
        """Directories an iteration writes its artifacts into."""
        return [it_dir]

    def run_sweep(self, cfg, clock) -> list[str]:
        """run_train plus its cell checks; returns the checked run dirs."""
        error = None
        try:
            with clock:
                self.q.experiment.run_train(cfg)
        except Exception as err:  # counted against every cell of the sweep below
            error = err
            traceback.print_exc(file=sys.stderr)
        run_dirs = []
        for arch, layers, reupload, seed in cfg.cells():
            label = self.q.experiment.cell_label(cfg, arch, layers, reupload)
            with self.ledger.op(f"cell {label} seed {seed}"):
                if error is not None:
                    raise error
                check_cell(cfg.out, label, seed, cfg.sampler, cfg.epochs)
                run_dirs.append(os.path.join(cfg.out, label, f"seed{seed}"))
        return run_dirs

    def evaluate_test(self, run_dir: str, out_path: str, clock):
        """run_evaluate on the test split must reproduce eval_test.csv."""
        with self.ledger.op(f"evaluate test {run_dir}"):
            with clock:
                self.q.experiment.run_evaluate(run_dir, out_path=out_path,
                                               dataset=self.tagged,
                                               n_ensemble=EVAL_MEMBERS, tag="test")
            require(same_bytes(out_path, os.path.join(run_dir, "eval_test.csv")),
                    f"run_evaluate output {out_path} differs from training-time eval_test.csv")


class Clock:
    """Collects the wall-time intervals of the program calls it wraps."""

    def __init__(self):
        self.intervals: list[tuple[float, float]] = []

    def __enter__(self):
        self._t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.intervals.append((self._t0, time.perf_counter()))
        return False


class TrainingWorkload(Workload):
    """run_train sweeps; each sweep's cells are re-evaluated and checked."""

    def configs(self, out: str) -> list:
        raise NotImplementedError

    def setup(self, rep_dir: str):
        q = self.q
        self.tagged = q.experiment.resolve_dataset(self.base)
        train = self.tagged.subset("train")
        self.models = []
        for cfg in self.configs(rep_dir):
            for arch, layers, reupload, seed in cfg.cells():
                model = q.training.build_model(cfg.train_config(arch, layers, reupload, seed),
                                               train.images.shape[1:])
                rng = q.np.random.default_rng(seed)
                q.training.train_step(model, train.images[:cfg.batch_size],
                                      train.labels[:cfg.batch_size], 1.0, rng, rng)
                self.models.append(model)

    def gradient_checks(self):
        rng = self.q.np.random.default_rng(self.seed)
        for model in self.models:
            if isinstance(model.sampler, self.q.samplers.QuantumWeightSampler):
                name = model.sampler.template.name
                with self.ledger.op(f"gradient check {name}"):
                    check_gradients(self.q, model.sampler, rng, name)

    def iteration(self, it_dir: str) -> Clock:
        clock = Clock()
        for cfg in self.configs(it_dir):
            for run_dir in self.run_sweep(cfg, clock):
                rel = os.path.relpath(run_dir, it_dir).replace(os.sep, "_")
                self.evaluate_test(run_dir, os.path.join(it_dir, f"check_{rel}.csv"), clock)
        self.record_digest("outputs", digest(it_dir, HASHED_SET))
        return clock


class QuantumDepth(TrainingWorkload):
    def configs(self, out: str) -> list:
        return [replace(self.base, layers_list=[1, 2], reupload_list=[False, True],
                        out=os.path.join(out, "depth"))]


class Baselines(TrainingWorkload):
    def configs(self, out: str) -> list:
        return [replace(self.base, sampler=s, out=os.path.join(out, s))
                for s in ("classical", "vi")]


class Checkpoints(Workload):
    """Trains three short runs in set-up; evaluates, samples and reports."""

    def sweeps(self, out: str) -> list:
        arch = self.q.circuits.Architecture
        cfg = replace(self.base, epochs=CHECKPOINT_EPOCHS)
        return [replace(cfg, archs=[arch.CIRCUIT_III, arch.MATIC_II],
                        out=os.path.join(out, "quantum")),
                replace(cfg, sampler="classical", out=os.path.join(out, "classical"))]

    def setup(self, rep_dir: str):
        self.tagged = self.q.experiment.resolve_dataset(self.base)
        self.sweep_dirs = []
        self.run_dirs = []
        self.quantum_dirs = []
        for cfg in self.sweeps(rep_dir):
            run_dirs = self.run_sweep(cfg, Clock())
            self.run_dirs += run_dirs
            if cfg.sampler == "quantum":
                self.quantum_dirs += run_dirs
            self.sweep_dirs.append(cfg.out)
        self.record_digest("setup", digest(rep_dir, HASHED_SET))

    def gradient_checks(self):
        rng = self.q.np.random.default_rng(self.seed)
        shape = self.tagged.images.shape[1:]
        for run_dir in self.quantum_dirs:
            with self.ledger.op(f"gradient check {run_dir}"):
                model, _ = self.q.experiment.load_run(run_dir, shape)
                check_gradients(self.q, model.sampler, rng, run_dir)

    def artifact_dirs(self, it_dir: str) -> list[str]:
        return [it_dir] + [os.path.join(d, "figures") for d in self.sweep_dirs]

    def iteration(self, it_dir: str) -> Clock:
        ex = self.q.experiment
        clock = Clock()
        shape = self.tagged.images.shape[1:]
        for run_dir in self.run_dirs:
            name = os.path.basename(os.path.dirname(run_dir))
            self.evaluate_test(run_dir, os.path.join(it_dir, f"eval_test_{name}.csv"), clock)
            out_path = os.path.join(it_dir, f"eval_train_{name}.csv")
            with self.ledger.op(f"evaluate train {name}"):
                with clock:
                    ex.run_evaluate(run_dir, out_path=out_path, dataset=self.tagged,
                                    n_ensemble=EVAL_MEMBERS, tag="train")
                check_report(out_path)
            out_path = os.path.join(it_dir, f"weights_{name}.csv")
            with self.ledger.op(f"dump {name}"):
                with clock:
                    model, _ = ex.load_run(run_dir, shape)
                    ex.dump_weight_samples(model, DUMP_DRAWS, out_path)
                values = [float(r["value"]) for r in read_rows(out_path)]
                want = DUMP_DRAWS * self.q.samplers.N_CHUNKS * self.q.samplers.CHUNK_DIM
                require(len(values) == want, f"{out_path}: {len(values)} values, want {want}")
                require(all(-1.0 <= v <= 1.0 for v in values),
                        f"{out_path}: weight value outside [-1, 1]")
        for sweep_dir in self.sweep_dirs:
            with self.ledger.op(f"report {sweep_dir}"):
                with clock, contextlib.redirect_stdout(io.StringIO()):
                    written = ex.run_report(sweep_dir)
                require(written and all(os.path.isfile(p) for p in written),
                        f"run_report wrote no figures under {sweep_dir}")
        figure_files = {f for d in self.sweep_dirs if os.path.isdir(os.path.join(d, "figures"))
                        for f in os.listdir(os.path.join(d, "figures")) if f.endswith(".csv")}
        outputs = {f for f in os.listdir(it_dir) if f.endswith(".csv")}
        self.record_digest("outputs", digest(it_dir, outputs))
        self.record_digest("figures", digest(os.path.dirname(self.sweep_dirs[0]), figure_files))
        return clock


WORKLOADS = {
    "train-quantum-depth": QuantumDepth,
    "train-baselines": Baselines,
    "evaluate-checkpoints": Checkpoints,
}


# --- metrics ---------------------------------------------------------------------------------


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def step_metrics(views: list[tracing.SpanView]) -> dict:
    """Train-step timings of the given runs.

    Cells of one sweep differ several-fold in step time, so percentiles
    are taken per cell (over all runs) and averaged over cells.  p90 is
    the highest percentile with at least ten steps beyond it in every
    cell of a run.  The throughput is steps over train_model time
    (per-epoch evaluation included) of each run, median over runs.
    """
    per_cell: dict[str, list[float]] = {}
    per_run = []
    for v in views:
        for i in v.named("training.train_step"):
            span = v.all[i]
            per_cell.setdefault(span.attrs["cell"], []).append(v.measure(span) * 1e3)
        steps = sum(1 for i in v.named("training.train_step")
                    if v.has_ancestor(i, "experiment.train_model"))
        per_run.append(steps / v.busy("experiment.train_model"))
    cells = sorted(per_cell)
    return {
        "train_steps_per_s": statistics.median(per_run),
        "train_step_ms_p50": statistics.mean(percentile(per_cell[c], 50) for c in cells),
        "train_step_ms_p90": statistics.mean(percentile(per_cell[c], 90) for c in cells),
        "samples": {c: len(per_cell[c]) for c in cells},
    }


def rate(views: list[tracing.SpanView], name: str, key: str) -> float:
    """Work units over busy time of each run, median over runs."""
    return statistics.median(v.total(name, key) / v.busy(name) for v in views)


def layer_metrics(v: tracing.SpanView, artifacts: tuple[int, int]) -> dict:
    sv_calls = v.count("statevector.run_circuit_batch")
    sv_rows = v.total("statevector.run_circuit_batch", "rows")
    in_step = lambda name: sum(1 for i in v.named(name)  # noqa: E731
                               if v.has_ancestor(i, "training.train_step"))
    forwards_in_step = in_step("samplers.forward")
    train_busy = v.busy("experiment.train_model")
    return {
        "statevector.calls": sv_calls,
        "statevector.rows": sv_rows,
        "statevector.rows_per_call": sv_rows / sv_calls if sv_calls else 0.0,
        "statevector.busy_s": v.busy("statevector.run_circuit_batch"),
        "samplers.forward.calls": v.count("samplers.forward"),
        "samplers.forward.rows": v.total("samplers.forward", "rows"),
        "samplers.forward.busy_s": v.busy("samplers.forward"),
        "samplers.forward.useful_ratio": (in_step("samplers.noise_block") / forwards_in_step
                                          if forwards_in_step else 0.0),
        "samplers.jacobian.calls": v.count("samplers.jacobian"),
        "samplers.jacobian.shifted_rows": sum(
            v.all[i].attrs["rows"]
            for i in v.children_named("statevector.run_circuit_batch", "samplers.jacobian")),
        "samplers.jacobian.busy_s": v.busy("samplers.jacobian"),
        "samplers.discriminator.calls": v.count("samplers.discriminator"),
        "samplers.discriminator.busy_s": v.busy("samplers.discriminator"),
        "autodiff.conv2d.calls": v.count("autodiff.conv2d"),
        "autodiff.conv2d.busy_s": v.busy("autodiff.conv2d"),
        "autodiff.backward.calls": v.count("autodiff.backward"),
        "autodiff.backward.busy_s": v.busy("autodiff.backward"),
        "autodiff.adam.calls": v.count("autodiff.adam"),
        "autodiff.adam.busy_s": v.busy("autodiff.adam"),
        "autodiff.checkpoint.bytes": v.total("autodiff.checkpoint", "bytes"),
        "autodiff.checkpoint.busy_s": v.busy("autodiff.checkpoint"),
        "training.train_step.calls": v.count("training.train_step"),
        "training.train_step.busy_s": v.busy("training.train_step"),
        "training.train_step.self_s": v.self_time("training.train_step"),
        "training.ensemble.calls": v.count("training.ensemble"),
        "training.ensemble.member_images": v.total("training.ensemble", "member_images"),
        "training.ensemble.busy_s": v.busy("training.ensemble"),
        "training.forward_probs.busy_s": v.busy("training.forward_probs"),
        "training.eval_share": (v.busy_within("training.ensemble", "experiment.train_model")
                                / train_busy if train_busy else 0.0),
        "metrics.report.busy_s": v.busy("metrics.report"),
        "metrics.kde.calls": v.count("metrics.kde"),
        "metrics.kde.busy_s": v.busy("metrics.kde"),
        "experiment.train_one_run.busy_s": v.busy("experiment.train_one_run"),
        "experiment.run_evaluate.busy_s": v.busy("experiment.run_evaluate"),
        "experiment.dump_weight_samples.busy_s": v.busy("experiment.dump_weight_samples"),
        "experiment.run_report.busy_s": v.busy("experiment.run_report"),
        "experiment.artifacts.files": artifacts[0],
        "experiment.artifacts.bytes": artifacts[1],
    }


def tree_stats(roots: list[str]) -> tuple[int, int]:
    files = [os.path.join(d, f) for root in roots for d, _, names in os.walk(root)
             for f in names]
    return len(files), sum(os.path.getsize(f) for f in files)


def environment(q, seed: int) -> dict:
    blas = {}
    with contextlib.suppress(TypeError, KeyError):  # dict mode needs numpy >= 1.25
        blas = q.np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": q.np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


# --- running a workload ---------------------------------------------------------------------


def measure(wl: Workload, workload: str, workdir: str, seconds: int, trace: bool,
            recorder: tracing.Recorder, layer_hooks) -> SimpleNamespace:
    """Set-ups, gradient checks, then timed iterations until ``seconds``
    would be exceeded, and at least two: an iteration of
    evaluate-checkpoints takes about half of the run, and its metrics
    should not rest on one of them.  With ``trace`` every second
    iteration is traced.

    The speed probe samples through every set-up and untraced iteration;
    traced runs go without it, so that the reference work shows in no
    layer's span.
    """
    probe = speed.SpeedProbe()
    m = SimpleNamespace(probe=probe, setups=[], setup_runs=[], clocks={False: [], True: []},
                        iter_runs={False: [], True: []}, artifacts={})

    def timed(probed: bool, fn, *args):
        if probed:
            probe.start()
        try:
            t0 = time.perf_counter()
            result = fn(*args)
            t1 = time.perf_counter()
        finally:
            if probed:
                probe.stop()
        return (t0, t1), result

    for rep in range(SETUP_REPEATS[workload]):
        rep_dir = os.path.join(workdir, f"setup{rep}")
        if rep:
            shutil.rmtree(os.path.join(workdir, f"setup{rep - 1}"))
        os.makedirs(rep_dir)
        recorder.run = f"setup{rep}"
        m.setup_runs.append(recorder.run)
        with tracing.Patches(recorder, layer_hooks):
            interval, _ = timed(not trace, wl.setup, rep_dir)
        m.setups.append(interval)
    recorder.run = "checks"
    wl.gradient_checks()

    deadline = time.perf_counter() + seconds
    last = {False: 0.0, True: 0.0}
    i = 0
    while True:
        traced = trace and i % 2 == 1
        it_dir = os.path.join(workdir, f"iter{i}")
        os.makedirs(it_dir)
        recorder.run = f"iter{i}"
        m.iter_runs[traced].append(recorder.run)
        with tracing.Patches(recorder, layer_hooks if traced else []):
            (t0, t1), clock = timed(not traced, wl.iteration, it_dir)
        m.clocks[traced].append(clock.intervals)
        last[traced] = t1 - t0
        m.artifacts[recorder.run] = tree_stats(wl.artifact_dirs(it_dir))
        shutil.rmtree(it_dir)
        i += 1
        next_traced = trace and i % 2 == 1
        if i >= 2 and time.perf_counter() + last[next_traced] > deadline:
            return m


def walls(m: SimpleNamespace, traced: bool, seconds) -> list[float]:
    """Timed-region time of each iteration, by ``seconds(start, end)``."""
    return [sum(seconds(a, b) for a, b in clock) for clock in m.clocks[traced]]


def end_to_end_metrics(m: SimpleNamespace, views, info: dict) -> dict:
    """Every time is at reference speed (see speed.py); the raw wall
    times and the probe's readings go to ``info``."""
    probe = m.probe
    iterations = views(m.iter_runs[False])
    training = iterations
    if not any(v.count("training.train_step") for v in training):
        training = views(m.setup_runs)  # evaluate-checkpoints trains only in set-up
    steps = step_metrics(training)
    info["train_step_samples"] = steps.pop("samples")
    info["raw"] = {"setup_s": statistics.median(probe.raw_seconds(a, b) for a, b in m.setups),
                   "wall_s": statistics.median(walls(m, False, probe.raw_seconds))}
    info["speed_probe"] = {
        "samples": len(probe.durations),
        "reference_ms": speed.REFERENCE_S * 1e3,
        **{f"{k}_ms": f(probe.durations) * 1e3
           for k, f in (("min", min), ("median", statistics.median), ("max", max))},
    }
    return {
        "setup_s": statistics.median(probe.seconds(a, b) for a, b in m.setups),
        "wall_s": statistics.median(walls(m, False, probe.seconds)),
        **steps,
        "eval_member_images_per_s": rate(iterations, "experiment.run_evaluate",
                                         "member_images"),
        "weight_draws_per_s": rate(iterations, "experiment.dump_weight_samples", "draws"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(m: SimpleNamespace, views, info: dict) -> dict:
    """Per traced iteration, median over traced iterations; data and
    circuits are per set-up, whose time they should move."""
    raw = m.probe.raw_seconds
    info["trace_overhead_s"] = (statistics.median(walls(m, True, raw))
                                - statistics.median(walls(m, False, raw)))
    per_iter = [layer_metrics(v, m.artifacts[v.run]) for v in views(m.iter_runs[True])]
    metrics = {k: statistics.median(row[k] for row in per_iter) for k in per_iter[0]}
    for name in ("data", "circuits"):
        metrics[f"{name}.busy_s"] = statistics.median(v.busy(name)
                                                      for v in views(m.setup_runs))
    return metrics


def run(q, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    workdir = os.path.join(WORK, workload, f"seed{seed}-trace{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ledger = Ledger()
    wl = WORKLOADS[workload](q, seed, ledger)
    recorder = tracing.Recorder()
    with tracing.Patches(recorder, tracing.e2e_hooks(q)):
        m = measure(wl, workload, workdir, seconds, trace, recorder,
                    tracing.layer_hooks(q) if trace else [])

    spans_path = os.path.join(workdir, "spans.jsonl")
    with open(spans_path, "w") as fh:
        for row in recorder.to_rows():
            fh.write(json.dumps(row) + "\n")

    info = {"iterations": {"untraced": len(m.clocks[False]), "traced": len(m.clocks[True])},
            "setup_repeats": len(m.setups), "spans": spans_path,
            "unhooked": sorted(recorder.missing),
            "digests": {k: sorted(v) for k, v in wl.digests.items()}}
    scaled = None if trace else (lambda span: m.probe.seconds(span.start, span.end))
    views = lambda runs: [tracing.SpanView(recorder.spans, r, scaled)  # noqa: E731
                          for r in runs]
    units = PER_LAYER if trace else END_TO_END
    try:
        metrics = (per_layer_metrics if trace else end_to_end_metrics)(m, views, info)
        metrics = {name: metrics[name] for name in units}
    except (ValueError, ZeroDivisionError, KeyError):
        # only reachable when operations failed; the run is reported incorrect
        traceback.print_exc(file=sys.stderr)
        info["missing_metrics"] = True
        metrics = dict.fromkeys(units)
    return {"metrics": metrics, "units": units, "ledger": ledger, "info": info,
            "workdir": workdir}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    q = load_package()
    if q is None:
        print(f"error: no qcbnn package under {SRC}; run from the root of a qcbnn "
              "checkout", file=sys.stderr)
        return 2
    env = environment(q, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    result = run(q, args.workload, args.seed, args.seconds, bool(args.trace))
    ledger, metrics, units = result["ledger"], result["metrics"], result["units"]
    for name, value in metrics.items():
        print(f"metric {name} = {value if value is None else format(value, '.6g')} "
              f"{units[name]}")
    print("info " + json.dumps(result["info"], sort_keys=True))
    failed = len(ledger.failures)
    print(f"error_rate = {failed / ledger.attempted:.6g} ({failed} failed of "
          f"{ledger.attempted} ops)")
    for failure in ledger.failures:
        print("failed: " + failure)
    summary = {
        "correct": failed == 0 and "missing_metrics" not in result["info"],
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    with open(os.path.join(result["workdir"], "result.json"), "w") as fh:
        json.dump({**summary, "workload": args.workload, "trace": args.trace, "env": env,
                   "info": result["info"], "failures": ledger.failures}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
