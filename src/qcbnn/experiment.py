"""Experiment harness: seeded sweep runs, artifact emission, reports.

A sweep writes one directory per (architecture, depth) label with one
subdirectory per seed::

    out/
      config_echo.cfg
      summary.csv
      <label>/seed<k>/epochs.csv       per-epoch losses and accuracy
      <label>/seed<k>/checkpoint.qckpt parameter container
      <label>/seed<k>/eval_test.csv    (metric, subset, value) rows
      <label>/seed<k>/weight_samples.csv  (pass_index, qubit, value)
      <label>/seed<k>/config.cfg       per-run effective config

``run_report`` reads a finished sweep directory once and writes one CSV
(+ optional SVG) per row of its figure table: training/validation
curves, test score box data, confidence-error and ensemble-fraction
densities, calibration curves, pooled weight densities, and the
difference versus accuracy scatter.  Every CSV is schema-stable and
byte-deterministic for a fixed (config, seed).
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import replace
from functools import partial

import numpy as np

from . import svg
from .autodiff import load_checkpoint, save_checkpoint
from .circuits import pqc_label
from .config import (
    ConfigError,
    RunConfig,
    config_errors,
    format_config,
    format_value,
    parse_config,
)
from .data import Dataset, SynthSpec, load_dataset, read_image_shape, split, synth_generate
from .files import write_file
from .metrics import EvalReport, build_eval_report, kde_density, report_rows
from .samplers import CHUNK_DIM, N_CHUNKS
from .seeding import stream
from .training import (
    LOSS_COLUMNS,
    TOY_DRAWS,
    DivergenceError,
    ModelState,
    TrainConfig,
    build_model,
    conv_output_shape,
    draw_chunks,
    ensemble_outputs,
    prior_matching_ks,
    train_model,
    train_prior_matching,
)

EPOCH_HEADER = ["epoch", "split", *LOSS_COLUMNS, "accuracy"]
SUMMARY_FIELDS = [
    "train_accuracy", "val_accuracy", "test_accuracy", "precision", "recall",
    "f1", "mean_confidence", "confidence_error_correct", "confidence_error_incorrect",
    "ensemble_fraction_correct", "ensemble_fraction_incorrect", "difference",
]
TOY_TRACE_HEADER = ["step", "logit_term", "disc", "ks"]  # keys of the trace rows
TOY_EVAL_EVERY = 250  # steps between KS checks in the toy-adversarial trace
DUMP_BLOCK_DRAWS = 64  # weight draws formatted at a time by dump_weight_samples


def _write_csv(path, header, rows):
    with write_file(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])


@config_errors()
def resolve_dataset(config: RunConfig) -> Dataset:
    """Load or generate the configured dataset and tag splits."""
    dataset_image_shape(config)  # a bad file or image shape fails before loading
    if config.dataset == "synth":
        dataset = synth_generate(
            SynthSpec(
                n_samples=config.synth_samples,
                imbalance=config.synth_imbalance,
                noise_scale=config.synth_noise,
                seed=config.synth_seed,
            )
        )
    else:
        dataset = load_dataset(config.dataset)
    return split(dataset, config.split_fractions, config.split_seed)


@config_errors()
def dataset_image_shape(config: RunConfig) -> tuple[int, int]:
    """Image (H, W) of the configured dataset, without building or loading
    it: synthetic images have the ``SynthSpec`` size, and a dataset file
    gives it in its header.  Images smaller than the convolution kernel
    are refused."""
    if config.dataset == "synth":
        shape = SynthSpec.height, SynthSpec.width
    else:
        shape = read_image_shape(config.dataset)
    conv_output_shape(shape)
    return shape


def cell_label(config: RunConfig, arch, layers: int, reupload: bool) -> str:
    if config.sampler != "quantum":
        return config.sampler
    return pqc_label(arch, layers, reupload)


def train_one_run(config: RunConfig, tagged: Dataset, arch, layers, reupload, seed,
                  run_dir: str, progress: bool = False) -> dict:
    """Train one sweep cell, write its artifacts, return its summary row."""
    train_cfg = config.train_config(arch, layers, reupload, seed)
    train_set = tagged.subset("train")
    has_val = "validation" in tagged.tags
    val_set = tagged.subset("validation") if has_val else None
    test_set = tagged.subset("test")

    model = build_model(train_cfg, train_set.images.shape[1:])
    try:
        history = train_model(
            model, train_set.images, train_set.labels,
            val_set.images if val_set else None,
            val_set.labels if val_set else None,
            progress=progress,
        )
    except DivergenceError as err:
        raise DivergenceError(f"{cell_label(config, arch, layers, reupload)} {err}") from None

    os.makedirs(run_dir, exist_ok=True)  # only now: a diverged cell creates none
    rows = []
    for h in history:
        rows.append([h["epoch"], "train", *(h[name] for name in LOSS_COLUMNS),
                     h["train_accuracy"]])
        if "val_accuracy" in h:
            rows.append([h["epoch"], "validation", *[None] * len(LOSS_COLUMNS),
                         h["val_accuracy"]])
    _write_csv(os.path.join(run_dir, "epochs.csv"), EPOCH_HEADER, rows)

    save_checkpoint(os.path.join(run_dir, "checkpoint.qckpt"), model.named_arrays())

    report = write_evaluation(model, config, test_set, config.n_ensemble, "test",
                              os.path.join(run_dir, "eval_test.csv"))

    dump_weight_samples(model, config.n_ensemble,
                        os.path.join(run_dir, "weight_samples.csv"))

    single = replace(config, archs=[arch], layers_list=[layers],
                     reupload_list=[reupload], seeds=[seed])
    with write_file(os.path.join(run_dir, "config.cfg")) as fh:
        fh.write(format_config(single))

    last = history[-1]
    return {"train_accuracy": last["train_accuracy"],
            "val_accuracy": last.get("val_accuracy"),
            "test_accuracy": report.accuracy,
            **{f: getattr(report, f) for f in SUMMARY_FIELDS[3:]}}


def write_evaluation(model: ModelState, config: RunConfig, subset: Dataset,
                     n_members: int, tag: str, path) -> EvalReport:
    """Ensemble-evaluate ``subset`` and write its (metric, subset, value)
    report CSV; the one evaluation path of training and ``run_evaluate``."""
    probs, votes = ensemble_outputs(model, subset.images, n_members, ("eval-" + tag,))
    report = build_eval_report(probs, votes, subset.labels, config.calibration_bins)
    _write_csv(path, ["metric", "subset", "value"], report_rows(report))
    return report


def dump_weight_samples(model: ModelState, n_draws: int, path):
    """Weight-sample dump: one row per (circuit pass, qubit) value."""
    if n_draws < 1:
        raise ConfigError(f"draw count must be >= 1, got {n_draws}")
    chunks, _ = draw_chunks(model, n_draws, stream(model.config.seed, "dump"))
    flat = chunks.reshape(-1)
    block_passes = DUMP_BLOCK_DRAWS * N_CHUNKS
    with write_file(path) as fh:
        fh.write("pass_index,qubit,value\n")
        # one f-string per circuit pass, one line for each of its 4 qubits,
        # and one joined string per block of draws, so that only one block's
        # Python floats and text are alive at once
        for first in range(0, n_draws * N_CHUNKS, block_passes):
            values = iter(flat[first * CHUNK_DIM:(first + block_passes) * CHUNK_DIM].tolist())
            fh.write("".join(f"{k},0,{a!r}\n{k},1,{b!r}\n{k},2,{c!r}\n{k},3,{d!r}\n"
                             for k, a, b, c, d in zip(map(str, range(first, first + block_passes)),
                                                      values, values, values, values)))


def run_train(config: RunConfig, progress: bool = False) -> str:
    """Execute the full sweep; returns the output directory."""
    tagged = resolve_dataset(config)  # a bad dataset setting fails before any output
    out = os.path.abspath(config.out)
    os.makedirs(out, exist_ok=True)
    with write_file(os.path.join(out, "config_echo.cfg")) as fh:
        fh.write(format_config(config))

    finished = []  # (label, layers, reupload, seed, summary row) per cell
    for arch, layers, reupload, seed in config.cells():
        label = cell_label(config, arch, layers, reupload)
        run_dir = os.path.join(out, label, f"seed{seed}")
        if progress:
            print(f"[{label} seed {seed}] training...")
        try:
            row = train_one_run(config, tagged, arch, layers, reupload, seed,
                                run_dir, progress=progress)
        except DivergenceError:  # the cells that finished still get their summary
            _write_summary(out, finished)
            raise
        finished.append((label, layers, reupload, seed, row))
    _write_summary(out, finished)
    return out


def _write_summary(out: str, finished: list[tuple]):
    """summary.csv: one row per finished cell, then mean and std rows per label."""
    rows = [[label, layers, reupload, seed] + [row[f] for f in SUMMARY_FIELDS]
            for label, layers, reupload, seed, row in finished]
    by_label: dict[str, list[dict]] = {}
    for label, *_, row in finished:
        by_label.setdefault(label, []).append(row)
    for label in sorted(by_label):
        for stat, fn in (("mean", np.mean), ("std", np.std)):
            agg = []
            for f in SUMMARY_FIELDS:
                values = [r[f] for r in by_label[label]]
                agg.append(float(fn(values)) if all(v is not None for v in values) else None)
            rows.append([label, "", "", stat] + agg)
    _write_csv(os.path.join(out, "summary.csv"),
               ["label", "layers", "reupload", "seed"] + SUMMARY_FIELDS, rows)


# --- evaluation of stored checkpoints ------------------------------------------


def read_run_config(run_dir: str) -> RunConfig:
    """The single-cell config a finished run echoed into its ``config.cfg``."""
    path = os.path.join(run_dir, "config.cfg")
    if not os.path.exists(path):
        raise FileNotFoundError(f"missing run artifact: {path}")
    with open(path) as fh, config_errors():
        return parse_config(fh.read())


def load_run(run_dir: str, image_shape: tuple[int, int]) -> tuple[ModelState, RunConfig]:
    """Rebuild the model of a finished run from its config echo and
    checkpoint."""
    config = read_run_config(run_dir)
    ckpt_path = os.path.join(run_dir, "checkpoint.qckpt")
    if not os.path.exists(ckpt_path):
        raise FileNotFoundError(f"missing run artifact: {ckpt_path}")
    model = build_model(config.train_config(*config.cells()[0]), image_shape)
    with config_errors():
        model.load_arrays(load_checkpoint(ckpt_path))
    return model, config


def run_evaluate(run_dir: str, out_path: str | None = None,
                 dataset: Dataset | None = None, n_ensemble: int | None = None,
                 tag: str = "test") -> str:
    """Evaluate a stored run on a dataset split; writes a report CSV."""
    if n_ensemble is not None and n_ensemble < 1:
        raise ConfigError(f"ensemble size must be >= 1, got {n_ensemble}")
    if dataset is None:
        dataset = resolve_dataset(read_run_config(run_dir))
    subset = dataset.subset(tag) if dataset.tags is not None else dataset
    if len(subset) == 0:
        raise ConfigError(f"split {tag!r} has no images to evaluate")
    model, config = load_run(run_dir, subset.images.shape[1:])
    out_path = out_path or os.path.join(run_dir, f"eval_{tag}.csv")
    write_evaluation(model, config, subset,
                     config.n_ensemble if n_ensemble is None else n_ensemble, tag, out_path)
    return out_path


# --- toy adversarial check --------------------------------------------------------


def run_toy_adversarial(out_dir: str, steps: int, seed: int, lr_generator: float,
                        lr_discriminator: float, disc_steps: int) -> float:
    """Distribution-matching check of the adversarial loop without data.

    Trains the classical generator against the uniform prior with the
    likelihood disabled, writes the step trace and final pooled samples,
    and returns the final two-sample KS statistic.
    """
    if steps < 1:
        raise ConfigError(f"step count must be >= 1, got {steps}")
    with config_errors():
        cfg = TrainConfig(epochs=1, seed=seed, sampler="classical", alpha=0.0, beta=1.0,
                          lr_generator=lr_generator, lr_discriminator=lr_discriminator,
                          disc_steps=disc_steps)
    model = build_model(cfg, (SynthSpec.height, SynthSpec.width))
    trace = train_prior_matching(model, steps, eval_every=TOY_EVAL_EVERY)
    os.makedirs(out_dir, exist_ok=True)  # only now: a diverged run creates none
    _write_csv(os.path.join(out_dir, "toy_trace.csv"), TOY_TRACE_HEADER,
               [[r.get(key) for key in TOY_TRACE_HEADER] for r in trace])
    dump_weight_samples(model, TOY_DRAWS // N_CHUNKS,
                        os.path.join(out_dir, "toy_samples.csv"))
    return prior_matching_ks(model, TOY_DRAWS)


# --- report figures ----------------------------------------------------------------


def _read_rows(path, parse) -> list:
    """``parse`` of each row of a run CSV; a row with a missing field, or a
    value that does not parse, is a ConfigError naming the file (a run
    directory from an older version or edited by hand can hold one)."""
    with open(path, newline="") as fh:
        try:
            return [parse(row) for row in csv.DictReader(fh)]
        except (TypeError, ValueError):  # a missing field reads as None
            raise ConfigError(f"truncated or malformed row in {path}") from None


def _finite(text: str) -> float:
    """A finite float of a run CSV's field; a ValueError for nan or inf,
    which no run writes and which would turn a whole figure into nan."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _read_weights(path) -> np.ndarray:
    """The values of a weight dump, a ConfigError naming the file for a
    row without exactly three fields or with a value that does not parse
    or is not finite."""
    with open(path) as fh:
        next(fh, None)  # header
        try:
            values = np.fromiter((float(v) for _, _, v in (line.split(",") for line in fh)),
                                 dtype=np.float64)
        except ValueError:
            raise ConfigError(f"truncated or malformed row in {path}") from None
    if not np.isfinite(values).all():
        raise ConfigError(f"truncated or malformed row in {path}")
    return values


def _read_runs(results_dir: str) -> dict[str, list[tuple]]:
    """Map label -> [(run dir, epochs.csv rows as (split, epoch, accuracy),
    {(metric, subset): value} of its non-empty eval_test.csv values)] over
    the seed dirs holding an epochs.csv, labels and seeds sorted."""
    found: dict[str, list[tuple]] = {}
    for label in sorted(os.listdir(results_dir)):
        label_dir = os.path.join(results_dir, label)
        if not os.path.isdir(label_dir):
            continue
        for name in sorted(os.listdir(label_dir)):
            run = os.path.join(label_dir, name)
            if not (name.startswith("seed") and os.path.exists(os.path.join(run, "epochs.csv"))):
                continue
            epochs = _read_rows(os.path.join(run, "epochs.csv"), lambda r: (
                r["split"], int(r["epoch"]), _finite(r["accuracy"])))
            path = os.path.join(run, "eval_test.csv")
            evals = _read_rows(path, lambda r: (
                (r["metric"], r["subset"]), _finite(v) if (v := r["value"]) != "" else None,
            )) if os.path.exists(path) else []
            found.setdefault(label, []).append(
                (run, epochs, {key: v for key, v in evals if v is not None}))
    return found


def _curves(split_name, runs_by_label, fig) -> list:
    rows = []
    for label, runs in runs_by_label.items():
        per_epoch: dict[int, list[float]] = {}
        for _, epoch_rows, _ in runs:
            for split, epoch, accuracy in epoch_rows:
                if split == split_name:
                    per_epoch.setdefault(epoch, []).append(accuracy)
        if not per_epoch:
            continue
        epochs = sorted(per_epoch)
        means = [float(np.mean(per_epoch[e])) for e in epochs]
        stds = [float(np.std(per_epoch[e])) for e in epochs]
        rows += [[label, e, m, s] for e, m, s in zip(epochs, means, stds)]
        fig.add_line(epochs, means, label=label,
                     band_low=[m - s for m, s in zip(means, stds)],
                     band_high=[m + s for m, s in zip(means, stds)])
    return rows


def _test_scores(runs_by_label, fig) -> list:
    rows, missing = [], []
    for label, runs in runs_by_label.items():
        values = [evals["accuracy", "all"] for _, _, evals in runs if ("accuracy", "all") in evals]
        missing += [os.path.join(run, "eval_test.csv") for run, _, evals in runs
                    if ("accuracy", "all") not in evals]
        if not values:
            continue
        q = np.percentile(values, [0, 25, 50, 75, 100])
        fig.add_box(len(rows), q, label=label)
        rows.append([label] + [float(v) for v in q])
    if missing:
        print("notice: missing test evaluations, some box entries skipped: "
              + ", ".join(missing))
    return rows


def _density(metric, runs_by_label, fig) -> list:
    rows = []
    for label, runs in runs_by_label.items():
        for subset in ("correct", "incorrect"):
            values = [evals[metric, subset] for _, _, evals in runs if (metric, subset) in evals]
            if len(values) < 2:
                continue
            series = f"{label}/{subset}"
            est = kde_density(np.array(values))
            if est.point_mass:
                rows.append([series, est.location, ""])
                continue
            rows += [[series, g, d] for g, d in zip(est.grid, est.density)]
            fig.add_line(est.grid, est.density, label=series)
    return rows


def _calibration(runs_by_label, fig) -> list:
    fig.add_line([0.0, 1.0], [0.0, 1.0], label="ideal")
    rows = []
    for label, runs in runs_by_label.items():
        bins: dict[str, list[tuple[float, float]]] = {}
        for _, _, evals in runs:
            for (key, subset), conf in evals.items():
                if subset == "confidence" and (key, "accuracy") in evals:
                    bins.setdefault(key, []).append((conf, evals[key, "accuracy"]))
        points = sorted((float(np.mean([c for c, _ in v])), float(np.mean([a for _, a in v])))
                        for v in bins.values())
        if points:
            rows += [[label, c, a] for c, a in points]
            fig.add_line([c for c, _ in points], [a for _, a in points], label=label)
    return rows


def _weight_kde(runs_by_label, fig) -> list:
    rows = []
    for label, runs in runs_by_label.items():
        paths = [os.path.join(run, "weight_samples.csv") for run, _, _ in runs]
        pooled = [_read_weights(path) for path in paths if os.path.exists(path)]
        if sum(map(len, pooled)) < 2:
            print(f"notice: no weight samples for {label}, omitted from weight_kde")
            continue
        est = kde_density(np.concatenate(pooled), np.linspace(-1.2, 1.2, 241))
        rows += [[label, g, d] for g, d in zip(est.grid, est.density)]
        fig.add_line(est.grid, est.density, label=label)
    return rows


def _scatter(runs_by_label, fig) -> list:
    rows = []
    for label, runs in runs_by_label.items():
        points = [(run.rsplit("seed", 1)[-1], evals["difference", "all"], evals["accuracy", "all"])
                  for run, _, evals in runs
                  if ("difference", "all") in evals and ("accuracy", "all") in evals]
        if points:
            rows += [[label, *p] for p in points]
            fig.add_scatter([d for _, d, _ in points], [a for *_, a in points], label=label)
    return rows


# One row per figure family: name, CSV header, (title, x label, y label),
# the gather that adds each label's series to the figure and returns the
# CSV rows, and the notice printed when it returns none.  Densities with
# one common value over seeds give one row at that value and no line.
_FIGURES = [
    ("train_curves", ["label", "epoch", "mean", "std"],
     ("train accuracy over epochs", "epoch", "accuracy"), partial(_curves, "train"),
     "no train rows in epochs.csv, curve figure skipped"),
    ("validation_curves", ["label", "epoch", "mean", "std"],
     ("validation accuracy over epochs", "epoch", "accuracy"), partial(_curves, "validation"),
     "no validation rows in epochs.csv, curve figure skipped"),
    ("test_scores", ["label", "min", "q1", "median", "q3", "max"],
     ("final test accuracy by architecture", "architecture", "accuracy"), _test_scores, None),
    ("confidence_error_density", ["series", "grid", "density"],
     ("confidence error density", "confidence_error", "density"),
     partial(_density, "confidence_error"),
     "not enough evaluations for confidence_error_density, figure skipped"),
    ("ensemble_fraction_density", ["series", "grid", "density"],
     ("ensemble fraction density", "ensemble_fraction", "density"),
     partial(_density, "ensemble_fraction"),
     "not enough evaluations for ensemble_fraction_density, figure skipped"),
    ("calibration", ["label", "mean_confidence", "accuracy"],
     ("calibration", "mean confidence", "empirical accuracy"), _calibration,
     "no test evaluations found, calibration figure skipped"),
    ("weight_kde", ["label", "grid", "density"],
     ("pooled weight distribution density", "weight value", "density"), _weight_kde, None),
    ("difference_scatter", ["label", "seed", "difference", "accuracy"],
     ("confidence difference vs test accuracy", "difference", "accuracy"), _scatter,
     "no evaluations found, difference scatter skipped"),
]


def run_report(results_dir: str, emit_svg: bool = True) -> list[str]:
    """Emit the figure families for a finished sweep; returns the paths.

    Figures whose inputs are missing are skipped with a printed notice
    naming the missing artifact, and an earlier report's files of a skipped
    figure are removed; other files in ``figures/`` are left alone.
    """
    runs_by_label = _read_runs(results_dir)
    if not runs_by_label:
        raise FileNotFoundError(f"no run artifacts under {results_dir}")
    fig_dir = os.path.join(results_dir, "figures")
    os.makedirs(fig_dir, exist_ok=True)
    for name, *_ in _FIGURES:  # no figure of an earlier report outlives this one
        for path in (os.path.join(fig_dir, name + ".csv"), os.path.join(fig_dir, name + ".svg")):
            if os.path.exists(path):
                os.remove(path)
    written: list[str] = []
    for name, header, axes, gather, notice in _FIGURES:
        fig = svg.Figure(*axes)
        rows = gather(runs_by_label, fig)
        if not rows:
            if notice:
                print(f"notice: {notice}")
            continue
        path = os.path.join(fig_dir, name)
        _write_csv(path + ".csv", header, rows)
        written.append(path + ".csv")
        if emit_svg:
            with write_file(path + ".svg") as fh:
                fh.write(fig.render())
            written.append(path + ".svg")
    return written
