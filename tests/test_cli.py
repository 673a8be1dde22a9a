import csv
import os
import pathlib
import re
import shutil
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcbnn import cli, experiment, training
from qcbnn.autodiff import load_checkpoint, save_checkpoint
from qcbnn.circuits import Architecture
from qcbnn.config import (
    ConfigError,
    RunConfig,
    apply_settings,
    config_errors,
    format_config,
    parse_config,
)
from qcbnn.data import Dataset, SynthSpec, save_dataset, synth_generate
from qcbnn.experiment import (
    _write_csv,
    dataset_image_shape,
    dump_weight_samples,
    load_run,
    read_run_config,
    resolve_dataset,
    run_evaluate,
    run_report,
    run_toy_adversarial,
    run_train,
)
from qcbnn.samplers import CHUNK_DIM
from qcbnn.seeding import stream
from qcbnn.training import (
    DivergenceError,
    TrainConfig,
    build_model,
    draw_weight_samples,
    ensemble_outputs,
    train_epoch,
    train_model,
)

# config-file text: ``#`` starts a comment, ``=`` splits key from value,
# and values are stripped, so drawn strings avoid all three
_TEXT = st.text(
    st.characters(blacklist_characters="#=", blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
    max_size=12,
).filter(lambda s: s == s.strip())
_POSITIVE = st.integers(1, 10**6)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_RATE = st.floats(0.0, 10.0, exclude_min=True)
_WEIGHT = st.floats(0.0, 10.0)
_SCALE = st.floats(0.0, allow_infinity=False)
_FIELD_STRATEGIES = {
    "epochs": _POSITIVE, "batch_size": _POSITIVE, "alpha": _WEIGHT, "beta": _WEIGHT,
    "lr_generator": _RATE, "lr_discriminator": _RATE, "lr_classifier": _RATE,
    "disc_steps": _POSITIVE, "n_ensemble": _POSITIVE, "eval_ensemble": _POSITIVE,
    "sampler": st.sampled_from(["quantum", "classical", "vi"]),
    "embedding_pairs": st.sampled_from(["adjacent", "all"]),
    "cr_axis": st.sampled_from(["X", "Y", "Z"]),
    "archs": st.lists(st.sampled_from(list(Architecture)), min_size=1, max_size=3,
                      unique=True),
    "seeds": st.lists(st.integers(0, 2**31), min_size=1, max_size=3, unique=True),
    "noise_law": st.sampled_from(["uniform", "gaussian"]),
    "noise_mu": _FINITE, "noise_sigma": _SCALE,
    "prior_law": st.sampled_from(["uniform", "clipped-gaussian"]),
    "prior_mu": _FINITE, "prior_sigma": _SCALE,
    "dataset": _TEXT,
    "synth_samples": _POSITIVE, "synth_imbalance": _FINITE, "synth_noise": _FINITE,
    "synth_seed": st.integers(0, 2**31),
    "split_fractions": st.lists(_FINITE, min_size=1, max_size=3),
    "split_seed": st.integers(0, 2**31),
    "out": _TEXT,
    "calibration_bins": st.integers(2, 100),
}


@st.composite
def valid_run_configs(draw):
    """RunConfigs with every field drawn; the depth lists share one length,
    and no sweep list repeats a cell."""
    values = {name: draw(strategy) for name, strategy in _FIELD_STRATEGIES.items()}
    depths = draw(st.lists(st.tuples(st.integers(1, 4), st.booleans()),
                           min_size=1, max_size=3, unique=True))
    values["layers_list"] = [layers for layers, _ in depths]
    values["reupload_list"] = [reupload for _, reupload in depths]
    return RunConfig(**values)


TINY = [
    "--sampler", "classical", "--seed", "0,1", "--epochs", "2",
    "--set", "synth_samples=30", "--set", "n_ensemble=8",
    "--set", "eval_ensemble=4", "--set", "batch_size=7",
    "--set", "split_fractions=0.7,0.3",
]


class TestParseConfig:
    def test_empty_gives_defaults(self):
        config = parse_config("")
        assert config == RunConfig()

    def test_arch_key(self):
        config = parse_config("arch = circuit_iii\n")
        assert config.archs == [Architecture.CIRCUIT_III]

    def test_unknown_arch_lists_valid(self):
        with pytest.raises(ConfigError, match="matic_i"):
            parse_config("arch = circuit_v\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key 'learning'"):
            parse_config("learning = fast\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value for epochs"):
            parse_config("epochs = many\n")

    def test_conflicting_sweep_lengths(self):
        with pytest.raises(ConfigError, match="conflicting sweep lengths"):
            parse_config("layers = 1,2\nreupload = false\n")

    def test_sections_and_comments_ignored(self):
        text = "# header\n[train]\nepochs = 3  # trailing\n\n[data]\nseed = 5,6\n"
        config = parse_config(text)
        assert config.epochs == 3 and config.seeds == [5, 6]

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("epochs 3\n")

    def test_echo_round_trips(self):
        config = apply_settings(RunConfig(), {"arch": "matic_ii,romero",
                                              "seeds": "4,5",
                                              "alpha": "0.5"})
        assert parse_config(format_config(config)) == config

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(config=valid_run_configs())
    def test_format_parse_round_trip(self, config):
        assert parse_config(format_config(config)) == config

    @pytest.mark.parametrize("name, value", [
        ("out", "o#1"), ("dataset", "a#b.qbnn"), ("out", "a\nb"), ("dataset", "a\rb"),
    ])
    def test_value_the_echo_cannot_read_back_is_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must not contain '#' or a line break"):
            RunConfig(**{name: value})

    def test_round_trip_draws_every_field(self):
        drawn = set(_FIELD_STRATEGIES) | {"layers_list", "reupload_list"}
        assert drawn == {f.name for f in fields(RunConfig)}

    def test_cell_defaults_match_train_config(self):
        cell = RunConfig().train_config(Architecture.CIRCUIT_III, 1, False, 0)
        assert cell == TrainConfig()

    def test_flag_aliases(self):
        config = apply_settings(RunConfig(), {"ensemble": "17", "layers": "2",
                                              "reupload": "true"})
        assert config.n_ensemble == 17
        assert config.layers_list == [2] and config.reupload_list == [True]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    code = cli.main(["train"] + TINY + ["--out", str(out), "--quiet"])
    assert code == cli.EXIT_OK
    return str(out)


class TestTrainCommand:
    def test_artifacts_exist(self, tiny_run):
        assert os.path.exists(os.path.join(tiny_run, "config_echo.cfg"))
        assert os.path.exists(os.path.join(tiny_run, "summary.csv"))
        for seed in (0, 1):
            run_dir = os.path.join(tiny_run, "classical", f"seed{seed}")
            for name in ("epochs.csv", "checkpoint.qckpt", "eval_test.csv",
                         "weight_samples.csv", "config.cfg"):
                assert os.path.exists(os.path.join(run_dir, name)), name

    def test_epoch_csv_schema(self, tiny_run):
        path = os.path.join(tiny_run, "classical", "seed0", "epochs.csv")
        header = open(path).readline().strip()
        assert header == "epoch,split,likelihood,kl,disc,combined,accuracy"

    def test_rerun_is_byte_identical(self, tiny_run, tmp_path):
        second = tmp_path / "again"
        assert cli.main(["train"] + TINY + ["--out", str(second), "--quiet"]) == 0
        for rel in ("summary.csv", "classical/seed0/epochs.csv",
                    "classical/seed1/eval_test.csv",
                    "classical/seed0/weight_samples.csv"):
            a = open(os.path.join(tiny_run, rel), "rb").read()
            b = open(os.path.join(second, rel), "rb").read()
            assert a == b, rel

    def test_env_out_override(self, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("QBNN_OUT", str(target))
        assert cli.main(["train"] + TINY + ["--quiet"]) == 0
        assert target.exists() and (target / "summary.csv").exists()

    def test_progress_lines(self, tmp_path, capsys):
        """Without --quiet, one line per cell and one per epoch."""
        assert cli.main(["train"] + TINY + ["--out", str(tmp_path / "o")]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "[classical seed 0] training..."
        assert lines[3] == "[classical seed 1] training..."
        for line, epoch in zip(lines[1:3] + lines[4:6], (0, 1, 0, 1)):
            assert re.fullmatch(rf"epoch +{epoch}  combined +-?\d+\.\d{{3}}  "
                                r"train acc \d\.\d{3}", line), line
        assert lines[6:] == [f"artifacts written to {tmp_path / 'o'}"]

    def test_config_error_exit_code(self, capsys):
        assert cli.main(["train", "--arch", "circuit_v"]) == cli.EXIT_CONFIG
        assert "valid" in capsys.readouterr().err

    def test_divergence_exit_code(self, monkeypatch, tmp_path):
        def explode(*args, **kwargs):
            raise DivergenceError("non-finite training loss")

        monkeypatch.setattr("qcbnn.experiment.train_model", explode)
        code = cli.main(["train"] + TINY + ["--out", str(tmp_path / "x"), "--quiet"])
        assert code == cli.EXIT_DIVERGENCE

    def test_internal_value_error_is_not_a_config_error(self, monkeypatch, tmp_path):
        """Exit 2 is for outside input: a ValueError of the program's own,
        here one raised inside training, surfaces as itself."""
        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr("qcbnn.experiment.train_model", broken)
        with pytest.raises(ValueError, match="could not be broadcast") as raised:
            cli.main(["train"] + TINY + ["--out", str(tmp_path / "x"), "--quiet"])
        assert not isinstance(raised.value, ConfigError)

    # a huge discriminator step size: its weights overflow after one step,
    # so the generator step's adversarial term (or a second discriminator
    # step) reads NaN at the first batch
    @pytest.mark.parametrize("flags, term", [
        ([], "kl term"),
        (["--set", "disc_steps=2"], "discriminator objective"),
    ], ids=["kl", "discriminator"])
    def test_divergence_message_names_where(self, flags, term, tmp_path, capsys):
        argv = ["train"] + TINY + ["--set", "lr_discriminator=1e300"] + flags
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(argv + ["--out", str(tmp_path / "x"), "--quiet"])
        assert code == cli.EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert err == f"error: classical seed 0, epoch 0, batch 0: non-finite {term} (nan)\n"

    def test_diverged_cell_keeps_summary_of_finished_cells(self, monkeypatch, tmp_path):
        calls = []

        def second_cell_diverges(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise DivergenceError("non-finite kl term (nan)")
            return train_model(*args, **kwargs)

        monkeypatch.setattr("qcbnn.experiment.train_model", second_cell_diverges)
        out = tmp_path / "x"
        assert cli.main(["train"] + TINY + ["--out", str(out), "--quiet"]) == \
            cli.EXIT_DIVERGENCE
        assert sorted(os.listdir(out / "classical")) == ["seed0"]
        summary = (out / "summary.csv").read_text().splitlines()
        assert [line.split(",")[:4] for line in summary[1:]] == [
            ["classical", "1", "false", "0"], ["classical", "", "", "mean"],
            ["classical", "", "", "std"]]

    def test_diverged_first_cell_leaves_no_empty_directory(self, tmp_path):
        argv = ["train"] + TINY + ["--set", "lr_discriminator=1e300", "--set", "disc_steps=2"]
        out = tmp_path / "x"
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(argv + ["--out", str(out), "--quiet"]) == cli.EXIT_DIVERGENCE
        assert sorted(os.listdir(out)) == ["config_echo.cfg", "summary.csv"]
        assert (out / "summary.csv").read_text().count("\n") == 1  # the header

    def test_unknown_set_key(self, capsys):
        assert cli.main(["train", "--set", "warp=9"]) == cli.EXIT_CONFIG

    def test_out_under_regular_file_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = cli.main(["train"] + TINY + ["--out", str(blocker / "sub"), "--quiet"])
        assert code == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flags, message", [
        (["--epochs", "0"], "epochs must be positive"),
        (["--sampler", "bogus"], "unknown sampler"),
        (["--set", "calibration_bins=1"], "calibration_bins"),
        (["--set", "calibration_bins=101"], "calibration_bins"),
        (["--set", "subset_reference=bogus"], "subset_reference"),
        (["--set", "split_fractions=0.5,0.6"], "fractions must sum to 1"),
        (["--set", "synth_imbalance=0"], "need both classes"),
        (["--set", "synth_imbalance=nan"], "imbalance must be finite, got nan"),
        (["--set", "synth_noise=nan"], "noise_scale must be finite and >= 0, got nan"),
        (["--set", "synth_noise=-0.1"], "noise_scale must be finite and >= 0, got -0.1"),
        (["--set", "dataset=/nonexistent.qbnn"], "No such file"),
        # removed keys are unknown like any other
        (["--set", "svg=false"], "unknown config key 'svg'"),
        (["--set", "noise_dim=4"], "unknown config key 'noise_dim'"),
        (["--set", "samples_per_step=1"], "unknown config key 'samples_per_step'"),
        (["--set", "scale_likelihood=true"], "unknown config key 'scale_likelihood'"),
        (["--set", "subset_reference=overall"], "unknown config key 'subset_reference'"),
        (["--set", "dataset_format=binary"], "unknown config key 'dataset_format'"),
        # the config echo could not read these back
        (["--out", "o#1"], "out must not contain '#'"),
        (["--set", "dataset=a#b.qbnn"], "dataset must not contain '#'"),
        # values that used to fail only after output, or read as divergence
        (["--set", "split_fractions=1.2,-0.2"], "split fractions must be non-negative"),
        (["--set", "noise_law=gaussian", "--set", "noise_sigma=-1"],
         "noise sigma must be finite and >= 0"),
        (["--set", "noise_law=gaussian", "--set", "noise_mu=inf"], "noise mu must be finite"),
        (["--set", "prior_law=clipped-gaussian", "--set", "prior_sigma=-0.5"],
         "prior sigma must be finite and >= 0"),
        (["--set", "prior_law=clipped-gaussian", "--set", "prior_mu=nan"],
         "prior mu must be finite"),
        (["--set", "alpha=nan"], "alpha must be finite"),
        (["--set", "beta=inf"], "beta must be finite"),
        (["--set", "lr_classifier=inf"], "lr_classifier must be finite"),
        # circuit settings, rejected with the rest of the config
        (["--sampler", "quantum", "--set", "cr_axis=W"], "cr_axis must be one of X, Y, Z"),
        (["--sampler", "quantum", "--set", "embedding_pairs=ring"],
         "embedding_pairs must be one of adjacent, all"),
        # a repeated sweep cell would train twice into one directory
        (["--seed", "0,0"], "sweep lists seed 0 more than once"),
        (["--arch", "circuit_iii,circuit_iii"],
         "sweep lists architecture circuit_iii more than once"),
        (["--layers", "1,1", "--reupload", "false,false"],
         "sweep lists (layers, reupload) pair (1, False) more than once"),
        # an empty sweep axis, a value that does not parse, and values that the
        # depth, split and prior checks refuse
        (["--set", "foo"], "--set expects KEY=VALUE, got 'foo'"),
        (["--arch", ","], "need at least one architecture"),
        (["--reupload", "maybe"], "not a boolean: 'maybe'"),
        (["--sampler", "quantum", "--layers", "0"], "layers must be positive"),
        (["--set", "split_fractions=1"], "need 2 or 3 split fractions"),
        (["--set", "prior_law=laplace"], "unknown prior law 'laplace'"),
    ], ids=["epochs-0", "sampler-bogus", "calibration-bins-1", "calibration-bins-101",
            "subset-reference-bogus", "split-fractions-sum", "synth-imbalance-0",
            "synth-imbalance-nan", "synth-noise-nan", "synth-noise-negative",
            "dataset-missing", "removed-svg", "removed-noise-dim",
            "removed-samples-per-step", "removed-scale-likelihood",
            "removed-subset-reference", "removed-dataset-format", "out-hash",
            "dataset-hash", "split-fraction-negative", "noise-sigma-negative",
            "noise-mu-inf", "prior-sigma-negative", "prior-mu-nan", "alpha-nan",
            "beta-inf", "lr-classifier-inf", "cr-axis-w", "embedding-pairs-ring",
            "seed-repeated", "arch-repeated", "depth-repeated", "set-without-equals",
            "arch-empty", "reupload-maybe", "layers-0", "split-fractions-one",
            "prior-law-laplace"])
    def test_invalid_training_value_writes_nothing(self, flags, message, tmp_path,
                                                   capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a relative --out lands here
        argv = ["train", "--sampler", "classical", "--epochs", "1", "--out", "D", "--quiet"]
        assert cli.main(argv + flags) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_images_smaller_than_the_kernel_write_nothing(self, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_dataset(tmp_path / "one.qbnn", _one_pixel_images(20))
        argv = ["train", "--set", "dataset=one.qbnn", "--sampler", "classical",
                "--epochs", "1", "--out", "D", "--quiet"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "images of 1x1 are smaller than the 2x2 convolution kernel" in \
            capsys.readouterr().err
        assert os.listdir(tmp_path) == ["one.qbnn"]

    @pytest.mark.parametrize("line, message", [
        (b"conv_stride = 2", "unknown config key 'conv_stride'"),
        (b"out = \xff", "codec can't decode byte 0xff"),
    ], ids=["removed-conv-stride", "not-utf8"])
    def test_bad_config_file_writes_nothing(self, line, message, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_bytes(b"sampler = classical\nepochs = 1\n" + line + b"\n")
        assert cli.main(["train", "--config", "run.cfg", "--out", "D", "--quiet"]) == \
            cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run.cfg"]


def _fewer_images_in_header(path, saved, claimed):
    """A container of ``saved`` synthetic images whose header claims ``claimed``."""
    save_dataset(path, synth_generate(SynthSpec(n_samples=saved, imbalance=0.5)))
    blob = bytearray(path.read_bytes())
    blob[12:16] = claimed.to_bytes(4, "little")
    path.write_bytes(bytes(blob))


def _version_two_container(path):
    save_dataset(path, synth_generate(SynthSpec(n_samples=20, imbalance=0.5)))
    blob = bytearray(path.read_bytes())
    blob[8:12] = (2).to_bytes(4, "little")
    path.write_bytes(bytes(blob))


def _one_pixel_images(n):
    return Dataset(np.full((n, 1, 1), 0.5), np.arange(n) % 2)


class TestInputErrorClass:
    """A ValueError where outside input enters is a ConfigError (exit 2);
    other errors keep their own class."""

    def test_config_errors_turns_value_error_into_config_error(self):
        with pytest.raises(ConfigError, match="^bad input$") as raised:
            with config_errors():
                raise ValueError("bad input")
        assert raised.value.__cause__ is None

    def test_config_errors_lets_other_errors_through(self):
        with pytest.raises(TypeError, match="not a value error"):
            with config_errors():
                raise TypeError("not a value error")

    @pytest.mark.parametrize("read", [resolve_dataset, dataset_image_shape],
                             ids=["resolve-dataset", "dataset-image-shape"])
    @pytest.mark.parametrize("write, message", [
        (lambda path: path.write_bytes(b"NOTADATASET" + bytes(32)), "bad dataset magic"),
        (lambda path: _fewer_images_in_header(path, 20, 10),
         "container has trailing bytes: 15724 bytes, but a header of 10 images of 28x28 "
         "needs 7874"),
        (lambda path: save_dataset(path, _one_pixel_images(20)),
         "images of 1x1 are smaller than the 2x2 convolution kernel"),
        (_version_two_container, "unsupported dataset version 2"),
    ], ids=["bad-magic", "header-count-short", "one-pixel-images", "version-2"])
    def test_bad_dataset_file(self, read, write, message, tmp_path):
        path = tmp_path / "bad.qbnn"
        write(path)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            read(RunConfig(dataset=str(path)))

    def test_checkpoint_of_another_image_shape(self, tiny_run):
        run_dir = os.path.join(tiny_run, "classical", "seed0")
        with pytest.raises(ConfigError, match="checkpoint tensor .* has shape"):
            load_run(run_dir, (20, 20))


class TestSweeps:
    def test_all_architecture_sweep_summarizes_each(self, tmp_path):
        out = tmp_path / "archsweep"
        archs = ",".join(a.value for a in Architecture)
        code = cli.main([
            "train", "--arch", archs, "--seed", "0", "--epochs", "1",
            "--set", "synth_samples=24", "--set", "n_ensemble=4",
            "--set", "eval_ensemble=2", "--set", "batch_size=8",
            "--set", "split_fractions=0.7,0.3", "--out", str(out), "--quiet",
        ])
        assert code == 0
        summary = open(out / "summary.csv").read()
        labels = {line.split(",")[0] for line in summary.splitlines()[1:]}
        assert labels == {f"{a.value}_L1" for a in Architecture}

    def test_depth_sweep_report_compares_layer_counts(self, tmp_path):
        out = tmp_path / "depthsweep"
        code = cli.main([
            "train", "--arch", "circuit_iii", "--seed", "0",
            "--layers", "1,2", "--reupload", "false,false", "--epochs", "1",
            "--set", "synth_samples=24", "--set", "n_ensemble=4",
            "--set", "eval_ensemble=2", "--set", "batch_size=8",
            "--set", "split_fractions=0.7,0.3", "--out", str(out), "--quiet",
        ])
        assert code == 0
        assert cli.main(["report", str(out), "--no-svg"]) == 0
        curves = open(out / "figures" / "train_curves.csv").read()
        assert "circuit_iii_L1" in curves and "circuit_iii_L2" in curves


    def test_classical_sweep_trains_its_config_cells(self, tmp_path):
        """The cells a non-quantum sweep trains are ``config.cells()``:
        one per seed, however many architectures and depths it lists."""
        out = tmp_path / "classical"
        config = apply_settings(RunConfig(), {
            "sampler": "classical", "arch": "matic_i,circuit_iii", "layers": "1,2",
            "reupload": "false,true", "seed": "0,1", "epochs": "1",
            "synth_samples": "24", "n_ensemble": "4", "eval_ensemble": "2",
            "batch_size": "8", "split_fractions": "0.7,0.3", "out": str(out)})
        run_train(config)
        trained = [read_run_config(str(run)).cells()[0]
                   for run in sorted(out.glob("*/seed*"))]
        assert trained == config.cells()

    def test_validation_rows_are_the_ensemble_accuracy_on_the_validation_split(
            self, tmp_path):
        """A three-fraction sweep's validation rows in ``epochs.csv`` are the
        ``("eval-val", epoch)`` ensemble accuracy on the validation split,
        recomputed on a twin model trained epoch by epoch."""
        config = apply_settings(RunConfig(), {
            "sampler": "classical", "seed": "0", "epochs": "3", "synth_samples": "40",
            "n_ensemble": "4", "eval_ensemble": "4", "batch_size": "7",
            "split_fractions": "0.5,0.3,0.2", "out": str(tmp_path / "x")})
        run_dir = pathlib.Path(run_train(config)) / "classical" / "seed0"
        tagged = resolve_dataset(config)
        train_set, val_set = tagged.subset("train"), tagged.subset("validation")
        twin = build_model(config.train_config(*config.cells()[0]), train_set.images.shape[1:])
        want = []
        for epoch in range(config.epochs):
            train_epoch(twin, train_set.images, train_set.labels, epoch)
            probs, _ = ensemble_outputs(twin, val_set.images, config.eval_ensemble,
                                        ("eval-val", epoch))
            want.append(float((probs.argmax(axis=1) == val_set.labels).mean()))
        with open(run_dir / "epochs.csv", newline="") as fh:
            got = [float(row["accuracy"]) for row in csv.DictReader(fh)
                   if row["split"] == "validation"]
        assert got == want
        assert any(accuracy != 0.5 for accuracy in want)  # so 1 - accuracy differs


class TestEvaluateCommand:
    def test_evaluate_stored_run(self, tiny_run, tmp_path):
        run_dir = os.path.join(tiny_run, "classical", "seed0")
        out_csv = tmp_path / "eval.csv"
        code = cli.main(["evaluate", run_dir, "--split", "test",
                         "--ensemble", "5", "--out-csv", str(out_csv)])
        assert code == 0
        text = out_csv.read_text()
        assert text.startswith("metric,subset,value")
        assert "accuracy,all," in text

    def test_missing_run_dir(self, tmp_path, capsys):
        assert cli.main(["evaluate", str(tmp_path / "nope")]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_non_positive_ensemble_rejected(self, tiny_run, tmp_path, capsys, size):
        run_dir = os.path.join(tiny_run, "classical", "seed0")
        out_csv = tmp_path / "eval.csv"
        code = cli.main(["evaluate", run_dir, "--ensemble", size, "--out-csv", str(out_csv)])
        assert code == cli.EXIT_CONFIG
        assert f"ensemble size must be >= 1, got {size}" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_missing_split_rejected(self, tiny_run, tmp_path, capsys):
        run_dir = os.path.join(tiny_run, "classical", "seed0")
        out_csv = tmp_path / "eval.csv"
        code = cli.main(["evaluate", run_dir, "--split", "validation",
                         "--out-csv", str(out_csv)])
        assert code == cli.EXIT_CONFIG
        assert "split 'validation' has no images" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_run_without_checkpoint(self, tiny_run, tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(os.path.join(tiny_run, "classical", "seed0"), run_dir)
        os.remove(run_dir / "checkpoint.qckpt")
        before = sorted(os.listdir(run_dir))
        assert cli.main(["evaluate", str(run_dir)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"error: missing run artifact: {run_dir / 'checkpoint.qckpt'}\n"
        assert sorted(os.listdir(run_dir)) == before

    @pytest.mark.parametrize("key, value", [("conv_stride", "2"), ("dataset_format", "binary")])
    def test_run_echo_with_a_removed_key_is_refused(self, key, value, tiny_run, tmp_path,
                                                    capsys):
        """A run whose config.cfg still names a removed key is read like any
        config: the key is unknown until its line is deleted."""
        run_dir = tmp_path / "run"
        shutil.copytree(os.path.join(tiny_run, "classical", "seed0"), run_dir)
        echo = run_dir / "config.cfg"
        echo.write_text(echo.read_text() + f"{key} = {value}\n")
        out_csv = tmp_path / "eval.csv"
        assert cli.main(["evaluate", str(run_dir), "--out-csv", str(out_csv)]) == \
            cli.EXIT_CONFIG
        assert f"unknown config key '{key}'" in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("sampler", ["quantum", "classical", "vi"])
    def test_reproduces_training_eval(self, sampler, tmp_path):
        out = tmp_path / "sweep"
        argv = ["train", "--sampler", sampler, "--seed", "3", "--epochs", "1",
                "--set", "synth_samples=30", "--set", "n_ensemble=6",
                "--set", "eval_ensemble=2", "--set", "batch_size=8",
                "--set", "split_fractions=0.6,0.4", "--out", str(out), "--quiet"]
        assert cli.main(argv) == cli.EXIT_OK
        label = "circuit_iii_L1" if sampler == "quantum" else sampler
        run_dir = out / label / "seed3"
        again = tmp_path / "eval_test.csv"
        run_evaluate(str(run_dir), str(again), tag="test")
        assert again.read_bytes() == (run_dir / "eval_test.csv").read_bytes()


class TestNonFiniteCheckpoint:
    @pytest.mark.parametrize("command, tensor, bad", [
        ("evaluate", "dense_w", np.nan),
        ("evaluate", "gen_b2", np.inf),
        ("sample-weights", "gen_b2", np.nan),
        ("sample-weights", "dense_w", -np.inf),
    ])
    def test_refused_naming_the_tensor(self, tiny_run, tmp_path, capsys, command, tensor, bad):
        run_dir = tmp_path / "run"
        shutil.copytree(os.path.join(tiny_run, "classical", "seed0"), run_dir)
        ckpt = run_dir / "checkpoint.qckpt"
        arrays = load_checkpoint(ckpt)
        arrays[tensor].flat[1] = bad
        save_checkpoint(ckpt, arrays)
        out_csv = tmp_path / "out.csv"
        if command == "evaluate":
            argv = ["evaluate", str(run_dir), "--out-csv", str(out_csv)]
        else:
            argv = ["sample-weights", "--run-dir", str(run_dir), "--draws", "1",
                    "--out-csv", str(out_csv)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert f"checkpoint tensor {tensor!r} has a non-finite value" in capsys.readouterr().err
        assert not out_csv.exists()


class TestSampleWeightsCommand:
    def test_fresh_model_dump(self, tmp_path):
        out_csv = tmp_path / "ws.csv"
        code = cli.main(["sample-weights", "--arch", "circuit_iii", "--seed", "4",
                         "--draws", "3", "--out-csv", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "pass_index,qubit,value"
        assert len(lines) == 1 + 3 * 16 * 4

    def test_from_stored_run(self, tiny_run, tmp_path):
        run_dir = os.path.join(tiny_run, "classical", "seed1")
        out_csv = tmp_path / "ws2.csv"
        code = cli.main(["sample-weights", "--run-dir", run_dir, "--draws", "2",
                         "--out-csv", str(out_csv)])
        assert code == 0 and out_csv.exists()

    @staticmethod
    def _container_run(tmp_path):
        """A one-epoch classical run on a 20 x 24 binary container; returns
        the run directory and the container path."""
        data_path = tmp_path / "rect.qbnn"
        save_dataset(data_path, synth_generate(SynthSpec(n_samples=30, height=20, width=24)))
        out = tmp_path / "runs"
        code = cli.main(["train", "--sampler", "classical", "--seed", "0", "--epochs", "1",
                         "--set", f"dataset={data_path}", "--set", "split_fractions=0.7,0.3",
                         "--set", "n_ensemble=4", "--set", "eval_ensemble=2",
                         "--out", str(out), "--quiet"])
        assert code == cli.EXIT_OK
        return os.path.join(out, "classical", "seed0"), data_path

    @pytest.mark.parametrize("source", ["synth", "container"])
    def test_run_dir_takes_the_shape_without_the_images(self, source, tiny_run, tmp_path,
                                                        monkeypatch):
        if source == "synth":
            run_dir = os.path.join(tiny_run, "classical", "seed1")
        else:
            run_dir, _ = self._container_run(tmp_path)
        # the dump at the image shape of the whole resolved dataset
        model, _ = load_run(run_dir, resolve_dataset(read_run_config(run_dir)).images.shape[1:])
        dump_weight_samples(model, 2, tmp_path / "want.csv")

        def refuse(*args, **kwargs):
            raise AssertionError("sample-weights built or loaded the dataset")

        monkeypatch.setattr(experiment, "synth_generate", refuse)
        monkeypatch.setattr(experiment, "load_dataset", refuse)
        code = cli.main(["sample-weights", "--run-dir", run_dir, "--draws", "2",
                         "--out-csv", str(tmp_path / "got.csv")])
        assert code == cli.EXIT_OK
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("flags, named", [
        (["--seed", "5"], "--seed"),
        (["--sampler", "vi"], "--sampler"),
        (["--set", "epochs=3"], "--set"),
        (["--seed", "5", "--sampler", "vi"], "--seed, --sampler"),
    ])
    def test_run_dir_refuses_config_flags(self, tiny_run, tmp_path, capsys, flags, named):
        run_dir = os.path.join(tiny_run, "classical", "seed1")
        out_csv = tmp_path / "ws.csv"
        code = cli.main(["sample-weights", "--run-dir", run_dir, "--draws", "2", *flags,
                         "--out-csv", str(out_csv)])
        assert code == cli.EXIT_CONFIG
        assert f"drop {named}" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_run_dir_with_truncated_container_header(self, tmp_path, capsys):
        run_dir, data_path = self._container_run(tmp_path)
        data_path.write_bytes(data_path.read_bytes()[:20])
        out_csv = tmp_path / "ws.csv"
        code = cli.main(["sample-weights", "--run-dir", run_dir, "--out-csv", str(out_csv)])
        assert code == cli.EXIT_CONFIG
        assert "truncated container" in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("write, message", [
        (lambda path: path.write_bytes(b"QBNNDATA" + bytes(4)), "truncated container"),
        (_version_two_container, "unsupported dataset version 2"),
        (None, "No such file or directory: 'bad.qbnn'"),
    ], ids=["truncated-12-bytes", "version-2", "missing"])
    def test_fresh_model_checks_the_dataset(self, write, message, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        if write:
            write(tmp_path / "bad.qbnn")
        before = sorted(os.listdir(tmp_path))
        code = cli.main(["sample-weights", "--set", "dataset=bad.qbnn", "--out-csv", "ws.csv"])
        assert code == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before

    def test_fresh_model_at_the_container_image_shape(self, tmp_path, monkeypatch):
        """The model is built for the configured dataset's images; the
        dump draws only the generator, so its bytes are the synth ones."""
        monkeypatch.chdir(tmp_path)
        save_dataset(tmp_path / "rect.qbnn",
                     synth_generate(SynthSpec(n_samples=10, height=20, width=24)))
        shapes = []

        def build(cfg, shape):
            shapes.append(shape)
            return build_model(cfg, shape)

        monkeypatch.setattr(training, "build_model", build)
        for dataset, out_csv in (("rect.qbnn", "rect.csv"), ("synth", "synth.csv")):
            assert cli.main(["sample-weights", "--set", f"dataset={dataset}", "--draws", "2",
                             "--out-csv", out_csv]) == cli.EXIT_OK
        assert shapes == [(20, 24), (28, 28)]
        assert (tmp_path / "rect.csv").read_bytes() == (tmp_path / "synth.csv").read_bytes()

    @pytest.mark.parametrize("draws", ["0", "-2"])
    def test_non_positive_draws_rejected(self, tmp_path, capsys, draws):
        out_csv = tmp_path / "ws.csv"
        code = cli.main(["sample-weights", "--draws", draws, "--out-csv", str(out_csv)])
        assert code == cli.EXIT_CONFIG
        assert f"draw count must be >= 1, got {draws}" in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("sampler", ["quantum", "classical", "vi"])
    def test_dump_bytes_match_csv_writer_oracle(self, tmp_path, sampler):
        """300 draws span several formatting blocks and circuit row blocks."""
        model = build_model(TrainConfig(seed=2, sampler=sampler), (28, 28))
        for draws in (7, 300):
            dump_weight_samples(model, draws, tmp_path / "fast.csv")
            samples = draw_weight_samples(model, draws, stream(model.config.seed, "dump"))
            rows = [[d * len(ws.chunks) + c, q, ws.chunks[c, q]]
                    for d, ws in enumerate(samples)
                    for c in range(len(ws.chunks)) for q in range(CHUNK_DIM)]
            _write_csv(tmp_path / "oracle.csv", ["pass_index", "qubit", "value"], rows)
            assert (tmp_path / "fast.csv").read_bytes() == \
                (tmp_path / "oracle.csv").read_bytes(), f"{draws} draws"

    def test_quantum_dump_peak_memory(self, tmp_path):
        """A 1000-draw quantum dump runs 16,000 circuit rows.  It holds no
        (16000, 16) complex state and no list of all its 64,000 floats, so
        its traced peak stays under 5 MiB (8.3 MiB when it held both)."""
        model = build_model(TrainConfig(seed=2, sampler="quantum"), (28, 28))
        dump_weight_samples(model, 1000, tmp_path / "w.csv")  # compile outside the trace
        tracemalloc.start()
        try:
            dump_weight_samples(model, 1000, tmp_path / "w.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestToyAdversarialCommand:
    def test_short_run_writes_trace(self, tmp_path, capsys):
        code = cli.main(["toy-adversarial", "--steps", "40", "--seed", "1",
                         "--out", str(tmp_path / "toy")])
        assert code == 0
        assert "final KS statistic" in capsys.readouterr().out
        assert (tmp_path / "toy" / "toy_trace.csv").exists()
        assert (tmp_path / "toy" / "toy_samples.csv").exists()

    def test_bad_rate_is_config_error_and_writes_nothing(self, tmp_path, capsys):
        code = cli.main(["toy-adversarial", "--steps", "40", "--lr-generator", "nan",
                         "--out", str(tmp_path / "toy")])
        assert code == cli.EXIT_CONFIG
        assert "lr_generator must be finite" in capsys.readouterr().err
        assert not (tmp_path / "toy").exists()

    def test_divergence_names_the_step_and_writes_nothing(self, tmp_path, capsys):
        """Huge step sizes overflow both networks at the first step: the run
        exits as diverged, names where, and leaves no output directory."""
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["toy-adversarial", "--steps", "20", "--lr-generator", "1e300",
                             "--lr-discriminator", "1e300", "--out", str(tmp_path / "toy")])
        assert code == cli.EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert err == "error: seed 0, step 0: non-finite discriminator objective (nan)\n"
        assert not (tmp_path / "toy").exists()


class TestReportCommand:
    def test_full_report(self, tiny_run, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(tiny_run, run)
        assert cli.main(["report", str(run)]) == 0
        fig_dir = run / "figures"
        for name in ("train_curves.csv", "test_scores.csv", "weight_kde.csv",
                     "difference_scatter.csv", "calibration.csv",
                     "confidence_error_density.csv"):
            assert os.path.exists(os.path.join(fig_dir, name)), name
        for name in ("train_curves.svg", "weight_kde.svg"):
            path = os.path.join(fig_dir, name)
            assert open(path).readline().startswith("<svg")

    def test_missing_inputs_named(self, tiny_run, tmp_path, capsys):
        partial = tmp_path / "partial"
        shutil.copytree(tiny_run, partial)
        for seed in (0, 1):
            os.remove(partial / "classical" / f"seed{seed}" / "eval_test.csv")
        assert cli.main(["report", str(partial)]) == 0
        out = capsys.readouterr().out
        assert "eval_test.csv" in out and "calibration figure skipped" in out

    def test_every_missing_evaluation_named(self, report_results, capsys):
        """A label that lost one seed's evaluation still gets its box, from
        the other seeds, and the notice names the seed it lacks."""
        missing = report_results / "alpha" / "seed1" / "eval_test.csv"
        os.remove(missing)
        assert cli.main(["report", str(report_results)]) == 0
        assert capsys.readouterr().out == (
            f"notice: missing test evaluations, some box entries skipped: {missing}\n"
            "16 report files written\n")

    def test_rerun_leaves_no_stale_figures(self, report_results, capsys):
        """A report run after the evaluations were lost keeps none of the
        earlier report's figures, and leaves any other file alone."""
        assert cli.main(["report", str(report_results)]) == 0
        fig_dir = report_results / "figures"
        (fig_dir / "notes.txt").write_text("kept\n")
        for path in report_results.glob("*/seed*/eval_test.csv"):
            os.remove(path)
        capsys.readouterr()
        assert cli.main(["report", "--no-svg", str(report_results)]) == 0
        assert capsys.readouterr().out.endswith("\n3 report files written\n")
        assert sorted(os.listdir(fig_dir)) == [
            "notes.txt", "train_curves.csv", "validation_curves.csv", "weight_kde.csv"]

    @pytest.mark.parametrize("name", ["epochs.csv", "eval_test.csv", "weight_samples.csv"])
    def test_truncated_artifact_is_config_error(self, report_results, capsys, name):
        """A killed run's half-written last row: each CSV cut before the
        last field of its last row, the weight dump after the first
        character of its last line."""
        path = report_results / "beta" / "seed2" / name
        text = path.read_text()
        path.write_text(text[: text.rindex("\n", 0, -1) + 2] if name == "weight_samples.csv"
                        else text[: text.rindex(",")])
        assert cli.main(["report", str(report_results)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: truncated or malformed row in {path}\n"

    @pytest.mark.parametrize("name, value", [
        ("weight_samples.csv", "nan"), ("weight_samples.csv", "-inf"),
        ("eval_test.csv", "nan"), ("eval_test.csv", "inf"), ("epochs.csv", "nan"),
    ])
    def test_non_finite_value_is_config_error(self, report_results, capsys, name, value):
        """No run writes nan or inf into a field the report reads; one such
        value would turn a whole density or curve into nan.  The last field
        of the first row is the value, the value or the accuracy."""
        path = report_results / "beta" / "seed2" / name
        header, first, *rest = path.read_text().splitlines(keepends=True)
        path.write_text("".join([header, first[: first.rindex(",") + 1] + value + "\n", *rest]))
        assert cli.main(["report", str(report_results)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: truncated or malformed row in {path}\n"

    def test_label_without_weight_samples_is_named(self, report_results, capsys):
        for path in report_results.glob("beta/seed*/weight_samples.csv"):
            os.remove(path)
        assert cli.main(["report", "--no-svg", str(report_results)]) == cli.EXIT_OK
        assert "notice: no weight samples for beta, omitted from weight_kde\n" in \
            capsys.readouterr().out
        rows = (report_results / "figures" / "weight_kde.csv").read_text().splitlines()
        assert {row.split(",")[0] for row in rows[1:]} == {"alpha"}

    def test_point_mass_densities_render_an_empty_figure(self, report_results):
        """Each series of one common value over seeds is a point mass: a CSV
        row at its value, no line, and an SVG frame on the unit square."""
        for path in report_results.glob("*/seed*/eval_test.csv"):
            path.write_text("".join(
                f"confidence_error,{line.split(',')[1]},0.25\n"
                if line.startswith("confidence_error,") else line
                for line in path.read_text().splitlines(keepends=True)))
        assert cli.main(["report", str(report_results)]) == cli.EXIT_OK
        fig_dir = report_results / "figures"
        assert (fig_dir / "confidence_error_density.csv").read_text() == (
            "series,grid,density\n" + "".join(f"{label}/{subset},0.25,\n"
                                               for label in ("alpha", "beta")
                                               for subset in ("correct", "incorrect")))
        figure = (fig_dir / "confidence_error_density.svg").read_text()
        assert "<polyline" not in figure and "<circle" not in figure
        assert '>0</text>' in figure and '>1</text>' in figure

    def test_empty_dir_is_config_error(self, tmp_path):
        assert cli.main(["report", str(tmp_path)]) == cli.EXIT_CONFIG

    def test_regular_file_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "summary.csv"
        path.write_text("x")
        assert cli.main(["report", str(path)]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_report_is_pure_function_of_results(self, tiny_run, tmp_path):
        copy_a, copy_b = tmp_path / "a", tmp_path / "b"
        for copy in (copy_a, copy_b):
            shutil.copytree(tiny_run, copy)
            assert cli.main(["report", str(copy)]) == 0
        for name in ("train_curves.csv", "weight_kde.csv", "test_scores.csv"):
            a = open(copy_a / "figures" / name, "rb").read()
            b = open(copy_b / "figures" / name, "rb").read()
            assert a == b
