"""Command-line harness.

Subcommands::

    train            run a seeded architecture sweep, write artifacts
    evaluate         re-evaluate a stored run checkpoint on a dataset
    sample-weights   dump generator weight samples to CSV
    toy-adversarial  1-D distribution-matching check of the VI loop
    report           emit figure CSV/SVG families for a results directory

Flags mirror config keys; ``--set key=value`` reaches any key that has
no dedicated flag.  The QBNN_OUT environment variable overrides the
output root.  Exit codes: 0 ok, 2 configuration error (a missing or
truncated input file included), 3 runtime divergence, 4 any other I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, RunConfig, apply_settings, config_errors, parse_config
from .experiment import (
    run_evaluate,
    run_report,
    run_toy_adversarial,
    run_train,
)
from .training import DivergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4


# flags that mirror a config key (aliases resolved by ``apply_settings``)
_CONFIG_FLAGS = {
    "arch": "architecture id or comma list",
    "seed": "seed or comma list",
    "layers": "calculation-layer count or comma list",
    "reupload": "re-uploading flag or comma list",
    "alpha": "likelihood weight",
    "beta": "adversarial-KL weight",
    "ensemble": "prediction-time ensemble size",
    "epochs": "training epochs",
    "sampler": "quantum | classical | vi",
    "out": "output directory",
}


def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="config file (key = value lines)")
    for flag, text in _CONFIG_FLAGS.items():
        parser.add_argument(f"--{flag}", help=text)
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="set any other config key")


def _build_config(args) -> RunConfig:
    if args.config:
        with open(args.config) as fh, config_errors():  # bytes that do not decode too
            config = parse_config(fh.read())
    else:
        config = RunConfig()
    settings = {flag: value for flag in _CONFIG_FLAGS
                if (value := getattr(args, flag, None)) is not None}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        settings[key.strip()] = value.strip()
    config = apply_settings(config, settings)
    env_out = os.environ.get("QBNN_OUT")
    if env_out:
        config = apply_settings(config, {"out": env_out})
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qcbnn",
        description="Hybrid quantum-classical Bayesian neural network harness.",
        epilog="Flags mirror config keys; use --set KEY=VALUE for the rest. "
               "QBNN_OUT overrides the output root. "
               "Exit codes: 0 ok, 2 config error, 3 runtime divergence, "
               "4 I/O error.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training sweep")
    _add_config_flags(p_train)
    p_train.add_argument("--quiet", action="store_true")

    p_eval = sub.add_parser("evaluate", help="evaluate a stored run")
    p_eval.add_argument("run_dir")
    p_eval.add_argument("--split", default="test",
                        choices=("train", "validation", "test"))
    p_eval.add_argument("--ensemble", type=int)
    p_eval.add_argument("--out-csv")

    p_sample = sub.add_parser("sample-weights", help="dump weight samples")
    _add_config_flags(p_sample)
    p_sample.add_argument("--run-dir", help="finished run to sample from "
                                            "(fresh model otherwise)")
    p_sample.add_argument("--draws", type=int, default=100)
    p_sample.add_argument("--out-csv", default="weight_samples.csv")

    p_toy = sub.add_parser("toy-adversarial",
                           help="distribution-matching check of the VI loop")
    p_toy.add_argument("--steps", type=int, default=2000)
    p_toy.add_argument("--seed", type=int, default=0)
    p_toy.add_argument("--out", default="toy_adversarial")
    p_toy.add_argument("--lr-generator", type=float, default=0.002)
    p_toy.add_argument("--lr-discriminator", type=float, default=0.01)
    p_toy.add_argument("--disc-steps", type=int, default=2)

    p_report = sub.add_parser("report", help="emit figures for a results dir")
    p_report.add_argument("results_dir")
    p_report.add_argument("--no-svg", action="store_true")

    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            config = _build_config(args)
            out = run_train(config, progress=not args.quiet)
            print(f"artifacts written to {out}")
        elif args.command == "evaluate":
            path = run_evaluate(args.run_dir, args.out_csv,
                                n_ensemble=args.ensemble, tag=args.split)
            print(f"evaluation written to {path}")
        elif args.command == "sample-weights":
            path = _sample_weights(args)
            print(f"weight samples written to {path}")
        elif args.command == "toy-adversarial":
            out = os.environ.get("QBNN_OUT", args.out)
            ks = run_toy_adversarial(out, steps=args.steps, seed=args.seed,
                                     lr_generator=args.lr_generator,
                                     lr_discriminator=args.lr_discriminator,
                                     disc_steps=args.disc_steps)
            print(f"final KS statistic: {ks:.4f}")
        else:
            written = run_report(args.results_dir, emit_svg=not args.no_svg)
            print(f"{len(written)} report files written")
    except (ConfigError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _sample_weights(args) -> str:
    from .experiment import dataset_image_shape, dump_weight_samples, load_run, read_run_config
    from .training import build_model

    if args.run_dir:
        given = [f"--{flag}" for flag in ("config", *_CONFIG_FLAGS)
                 if getattr(args, flag) is not None]
        if args.set:
            given.append("--set")
        if given:
            raise ConfigError(f"--run-dir reads the run's own config; drop {', '.join(given)}")
        model, _ = load_run(args.run_dir, dataset_image_shape(read_run_config(args.run_dir)))
    else:
        config = _build_config(args)
        model = build_model(config.train_config(*config.cells()[0]), dataset_image_shape(config))
    dump_weight_samples(model, args.draws, args.out_csv)
    return args.out_csv


if __name__ == "__main__":
    sys.exit(main())
