"""Experiment run configuration and its text format.

Config files are flat ``key = value`` lines; ``#`` starts a comment and
``[section]`` headers are allowed for organization but carry no meaning.
Every key has a default, unknown keys are rejected, and sweeps are
expressed as comma lists (architectures, seeds) plus zipped depth lists
(``layers_list`` / ``reupload_list``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .circuits import Architecture
from .metrics import MAX_CALIBRATION_BINS
from .samplers import NoiseLaw, PriorSpec
from .training import TrainConfig, TrainSettings


class ConfigError(ValueError):
    """Raised for unparseable, unknown, or inconsistent config input."""


@contextmanager
def config_errors():
    """Re-raise a ValueError of the block, where outside input enters, as a ConfigError."""
    try:
        yield
    except ValueError as err:
        raise ConfigError(str(err)) from None


@dataclass
class RunConfig(TrainSettings):
    """Full harness configuration: the shared training settings plus sweep
    lists, noise and prior laws, dataset source and output controls."""

    # sweep axes
    archs: list[Architecture] = field(default_factory=lambda: [Architecture.CIRCUIT_III])
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3])
    layers_list: list[int] = field(default_factory=lambda: [1])
    reupload_list: list[bool] = field(default_factory=lambda: [False])
    # noise and prior laws, flattened into scalar keys
    noise_law: str = NoiseLaw.kind
    noise_mu: float = NoiseLaw.mu
    noise_sigma: float = NoiseLaw.sigma
    prior_law: str = PriorSpec.law
    prior_mu: float = PriorSpec.mu
    prior_sigma: float = PriorSpec.sigma
    # dataset
    dataset: str = "synth"
    synth_samples: int = 250
    synth_imbalance: float = 0.27
    synth_noise: float = 0.12
    synth_seed: int = 7
    split_fractions: list[float] = field(default_factory=lambda: [0.8, 0.2])
    split_seed: int = 7
    # reporting
    out: str = "runs"
    calibration_bins: int = 10

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, str) and any(c in value for c in "#\n\r"):
                raise ConfigError(f"{f.name} must not contain '#' or a line break, "
                                  f"which config.cfg cannot echo: {value!r}")
        if len(self.layers_list) != len(self.reupload_list):
            raise ConfigError(
                "conflicting sweep lengths: layers_list and reupload_list "
                f"have {len(self.layers_list)} and {len(self.reupload_list)} entries"
            )
        # each sweep axis needs a value, and a repeated one would train a
        # cell twice into one directory and count it twice in the summary
        depths = list(zip(self.layers_list, self.reupload_list))
        for what, values in (("seed", self.seeds), ("architecture", [a.value for a in self.archs]),
                             ("(layers, reupload) pair", depths)):
            if not values:
                raise ConfigError(f"need at least one {what}")
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ConfigError(f"sweep lists {what} {repeated[0]} more than once")
        if not 2 <= self.calibration_bins <= MAX_CALIBRATION_BINS:
            raise ConfigError(f"calibration_bins must be in [2, {MAX_CALIBRATION_BINS}], "
                              f"got {self.calibration_bins}")
        # every cell must make a valid run, so bad input fails before any output
        with config_errors():
            for cell in self.cells():
                self.train_config(*cell)

    def train_config(self, arch: Architecture, layers: int, reupload: bool,
                     seed: int) -> TrainConfig:
        """Materialize the per-run training config for one sweep cell."""
        shared = {f.name: getattr(self, f.name) for f in fields(TrainSettings)}
        return TrainConfig(
            **shared, seed=seed, arch=arch, layers=layers, reupload=reupload,
            noise=NoiseLaw(self.noise_law, mu=self.noise_mu, sigma=self.noise_sigma),
            prior=PriorSpec(self.prior_law, self.prior_mu, self.prior_sigma),
        )

    def cells(self):
        """All sweep cells as (arch, layers, reupload, seed) tuples.  The
        classical and VI samplers run no circuit, so their sweep is one
        cell per seed, at the first architecture and depth 1."""
        if self.sampler != "quantum":
            return [(self.archs[0], 1, False, seed) for seed in self.seeds]
        return [
            (arch, layers, reupload, seed)
            for arch in self.archs
            for layers, reupload in zip(self.layers_list, self.reupload_list)
            for seed in self.seeds
        ]


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {value!r}")


def _parse_value(name: str, value: str, default):
    try:
        if name == "archs":
            return [Architecture.parse(v) for v in value.split(",") if v.strip()]
        if name == "seeds":
            return [int(v) for v in value.split(",")]
        if name == "layers_list":
            return [int(v) for v in value.split(",")]
        if name == "reupload_list":
            return [_parse_bool(v) for v in value.split(",")]
        if name == "split_fractions":
            return [float(v) for v in value.split(",")]
        if isinstance(default, int):
            return int(value)
        if isinstance(default, float):
            return float(value)
        return value.strip()
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"bad value for {name}: {value!r} ({err})") from None


_KEY_ALIASES = {"arch": "archs", "seed": "seeds", "layers": "layers_list",
                "reupload": "reupload_list", "ensemble": "n_ensemble"}


def apply_settings(config: RunConfig, settings: dict[str, str]) -> RunConfig:
    """New config with ``key=value`` string settings applied and re-validated."""
    by_name = {f.name: f for f in fields(RunConfig)}
    updates = {}
    for raw_key, raw_value in settings.items():
        key = _KEY_ALIASES.get(raw_key, raw_key)
        if key not in by_name:
            raise ConfigError(f"unknown config key {raw_key!r}")
        updates[key] = _parse_value(key, raw_value, getattr(config, key))
    return replace(config, **updates)


def parse_config(text: str) -> RunConfig:
    """RunConfig from config-file text; missing keys keep their defaults."""
    settings: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        settings[key] = value
    return apply_settings(RunConfig(), settings)


def format_value(value) -> str:
    """The one text form of a CSV cell or config echo value: "" for None, comma
    lists, architecture ids, lower-case bools, shortest round-trip floats."""
    if value is None:
        return ""
    if isinstance(value, list):
        return ",".join(format_value(v) for v in value)
    if isinstance(value, Architecture):
        return value.value
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def format_config(config: RunConfig) -> str:
    """Effective-config echo in the same key = value format."""
    lines = ["# effective configuration"]
    lines += [f"{f.name} = {format_value(getattr(config, f.name))}" for f in fields(RunConfig)]
    return "\n".join(lines) + "\n"
