"""Run configuration: one flat INI file, strict keys, full defaults.

An empty file (or no file) yields the stock configuration.  Sections and
keys:

    [schedule]  t, beta_1, beta_t
    [kernel]    size, init_mean, init_std
    [guidance]  lr, lr_schedule, c, s_min, s_max, loss_floor, fixed_scale,
                fixed_kernel, clamp_x0
    [data]      height, width, seed, count, cells_mean, background_noise,
                blur_family, severity
    [eval]      tau, tau_quantile, poolings

Unknown sections or keys are rejected with a closest-match suggestion;
values are type- and range-checked.  ``blur_family`` additionally accepts
``varied`` (cycle families and severities across the generated set), and
``fixed_scale`` accepts ``none`` to mean "use the automatic scale".
"""

from __future__ import annotations

import configparser
import difflib
import math
from dataclasses import dataclass, field, fields as dataclass_fields

from .errors import ConfigError, ParameterError
from .sampler import GuidanceConfig, KernelConfig
from .synthetic import BLUR_FAMILIES


@dataclass(frozen=True)
class ScheduleConfig:
    t: int = 1000
    beta_1: float = 1e-4
    beta_t: float = 0.02


@dataclass(frozen=True)
class DataConfig:
    height: int = 64
    width: int = 64
    seed: int = 0
    count: int = 30
    cells_mean: float = 4.0
    background_noise: float = 0.02
    blur_family: str = "varied"
    severity: int = 3


@dataclass(frozen=True)
class EvalConfig:
    tau: float | None = None
    tau_quantile: float = 0.99
    poolings: tuple = (1, 4, 16)


@dataclass(frozen=True)
class RunConfig:
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    guidance: GuidanceConfig = field(default_factory=GuidanceConfig)
    data: DataConfig = field(default_factory=DataConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


def default_config() -> RunConfig:
    return RunConfig()


def _parse_bool(raw: str):
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_optional_float(raw: str):
    if raw.strip().lower() in ("none", ""):
        return None
    return float(raw)


def _parse_poolings(raw: str):
    pools = tuple(int(p) for p in raw.replace(",", " ").split())
    if not pools or any(p < 1 for p in pools):
        raise ValueError(f"poolings must be positive integers, got {raw!r}")
    return pools


def _parse_family(raw: str):
    fam = raw.strip().lower()
    if fam not in BLUR_FAMILIES + ("varied",):
        raise ValueError(f"unknown blur family {raw!r}")
    return fam


# (section, key) -> (parser, validator or None).  Range checks that the
# underlying dataclasses already enforce are left to them.
_SCHEMA = {
    "schedule": {
        "t": (int, lambda v: v >= 2 or "t must be >= 2"),
        "beta_1": (float, lambda v: 0 < v < 1 or "beta_1 must lie in (0, 1)"),
        "beta_t": (float, lambda v: 0 < v < 1 or "beta_t must lie in (0, 1)"),
    },
    "kernel": {
        "size": (int, None),
        "init_mean": (float, None),
        "init_std": (float, None),
    },
    "guidance": {
        "lr": (float, None),
        "lr_schedule": (str.lower, None),
        "c": (float, None),
        "s_min": (float, None),
        "s_max": (float, None),
        "loss_floor": (float, None),
        "fixed_scale": (_parse_optional_float, None),
        "fixed_kernel": (_parse_bool, None),
        "clamp_x0": (_parse_bool, None),
    },
    "data": {
        "height": (int, lambda v: v >= 1 or "height must be >= 1"),
        "width": (int, lambda v: v >= 1 or "width must be >= 1"),
        "seed": (int, lambda v: v >= 0 or "seed must be >= 0"),
        "count": (int, lambda v: v >= 0 or "count must be >= 0"),
        "cells_mean": (float, lambda v: 0 <= v < math.inf or "cells_mean must be finite and >= 0"),
        "background_noise": (
            float,
            lambda v: 0 <= v < math.inf or "background_noise must be finite and >= 0",
        ),
        "blur_family": (_parse_family, None),
        "severity": (int, lambda v: v >= 0 or "severity must be >= 0"),
    },
    "eval": {
        "tau": (
            _parse_optional_float,
            lambda v: v is None or math.isfinite(v) or "tau must be finite",
        ),
        "tau_quantile": (float, lambda v: 0 <= v <= 1 or "tau_quantile must lie in [0, 1]"),
        "poolings": (_parse_poolings, None),
    },
}

# Config keys spelled like the dataclass fields they set (where they differ).
_FIELD_NAMES = {
    ("schedule", "t"): "t",
    ("guidance", "c"): "C",
}


def _suggest(name: str, options) -> str:
    close = difflib.get_close_matches(name, list(options), n=1)
    if close:
        return f"; did you mean {close[0]!r}?"
    return f"; known: {', '.join(sorted(options))}"


def load_config(path=None) -> RunConfig:
    """Parse and validate a config file; ``None`` means all defaults."""
    if path is None:
        return default_config()
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    values = {section: {} for section in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"unknown config section [{section}]{_suggest(section, _SCHEMA)}"
            )
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]{_suggest(key, _SCHEMA[section])}"
                )
            parse, check = _SCHEMA[section][key]
            try:
                value = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {exc}") from None
            if check is not None:
                verdict = check(value)
                if verdict is not True:
                    raise ConfigError(f"bad value for {section}.{key}: {verdict}")
            values[section][_FIELD_NAMES.get((section, key), key)] = value

    try:
        return RunConfig(
            schedule=ScheduleConfig(**values["schedule"]),
            kernel=KernelConfig(**values["kernel"]),
            guidance=GuidanceConfig(**values["guidance"]),
            data=DataConfig(**values["data"]),
            eval=EvalConfig(**values["eval"]),
        )
    except ParameterError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def config_as_dict(config: RunConfig) -> dict:
    """Plain nested dict (for run manifests)."""
    out = {}
    for section in dataclass_fields(config):
        sub = getattr(config, section.name)
        out[section.name] = {
            f.name: _plain(getattr(sub, f.name)) for f in dataclass_fields(sub)
        }
    return out


def _plain(v):
    if isinstance(v, tuple):
        return list(v)
    return v
