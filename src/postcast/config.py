"""Run configuration: one flat INI file, strict keys, full defaults.

An empty file (or no file) yields the stock configuration.  The sections are
the fields of :class:`RunConfig`, and each section's keys are the fields of
its settings dataclass, lower-cased (``GuidanceConfig.C`` is key ``c``); a
field's annotation picks the parser of its value.  Unknown sections or keys
are rejected with a closest-match suggestion.

This module only parses.  Each range rule lives in the dataclass that holds
the value (``DataConfig`` builds a ``FieldSpec`` for the grid and texture
rules), so a config that loads is one every command can run.
``blur_family`` also accepts ``varied`` (cycle families and severities across
the generated set); ``fixed_scale`` and ``tau`` accept ``none`` to mean
"automatic".
"""

from __future__ import annotations

import configparser
import difflib
import math
from dataclasses import dataclass, field, fields as dataclass_fields

from .diffusion import ScheduleConfig
from .errors import ConfigError, ParameterError
from .kernel import KernelConfig
from .sampler import GuidanceConfig
from .synthetic import BLUR_FAMILIES, FieldSpec


@dataclass(frozen=True)
class DataConfig:
    """The generated dataset; FieldSpec holds the grid and texture rules."""

    height: int = 64
    width: int = 64
    seed: int = 0
    count: int = 30
    cells_mean: float = 4.0
    blur_family: str = "varied"
    severity: int = 3

    def __post_init__(self):
        self.field_spec(self.seed)
        if self.count < 1:
            raise ParameterError(f"count must be >= 1, got {self.count}")
        if self.severity < 0:
            raise ParameterError(f"severity must be >= 0, got {self.severity}")
        if self.blur_family not in BLUR_FAMILIES + ("varied",):
            raise ParameterError(
                f"unknown blur family {self.blur_family!r}; "
                f"expected one of {BLUR_FAMILIES + ('varied',)}"
            )
        if self.blur_family == "varied" and self.severity < 1:
            raise ParameterError(
                f"blur_family 'varied' cycles severities 1..severity, so severity must be "
                f">= 1, got {self.severity}"
            )

    def field_spec(self, seed: int) -> FieldSpec:
        """The generator settings of this dataset, drawn from ``seed``."""
        return FieldSpec(self.height, self.width, self.cells_mean, seed=seed)


@dataclass(frozen=True)
class EvalConfig:
    """Scoring; ``tau = None`` thresholds at a quantile of the observations
    (``cli.TAU_QUANTILE``)."""

    tau: float | None = None
    poolings: tuple = (1, 4, 16)

    def __post_init__(self):
        if self.tau is not None and not math.isfinite(self.tau):
            raise ParameterError(f"tau must be finite, got {self.tau}")
        if not self.poolings or any(p < 1 for p in self.poolings):
            raise ParameterError(f"poolings must be positive integers, got {self.poolings}")


@dataclass(frozen=True)
class RunConfig:
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    guidance: GuidanceConfig = field(default_factory=GuidanceConfig)
    data: DataConfig = field(default_factory=DataConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


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
    return tuple(int(p) for p in raw.replace(",", " ").split())


# A settings field's annotation -> the parser of its INI value.
_PARSERS = {
    "int": int,
    "float": float,
    "str": str.lower,
    "bool": _parse_bool,
    "float | None": _parse_optional_float,
    "tuple": _parse_poolings,
}

# Section name -> settings dataclass.
_SECTIONS = {f.name: f.default_factory for f in dataclass_fields(RunConfig)}


def _suggest(name: str, options) -> str:
    close = difflib.get_close_matches(name, list(options), n=1)
    if close:
        return f"; did you mean {close[0]!r}?"
    return f"; known: {', '.join(sorted(options))}"


def load_config(path=None) -> RunConfig:
    """Parse and validate a config file; ``None`` means all defaults."""
    if path is None:
        return RunConfig()
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "rb") as fh:
            parser.read_string(fh.read().decode("utf-8"), source=str(path))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"config file {path} is not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    values = {section: {} for section in _SECTIONS}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(
                f"unknown config section [{section}]{_suggest(section, _SECTIONS)}"
            )
        keys = {f.name.lower(): f for f in dataclass_fields(_SECTIONS[section])}
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in [{section}]{_suggest(key, keys)}")
            try:
                values[section][keys[key].name] = _PARSERS[keys[key].type](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {exc}") from None

    settings = {}
    for section, cls in _SECTIONS.items():
        try:
            settings[section] = cls(**values[section])
        except ParameterError as exc:
            raise ConfigError(f"invalid configuration in [{section}]: {exc}") from exc
    return RunConfig(**settings)
