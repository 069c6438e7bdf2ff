"""Run configuration: a YAML file mapped onto a tree of dataclasses.

The `grid`, `platform`, `sim`, `agent`, `bc`, `rl` and `synth` sections are
the domain types themselves (`GridSpec`, `PlatformParams`, `SimSettings`,
`AgentSpec`, `BcConfig`, `RlConfig`, `SyntheticLogSpec`): each knob is
declared once, on its type, and checked once, when the section is built.
The `demand` and `evaluate` sections check themselves the same way. Unknown
keys are fatal and reported by their dotted path, so a typo in a nested
section fails loudly instead of silently running defaults. Command line
overrides (`section.key=value`) are applied to the raw mapping before
validation and therefore obey the same rules. A canonical hash of the fully
resolved configuration is stamped into every artifact header.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

import yaml

from .agent import AgentSpec
from .artifacts import read_text
from .ridegen import GridSpec
from .sim import PlatformParams, SimSettings, _is_int
from .synth import SyntheticLogSpec
from .training import BcConfig, RlConfig


class ConfigError(ValueError):
    pass


@dataclass
class PathsSection:
    trip_log: str = ""
    out_dir: str = "out"


@dataclass
class DemandSection:
    scale_factor: float = 35.0
    holdout_days: int = 7

    def __post_init__(self):
        if not (0 < self.scale_factor < math.inf):
            raise ValueError("scale_factor must be positive and finite")
        if self.holdout_days < 0:
            raise ValueError("holdout_days must be non-negative")


@dataclass
class EvaluateSection:
    replications: int = 20

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be at least 1")


@dataclass
class SweepSection:
    param: str = ""
    values: list = field(default_factory=list)


@dataclass
class Config:
    seed: int = 7
    paths: PathsSection = field(default_factory=PathsSection)
    grid: GridSpec = field(default_factory=GridSpec)
    demand: DemandSection = field(default_factory=DemandSection)
    platform: PlatformParams = field(default_factory=PlatformParams)
    sim: SimSettings = field(default_factory=SimSettings)
    agent: AgentSpec = field(default_factory=AgentSpec)
    bc: BcConfig = field(default_factory=BcConfig)
    rl: RlConfig = field(default_factory=RlConfig)
    evaluate: EvaluateSection = field(default_factory=EvaluateSection)
    synth: SyntheticLogSpec = field(default_factory=SyntheticLogSpec)
    sweep: SweepSection = field(default_factory=SweepSection)


_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(Config)
             if f.name != "seed"}


def _checked(default, value, key: str):
    """`value` coerced to the type of the field's default, or ConfigError.

    Null is accepted only where the default is null; the section's type
    checks such fields. A tuple default holds [start, end] hour pairs.
    """
    if default is None:
        return value
    if isinstance(default, int):
        if not _is_int(value):
            raise ConfigError(f"{key} must be an integer")
        return value
    if isinstance(default, float):
        if not (_is_int(value) or isinstance(value, float)):
            raise ConfigError(f"{key} must be a number")
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string")
        return value
    if isinstance(default, tuple):
        if not (isinstance(value, (list, tuple)) and all(
                isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(_is_int(v) for v in pair) for pair in value)):
            raise ConfigError(f"{key} must be a list of [start, end] pairs")
        return tuple(tuple(pair) for pair in value)
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list")
    return value


def _section(cls, mapping, name: str):
    """Section `name` of type `cls`: field defaults overlaid by `mapping`."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"section {name} must be a mapping")
    defaults = cls()
    names = {f.name for f in dataclasses.fields(cls)}
    values = {}
    for key, value in mapping.items():
        if key not in names:
            raise ConfigError(f"unknown key: {name}.{key}")
        values[key] = _checked(getattr(defaults, key), value, f"{name}.{key}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def config_from_dict(data: dict) -> Config:
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    cfg = Config()
    for key, value in data.items():
        if key == "seed":
            if not _is_int(value):
                raise ConfigError("seed must be an integer")
            cfg.seed = value
        elif key in _SECTIONS:
            if value is not None:
                setattr(cfg, key, _section(_SECTIONS[key], value, key))
        else:
            raise ConfigError(f"unknown key: {key}")
    return cfg


def apply_override(data: dict, item: str):
    """Apply a `section.key=value` override to the raw mapping in place."""
    if "=" not in item:
        raise ConfigError(f"override must look like key=value: {item!r}")
    dotted, raw = item.split("=", 1)
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError(f"bad override value {raw!r}: {exc}") from exc
    set_key(data, dotted.strip(), value)


def set_key(data: dict, dotted: str, value):
    """Set the dotted `section.key` of the raw mapping to `value` in place."""
    parts = dotted.split(".")
    if not all(parts):
        raise ConfigError(f"bad override key: {dotted!r}")
    node = data
    for part in parts[:-1]:
        nxt = node.setdefault(part, {})
        if not isinstance(nxt, dict):
            raise ConfigError(f"{dotted!r} descends into a scalar")
        node = nxt
    node[parts[-1]] = value


def load_config(path=None, overrides=()) -> Config:
    data: dict = {}
    if path is not None:
        text = read_text(path)
        try:
            loaded = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        if loaded is not None:
            if not isinstance(loaded, dict):
                raise ConfigError("configuration root must be a mapping")
            data = loaded
    for item in overrides:
        apply_override(data, item)
    return config_from_dict(data)


def config_to_dict(cfg: Config) -> dict:
    return dataclasses.asdict(cfg)


def config_hash(cfg: Config) -> str:
    """Hash of the resolved configuration, stable across key order."""
    canon = json.dumps(config_to_dict(cfg), sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# bench/worker.py reads the grid and platform through these two names.

def build_grid(cfg: Config) -> GridSpec:
    return cfg.grid


def build_platform(cfg: Config) -> PlatformParams:
    return cfg.platform
