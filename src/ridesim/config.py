"""Run configuration: a YAML file mapped onto a tree of dataclasses.

The `grid`, `platform`, `bc`, `rl` and `synth` sections are the domain types
themselves (`GridSpec`, `PlatformParams`, `BcConfig`, `RlConfig`,
`SyntheticLogSpec`): each knob is declared once, on its type, and checked
once, when the section is built. Unknown keys are fatal and reported by
their dotted path, so a typo in a nested section fails loudly instead of
silently running defaults. Command line overrides (`section.key=value`) are
applied to the raw mapping before validation and therefore obey the same
rules. A canonical hash of the fully resolved configuration is stamped into
every artifact header.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .ridegen import GridSpec
from .sim import PlatformParams
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


@dataclass
class SimSection:
    driver_count: int = 50
    weeks: int = 1
    max_offers: int = 5
    speed_kmh: float = 30.0
    start_dow: int = 0
    # None: drivers start the run at the platform default goal baseline.
    initial_weekly_trips: object = None


@dataclass
class AgentSection:
    hidden: list = field(default_factory=lambda: [64, 64])
    atom_count: int = 51
    gamma: float = 0.6
    epsilon: float = 0.05
    learning_rate: float = 1e-3
    sync_every: int = 100


@dataclass
class EvaluateSection:
    replications: int = 20


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
    sim: SimSection = field(default_factory=SimSection)
    agent: AgentSection = field(default_factory=AgentSection)
    bc: BcConfig = field(default_factory=BcConfig)
    rl: RlConfig = field(default_factory=RlConfig)
    evaluate: EvaluateSection = field(default_factory=EvaluateSection)
    synth: SyntheticLogSpec = field(default_factory=SyntheticLogSpec)
    sweep: SweepSection = field(default_factory=SweepSection)


_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(Config)
             if f.name != "seed"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _checked(default, value, key: str):
    """`value` coerced to the type of the field's default, or ConfigError.

    Null is accepted only where the default is null; such fields are checked
    in `validate_config`. A tuple default holds [start, end] hour pairs.
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
    validate_config(cfg)
    return cfg


def apply_override(data: dict, item: str):
    """Apply a `section.key=value` override to the raw mapping in place."""
    if "=" not in item:
        raise ConfigError(f"override must look like key=value: {item!r}")
    dotted, raw = item.split("=", 1)
    parts = dotted.strip().split(".")
    if not all(parts):
        raise ConfigError(f"bad override key: {dotted!r}")
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError(f"bad override value {raw!r}: {exc}") from exc
    node = data
    for part in parts[:-1]:
        nxt = node.setdefault(part, {})
        if not isinstance(nxt, dict):
            raise ConfigError(f"override {dotted!r} descends into a scalar")
        node = nxt
    node[parts[-1]] = value


def load_config(path=None, overrides=()) -> Config:
    data: dict = {}
    if path is not None:
        text = Path(path).read_text()
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


def validate_config(cfg: Config):
    """Checks of the sections that have no domain type of their own."""
    if cfg.demand.scale_factor <= 0:
        raise ConfigError("demand.scale_factor must be positive")
    if cfg.demand.holdout_days < 0:
        raise ConfigError("demand.holdout_days must be non-negative")
    if cfg.sim.driver_count < 1:
        raise ConfigError("sim.driver_count must be at least 1")
    if cfg.sim.weeks < 1:
        raise ConfigError("sim.weeks must be at least 1")
    if not 0 <= cfg.sim.start_dow <= 6:
        raise ConfigError("sim.start_dow must be in 0..6")
    if cfg.agent.atom_count < 2:
        raise ConfigError("agent.atom_count must be at least 2")
    if not 0.0 <= cfg.agent.gamma < 1.0:
        raise ConfigError("agent.gamma must be in [0, 1)")
    if not 0.0 <= cfg.agent.epsilon <= 1.0:
        raise ConfigError("agent.epsilon must be in [0, 1]")
    if cfg.evaluate.replications < 1:
        raise ConfigError("evaluate.replications must be at least 1")
    init = cfg.sim.initial_weekly_trips
    if init is not None:
        ok_list = (isinstance(init, list) and init
                   and all(_is_int(v) for v in init))
        if not (_is_int(init) or ok_list):
            raise ConfigError(
                "sim.initial_weekly_trips must be an integer or integer list")


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
