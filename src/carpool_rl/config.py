"""Experiment configuration: JSON file with CLI-overridable keys.

The file is a single JSON object; unknown keys are rejected so typos fail
fast. Every run is fully seeded through the config, which is what makes
whole-experiment reruns bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

from .geo import Bbox, GeoPoint, GridSpec
from .trips import ConfigError, WEEKDAY

# Paper-derived evaluation regions for the NYC data.
REGION_PRESETS = {
    "uptown": Bbox(lat_min=40.805, lat_max=40.8438,
                   lon_min=-73.9694, lon_max=-73.9274),
    "downtown": Bbox(lat_min=40.715, lat_max=40.7438,
                     lon_min=-74.0094, lon_max=-73.9774),
}


def parse_region(text: str) -> Bbox:
    """Accepts a preset name or ``bbox=lat_min,lat_max,lon_min,lon_max``."""
    if text in REGION_PRESETS:
        return REGION_PRESETS[text]
    if text.startswith("bbox="):
        parts = text[len("bbox="):].split(",")
        if len(parts) != 4:
            raise ConfigError(f"bad bbox spec: {text!r}")
        a, b, c, d = (float(p) for p in parts)
        return Bbox(a, b, c, d)
    raise ConfigError(f"unknown region {text!r} "
                      f"(expected {sorted(REGION_PRESETS)} or bbox=...)")


class ConfigSection:
    """Base of every config section: one loader for the JSON object form.

    A field whose ``default_factory`` is itself a section is read as a
    nested section. ``section`` names the section in error messages.
    """

    section = "config"

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError(f"{cls.section} must be a JSON object, "
                              f"not {type(d).__name__}")
        extra = set(d) - set(cls.__dataclass_fields__)
        if extra:
            raise ConfigError(f"unknown keys in {cls.section}: {sorted(extra)}")
        d = dict(d)
        for f in fields(cls):
            sub = f.default_factory
            if (f.name in d and isinstance(sub, type)
                    and issubclass(sub, ConfigSection)):
                d[f.name] = sub.from_dict(d[f.name])
        return cls(**d)


@dataclass
class DataConfig(ConfigSection):
    section = "data"
    kind: str = "synthetic"          # "synthetic" | "csv"
    preset: str = "dense"            # synthetic only
    noisy: bool = False
    n_days: int = 1
    seed: int = 1234
    csv_path: Optional[str] = None   # csv only
    region: Optional[list] = None    # csv mask: preset name or 4 floats

    def __post_init__(self):
        if self.kind not in ("synthetic", "csv"):
            raise ConfigError(f"data.kind must be synthetic or csv: {self.kind!r}")
        if self.kind == "csv" and not self.csv_path:
            raise ConfigError("data.kind=csv requires data.csv_path")


@dataclass
class GridConfig(ConfigSection):
    section = "grid"
    cell_lat: float = 0.002
    cell_lon: float = 0.002
    time_bin: float = 600.0
    weekend_offset: float = 86400.0

    def build(self, origin: GeoPoint) -> GridSpec:
        return GridSpec(origin_corner=origin, cell_lat=self.cell_lat,
                        cell_lon=self.cell_lon, time_bin=self.time_bin,
                        weekend_offset=self.weekend_offset)


@dataclass
class EnvParamsConfig(ConfigSection):
    section = "env"
    search_window: float = 600.0
    carpool_fraction: float = 0.5
    wait_delay: float = 600.0


@dataclass
class EtaConfig(ConfigSection):
    section = "eta"
    kind: str = "speed"              # "speed" | "joint"
    speed_mph: float = 12.0
    learning_rate: float = 0.03
    batch_size: int = 32
    epochs: int = 30
    dist_hidden: list = field(default_factory=lambda: [64, 64, 32])
    time_hidden: list = field(default_factory=lambda: [64, 64])
    split_ratio: float = 0.8
    split_seed: int = 0

    def __post_init__(self):
        if self.kind not in ("speed", "joint"):
            raise ConfigError(f"eta.kind must be speed or joint: {self.kind!r}")


@dataclass
class DqnConfig(ConfigSection):
    section = "dqn"
    hidden: list = field(default_factory=lambda: [64, 64])
    gamma: float = 0.95
    learning_rate: float = 0.05
    batch_size: int = 32
    replay_capacity: int = 100_000
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_steps: int = 10_000
    sync_period: int = 1000
    train_episodes: int = 150


@dataclass
class TabQConfig(ConfigSection):
    section = "tabq"
    alpha: float = 0.1
    gamma: float = 0.95
    alpha_decay: bool = False
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_steps: int = 10_000
    train_episodes: int = 150


@dataclass
class ExperimentConfig(ConfigSection):
    out_dir: str = "runs/experiment"
    seeds: list = field(default_factory=lambda: [0, 1, 2])
    eval_episodes: int = 20
    day_types: list = field(default_factory=lambda: [WEEKDAY])
    data: DataConfig = field(default_factory=DataConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    env: EnvParamsConfig = field(default_factory=EnvParamsConfig)
    eta: EtaConfig = field(default_factory=EtaConfig)
    dqn: DqnConfig = field(default_factory=DqnConfig)
    tabq: TabQConfig = field(default_factory=TabQConfig)

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("config.seeds must list at least one seed")
        if not self.day_types or any(d not in ("weekday", "weekend")
                                     for d in self.day_types):
            raise ConfigError(f"bad day_types: {self.day_types}")

    def to_dict(self) -> dict:
        return asdict(self)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig.from_dict(json.load(fh))


def apply_overrides(cfg: ExperimentConfig, *, seed: Optional[int] = None,
                    region: Optional[str] = None, day: Optional[str] = None,
                    out: Optional[str] = None) -> ExperimentConfig:
    """CLI flags take precedence over config file keys."""
    if seed is not None:
        cfg.seeds = [seed]
        cfg.data.seed = seed
    if region is not None:
        b = parse_region(region)
        cfg.data.region = [b.lat_min, b.lat_max, b.lon_min, b.lon_max]
    if day is not None:
        cfg.day_types = [day]
    if out is not None:
        cfg.out_dir = out
    return cfg
