"""Experiment configuration: JSON file with CLI-overridable keys.

The file is a single JSON object; unknown keys are rejected so typos fail
fast. Every run is fully seeded through the config, which is what makes
whole-experiment reruns bit-reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Optional

from .geo import Bbox, GeoPoint, GridSpec
from .nn import is_json, json_name
from .synth import PRESETS
from .trips import ConfigError, DAY_TYPES, WEEKDAY

# Paper-derived evaluation regions for the NYC data.
REGION_PRESETS = {
    "uptown": Bbox(lat_min=40.805, lat_max=40.8438,
                   lon_min=-73.9694, lon_max=-73.9274),
    "downtown": Bbox(lat_min=40.715, lat_max=40.7438,
                     lon_min=-74.0094, lon_max=-73.9774),
}


def parse_region(region, name: str = "region") -> Bbox:
    """A preset name, ``bbox=lat_min,lat_max,lon_min,lon_max`` or the list
    ``[lat_min, lat_max, lon_min, lon_max]`` as a box. Anything else, and a
    box that is empty or has a corner off the globe, is a ``ConfigError``
    naming ``name``."""
    if isinstance(region, str) and region in REGION_PRESETS:
        return REGION_PRESETS[region]
    try:
        if isinstance(region, str) and region.startswith("bbox="):
            edges = [float(p) for p in region[len("bbox="):].split(",")]
        elif is_json(region, [float]):
            edges = region
        else:
            raise ValueError(f"expected one of {sorted(REGION_PRESETS)}, "
                             "bbox=... or four numbers")
        if len(edges) != 4:
            raise ValueError(f"{len(edges)} edges, not 4")
        box = Bbox(*edges)
        GeoPoint(box.lat_min, box.lon_min)  # finite corners on the globe
        GeoPoint(box.lat_max, box.lon_max)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} {region!r}: {exc}") from None
    return box


# Range rules: (what the value must be, a test that is false for nan).
POSITIVE = ("positive", lambda v: v > 0)
NON_NEGATIVE = ("non-negative", lambda v: v >= 0)
FINITE_POSITIVE = ("finite and positive", lambda v: 0 < v < math.inf)
OPEN_UNIT = ("in (0, 1)", lambda v: 0 < v < 1)
DISCOUNT = ("in [0, 1)", lambda v: 0 <= v < 1)
STEP_SIZE = ("in (0, 1]", lambda v: 0 < v <= 1)
PROBABILITY = ("in [0, 1]", lambda v: 0 <= v <= 1)


def one_of(*choices):
    return (" or ".join(choices), lambda v: v in choices)


def list_of(what, ok, distinct=False):
    return (f"a non-empty list of {'distinct ' * distinct}{what}",
            lambda v: isinstance(v, list) and len(v) > 0
            and all(ok(x) for x in v) and not (distinct and len(set(v)) < len(v)))


WIDTHS = list_of("positive ints", lambda n: type(n) is int and n > 0)


class ConfigSection:
    """Base of every config section: one loader for the JSON object form.

    A field whose ``default_factory`` is a section is read as a nested
    section; any other value must have its default's JSON type
    (:func:`~carpool_rl.nn.is_json`; a ``None`` default is checked by its
    section). Sections are frozen; every field passes its rule in ``ranges``
    however the section is built, ``dataclasses.replace`` included, as
    ``__post_init__`` checks them (a subclass's own calls this one first).
    ``section`` names the section in error messages.
    """

    section = "config"
    ranges: dict = {}  # field name -> range rule

    def __post_init__(self):
        for name, (what, ok) in self.ranges.items():
            value = getattr(self, name)
            if not ok(value):
                raise ConfigError(f"{self.section}.{name} must be {what}: {value!r}")

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
            if f.name not in d:
                continue
            value, sub = d[f.name], f.default_factory
            if isinstance(sub, type) and issubclass(sub, ConfigSection):
                d[f.name] = sub.from_dict(value)
                continue
            kind = type(sub() if f.default is MISSING else f.default)
            if kind is not type(None) and not is_json(value, kind):
                raise ConfigError(f"{cls.section}.{f.name} must be a JSON "
                                  f"{json_name(kind)}, not "
                                  f"{type(value).__name__}: {value!r}")
        return cls(**d)


@dataclass(frozen=True)
class DataConfig(ConfigSection):
    section = "data"
    ranges = {"kind": one_of("synthetic", "csv"), "n_days": POSITIVE,
              "seed": NON_NEGATIVE,
              "csv_path": ("a string or null",
                           lambda v: v is None or isinstance(v, str))}
    kind: str = "synthetic"          # "synthetic" | "csv"
    preset: str = "dense"            # synthetic only
    noisy: bool = False
    n_days: int = 1
    seed: int = 1234
    csv_path: Optional[str] = None   # csv only
    region: Optional[list] = None    # csv mask: see parse_region

    def __post_init__(self):
        super().__post_init__()
        if self.kind == "csv" and not self.csv_path:
            raise ConfigError("data.kind=csv requires data.csv_path")
        if self.kind == "csv" and self.region is None:
            raise ConfigError("data.kind=csv requires data.region")
        if self.kind == "synthetic":
            if self.preset not in PRESETS:
                raise ConfigError(f"data.preset must be one of "
                                  f"{sorted(PRESETS)}: {self.preset!r}")
            if self.noisy and self.preset == "sparse":
                raise ConfigError("data.noisy: the sparse preset has no noisy variant")
            if self.region is not None:
                raise ConfigError("data.region applies to csv data only; a "
                                  "synthetic preset has its own region")
        self.bbox()

    def bbox(self) -> Optional[Bbox]:
        """The box ``region`` names (see :func:`parse_region`), if set."""
        return (None if self.region is None
                else parse_region(self.region, "data.region"))


@dataclass(frozen=True)
class GridConfig(ConfigSection):
    section = "grid"
    ranges = dict.fromkeys(("cell_lat", "cell_lon", "time_bin"), FINITE_POSITIVE)
    cell_lat: float = 0.002
    cell_lon: float = 0.002
    time_bin: float = 600.0

    def build(self, origin: GeoPoint) -> GridSpec:
        return GridSpec(origin_corner=origin, cell_lat=self.cell_lat,
                        cell_lon=self.cell_lon, time_bin=self.time_bin)


@dataclass(frozen=True)
class EnvParamsConfig(ConfigSection):
    section = "env"
    ranges = {"search_window": FINITE_POSITIVE, "carpool_fraction": OPEN_UNIT,
              "wait_delay": FINITE_POSITIVE}
    search_window: float = 600.0     # pickup-time window for the first trip
    carpool_fraction: float = 0.5    # second window as a fraction of trip 1's duration
    wait_delay: float = 600.0        # clock advance when waiting / nothing found


@dataclass(frozen=True)
class EtaConfig(ConfigSection):
    """The travel-time source and everything its learned estimators read."""

    section = "eta"
    ranges = {"kind": one_of("speed", "joint"), "speed_mph": FINITE_POSITIVE,
              "learning_rate": FINITE_POSITIVE, "batch_size": POSITIVE,
              "epochs": NON_NEGATIVE, "dist_hidden": WIDTHS,
              "time_hidden": WIDTHS, "split_ratio": OPEN_UNIT,
              "split_seed": NON_NEGATIVE}
    kind: str = "speed"              # "speed" | "joint"
    speed_mph: float = 12.0
    learning_rate: float = 0.03
    batch_size: int = 32
    epochs: int = 30
    dist_hidden: list = field(default_factory=lambda: [64, 64, 32])
    time_hidden: list = field(default_factory=lambda: [64, 64])
    split_ratio: float = 0.8
    split_seed: int = 0


@dataclass(frozen=True)
class DqnConfig(ConfigSection):
    """Everything a Double-DQN agent and its training loop read."""

    section = "dqn"
    ranges = {"hidden": WIDTHS, "gamma": DISCOUNT, "learning_rate": FINITE_POSITIVE,
              "batch_size": POSITIVE, "replay_capacity": POSITIVE,
              "eps_start": PROBABILITY, "eps_end": PROBABILITY,
              "eps_decay_steps": POSITIVE, "sync_period": POSITIVE,
              "train_episodes": NON_NEGATIVE}
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


@dataclass(frozen=True)
class TabQConfig(ConfigSection):
    section = "tabq"
    ranges = {"alpha": STEP_SIZE, "gamma": DISCOUNT,
              "eps_start": PROBABILITY, "eps_end": PROBABILITY,
              "eps_decay_steps": POSITIVE, "train_episodes": NON_NEGATIVE}
    alpha: float = 0.1
    gamma: float = 0.95
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_steps: int = 10_000
    train_episodes: int = 150


@dataclass(frozen=True)
class ExperimentConfig(ConfigSection):
    ranges = {"seeds": list_of("non-negative ints",
                               lambda s: type(s) is int and s >= 0, distinct=True),
              "eval_episodes": POSITIVE,
              "day_types": list_of("/".join(DAY_TYPES),
                                   lambda d: d in DAY_TYPES, distinct=True)}
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
        super().__post_init__()
        if self.dqn.batch_size > self.dqn.replay_capacity:  # else it never trains
            raise ConfigError("dqn.batch_size must not exceed dqn.replay_capacity")

    def to_dict(self) -> dict:
        return asdict(self)


def load_config(path=None, **overrides) -> ExperimentConfig:
    """The JSON file ``path`` (defaults if none) through :func:`apply_overrides`."""
    doc = {}
    if path:
        with open(path) as fh:
            doc = json.load(fh)
    return apply_overrides(doc, **overrides)


def apply_overrides(doc, *, seed: Optional[int] = None,
                    region: Optional[str] = None, day: Optional[str] = None,
                    out: Optional[str] = None) -> ExperimentConfig:
    """The config the JSON object ``doc`` describes, with CLI flags taking
    precedence over its keys. The flags are merged into ``doc`` before the
    one ``from_dict``, so they pass the same checks as keys read from a
    file, and ``region`` can complete a csv config that names none."""
    top, data = {}, {}
    if seed is not None:
        top["seeds"] = [seed]
        data["seed"] = seed
    if region is not None:
        b = parse_region(region)
        data["region"] = [b.lat_min, b.lat_max, b.lon_min, b.lon_max]
    if day is not None:
        top["day_types"] = [day]
    if out is not None:
        top["out_dir"] = out
    if isinstance(doc, dict):  # else from_dict names the bad type
        doc = {**doc, **top}
        if data and isinstance(doc.get("data", {}), dict):
            doc["data"] = {**doc.get("data", {}), **data}
    return ExperimentConfig.from_dict(doc)
