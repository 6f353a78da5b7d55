"""Historical trip ingestion, outlier rejection, and pickup-window queries.

The canonical CSV schema matches the public NYC trip files:
``pickup_datetime, dropoff_datetime, pickup_longitude, pickup_latitude,
dropoff_longitude, dropoff_latitude, trip_distance, trip_time_in_secs,
passenger_count`` with datetimes formatted ``YYYY-MM-DD HH:MM:SS``.
``trip_time_in_secs`` is optional; when absent the duration falls back to
``dropoff - pickup``.
"""

from __future__ import annotations

import bisect
import csv
from dataclasses import dataclass, field
from datetime import datetime
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .geo import Bbox, GeoPoint

DATETIME_FORMAT = "%Y-%m-%d %H:%M:%S"

CANONICAL_COLUMNS = (
    "pickup_datetime",
    "dropoff_datetime",
    "pickup_longitude",
    "pickup_latitude",
    "dropoff_longitude",
    "dropoff_latitude",
    "trip_distance",
    "trip_time_in_secs",
    "passenger_count",
)

# trip_time_in_secs may be missing from a source file.
REQUIRED_COLUMNS = tuple(c for c in CANONICAL_COLUMNS if c != "trip_time_in_secs")

# Rejection tally keys, in the order rules are checked. A row failing several
# rules is attributed to the first one.
REJECT_KEYS = ("unparsable", "passengers", "duration", "distance", "bbox",
               "duration_mismatch")

# Generous box around the five boroughs plus nearby NJ; anything outside is
# a GPS glitch for this dataset.
NYC_BBOX = Bbox(lat_min=40.40, lat_max=41.10, lon_min=-74.35, lon_max=-73.55)

WEEKDAY = "weekday"
WEEKEND = "weekend"
DAY_TYPES = (WEEKDAY, WEEKEND)


class ConfigError(ValueError):
    """Bad ingestion configuration (e.g. a missing required column)."""


@dataclass(frozen=True)
class TripRecord:
    """One historical taxi trip.

    ``distance`` is in miles, ``duration`` in seconds.
    """

    origin: GeoPoint
    destination: GeoPoint
    pickup_dt: datetime
    dropoff_dt: datetime
    distance: float
    duration: float
    passengers: int

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError(f"duration must be positive: {self.duration}")
        if self.distance <= 0:
            raise ValueError(f"distance must be positive: {self.distance}")
        if not 1 <= self.passengers <= 7:
            raise ValueError(f"passengers out of [1, 7]: {self.passengers}")
        if self.dropoff_dt <= self.pickup_dt:
            raise ValueError("dropoff must come after pickup")

    @property
    def pickup_seconds(self) -> float:
        t = self.pickup_dt
        return t.hour * 3600 + t.minute * 60 + t.second + t.microsecond / 1e6

    @property
    def dropoff_seconds(self) -> float:
        """Pickup seconds-of-day plus duration; may run past midnight."""
        return self.pickup_seconds + self.duration

    @property
    def is_weekend(self) -> bool:
        return self.pickup_dt.weekday() >= 5

    @property
    def day_type(self) -> str:
        return WEEKEND if self.is_weekend else WEEKDAY


@dataclass(frozen=True)
class OutlierRules:
    """Configurable filters applied during ingestion.

    ``max_duration_gap`` rejects rows whose reported trip time disagrees
    with the dropoff-pickup difference by more than the given seconds (only
    checked when the file carries both).
    """

    min_passengers: int = 1
    max_passengers: int = 7
    min_duration: float = 60.0
    max_duration: float = 7200.0
    min_distance: float = 0.0   # exclusive lower bound
    max_distance: float = 50.0
    bbox: Bbox = field(default_factory=lambda: NYC_BBOX)
    max_duration_gap: float = 60.0

    def __post_init__(self):
        if self.min_passengers > self.max_passengers:
            raise ValueError("min_passengers > max_passengers")
        if self.min_duration >= self.max_duration:
            raise ValueError("min_duration >= max_duration")
        if self.min_distance >= self.max_distance:
            raise ValueError("min_distance >= max_distance")

    def failed_rule(self, origin: GeoPoint, destination: GeoPoint,
                    pickup_dt: datetime, dropoff_dt: datetime,
                    distance: float, duration: float, passengers: int,
                    reported_duration: Optional[float]) -> Optional[str]:
        """Name of the first violated rule, or None if the row is clean."""
        if not self.min_passengers <= passengers <= self.max_passengers:
            return "passengers"
        if not (self.min_duration <= duration <= self.max_duration
                and dropoff_dt > pickup_dt):
            return "duration"
        if not self.min_distance < distance <= self.max_distance:
            return "distance"
        if not (self.bbox.contains(origin) and self.bbox.contains(destination)):
            return "bbox"
        if reported_duration is not None:
            wall = (dropoff_dt - pickup_dt).total_seconds()
            if abs(reported_duration - wall) > self.max_duration_gap:
                return "duration_mismatch"
        return None


class TripStore:
    """Immutable collection of filtered trips, sorted by pickup seconds-of-day
    within each day type."""

    def __init__(self, records: Iterable[TripRecord]):
        by_day: dict[str, list[TripRecord]] = {WEEKDAY: [], WEEKEND: []}
        for r in records:
            by_day[r.day_type].append(r)
        for day in DAY_TYPES:
            by_day[day].sort(key=lambda r: r.pickup_seconds)
        self._by_day = {day: tuple(rs) for day, rs in by_day.items()}
        self._pickups = {day: [r.pickup_seconds for r in rs]
                         for day, rs in self._by_day.items()}

    def __len__(self) -> int:
        return sum(len(rs) for rs in self._by_day.values())

    @property
    def records(self) -> tuple[TripRecord, ...]:
        return self._by_day[WEEKDAY] + self._by_day[WEEKEND]

    def query_window(self, t0: float, t1: float, day_type: str) -> list[TripRecord]:
        """Trips of the given day type with pickup seconds in [t0, t1],
        ascending by pickup time."""
        if t0 > t1:
            raise ValueError(f"t0 > t1: {t0} > {t1}")
        pickups = self._pickups[day_type]
        lo = bisect.bisect_left(pickups, t0)
        hi = bisect.bisect_right(pickups, t1)
        return list(self._by_day[day_type][lo:hi])

    def mask_region(self, bbox: Bbox) -> "TripStore":
        """Keep trips whose origin AND destination lie inside ``bbox``."""
        return TripStore(r for r in self.records
                         if bbox.contains(r.origin) and bbox.contains(r.destination))

    def train_test_split(self, ratio: float, seed: int) -> tuple["TripStore", "TripStore"]:
        """Disjoint, exhaustive split; deterministic for a fixed seed."""
        if not 0 < ratio < 1:
            raise ValueError(f"ratio out of (0, 1): {ratio}")
        records = self.records
        n = len(records)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        n_train = int(round(n * ratio))
        train_idx = set(perm[:n_train].tolist())
        train = [records[i] for i in range(n) if i in train_idx]
        test = [records[i] for i in range(n) if i not in train_idx]
        return TripStore(train), TripStore(test)


class IngestResult(NamedTuple):
    store: TripStore
    rejected_count: int
    rejections: dict[str, int]


def _parse_row(row: dict[str, str], cols: dict[str, str], has_duration_col: bool):
    origin = GeoPoint(float(row[cols["pickup_latitude"]]),
                      float(row[cols["pickup_longitude"]]))
    destination = GeoPoint(float(row[cols["dropoff_latitude"]]),
                           float(row[cols["dropoff_longitude"]]))
    pickup_dt = datetime.strptime(row[cols["pickup_datetime"]], DATETIME_FORMAT)
    dropoff_dt = datetime.strptime(row[cols["dropoff_datetime"]], DATETIME_FORMAT)
    distance = float(row[cols["trip_distance"]])
    passengers = int(float(row[cols["passenger_count"]]))
    reported = None
    if has_duration_col:
        reported = float(row[cols["trip_time_in_secs"]])
    duration = reported if reported is not None else (dropoff_dt - pickup_dt).total_seconds()
    return origin, destination, pickup_dt, dropoff_dt, distance, duration, passengers, reported


def ingest_csv(path, rules: OutlierRules | None = None,
               schema: dict[str, str] | None = None) -> IngestResult:
    """Read a trip CSV, drop outliers, and build a :class:`TripStore`.

    ``schema`` maps canonical column names to the file's actual names;
    unmapped columns keep their canonical name. Unparsable rows are counted
    under ``"unparsable"`` and skipped; a missing required column is fatal.
    """
    rules = rules or OutlierRules()
    cols = {c: c for c in CANONICAL_COLUMNS}
    if schema:
        cols.update(schema)

    kept: list[TripRecord] = []
    tally = {k: 0 for k in REJECT_KEYS}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in REQUIRED_COLUMNS if cols[c] not in header]
        if missing:
            raise ConfigError(
                f"required columns missing from {path}: "
                + ", ".join(cols[c] for c in missing))
        has_duration_col = cols["trip_time_in_secs"] in header
        for row in reader:
            try:
                parsed = _parse_row(row, cols, has_duration_col)
            except (ValueError, TypeError, KeyError):
                tally["unparsable"] += 1
                continue
            (origin, destination, pickup_dt, dropoff_dt,
             distance, duration, passengers, reported) = parsed
            failed = rules.failed_rule(origin, destination, pickup_dt, dropoff_dt,
                                       distance, duration, passengers, reported)
            if failed is not None:
                tally[failed] += 1
                continue
            kept.append(TripRecord(origin, destination, pickup_dt, dropoff_dt,
                                   distance, duration, passengers))
    rejected = sum(tally.values())
    return IngestResult(TripStore(kept), rejected, tally)
