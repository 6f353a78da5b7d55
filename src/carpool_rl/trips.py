"""Historical trip ingestion, outlier rejection, and pickup-window queries.

The canonical CSV columns match the public NYC trip files:
``pickup_datetime, dropoff_datetime, pickup_longitude, pickup_latitude,
dropoff_longitude, dropoff_latitude, trip_distance, trip_time_in_secs,
passenger_count`` with datetimes formatted ``YYYY-MM-DD HH:MM:SS``.
``trip_time_in_secs`` is optional; when absent the duration falls back to
``dropoff - pickup``.
"""

from __future__ import annotations

import bisect
import csv
import re
from dataclasses import dataclass, field
from datetime import datetime
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .geo import Bbox, GeoPoint

DATETIME_FORMAT = "%Y-%m-%d %H:%M:%S"

# ASCII digits only: strptime also takes other Unicode digits, which
# fromisoformat rejects, so such fields go the strptime way.
_CANONICAL_DATETIME = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}")

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

# The day names of configs, the CLI, report keys, curve names and synthetic
# presets. Inside the package the day is the bool ``is_weekend``.
WEEKDAY = "weekday"
WEEKEND = "weekend"
DAY_TYPES = (WEEKDAY, WEEKEND)


class ConfigError(ValueError):
    """Bad ingestion configuration (e.g. a missing required column)."""


def parse_datetime(text: str) -> datetime:
    """``datetime.strptime(text, DATETIME_FORMAT)``, with the same accepted
    set and values. A field of the canonical shape ``YYYY-MM-DD HH:MM:SS``
    takes the faster ``datetime.fromisoformat``."""
    if _CANONICAL_DATETIME.fullmatch(text):
        return datetime.fromisoformat(text)
    return datetime.strptime(text, DATETIME_FORMAT)


@dataclass(frozen=True, slots=True)
class TripRecord:
    """One historical taxi trip.

    ``distance`` is in miles, ``duration`` in seconds. ``pickup_seconds``
    (pickup seconds-of-day) and ``is_weekend`` (pickup on a Saturday or
    Sunday) are derived from ``pickup_dt`` once, at construction.
    """

    origin: GeoPoint
    destination: GeoPoint
    pickup_dt: datetime
    dropoff_dt: datetime
    distance: float
    duration: float
    passengers: int
    pickup_seconds: float = field(init=False, compare=False)
    is_weekend: bool = field(init=False, compare=False)

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError(f"duration must be positive: {self.duration}")
        if self.distance <= 0:
            raise ValueError(f"distance must be positive: {self.distance}")
        if not 1 <= self.passengers <= 7:
            raise ValueError(f"passengers out of [1, 7]: {self.passengers}")
        if self.dropoff_dt <= self.pickup_dt:
            raise ValueError("dropoff must come after pickup")
        t = self.pickup_dt
        object.__setattr__(self, "pickup_seconds",
                           t.hour * 3600 + t.minute * 60 + t.second
                           + t.microsecond / 1e6)
        object.__setattr__(self, "is_weekend", t.weekday() >= 5)

    @property
    def dropoff_seconds(self) -> float:
        """Pickup seconds-of-day plus duration; may run past midnight."""
        return self.pickup_seconds + self.duration


def _failed_rule(origin: GeoPoint, destination: GeoPoint, pickup_dt: datetime,
                 dropoff_dt: datetime, distance: float, duration: float,
                 passengers: int, reported: Optional[float]) -> Optional[str]:
    """The ``REJECT_KEYS`` name of the first rule a parsed row breaks, or
    None. ``reported``, the file's ``trip_time_in_secs`` (None when it has
    no such column), must lie within 60 s of dropoff - pickup."""
    if not 1 <= passengers <= 7:
        return "passengers"
    if not (60.0 <= duration <= 7200.0 and dropoff_dt > pickup_dt):
        return "duration"
    if not 0.0 < distance <= 50.0:
        return "distance"
    if not (NYC_BBOX.contains(origin) and NYC_BBOX.contains(destination)):
        return "bbox"
    if reported is not None:
        if abs(reported - (dropoff_dt - pickup_dt).total_seconds()) > 60.0:
            return "duration_mismatch"
    return None


class TripColumns(NamedTuple):
    """A store's trips as read-only float arrays (``is_weekend`` a bool
    array), one entry per trip in ``TripStore.records`` order."""

    o_lat: np.ndarray
    o_lon: np.ndarray
    d_lat: np.ndarray
    d_lon: np.ndarray
    pickup_seconds: np.ndarray
    is_weekend: np.ndarray
    duration: np.ndarray
    distance: np.ndarray

    def take(self, idx: np.ndarray) -> "TripColumns":
        """The rows ``idx`` of every column, as new read-only arrays."""
        return TripColumns(*map(_read_only, (c[idx] for c in self)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _column(items: list, name: str) -> np.ndarray:
    """The float array of attribute ``name`` of each item, filled without
    a list of the values, so that building a view adds little transient
    memory."""
    return np.fromiter(map(attrgetter(name), items), float, len(items))


class TripStore:
    """Immutable collection of filtered trips, sorted by pickup seconds-of-day
    within each day, weekday (``is_weekend`` False) or weekend."""

    def __init__(self, records: Iterable[TripRecord]):
        by_day: dict[bool, list[TripRecord]] = {False: [], True: []}
        for r in records:
            by_day[r.is_weekend].append(r)
        for rs in by_day.values():
            rs.sort(key=lambda r: r.pickup_seconds)
        self._records = tuple(by_day[False] + by_day[True])
        # Per day: where its trips start in ``records``, and their pickups.
        self._days = {False: (0, [r.pickup_seconds for r in by_day[False]]),
                      True: (len(by_day[False]),
                             [r.pickup_seconds for r in by_day[True]])}
        self._columns: Optional[TripColumns] = None

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> tuple[TripRecord, ...]:
        """The weekday trips, then the weekend trips."""
        return self._records

    @property
    def columns(self) -> TripColumns:
        """The trips as :class:`TripColumns`, built on first use (or handed
        down, indexed, by the store this one was cut from) and kept."""
        if self._columns is None:
            records = self._records
            origins = [r.origin for r in records]
            destinations = [r.destination for r in records]
            weekend = np.arange(len(records)) >= self._days[True][0]
            self._columns = TripColumns(*map(_read_only, (
                _column(origins, "lat"), _column(origins, "lon"),
                _column(destinations, "lat"), _column(destinations, "lon"),
                _column(records, "pickup_seconds"), weekend,
                _column(records, "duration"), _column(records, "distance"))))
        return self._columns

    def query_window(self, t0: float, t1: float, is_weekend: bool) -> list[TripRecord]:
        """Trips of the given day with pickup seconds in [t0, t1], ascending
        by pickup time."""
        if t0 > t1:
            raise ValueError(f"t0 > t1: {t0} > {t1}")
        start, pickups = self._days[is_weekend]
        lo = bisect.bisect_left(pickups, t0)
        hi = bisect.bisect_right(pickups, t1)
        return list(self._records[start + lo:start + hi])

    def mask_region(self, bbox: Bbox) -> "TripStore":
        """Keep trips whose origin AND destination lie inside ``bbox``; the
        store itself when that is every trip."""
        c = self.columns
        keep = bbox.covers(c.o_lat, c.o_lon) & bbox.covers(c.d_lat, c.d_lon)
        return self if keep.all() else self._subset(np.flatnonzero(keep))

    def train_test_split(self, ratio: float, seed: int) -> tuple["TripStore", "TripStore"]:
        """Disjoint, exhaustive split; deterministic for a fixed seed."""
        if not 0 < ratio < 1:
            raise ValueError(f"ratio out of (0, 1): {ratio}")
        n = len(self)
        perm = np.random.default_rng(seed).permutation(n)
        n_train = int(round(n * ratio))
        return (self._subset(np.sort(perm[:n_train])),
                self._subset(np.sort(perm[n_train:])))

    def _subset(self, idx: np.ndarray) -> "TripStore":
        """The store of the trips ``records[i]`` for ascending ``idx``, with
        this store's columns at ``idx``: a subset of ``records`` taken in
        order is already in the child's order."""
        records = self._records
        store = TripStore(records[i] for i in idx.tolist())
        store._columns = self.columns.take(idx)
        return store


class IngestResult(NamedTuple):
    store: TripStore
    rejected_count: int
    rejections: dict[str, int]


def _parse_row(row: list[str], ix: tuple[int, ...], i_reported: int | None):
    """:func:`_failed_rule`'s arguments, the first seven :class:`TripRecord`'s.
    ``ix``: the positions of ``REQUIRED_COLUMNS``, in that order."""
    i_pu, i_do, i_olon, i_olat, i_dlon, i_dlat, i_dist, i_pass = ix
    origin = GeoPoint(float(row[i_olat]), float(row[i_olon]))
    destination = GeoPoint(float(row[i_dlat]), float(row[i_dlon]))
    pickup_dt = parse_datetime(row[i_pu])
    dropoff_dt = parse_datetime(row[i_do])
    distance = float(row[i_dist])
    passengers = int(float(row[i_pass]))
    reported = None
    if i_reported is not None:
        reported = float(row[i_reported])
    duration = reported if reported is not None else (dropoff_dt - pickup_dt).total_seconds()
    return origin, destination, pickup_dt, dropoff_dt, distance, duration, passengers, reported


def ingest_csv(path) -> IngestResult:
    """Read a trip CSV, drop the rows :func:`_failed_rule` rejects, and
    build a :class:`TripStore`.

    Header names are the canonical ones (``CANONICAL_COLUMNS``). Unparsable
    rows (short ones included) are counted under ``"unparsable"`` and
    skipped; blank lines and extra fields are ignored, a header name given
    twice means its last column, and a missing required column is fatal.
    """
    kept: list[TripRecord] = []
    tally = {k: 0 for k in REJECT_KEYS}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        position = {name: i for i, name in enumerate(next(reader, []))}
        missing = [c for c in REQUIRED_COLUMNS if c not in position]
        if missing:
            raise ConfigError(f"required columns missing from {path}: "
                              + ", ".join(missing))
        ix = tuple(position[c] for c in REQUIRED_COLUMNS)
        i_reported = position.get("trip_time_in_secs")
        for row in reader:
            if not row:  # blank line
                continue
            try:
                parsed = _parse_row(row, ix, i_reported)
            except (ValueError, IndexError, OverflowError):
                tally["unparsable"] += 1
                continue
            failed = _failed_rule(*parsed)
            if failed is not None:
                tally[failed] += 1
                continue
            kept.append(TripRecord(*parsed[:7]))
    return IngestResult(TripStore(kept), sum(tally.values()), tally)
