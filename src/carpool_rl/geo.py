"""Spatial and temporal discretization plus great-circle distance helpers.

GPS points are snapped onto a rectangular grid of fixed-size cells anchored
at a configurable origin corner; every point in a cell is represented by the
cell's lower-left corner. Time-of-day is cut into fixed-width bins, and
weekend timestamps are shifted by a full day before binning so that weekday
and weekend bins never collide (600 s bins + 86400 s shift give 288 bins).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

EARTH_RADIUS_KM = 6371.0
KM_PER_MILE = 1.609344
SECONDS_PER_DAY = 86400

# Tolerance (in cell fractions) when flooring, so that a cell's own
# representative corner always bins back into the same cell despite
# floating-point subtraction error.
_BIN_EPS = 1e-7


class OutOfGridError(ValueError):
    """A point or timestamp falls outside the configured grid."""


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """WGS-84 coordinate pair in degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"non-finite coordinates ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")


@dataclass(frozen=True)
class Bbox:
    """Axis-aligned lat/lon rectangle, inclusive on all edges."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        if self.lat_min > self.lat_max or self.lon_min > self.lon_max:
            raise ValueError("empty bounding box")

    def contains(self, p: GeoPoint) -> bool:
        return (self.lat_min <= p.lat <= self.lat_max
                and self.lon_min <= p.lon <= self.lon_max)

    @property
    def lower_left(self) -> GeoPoint:
        return GeoPoint(self.lat_min, self.lon_min)

    @property
    def center(self) -> GeoPoint:
        return GeoPoint((self.lat_min + self.lat_max) / 2.0,
                        (self.lon_min + self.lon_max) / 2.0)


@dataclass(frozen=True)
class GridSpec:
    """Grid geometry: cell sizes in degrees, time bin width in seconds.

    The 0.002 deg default is about 222 m of latitude, matching a nominal
    200 m square cell.
    """

    origin_corner: GeoPoint
    cell_lat: float = 0.002
    cell_lon: float = 0.002
    time_bin: float = 600.0

    def __post_init__(self):
        for name in ("cell_lat", "cell_lon", "time_bin"):
            v = getattr(self, name)
            if not 0 < v < math.inf:  # false for nan as well
                raise ValueError(f"{name} must be finite and positive: {v!r}")


def cell_index(p: GeoPoint, spec: GridSpec) -> tuple[int, int]:
    """Grid cell ``(lat_bin, lon_bin)`` of a point. Raises
    :class:`OutOfGridError` for points below or left of the grid origin."""
    i = math.floor((p.lat - spec.origin_corner.lat) / spec.cell_lat + _BIN_EPS)
    j = math.floor((p.lon - spec.origin_corner.lon) / spec.cell_lon + _BIN_EPS)
    if i < 0 or j < 0:
        raise OutOfGridError(
            f"point ({p.lat}, {p.lon}) lies below/left of grid origin "
            f"({spec.origin_corner.lat}, {spec.origin_corner.lon})")
    return i, j


def bin_location(p: GeoPoint, spec: GridSpec) -> tuple[int, int, GeoPoint]:
    """Snap a point to its grid cell.

    Returns ``(lat_bin, lon_bin, representative)`` where the representative
    point is the cell's lower-left corner. Raises :class:`OutOfGridError`
    for points below or left of the grid origin.
    """
    i, j = cell_index(p, spec)
    rep = GeoPoint(spec.origin_corner.lat + i * spec.cell_lat,
                   spec.origin_corner.lon + j * spec.cell_lon)
    return i, j, rep


def bin_time(seconds_of_day: float, is_weekend: bool, spec: GridSpec) -> int:
    """Map a seconds-of-day timestamp to its time bin index.

    Weekend timestamps are shifted by a full day first, so the weekday and
    weekend images are disjoint.
    """
    if not 0 <= seconds_of_day < SECONDS_PER_DAY:
        raise ValueError(f"seconds_of_day out of [0, 86400): {seconds_of_day}")
    effective = shifted_time(seconds_of_day, is_weekend)
    return int(math.floor(effective / spec.time_bin + _BIN_EPS))


def shifted_time(seconds_of_day: float, is_weekend: bool) -> float:
    """Seconds of day plus one day on weekends, so that weekday and weekend
    times never meet."""
    return seconds_of_day + (SECONDS_PER_DAY if is_weekend else 0.0)


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in kilometers on a 6371 km sphere."""
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def haversine_miles(a: GeoPoint, b: GeoPoint) -> float:
    return haversine_km(a, b) / KM_PER_MILE
