"""Synthetic trip demand in the ingestion CSV schema.

Arrivals are Poisson per grid cell per hour. Each trip's destination is a
random displacement from its origin (lognormal length, uniform bearing,
resampled to stay inside the region), and its duration is the great-circle
distance over the speed model, optionally modulated by an hour-of-day
congestion profile and multiplicative lognormal noise. With both options off
durations equal distance/speed exactly (up to whole-second rounding), which
makes the data perfectly learnable.

Output is deterministic per seed, byte for byte, and every generated row
passes the default outlier rules.

Two presets mirror distinct demand regimes at desk scale: ``dense`` is a
small busy box with uniform demand, ``sparse`` is a larger box whose demand
concentrates in one corner hub so that trips tend to strand the taxi in
low-demand territory.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta

import numpy as np

from .geo import Bbox, GeoPoint, GridSpec, haversine_miles
from .trips import CANONICAL_COLUMNS, DATETIME_FORMAT, WEEKDAY, WEEKEND

_KM_PER_DEG_LAT = 111.19492664455873  # 6371 km * pi / 180
_MILES_PER_DEG_LAT = _KM_PER_DEG_LAT / 1.609344


@dataclass
class SyntheticDemandSpec:
    region: Bbox
    grid: GridSpec
    intensity: np.ndarray              # (n_lat, n_lon) trips per cell-hour
    length_median_miles: float = 0.6
    length_sigma: float = 0.35
    speed_mph: float = 12.0
    congestion_amplitude: float = 0.0  # peak-hour slowdown fraction in [0, 1)
    noise_sigma: float = 0.0           # lognormal sigma on durations
    day_type: str = WEEKDAY
    n_days: int = 1
    min_length_miles: float = 0.25
    # Per-hour multiplier on the median trip length; lets a preset carve out
    # hours whose trips are systematically long-haul.
    hourly_length_multiplier: tuple = (1.0,) * 24

    def __post_init__(self):
        self.intensity = np.asarray(self.intensity, dtype=float)
        if self.intensity.ndim != 2:
            raise ValueError("intensity must be a 2-D per-cell array")
        if np.any(self.intensity < 0):
            raise ValueError("intensities must be non-negative")
        if self.speed_mph <= 0:
            raise ValueError("speed must be positive")
        if not 0 <= self.congestion_amplitude < 1:
            raise ValueError("congestion_amplitude must lie in [0, 1)")
        if len(self.hourly_length_multiplier) != 24:
            raise ValueError("hourly_length_multiplier needs 24 entries")
        if any(m <= 0 for m in self.hourly_length_multiplier):
            raise ValueError("length multipliers must be positive")
        # Keeps every duration above the 60 s outlier floor at base speed.
        if self.min_length_miles * 3600 / self.speed_mph < 61:
            raise ValueError("min_length_miles too short for the speed model")


def _congestion_shape(hour: float) -> float:
    """Rush-hour bumps around 08:30 and 17:30, peak value 1."""
    morning = math.exp(-((hour - 8.5) / 2.0) ** 2)
    evening = math.exp(-((hour - 17.5) / 2.5) ** 2)
    return min(1.0, morning + evening)


def effective_speed_mph(spec: SyntheticDemandSpec, hour: float) -> float:
    return spec.speed_mph * (1.0 - spec.congestion_amplitude * _congestion_shape(hour))


def _dates(day_type: str, n_days: int) -> list[date]:
    if day_type == WEEKEND:
        base = date(2013, 1, 5)  # a Saturday
        return [base + timedelta(days=7 * (k // 2) + (k % 2)) for k in range(n_days)]
    base = date(2013, 1, 7)  # a Monday
    out = []
    d = base
    while len(out) < n_days:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


def _offset(p: GeoPoint, length_miles: float, bearing: float) -> GeoPoint:
    dlat = length_miles * math.cos(bearing) / _MILES_PER_DEG_LAT
    dlon = (length_miles * math.sin(bearing)
            / (_MILES_PER_DEG_LAT * math.cos(math.radians(p.lat))))
    return GeoPoint(p.lat + dlat, p.lon + dlon)


def _sample_destination(origin: GeoPoint, spec: SyntheticDemandSpec,
                        rng: np.random.Generator, hour: int) -> GeoPoint:
    lat_miles = (spec.region.lat_max - spec.region.lat_min) * _MILES_PER_DEG_LAT
    lon_miles = ((spec.region.lon_max - spec.region.lon_min) * _MILES_PER_DEG_LAT
                 * math.cos(math.radians(spec.region.center.lat)))
    diag_miles = math.hypot(lat_miles, lon_miles)
    median = spec.length_median_miles * spec.hourly_length_multiplier[hour]
    length = float(rng.lognormal(math.log(median), spec.length_sigma))
    length = min(max(length, spec.min_length_miles), 0.9 * diag_miles)
    for attempt in range(60):
        if attempt >= 12 and attempt % 4 == 0:
            # drawn length may not fit from this origin in any direction
            length = max(spec.min_length_miles, 0.85 * length)
        bearing = float(rng.uniform(0.0, 2.0 * math.pi))
        dest = _offset(origin, length, bearing)
        if spec.region.contains(dest):
            return dest
    # Should essentially never happen; aim halfway toward the region center.
    center = spec.region.center
    to_center = haversine_miles(origin, center)
    bearing = math.atan2(
        (center.lon - origin.lon) * math.cos(math.radians(origin.lat)),
        center.lat - origin.lat)
    return _offset(origin, max(spec.min_length_miles, 0.5 * to_center), bearing)


def generate_synthetic(spec: SyntheticDemandSpec, seed: int, out_path) -> int:
    """Write a demand CSV; returns the number of trips generated."""
    rng = np.random.default_rng(seed)
    n_lat, n_lon = spec.intensity.shape
    g = spec.grid
    rows = []
    for day_idx, day in enumerate(_dates(spec.day_type, spec.n_days)):
        for hour in range(24):
            for i in range(n_lat):
                for j in range(n_lon):
                    lam = spec.intensity[i, j]
                    count = int(rng.poisson(lam)) if lam > 0 else 0
                    for _ in range(count):
                        pickup_s = hour * 3600 + int(rng.integers(3600))
                        origin = GeoPoint(
                            g.origin_corner.lat + (i + float(rng.random())) * g.cell_lat,
                            g.origin_corner.lon + (j + float(rng.random())) * g.cell_lon)
                        dest = _sample_destination(origin, spec, rng, hour)
                        distance = haversine_miles(origin, dest)
                        speed = effective_speed_mph(spec, hour + (pickup_s % 3600) / 3600.0)
                        duration = distance / speed * 3600.0
                        if spec.noise_sigma > 0:
                            duration *= float(rng.lognormal(0.0, spec.noise_sigma))
                        duration = max(61, int(round(duration)))
                        passengers = int(rng.integers(1, 3))
                        rows.append((day_idx, pickup_s, day, origin, dest,
                                     distance, duration, passengers))
    rows.sort(key=lambda r: (r[0], r[1]))

    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CANONICAL_COLUMNS)
        for _, pickup_s, day, origin, dest, distance, duration, passengers in rows:
            pickup_dt = datetime(day.year, day.month, day.day) + timedelta(seconds=pickup_s)
            dropoff_dt = pickup_dt + timedelta(seconds=duration)
            w.writerow([
                pickup_dt.strftime(DATETIME_FORMAT),
                dropoff_dt.strftime(DATETIME_FORMAT),
                f"{origin.lon:.6f}", f"{origin.lat:.6f}",
                f"{dest.lon:.6f}", f"{dest.lat:.6f}",
                f"{distance:.4f}", str(duration), str(passengers),
            ])
    return len(rows)


# -- presets -------------------------------------------------------------------

DENSE_REGION = Bbox(40.715, 40.735, -74.0094, -73.9894)    # 10 x 10 cells
SPARSE_REGION = Bbox(40.805, 40.845, -73.9694, -73.9294)   # 20 x 20 cells
SPARSE_HUB_CELLS = 6                                        # lower-left block


def dense_preset(n_days: int = 1, noisy: bool = False,
                 day_type: str = WEEKDAY) -> SyntheticDemandSpec:
    """Busy small box, ~60 trips/hour, uniform demand."""
    grid = GridSpec(origin_corner=DENSE_REGION.lower_left)
    intensity = np.full((10, 10), 60.0 / 100.0)
    return SyntheticDemandSpec(
        region=DENSE_REGION, grid=grid, intensity=intensity,
        length_median_miles=0.5, length_sigma=0.35, speed_mph=12.0,
        congestion_amplitude=0.45 if noisy else 0.0,
        noise_sigma=0.12 if noisy else 0.0,
        day_type=day_type, n_days=n_days)


SPARSE_OUTBOUND_HOURS = (7, 8, 15, 16)
_SPARSE_DECAY_MILES = 0.55


def sparse_preset(n_days: int = 1, noisy: bool = False,
                  day_type: str = WEEKDAY) -> SyntheticDemandSpec:
    """Quiet larger box, ~8 trips/hour, demand decaying away from a corner hub.

    Trips are short hops except during the outbound hours, when they become
    long hauls that drop the driver far from the hub, out past the reach of
    its pickups and into near-dead territory. Serving (and especially
    carpooling) that demand looks locally attractive but costs hours of
    stranded recovery; the steady income is the hub's short-trip churn.

    There is no noisy variant; ``noisy=True`` raises ``ValueError``.
    """
    if noisy:
        raise ValueError("the sparse preset has no noisy variant")
    grid = GridSpec(origin_corner=SPARSE_REGION.lower_left)
    n = 20
    hub = SPARSE_HUB_CELLS
    hub_center = GeoPoint(SPARSE_REGION.lat_min + (hub / 2) * grid.cell_lat,
                          SPARSE_REGION.lon_min + (hub / 2) * grid.cell_lon)
    weights = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            cell = GeoPoint(SPARSE_REGION.lat_min + (i + 0.5) * grid.cell_lat,
                            SPARSE_REGION.lon_min + (j + 0.5) * grid.cell_lon)
            weights[i, j] = math.exp(
                -haversine_miles(cell, hub_center) / _SPARSE_DECAY_MILES)
    intensity = 8.0 * weights / weights.sum()
    multiplier = tuple(4.0 if h in SPARSE_OUTBOUND_HOURS else 1.0
                       for h in range(24))
    return SyntheticDemandSpec(
        region=SPARSE_REGION, grid=grid, intensity=intensity,
        length_median_miles=0.5, length_sigma=0.25, speed_mph=6.0,
        day_type=day_type, n_days=n_days,
        hourly_length_multiplier=multiplier)


PRESETS = {"dense": dense_preset, "sparse": sparse_preset}
