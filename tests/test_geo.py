import math
import re

import pytest
from hypothesis import given, strategies as st

from carpool_rl.geo import (Bbox, GeoPoint, GridSpec, OutOfGridError,
                            bin_location, bin_time, cell_index, haversine_km,
                            haversine_miles, shifted_time)

GRID = GridSpec(origin_corner=GeoPoint(40.700, -74.020))


def reference_haversine_km(a, b):
    # Independent restatement of the great-circle formula (atan2 form).
    r = 6371.0
    p1, p2 = math.radians(a.lat), math.radians(b.lat)
    dp = math.radians(b.lat - a.lat)
    dl = math.radians(b.lon - a.lon)
    x = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * r * math.atan2(math.sqrt(x), math.sqrt(1 - x))


class TestBinLocation:
    def test_origin_maps_to_zero(self):
        i, j, rep = bin_location(GRID.origin_corner, GRID)
        assert (i, j) == (0, 0)
        assert rep == GRID.origin_corner

    def test_first_cell(self):
        i, j, rep = bin_location(GeoPoint(40.7011, -74.0189), GRID)
        assert (i, j) == (0, 0)
        assert rep.lat == pytest.approx(40.700, abs=1e-9)
        assert rep.lon == pytest.approx(-74.020, abs=1e-9)

    def test_interior_cell(self):
        i, j, rep = bin_location(GeoPoint(40.7040, -74.0155), GRID)
        assert (i, j) == (2, 2)
        assert rep.lat == pytest.approx(40.704, abs=1e-9)
        assert rep.lon == pytest.approx(-74.016, abs=1e-9)

    def test_out_of_grid(self):
        with pytest.raises(OutOfGridError):
            bin_location(GeoPoint(40.6999, -74.019), GRID)
        with pytest.raises(OutOfGridError):
            bin_location(GeoPoint(40.701, -74.021), GRID)

    @given(st.floats(40.700, 40.9), st.floats(-74.020, -73.8))
    def test_representative_is_idempotent(self, lat, lon):
        i, j, rep = bin_location(GeoPoint(lat, lon), GRID)
        i2, j2, rep2 = bin_location(rep, GRID)
        assert (i, j) == (i2, j2)
        assert rep == rep2


    @given(st.floats(40.5, 40.9), st.floats(-74.2, -73.8))
    def test_cell_index_is_bin_location_without_the_point(self, lat, lon):
        p = GeoPoint(lat, lon)
        try:
            expected = bin_location(p, GRID)[:2]
        except OutOfGridError as exc:
            with pytest.raises(OutOfGridError, match=re.escape(str(exc))):
                cell_index(p, GRID)
        else:
            assert cell_index(p, GRID) == expected


class TestBinTime:
    def test_zero(self):
        assert bin_time(0, False, GRID) == 0

    def test_just_before_hour(self):
        assert bin_time(3599, False, GRID) == 5

    def test_weekend_offset(self):
        assert bin_time(3600, True, GRID) == 150

    @given(st.floats(0, 86399.999), st.booleans())
    def test_bins_the_shifted_time(self, t, weekend):
        shifted = shifted_time(t, weekend)
        assert shifted == (t + 86400.0 if weekend else t)
        assert bin_time(t, weekend, GRID) == math.floor(shifted / 600 + 1e-7)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bin_time(-1, False, GRID)
        with pytest.raises(ValueError):
            bin_time(86400, False, GRID)

    @given(st.floats(0, 86399.999), st.floats(0, 86399.999))
    def test_monotone_within_day_type(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert bin_time(lo, False, GRID) <= bin_time(hi, False, GRID)
        assert bin_time(lo, True, GRID) <= bin_time(hi, True, GRID)

    def test_image_is_0_to_287(self):
        bins = set()
        for s in range(0, 86400, 600):
            bins.add(bin_time(s, False, GRID))
            bins.add(bin_time(s, True, GRID))
        # sweep off-boundary seconds too
        for s in (1, 599, 601, 86399):
            bins.add(bin_time(s, False, GRID))
            bins.add(bin_time(s, True, GRID))
        assert bins == set(range(288))


class TestHaversine:
    def test_zero_distance(self):
        p = GeoPoint(40.7128, -74.0060)
        assert haversine_km(p, p) == 0.0

    def test_symmetry(self):
        import numpy as np
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = GeoPoint(float(rng.uniform(-80, 80)), float(rng.uniform(-179, 179)))
            b = GeoPoint(float(rng.uniform(-80, 80)), float(rng.uniform(-179, 179)))
            assert haversine_km(a, b) == pytest.approx(haversine_km(b, a), rel=1e-12)

    def test_against_independent_formula(self):
        a = GeoPoint(40.7128, -74.0060)
        b = GeoPoint(40.7614, -73.9776)
        assert haversine_km(a, b) == pytest.approx(reference_haversine_km(a, b),
                                                   rel=1e-6)

    def test_miles_conversion(self):
        a = GeoPoint(40.7128, -74.0060)
        b = GeoPoint(40.7614, -73.9776)
        assert haversine_miles(a, b) == pytest.approx(haversine_km(a, b) / 1.609344)

    @given(st.tuples(*[st.floats(-80, 80), st.floats(-179, 179)] * 3))
    def test_triangle_inequality(self, coords):
        a = GeoPoint(coords[0], coords[1])
        b = GeoPoint(coords[2], coords[3])
        c = GeoPoint(coords[4], coords[5])
        assert haversine_km(a, c) <= haversine_km(a, b) + haversine_km(b, c) + 1e-9


class TestTypes:
    def test_geopoint_validation(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(0.0, 181.0)
        with pytest.raises(ValueError):
            GeoPoint(float("nan"), 0.0)

    def test_bbox(self):
        box = Bbox(40.0, 41.0, -75.0, -74.0)
        assert box.contains(GeoPoint(40.5, -74.5))
        assert box.contains(GeoPoint(40.0, -75.0))  # inclusive edges
        assert not box.contains(GeoPoint(39.9, -74.5))
        with pytest.raises(ValueError):
            Bbox(41.0, 40.0, -75.0, -74.0)

    def test_gridspec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(GeoPoint(0, 0), cell_lat=0.0)
        with pytest.raises(ValueError):
            GridSpec(GeoPoint(0, 0), time_bin=-1)
        for field in ("cell_lat", "cell_lon", "time_bin"):
            for bad in (math.inf, math.nan):
                with pytest.raises(ValueError, match=field):
                    GridSpec(GeoPoint(0, 0), **{field: bad})
