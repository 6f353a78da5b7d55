import csv
import dataclasses
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from carpool_rl.geo import Bbox, GeoPoint
from carpool_rl.trips import (CANONICAL_COLUMNS, DATETIME_FORMAT, NYC_BBOX,
                              REJECT_KEYS, ConfigError, TripRecord, TripStore,
                              ingest_csv, parse_datetime)

UPTOWN = Bbox(lat_min=40.805, lat_max=40.8438, lon_min=-73.9694, lon_max=-73.9274)
DOWNTOWN = Bbox(lat_min=40.715, lat_max=40.7438, lon_min=-74.0094, lon_max=-73.9774)


def make_trip(pickup="2013-01-07 08:00:00", duration=600, distance=1.5,
              o=(40.72, -74.0), d=(40.73, -73.99), passengers=1):
    pickup_dt = datetime.strptime(pickup, "%Y-%m-%d %H:%M:%S")
    return TripRecord(GeoPoint(*o), GeoPoint(*d), pickup_dt,
                      pickup_dt + timedelta(seconds=duration),
                      distance, duration, passengers)


def write_csv(path, rows, columns=CANONICAL_COLUMNS):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows(rows)


def csv_row(pickup="2013-01-07 08:00:00", duration=600, distance=1.5,
            o=(40.72, -74.0), d=(40.73, -73.99), passengers=1,
            dropoff=None, reported=None):
    pickup_dt = datetime.strptime(pickup, "%Y-%m-%d %H:%M:%S")
    dropoff_dt = (datetime.strptime(dropoff, "%Y-%m-%d %H:%M:%S") if dropoff
                  else pickup_dt + timedelta(seconds=duration))
    return [pickup, dropoff_dt.strftime("%Y-%m-%d %H:%M:%S"),
            str(o[1]), str(o[0]), str(d[1]), str(d[0]),
            str(distance), str(duration if reported is None else reported),
            str(passengers)]


class TestIngest:
    def test_clean_rows_all_kept(self, tmp_path):
        p = tmp_path / "trips.csv"
        write_csv(p, [csv_row(), csv_row(pickup="2013-01-07 09:00:00"),
                      csv_row(pickup="2013-01-07 10:00:00")])
        store, rejected, tally = ingest_csv(p)
        assert len(store) == 3
        assert rejected == 0
        assert sum(tally.values()) == 0

    def test_too_many_passengers_rejected(self, tmp_path):
        p = tmp_path / "trips.csv"
        write_csv(p, [csv_row(passengers=8), csv_row()])
        store, rejected, tally = ingest_csv(p)
        assert len(store) == 1
        assert tally["passengers"] == 1

    def test_zero_duration_nonzero_distance_rejected(self, tmp_path):
        p = tmp_path / "trips.csv"
        write_csv(p, [csv_row(duration=0, distance=2.1,
                              dropoff="2013-01-07 08:00:00")])
        store, rejected, tally = ingest_csv(p)
        assert len(store) == 0
        assert tally["duration"] == 1

    def test_tally_sums_to_rejected_count(self, tmp_path):
        p = tmp_path / "trips.csv"
        rows = [csv_row(), csv_row(passengers=0), csv_row(distance=0.0),
                csv_row(duration=10), csv_row(o=(39.0, -74.0)),
                csv_row(reported=900)]  # 900 reported vs 600 wall clock
        rows.append(["garbage", "x", "y", "z", "a", "b", "c", "d", "e"])
        write_csv(p, rows)
        store, rejected, tally = ingest_csv(p)
        assert len(store) == 1
        assert rejected == 6
        assert sum(tally.values()) == rejected
        assert tally["unparsable"] == 1
        assert tally["passengers"] == 1
        assert tally["distance"] == 1
        assert tally["duration"] == 1
        assert tally["bbox"] == 1
        assert tally["duration_mismatch"] == 1

    def test_missing_required_column_is_fatal(self, tmp_path):
        p = tmp_path / "trips.csv"
        cols = [c for c in CANONICAL_COLUMNS if c != "pickup_latitude"]
        write_csv(p, [], columns=cols)
        with pytest.raises(ConfigError):
            ingest_csv(p)

    def test_duration_column_optional(self, tmp_path):
        p = tmp_path / "trips.csv"
        cols = [c for c in CANONICAL_COLUMNS if c != "trip_time_in_secs"]
        row = csv_row()
        del row[7]
        write_csv(p, [row], columns=cols)
        store, rejected, _ = ingest_csv(p)
        assert len(store) == 1
        assert store.records[0].duration == 600.0

    def test_no_survivor_violates_rules(self, tmp_path):
        rng = np.random.default_rng(0)
        p = tmp_path / "trips.csv"
        rows = []
        for _ in range(200):
            rows.append(csv_row(
                pickup=f"2013-01-07 {rng.integers(24):02d}:{rng.integers(60):02d}:00",
                duration=int(rng.integers(-50, 9000)),
                distance=float(np.round(rng.uniform(-1, 60), 2)),
                o=(float(rng.uniform(40.3, 41.2)), float(rng.uniform(-74.4, -73.5))),
                d=(float(rng.uniform(40.3, 41.2)), float(rng.uniform(-74.4, -73.5))),
                passengers=int(rng.integers(0, 10))))
        write_csv(p, rows)
        store, _, _ = ingest_csv(p)
        for r in store.records:
            assert 1 <= r.passengers <= 7
            assert 60.0 <= r.duration <= 7200.0
            assert 0.0 < r.distance <= 50.0
            assert NYC_BBOX.contains(r.origin) and NYC_BBOX.contains(r.destination)

    # (csv_row arguments, the rule the row fails or None if it is kept)
    RULE_EDGES = [
        (dict(passengers=0), "passengers"),
        (dict(passengers=1), None),
        (dict(passengers=7), None),
        (dict(passengers=8), "passengers"),
        (dict(duration=59), "duration"),
        (dict(duration=60), None),
        (dict(duration=7200), None),
        (dict(duration=7201), "duration"),
        (dict(distance=0.0), "distance"),
        (dict(distance=50.0), None),
        (dict(distance=50.01), "distance"),
        (dict(o=(NYC_BBOX.lat_min - 0.001, -74.0)), "bbox"),
        (dict(d=(40.73, NYC_BBOX.lon_max + 0.001)), "bbox"),
        (dict(o=(NYC_BBOX.lat_min, NYC_BBOX.lon_min)), None),
        (dict(reported=660), None),   # 600 s dropoff - pickup
        (dict(reported=661), "duration_mismatch"),
        (dict(reported=539), "duration_mismatch"),
        (dict(passengers=0, distance=0.0), "passengers"),
    ]

    @pytest.mark.parametrize("kwargs, rule", RULE_EDGES,
                             ids=[",".join(f"{k}={v}" for k, v in kw.items())
                                  for kw, _ in RULE_EDGES])
    def test_rule_edges(self, tmp_path, kwargs, rule):
        p = tmp_path / "trips.csv"
        write_csv(p, [csv_row(**kwargs)])
        store, rejected, tally = ingest_csv(p)
        expected = dict.fromkeys(REJECT_KEYS, 0)
        if rule is not None:
            expected[rule] = 1
        assert tally == expected
        assert (len(store), rejected) == (rule is None, rule is not None)


class TestIngestCsvShape:
    """How the reader treats the shape of the file, as ``csv.DictReader``
    does: blank lines, short and long rows, repeated header names."""

    HEADER = ",".join(CANONICAL_COLUMNS)

    def write_lines(self, path, lines):
        path.write_text("".join(line + "\n" for line in lines))

    def test_blank_lines_are_skipped(self, tmp_path):
        p = tmp_path / "trips.csv"
        row = ",".join(csv_row())
        self.write_lines(p, [self.HEADER, "", row, "", "", row, ""])
        store, rejected, tally = ingest_csv(p)
        assert (len(store), rejected) == (2, 0)
        assert sum(tally.values()) == 0

    def test_whitespace_line_is_unparsable(self, tmp_path):
        p = tmp_path / "trips.csv"
        self.write_lines(p, [self.HEADER, " ", ",".join(csv_row())])
        store, rejected, tally = ingest_csv(p)
        assert (len(store), rejected, tally["unparsable"]) == (1, 1, 1)

    @pytest.mark.parametrize("cut", [1, 2, 8])
    def test_short_rows_are_unparsable(self, tmp_path, cut):
        p = tmp_path / "trips.csv"
        write_csv(p, [csv_row()[:-cut], csv_row()])
        store, rejected, tally = ingest_csv(p)
        assert (len(store), rejected, tally["unparsable"]) == (1, 1, 1)

    def test_extra_fields_are_ignored(self, tmp_path):
        p = tmp_path / "trips.csv"
        write_csv(p, [csv_row() + ["extra", "not a number"]])
        store, rejected, _ = ingest_csv(p)
        assert (len(store), rejected) == (1, 0)
        assert store.records[0] == make_trip()

    def test_repeated_header_name_means_its_last_column(self, tmp_path):
        p = tmp_path / "trips.csv"
        columns = ["trip_distance", *CANONICAL_COLUMNS]
        write_csv(p, [["not a number", *csv_row(distance=2.5)],
                      ["1.0", *csv_row(distance=99.0)]], columns=columns)
        store, rejected, tally = ingest_csv(p)
        assert (len(store), rejected, tally["distance"]) == (1, 1, 1)
        assert store.records[0].distance == 2.5

    @pytest.mark.parametrize("text", ["", "\n" + HEADER + "\n"],
                             ids=["empty-file", "blank-first-line"])
    def test_no_header_is_a_missing_column(self, tmp_path, text):
        p = tmp_path / "trips.csv"
        p.write_text(text)
        with pytest.raises(ConfigError, match="pickup_datetime"):
            ingest_csv(p)

    def test_result_fields_by_name(self, tmp_path):
        p = tmp_path / "trips.csv"
        write_csv(p, [csv_row(), csv_row(passengers=9)])
        result = ingest_csv(p)
        assert len(result.store) == 1
        assert result.rejected_count == 1
        assert result.rejections["passengers"] == 1


class TestMaskRegion:
    def test_covering_bbox_is_identity(self):
        store = TripStore([make_trip(), make_trip(pickup="2013-01-07 09:00:00")])
        masked = store.mask_region(Bbox(40.0, 41.5, -75.0, -73.0))
        assert len(masked) == len(store)

    def test_uptown_mask(self):
        uptown_trip = make_trip(o=(40.81, -73.95), d=(40.82, -73.94))
        downtown_trip = make_trip(o=(40.72, -74.0), d=(40.73, -73.99))
        straddler = make_trip(o=(40.81, -73.95), d=(40.73, -73.99))
        store = TripStore([uptown_trip, downtown_trip, straddler])
        masked = store.mask_region(UPTOWN)
        assert masked.records == (uptown_trip,)

    def test_downtown_mask(self):
        uptown_trip = make_trip(o=(40.81, -73.95), d=(40.82, -73.94))
        downtown_trip = make_trip(o=(40.72, -74.0), d=(40.73, -73.99))
        store = TripStore([uptown_trip, downtown_trip])
        masked = store.mask_region(DOWNTOWN)
        assert masked.records == (downtown_trip,)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        trips = [make_trip(o=(float(rng.uniform(40.7, 40.9)), -73.96),
                           d=(float(rng.uniform(40.7, 40.9)), -73.95),
                           pickup=f"2013-01-07 {h:02d}:00:00")
                 for h, _ in enumerate(range(20))]
        store = TripStore(trips)
        once = store.mask_region(UPTOWN)
        twice = once.mask_region(UPTOWN)
        assert once.records == twice.records


class TestQueryWindow:
    def test_empty_store(self):
        assert TripStore([]).query_window(0, 86400, False) == []

    def test_boundary_inclusion(self):
        trip = make_trip(pickup="2013-01-07 08:00:00")  # 28800 s
        store = TripStore([trip])
        assert store.query_window(28800, 28800, False) == [trip]
        assert store.query_window(28801, 28900, False) == []
        assert store.query_window(28700, 28799, False) == []

    def test_day_type_partition(self):
        weekday = make_trip(pickup="2013-01-07 08:00:00")
        weekend = make_trip(pickup="2013-01-05 08:00:00")
        store = TripStore([weekday, weekend])
        assert store.query_window(0, 86400, False) == [weekday]
        assert store.query_window(0, 86400, True) == [weekend]

    def test_matches_linear_scan_on_random_windows(self):
        rng = np.random.default_rng(42)
        trips = []
        for _ in range(300):
            h, m, s = rng.integers(24), rng.integers(60), rng.integers(60)
            trips.append(make_trip(pickup=f"2013-01-07 {h:02d}:{m:02d}:{s:02d}"))
        store = TripStore(trips)
        for _ in range(1000):
            t0 = float(rng.uniform(0, 86400))
            t1 = t0 + float(rng.uniform(0, 4000))
            expected = sorted((t for t in trips
                               if t0 <= t.pickup_seconds <= t1),
                              key=lambda t: t.pickup_seconds)
            got = store.query_window(t0, t1, False)
            assert [t.pickup_seconds for t in got] == [t.pickup_seconds for t in expected]

    def test_bad_window_raises(self):
        with pytest.raises(ValueError):
            TripStore([]).query_window(10, 5, False)


class TestTrainTestSplit:
    def _store(self, n=10):
        return TripStore([make_trip(pickup=f"2013-01-07 {i:02d}:00:00",
                                    distance=1.0 + i)
                          for i in range(n)])

    def test_80_20(self):
        train, test = self._store(10).train_test_split(0.8, seed=0)
        assert (len(train), len(test)) == (8, 2)

    def test_deterministic(self):
        store = self._store(20)
        a_train, a_test = store.train_test_split(0.8, seed=5)
        b_train, b_test = store.train_test_split(0.8, seed=5)
        assert a_train.records == b_train.records
        assert a_test.records == b_test.records

    def test_union_is_original_multiset(self):
        rng = np.random.default_rng(2)
        for n in (7, 31, 100):
            store = TripStore([make_trip(
                pickup=f"2013-01-07 {int(rng.integers(24)):02d}:00:00",
                distance=float(rng.uniform(0.5, 5)))
                for _ in range(n)])
            train, test = store.train_test_split(0.5, seed=int(rng.integers(1000)))
            combined = sorted((r.pickup_seconds, r.distance)
                              for r in train.records + test.records)
            original = sorted((r.pickup_seconds, r.distance) for r in store.records)
            assert combined == original

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            self._store().train_test_split(1.0, seed=0)


COLUMN_FIELDS = ("o_lat", "o_lon", "d_lat", "d_lon", "pickup_seconds",
                 "is_weekend", "duration", "distance")


def rebuilt_columns(records):
    """Each column read back from the records one by one."""
    return {"o_lat": [r.origin.lat for r in records],
            "o_lon": [r.origin.lon for r in records],
            "d_lat": [r.destination.lat for r in records],
            "d_lon": [r.destination.lon for r in records],
            "pickup_seconds": [r.pickup_seconds for r in records],
            "is_weekend": [r.is_weekend for r in records],
            "duration": [float(r.duration) for r in records],
            "distance": [float(r.distance) for r in records]}


def assert_columns_match_records(store):
    cols = store.columns
    assert cols._fields == COLUMN_FIELDS
    for name, values in rebuilt_columns(store.records).items():
        column = getattr(cols, name)
        assert column.dtype == (bool if name == "is_weekend" else float), name
        assert column.shape == (len(store),), name
        assert column.tolist() == values, name
        assert not column.flags.writeable, name
        with pytest.raises(ValueError):
            column[:1] = column[:1]


def set_based_split(store, ratio, seed):
    """The split as a set of drawn positions: the reference for
    ``train_test_split``."""
    records = store.records
    perm = np.random.default_rng(seed).permutation(len(records))
    train_idx = set(perm[:int(round(len(records) * ratio))].tolist())
    return ([r for i, r in enumerate(records) if i in train_idx],
            [r for i, r in enumerate(records) if i not in train_idx])


STORE_TRIPS = st.lists(st.builds(
    lambda o, d, minute, weekend, duration: make_trip(
        pickup=f"2013-01-{5 if weekend else 7:02d} {minute // 60:02d}:{minute % 60:02d}:00",
        duration=duration, o=o, d=d),
    st.tuples(st.floats(40.70, 40.86), st.floats(-74.02, -73.92)),
    st.tuples(st.floats(40.70, 40.86), st.floats(-74.02, -73.92)),
    st.integers(0, 1439), st.booleans(), st.integers(60, 7200)), max_size=30)


class TestColumns:
    """A store's column view holds its records' fields in ``records`` order,
    read-only; the stores cut from it by ``mask_region`` and
    ``train_test_split`` get its columns at their rows."""

    @given(STORE_TRIPS, st.sampled_from([UPTOWN, DOWNTOWN, NYC_BBOX]))
    def test_mask_region_keeps_the_columns_of_its_trips(self, trips, bbox):
        store = TripStore(trips)
        assert_columns_match_records(store)
        masked = store.mask_region(bbox)
        inside = lambda p: (bbox.lat_min <= p.lat <= bbox.lat_max  # noqa: E731
                            and bbox.lon_min <= p.lon <= bbox.lon_max)
        assert masked.records == tuple(
            r for r in store.records if inside(r.origin) and inside(r.destination))
        assert (masked is store) == (len(masked) == len(store))
        assert_columns_match_records(masked)

    @given(STORE_TRIPS, st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
    def test_split_children_have_the_columns_of_their_trips(self, trips, ratio, seed):
        store = TripStore(trips)
        train, test = store.train_test_split(ratio, seed)
        want_train, want_test = set_based_split(store, ratio, seed)
        assert train.records == tuple(want_train)
        assert test.records == tuple(want_test)
        assert_columns_match_records(train)
        assert_columns_match_records(test)

    def test_columns_are_built_once(self):
        store = TripStore([make_trip(), make_trip(pickup="2013-01-05 09:00:00")])
        assert store.columns is store.columns
        assert store.columns.is_weekend.tolist() == [False, True]


class TestTripRecord:
    def test_invariants(self):
        with pytest.raises(ValueError):
            make_trip(duration=0)
        with pytest.raises(ValueError):
            make_trip(distance=0)
        with pytest.raises(ValueError):
            make_trip(passengers=8)

    def test_derived_fields(self):
        r = make_trip(pickup="2013-01-05 06:30:15", duration=300)
        assert r.is_weekend and not hasattr(r, "day_type")
        assert r.pickup_seconds == 6 * 3600 + 30 * 60 + 15
        assert r.dropoff_seconds == r.pickup_seconds + 300

    def test_pickup_seconds_is_a_stored_field(self):
        r = make_trip(pickup="2013-01-07 23:59:59")
        (field,) = [f for f in dataclasses.fields(r) if f.name == "pickup_seconds"]
        assert not field.init and not field.compare
        assert r.pickup_seconds == 86399
        assert not hasattr(r, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.pickup_seconds = 0.0

    @pytest.mark.parametrize("pickup, weekend", [
        ("2013-01-07 08:00:00", False),   # Monday
        ("2013-01-11 23:59:59", False),   # Friday
        ("2013-01-05 00:00:00", True),    # Saturday
        ("2013-01-06 12:30:00", True)])   # Sunday
    def test_is_weekend_is_a_stored_field(self, pickup, weekend):
        r = make_trip(pickup=pickup)
        (field,) = [f for f in dataclasses.fields(r) if f.name == "is_weekend"]
        assert not field.init and not field.compare
        assert r.is_weekend is (r.pickup_dt.weekday() >= 5) is weekend
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.is_weekend = not weekend

    def test_fractional_pickup_seconds(self):
        t = datetime(2013, 1, 7, 1, 2, 3, 250000)
        r = TripRecord(GeoPoint(40.72, -74.0), GeoPoint(40.73, -73.99), t,
                       t + timedelta(seconds=600), 1.5, 600.0, 1)
        assert r.pickup_seconds == 3723.25
        assert r == dataclasses.replace(r)


def _outcome(parse, text):
    """The parsed value with its tzinfo, or ValueError."""
    try:
        value = parse(text)
    except ValueError:
        return ValueError
    return value, value.tzinfo


ARABIC_INDIC = "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669"


@st.composite
def near_canonical_datetimes(draw):
    """Strings close to ``YYYY-MM-DD HH:MM:SS``: fields of any width and
    value, ASCII or Arabic-Indic digits, other separators, and suffixes."""
    digits = draw(st.sampled_from(["0123456789", ARABIC_INDIC]))

    def number(max_width):
        width = draw(st.integers(1, max_width))
        return "".join(digits[int(c)] for c in
                       draw(st.text("0123456789", min_size=width,
                                    max_size=width)))

    date_sep = draw(st.sampled_from(["-", "/", ""]))
    sep = draw(st.sampled_from([" ", "T", "  ", "_"]))
    suffix = draw(st.sampled_from(["", "", ".5", ".123456", "+01:00", "Z",
                                   " ", "\n", ":00"]))
    return (number(5) + date_sep + number(3) + date_sep + number(3) + sep
            + number(3) + ":" + number(3) + ":" + number(3) + suffix)


class TestParseDatetime:
    @given(st.one_of(st.text(max_size=30), near_canonical_datetimes()))
    @example("2016-3-4 8:5:2")
    @example("2016-01-04T07:31:12")
    @example("2016-01-04 07:31:12.5")
    @example("2016-01-04 07:31:12+01:00")
    @example("2016-01-04 24:00:00")
    @example("2016-02-30 00:00:00")
    @example("2016-02-29 00:00:00")
    @example("0000-01-01 00:00:00")
    @example("2016-01-01 23:59:60")
    @example("\u0662\u0660\u0661\u0666-01-01 00:00:00")
    @example("2016-01-01 00:00:00")
    def test_matches_strptime(self, text):
        assert _outcome(parse_datetime, text) == _outcome(
            lambda s: datetime.strptime(s, DATETIME_FORMAT), text)


FIELD_VALUES = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", "nan", "inf", "-inf", "1e400", "-0", " 3 ", "8",
                     "0", "2.5", "40.72", "-74.0", "2013-01-07 08:05:00",
                     "2013-1-7 8:5:0", "2013-01-07T08:05:00"]))


class TestIngestFuzz:
    @given(st.dictionaries(st.sampled_from(range(len(CANONICAL_COLUMNS))),
                           FIELD_VALUES, max_size=len(CANONICAL_COLUMNS)),
           st.integers(0, 2))
    @example({}, 0)
    @example({8: "inf"}, 0)
    @example({8: "1e400"}, 0)
    @example({7: "nan"}, 0)
    @example({0: "2013-1-7 8:0:0"}, 0)
    def test_each_row_is_kept_or_tallied_once(self, tmp_path_factory,
                                              replaced, dropped):
        """A row, with some fields replaced by arbitrary text and up to two
        trailing fields cut off, becomes one record or one tally count."""
        row = csv_row()
        for col, value in replaced.items():
            row[col] = value
        row = row[:len(row) - dropped]
        path = tmp_path_factory.mktemp("fuzz") / "trips.csv"
        write_csv(path, [row])
        store, rejected, tally = ingest_csv(path)
        assert len(store) + rejected == 1
        assert sum(tally.values()) == rejected
