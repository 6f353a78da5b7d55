import json
import math
import statistics
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from carpool_rl.config import EtaConfig
from carpool_rl.eta import (ConstantSpeedEta, EtaEstimate, EtaQuery,
                            JointEtaModel, ModelEta, _feature_matrix,
                            _raw_features, _training_arrays, _trip_fields,
                            compute_metrics, evaluate, query_from_trip,
                            train_joint_eta, train_linear_time,
                            train_time_only)
from carpool_rl.geo import (GeoPoint, GridSpec, OutOfGridError, bin_location,
                            bin_time, haversine_miles)
from carpool_rl.nn import Mlp
from carpool_rl.trips import TripRecord, TripStore

GRID = GridSpec(origin_corner=GeoPoint(40.70, -74.02))


def make_trip(o, d, pickup_s=28800, duration=600.0, distance=1.5,
              weekend=False):
    day = "2013-01-05" if weekend else "2013-01-07"
    pickup = datetime.strptime(day, "%Y-%m-%d") + timedelta(seconds=pickup_s)
    return TripRecord(GeoPoint(*o), GeoPoint(*d), pickup,
                      pickup + timedelta(seconds=duration),
                      distance, duration, 1)


def synthetic_store(n=400, seed=0):
    """Trips whose duration is distance/speed with an hour-dependent speed."""
    rng = np.random.default_rng(seed)
    trips = []
    for _ in range(n):
        o = (float(rng.uniform(40.70, 40.75)), float(rng.uniform(-74.02, -73.96)))
        d = (float(rng.uniform(40.70, 40.75)), float(rng.uniform(-74.02, -73.96)))
        if o == d:
            continue
        pickup_s = int(rng.integers(0, 86400))
        dist = haversine_miles(GeoPoint(*o), GeoPoint(*d))
        if dist <= 0.01:
            continue
        speed = 12.0 * (1.0 - 0.3 * math.exp(-((pickup_s / 3600 - 8.5) / 2) ** 2))
        trips.append(make_trip(o, d, pickup_s, dist / speed * 3600.0, dist))
    return TripStore(trips)


def reference_features(queries, grid):
    """Per-query features from ``bin_location`` and ``bin_time``."""
    x_loc = np.empty((len(queries), 4))
    x_t = np.empty((len(queries), 1))
    for row, q in enumerate(queries):
        oi, oj, _ = bin_location(q.origin, grid)
        di, dj, _ = bin_location(q.destination, grid)
        x_loc[row] = [oi, oj, di, dj]
        x_t[row, 0] = bin_time(q.seconds_of_day, q.is_weekend, grid)
    return x_loc, x_t


# Cell corners (origin + k * cell) sit on the floor's edge.
CELL_CORNERS = st.builds(
    lambda i, j: GeoPoint(GRID.origin_corner.lat + i * GRID.cell_lat,
                          GRID.origin_corner.lon + j * GRID.cell_lon),
    st.integers(0, 300), st.integers(0, 300))
IN_GRID = st.one_of(st.builds(GeoPoint, st.floats(40.70, 41.2),
                              st.floats(-74.02, -73.4)), CELL_CORNERS)
OUT_OF_GRID = st.one_of(
    st.builds(GeoPoint, st.floats(39.0, 40.6999), st.floats(-74.02, -73.4)),
    st.builds(GeoPoint, st.floats(40.70, 41.2), st.floats(-75.0, -74.0201)))
SECONDS = st.one_of(st.floats(0, 86400, exclude_max=True),
                    st.integers(0, 86399).map(float))
QUERIES = st.builds(EtaQuery, IN_GRID, IN_GRID, SECONDS, st.booleans())
BAD_SECONDS = st.one_of(st.floats(max_value=-1e-9), st.floats(min_value=86400),
                        st.just(math.nan))


def _is_bad(q):
    try:
        reference_features([q], GRID)
    except ValueError:
        return True
    return False


# Any mix of defects: an out-of-grid endpoint, bad seconds, or several.
BAD_QUERIES = st.builds(EtaQuery, st.one_of(IN_GRID, OUT_OF_GRID),
                        st.one_of(IN_GRID, OUT_OF_GRID),
                        st.one_of(SECONDS, BAD_SECONDS),
                        st.booleans()).filter(_is_bad)


class TestFeatureMatrix:
    @given(st.lists(QUERIES, max_size=20))
    def test_equals_per_query_binning(self, queries):
        x_loc, x_t = _feature_matrix(queries, GRID)
        ref_loc, ref_t = reference_features(queries, GRID)
        assert x_loc.shape == (len(queries), 4) and x_t.shape == (len(queries), 1)
        assert np.array_equal(x_loc, ref_loc) and np.array_equal(x_t, ref_t)

    @given(st.lists(QUERIES, max_size=5), BAD_QUERIES,
           st.lists(st.one_of(QUERIES, BAD_QUERIES), max_size=5))
    def test_first_bad_query_raises_its_own_error(self, before, bad, after):
        with pytest.raises(ValueError) as expected:
            reference_features([bad], GRID)
        with pytest.raises(ValueError) as got:
            _feature_matrix([*before, bad, *after], GRID)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)

    def test_weekend_corner_query(self):
        corner = GeoPoint(40.70 + 3 * 0.002, -74.02 + 7 * 0.002)
        q = EtaQuery(corner, corner, 86399.0, True)
        x_loc, x_t = _feature_matrix([q], GRID)
        assert x_loc.tolist() == [[3.0, 7.0, 3.0, 7.0]]
        assert x_t.tolist() == [[287.0]]


# Trips anywhere in the grid, on a Monday or a Saturday, at any second.
TRIPS = st.builds(
    lambda o, d, pickup_s, weekend: make_trip(
        (o.lat, o.lon), (d.lat, d.lon), pickup_s, weekend=weekend),
    IN_GRID, IN_GRID, st.floats(0, 86399), st.booleans())


class TestTrainingFeatures:
    """Training features come straight from the records and equal the
    features of the records' queries."""

    @given(st.lists(TRIPS, max_size=20))
    def test_record_matrices_equal_query_matrices(self, trips):
        queries = [query_from_trip(r) for r in trips]
        x_loc, x_t, y_time, y_dist = _training_arrays(trips, GRID)
        q_loc, q_t = _feature_matrix(queries, GRID)
        assert np.array_equal(x_loc, q_loc) and np.array_equal(x_t, q_t)
        assert y_time.tolist() == [r.duration for r in trips]
        assert y_dist.tolist() == [r.distance for r in trips]
        raw = _raw_features(trips, _trip_fields)
        assert raw.shape == (len(trips), 5)
        assert np.array_equal(raw, _raw_features(queries))
        assert raw[:, 4].tolist() == [r.pickup_seconds + 86400 * r.is_weekend
                                      for r in trips]


class TestMetrics:
    def test_perfect_predictor(self):
        y = np.array([100.0, 250.0, 400.0])
        m = compute_metrics(y, y)
        assert (m.mae, m.mre, m.medae, m.medre) == (0.0, 0.0, 0.0, 0.0)
        assert m.r2 == 1.0

    def test_hand_computed_example(self):
        m = compute_metrics([100.0, 200.0], [110.0, 190.0])
        assert m.mae == pytest.approx(10.0)
        assert m.mre == pytest.approx(20.0 / 300.0)
        assert m.medae == pytest.approx(10.0)
        assert m.r2 == pytest.approx(1.0 - 200.0 / 5000.0)  # 0.96

    def test_constant_predictor_r2_zero(self):
        y = np.array([10.0, 20.0, 30.0, 40.0])
        m = compute_metrics(y, np.full(4, y.mean()))
        assert m.r2 == pytest.approx(0.0)

    def test_matches_brute_force_on_random_vectors(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 50))
            y = rng.uniform(1.0, 1000.0, size=n)
            f = y + rng.normal(0, 50, size=n)
            m = compute_metrics(y, f)
            errs = [abs(a - b) for a, b in zip(y, f)]
            assert m.mae == pytest.approx(sum(errs) / n, abs=1e-9)
            assert m.mre == pytest.approx(sum(errs) / sum(y), abs=1e-9)
            assert m.medae == pytest.approx(statistics.median(errs), abs=1e-9)
            assert m.medre == pytest.approx(
                statistics.median(e / t for e, t in zip(errs, y)), abs=1e-9)
            ybar = sum(y) / n
            r2 = 1 - sum((a - b) ** 2 for a, b in zip(y, f)) / sum((a - ybar) ** 2 for a in y)
            assert m.r2 == pytest.approx(r2, abs=1e-9)

    def test_zero_truth_excluded_with_warning(self):
        with pytest.warns(UserWarning):
            m = compute_metrics([0.0, 100.0], [50.0, 110.0])
        assert m.mre == pytest.approx(10.0 / 100.0)
        assert m.medre == pytest.approx(0.1)
        assert m.mae == pytest.approx(30.0)  # absolute metrics keep the sample


class TestJointModel:
    def test_memorizes_single_sample(self):
        trip = make_trip((40.71, -74.0), (40.73, -73.98), duration=800.0,
                         distance=2.5)
        store = TripStore([trip] * 1)
        cfg = EtaConfig(learning_rate=0.1, batch_size=4, epochs=200,
                        dist_hidden=[8, 8], time_hidden=[8])
        model = train_joint_eta(store, GRID, cfg, 0)
        est = model.predict(query_from_trip(trip))
        assert est.travel_time == pytest.approx(800.0, rel=0.01)
        assert est.travel_distance == pytest.approx(2.5, rel=0.01)

    def test_constant_targets_recovered(self):
        trips = [make_trip((40.71 + 0.001 * i, -74.0), (40.73, -73.98),
                           pickup_s=1000 * i, duration=700.0, distance=2.0)
                 for i in range(20)]
        cfg = EtaConfig(learning_rate=0.05, batch_size=8, epochs=50,
                        dist_hidden=[8, 8], time_hidden=[8])
        model = train_joint_eta(TripStore(trips), GRID, cfg, 1)
        est = model.predict(query_from_trip(trips[3]))
        assert est.travel_time == pytest.approx(700.0, rel=0.01)
        assert est.travel_distance == pytest.approx(2.0, rel=0.01)

    def test_distance_invariant_to_time_of_day(self):
        model = self._small_model()
        q_morning = EtaQuery(GeoPoint(40.71, -74.0), GeoPoint(40.73, -73.98), 800.0)
        q_evening = EtaQuery(GeoPoint(40.71, -74.0), GeoPoint(40.73, -73.98), 80000.0)
        assert (model.predict(q_morning).travel_distance
                == model.predict(q_evening).travel_distance)

    def test_prediction_is_pure(self):
        model = self._small_model()
        q = EtaQuery(GeoPoint(40.71, -74.0), GeoPoint(40.73, -73.98), 800.0)
        first = model.predict(q)
        second = model.predict(q)
        assert first == second

    def test_out_of_grid_query_raises(self):
        model = self._small_model()
        with pytest.raises(OutOfGridError):
            model.predict(EtaQuery(GeoPoint(40.60, -74.0),
                                   GeoPoint(40.73, -73.98), 800.0))

    def test_outputs_clamped_non_negative(self):
        model = self._small_model()
        qs = [EtaQuery(GeoPoint(40.70 + 0.002 * i, -74.0),
                       GeoPoint(40.70, -74.0 + 0.002 * i), 400.0 * i)
              for i in range(40)]
        times, dists = model.predict_batch(qs)
        assert np.all(times >= 0) and np.all(dists >= 0)

    def test_joint_loss_mostly_decreases(self):
        # full-batch steps with a small lr: epoch losses should be close to
        # monotone (at most 5% of epochs may tick up)
        store = synthetic_store(200, seed=5)
        n = len(store)
        cfg = EtaConfig(learning_rate=0.02, batch_size=n, epochs=40,
                        dist_hidden=[16, 16], time_hidden=[16])
        model = train_joint_eta(store, GRID, cfg, 2)
        losses = model.epoch_losses
        increases = sum(b > a for a, b in zip(losses, losses[1:]))
        assert increases <= 0.05 * len(losses)

    def test_batch_matches_single_prediction(self):
        model = self._small_model()
        qs = [EtaQuery(GeoPoint(40.71, -74.0), GeoPoint(40.73, -73.98), 800.0),
              EtaQuery(GeoPoint(40.72, -74.01), GeoPoint(40.74, -73.97), 40000.0)]
        times, dists = model.predict_batch(qs)
        for i, q in enumerate(qs):
            est = model.predict(q)
            assert est.travel_time == times[i]
            assert est.travel_distance == dists[i]

    def test_save_load_roundtrip(self, tmp_path):
        model = self._small_model()
        model.save(tmp_path / "model")
        loaded = JointEtaModel.load(tmp_path / "model")
        q = EtaQuery(GeoPoint(40.71, -74.0), GeoPoint(40.73, -73.98), 800.0)
        assert loaded.predict(q) == model.predict(q)

    @pytest.mark.parametrize("shift, loads", [
        (86400.0, True), (86400, True), (0.0, False), (-86400.0, False),
        (float("nan"), False)])
    def test_load_checks_a_recorded_weekend_shift(self, tmp_path, shift, loads):
        # Checkpoints from before the shift was fixed at one day record it.
        model = self._small_model()
        model.save(tmp_path / "model")
        meta_path = tmp_path / "model" / "meta.json"
        meta = json.loads(meta_path.read_text())
        assert "weekend_offset" not in meta["grid"]
        meta["grid"]["weekend_offset"] = shift
        meta_path.write_text(json.dumps(meta))
        q = EtaQuery(GeoPoint(40.71, -74.0), GeoPoint(40.73, -73.98), 800.0,
                     is_weekend=True)
        if loads:
            assert JointEtaModel.load(tmp_path / "model").predict(q) == model.predict(q)
        else:
            with pytest.raises(ValueError, match="weekend"):
                JointEtaModel.load(tmp_path / "model")

    @pytest.mark.parametrize("field, stats, match", [
        ("loc_stats", {"mean": [0.0] * 3, "std": [1.0] * 3}, r"shape \(4,\)"),
        ("t_stats", {"mean": [0.0, 1.0], "std": [1.0, 1.0]}, r"shape \(1,\)"),
        ("y_time_stats", {"mean": [600.0], "std": [0.0]}, "positive stds"),
        ("y_dist_stats", {"mean": [1.0], "std": [math.nan]}, "positive stds"),
        ("loc_stats", {"mean": [0.0, 0.0, math.inf, 0.0], "std": [1.0] * 4},
         "finite means"),
    ], ids=["loc-3-entries", "t-2-entries", "zero-std", "nan-std", "inf-mean"])
    def test_load_rejects_bad_statistics(self, tmp_path, field, stats, match):
        self._small_model().save(tmp_path / "model")
        meta_path = tmp_path / "model" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta[field] = stats
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"{field} .*{match}"):
            JointEtaModel.load(tmp_path / "model")

    @pytest.mark.parametrize("part, sizes, match", [
        ("trunk", [3, 8, 8], "trunk input width"),
        ("dist_head", [7, 1], "distance head input width"),
        ("dist_head", [8, 2], "output width 1"),
        ("time_net", [9, 8, 2], "output width 1"),
    ])
    def test_rejects_mismatched_networks(self, part, sizes, match):
        model = self._small_model()
        nets = {"trunk": model.trunk, "dist_head": model.dist_head,
                "time_net": model.time_net, part: Mlp(sizes)}
        with pytest.raises(ValueError, match=match):
            JointEtaModel(nets["trunk"], nets["dist_head"], nets["time_net"],
                          model.grid, model.loc_stats, model.t_stats,
                          model.y_time_stats, model.y_dist_stats)

    def test_non_finite_estimate_raises(self):
        for t, d in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                     (1.0, math.inf), (-1.0, 1.0)):
            with pytest.raises(ValueError, match="finite and non-negative"):
                EtaEstimate(t, d)
        model = self._small_model()
        model.dist_head.biases[-1][0] = math.nan
        with pytest.raises(ValueError, match="finite and non-negative"):
            model.predict(EtaQuery(GeoPoint(40.71, -74.0),
                                   GeoPoint(40.73, -73.98), 800.0))

    def test_empty_training_set_raises(self):
        with pytest.raises(ValueError):
            train_joint_eta(TripStore([]), GRID, EtaConfig(), 0)

    @staticmethod
    def _small_model():
        store = synthetic_store(150, seed=7)
        cfg = EtaConfig(learning_rate=0.02, batch_size=16, epochs=15,
                        dist_hidden=[8, 8], time_hidden=[8])
        return train_joint_eta(store, GRID, cfg, 3)


class TestLinearBaseline:
    def test_exact_recovery_of_linear_data(self):
        rng = np.random.default_rng(4)
        trips = []
        for _ in range(50):
            o = (float(rng.uniform(40.70, 40.75)), float(rng.uniform(-74.02, -73.96)))
            d = (float(rng.uniform(40.70, 40.75)), float(rng.uniform(-74.02, -73.96)))
            pickup_s = int(rng.integers(0, 86400))
            # exactly linear in (o, d, t)
            duration = (4000.0 * (o[0] - 40.70) + 3000.0 * (d[0] - 40.70)
                        + 2000.0 * (-74.02 - o[1]) + 1000.0 * (-73.96 - d[1])
                        + 0.001 * pickup_s + 120.0)
            trips.append(make_trip(o, d, pickup_s, duration, 1.0))
        store = TripStore(trips)
        model = train_linear_time(store)
        for r in store.records:
            assert abs(model.predict_batch([query_from_trip(r)])[0]
                       - r.duration) < 1e-6

    def test_constant_target_predicts_mean(self):
        trips = [make_trip((40.71, -74.0 + 0.001 * i), (40.73, -73.98),
                           pickup_s=100 * i, duration=500.0) for i in range(10)]
        model = train_linear_time(TripStore(trips))
        q = query_from_trip(trips[0])
        assert model.predict_batch([q])[0] == pytest.approx(500.0, abs=1e-3)

    def test_singular_design_uses_ridge(self):
        # All trips identical: every non-intercept column is constant zero
        # after standardization, so the normal matrix is singular.
        trips = [make_trip((40.71, -74.0), (40.73, -73.98), 500, 600.0)
                 for _ in range(5)]
        model = train_linear_time(TripStore(trips))
        assert (model.predict_batch([query_from_trip(trips[0])])[0]
                == pytest.approx(600.0, rel=1e-6))


class TestTimeOnlyBaseline:
    def test_memorizes_single_sample(self):
        trip = make_trip((40.71, -74.0), (40.73, -73.98), duration=800.0)
        cfg = EtaConfig(learning_rate=0.1, batch_size=4, epochs=200)
        model = train_time_only(TripStore([trip]), GRID, cfg, 0, hidden=(8, 8))
        assert (model.predict_batch([query_from_trip(trip)])[0]
                == pytest.approx(800.0, rel=0.01))

    def test_deterministic_given_seed(self):
        store = synthetic_store(100, seed=9)
        cfg = EtaConfig(learning_rate=0.02, batch_size=16, epochs=5)
        a = train_time_only(store, GRID, cfg, 11, hidden=(8,))
        b = train_time_only(store, GRID, cfg, 11, hidden=(8,))
        q = query_from_trip(store.records[0])
        assert a.predict_batch([q])[0] == b.predict_batch([q])[0]


CORNER = GeoPoint(GRID.origin_corner.lat + 4 * GRID.cell_lat,
                  GRID.origin_corner.lon + 9 * GRID.cell_lon)
OTHER = GeoPoint(40.7317, -73.9861)


class TestRowExactBatch:
    """Row ``i`` of ``predict_batch`` equals ``predict_batch([q_i])`` bit for
    bit, for every estimator: each row goes through the network alone."""

    joint = time_only = linear = None

    @classmethod
    def setup_class(cls):
        store = synthetic_store(120, seed=17)
        cfg = EtaConfig(learning_rate=0.02, batch_size=16, epochs=3,
                        dist_hidden=[8, 8], time_hidden=[8])
        cls.joint = train_joint_eta(store, GRID, cfg, 1)
        cls.time_only = train_time_only(store, GRID, cfg, 1, hidden=(8, 8))
        cls.linear = train_linear_time(store)

    def scorers(self):
        return {"joint_time": lambda qs: self.joint.predict_batch(qs)[0],
                "joint_distance": lambda qs: self.joint.predict_batch(qs)[1],
                "time_only": self.time_only.predict_batch,
                "linear": self.linear.predict_batch}

    @given(st.lists(QUERIES, max_size=12))
    @example([])
    @example([EtaQuery(CORNER, OTHER, 0.0, False),
              EtaQuery(OTHER, CORNER, 0.0, True),
              EtaQuery(CORNER, CORNER, 86399.0, True),
              EtaQuery(OTHER, OTHER, 30600.5, False)])
    def test_rows_equal_one_row_calls(self, queries):
        for name, score in self.scorers().items():
            batch = score(queries)
            rows = np.array([score([q])[0] for q in queries]).reshape(-1)
            assert batch.shape == (len(queries),), name
            assert batch.tobytes() == rows.tobytes(), name

    @given(st.lists(QUERIES, max_size=5), BAD_QUERIES,
           st.lists(st.one_of(QUERIES, BAD_QUERIES), max_size=5))
    def test_first_bad_query_raises_its_own_error(self, before, bad, after):
        for model in (self.joint, self.time_only):
            with pytest.raises(ValueError) as expected:
                model.predict_batch([bad])
            with pytest.raises(ValueError) as got:
                model.predict_batch([*before, bad, *after])
            assert type(got.value) is type(expected.value)
            assert str(got.value) == str(expected.value)

    def test_evaluate_makes_one_batch_call(self):
        store = synthetic_store(30, seed=19)
        calls = []

        def score(queries):
            calls.append(len(queries))
            return self.linear.predict_batch(queries)

        m = evaluate(score, store)
        assert calls == [len(store)]
        per_row = [self.linear.predict_batch([query_from_trip(r)])[0]
                   for r in store.records]
        assert m == compute_metrics([r.duration for r in store.records],
                                    per_row)


class TestEvaluate:
    def test_perfect_oracle_scores_zero_error(self):
        store = synthetic_store(100, seed=13)
        durations = {query_from_trip(r): r.duration for r in store.records}
        m = evaluate(lambda qs: [durations[q] for q in qs], store)
        assert m.mae == 0.0 and m.r2 == 1.0

    def test_empty_test_set_raises(self):
        with pytest.raises(ValueError):
            evaluate(lambda qs: np.zeros(len(qs)), TripStore([]))


class TestTravelTimeSources:
    def test_constant_speed(self):
        src = ConstantSpeedEta(12.0)
        a, b = GeoPoint(40.71, -74.0), GeoPoint(40.73, -73.98)
        expected = haversine_miles(a, b) / 12.0 * 3600.0
        assert src.travel_time(a, b, 0.0, False) == pytest.approx(expected)

    @pytest.mark.parametrize("speed", [float("nan"), float("inf")])
    def test_constant_speed_must_be_finite(self, speed):
        with pytest.raises(ValueError, match="finite and positive"):
            ConstantSpeedEta(speed)

    def test_model_adapter_matches_predict(self):
        model = TestJointModel._small_model()
        src = ModelEta(model)
        a, b = GeoPoint(40.71, -74.0), GeoPoint(40.73, -73.98)
        q = EtaQuery(a, b, 800.0, False)
        assert src.travel_time(a, b, 800.0, False) == model.predict(q).travel_time


def counting_misses(model, monkeypatch):
    """Record the keys of the model's ``cell_time`` calls (the adapter's
    memo misses) in a list."""
    calls = []
    cell_time = model.cell_time

    def counted(key):
        calls.append(key)
        return cell_time(key)

    monkeypatch.setattr(model, "cell_time", counted)
    return calls


class TestModelEtaMemo:
    model = None

    @classmethod
    def setup_class(cls):
        cls.model = TestJointModel._small_model()

    def test_points_in_one_cell_share_a_value(self, monkeypatch):
        src = ModelEta(self.model)
        calls = counting_misses(self.model, monkeypatch)
        b = GeoPoint(40.73, -73.98)
        # both points bin to cell (5, 10) of GRID
        first = src.travel_time(GeoPoint(40.7101, -74.0), b, 800.0, False)
        second = src.travel_time(GeoPoint(40.7109, -73.9991), b, 800.0, False)
        assert len(calls) == 1
        assert np.float64(first).tobytes() == np.float64(second).tobytes()
        q = EtaQuery(GeoPoint(40.7109, -73.9991), b, 800.0, False)
        assert second == self.model.predict(q).travel_time

    def test_weekday_and_weekend_use_different_keys(self, monkeypatch):
        src = ModelEta(self.model)
        calls = counting_misses(self.model, monkeypatch)
        a, b = GeoPoint(40.71, -74.0), GeoPoint(40.73, -73.98)
        weekday = src.travel_time(a, b, 800.0, False)
        weekend = src.travel_time(a, b, 800.0, True)
        # 800 s is bin 1 on a weekday and bin 1 + 144 on a weekend
        assert [key[4] for key in calls] == [1, 145]
        assert calls[0][:4] == calls[1][:4]
        assert weekday == self.model.predict(EtaQuery(a, b, 800.0, False)).travel_time
        assert weekend == self.model.predict(EtaQuery(a, b, 800.0, True)).travel_time

    @given(QUERIES)
    @example(EtaQuery(CORNER, OTHER, 0.0, False))
    @example(EtaQuery(OTHER, CORNER, 86399.0, True))
    # both endpoints in cell (5, 10) of GRID
    @example(EtaQuery(GeoPoint(40.7101, -74.0), GeoPoint(40.7109, -73.9991),
                      800.0, True))
    def test_travel_time_has_the_bytes_of_predict_batch(self, q):
        src = ModelEta(self.model)
        want = self.model.predict_batch([q])[0][0]
        for _ in range(2):  # a memo miss, then a hit
            got = src.travel_time(q.origin, q.destination, q.seconds_of_day,
                                  q.is_weekend)
            assert np.float64(got).tobytes() == want.tobytes()

    def test_repeated_calls_equal_predict(self):
        src = ModelEta(self.model)
        rng = np.random.default_rng(3)
        queries = [EtaQuery(GeoPoint(float(rng.uniform(40.70, 40.75)),
                                     float(rng.uniform(-74.02, -73.96))),
                            GeoPoint(float(rng.uniform(40.70, 40.75)),
                                     float(rng.uniform(-74.02, -73.96))),
                            float(rng.uniform(0, 86400)), bool(rng.integers(2)))
                   for _ in range(30)]
        for _ in range(3):
            for q in queries:
                got = src.travel_time(q.origin, q.destination,
                                      q.seconds_of_day, q.is_weekend)
                assert got == self.model.predict(q).travel_time

    def test_bad_inputs_raise_after_caching(self):
        src = ModelEta(self.model)
        a, b = GeoPoint(40.71, -74.0), GeoPoint(40.73, -73.98)
        for t in (0.0, 800.0, 86399.0):
            src.travel_time(a, b, t, False)
        with pytest.raises(OutOfGridError):
            src.travel_time(GeoPoint(40.60, -74.0), b, 800.0, False)
        with pytest.raises(OutOfGridError):
            src.travel_time(a, GeoPoint(40.73, -74.10), 800.0, False)
        for t in (-1.0, 86400.0, 90000.0):
            with pytest.raises(ValueError, match="seconds_of_day"):
                src.travel_time(a, b, t, False)

    def test_non_finite_prediction_rejected(self):
        store = synthetic_store(60, seed=7)
        cfg = EtaConfig(learning_rate=0.01, epochs=1, dist_hidden=[4],
                        time_hidden=[4])
        model = train_joint_eta(store, GRID, cfg, 3)
        model.time_net.weights[-1][0, 0] = np.nan
        src = ModelEta(model)
        with pytest.raises(ValueError, match=r"non-finite .*\(5, 10, 15, 20, 1\)"):
            src.travel_time(GeoPoint(40.7101, -74.0), GeoPoint(40.7301, -73.98),
                            800.0, False)


def corrupt_durations(store, fraction, factor, seed):
    """Re-inject meter-glitch style outliers: a small share of rows gets a
    wildly wrong duration."""
    rng = np.random.default_rng(seed)
    out = []
    for r in store.records:
        if rng.random() < fraction:
            out.append(TripRecord(r.origin, r.destination, r.pickup_dt,
                                  r.dropoff_dt, r.distance,
                                  r.duration * factor, r.passengers))
        else:
            out.append(r)
    return TripStore(out)


class TestRobustnessToOutliers:
    def test_outlier_train_and_test_degrade_boundedly(self):
        # trained/tested with outliers vs trained/tested clean: the joint
        # model's MAE should move by well under 25% at a ~1% glitch rate
        store = synthetic_store(400, seed=21)
        train, test = store.train_test_split(0.8, seed=0)
        cfg = EtaConfig(learning_rate=0.02, batch_size=16, epochs=25,
                        dist_hidden=[16, 16], time_hidden=[16])

        clean = train_joint_eta(train, GRID, cfg, 5)
        mae_clean = evaluate(lambda qs: clean.predict_batch(qs)[0], test).mae

        train_out = corrupt_durations(train, fraction=0.01, factor=2.0, seed=1)
        test_out = corrupt_durations(test, fraction=0.01, factor=2.0, seed=2)
        noisy = train_joint_eta(train_out, GRID, cfg, 5)
        mae_noisy = evaluate(lambda qs: noisy.predict_batch(qs)[0],
                             test_out).mae
        assert mae_noisy < 1.25 * mae_clean
