import math
import statistics
from datetime import datetime, timedelta

import numpy as np
import pytest

from carpool_rl.eta import (ConstantSpeedEta, EtaArch, EtaEstimate, EtaQuery,
                            JointEtaModel, ModelEta, compute_metrics,
                            evaluate, query_from_trip, train_joint_eta,
                            train_linear_time, train_time_only)
from carpool_rl.geo import GeoPoint, GridSpec, OutOfGridError, haversine_miles
from carpool_rl.nn import TrainConfig
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
        cfg = TrainConfig(learning_rate=0.1, batch_size=4, epochs=200, seed=0)
        model = train_joint_eta(store, GRID, cfg, EtaArch((8, 8), (8,)))
        est = model.predict(query_from_trip(trip))
        assert est.travel_time == pytest.approx(800.0, rel=0.01)
        assert est.travel_distance == pytest.approx(2.5, rel=0.01)

    def test_constant_targets_recovered(self):
        trips = [make_trip((40.71 + 0.001 * i, -74.0), (40.73, -73.98),
                           pickup_s=1000 * i, duration=700.0, distance=2.0)
                 for i in range(20)]
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, epochs=50, seed=1)
        model = train_joint_eta(TripStore(trips), GRID, cfg, EtaArch((8, 8), (8,)))
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
        cfg = TrainConfig(learning_rate=0.02, batch_size=n, epochs=40, seed=2)
        model = train_joint_eta(store, GRID, cfg, EtaArch((16, 16), (16,)))
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
            # batched matmuls may differ from single-row ones in the last ulp
            assert est.travel_time == pytest.approx(times[i], rel=1e-12)
            assert est.travel_distance == pytest.approx(dists[i], rel=1e-12)

    def test_save_load_roundtrip(self, tmp_path):
        model = self._small_model()
        model.save(tmp_path / "model")
        loaded = JointEtaModel.load(tmp_path / "model")
        q = EtaQuery(GeoPoint(40.71, -74.0), GeoPoint(40.73, -73.98), 800.0)
        assert loaded.predict(q) == model.predict(q)

    def test_empty_training_set_raises(self):
        with pytest.raises(ValueError):
            train_joint_eta(TripStore([]), GRID, TrainConfig())

    @staticmethod
    def _small_model():
        store = synthetic_store(150, seed=7)
        cfg = TrainConfig(learning_rate=0.02, batch_size=16, epochs=15, seed=3)
        return train_joint_eta(store, GRID, cfg, EtaArch((8, 8), (8,)))


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
            assert abs(model.predict(query_from_trip(r)) - r.duration) < 1e-6

    def test_constant_target_predicts_mean(self):
        trips = [make_trip((40.71, -74.0 + 0.001 * i), (40.73, -73.98),
                           pickup_s=100 * i, duration=500.0) for i in range(10)]
        model = train_linear_time(TripStore(trips))
        q = query_from_trip(trips[0])
        assert model.predict(q) == pytest.approx(500.0, abs=1e-3)

    def test_singular_design_uses_ridge(self):
        # All trips identical: every non-intercept column is constant zero
        # after standardization, so the normal matrix is singular.
        trips = [make_trip((40.71, -74.0), (40.73, -73.98), 500, 600.0)
                 for _ in range(5)]
        model = train_linear_time(TripStore(trips))
        assert model.predict(query_from_trip(trips[0])) == pytest.approx(600.0, rel=1e-6)


class TestTimeOnlyBaseline:
    def test_memorizes_single_sample(self):
        trip = make_trip((40.71, -74.0), (40.73, -73.98), duration=800.0)
        cfg = TrainConfig(learning_rate=0.1, batch_size=4, epochs=200, seed=0)
        model = train_time_only(TripStore([trip]), GRID, cfg, hidden=(8, 8))
        assert model.predict(query_from_trip(trip)) == pytest.approx(800.0, rel=0.01)

    def test_deterministic_given_seed(self):
        store = synthetic_store(100, seed=9)
        cfg = TrainConfig(learning_rate=0.02, batch_size=16, epochs=5, seed=11)
        a = train_time_only(store, GRID, cfg, hidden=(8,))
        b = train_time_only(store, GRID, cfg, hidden=(8,))
        q = query_from_trip(store.records[0])
        assert a.predict(q) == b.predict(q)


class TestEvaluate:
    def test_perfect_oracle_scores_zero_error(self):
        store = synthetic_store(100, seed=13)
        durations = {query_from_trip(r): r.duration for r in store.records}
        m = evaluate(lambda q: durations[q], store)
        assert m.mae == 0.0 and m.r2 == 1.0

    def test_empty_test_set_raises(self):
        with pytest.raises(ValueError):
            evaluate(lambda q: 0.0, TripStore([]))


class TestTravelTimeSources:
    def test_constant_speed(self):
        src = ConstantSpeedEta(12.0)
        a, b = GeoPoint(40.71, -74.0), GeoPoint(40.73, -73.98)
        expected = haversine_miles(a, b) / 12.0 * 3600.0
        assert src.travel_time(a, b, 0.0, False) == pytest.approx(expected)

    def test_model_adapter_matches_predict(self):
        model = TestJointModel._small_model()
        src = ModelEta(model)
        a, b = GeoPoint(40.71, -74.0), GeoPoint(40.73, -73.98)
        q = EtaQuery(a, b, 800.0, False)
        assert src.travel_time(a, b, 800.0, False) == model.predict(q).travel_time


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
        cfg = TrainConfig(learning_rate=0.02, batch_size=16, epochs=25, seed=5)

        clean = train_joint_eta(train, GRID, cfg, EtaArch((16, 16), (16,)))
        mae_clean = evaluate(lambda q: clean.predict(q).travel_time, test).mae

        train_out = corrupt_durations(train, fraction=0.01, factor=2.0, seed=1)
        test_out = corrupt_durations(test, fraction=0.01, factor=2.0, seed=2)
        noisy = train_joint_eta(train_out, GRID, cfg, EtaArch((16, 16), (16,)))
        mae_noisy = evaluate(lambda q: noisy.predict(q).travel_time, test_out).mae
        assert mae_noisy < 1.25 * mae_clean
