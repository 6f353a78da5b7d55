import dataclasses
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carpool_rl.agents import FixedPolicy, evaluate_policy, rollout
from carpool_rl.config import EnvParamsConfig, EtaConfig
from carpool_rl.eta import (ConstantSpeedEta, EtaQuery, ModelEta,
                            train_joint_eta)
from carpool_rl.geo import (Bbox, GeoPoint, GridSpec, bin_time, cell_index,
                            haversine_miles)
from carpool_rl.simulator import (Action, CarpoolEnv, DriverState, EpisodeOver,
                                  PATH_ONE, PATH_TWO, TransitionInfo,
                                  extra_travel_times)
from carpool_rl.synth import dense_preset, generate_synthetic
from carpool_rl.trips import TripRecord, TripStore, ingest_csv

from reference_env import LegsFromTravelTime, ReferenceEnv

REGION = Bbox(40.715, 40.735, -74.0094, -73.9894)
GRID = GridSpec(origin_corner=REGION.lower_left)
SPEED = ConstantSpeedEta(12.0)


def make_trip(o, d, pickup_s, duration=None, distance=None, weekend=False):
    distance = distance if distance is not None else haversine_miles(
        GeoPoint(*o), GeoPoint(*d))
    duration = duration if duration is not None else distance / 12.0 * 3600.0
    day = datetime(2013, 1, 5) if weekend else datetime(2013, 1, 7)  # Sat, Mon
    pickup = day + timedelta(seconds=pickup_s)
    return TripRecord(GeoPoint(*o), GeoPoint(*d), pickup,
                      pickup + timedelta(seconds=max(duration, 1)),
                      distance, duration, 1)


def make_env(trips=(), **overrides):
    return CarpoolEnv(TripStore(trips), SPEED, REGION, GRID,
                      EnvParamsConfig(**overrides))


def random_legs(rng):
    """Six leg times in ``extra_travel_times`` argument order."""
    return [float(rng.uniform(0, 1000)) for _ in range(6)]


class TestExtraTravelTimes:
    def test_worked_example(self):
        # leg times chosen so both orderings can be computed by hand
        ett = extra_travel_times(t_o1_d1=350.0, t_o2_d2=450.0, t_o1_o2=100.0,
                                 t_o2_d1=300.0, t_d1_d2=200.0, t_d2_d1=250.0)
        assert ett.path_one == (50.0, 50.0)
        assert ett.total_one == 100.0
        assert ett.path_two[0] == 450.0
        assert ett.path_two[1] == 0.0
        assert ett.total_two == 450.0
        assert ett.chosen == PATH_ONE

    def test_passenger_two_never_pays_on_path_two(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            ett = extra_travel_times(*random_legs(rng))
            assert ett.path_two[1] == 0.0

    def test_path_choice_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            legs = random_legs(rng)
            t_o1_d1, t_o2_d2, t_o1_o2, t_o2_d1, t_d1_d2, t_d2_d1 = legs
            ett = extra_travel_times(*legs)
            # direct restatement of the per-passenger detour formulas
            total_one = ((t_o1_o2 + t_o2_d1 - t_o1_d1)
                         + (t_o2_d1 + t_d1_d2 - t_o2_d2))
            total_two = t_o1_o2 + t_o2_d2 + t_d2_d1 - t_o1_d1
            assert ett.total_one == pytest.approx(total_one, abs=1e-12)
            assert ett.total_two == pytest.approx(total_two, abs=1e-12)
            assert ett.chosen == (PATH_ONE if total_one < total_two else PATH_TWO)

    def test_collapsed_leg(self):
        # O2 = D1 with a zero connecting leg: passenger 1's extra time
        # reduces to t(O1,O2) - t(O1,D1), and O1 -> O2 is O1 -> D1
        ett = extra_travel_times(t_o1_d1=120.0, t_o2_d2=300.0, t_o1_o2=120.0,
                                 t_o2_d1=0.0, t_d1_d2=300.0, t_d2_d1=280.0)
        assert ett.path_one[0] == pytest.approx(120.0 - 120.0 + 0.0)
        assert ett.path_one[0] == pytest.approx(0.0)

    def test_tie_goes_to_path_two(self):
        ett = extra_travel_times(*[100.0] * 6)
        assert ett.total_one == ett.total_two
        assert ett.chosen == PATH_TWO


class TestWait:
    def test_wait_advances_clock_only(self):
        env = make_env()
        s = DriverState(GeoPoint(40.72, -74.0), 0.0)
        tr = env.step(s, Action.WAIT)
        assert tr.next_state.location == s.location
        assert tr.next_state.time_of_day == 600.0
        assert tr.reward == 0.0

    def test_repeated_waits_multiples_of_delay(self):
        env = make_env(wait_delay=450.0)
        s = DriverState(GeoPoint(40.72, -74.0), 0.0)
        for k in range(1, 6):
            tr = env.step(s, Action.WAIT)
            assert tr.next_state.time_of_day == k * 450.0
            s = tr.next_state


class TestTakeOne:
    def test_no_candidates_falls_back(self):
        env = make_env()
        s = DriverState(GeoPoint(40.72, -74.0), 1000.0)
        tr = env.step(s, Action.TAKE_ONE)
        assert tr.reward == 0.0
        assert tr.next_state.location == s.location
        assert tr.next_state.time_of_day == 1600.0
        assert tr.info.trips == ()

    def test_single_reachable_trip(self):
        trip = make_trip((40.72, -74.0), (40.73, -73.99), pickup_s=1200,
                         duration=480.0, distance=3.2)
        env = make_env([trip])
        s = DriverState(GeoPoint(40.72, -74.0), 1000.0)
        tr = env.step(s, Action.TAKE_ONE)
        assert tr.reward == 3.2
        assert tr.next_state.location == trip.destination
        assert tr.next_state.time_of_day == trip.pickup_seconds + 480.0
        assert tr.info.trips == (trip,)

    def test_earliest_pickup_wins(self):
        later = make_trip((40.72, -74.0), (40.73, -73.99), pickup_s=1200)
        earlier = make_trip((40.72, -74.0), (40.725, -73.995), pickup_s=1100)
        env = make_env([later, earlier])
        s = DriverState(GeoPoint(40.72, -74.0), 1000.0)
        tr = env.step(s, Action.TAKE_ONE)
        assert tr.info.trips == (earlier,)

    def test_unreachable_trip_skipped(self):
        # pickup almost immediately, far corner: cannot be reached in time
        far = make_trip((40.7349, -73.99), (40.72, -74.0), pickup_s=1001)
        near = make_trip((40.72, -74.0), (40.73, -73.99), pickup_s=1300)
        env = make_env([far, near])
        s = DriverState(GeoPoint(40.715, -74.0094), 1000.0)
        tr = env.step(s, Action.TAKE_ONE)
        assert tr.info.trips == (near,)

    def test_result_independent_of_carpool_fraction(self):
        trip = make_trip((40.72, -74.0), (40.73, -73.99), pickup_s=1200)
        s = DriverState(GeoPoint(40.72, -74.0), 1000.0)
        results = []
        for tc in (0.2, 0.5, 0.9):
            env = make_env([trip], carpool_fraction=tc)
            results.append(env.step(s, Action.TAKE_ONE))
        assert results[0] == results[1] == results[2]


class TestTakeTwo:
    def trips_for_carpool(self):
        # first trip long enough to open a second search window
        trip1 = make_trip((40.72, -74.0), (40.733, -73.991), pickup_s=1200,
                          duration=900.0, distance=2.0)
        trip2 = make_trip((40.721, -73.999), (40.729, -73.992), pickup_s=1500,
                          duration=600.0, distance=3.0)
        return trip1, trip2

    def test_no_first_trip(self):
        env = make_env()
        s = DriverState(GeoPoint(40.72, -74.0), 1000.0)
        tr = env.step(s, Action.TAKE_TWO)
        assert tr.reward == 0.0
        assert tr.next_state.time_of_day == 1600.0

    def test_no_second_trip_rolls_back(self):
        trip1, _ = self.trips_for_carpool()
        env = make_env([trip1])
        s = DriverState(GeoPoint(40.72, -74.0), 1000.0)
        tr = env.step(s, Action.TAKE_TWO)
        assert tr.reward == 0.0
        assert tr.next_state.location == s.location
        assert tr.next_state.time_of_day == 1600.0
        assert tr.info.trips == ()

    def test_successful_carpool_reward_is_distance_sum(self):
        trip1, trip2 = self.trips_for_carpool()
        env = make_env([trip1, trip2])
        s = DriverState(GeoPoint(40.72, -74.0), 1000.0)
        assert env.can_take_two(s)
        tr = env.step(s, Action.TAKE_TWO)
        assert tr.reward == 5.0
        assert len(tr.info.trips) == 2
        assert tr.info.path in (PATH_ONE, PATH_TWO)

    def test_final_state_is_last_dropoff(self):
        trip1, trip2 = self.trips_for_carpool()
        env = make_env([trip1, trip2])
        s = DriverState(GeoPoint(40.72, -74.0), 1000.0)
        tr = env.step(s, Action.TAKE_TWO)
        expected = trip2.destination if tr.info.path == PATH_ONE else trip1.destination
        assert tr.next_state.location == expected

    def test_arrival_time_accumulates_chosen_path_legs(self):
        trip1, trip2 = self.trips_for_carpool()
        env = make_env([trip1, trip2])
        s = DriverState(GeoPoint(40.72, -74.0), 1000.0)
        tr = env.step(s, Action.TAKE_TWO)
        t0 = trip1.pickup_seconds

        def est(a, b):
            return SPEED.travel_time(a, b, t0, False)

        if tr.info.path == PATH_ONE:
            expected = (t0 + est(trip1.origin, trip2.origin)
                        + est(trip2.origin, trip1.destination)
                        + est(trip1.destination, trip2.destination))
        else:
            expected = (t0 + est(trip1.origin, trip2.origin)
                        + trip2.duration
                        + est(trip2.destination, trip1.destination))
        assert tr.next_state.time_of_day == pytest.approx(expected)

    def test_second_window_scales_with_first_duration(self):
        trip1, trip2 = self.trips_for_carpool()
        # trip2 pickup at 1500 = t_o1 + 300; window = tc * 900
        s = DriverState(GeoPoint(40.72, -74.0), 1000.0)
        roomy = make_env([trip1, trip2], carpool_fraction=0.5)   # horizon 1650
        tight = make_env([trip1, trip2], carpool_fraction=0.25)  # horizon 1425
        assert roomy.step(s, Action.TAKE_TWO).reward == 5.0
        assert tight.step(s, Action.TAKE_TWO).reward == 0.0

    def test_min_total_extra_candidate_chosen(self):
        trip1 = make_trip((40.72, -74.0), (40.733, -73.991), pickup_s=1200,
                          duration=900.0, distance=2.0)
        # near trip: small detour; far trip: same pickup window, big detour
        near = make_trip((40.7205, -73.9995), (40.732, -73.9915), pickup_s=1500,
                         duration=600.0, distance=1.0)
        far = make_trip((40.7235, -73.9999), (40.7155, -74.009), pickup_s=1500,
                        duration=600.0, distance=1.0)
        env = make_env([trip1, near, far])
        s = DriverState(GeoPoint(40.72, -74.0), 1000.0)
        tr = env.step(s, Action.TAKE_TWO)
        assert tr.info.trips[1] is near


class TestLegsByRole:
    def test_equal_endpoint_trips_keep_their_own_durations(self):
        # two trips A -> B in one carpool window, recorded at 600 s and 900 s
        a, b = (40.716, -74.008), (40.731, -73.996)
        trip1 = make_trip(a, b, pickup_s=1200, duration=600.0, distance=1.0)
        trip2 = make_trip(a, b, pickup_s=1250, duration=900.0, distance=1.5)
        eta = ConstantSpeedEta(6.0)
        env = CarpoolEnv(TripStore([trip1, trip2]), eta, REGION, GRID)
        s = DriverState(GeoPoint(*a), 1000.0)
        tr = env.step(s, Action.TAKE_TWO)
        assert tr.info.trips == (trip1, trip2)

        x = eta.travel_time(trip1.origin, trip1.destination, 1200.0, False)
        assert 600.0 < x < 900.0
        # O1 = O2 and D1 = D2: the connecting legs O1-O2, D1-D2, D2-D1 are 0,
        # so path I's extra time (x - 600) + (x - 900) undercuts path II's 300
        assert tr.info.path == PATH_ONE
        assert tr.next_state.location == trip2.destination
        assert tr.next_state.time_of_day == pytest.approx(1200.0 + x)


class TestStepAndReset:
    def test_reset_deterministic(self):
        env = make_env()
        assert (env.reset(np.random.default_rng(7))
                == env.reset(np.random.default_rng(7)))

    def test_reset_time_zero_and_in_region(self):
        env = make_env()
        for seed in range(20):
            s = env.reset(np.random.default_rng(seed))
            assert s.time_of_day == 0.0
            assert REGION.contains(s.location)

    def test_reset_covers_cells_uniformly_enough(self):
        env = make_env()
        rng = np.random.default_rng(0)
        cells = {(round(env.reset(rng).location.lat, 4),
                  round(env.reset(rng).location.lon, 4)) for _ in range(400)}
        assert len(cells) > 50  # 10x10 grid, should hit most cells

    def test_take_one_empty_store_reward_zero(self):
        env = make_env()
        s = DriverState(GeoPoint(40.72, -74.0), 0.0)
        assert env.step(s, Action.TAKE_ONE).reward == 0.0

    def test_done_exactly_when_crossing_day_end(self):
        env = make_env()
        s = DriverState(GeoPoint(40.72, -74.0), 86399.0)
        tr = env.step(s, Action.WAIT)
        assert tr.done
        s2 = DriverState(GeoPoint(40.72, -74.0), 80000.0)
        assert not env.step(s2, Action.WAIT).done

    def test_step_after_done_raises(self):
        env = make_env()
        s = DriverState(GeoPoint(40.72, -74.0), 86400.0)
        with pytest.raises(EpisodeOver):
            env.step(s, Action.WAIT)

    def test_empty_region_raises(self):
        tiny = Bbox(40.715, 40.7155, -74.0094, -74.0093)  # under one cell
        with pytest.raises(ValueError):
            CarpoolEnv(TripStore([]), SPEED, tiny, GRID)


class TestInvariants:
    def random_store(self, rng, n=300):
        trips = []
        for _ in range(n):
            o = (float(rng.uniform(40.715, 40.735)),
                 float(rng.uniform(-74.0094, -73.9894)))
            d = (float(rng.uniform(40.715, 40.735)),
                 float(rng.uniform(-74.0094, -73.9894)))
            dist = haversine_miles(GeoPoint(*o), GeoPoint(*d))
            if dist < 0.02:
                continue
            trips.append(make_trip(o, d, int(rng.integers(0, 86400)),
                                   duration=dist / 12.0 * 3600.0, distance=dist))
        return TripStore(trips)

    def test_random_step_invariants(self):
        rng = np.random.default_rng(123)
        env = make_env(self.random_store(rng).records)
        for _ in range(2000):
            s = DriverState(
                GeoPoint(float(rng.uniform(40.715, 40.735)),
                         float(rng.uniform(-74.0094, -73.9894))),
                float(rng.uniform(0, 86399)))
            action = Action(int(rng.integers(3)))
            tr = env.step(s, action)
            assert tr.next_state.time_of_day > s.time_of_day
            assert tr.reward >= 0.0
            assert (tr.reward == 0.0) == (len(tr.info.trips) == 0)
            if action == Action.TAKE_TWO and tr.info.trips:
                assert tr.reward == tr.info.trips[0].distance + tr.info.trips[1].distance
            assert tr.done == (tr.next_state.time_of_day >= 86400.0)

    def test_episode_terminates(self):
        rng = np.random.default_rng(5)
        env = make_env(self.random_store(rng, 100).records)
        s = env.reset(np.random.default_rng(0))
        steps = 0
        while True:
            tr = env.step(s, Action(int(rng.integers(3))))
            steps += 1
            s = tr.next_state
            if tr.done:
                break
        assert steps <= 86400 / min(env.params.wait_delay, 1.0)


class CountingEta(LegsFromTravelTime):
    """Constant-speed legs, counting each query."""

    def __init__(self):
        self.calls = 0

    def travel_time(self, origin, destination, seconds_of_day, is_weekend):
        self.calls += 1
        return SPEED.travel_time(origin, destination, seconds_of_day, is_weekend)


class TestSearchReuse:
    def test_probes_then_step_search_once(self):
        trip1, trip2 = TestTakeTwo().trips_for_carpool()
        s = DriverState(GeoPoint(40.72, -74.0), 1000.0)
        for action in (Action.TAKE_ONE, Action.TAKE_TWO):
            fresh_eta, probed_eta = CountingEta(), CountingEta()
            fresh = CarpoolEnv(TripStore([trip1, trip2]), fresh_eta, REGION,
                               GRID)
            probed = CarpoolEnv(TripStore([trip1, trip2]), probed_eta, REGION,
                                GRID)
            expected = fresh.step(s, action)
            assert probed.can_take_one(s) and probed.can_take_two(s)
            assert probed.step(s, action) == expected
            assert probed_eta.calls == fresh_eta.calls + (
                1 if action == Action.TAKE_ONE else 0)  # the unused second search

    def test_new_state_searches_again(self):
        trip1, trip2 = TestTakeTwo().trips_for_carpool()
        env = make_env([trip1, trip2])
        early = DriverState(GeoPoint(40.72, -74.0), 1000.0)
        late = DriverState(GeoPoint(40.72, -74.0), 1300.0)  # trip1 is gone
        assert env.can_take_two(early)
        assert not env.can_take_two(late)
        assert env.step(late, Action.TAKE_ONE).info.trips == (trip2,)
        assert env.step(early, Action.TAKE_TWO).reward == 5.0


class RecordingEta(LegsFromTravelTime):
    """Constant-speed legs, recording each query's weekend flag."""

    def __init__(self):
        self.weekend_flags = []

    def travel_time(self, origin, destination, seconds_of_day, is_weekend):
        self.weekend_flags.append(is_weekend)
        return SPEED.travel_time(origin, destination, seconds_of_day, is_weekend)


class TestDayType:
    def trips(self, weekend):
        # TestTakeTwo's carpool pair, with a distance that tells the days apart
        trip1, trip2 = TestTakeTwo().trips_for_carpool()
        extra = 10.0 if weekend else 0.0
        return [make_trip((t.origin.lat, t.origin.lon),
                          (t.destination.lat, t.destination.lon),
                          t.pickup_seconds, t.duration, t.distance + extra,
                          weekend=weekend) for t in (trip1, trip2)]

    def weekend_env(self, eta):
        store = TripStore(self.trips(False) + self.trips(True))
        return CarpoolEnv(store, eta, REGION, GRID, day_type="weekend")

    def test_weekend_env_serves_weekend_trips_only(self):
        eta = RecordingEta()
        env = self.weekend_env(eta)
        assert env.is_weekend and env.day_type == "weekend"
        weekday1, weekday2 = self.trips(False)
        weekend1, weekend2 = self.trips(True)
        assert weekday1.pickup_seconds == weekend1.pickup_seconds

        s = DriverState(GeoPoint(40.72, -74.0), 1000.0)
        assert env.can_take_one(s) and env.can_take_two(s)
        one = env.step(s, Action.TAKE_ONE)
        assert one.info.trips == (weekend1,) and one.reward == 12.0
        two = env.step(s, Action.TAKE_TWO)
        assert two.info.trips == (weekend1, weekend2) and two.reward == 25.0
        assert eta.weekend_flags and all(w is True for w in eta.weekend_flags)

        weekday_env = CarpoolEnv(env.store, SPEED, REGION, GRID)
        assert weekday_env.step(s, Action.TAKE_TWO).info.trips == (
            weekday1, weekday2)

    def test_weekend_episode_asks_weekend_legs_only(self):
        eta = RecordingEta()
        env = self.weekend_env(eta)
        rng = np.random.default_rng(2)
        s, served = env.reset(rng), set()
        for _ in range(200):
            tr = env.step(s, Action(int(rng.integers(3))))
            served.update(trip.is_weekend for trip in tr.info.trips)
            s = tr.next_state
            if tr.done:
                break
        for t in (0.0, 1000.0, 1250.0, 50000.0):  # any state, any probe
            for probe in (env.can_take_one, env.can_take_two):
                probe(DriverState(GeoPoint(40.72, -74.0), t))
        assert served <= {True}
        assert eta.weekend_flags and all(w is True for w in eta.weekend_flags)

    def test_unknown_day_type_raises(self):
        with pytest.raises(ValueError, match="Weekend"):
            CarpoolEnv(TripStore([]), SPEED, REGION, GRID, day_type="Weekend")

    def test_driver_state_is_place_and_time_only(self):
        assert [f.name for f in dataclasses.fields(DriverState)] == [
            "location", "time_of_day"]
        assert [f.name for f in dataclasses.fields(TransitionInfo)] == [
            "trips", "path"]
        with pytest.raises(TypeError):
            DriverState(GeoPoint(40.72, -74.0), 0.0, is_weekend=True)


class UnmemoizedEta(LegsFromTravelTime):
    """The joint model's one-row prediction for every leg, with no memo."""

    def __init__(self, model):
        self.model = model

    def travel_time(self, origin, destination, seconds_of_day, is_weekend):
        q = EtaQuery(origin, destination, seconds_of_day, is_weekend)
        return float(self.model.predict_batch([q])[0][0])


@pytest.fixture(scope="module")
def learned(tmp_path_factory):
    """A noisy dense weekday and weekend, ingested into one store, and a
    small joint model trained on it: ``(store, spec, model)``."""
    records = []
    for day in ("weekday", "weekend"):
        spec = dense_preset(n_days=1, noisy=True, day_type=day)
        path = tmp_path_factory.mktemp("learned") / "trips.csv"
        generate_synthetic(spec, 3, path)
        records += ingest_csv(path)[0].records
    store = TripStore(records)
    cfg = EtaConfig(learning_rate=0.01, batch_size=64, epochs=2,
                    dist_hidden=[16, 16], time_hidden=[16])
    return store, spec, train_joint_eta(store, spec.grid, cfg, 0)


class TestLearnedEta:
    """The memoized, per-search batched ``ModelEta`` drives the env exactly
    as one uncached one-row prediction per leg does."""

    def test_memoized_episodes_match_unmemoized(self, learned):
        store, spec, model = learned
        memo_env = CarpoolEnv(store, ModelEta(model), spec.region, spec.grid)
        plain_env = CarpoolEnv(store, UnmemoizedEta(model), spec.region,
                               spec.grid)
        memo_mean, memo_totals = evaluate_policy(
            memo_env, FixedPolicy(memo_env), 2, seed=4)
        plain_mean, plain_totals = evaluate_policy(
            plain_env, FixedPolicy(plain_env), 2, seed=4)
        assert memo_totals == plain_totals and memo_mean == plain_mean
        assert memo_mean > 0
        for ep in range(2):
            memo = list(rollout(memo_env, FixedPolicy(memo_env),
                                np.random.default_rng([4, ep])))
            plain = list(rollout(plain_env, FixedPolicy(plain_env),
                                 np.random.default_rng([4, ep])))
            assert memo == plain
            total = 0.0
            for tr in memo:
                total += tr.reward
            assert total == memo_totals[ep]

    @pytest.mark.parametrize("day", ["weekday", "weekend"])
    def test_random_actions_and_probes_match_unmemoized(self, learned, day):
        store, spec, model = learned
        memo_eta = ModelEta(model)
        memo_env, plain_env = (
            CarpoolEnv(store, eta, spec.region, spec.grid, day_type=day)
            for eta in (memo_eta, UnmemoizedEta(model)))
        served = []
        for seed in range(4):  # whole days, one memo across them
            rng = np.random.default_rng([seed, day == "weekend"])
            s, done = memo_env.reset(rng), False
            while not done:
                if rng.random() < 0.5:  # probe first: the step reuses the search
                    for probe in ("can_take_one", "can_take_two"):
                        assert (getattr(memo_env, probe)(s)
                                == getattr(plain_env, probe)(s))
                action = Action(int(rng.choice(3, p=[0.2, 0.3, 0.5])))
                tr = memo_env.step(s, action)
                assert tr == plain_env.step(s, action)
                served.append(len(tr.info.trips))
                s, done = tr.next_state, tr.done
        assert {0, 1, 2} <= set(served) and memo_eta._memo


class CellTableEta(LegsFromTravelTime):
    """A random travel time per ``(oi, oj, di, dj, time_bin)`` cell key,
    weekend bins included: each time is drawn from a generator seeded by
    ``seed`` and the key alone, so it does not depend on query order."""

    def __init__(self, seed, longest):
        self.seed, self.longest = seed, longest

    def travel_time(self, origin, destination, seconds_of_day, is_weekend):
        key = (*cell_index(origin, GRID), *cell_index(destination, GRID),
               bin_time(seconds_of_day, is_weekend, GRID))
        return self.longest * float(
            np.random.default_rng([self.seed, *key]).random())


lats = st.floats(REGION.lat_min, REGION.lat_max - 1e-9)
lons = st.floats(REGION.lon_min, REGION.lon_max - 1e-9)
places = st.tuples(lats, lons)
times = st.integers(0, 3600)  # one busy hour, so that carpools are common
trips = st.builds(
    make_trip, places, places, st.integers(0, 60).map(lambda k: 60 * k),
    duration=st.floats(60.0, 1800.0), distance=st.floats(0.1, 5.0),
    weekend=st.booleans())
etas = st.one_of(st.sampled_from([ConstantSpeedEta(12.0), ConstantSpeedEta(30.0)]),
                 st.builds(CellTableEta, st.integers(0, 2**32 - 1),
                           st.floats(0.0, 900.0)))
params = st.builds(EnvParamsConfig, search_window=st.sampled_from([300.0, 900.0]),
                   carpool_fraction=st.sampled_from([0.25, 0.5, 0.9]),
                   wait_delay=st.sampled_from([60.0, 600.0]))
# one op: probes (in order), then an action; then either the next state,
# the same state again, or a jump to a fresh state
ops = st.tuples(st.lists(st.sampled_from(["can_take_one", "can_take_two"]),
                         max_size=2),
                st.sampled_from(list(Action)),
                st.one_of(st.just("next"), st.just("same"),
                          st.builds(DriverState, st.builds(GeoPoint, lats, lons),
                                    times.map(float))))


class TestMatchesReference:
    """``CarpoolEnv`` with its kept searches and once-asked legs gives the
    from-scratch ``ReferenceEnv``'s answer to every probe and step."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(trips, max_size=16), etas, params,
           st.sampled_from(["weekday", "weekend"]), st.integers(0, 99),
           st.lists(ops, min_size=1, max_size=25))
    def test_probes_and_steps_match(self, records, eta, env_params, day, seed,
                                    script):
        store = TripStore(records)
        env, ref = (cls(store, eta, REGION, GRID, env_params, day)
                    for cls in (CarpoolEnv, ReferenceEnv))
        s = env.reset(np.random.default_rng(seed))
        assert s == ref.reset(np.random.default_rng(seed))
        for probes, action, then in script:
            for probe in probes:
                assert getattr(env, probe)(s) == getattr(ref, probe)(s)
            tr = env.step(s, action)
            assert tr == ref.step(s, action)
            if isinstance(then, DriverState):
                s = then
            elif then == "next" and not tr.done:
                s = tr.next_state
