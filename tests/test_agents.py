from datetime import datetime, timedelta

import numpy as np
import pytest

from carpool_rl.agents import (DqnAgent, EpsilonSchedule, FixedPolicy, QTable,
                               ReplayMemory, GreedyTabularPolicy, load_qtable,
                               run_episode, save_qtable, select_action,
                               state_cell, tabular_update, train_dqn,
                               train_tabular, wait_policy)
from carpool_rl.eta import ConstantSpeedEta
from carpool_rl.geo import Bbox, GeoPoint, GridSpec, haversine_miles
from carpool_rl.nn import TrainConfig
from carpool_rl.simulator import (Action, CarpoolEnv, DriverState, EnvConfig,
                                  Transition, TransitionInfo)
from carpool_rl.trips import TripRecord, TripStore

REGION = Bbox(40.715, 40.735, -74.0094, -73.9894)
GRID = GridSpec(origin_corner=REGION.lower_left)


def make_trip(o, d, pickup_s, duration=None, distance=None):
    distance = distance if distance is not None else haversine_miles(
        GeoPoint(*o), GeoPoint(*d))
    duration = duration if duration is not None else distance / 12.0 * 3600.0
    pickup = datetime(2013, 1, 7) + timedelta(seconds=pickup_s)
    return TripRecord(GeoPoint(*o), GeoPoint(*d), pickup,
                      pickup + timedelta(seconds=max(duration, 1)),
                      distance, duration, 1)


def make_env(trips=(), **overrides):
    return CarpoolEnv(TripStore(trips), ConstantSpeedEta(12.0),
                      EnvConfig(region=REGION, grid=GRID, **overrides))


def cell_state(i, j, t=0.0):
    return DriverState(GeoPoint(REGION.lat_min + i * GRID.cell_lat,
                                REGION.lon_min + j * GRID.cell_lon), t)


def make_transition(s, action, reward, ns, done=False):
    return Transition(s, action, reward, ns, done, TransitionInfo())


class TestTabularUpdate:
    def test_direct_substitution(self):
        table = QTable(alpha=0.5, gamma=0.95)
        tr = make_transition(cell_state(0, 0), Action.TAKE_ONE, 10.0,
                             cell_state(1, 1, 700.0))
        assert tabular_update(table, tr, GRID) == 5.0

    def test_zero_everything_is_fixed_point(self):
        table = QTable(alpha=0.5, gamma=0.95)
        tr = make_transition(cell_state(0, 0), Action.WAIT, 0.0,
                             cell_state(0, 0, 700.0))
        assert tabular_update(table, tr, GRID) == 0.0
        assert table.values == {(((0, 0, 0)), int(Action.WAIT)): 0.0}

    def test_terminal_bootstraps_zero(self):
        table = QTable(alpha=1.0, gamma=0.95)
        # give the next state's cell a big value that must be ignored
        ns = cell_state(1, 1, 86000.0)
        table.values[(state_cell(ns, GRID), int(Action.WAIT))] = 100.0
        tr = make_transition(cell_state(0, 0, 85000.0), Action.TAKE_ONE, 2.0,
                             ns, done=True)
        assert tabular_update(table, tr, GRID) == 2.0

    def test_unchanged_iff_td_error_zero(self):
        table = QTable(alpha=0.7, gamma=0.9)
        s, ns = cell_state(0, 0), cell_state(1, 1, 700.0)
        table.values[(state_cell(ns, GRID), int(Action.WAIT))] = 2.0
        key = (state_cell(s, GRID), int(Action.TAKE_ONE))
        table.values[key] = 1.0 + 0.9 * 2.0  # exactly r + gamma max Q(next)
        tr = make_transition(s, Action.TAKE_ONE, 1.0, ns)
        assert tabular_update(table, tr, GRID) == table.values[key]

    def test_two_state_chain_converges_to_value_iteration(self):
        # deterministic chain: A --(r=1)--> B --(r=0)--> A, single action
        gamma = 0.9
        a, b = cell_state(0, 0, 0.0), cell_state(1, 0, 0.0)
        tr_ab = make_transition(a, Action.WAIT, 1.0, b)
        tr_ba = make_transition(b, Action.WAIT, 0.0, a)

        # value-iteration oracle on the 2-state MDP
        qa = qb = 0.0
        for _ in range(500):
            qa, qb = 1.0 + gamma * qb, 0.0 + gamma * qa

        table = QTable(alpha=0.5, gamma=gamma)
        for _ in range(200):
            tabular_update(table, tr_ab, GRID)
            tabular_update(table, tr_ba, GRID)
        assert table.get(state_cell(a, GRID), Action.WAIT) == pytest.approx(qa, abs=1e-3)
        assert table.get(state_cell(b, GRID), Action.WAIT) == pytest.approx(qb, abs=1e-3)

    def test_four_cell_mdp_matches_dp_exactly(self):
        # 2x2 deterministic gridworld, all three actions defined per state.
        # Layout: action WAIT self-loops (r=0), TAKE_ONE cycles right/down
        # (r varies), TAKE_TWO jumps to cell (0,0) (r=0.5).
        gamma = 0.95
        cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
        nxt = {(0, 0): (0, 1), (0, 1): (1, 1), (1, 1): (1, 0), (1, 0): (0, 0)}
        reward = {(0, 0): 1.0, (0, 1): 0.0, (1, 1): 2.0, (1, 0): 0.0}

        def transitions_for(c):
            s = cell_state(*c)
            return {
                Action.WAIT: make_transition(s, Action.WAIT, 0.0, s),
                Action.TAKE_ONE: make_transition(s, Action.TAKE_ONE,
                                                 reward[c], cell_state(*nxt[c])),
                Action.TAKE_TWO: make_transition(s, Action.TAKE_TWO, 0.5,
                                                 cell_state(0, 0)),
            }

        # dynamic-programming oracle over the 4x3 Q table
        q = {(c, a): 0.0 for c in cells for a in Action}
        for _ in range(2000):
            q = {
                (c, a): {
                    Action.WAIT: 0.0 + gamma * max(q[(c, x)] for x in Action),
                    Action.TAKE_ONE: reward[c] + gamma * max(
                        q[(nxt[c], x)] for x in Action),
                    Action.TAKE_TWO: 0.5 + gamma * max(
                        q[((0, 0), x)] for x in Action),
                }[a]
                for c in cells for a in Action
            }

        table = QTable(alpha=1.0, gamma=gamma, alpha_decay=False)
        for _ in range(2000):
            for c in cells:
                for a, tr in transitions_for(c).items():
                    tabular_update(table, tr, GRID)

        for c in cells:
            for a in Action:
                got = table.get(state_cell(cell_state(*c), GRID), a)
                assert got == pytest.approx(q[(c, a)], abs=1e-3)

    def test_alpha_decay_visits(self):
        table = QTable(alpha=1.0, gamma=0.9, alpha_decay=True)
        s, ns = cell_state(0, 0), cell_state(1, 1, 700.0)
        tr = make_transition(s, Action.WAIT, 4.0, ns)
        tabular_update(table, tr, GRID)   # step 1: alpha 1 -> Q = 4
        tabular_update(table, tr, GRID)   # step 2: alpha 1/2 -> stays 4
        assert table.get(state_cell(s, GRID), Action.WAIT) == pytest.approx(4.0)

    def test_csv_roundtrip(self, tmp_path):
        table = QTable()
        tr = make_transition(cell_state(0, 0), Action.TAKE_ONE, 10.0,
                             cell_state(1, 1, 700.0))
        tabular_update(table, tr, GRID)
        path = tmp_path / "q.csv"
        save_qtable(table, path)
        loaded = load_qtable(path)
        assert loaded.values == table.values


class TestSelectAction:
    def test_greedy_when_epsilon_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            q = rng.normal(size=3)
            assert select_action(q, 0.0, rng) == Action(int(np.argmax(q)))

    def test_argmax_example(self):
        rng = np.random.default_rng(0)
        assert select_action((1.0, 5.0, 2.0), 0.0, rng) == Action.TAKE_ONE

    def test_tie_breaks_toward_lower_action(self):
        rng = np.random.default_rng(0)
        assert select_action((3.0, 3.0, 3.0), 0.0, rng) == Action.WAIT
        assert select_action((0.0, 3.0, 3.0), 0.0, rng) == Action.TAKE_ONE

    def test_uniform_when_epsilon_one(self):
        rng = np.random.default_rng(42)
        counts = {a: 0 for a in Action}
        n = 10_000
        for _ in range(n):
            counts[select_action((9.0, 1.0, 1.0), 1.0, rng)] += 1
        sigma = (n * (1 / 3) * (2 / 3)) ** 0.5
        for a in Action:
            assert abs(counts[a] - n / 3) <= 3 * sigma

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            select_action((0, 0, 0), 1.5, np.random.default_rng(0))


class TestReplayMemory:
    def _tr(self, k):
        return make_transition(cell_state(0, 0, float(k)), Action.WAIT, 0.0,
                               cell_state(0, 0, float(k + 1)))

    def test_never_exceeds_capacity_and_evicts_oldest(self):
        mem = ReplayMemory(5)
        trs = [self._tr(k) for k in range(8)]
        for tr in trs:
            mem.push(tr)
        assert len(mem) == 5
        kept_times = {t.state.time_of_day for t in mem._items}
        assert kept_times == {3.0, 4.0, 5.0, 6.0, 7.0}

    def test_sampling_is_uniform(self):
        mem = ReplayMemory(50)
        for k in range(50):
            mem.push(self._tr(k))
        rng = np.random.default_rng(7)
        counts = np.zeros(50)
        draws = 50_000
        for tr in mem.sample(draws, rng):
            counts[int(tr.state.time_of_day)] += 1
        expected = draws / 50
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # chi-square critical value, 49 dof, alpha = 0.01
        assert chi2 < 74.919

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            ReplayMemory(3).sample(1, np.random.default_rng(0))


def make_agent(seed=0, **kw):
    kw.setdefault("hidden", (16, 16))
    kw.setdefault("replay_capacity", 1000)
    return DqnAgent(REGION, TrainConfig(learning_rate=0.01, batch_size=8,
                                        epochs=1, seed=seed), **kw)


def random_transitions(rng, n, terminal_fraction=0.0):
    out = []
    for _ in range(n):
        s = DriverState(GeoPoint(float(rng.uniform(40.715, 40.735)),
                                 float(rng.uniform(-74.0094, -73.9894))),
                        float(rng.uniform(0, 80000)))
        ns = DriverState(GeoPoint(float(rng.uniform(40.715, 40.735)),
                                  float(rng.uniform(-74.0094, -73.9894))),
                         s.time_of_day + float(rng.uniform(1, 3000)))
        done = bool(rng.random() < terminal_fraction)
        out.append(make_transition(s, Action(int(rng.integers(3))),
                                   float(rng.uniform(0, 5)), ns, done))
    return out


class TestDqn:
    def test_double_target_equals_vanilla_when_nets_equal(self):
        rng = np.random.default_rng(0)
        agent = make_agent()
        agent.sync_target()  # online == target
        batch = random_transitions(rng, 1000)
        targets = agent.compute_targets(batch)
        ns = agent._features_batch([tr.next_state for tr in batch])
        q_next, _ = agent.target.forward(ns)
        vanilla = (np.array([tr.reward for tr in batch])
                   + agent.gamma * q_next.max(axis=1))
        assert np.array_equal(targets, vanilla)

    def test_terminal_target_is_bare_reward(self):
        rng = np.random.default_rng(1)
        agent = make_agent()
        batch = random_transitions(rng, 64, terminal_fraction=1.0)
        targets = agent.compute_targets(batch)
        assert np.array_equal(targets, np.array([tr.reward for tr in batch]))

    def test_gamma_zero_is_supervised_regression(self):
        rng = np.random.default_rng(2)
        agent = make_agent(gamma=0.0)
        batch = random_transitions(rng, 32)
        targets = agent.compute_targets(batch)
        assert np.array_equal(targets, np.array([tr.reward for tr in batch]))

    def test_train_step_decreases_fixed_batch_loss(self):
        rng = np.random.default_rng(3)
        agent = make_agent()
        batch = random_transitions(rng, 32, terminal_fraction=1.0)
        losses = [agent.train_step(batch)[0] for _ in range(60)]
        assert losses[-1] < losses[0]

    def test_sync_target_aligns_and_freezes(self):
        rng = np.random.default_rng(4)
        agent = make_agent()
        batch = random_transitions(rng, 16)
        for _ in range(5):
            agent.train_step(batch)
        s = batch[0].state
        online_q = agent.q_values(s)
        target_q, _ = agent.target.forward(agent.features(s))
        assert not np.array_equal(online_q, target_q)  # target lagging
        agent.sync_target()
        target_q, _ = agent.target.forward(agent.features(s))
        assert np.array_equal(agent.q_values(s), target_q)

    def test_sync_counter_resets(self):
        agent = make_agent()
        agent.steps_since_sync = 999
        agent.sync_target()
        assert agent.steps_since_sync == 0

    def test_epsilon_schedule(self):
        sched = EpsilonSchedule(1.0, 0.1, 100)
        assert sched.value(0) == 1.0
        assert sched.value(50) == pytest.approx(0.55)
        assert sched.value(100) == 0.1
        assert sched.value(10_000) == 0.1


class TestPolicies:
    def test_fixed_policy_branches(self):
        # empty window -> WAIT
        env = make_env()
        s = DriverState(GeoPoint(40.72, -74.0), 1000.0)
        assert FixedPolicy(env)(s) == Action.WAIT

        # one reachable trip, no second -> TAKE_ONE
        trip1 = make_trip((40.72, -74.0), (40.733, -73.991), pickup_s=1200,
                          duration=900.0, distance=2.0)
        env = make_env([trip1])
        assert FixedPolicy(env)(s) == Action.TAKE_ONE

        # both assignments feasible -> TAKE_TWO
        trip2 = make_trip((40.721, -73.999), (40.729, -73.992), pickup_s=1500,
                          duration=600.0, distance=3.0)
        env = make_env([trip1, trip2])
        assert FixedPolicy(env)(s) == Action.TAKE_TWO

    def test_wait_only_episode_reward_zero(self):
        env = make_env([make_trip((40.72, -74.0), (40.73, -73.99), 1200)])
        result = run_episode(env, wait_policy, np.random.default_rng(0))
        assert result.cumulative_reward == 0.0
        assert result.step_count == 144  # 86400 / 600
        assert result.action_counts[Action.WAIT] == 144

    def test_single_trip_take_one_greedy(self):
        trip = make_trip((40.72, -74.0), (40.73, -73.99), pickup_s=30000,
                         duration=500.0, distance=2.75)
        env = make_env([trip])
        result = run_episode(env, lambda s: Action.TAKE_ONE,
                             np.random.default_rng(1))
        assert result.cumulative_reward == 2.75

    def test_episode_step_bound(self):
        env = make_env()
        result = run_episode(env, wait_policy, np.random.default_rng(2))
        assert result.step_count <= 86400 / min(env.config.wait_delay, 1.0)

    def test_greedy_tabular_matches_argmax(self):
        table = QTable()
        s = cell_state(2, 3, 1200.0)
        table.values[(state_cell(s, GRID), int(Action.TAKE_TWO))] = 1.0
        assert GreedyTabularPolicy(table, GRID)(s) == Action.TAKE_TWO


class TestTrainingLoops:
    def _demand(self, rng, n=120):
        trips = []
        for _ in range(n):
            o = (float(rng.uniform(40.715, 40.735)),
                 float(rng.uniform(-74.0094, -73.9894)))
            d = (float(rng.uniform(40.715, 40.735)),
                 float(rng.uniform(-74.0094, -73.9894)))
            dist = haversine_miles(GeoPoint(*o), GeoPoint(*d))
            if dist < 0.05:
                continue
            trips.append(make_trip(o, d, int(rng.integers(0, 86400)),
                                   duration=dist / 12.0 * 3600.0, distance=dist))
        return trips

    def test_zero_episodes_leaves_agent_unchanged(self):
        env = make_env(self._demand(np.random.default_rng(0)))
        agent = make_agent()
        before = [w.copy() for w in agent.online.weights]
        result = train_dqn(env, agent, 0, seed=0)
        assert result.mean_q == [] and result.loss == []
        for w, b in zip(agent.online.weights, before):
            assert np.array_equal(w, b)

    def test_curves_have_one_entry_per_episode(self):
        env = make_env(self._demand(np.random.default_rng(1)))
        agent = make_agent()
        result = train_dqn(env, agent, 3, seed=0)
        assert len(result.mean_q) == 3
        assert len(result.loss) == 3
        assert len(result.episode_rewards) == 3

    def test_train_dqn_deterministic(self):
        def run():
            env = make_env(self._demand(np.random.default_rng(2)))
            agent = make_agent(seed=5)
            res = train_dqn(env, agent, 2, seed=9)
            return res.mean_q, agent.online.weights[0].copy()

        (q1, w1), (q2, w2) = run(), run()
        assert q1 == q2
        assert np.array_equal(w1, w2)

    def test_train_tabular_runs_and_records(self):
        env = make_env(self._demand(np.random.default_rng(3)))
        table = QTable(alpha=0.2)
        result = train_tabular(env, table, GRID, 3, seed=0)
        assert len(result.mean_q) == 3
        assert len(table.values) > 0
