import csv
from dataclasses import replace
from datetime import datetime, timedelta
from functools import partial

import numpy as np
import pytest

from carpool_rl.agents import (DqnAgent, FixedPolicy, QTable, ReplayMemory,
                               epsilon, evaluate_policy, greedy, rollout,
                               save_qtable, select_action, state_cell,
                               tabular_q_values, tabular_update, train_dqn,
                               train_tabular, wait_policy)
from carpool_rl.config import DqnConfig, TabQConfig
from carpool_rl.eta import ConstantSpeedEta
from carpool_rl.geo import Bbox, GeoPoint, GridSpec, haversine_miles
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

        table = QTable(alpha=1.0, gamma=gamma)
        for _ in range(2000):
            for c in cells:
                for a, tr in transitions_for(c).items():
                    tabular_update(table, tr, GRID)

        for c in cells:
            for a in Action:
                got = table.get(state_cell(cell_state(*c), GRID), a)
                assert got == pytest.approx(q[(c, a)], abs=1e-3)

    def test_csv_roundtrip(self, tmp_path):
        table = QTable()
        tr = make_transition(cell_state(0, 0), Action.TAKE_ONE, 10.0,
                             cell_state(1, 1, 700.0))
        tabular_update(table, tr, GRID)
        path = tmp_path / "q.csv"
        save_qtable(table, path)
        with open(path, newline="") as fh:
            loaded = {((int(row["lat_bin"]), int(row["lon_bin"]),
                        int(row["time_bin"])), int(Action[row["action"]])):
                      float(row["value"]) for row in csv.DictReader(fh)}
        assert loaded == table.values


def fixed_values(q):
    """A state → action-values function that ignores the state."""
    return lambda state: np.asarray(q, dtype=float)


class TestSelectAction:
    def test_greedy_when_epsilon_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            q = rng.normal(size=3)
            assert (select_action(fixed_values(q), None, 0.0, rng)
                    == Action(int(np.argmax(q))))

    def test_argmax_example(self):
        rng = np.random.default_rng(0)
        assert select_action(fixed_values((1.0, 5.0, 2.0)), None, 0.0,
                             rng) == Action.TAKE_ONE

    def test_tie_breaks_toward_lower_action(self):
        rng = np.random.default_rng(0)
        assert select_action(fixed_values((3.0, 3.0, 3.0)), None, 0.0,
                             rng) == Action.WAIT
        assert select_action(fixed_values((0.0, 3.0, 3.0)), None, 0.0,
                             rng) == Action.TAKE_ONE

    def test_uniform_when_epsilon_one(self):
        rng = np.random.default_rng(42)
        counts = {a: 0 for a in Action}
        n = 10_000
        for _ in range(n):
            counts[select_action(fixed_values((9.0, 1.0, 1.0)), None, 1.0,
                                 rng)] += 1
        sigma = (n * (1 / 3) * (2 / 3)) ** 0.5
        for a in Action:
            assert abs(counts[a] - n / 3) <= 3 * sigma

    def test_values_never_computed_at_epsilon_one(self):
        def q_values(state):
            raise AssertionError("an exploring step computed action values")

        rng = np.random.default_rng(1)
        for _ in range(1000):
            select_action(q_values, None, 1.0, rng)

    def test_seeded_action_sequence_unchanged(self):
        # The draws, and their order, of a choice that computes the values
        # first: one uniform draw when epsilon > 0, then one integer draw
        # when it explores. The values are read once per greedy draw only.
        def reference(values, eps, rng):
            if eps > 0 and rng.random() < eps:
                return Action(int(rng.integers(3))), False
            return Action(int(np.argmax(values))), True

        q_rng = np.random.default_rng(7)
        table = {k: q_rng.normal(size=3) for k in range(300)}
        eps = np.linspace(0.0, 1.0, 300)
        calls = []

        def q_values(k):
            calls.append(k)
            return table[k]

        a_rng, b_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = [select_action(q_values, k, eps[k], a_rng) for k in range(300)]
        want = [reference(table[k], eps[k], b_rng) for k in range(300)]
        assert got == [action for action, _ in want]
        assert calls == [k for k, (_, greedy) in enumerate(want) if greedy]
        assert 0 < len(calls) < 300
        assert a_rng.random() == b_rng.random()

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            select_action(fixed_values((0, 0, 0)), None, 1.5,
                          np.random.default_rng(0))


class TestReplayMemory:
    def _push(self, mem, k):
        mem.push(np.array([0.0, 0.0, float(k)]), int(Action.WAIT), 0.0,
                 np.array([0.0, 0.0, float(k + 1)]), True)

    def test_never_exceeds_capacity_and_evicts_oldest(self):
        mem = ReplayMemory(5)
        for k in range(8):
            self._push(mem, k)
        assert len(mem) == 5
        kept_times = set(mem.states[:len(mem), 2].tolist())
        assert kept_times == {3.0, 4.0, 5.0, 6.0, 7.0}

    def test_sampling_is_uniform(self):
        mem = ReplayMemory(50)
        for k in range(50):
            self._push(mem, k)
        rng = np.random.default_rng(7)
        counts = np.zeros(50)
        draws = 50_000
        states, *_ = mem.sample(draws, rng)
        for t in states[:, 2]:
            counts[int(t)] += 1
        expected = draws / 50
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # chi-square critical value, 49 dof, alpha = 0.01
        assert chi2 < 74.919

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            ReplayMemory(3).sample(1, np.random.default_rng(0))

    def test_sample_returns_the_pushed_columns(self):
        agent = make_agent()
        trs = random_transitions(np.random.default_rng(5), 4,
                                 terminal_fraction=0.5)
        for tr in trs:
            agent.remember(tr)
        s, a, r, ns, live = agent.replay.sample(4, np.random.default_rng(0))
        for row, i in enumerate(np.random.default_rng(0).integers(4, size=4)):
            tr = trs[i]
            assert np.array_equal(s[row], agent.features(tr.state))
            assert a[row] == int(tr.action) and r[row] == tr.reward
            assert np.array_equal(ns[row], agent.features(tr.next_state))
            assert live[row] == (0.0 if tr.done else 1.0)


# The settings the DQN tests were written against (eps_decay_steps 20,000
# was the agent's own default); each test overrides what it varies.
TEST_DQN = DqnConfig(hidden=[16, 16], learning_rate=0.01, batch_size=8,
                     replay_capacity=1000, eps_decay_steps=20_000)
TEST_TABQ = TabQConfig(eps_decay_steps=20_000)


def make_agent(seed=0, **kw):
    return DqnAgent(REGION, replace(TEST_DQN, **kw), seed)


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


def as_batch(agent, transitions):
    """``transitions`` as the arrays :meth:`ReplayMemory.sample` returns."""
    return (np.stack([agent.features(tr.state) for tr in transitions]),
            np.array([int(tr.action) for tr in transitions]),
            np.array([tr.reward for tr in transitions]),
            np.stack([agent.features(tr.next_state) for tr in transitions]),
            np.array([0.0 if tr.done else 1.0 for tr in transitions]))


class TestDqn:
    def test_double_target_equals_vanilla_when_nets_equal(self):
        rng = np.random.default_rng(0)
        agent = make_agent()
        agent.sync_target()  # online == target
        _, _, rewards, ns, live = as_batch(agent, random_transitions(rng, 1000))
        targets = agent.compute_targets(rewards, ns, live)
        q_next, _ = agent.target.forward(ns)
        vanilla = rewards + agent.cfg.gamma * q_next.max(axis=1)
        assert np.array_equal(targets, vanilla)

    def test_terminal_target_is_bare_reward(self):
        rng = np.random.default_rng(1)
        agent = make_agent()
        batch = random_transitions(rng, 64, terminal_fraction=1.0)
        _, _, rewards, ns, live = as_batch(agent, batch)
        targets = agent.compute_targets(rewards, ns, live)
        assert np.array_equal(targets, np.array([tr.reward for tr in batch]))

    def test_gamma_zero_is_supervised_regression(self):
        rng = np.random.default_rng(2)
        agent = make_agent(gamma=0.0)
        batch = random_transitions(rng, 32)
        _, _, rewards, ns, live = as_batch(agent, batch)
        targets = agent.compute_targets(rewards, ns, live)
        assert np.array_equal(targets, np.array([tr.reward for tr in batch]))

    def test_train_step_decreases_fixed_batch_loss(self):
        rng = np.random.default_rng(3)
        agent = make_agent()
        batch = as_batch(agent, random_transitions(rng, 32, terminal_fraction=1.0))
        losses = [agent.train_step(*batch)[0] for _ in range(60)]
        assert losses[-1] < losses[0]

    def test_sync_target_aligns_and_freezes(self):
        rng = np.random.default_rng(4)
        agent = make_agent()
        transitions = random_transitions(rng, 16)
        batch = as_batch(agent, transitions)
        for _ in range(5):
            agent.train_step(*batch)
        s = transitions[0].state
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
        for cfg in (DqnConfig(eps_start=1.0, eps_end=0.1, eps_decay_steps=100),
                    TabQConfig(eps_start=1.0, eps_end=0.1, eps_decay_steps=100)):
            assert epsilon(cfg, 0) == 1.0
            assert epsilon(cfg, 50) == pytest.approx(0.55)
            assert epsilon(cfg, 100) == 0.1
            assert epsilon(cfg, 10_000) == 0.1


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
        transitions = list(rollout(env, wait_policy, np.random.default_rng(0)))
        assert sum(tr.reward for tr in transitions) == 0.0
        assert len(transitions) == 144  # 86400 / 600
        assert [tr.action for tr in transitions] == [Action.WAIT] * 144
        assert transitions[-1].done and not any(tr.done for tr in transitions[:-1])

    def test_single_trip_take_one_greedy(self):
        trip = make_trip((40.72, -74.0), (40.73, -73.99), pickup_s=30000,
                         duration=500.0, distance=2.75)
        env = make_env([trip])
        transitions = list(rollout(env, lambda s: Action.TAKE_ONE,
                                   np.random.default_rng(1)))
        assert sum(tr.reward for tr in transitions) == 2.75

    def test_episode_step_bound(self):
        env = make_env()
        transitions = list(rollout(env, wait_policy, np.random.default_rng(2)))
        assert len(transitions) <= 86400 / min(env.config.wait_delay, 1.0)

    def test_greedy_tabular_matches_argmax(self):
        table = QTable()
        s = cell_state(2, 3, 1200.0)
        table.values[(state_cell(s, GRID), int(Action.TAKE_TWO))] = 1.0
        assert greedy(partial(tabular_q_values, table, GRID))(s) == Action.TAKE_TWO

    def test_greedy_ties_break_toward_lower_action(self):
        assert greedy(lambda s: np.array([1.0, 1.0, 0.5]))(None) == Action.WAIT
        assert greedy(lambda s: np.array([0.0, 2.0, 2.0]))(None) == Action.TAKE_ONE


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
        agent = make_agent(train_episodes=0)
        before = [w.copy() for w in agent.online.weights]
        curves = train_dqn(env, agent, seed=0)
        assert curves == {"mean_q": [], "loss": [], "reward": []}
        for w, b in zip(agent.online.weights, before):
            assert np.array_equal(w, b)

    def test_curves_have_one_entry_per_episode(self):
        env = make_env(self._demand(np.random.default_rng(1)))
        agent = make_agent(train_episodes=3)
        curves = train_dqn(env, agent, seed=0)
        assert sorted(curves) == ["loss", "mean_q", "reward"]
        assert all(len(v) == 3 for v in curves.values())

    def test_train_dqn_deterministic(self):
        def run():
            env = make_env(self._demand(np.random.default_rng(2)))
            agent = make_agent(seed=5, train_episodes=2)
            curves = train_dqn(env, agent, seed=9)
            return curves["mean_q"], agent.online.weights[0].copy()

        (q1, w1), (q2, w2) = run(), run()
        assert q1 == q2
        assert np.array_equal(w1, w2)

    def test_train_tabular_runs_and_records(self):
        env = make_env(self._demand(np.random.default_rng(3)))
        table = QTable(alpha=0.2)
        curves = train_tabular(env, table, GRID,
                               replace(TEST_TABQ, train_episodes=3), seed=0)
        assert sorted(curves) == ["mean_q", "reward"]
        assert all(len(v) == 3 for v in curves.values())
        assert len(table.values) > 0

    def test_replay_ring_overwrite_run_is_pinned(self):
        # A replay of 64 rows against about 300 env steps, so training
        # samples from a memory that has wrapped several times. Recorded
        # while the replay still held Transition objects.
        env = make_env(self._demand(np.random.default_rng(3), 300))
        agent = make_agent(seed=6, replay_capacity=64, sync_period=40,
                           train_episodes=2, eps_start=1.0, eps_end=0.05,
                           eps_decay_steps=100)
        dqn = train_dqn(env, agent, seed=13)
        assert agent.env_steps == 301 and len(agent.replay) == 64
        assert repr(dqn) == (
            "{'mean_q': [0.2367386802871895, 0.6617328212310634], "
            "'loss': [0.04883009575979182, 0.09277925036244429], "
            "'reward': [17.048754679240993, 56.79547430265844]}")
        assert repr(evaluate_policy(env, greedy(agent.q_values), 2, seed=4)) == (
            "(75.87042710949702, [75.87042710949702, 75.87042710949702])")
        assert repr(agent.q_values(DriverState(GeoPoint(40.725, -74.0),
                                               43200.0)).tolist()) == (
            "[-0.20114772798660518, 1.2514080711506363, 0.24830389324693228]")

    def test_rollout_ends_with_the_transition_that_closes_the_day(self):
        env = make_env(self._demand(np.random.default_rng(4)))
        transitions = list(rollout(env, FixedPolicy(env),
                                   np.random.default_rng(0)))
        assert [tr.done for tr in transitions] == (
            [False] * (len(transitions) - 1) + [True])
        for prev, tr in zip(transitions, transitions[1:]):
            assert tr.state == prev.next_state

    def test_seeded_curves_and_totals_are_pinned(self):
        # Recorded before the training and evaluation loops shared one
        # rollout; a change in RNG draw order or in how rewards are summed
        # moves these digits.
        env = make_env(self._demand(np.random.default_rng(3), 300))
        sched = dict(eps_start=1.0, eps_end=0.05, eps_decay_steps=100)
        table = QTable(alpha=0.5)
        tab = train_tabular(env, table, GRID,
                            TabQConfig(train_episodes=6, **sched), seed=11)
        agent = make_agent(seed=5, sync_period=50, train_episodes=2, **sched)
        dqn = train_dqn(env, agent, seed=12)
        assert repr(tab) == (
            "{'mean_q': [0.03131916401707506, 0.0021480566231308023, "
            "0.0034198642397571745, 0.003767630769101513, "
            "0.0017485963474918377, 0.0003526028463087755], "
            "'reward': [9.019919236917618, 0.6229364207079326, "
            "0.9917606295295807, 1.0926129230394388, 0.5070929407726329, "
            "0.1022548254295449]}")
        assert repr(dqn) == (
            "{'mean_q': [0.173108625838616, 1.0147254909312469], "
            "'loss': [0.08267825548730462, 0.1543920562931012], "
            "'reward': [55.42654224569508, 74.74760486748403]}")
        assert agent.env_steps == 313 and len(table.values) == 869
        fixed = evaluate_policy(env, FixedPolicy(env), 3, seed=3)
        tabq = evaluate_policy(
            env, greedy(partial(tabular_q_values, table, GRID)), 3, seed=3)
        dqn_eval = evaluate_policy(env, greedy(agent.q_values), 3, seed=3)
        assert repr(fixed) == ("(75.46529326909601, [75.46529326909601, "
                               "75.46529326909601, 75.46529326909601])")
        assert repr(tabq) == "(0.0, [0.0, 0.0, 0.0])"
        assert repr(dqn_eval) == ("(74.27908952087664, [74.27908952087664, "
                                  "74.27908952087664, 74.27908952087664])")
