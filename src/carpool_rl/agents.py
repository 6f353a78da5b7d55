"""Dispatch policies over the carpool environment.

Three learners/baselines: a lookup-table Q-learner over space-time grid
cells, a Double-DQN with uniform replay and a periodically synchronized
target network, and the fixed baseline that always carpools when it can.

The DQN sees (lat, lon, seconds-of-day) rescaled to [0, 1] by the region
box and the day length. Rescaling is affine per input, so greedy action
choices are unchanged relative to feeding raw values; raw degree/second
magnitudes would stall plain SGD.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .config import DqnConfig, TabQConfig
from .geo import Bbox, GridSpec, SECONDS_PER_DAY, bin_time, cell_index
# Unused here; kept bound because perfbench/spans.py wraps agents.bin_location.
from .geo import bin_location  # noqa: F401
from .nn import Mlp, copy_weights, half_mse
from .simulator import Action, CarpoolEnv, DriverState, Transition

Policy = Callable[[DriverState], Action]
Curves = dict[str, list[float]]  # per-episode values keyed by curve metric

N_ACTIONS = len(Action)
N_FEATURES = 3  # DqnAgent.features: lat, lon, time of day


def state_cell(state: DriverState, grid: GridSpec) -> tuple[int, int, int]:
    """Space-time grid cell of a driver state: its location's cell and its
    time-of-day bin (the weekday bins; a table learns one env's day)."""
    return (*cell_index(state.location, grid),
            bin_time(state.time_of_day, False, grid))


@dataclass
class QTable:
    """Sparse action values per grid cell of a state, zero when missing;
    ``cfg`` holds every setting it and :func:`train_tabular` read."""

    cfg: TabQConfig
    grid: GridSpec
    values: dict = field(default_factory=dict)

    def q_values(self, state: DriverState) -> tuple[float, float, float]:
        """The values of WAIT, TAKE_ONE and TAKE_TWO at the grid cell of
        ``state``."""
        cell = state_cell(state, self.grid)
        get = self.values.get
        return get((cell, 0), 0.0), get((cell, 1), 0.0), get((cell, 2), 0.0)


def tabular_update(table: QTable, tr: Transition) -> float:
    """One temporal-difference backup; returns the updated value.

    Terminal next states bootstrap with zero.
    """
    key = (state_cell(tr.state, table.grid), int(tr.action))
    q = table.values.get(key, 0.0)
    boot = 0.0 if tr.done else max(table.q_values(tr.next_state))
    new = q + table.cfg.alpha * (tr.reward + table.cfg.gamma * boot - q)
    table.values[key] = new
    return new


def save_qtable(table: QTable, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["lat_bin", "lon_bin", "time_bin", "action", "value"])
        for (cell, action), value in sorted(table.values.items()):
            w.writerow([cell[0], cell[1], cell[2], Action(action).name,
                        repr(value)])


def select_action(q_values: Callable[[DriverState], np.ndarray],
                  state: DriverState, epsilon: float,
                  rng: np.random.Generator) -> Action:
    """Epsilon-greedy choice at ``state``. ``q_values`` is a state →
    action-values function, as for :func:`greedy`; it is called only on a
    greedy draw, so an exploring step computes no values. Greedy ties break
    toward the lowest action index (WAIT < TAKE_ONE < TAKE_TWO)."""
    if not 0 <= epsilon <= 1:
        raise ValueError("epsilon must lie in [0, 1]")
    if epsilon > 0 and rng.random() < epsilon:
        return Action(int(rng.integers(N_ACTIONS)))
    return Action(int(np.argmax(q_values(state))))


class ReplayMemory:
    """Bounded FIFO of featurized transitions with uniform sampling.

    Each column (state features, action, reward, next-state features and a
    live flag that is 0 on the transition closing a day) is one array
    preallocated with ``np.empty`` at ``capacity`` rows. ``np.empty`` pages
    lazily, so a row costs memory only once it is written. Once full, each
    push overwrites the oldest row.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.states = np.empty((capacity, N_FEATURES))
        self.actions = np.empty(capacity, dtype=np.intp)
        self.rewards = np.empty(capacity)
        self.next_states = np.empty((capacity, N_FEATURES))
        self.live = np.empty(capacity)
        self._size = 0
        self._next = 0  # ring-buffer write position

    def push(self, state: np.ndarray, action: int, reward: float,
             next_state: np.ndarray, live: bool) -> None:
        i = self._next
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_states[i] = next_state
        self.live[i] = live
        self._next = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def __len__(self) -> int:
        return self._size

    def sample(self, batch_size: int, rng: np.random.Generator) -> tuple:
        """``batch_size`` rows drawn uniformly with replacement, as the
        arrays ``(states, actions, rewards, next_states, live)``."""
        if self._size == 0:
            raise ValueError("cannot sample from an empty memory")
        idx = rng.integers(self._size, size=batch_size)
        return (self.states.take(idx, axis=0), self.actions[idx], self.rewards[idx],
                self.next_states.take(idx, axis=0), self.live[idx])


def epsilon(cfg: DqnConfig | TabQConfig, step: int) -> float:
    """Exploration rate after ``step`` environment steps: linear from
    ``cfg.eps_start`` to ``cfg.eps_end`` over the first
    ``cfg.eps_decay_steps`` steps, then constant."""
    if step >= cfg.eps_decay_steps:
        return cfg.eps_end
    frac = step / cfg.eps_decay_steps
    return cfg.eps_start + (cfg.eps_end - cfg.eps_start) * frac


class DqnAgent:
    """Double-DQN over (lat, lon, time-of-day) with one Q output per action;
    ``cfg`` holds every setting it and :func:`train_dqn` read. Its replay
    holds transitions already featurized, so a train step works on array
    slices only."""

    def __init__(self, region: Bbox, cfg: DqnConfig, seed: int):
        rng = np.random.default_rng(seed)
        self.online = Mlp([N_FEATURES, *cfg.hidden, N_ACTIONS], rng=rng)
        self.target = Mlp(self.online.layer_sizes)
        copy_weights(self.online, self.target)
        self.cfg = cfg
        self.region = region
        self.replay = ReplayMemory(cfg.replay_capacity)
        self.steps_since_sync = 0
        self.env_steps = 0
        self._lat_span = max(region.lat_max - region.lat_min, 1e-9)
        self._lon_span = max(region.lon_max - region.lon_min, 1e-9)

    def features(self, state: DriverState) -> np.ndarray:
        return np.array([
            (state.location.lat - self.region.lat_min) / self._lat_span,
            (state.location.lon - self.region.lon_min) / self._lon_span,
            state.time_of_day / SECONDS_PER_DAY,
        ])

    def q_values(self, state: DriverState) -> np.ndarray:
        return self.online.forward_rows(self.features(state)[None, :])[0]

    def act(self, state: DriverState, eps: float, rng: np.random.Generator) -> Action:
        return select_action(self.q_values, state, eps, rng)

    def remember(self, tr: Transition) -> None:
        """Featurize ``tr`` and push it to the replay."""
        self.replay.push(self.features(tr.state), int(tr.action), tr.reward,
                         self.features(tr.next_state), not tr.done)

    def compute_targets(self, rewards: np.ndarray, online_next: np.ndarray,
                        next_states: np.ndarray, live: np.ndarray) -> np.ndarray:
        """Double-DQN bootstrap: the online net's next-state Q
        ``online_next`` picks the action, the target net scores it; terminal
        transitions (``live`` 0) use the bare reward."""
        best = np.argmax(online_next, axis=1)
        target_next, _ = self.target.forward(next_states)
        boot = target_next[np.arange(len(rewards)), best]
        return rewards + self.cfg.gamma * boot * live

    def train_step(self, states: np.ndarray, actions: np.ndarray,
                   rewards: np.ndarray, next_states: np.ndarray,
                   live: np.ndarray) -> tuple[float, float]:
        """One SGD step of the bootstrapped regression on a batch in the
        form :meth:`ReplayMemory.sample` returns; returns the pre-update
        mean loss and the minibatch mean Q of the taken actions.

        One online forward runs over ``[states; next_states]``: rows ``n:``
        pick the targets' actions, and the backward runs on the cache cut
        to rows ``:n``. That equals two ``n``-row forwards bit for bit only
        at the batch sizes where the BLAS rounds each row of the ``2n``-row
        product as in the ``n``-row one; ``tests/test_agents.py`` pins the
        sizes the package and its tests train with."""
        n = len(actions)
        q_all, (inputs, zs) = self.online.forward(
            np.concatenate([states, next_states]))
        y = self.compute_targets(rewards, q_all[n:], next_states, live)
        rows = np.arange(n)
        q_sel = q_all[rows, actions]
        loss, g_sel = half_mse(q_sel, y)
        grad_out = np.zeros((n, N_ACTIONS))
        grad_out[rows, actions] = g_sel
        self.online.backward(([a[:n] for a in inputs], [z[:n] for z in zs]),
                             grad_out)
        self.online.apply_gradients(self.cfg.learning_rate)
        return loss, float(np.add.reduce(q_sel) / n)

    def sync_target(self) -> None:
        copy_weights(self.online, self.target)
        self.steps_since_sync = 0


class FixedPolicy:
    """Always carpool when both assignments would succeed, else take a single
    trip when one is reachable, else wait."""

    def __init__(self, env: CarpoolEnv):
        self.env = env

    def __call__(self, state: DriverState) -> Action:
        if not self.env.can_take_one(state):
            return Action.WAIT
        if self.env.can_take_two(state):
            return Action.TAKE_TWO
        return Action.TAKE_ONE


def wait_policy(state: DriverState) -> Action:
    return Action.WAIT


def greedy(q_values: Callable[[DriverState], np.ndarray]) -> Policy:
    """The policy taking the highest-valued action under ``q_values``; ties
    break toward the lowest action index."""
    return lambda state: Action(int(np.argmax(q_values(state))))


def rollout(env: CarpoolEnv, policy: Policy,
            rng: np.random.Generator) -> Iterator[Transition]:
    """Reset the env with ``rng`` and yield each transition of the day under
    ``policy``, ending with the one that closes it. The policy acts before
    each step; a caller's work on a yielded transition runs after it."""
    state = env.reset(rng)
    while True:
        tr = env.step(state, policy(state))
        yield tr
        if tr.done:
            return
        state = tr.next_state


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else float("nan")


def train_dqn(env: CarpoolEnv, agent: DqnAgent,
              rng: np.random.Generator) -> Curves:
    """``agent.cfg.train_episodes`` epsilon-greedy rollouts feeding the
    replay, one train step per environment step once the replay holds a
    full batch, with a target sync every ``agent.cfg.sync_period`` train
    steps. Curves: ``mean_q`` and ``loss`` averaged over the episode's
    train steps (nan before the first), and the episode ``reward``."""
    cfg = agent.cfg

    def policy(state: DriverState) -> Action:
        return agent.act(state, epsilon(cfg, agent.env_steps), rng)

    curves = {"mean_q": [], "loss": [], "reward": []}
    for _ in range(cfg.train_episodes):
        ep_q, ep_loss, ep_reward = [], [], 0.0
        for tr in rollout(env, policy, rng):
            agent.remember(tr)
            agent.env_steps += 1
            if len(agent.replay) >= cfg.batch_size:
                loss, mq = agent.train_step(
                    *agent.replay.sample(cfg.batch_size, rng))
                ep_q.append(mq)
                ep_loss.append(loss)
                agent.steps_since_sync += 1
                if agent.steps_since_sync >= cfg.sync_period:
                    agent.sync_target()
            ep_reward += tr.reward
        curves["mean_q"].append(_mean(ep_q))
        curves["loss"].append(_mean(ep_loss))
        curves["reward"].append(ep_reward)
    return curves


def train_tabular(env: CarpoolEnv, table: QTable,
                  rng: np.random.Generator) -> Curves:
    """``table.cfg.train_episodes`` episodes of epsilon-greedy tabular
    Q-learning over grid cells. Curves: ``mean_q`` averaged over the
    episode's backed-up values, and the episode ``reward``."""
    cfg = table.cfg
    step = 0

    def policy(state: DriverState) -> Action:
        return select_action(table.q_values, state, epsilon(cfg, step), rng)

    curves = {"mean_q": [], "reward": []}
    for _ in range(cfg.train_episodes):
        ep_values, ep_reward = [], 0.0
        for tr in rollout(env, policy, rng):
            ep_values.append(tabular_update(table, tr))
            step += 1
            ep_reward += tr.reward
        curves["mean_q"].append(_mean(ep_values))
        curves["reward"].append(ep_reward)
    return curves


def evaluate_policy(env: CarpoolEnv, policy: Policy, episodes: int,
                    seed: int = 0) -> tuple[float, list[float]]:
    """Mean cumulative reward over seeded evaluation episodes."""
    totals = []
    for ep in range(episodes):
        total = 0.0
        for tr in rollout(env, policy, np.random.default_rng([seed, ep])):
            total += tr.reward
        totals.append(total)
    return float(np.mean(totals)), totals
