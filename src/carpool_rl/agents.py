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

import copy
import csv
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geo import Bbox, GridSpec, SECONDS_PER_DAY, bin_location, bin_time
from .nn import Mlp, TrainConfig, copy_weights
from .simulator import Action, CarpoolEnv, DriverState, Transition, _as_rng

Policy = Callable[[DriverState], Action]

N_ACTIONS = len(Action)


def state_cell(state: DriverState, grid: GridSpec) -> tuple[int, int, int]:
    """Space-time grid cell of a driver state."""
    i, j, _ = bin_location(state.location, grid)
    tb = bin_time(state.time_of_day, state.is_weekend, grid)
    return (i, j, tb)


@dataclass
class QTable:
    """Sparse state-action value table; missing entries read as zero."""

    alpha: float = 0.1
    gamma: float = 0.95
    alpha_decay: bool = False  # use 1/visit-count step sizes instead of alpha
    values: dict = field(default_factory=dict)
    visits: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        if not 0 <= self.gamma < 1:
            raise ValueError("gamma must lie in [0, 1)")

    def get(self, cell, action: Action) -> float:
        return self.values.get((cell, int(action)), 0.0)

    def q_values(self, cell) -> np.ndarray:
        return np.array([self.get(cell, a) for a in Action])


def tabular_update(table: QTable, tr: Transition, grid: GridSpec) -> float:
    """One temporal-difference backup; returns the updated value.

    Terminal next states bootstrap with zero.
    """
    cell = state_cell(tr.state, grid)
    key = (cell, int(tr.action))
    q = table.values.get(key, 0.0)
    boot = 0.0 if tr.done else float(np.max(table.q_values(state_cell(tr.next_state, grid))))
    if table.alpha_decay:
        n = table.visits.get(key, 0) + 1
        table.visits[key] = n
        step = 1.0 / n
    else:
        step = table.alpha
    new = q + step * (tr.reward + table.gamma * boot - q)
    table.values[key] = new
    return new


def save_qtable(table: QTable, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["lat_bin", "lon_bin", "time_bin", "action", "value"])
        for (cell, action), value in sorted(table.values.items()):
            w.writerow([cell[0], cell[1], cell[2], Action(action).name,
                        repr(value)])


def load_qtable(path, alpha: float = 0.1, gamma: float = 0.95) -> QTable:
    table = QTable(alpha=alpha, gamma=gamma)
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            cell = (int(row["lat_bin"]), int(row["lon_bin"]), int(row["time_bin"]))
            table.values[(cell, int(Action[row["action"]]))] = float(row["value"])
    return table


def select_action(q_values, epsilon: float, rng: np.random.Generator) -> Action:
    """Epsilon-greedy choice; greedy ties break toward the lowest action index
    (WAIT < TAKE_ONE < TAKE_TWO)."""
    if not 0 <= epsilon <= 1:
        raise ValueError("epsilon must lie in [0, 1]")
    if epsilon > 0 and rng.random() < epsilon:
        return Action(int(rng.integers(N_ACTIONS)))
    return Action(int(np.argmax(np.asarray(q_values))))


class ReplayMemory:
    """Bounded FIFO of transitions with uniform sampling."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items: list[Transition] = []
        self._next = 0  # ring-buffer write position once full

    def push(self, tr: Transition) -> None:
        if len(self._items) < self.capacity:
            self._items.append(tr)
        else:
            self._items[self._next] = tr  # overwrite the oldest
            self._next = (self._next + 1) % self.capacity

    def __len__(self) -> int:
        return len(self._items)

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[Transition]:
        if len(self._items) == 0:
            raise ValueError("cannot sample from an empty memory")
        idx = rng.integers(len(self._items), size=batch_size)
        return [self._items[i] for i in idx]


@dataclass(frozen=True)
class EpsilonSchedule:
    """Linear decay from start to end over the first decay_steps steps."""

    start: float = 1.0
    end: float = 0.05
    decay_steps: int = 20_000

    def value(self, step: int) -> float:
        if self.decay_steps <= 0 or step >= self.decay_steps:
            return self.end
        frac = step / self.decay_steps
        return self.start + (self.end - self.start) * frac


class DqnAgent:
    """Double-DQN over (lat, lon, time-of-day) with one Q output per action."""

    def __init__(self, region: Bbox, cfg: TrainConfig,
                 hidden: tuple[int, ...] = (64, 64), gamma: float = 0.95,
                 replay_capacity: int = 100_000,
                 epsilon: EpsilonSchedule = EpsilonSchedule(),
                 sync_period: int = 1000):
        if not 0 <= gamma < 1:
            raise ValueError("gamma must lie in [0, 1)")
        rng = np.random.default_rng(cfg.seed)
        self.online = Mlp([3, *hidden, N_ACTIONS], rng=rng)
        self.target = copy.deepcopy(self.online)
        self.cfg = cfg
        self.gamma = gamma
        self.region = region
        self.replay = ReplayMemory(replay_capacity)
        self.epsilon = epsilon
        self.sync_period = sync_period
        self.steps_since_sync = 0
        self.env_steps = 0
        self._lat0 = region.lat_min
        self._lon0 = region.lon_min
        self._lat_span = max(region.lat_max - region.lat_min, 1e-9)
        self._lon_span = max(region.lon_max - region.lon_min, 1e-9)

    def features(self, state: DriverState) -> np.ndarray:
        return np.array([
            (state.location.lat - self._lat0) / self._lat_span,
            (state.location.lon - self._lon0) / self._lon_span,
            state.time_of_day / SECONDS_PER_DAY,
        ])

    def _features_batch(self, states) -> np.ndarray:
        return np.stack([self.features(s) for s in states])

    def q_values(self, state: DriverState) -> np.ndarray:
        out, _ = self.online.forward(self.features(state))
        return out

    def act(self, state: DriverState, eps: float, rng: np.random.Generator) -> Action:
        return select_action(self.q_values(state), eps, rng)

    def compute_targets(self, batch: list[Transition]) -> np.ndarray:
        """Double-DQN bootstrap: online net picks the action, target net
        scores it; terminal transitions use the bare reward."""
        ns = self._features_batch([tr.next_state for tr in batch])
        online_next, _ = self.online.forward(ns)
        best = np.argmax(online_next, axis=1)
        target_next, _ = self.target.forward(ns)
        boot = target_next[np.arange(len(batch)), best]
        rewards = np.array([tr.reward for tr in batch])
        live = np.array([0.0 if tr.done else 1.0 for tr in batch])
        return rewards + self.gamma * boot * live

    def train_step(self, batch: list[Transition]) -> tuple[float, float]:
        """One SGD step of the bootstrapped regression; returns the
        pre-update mean loss and the minibatch mean Q of the taken actions."""
        y = self.compute_targets(batch)
        s = self._features_batch([tr.state for tr in batch])
        acts = np.array([int(tr.action) for tr in batch])
        q_all, cache = self.online.forward(s)
        rows = np.arange(len(batch))
        q_sel = q_all[rows, acts]
        diff = q_sel - y
        loss = float(np.sum(diff * diff) / (2.0 * len(batch)))
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite DQN loss: {loss}")
        grad_out = np.zeros_like(q_all)
        grad_out[rows, acts] = diff / len(batch)
        grads, _ = self.online.backward(cache, grad_out)
        self.online.apply_gradients(grads, self.cfg.learning_rate)
        return loss, float(q_sel.mean())

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


class GreedyTabularPolicy:
    def __init__(self, table: QTable, grid: GridSpec):
        self.table = table
        self.grid = grid

    def __call__(self, state: DriverState) -> Action:
        return Action(int(np.argmax(self.table.q_values(state_cell(state, self.grid)))))


class GreedyDqnPolicy:
    def __init__(self, agent: DqnAgent):
        self.agent = agent

    def __call__(self, state: DriverState) -> Action:
        return Action(int(np.argmax(self.agent.q_values(state))))


@dataclass
class EpisodeResult:
    cumulative_reward: float
    step_count: int
    action_counts: dict
    transitions: list[Transition]


def run_episode(env: CarpoolEnv, policy: Policy, rng=None) -> EpisodeResult:
    """Roll one full day under the given policy."""
    state = env.reset(rng)
    total = 0.0
    counts = {a: 0 for a in Action}
    transitions: list[Transition] = []
    while True:
        action = policy(state)
        tr = env.step(state, action)
        total += tr.reward
        counts[action] += 1
        transitions.append(tr)
        state = tr.next_state
        if tr.done:
            break
    return EpisodeResult(total, len(transitions), counts, transitions)


@dataclass
class DqnTrainResult:
    agent: DqnAgent
    mean_q: list[float]          # per episode, averaged over its minibatches
    loss: list[float]            # per episode mean
    episode_rewards: list[float]


def train_dqn(env: CarpoolEnv, agent: DqnAgent, episodes: int,
              seed=None) -> DqnTrainResult:
    """Epsilon-greedy rollouts feeding the replay, one train step per
    environment step once the replay holds a full batch, with periodic
    target sync."""
    rng = _as_rng(seed)
    mean_q, losses, rewards = [], [], []
    for _ in range(episodes):
        state = env.reset(rng)
        ep_q, ep_loss, ep_reward = [], [], 0.0
        while True:
            eps = agent.epsilon.value(agent.env_steps)
            action = agent.act(state, eps, rng)
            tr = env.step(state, action)
            agent.replay.push(tr)
            agent.env_steps += 1
            if len(agent.replay) >= agent.cfg.batch_size:
                loss, mq = agent.train_step(
                    agent.replay.sample(agent.cfg.batch_size, rng))
                ep_q.append(mq)
                ep_loss.append(loss)
                agent.steps_since_sync += 1
                if agent.steps_since_sync >= agent.sync_period:
                    agent.sync_target()
            ep_reward += tr.reward
            state = tr.next_state
            if tr.done:
                break
        mean_q.append(float(np.mean(ep_q)) if ep_q else float("nan"))
        losses.append(float(np.mean(ep_loss)) if ep_loss else float("nan"))
        rewards.append(ep_reward)
    return DqnTrainResult(agent, mean_q, losses, rewards)


@dataclass
class TabularTrainResult:
    table: QTable
    mean_q: list[float]          # per episode, over that episode's backups
    episode_rewards: list[float]


def train_tabular(env: CarpoolEnv, table: QTable, grid: GridSpec,
                  episodes: int, seed=None,
                  epsilon: EpsilonSchedule = EpsilonSchedule()) -> TabularTrainResult:
    """Epsilon-greedy tabular Q-learning over grid cells."""
    rng = _as_rng(seed)
    mean_q, rewards = [], []
    step = 0
    for _ in range(episodes):
        state = env.reset(rng)
        ep_values, ep_reward = [], 0.0
        while True:
            cell = state_cell(state, grid)
            action = select_action(table.q_values(cell), epsilon.value(step), rng)
            tr = env.step(state, action)
            ep_values.append(tabular_update(table, tr, grid))
            step += 1
            ep_reward += tr.reward
            state = tr.next_state
            if tr.done:
                break
        mean_q.append(float(np.mean(ep_values)) if ep_values else float("nan"))
        rewards.append(ep_reward)
    return TabularTrainResult(table, mean_q, rewards)


def evaluate_policy(env: CarpoolEnv, policy: Policy, episodes: int,
                    seed: int = 0) -> tuple[float, list[float]]:
    """Mean cumulative reward over seeded evaluation episodes."""
    totals = []
    for ep in range(episodes):
        rng = np.random.default_rng([seed, ep])
        totals.append(run_episode(env, policy, rng).cumulative_reward)
    return float(np.mean(totals)), totals
