"""Experiment orchestration: data preparation, training runs, reports, curves.

Everything here is driven by an :class:`~carpool_rl.config.ExperimentConfig`
and is deterministic given the config's seeds: rerunning the same config
yields byte-identical reports.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .agents import (DqnAgent, EpsilonSchedule, FixedPolicy, GreedyDqnPolicy,
                     GreedyTabularPolicy, QTable, evaluate_policy, train_dqn,
                     train_tabular, wait_policy)
from .config import ExperimentConfig, parse_region
from .eta import (ConstantSpeedEta, EtaArch, JointEtaModel, ModelEta,
                  evaluate, train_joint_eta, train_linear_time,
                  train_time_only)
from .geo import Bbox, GridSpec
from .nn import TrainConfig
from .simulator import CarpoolEnv, EnvConfig
from .synth import PRESETS, generate_synthetic
from .trips import ConfigError, TripStore, ingest_csv

ETA_METHODS = ("linear", "time_only", "joint")
METRIC_NAMES = ("mae", "mre", "medae", "medre", "r2")
POLICY_NAMES = ("wait", "fixed", "tabq", "dqn")
CURVE_METRICS = ("mean_q", "loss", "reward")


@dataclass
class PreparedData:
    store: TripStore
    region: Bbox
    grid: GridSpec
    csv_path: str
    rejections: dict


def prepare_data(cfg: ExperimentConfig) -> PreparedData:
    """Materialize the trip store described by the config's data section.

    Synthetic sources generate one file per requested day type (weekend
    demand gets its own derived seed) and merge them into a single store.
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    if cfg.data.kind == "synthetic":
        if cfg.data.preset not in PRESETS:
            raise ConfigError(f"unknown synthetic preset {cfg.data.preset!r}")
        records = []
        rejections: dict = {}
        paths = []
        for idx, day_type in enumerate(cfg.day_types):
            spec = PRESETS[cfg.data.preset](cfg.data.n_days, cfg.data.noisy,
                                            day_type)
            path = os.path.join(cfg.out_dir, f"synthetic_{day_type}.csv")
            generate_synthetic(spec, cfg.data.seed + idx, path)
            store, _, rej = ingest_csv(path)
            records.extend(store.records)
            for key, count in rej.items():
                rejections[key] = rejections.get(key, 0) + count
            paths.append(path)
        return PreparedData(TripStore(records), spec.region, spec.grid,
                            paths[0], rejections)

    if cfg.data.region is None:
        raise ConfigError("data.kind=csv requires data.region")
    region = (parse_region(cfg.data.region) if isinstance(cfg.data.region, str)
              else Bbox(*cfg.data.region))
    store, _, rejections = ingest_csv(cfg.data.csv_path)
    store = store.mask_region(region)
    grid = cfg.grid.build(region.lower_left)
    return PreparedData(store, region, grid, cfg.data.csv_path, rejections)


def eta_train_config(cfg: ExperimentConfig, seed: int) -> TrainConfig:
    """SGD settings of the learned travel-time estimators."""
    return TrainConfig(learning_rate=cfg.eta.learning_rate,
                       batch_size=cfg.eta.batch_size, epochs=cfg.eta.epochs,
                       seed=seed)


def fit_joint_eta(cfg: ExperimentConfig, train, grid: GridSpec,
                  seed: int) -> JointEtaModel:
    """Train the joint travel time/distance model the config describes."""
    return train_joint_eta(train, grid, eta_train_config(cfg, seed),
                           EtaArch(tuple(cfg.eta.dist_hidden),
                                   tuple(cfg.eta.time_hidden)))


def build_eta_source(cfg: ExperimentConfig, data: PreparedData, seed: int):
    if cfg.eta.kind == "speed":
        return ConstantSpeedEta(cfg.eta.speed_mph)
    return ModelEta(fit_joint_eta(cfg, data.store, data.grid, seed))


def build_env(cfg: ExperimentConfig, data: PreparedData, eta_source,
              day_type: str) -> CarpoolEnv:
    return CarpoolEnv(data.store, eta_source, EnvConfig(
        region=data.region, grid=data.grid,
        search_window=cfg.env.search_window,
        carpool_fraction=cfg.env.carpool_fraction,
        wait_delay=cfg.env.wait_delay, day_type=day_type))


def fit_tabq(cfg: ExperimentConfig, env: CarpoolEnv, seed: int):
    """Train the config's tabular Q-learner for one seed on ``env``.

    Returns the table and its learning curves, keyed by curve name.
    """
    table = QTable(alpha=cfg.tabq.alpha, gamma=cfg.tabq.gamma,
                   alpha_decay=cfg.tabq.alpha_decay)
    res = train_tabular(
        env, table, env.config.grid, cfg.tabq.train_episodes,
        seed=np.random.default_rng([seed, 1]),
        epsilon=EpsilonSchedule(cfg.tabq.eps_start, cfg.tabq.eps_end,
                                cfg.tabq.eps_decay_steps))
    tag = f"{env.config.day_type}_seed{seed}"
    return table, {f"tabq_mean_q_{tag}": res.mean_q,
                   f"tabq_reward_{tag}": res.episode_rewards}


def fit_dqn(cfg: ExperimentConfig, env: CarpoolEnv, seed: int):
    """Train the config's Double-DQN for one seed on ``env``.

    Returns the agent and its learning curves, keyed by curve name.
    """
    agent = DqnAgent(
        env.config.region,
        TrainConfig(learning_rate=cfg.dqn.learning_rate,
                    batch_size=cfg.dqn.batch_size, epochs=1, seed=seed),
        hidden=tuple(cfg.dqn.hidden), gamma=cfg.dqn.gamma,
        replay_capacity=cfg.dqn.replay_capacity,
        epsilon=EpsilonSchedule(cfg.dqn.eps_start, cfg.dqn.eps_end,
                                cfg.dqn.eps_decay_steps),
        sync_period=cfg.dqn.sync_period)
    res = train_dqn(env, agent, cfg.dqn.train_episodes,
                    seed=np.random.default_rng([seed, 2]))
    tag = f"{env.config.day_type}_seed{seed}"
    return agent, {f"dqn_mean_q_{tag}": res.mean_q,
                   f"dqn_loss_{tag}": res.loss,
                   f"dqn_reward_{tag}": res.episode_rewards}


# -- estimator comparison ------------------------------------------------------

def run_eta_experiment(cfg: ExperimentConfig) -> dict:
    """Train the linear, time-only and joint estimators per seed and score
    them on the held-out split. Writes ``eta_metrics.csv``."""
    data = prepare_data(cfg)
    train, test = data.store.train_test_split(cfg.eta.split_ratio,
                                              cfg.eta.split_seed)
    results: dict = {m: {"per_seed": []} for m in ETA_METHODS}
    for seed in cfg.seeds:
        linear = train_linear_time(train)
        time_only = train_time_only(train, data.grid,
                                    eta_train_config(cfg, seed))
        joint = fit_joint_eta(cfg, train, data.grid, seed)
        for name, fn in (("linear", linear.predict),
                         ("time_only", time_only.predict),
                         ("joint", lambda q: joint.predict(q).travel_time)):
            m = evaluate(fn, test)
            results[name]["per_seed"].append(
                {k: getattr(m, k) for k in METRIC_NAMES})
    for name in ETA_METHODS:
        per_seed = results[name]["per_seed"]
        results[name]["mean"] = {
            k: float(np.mean([row[k] for row in per_seed])) for k in METRIC_NAMES}

    os.makedirs(cfg.out_dir, exist_ok=True)
    out_csv = os.path.join(cfg.out_dir, "eta_metrics.csv")
    with open(out_csv, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "seed", *METRIC_NAMES])
        for name in ETA_METHODS:
            for seed, row in zip(cfg.seeds, results[name]["per_seed"]):
                w.writerow([name, seed, *[repr(row[k]) for k in METRIC_NAMES]])
            w.writerow([name, "mean",
                        *[repr(results[name]["mean"][k]) for k in METRIC_NAMES]])
    results["csv_path"] = out_csv
    return results


# -- policy comparison ---------------------------------------------------------

@dataclass
class EvalReport:
    """Per-policy mean cumulative reward over seeds, per day type, plus
    pointers to the curve CSVs."""

    policies: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict)
    eta: dict | None = None
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"policies": self.policies, "curves": self.curves,
                "eta": self.eta, "config": self.config}

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path) -> "EvalReport":
        with open(path) as fh:
            d = json.load(fh)
        return cls(policies=d["policies"], curves=d["curves"],
                   eta=d.get("eta"), config=d.get("config", {}))


def emit_curves(curves: dict[str, list[float]], out_dir) -> dict[str, str]:
    """Write plot-ready CSVs, one (step, value) row per recorded point.

    ``curves`` maps a curve name to its values; the column name after
    ``step`` is the metric the curve name contains (mean_q / loss / reward).
    A name containing none of them raises ``ValueError``.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, values in sorted(curves.items()):
        col = next((m for m in CURVE_METRICS if m in name), None)
        if col is None:
            raise ValueError(f"curve {name!r} names none of {CURVE_METRICS}")
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w", newline="") as fh:
            fh.write(f"# {name}: one row per recorded point; "
                     f"columns step,{col}\n")
            w = csv.writer(fh)
            w.writerow(["step", col])
            for step, v in enumerate(values):
                w.writerow([step, repr(float(v))])
        paths[name] = path
    return paths


def validate_curve_csv(path) -> int:
    """Check a curve file parses back: comment line, two columns, float
    values. Returns the row count."""
    with open(path) as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise ValueError(f"{path}: missing column comment header")
        reader = csv.reader(fh)
        header = next(reader)
        if len(header) != 2 or header[0] != "step":
            raise ValueError(f"{path}: bad header {header}")
        n = 0
        for row in reader:
            int(row[0]); float(row[1])
            n += 1
    return n


def validate_report(d: dict) -> None:
    for key in ("policies", "curves", "config"):
        if key not in d:
            raise ValueError(f"report missing key {key!r}")
    for policy, per_day in d["policies"].items():
        if policy not in POLICY_NAMES:
            raise ValueError(f"unexpected policy {policy!r}")
        for day, cell in per_day.items():
            for k in ("mean", "std", "per_seed"):
                if k not in cell:
                    raise ValueError(f"policy {policy}/{day} missing {k!r}")
            if not all(isinstance(v, float) for v in cell["per_seed"]):
                raise ValueError(f"policy {policy}/{day} per_seed not floats")


def run_policy_experiment(cfg: ExperimentConfig) -> EvalReport:
    """Train tabular Q and DQN per seed, evaluate all policies greedily,
    and write ``report.json`` plus the learning-curve CSVs."""
    data = prepare_data(cfg)
    report = EvalReport(config=cfg.to_dict())
    curve_data: dict[str, list[float]] = {}

    for day_type in cfg.day_types:
        eta_source = build_eta_source(cfg, data, cfg.seeds[0])
        env = build_env(cfg, data, eta_source, day_type)
        per_policy: dict[str, list[float]] = {p: [] for p in POLICY_NAMES}

        for seed in cfg.seeds:
            table, tab_curves = fit_tabq(cfg, env, seed)
            agent, dqn_curves = fit_dqn(cfg, env, seed)
            curve_data.update(tab_curves)
            curve_data.update(dqn_curves)

            policies = {
                "wait": wait_policy,
                "fixed": FixedPolicy(env),
                "tabq": GreedyTabularPolicy(table, data.grid),
                "dqn": GreedyDqnPolicy(agent),
            }
            for name, policy in policies.items():
                mean, _ = evaluate_policy(env, policy, cfg.eval_episodes,
                                          seed=seed)
                per_policy[name].append(mean)

        for name in POLICY_NAMES:
            vals = per_policy[name]
            report.policies.setdefault(name, {})[day_type] = {
                "mean": float(np.mean(vals)),
                "std": float(np.std(vals)),
                "per_seed": [float(v) for v in vals],
            }

    curve_dir = os.path.join(cfg.out_dir, "curves")
    report.curves = emit_curves(curve_data, curve_dir)
    for path in report.curves.values():
        validate_curve_csv(path)
    validate_report(report.to_dict())
    report.save(os.path.join(cfg.out_dir, "report.json"))
    return report
