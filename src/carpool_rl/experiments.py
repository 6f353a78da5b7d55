"""Experiment orchestration: data preparation, training runs, reports, curves.

Everything here is driven by an :class:`~carpool_rl.config.ExperimentConfig`
and is deterministic given the config's seeds: rerunning the same config
yields byte-identical reports.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .agents import (Curves, DqnAgent, FixedPolicy, QTable, evaluate_policy,
                     greedy, train_dqn, train_tabular, wait_policy)
from .config import ExperimentConfig
from .eta import (ConstantSpeedEta, EtaMetrics, ModelEta, evaluate,
                  train_joint_eta, train_linear_time, train_time_only)
from .geo import Bbox, GridSpec
from .nn import json_object
from .simulator import CarpoolEnv
from .synth import PRESETS, generate_synthetic
from .trips import DAY_TYPES, REJECT_KEYS, TripStore, ingest_csv

ETA_METHODS = ("linear", "time_only", "joint")
METRIC_NAMES = tuple(f.name for f in fields(EtaMetrics))
POLICY_NAMES = ("wait", "fixed", "tabq", "dqn")
CURVE_METRICS = ("mean_q", "loss", "reward")


@dataclass
class PreparedData:
    """The run's trip store and grid. ``rejections`` counts the source rows
    dropped, per ingest rule (``trips.REJECT_KEYS``) and under ``"region"``
    for csv rows outside ``data.region``."""

    store: TripStore
    region: Bbox
    grid: GridSpec
    rejections: dict


def prepare_data(cfg: ExperimentConfig) -> PreparedData:
    """Materialize the trip store described by the config's data section.

    Synthetic sources generate one file per requested day type, seeded by
    ``data.seed`` plus the day's index in ``trips.DAY_TYPES``, and merge
    them into a single store.
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    if cfg.data.kind == "synthetic":
        records = []
        rejections = {"region": 0}
        for day_type in cfg.day_types:
            spec = PRESETS[cfg.data.preset](cfg.data.n_days, cfg.data.noisy,
                                            day_type)
            path = os.path.join(cfg.out_dir, f"synthetic_{day_type}.csv")
            generate_synthetic(spec, cfg.data.seed + DAY_TYPES.index(day_type), path)
            store, rej = ingest_trips(path)
            records.extend(store.records)
            for key, count in rej.items():
                rejections[key] = rejections.get(key, 0) + count
        store, region = TripStore(records), spec.region
    else:
        region = cfg.data.bbox()
        store, rejections = ingest_trips(cfg.data.csv_path, region)
    return PreparedData(store, region, cfg.grid.build(region.lower_left),
                        rejections)


def ingest_trips(path, region: Bbox | None = None) -> tuple[TripStore, dict]:
    """The csv ``path``'s trips that pass every ingest rule and lie in ``region``
    (if given), and the rows dropped per rule, plus ``"region"`` given a region."""
    ingested, _, rejections = ingest_csv(path)
    if region is None:
        return ingested, rejections
    store = ingested.mask_region(region)
    return store, {**rejections, "region": len(ingested) - len(store)}


def build_eta_source(cfg: ExperimentConfig, data: PreparedData, seed: int):
    if cfg.eta.kind == "speed":
        return ConstantSpeedEta(cfg.eta.speed_mph)
    return ModelEta(train_joint_eta(data.store, data.grid, cfg.eta, seed))


def build_env(cfg: ExperimentConfig, data: PreparedData, eta_source,
              day_type: str) -> CarpoolEnv:
    return CarpoolEnv(data.store, eta_source, data.region, data.grid, cfg.env,
                      day_type)


def curve_set(policy: str, env: CarpoolEnv, seed: int, curves: Curves) -> Curves:
    """Name each curve ``<policy>_<metric>_<day type>_seed<seed>``."""
    tag = f"{env.day_type}_seed{seed}"
    return {f"{policy}_{metric}_{tag}": v for metric, v in curves.items()}


def fit_tabq(cfg: ExperimentConfig, env: CarpoolEnv, seed: int):
    """Train the config's tabular Q-learner for one seed on ``env``;
    returns the table and its named learning curves."""
    table = QTable(cfg.tabq, env.grid)
    curves = train_tabular(env, table, np.random.default_rng([seed, 1]))
    return table, curve_set("tabq", env, seed, curves)


def fit_dqn(cfg: ExperimentConfig, env: CarpoolEnv, seed: int):
    """Train the config's Double-DQN for one seed on ``env``; returns the
    agent and its named learning curves."""
    agent = DqnAgent(env.region, cfg.dqn, seed)
    curves = train_dqn(env, agent, np.random.default_rng([seed, 2]))
    return agent, curve_set("dqn", env, seed, curves)


# -- estimator comparison ------------------------------------------------------

def run_eta_experiment(cfg: ExperimentConfig) -> dict:
    """Train the linear, time-only and joint estimators per seed and score
    them on the held-out split. Writes ``eta_metrics.csv``."""
    data = prepare_data(cfg)
    train, test = data.store.train_test_split(cfg.eta.split_ratio,
                                              cfg.eta.split_seed)
    results: dict = {m: {"per_seed": []} for m in ETA_METHODS}
    linear = train_linear_time(train)  # closed form: the same for every seed
    for seed in cfg.seeds:
        time_only = train_time_only(train, data.grid, cfg.eta, seed)
        joint = train_joint_eta(train, data.grid, cfg.eta, seed)
        for name, fn in (("linear", linear.predict_batch),
                         ("time_only", time_only.predict_batch),
                         ("joint", lambda qs: joint.predict_batch(qs)[0])):
            results[name]["per_seed"].append(asdict(evaluate(fn, test)))
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
    pointers to the curve CSVs. ``data`` holds the trips kept and the rows
    rejected per rule (:attr:`PreparedData.rejections`)."""

    policies: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path) -> "EvalReport":
        with open(path) as fh:
            d = json.load(fh)
        validate_report(d)
        return cls(d["policies"], d["curves"], d["config"], d["data"])


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
    """Check a curve file is what :func:`emit_curves` writes: a comment
    line, the header ``step,<one of CURVE_METRICS>``, then rows of the row
    index and a float (``nan`` included). Returns the row count; a
    ``ValueError`` names the file and the line of the first fault."""
    with open(path) as fh:
        if not fh.readline().startswith("#"):
            raise ValueError(f"{path}: line 1: missing column comment header")
        reader = csv.reader(fh)
        header = next(reader, [])
        if header not in (["step", metric] for metric in CURVE_METRICS):
            raise ValueError(f"{path}: line 2: header {header} is not step and a curve metric")
        n = 0
        for n, row in enumerate(reader, 1):
            where = f"{path}: line {reader.line_num + 1}"
            if len(row) != 2:
                raise ValueError(f"{where}: {len(row)} fields, not 2: {row}")
            if row[0] != str(n - 1):
                raise ValueError(f"{where}: step {row[0]!r} is not the row index {n - 1}")
            try:
                float(row[1])
            except ValueError:
                raise ValueError(f"{where}: value {row[1]!r} is not a float") from None
    return n


def validate_report(d) -> None:
    """Check a loaded ``report.json``: a ``ValueError`` names the file and
    the first part that :meth:`EvalReport.save` would not have written,
    such as a day outside ``trips.DAY_TYPES``, a rejection key outside
    ``trips.REJECT_KEYS`` and ``"region"``, or a negative count."""
    where = "report.json"
    json_object(d, where, policies=dict, curves=dict, config=dict, data=dict)
    policies, curves = d["policies"], d["curves"]
    json_object(curves, f"{where} curves", **dict.fromkeys(curves, str))
    data = json_object(d["data"], f"{where} data", kept=int, rejected=dict)
    rejected = json_object(data["rejected"], f"{where} data/rejected",
                           **dict.fromkeys(data["rejected"], int))
    if data["kept"] < 0:
        raise ValueError(f"{where} data: 'kept' is negative: {data['kept']}")
    for key, count in rejected.items():
        if key not in REJECT_KEYS and key != "region":
            raise ValueError(f"{where} data/rejected: unexpected key {key!r}")
        if count < 0:
            raise ValueError(f"{where} data/rejected: {key!r} is negative: {count}")
    json_object(policies, f"{where} policies", **dict.fromkeys(policies, dict))
    for policy, per_day in policies.items():
        if policy not in POLICY_NAMES:
            raise ValueError(f"{where} policies: unexpected policy {policy!r}")
        json_object(per_day, f"{where} policies/{policy}",
                    **dict.fromkeys(per_day, dict))
        for day, cell in per_day.items():
            path = f"{where} policies/{policy}/{day}"
            if day not in DAY_TYPES:
                raise ValueError(f"{where} policies/{policy}: unexpected day {day!r}")
            json_object(cell, path, mean=float, std=float, per_seed=[float])
            for k in ("mean", "std", "per_seed"):
                values = cell[k] if k == "per_seed" else [cell[k]]
                if not all(type(v) is float and math.isfinite(v) for v in values):
                    raise ValueError(f"{path}: {k!r} holds {cell[k]!r}, not finite floats")


def run_policy_experiment(cfg: ExperimentConfig) -> EvalReport:
    """Train tabular Q and DQN per seed, evaluate all policies greedily,
    and write ``report.json`` plus the learning-curve CSVs."""
    data = prepare_data(cfg)
    report = EvalReport(config=cfg.to_dict(),
                        data={"kept": len(data.store),
                              "rejected": data.rejections})
    curve_data: dict[str, list[float]] = {}

    # One travel-time source for every day type: the time bin carries the
    # weekend offset, so weekday and weekend legs never share a memo key.
    eta_source = build_eta_source(cfg, data, cfg.seeds[0])
    for day_type in cfg.day_types:
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
                "tabq": greedy(table.q_values),
                "dqn": greedy(agent.q_values),
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
