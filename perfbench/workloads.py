"""The benchmark's workloads: inputs from a workload seed, the experiment
config, one pipeline call, and the check of its output.

The package is reached only through its public entry points:
``synth.generate_synthetic`` makes the trip CSV, and
``experiments.run_policy_experiment`` / ``experiments.run_eta_experiment``
run on it with ``data.kind = "csv"``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

from carpool_rl import experiments
from carpool_rl.config import (DataConfig, DqnConfig, EtaConfig,
                               ExperimentConfig, TabQConfig)
from carpool_rl.synth import DENSE_REGION, dense_preset, generate_synthetic

# Seed whose output digests are recorded in digests.json.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                    # "policy" -> report.json, "eta" -> eta_metrics.csv
    n_days: int
    noisy: bool
    eta_kind: str = "speed"
    seeds: tuple = (0,)
    train_episodes: int = 0      # tabular Q and DQN each
    eval_episodes: int = 1
    eta_epochs: int = 30

    def make_inputs(self, seed: int, path: str) -> int:
        """Write the workload's trip CSV for ``seed``; returns its row count."""
        spec = dense_preset(n_days=self.n_days, noisy=self.noisy)
        return generate_synthetic(spec, seed, path)

    def config(self, csv_path: str, out_dir: str) -> ExperimentConfig:
        # The DQN and tabular settings are the acceptance suite's dense ones,
        # with fewer episodes.
        region = DENSE_REGION
        return ExperimentConfig(
            out_dir=out_dir,
            seeds=list(self.seeds),
            eval_episodes=self.eval_episodes,
            data=DataConfig(kind="csv", csv_path=csv_path,
                            region=[region.lat_min, region.lat_max,
                                    region.lon_min, region.lon_max]),
            eta=EtaConfig(kind=self.eta_kind, speed_mph=12.0,
                          epochs=self.eta_epochs),
            dqn=DqnConfig(hidden=[64, 64], learning_rate=0.02, batch_size=32,
                          eps_start=1.0, eps_end=0.05, eps_decay_steps=25_000,
                          sync_period=1000, train_episodes=self.train_episodes),
            tabq=TabQConfig(alpha=0.1, eps_decay_steps=25_000,
                            train_episodes=self.train_episodes),
        )

    def run(self, cfg: ExperimentConfig) -> None:
        """One pipeline call; its output is on disk when this returns."""
        if self.kind == "policy":
            experiments.run_policy_experiment(cfg)
        else:
            experiments.run_eta_experiment(cfg)

    def check_output(self, out_dir: str) -> str:
        """Validate the output on disk and return its digest.

        Raises ``ValueError`` when the output is malformed.
        """
        if self.kind == "policy":
            return _check_report(out_dir)
        return _check_eta_metrics(out_dir, len(self.seeds))


def _check_report(out_dir: str) -> str:
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    experiments.validate_report(report)
    if set(report["policies"]) != set(experiments.POLICY_NAMES):
        raise ValueError(f"report policies {sorted(report['policies'])}")
    for path in report["curves"].values():
        if experiments.validate_curve_csv(path) == 0:
            raise ValueError(f"{path}: empty curve")
    text = json.dumps(report["policies"], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _check_eta_metrics(out_dir: str, n_seeds: int) -> str:
    with open(os.path.join(out_dir, "eta_metrics.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["method", "seed", *experiments.METRIC_NAMES]:
        raise ValueError(f"eta_metrics.csv header {rows[0]}")
    body = rows[1:]
    if len(body) != len(experiments.ETA_METHODS) * (n_seeds + 1):
        raise ValueError(f"eta_metrics.csv has {len(body)} rows")
    for row in body:
        if row[0] not in experiments.ETA_METHODS:
            raise ValueError(f"eta_metrics.csv method {row[0]!r}")
        if not all(math.isfinite(float(v)) for v in row[2:]):
            raise ValueError(f"eta_metrics.csv non-finite row {row}")
    text = "\n".join(",".join(row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(name="dense_speed", kind="policy", n_days=1, noisy=False,
             eta_kind="speed", seeds=(0, 1), train_episodes=5, eval_episodes=2),
    Workload(name="dense_joint", kind="policy", n_days=1, noisy=True,
             eta_kind="joint", seeds=(0,), train_episodes=1, eval_episodes=3,
             eta_epochs=10),
    Workload(name="eta_fit", kind="eta", n_days=6, noisy=True, seeds=(0,),
             eta_epochs=5),
)}
