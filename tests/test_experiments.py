import json
import os

import numpy as np
import pytest

from carpool_rl.config import (DataConfig, DqnConfig, EtaConfig,
                               ExperimentConfig, TabQConfig, load_config,
                               parse_region, apply_overrides)
from carpool_rl.experiments import (emit_curves, prepare_data,
                                    run_eta_experiment, run_policy_experiment,
                                    validate_curve_csv, validate_report,
                                    EvalReport)
from carpool_rl.trips import ConfigError


def tiny_policy_config(out_dir, preset="dense", seeds=(0,)):
    return ExperimentConfig(
        out_dir=str(out_dir),
        seeds=list(seeds),
        eval_episodes=2,
        data=DataConfig(kind="synthetic", preset=preset, n_days=1, seed=7),
        eta=EtaConfig(kind="speed", speed_mph=12.0 if preset == "dense" else 6.0),
        dqn=DqnConfig(train_episodes=2, eps_decay_steps=300),
        tabq=TabQConfig(train_episodes=2, eps_decay_steps=300),
    )


def tiny_eta_config(out_dir):
    return ExperimentConfig(
        out_dir=str(out_dir),
        seeds=[0],
        data=DataConfig(kind="synthetic", preset="dense", n_days=1, seed=5,
                        noisy=True),
        eta=EtaConfig(kind="speed", epochs=3),
    )


class TestConfig:
    def test_region_presets(self):
        up = parse_region("uptown")
        assert up.lon_min == -73.9694 and up.lat_max == 40.8438
        down = parse_region("downtown")
        assert down.lat_min == 40.715 and down.lon_max == -73.9774

    def test_bbox_parse(self):
        b = parse_region("bbox=40.1,40.2,-74.2,-74.1")
        assert (b.lat_min, b.lat_max, b.lon_min, b.lon_max) == (40.1, 40.2, -74.2, -74.1)
        with pytest.raises(ConfigError):
            parse_region("midtown")

    def test_load_and_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "out_dir": "runs/x", "seeds": [3],
            "data": {"kind": "synthetic", "preset": "sparse"},
            "dqn": {"train_episodes": 9},
        }))
        cfg = load_config(path)
        assert cfg.seeds == [3]
        assert cfg.data.preset == "sparse"
        assert cfg.dqn.train_episodes == 9
        assert cfg.tabq.train_episodes == 150  # untouched default
        cfg = apply_overrides(cfg, seed=11, day="weekend", out="elsewhere")
        assert cfg.seeds == [11] and cfg.day_types == ["weekend"]
        assert cfg.out_dir == "elsewhere"

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"out_dirs": "typo"}))
        with pytest.raises(ConfigError):
            load_config(path)
        path.write_text(json.dumps({"dqn": {"episodes": 5}}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_non_object_section_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dqn": 5}))
        with pytest.raises(ConfigError, match="dqn"):
            load_config(path)
        path.write_text(json.dumps([1, 2]))
        with pytest.raises(ConfigError, match="config"):
            load_config(path)

    def test_csv_kind_requires_path(self):
        with pytest.raises(ConfigError):
            DataConfig.from_dict({"kind": "csv"})


class TestPrepareData:
    def test_synthetic_roundtrip(self, tmp_path):
        cfg = tiny_policy_config(tmp_path)
        data = prepare_data(cfg)
        assert len(data.store) > 0
        assert os.path.exists(data.csv_path)
        assert data.region.contains(data.store.records[0].origin)

    def test_unknown_preset(self, tmp_path):
        cfg = tiny_policy_config(tmp_path)
        cfg.data.preset = "mega"
        with pytest.raises(ConfigError):
            prepare_data(cfg)

    def test_sparse_noisy_rejected(self, tmp_path):
        cfg = tiny_policy_config(tmp_path, preset="sparse")
        cfg.data.noisy = True
        with pytest.raises(ValueError, match="noisy"):
            prepare_data(cfg)


class TestEmitCurves:
    def test_schema_and_idempotence(self, tmp_path):
        curves = {"dqn_mean_q_weekday_seed0": [1.0, 2.0, 2.5],
                  "dqn_loss_weekday_seed0": [0.5, 0.25]}
        paths = emit_curves(curves, tmp_path)
        text = open(paths["dqn_mean_q_weekday_seed0"]).read()
        lines = text.strip().split("\n")
        assert lines[0].startswith("#")
        assert lines[1] == "step,mean_q"
        assert len(lines) == 2 + 3
        assert validate_curve_csv(paths["dqn_mean_q_weekday_seed0"]) == 3
        again = emit_curves(curves, tmp_path)
        assert open(again["dqn_mean_q_weekday_seed0"]).read() == text

    def test_unknown_curve_name_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="epsilon_weekday"):
            emit_curves({"epsilon_weekday": [1.0]}, tmp_path)

    def test_validation_catches_garbage(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("step,mean_q\n0,1.0\n")  # missing comment header
        with pytest.raises(ValueError):
            validate_curve_csv(bad)


class TestEtaExperiment:
    def test_perfect_data_is_nearly_memorized(self, tmp_path):
        # constant-speed data with no noise: duration is an exact function
        # of the endpoints, so the joint model should drive MAE far below
        # the mean trip duration
        import numpy as np
        from carpool_rl.eta import evaluate, train_joint_eta
        from carpool_rl.nn import TrainConfig
        from carpool_rl.synth import dense_preset, generate_synthetic
        from carpool_rl.trips import ingest_csv

        spec = dense_preset(n_days=2)
        path = tmp_path / "clean.csv"
        generate_synthetic(spec, 31, path)
        store, _, _ = ingest_csv(path)
        train, test = store.train_test_split(0.8, seed=0)
        model = train_joint_eta(train, spec.grid,
                                TrainConfig(learning_rate=0.03, batch_size=32,
                                            epochs=25, seed=0))
        mae = evaluate(lambda q: model.predict(q).travel_time, test).mae
        mean_duration = float(np.mean([r.duration for r in test.records]))
        assert mae < 0.10 * mean_duration

    def test_rows_and_metrics_present(self, tmp_path):
        results = run_eta_experiment(tiny_eta_config(tmp_path))
        for method in ("linear", "time_only", "joint"):
            mean = results[method]["mean"]
            for metric in ("mae", "mre", "medae", "medre", "r2"):
                assert np.isfinite(mean[metric])
        assert os.path.exists(results["csv_path"])
        header = open(results["csv_path"]).readline().strip().split(",")
        assert header == ["method", "seed", "mae", "mre", "medae", "medre", "r2"]


class TestPolicyExperiment:
    def test_report_written_and_valid(self, tmp_path):
        report = run_policy_experiment(tiny_policy_config(tmp_path))
        validate_report(report.to_dict())
        assert report.policies["wait"]["weekday"]["mean"] == 0.0
        loaded = EvalReport.load(os.path.join(str(tmp_path), "report.json"))
        assert loaded.policies == report.policies
        for path in report.curves.values():
            validate_curve_csv(path)

    def test_rerun_is_identical(self, tmp_path):
        a = run_policy_experiment(tiny_policy_config(tmp_path / "a"))
        b = run_policy_experiment(tiny_policy_config(tmp_path / "b"))
        for policy, per_day in a.policies.items():
            for day, cell in per_day.items():
                other = b.policies[policy][day]
                assert cell["mean"] == other["mean"]
                assert cell["per_seed"] == other["per_seed"]

    def test_both_day_types(self, tmp_path):
        cfg = tiny_policy_config(tmp_path)
        cfg.day_types = ["weekday", "weekend"]
        report = run_policy_experiment(cfg)
        for policy in ("fixed", "dqn"):
            assert set(report.policies[policy]) == {"weekday", "weekend"}
        # weekend demand exists, so the fixed policy earns something
        assert report.policies["fixed"]["weekend"]["mean"] > 0

    def test_joint_eta_backed_simulator(self, tmp_path):
        cfg = tiny_policy_config(tmp_path)
        cfg.eta = EtaConfig(kind="joint", epochs=2)
        report = run_policy_experiment(cfg)
        assert report.policies["fixed"]["weekday"]["mean"] >= 0
