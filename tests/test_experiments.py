import csv
import json
import os
import re
from dataclasses import FrozenInstanceError, fields, replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, strategies as st
from jsonfuzz import JSON_VALUES, key_paths, with_value

from carpool_rl import experiments
from carpool_rl.config import (ConfigSection, DataConfig, DqnConfig,
                               EnvParamsConfig, EtaConfig, ExperimentConfig,
                               GridConfig, TabQConfig, load_config,
                               parse_region, apply_overrides)
from carpool_rl.synth import dense_preset
from carpool_rl.experiments import (emit_curves, prepare_data,
                                    run_eta_experiment, run_policy_experiment,
                                    validate_curve_csv, validate_report,
                                    EvalReport)
from carpool_rl.trips import (CANONICAL_COLUMNS, DAY_TYPES, REJECT_KEYS,
                              ConfigError, TripStore)


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


def csv_region(region):
    return {"data": {"kind": "csv", "csv_path": "trips.csv", "region": region}}


# Every section of a config file; each one's key is its ``section`` name.
SECTIONS = [f.default_factory for f in fields(ExperimentConfig)
            if isinstance(f.default_factory, type)
            and issubclass(f.default_factory, ConfigSection)]

# One value breaking each rule in a section's ``ranges``.
RANGE_VIOLATIONS = [
    (ExperimentConfig, "seeds", []),
    (ExperimentConfig, "seeds", [-1]),
    (ExperimentConfig, "eval_episodes", 0),
    (ExperimentConfig, "day_types", ["monday"]),
    (DataConfig, "kind", "parquet"),
    (DataConfig, "csv_path", 5),
    (DataConfig, "n_days", 0),
    (DataConfig, "seed", -5),
    (GridConfig, "cell_lat", 0.0),
    (GridConfig, "cell_lon", -0.002),
    (GridConfig, "time_bin", float("nan")),
    (EnvParamsConfig, "search_window", 0.0),
    (EnvParamsConfig, "carpool_fraction", 1.0),
    (EnvParamsConfig, "wait_delay", -600.0),
    (EtaConfig, "kind", "oracle"),
    (EtaConfig, "speed_mph", float("inf")),
    (EtaConfig, "learning_rate", 0.0),
    (EtaConfig, "batch_size", 0),
    (EtaConfig, "epochs", -1),
    (EtaConfig, "dist_hidden", []),
    (EtaConfig, "time_hidden", [8, 0]),
    (EtaConfig, "split_ratio", 1.0),
    (EtaConfig, "split_seed", -2),
    (DqnConfig, "hidden", [16.0]),
    (DqnConfig, "gamma", 1.5),
    (DqnConfig, "learning_rate", 0.0),
    (DqnConfig, "batch_size", 0),
    (DqnConfig, "replay_capacity", 0),
    (DqnConfig, "eps_start", 1.5),
    (DqnConfig, "eps_end", -0.1),
    (DqnConfig, "eps_decay_steps", 0),
    (DqnConfig, "sync_period", -1),
    (DqnConfig, "train_episodes", -1),
    (TabQConfig, "alpha", 0.0),
    (TabQConfig, "gamma", 1.0),
    (TabQConfig, "eps_start", -0.5),
    (TabQConfig, "eps_end", 2.0),
    (TabQConfig, "eps_decay_steps", -100),
    (TabQConfig, "train_episodes", -3),
]

# One data section breaking each rule that ties the synthetic-data keys
# together, and the key its error names.
DATA_RULE_VIOLATIONS = [
    ({"preset": "bogus"}, "data.preset"),
    ({"preset": "sparse", "noisy": True}, "data.noisy"),
    ({"region": "downtown"}, "data.region"),
]

# Fields whose rule must also reject infinity, which a plain "positive"
# rule lets through: json reads both Infinity and 1e400 as inf.
FINITE_FIELDS = [(GridConfig, "cell_lat"), (GridConfig, "cell_lon"),
                 (GridConfig, "time_bin"), (EnvParamsConfig, "search_window"),
                 (EnvParamsConfig, "wait_delay"), (EtaConfig, "learning_rate"),
                 (DqnConfig, "learning_rate")]


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
        cfg = apply_overrides(json.loads(path.read_text()), seed=11,
                              day="weekend", out="elsewhere")
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

    @pytest.mark.parametrize("doc, key", [
        ({"eval_episodes": 0}, "config.eval_episodes"),
        ({"dqn": {"batch_size": 64, "replay_capacity": 32}}, "dqn.batch_size"),
        ({"dqn": {"train_episodes": -3}}, "dqn.train_episodes"),
        ({"tabq": {"train_episodes": -1}}, "tabq.train_episodes"),
        ({"seeds": 5}, "config.seeds"),
        ({"seeds": [0, "1"]}, "config.seeds"),
        ({"eval_episodes": "3"}, "config.eval_episodes"),
        ({"eval_episodes": True}, "config.eval_episodes"),
        ({"eta": {"speed_mph": "12"}}, "eta.speed_mph"),
        ({"data": {"noisy": 1}}, "data.noisy"),
        ({"data": {"preset": ["dense"]}}, "data.preset"),
        ({"env": {"search_window": -1}}, "env.search_window"),
        ({"env": {"wait_delay": 0}}, "env.wait_delay"),
        ({"env": {"carpool_fraction": 1.0}}, "env.carpool_fraction"),
        ({"grid": {"cell_lat": "x"}}, "grid.cell_lat"),
        ({"grid": {"cell_lon": 0}}, "grid.cell_lon"),
        ({"grid": {"time_bin": -600}}, "grid.time_bin"),
        ({"dqn": {"batch_size": 0}}, "dqn.batch_size"),
        ({"dqn": {"batch_size": 32.0}}, "dqn.batch_size"),
        ({"dqn": {"eps_start": 5}}, "dqn.eps_start"),
        ({"dqn": {"eps_end": -0.1}}, "dqn.eps_end"),
        ({"dqn": {"gamma": 1.5}}, "dqn.gamma"),
        ({"tabq": {"gamma": 1}}, "tabq.gamma"),
        ({"tabq": {"alpha": 0}}, "tabq.alpha"),
        ({"tabq": {"eps_start": 2}}, "tabq.eps_start"),
        (csv_region([1, 2]), "data.region"),
        (csv_region(5), "data.region"),
        (csv_region([40.8, 40.7, -74, -73.9]), "data.region"),
        (csv_region([True, 40.8, -74, -73.9]), "data.region"),
        (csv_region([40.7, 40.8, -74, float("nan")]), "data.region"),
        (csv_region("midtown"), "data.region"),
        (csv_region("bbox=a,b,c,d"), "data.region"),
        ({"dqn": {"hidden": [1.5, 2.7]}}, "dqn.hidden"),
        ({"dqn": {"hidden": [True]}}, "dqn.hidden"),
        ({"eta": {"dist_hidden": []}}, "eta.dist_hidden"),
        ({"eta": {"time_hidden": ["a"]}}, "eta.time_hidden"),
        ({"eta": {"split_ratio": 1.5}}, "eta.split_ratio"),
        ({"eta": {"learning_rate": 0}}, "eta.learning_rate"),
        ({"eta": {"batch_size": 0}}, "eta.batch_size"),
        ({"eta": {"epochs": -1}}, "eta.epochs"),
        ({"dqn": {"learning_rate": -0.1}}, "dqn.learning_rate"),
        ({"grid": {"weekend_offset": 86400.0}}, "weekend_offset"),
        ({"seeds": [-1]}, "config.seeds"),
        ({"data": {"seed": -5}}, "data.seed"),
        ({"eta": {"split_seed": -2}}, "eta.split_seed"),
        ({"data": {"n_days": 0}}, "data.n_days"),
        ({"data": {"n_days": -3}}, "data.n_days"),
        # json writes inf as Infinity and reads it back as inf
        ({"eta": {"learning_rate": float("inf")}}, "eta.learning_rate"),
        ({"dqn": {"learning_rate": float("inf")}}, "dqn.learning_rate"),
        ({"grid": {"cell_lat": float("inf")}}, "grid.cell_lat"),
        ({"grid": {"cell_lon": float("inf")}}, "grid.cell_lon"),
        ({"grid": {"time_bin": float("inf")}}, "grid.time_bin"),
    ])
    def test_silently_failing_values_rejected(self, tmp_path, doc, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    @pytest.mark.parametrize("cls, key", FINITE_FIELDS,
                             ids=[f"{c.section}.{k}" for c, k in FINITE_FIELDS])
    def test_infinity_rejected_however_the_section_is_built(
            self, tmp_path, cls, key):
        match = f"{cls.section}.{key} must be finite and positive: inf"
        with pytest.raises(ConfigError, match=match):
            cls(**{key: float("inf")})
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict({cls.section: {key: float("inf")}})
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"{cls.section}": {{"{key}": 1e400}}}}')
        with pytest.raises(ConfigError, match=match):
            load_config(path)

    @pytest.mark.parametrize("cls, key, bad", RANGE_VIOLATIONS,
                             ids=[f"{c.section}.{k}" for c, k, _ in RANGE_VIOLATIONS])
    def test_every_range_rule_holds_however_the_section_is_built(
            self, cls, key, bad):
        with pytest.raises(ConfigError, match=f"{cls.section}.{key}"):
            cls(**{key: bad})
        doc = {key: bad}
        if cls is not ExperimentConfig:
            doc = {cls.section: doc}
        with pytest.raises(ConfigError, match=f"{cls.section}.{key}"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("cls, key, bad", RANGE_VIOLATIONS,
                             ids=[f"{c.section}.{k}" for c, k, _ in RANGE_VIOLATIONS])
    def test_sections_are_frozen_and_replace_checks_again(self, cls, key, bad):
        section = cls()
        with pytest.raises(FrozenInstanceError):
            setattr(section, key, bad)
        with pytest.raises(ConfigError, match=f"{cls.section}.{key}"):
            replace(section, **{key: bad})
        assert section == cls()

    @pytest.mark.parametrize("doc, key", DATA_RULE_VIOLATIONS,
                             ids=[k for _, k in DATA_RULE_VIOLATIONS])
    def test_data_rules_hold_when_the_config_loads(self, doc, key):
        with pytest.raises(ConfigError, match=key):
            DataConfig(**doc)
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict({"data": doc})
        # csv data reads no preset keys, so the same keys load there.
        csv = {"region": "downtown", **doc, "kind": "csv",
               "csv_path": "trips.csv"}
        assert DataConfig.from_dict(csv) == DataConfig(**csv)

    def test_range_violations_cover_every_rule(self):
        covered = {(cls, key) for cls, key, _ in RANGE_VIOLATIONS}
        assert covered == {(cls, key) for cls in (ExperimentConfig, *SECTIONS)
                           for key in cls.ranges}

    @pytest.mark.parametrize("key, repeated", [
        ("seeds", [0, 0]), ("seeds", [2, 1, 2]),
        ("day_types", ["weekday", "weekday"]),
        ("day_types", ["weekend", "weekday", "weekend"])])
    def test_seeds_and_day_types_name_each_run_once(self, tmp_path, key,
                                                    repeated):
        # a repeat would run the same pipeline twice and report it as two
        match = (f"config.{key} must be a non-empty list of distinct .*: "
                 f"{re.escape(str(repeated))}")
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig(**{key: repeated})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: repeated}))
        with pytest.raises(ConfigError, match=match):
            load_config(path)

    def test_distinct_seeds_and_repeated_widths_load(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "seeds": [1, 0], "day_types": ["weekend", "weekday"],
            "dqn": {"hidden": [64, 64]}, "eta": {"time_hidden": [8, 8, 8]}}))
        cfg = load_config(path)
        assert cfg.seeds == [1, 0] and cfg.day_types == ["weekend", "weekday"]
        assert cfg.dqn.hidden == [64, 64] and cfg.eta.time_hidden == [8, 8, 8]

    def test_learner_settings_checked_in_sections(self):
        # The SGD settings the trainers read are checked by their sections.
        with pytest.raises(ConfigError, match="eta.learning_rate"):
            EtaConfig(learning_rate=0.0)
        with pytest.raises(ConfigError, match="eta.batch_size"):
            EtaConfig(batch_size=0)
        with pytest.raises(ConfigError, match="eta.epochs"):
            EtaConfig(epochs=-1)
        with pytest.raises(ConfigError, match="dqn.learning_rate"):
            DqnConfig(learning_rate=0.0)
        with pytest.raises(ConfigError, match="dqn.batch_size"):
            DqnConfig(batch_size=0)

    @pytest.mark.parametrize("speed", [float("nan"), float("inf"), 0.0])
    def test_eta_speed_must_be_finite_and_positive(self, speed):
        with pytest.raises(ConfigError, match="eta.speed_mph"):
            EtaConfig.from_dict({"speed_mph": speed})

    def test_csv_kind_requires_path(self):
        with pytest.raises(ConfigError):
            DataConfig.from_dict({"kind": "csv"})

    def test_csv_kind_requires_region_when_the_config_loads(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"data": {"kind": "csv",
                                             "csv_path": "trips.csv"}}))
        with pytest.raises(ConfigError, match="data.region"):
            load_config(path)
        with pytest.raises(ConfigError, match="data.region"):
            DataConfig(kind="csv", csv_path="trips.csv")
        cfg = load_config(path, region="downtown")
        assert cfg.data.bbox() == parse_region("downtown")

    def test_readme_config_block_shows_the_defaults(self):
        readme = open(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "README.md")).read()
        section = readme.split("## Config", 1)[1]
        block = section.split("```json", 1)[1].split("```", 1)[0]
        assert json.loads(block) == ExperimentConfig().to_dict()

    def test_float_fields_take_ints(self):
        cfg = ExperimentConfig.from_dict({"env": {"wait_delay": 300},
                                          "tabq": {"alpha": 1}})
        assert cfg.env.wait_delay == 300 and cfg.tabq.alpha == 1


def _config_keys(cls=ExperimentConfig, path=()):
    """Every key a config file may set, as a path of section names."""
    for f in fields(cls):
        sub = f.default_factory
        if isinstance(sub, type) and issubclass(sub, ConfigSection):
            yield from _config_keys(sub, path + (f.name,))
        yield path + (f.name,)


@given(st.sampled_from(sorted(_config_keys())), JSON_VALUES)
def test_any_json_value_at_any_key_loads_or_is_a_config_error(key, value):
    doc = value
    for name in reversed(key):
        doc = {name: doc}
    try:
        ExperimentConfig.from_dict(doc)
    except ConfigError:
        pass


class TestPrepareData:
    def test_synthetic_roundtrip(self, tmp_path):
        cfg = tiny_policy_config(tmp_path)
        data = prepare_data(cfg)
        assert len(data.store) > 0
        assert os.path.exists(tmp_path / "synthetic_weekday.csv")
        assert data.region.contains(data.store.records[0].origin)

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ConfigError, match="data.preset"):
            tiny_policy_config(tmp_path, preset="mega")

    def test_grid_section_applies_to_synthetic_data(self, tmp_path):
        cfg = tiny_policy_config(tmp_path)
        assert prepare_data(cfg).grid == dense_preset().grid
        cfg = replace(cfg, grid=GridConfig.from_dict({"cell_lat": 0.004, "time_bin": 1200}))
        grid = prepare_data(cfg).grid
        assert (grid.cell_lat, grid.cell_lon, grid.time_bin) == (0.004, 0.002, 1200)

    def test_region_is_for_csv_data_only(self, tmp_path):
        with pytest.raises(ConfigError, match="data.region"):
            apply_overrides(tiny_policy_config(tmp_path).to_dict(),
                            region="uptown")

    def test_csv_rejections_count_rules_and_region(self, tmp_path):
        row = ["2013-01-07 08:00:00", "2013-01-07 08:10:00", "-74.0", "40.72",
               "-73.99", "40.73", "1.5", "600", "1"]
        uptown = row[:2] + ["-73.95", "40.81", "-73.94", "40.82"] + row[6:]
        crowded = row[:8] + ["9"]
        path = tmp_path / "trips.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CANONICAL_COLUMNS)
            w.writerows([row, row, uptown, crowded, ["garbage"] * 9])
        cfg = ExperimentConfig.from_dict({
            "out_dir": str(tmp_path / "run"),
            "data": {"kind": "csv", "csv_path": str(path),
                     "region": "downtown"}})
        data = prepare_data(cfg)
        assert len(data.store) == 2
        assert data.rejections == {**dict.fromkeys(REJECT_KEYS, 0),
                                   "unparsable": 1, "passengers": 1,
                                   "region": 1}

    def test_sparse_noisy_rejected(self, tmp_path):
        cfg = tiny_policy_config(tmp_path, preset="sparse")
        with pytest.raises(ConfigError, match="noisy"):
            replace(cfg.data, noisy=True)


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

    @pytest.mark.parametrize("body, line, fault", [
        ("step,mean_q\n0,1.0\n0.5\n", 4, "1 fields, not 2"),
        ("step,mean_q\n0,1.0\n\n1,2.0\n", 4, "0 fields, not 2"),
        ("step,loss\n0,1.0,2.0\n", 3, "3 fields, not 2"),
        ("step,reward\n5,1.0\n0,2.0\n", 3, "step '5' is not the row index 0"),
        ("step,reward\n0,1.0\n2,2.0\n", 4, "step '2' is not the row index 1"),
        ("step,reward\n0,1.0\n1,high\n", 4, "value 'high' is not a float"),
        ("step,epsilon\n0,1.0\n", 2, "header ['step', 'epsilon'] is not step"),
        ("step\n0,1.0\n", 2, "header ['step'] is not step"),
        ("", 2, "header [] is not step"),
    ])
    def test_each_fault_names_its_line(self, tmp_path, body, line, fault):
        bad = tmp_path / "bad.csv"
        bad.write_text("# bad: one row per recorded point\n" + body)
        with pytest.raises(ValueError,
                           match=f"{re.escape(str(bad))}: line {line}: "
                                 f"{re.escape(fault)}"):
            validate_curve_csv(bad)

    def test_nan_values_are_valid(self, tmp_path):
        # DQN mean_q and loss read nan before the first train step
        paths = emit_curves({"dqn_loss_weekday_seed0": [float("nan"), 0.5]},
                            tmp_path)
        assert validate_curve_csv(paths["dqn_loss_weekday_seed0"]) == 2


class TestEtaExperiment:
    def test_perfect_data_is_nearly_memorized(self, tmp_path):
        # constant-speed data with no noise: duration is an exact function
        # of the endpoints, so the joint model should drive MAE far below
        # the mean trip duration
        import numpy as np
        from carpool_rl.eta import evaluate, train_joint_eta
        from carpool_rl.synth import dense_preset, generate_synthetic
        from carpool_rl.trips import ingest_csv

        spec = dense_preset(n_days=2)
        path = tmp_path / "clean.csv"
        generate_synthetic(spec, 31, path)
        store, _, _ = ingest_csv(path)
        train, test = store.train_test_split(0.8, seed=0)
        model = train_joint_eta(train, spec.grid,
                                EtaConfig(learning_rate=0.03, batch_size=32,
                                          epochs=25), 0)
        mae = evaluate(lambda qs: model.predict_batch(qs)[0], test).mae
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

    def test_linear_baseline_fitted_once_for_all_seeds(self, tmp_path,
                                                       monkeypatch):
        fits = []
        train = experiments.train_linear_time

        def counted_train(*args, **kwargs):
            fits.append(args)
            return train(*args, **kwargs)

        monkeypatch.setattr(experiments, "train_linear_time", counted_train)

        def seed_rows(seeds, out):
            cfg = replace(tiny_eta_config(tmp_path / out), seeds=seeds)
            path = run_eta_experiment(cfg)["csv_path"]
            with open(path) as fh:
                return [r for r in fh.read().splitlines()
                        if r.split(",")[1] != "mean"]

        both = seed_rows([0, 1], "both")
        assert len(fits) == 1
        alone = seed_rows([0], "zero") + seed_rows([1], "one")
        assert sorted(both) == sorted(set(alone))


def report_with(cell) -> dict:
    return {"policies": {"fixed": {"weekday": cell}}, "curves": {},
            "config": {}, "data": {"kept": 0, "rejected": {}}}


class TestValidateReport:
    """A malformed ``report.json`` fails validation with a ``ValueError``
    naming its path, before any reader formats it."""

    GOOD = {"mean": 1.5, "std": 0.25, "per_seed": [1.25, 1.75]}
    SAVED_PARTS = {"curves": {"dqn_loss_weekday_seed0": "curves/x.csv"},
                   "config": ExperimentConfig().to_dict(),
                   "data": {"kept": 10, "rejected": {"distance": 1, "region": 0}}}

    def test_well_formed_report_passes(self):
        validate_report(report_with(self.GOOD))

    @pytest.mark.parametrize("top", [1, [], "report", None])
    def test_top_level_must_be_an_object(self, top):
        with pytest.raises(ValueError, match="report.json: expected a JSON object"):
            validate_report(top)

    @pytest.mark.parametrize("key", ["mean", "std"])
    @pytest.mark.parametrize("value", ["x", 1, True, None, [1.0],
                                       float("nan"), float("inf"),
                                       -float("inf")])
    def test_mean_and_std_must_be_finite_floats(self, key, value):
        with pytest.raises(ValueError,
                           match=f"report.json policies/fixed/weekday: '{key}'"):
            validate_report(report_with({**self.GOOD, key: value}))

    @pytest.mark.parametrize("per_seed", [1.0, [1.0, 1], [float("nan")],
                                          [1.0, float("inf")]])
    def test_per_seed_must_be_a_list_of_finite_floats(self, per_seed):
        with pytest.raises(ValueError,
                           match="report.json policies/fixed/weekday: 'per_seed'"):
            validate_report(report_with({**self.GOOD, "per_seed": per_seed}))

    @pytest.mark.parametrize("part, value, match", [
        ("data", {"kept": 3, "rejected": 5},
         "report.json data: 'rejected' is not a JSON object"),
        ("data", {"kept": 3}, "report.json data: missing key 'rejected'"),
        ("data", {"kept": 3.0, "rejected": {}},
         "report.json data: 'kept' is not a JSON int"),
        ("data", {"kept": 3, "rejected": {"region": "2"}},
         "report.json data/rejected: 'region' is not a JSON int"),
        ("data", [], "report.json: 'data' is not a JSON object"),
        ("curves", 3, "report.json: 'curves' is not a JSON object"),
        ("curves", {"dqn_loss_weekday_seed0": 1},
         "report.json curves: 'dqn_loss_weekday_seed0' is not a JSON str"),
        ("config", [], "report.json: 'config' is not a JSON object"),
        ("data", {"kept": -1, "rejected": {}},
         "report.json data: 'kept' is negative"),
        ("data", {"kept": 3, "rejected": {"region": -2}},
         "report.json data/rejected: 'region' is negative"),
        ("data", {"kept": 3, "rejected": {"holiday": 1}},
         "report.json data/rejected: unexpected key 'holiday'"),
        ("policies", {"fixed": {"holiday": GOOD}},
         "report.json policies/fixed: unexpected day 'holiday'"),
    ], ids=["rejected-int", "no-rejected", "kept-float", "rejected-str",
            "data-list", "curves-int", "curve-path-int", "config-list",
            "kept-negative", "count-negative", "rejected-unknown",
            "day-unknown"])
    def test_data_curves_and_config_are_checked(self, part, value, match):
        report = {**report_with(self.GOOD), **self.SAVED_PARTS, part: value}
        with pytest.raises(ValueError, match=match):
            validate_report(report)

    def test_saved_parts_pass(self):
        validate_report({**report_with(self.GOOD), **self.SAVED_PARTS})

    def test_data_is_required(self, tmp_path):
        report = {**report_with(self.GOOD), **self.SAVED_PARTS}
        del report["data"]
        with pytest.raises(ValueError, match="report.json: missing key 'data'"):
            validate_report(report)
        (tmp_path / "report.json").write_text(json.dumps(report))
        with pytest.raises(ValueError, match="report.json: missing key 'data'"):
            EvalReport.load(tmp_path / "report.json")

    @given(st.sampled_from(DAY_TYPES) | st.text(max_size=8))
    def test_day_keys_are_day_types(self, day):
        report = {**self.SAVED_PARTS, "policies": {"fixed": {day: self.GOOD}}}
        if day in DAY_TYPES:
            validate_report(report)
        else:
            with pytest.raises(ValueError) as info:
                validate_report(report)
            assert str(info.value).startswith("report.json")
            assert repr(day) in str(info.value)

    @given(st.sampled_from([*REJECT_KEYS, "region"]) | st.text(max_size=8),
           st.integers(-3, 3), st.integers(-3, 3))
    def test_rejection_keys_and_counts_are_checked(self, key, count, kept):
        data = {"kept": kept, "rejected": {"distance": 1, key: count}}
        report = {**report_with(self.GOOD), **self.SAVED_PARTS, "data": data}
        if kept >= 0 and key in (*REJECT_KEYS, "region") and count >= 0:
            validate_report(report)
            return
        with pytest.raises(ValueError) as info:
            validate_report(report)
        assert str(info.value).startswith("report.json data")
        assert ("'kept'" if kept < 0 else repr(key)) in str(info.value)

    @given(st.data(), JSON_VALUES)
    def test_any_json_value_at_any_key_loads_or_names_the_file(
            self, tmp_path_factory, data, value):
        report = {**report_with(self.GOOD), **self.SAVED_PARTS}
        path = data.draw(st.sampled_from(sorted(key_paths(report))))
        out = tmp_path_factory.getbasetemp() / "fuzzed_report"
        out.mkdir(exist_ok=True)
        with open(out / "report.json", "w") as fh:
            json.dump(with_value(report, path, value), fh)
        try:
            EvalReport.load(out / "report.json")
        except ValueError as exc:
            assert "report.json" in str(exc)


class TestPolicyExperiment:
    def test_report_written_and_valid(self, tmp_path):
        report = run_policy_experiment(tiny_policy_config(tmp_path))
        validate_report(report.to_dict())
        assert report.policies["wait"]["weekday"]["mean"] == 0.0
        loaded = EvalReport.load(os.path.join(str(tmp_path), "report.json"))
        assert loaded.policies == report.policies
        data = prepare_data(tiny_policy_config(tmp_path / "again"))
        assert loaded.data == report.data == {
            "kept": len(data.store), "rejected": data.rejections}
        assert set(data.rejections) == {*REJECT_KEYS, "region"}
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
        assert a.data == b.data

    def test_both_day_types(self, tmp_path):
        cfg = replace(tiny_policy_config(tmp_path), day_types=["weekday", "weekend"])
        report = run_policy_experiment(cfg)
        for policy in ("fixed", "dqn"):
            assert set(report.policies[policy]) == {"weekday", "weekend"}
        # weekend demand exists, so the fixed policy earns something
        assert report.policies["fixed"]["weekend"]["mean"] > 0

    def test_env_and_tabq_read_their_config_sections(self, tmp_path):
        cfg = replace(tiny_policy_config(tmp_path),
                      env=EnvParamsConfig(search_window=300.0, wait_delay=450.0),
                      tabq=TabQConfig(alpha=0.3, train_episodes=1))
        data = prepare_data(cfg)
        eta = experiments.build_eta_source(cfg, data, 0)
        env = experiments.build_env(cfg, data, eta, "weekend")
        assert env.params is cfg.env and env.day_type == "weekend"
        assert env.is_weekend and env.region is data.region
        table, _ = experiments.fit_tabq(cfg, env, 0)
        assert table.cfg is cfg.tabq and table.grid is data.grid

    def test_tabq_learns_the_same_table_on_mirrored_days(self, tmp_path):
        # every weekday trip again on the Saturday after, at the same times
        cfg = tiny_policy_config(tmp_path)
        data = prepare_data(cfg)
        weekday = data.store.records
        saturday = [replace(
            r, pickup_dt=r.pickup_dt + shift, dropoff_dt=r.dropoff_dt + shift)
            for r in weekday
            for shift in [timedelta(days=5 - r.pickup_dt.weekday())]]
        assert all(r.is_weekend for r in saturday) and not any(
            r.is_weekend for r in weekday)
        data = replace(data, store=TripStore(weekday + tuple(saturday)))
        eta = experiments.build_eta_source(cfg, data, 0)
        fits = [experiments.fit_tabq(
                    cfg, experiments.build_env(cfg, data, eta, day), 0)
                for day in ("weekday", "weekend")]
        (weekday_table, weekday_curves), (weekend_table, weekend_curves) = fits
        assert weekday_table.values and weekday_table.values == weekend_table.values
        assert list(weekday_curves.values()) == list(weekend_curves.values())
        assert {cell[2] for cell, _ in weekend_table.values} <= set(range(144))

    def test_joint_eta_backed_simulator(self, tmp_path):
        cfg = replace(tiny_policy_config(tmp_path), eta=EtaConfig(kind="joint", epochs=2))
        report = run_policy_experiment(cfg)
        assert report.policies["fixed"]["weekday"]["mean"] >= 0

    def test_joint_eta_trained_once_for_both_day_types(self, tmp_path,
                                                       monkeypatch):
        fits = []
        train, build_env = experiments.train_joint_eta, experiments.build_env

        def counted_train(*args, **kwargs):
            fits.append(args)
            return train(*args, **kwargs)

        monkeypatch.setattr(experiments, "train_joint_eta", counted_train)
        cfg = replace(tiny_policy_config(tmp_path / "shared"),
                      day_types=["weekday", "weekend"],
                      eta=EtaConfig(kind="joint", epochs=2))
        shared = run_policy_experiment(cfg)
        assert len(fits) == 1

        # The same run with a model trained afresh for each day type.
        def env_with_own_model(cfg, data, eta_source, day_type):
            own = experiments.build_eta_source(cfg, data, cfg.seeds[0])
            return build_env(cfg, data, own, day_type)

        monkeypatch.setattr(experiments, "build_env", env_with_own_model)
        own = run_policy_experiment(replace(cfg, out_dir=str(tmp_path / "own")))
        assert len(fits) == 4
        assert shared.policies == own.policies
        for name, path in shared.curves.items():
            assert open(path).read() == open(own.curves[name]).read()
