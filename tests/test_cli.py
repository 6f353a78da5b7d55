import json
import os
import shutil

import pytest

from carpool_rl.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_tiny_config(tmp_path, **extra):
    cfg = {
        "out_dir": str(tmp_path / "run"),
        "seeds": [0],
        "eval_episodes": 2,
        "data": {"kind": "synthetic", "preset": "dense", "n_days": 1, "seed": 3},
        "eta": {"kind": "speed", "epochs": 2},
        "dqn": {"train_episodes": 2, "eps_decay_steps": 200},
        "tabq": {"train_episodes": 2, "eps_decay_steps": 200},
    }
    cfg.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


class TestDataCommands:
    def test_synth_writes_csv(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "data", "synth", "--preset", "dense",
                               "--seed", "5", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["trips"] > 0
        assert os.path.exists(payload["path"])

    def test_ingest_reports_counts(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "data", "synth", "--preset", "dense",
                               "--seed", "5", "--out", str(tmp_path))
        path = json.loads(out)["path"]
        code, out, _ = run_cli(capsys, "data", "ingest", "--csv", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["rejected"] == 0
        assert payload["kept"] > 0

    def test_synth_sparse_noisy_fails(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "data", "synth", "--preset", "sparse",
                                 "--noisy", "--out", str(tmp_path))
        assert code != 0 and out == ""
        assert "noisy" in json.loads(err)["message"]
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("argv, flag", [
        (["--days", "0"], "--days"),
        (["--days", "-3"], "--days"),
        (["--seed", "-1"], "--seed"),
    ])
    def test_synth_bad_flag_is_a_config_error(self, tmp_path, capsys, argv,
                                              flag):
        code, out, err = run_cli(capsys, "data", "synth", "--preset", "dense",
                                 "--out", str(tmp_path), *argv)
        assert code != 0 and out == ""
        assert "Traceback" not in err and len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert flag in payload["message"]
        assert not os.listdir(tmp_path)

    def test_failure_emits_error_json(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "data", "ingest", "--csv",
                                 str(tmp_path / "missing.csv"))
        assert code != 0
        payload = json.loads(err)
        assert payload["error"] == "FileNotFoundError"


class TestTrainAndEval:
    def test_train_dqn_writes_checkpoint_and_curves(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        code, out, _ = run_cli(capsys, "train", "dqn", "--config", str(cfg))
        assert code == 0
        payload = json.loads(out)
        assert os.path.exists(payload["network"])

    def test_train_tabq_writes_table(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        code, out, _ = run_cli(capsys, "train", "tabq", "--config", str(cfg))
        assert code == 0
        assert os.path.exists(json.loads(out)["qtable"])

    def test_train_fixed_reports_reward(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        code, out, _ = run_cli(capsys, "train", "fixed", "--config", str(cfg))
        assert code == 0
        assert "mean_cumulative_reward" in json.loads(out)

    def test_train_curves_match_eval_curves(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        train_dir, eval_dir = tmp_path / "train", tmp_path / "eval"
        for policy in ("tabq", "dqn"):
            code, _, _ = run_cli(capsys, "train", policy, "--config", str(cfg),
                                 "--out", str(train_dir))
            assert code == 0
        code, _, _ = run_cli(capsys, "eval", "--config", str(cfg),
                             "--out", str(eval_dir))
        assert code == 0
        names = sorted(os.listdir(train_dir / "curves"))
        assert names == sorted(os.listdir(eval_dir / "curves"))
        assert len(names) == 5
        for name in names:
            assert ((train_dir / "curves" / name).read_bytes()
                    == (eval_dir / "curves" / name).read_bytes()), name

    def test_eval_then_report(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        code, out, _ = run_cli(capsys, "eval", "--config", str(cfg))
        assert code == 0
        run_dir = json.loads(out)["report"]
        assert os.path.exists(run_dir)
        code, out, _ = run_cli(capsys, "report", "--out",
                               str(tmp_path / "run"))
        assert code == 0
        assert "fixed" in out and "dqn" in out
        data = json.loads((tmp_path / "run" / "report.json").read_text())["data"]
        assert data["kept"] > 0
        assert (f"data  kept {data['kept']}  rejected "
                f"{sum(data['rejected'].values())} (") in out


    def test_negative_seed_override_is_a_config_error(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        code, out, err = run_cli(capsys, "eval", "--config", str(cfg),
                                 "--seed", "-1")
        assert code != 0 and out == ""
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ConfigError"
        assert not os.path.exists(tmp_path / "run")

class TestEtaCommands:
    def test_eta_train_and_predict(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path, eta={"kind": "joint", "epochs": 2})
        code, out, _ = run_cli(capsys, "eta", "train", "--config", str(cfg))
        assert code == 0
        model_dir = json.loads(out)["model"]
        code, out, _ = run_cli(capsys, "eta", "predict", "--model", model_dir,
                               "--origin", "40.72,-74.0", "--dest",
                               "40.73,-73.995", "--time", "30000")
        assert code == 0
        payload = json.loads(out)
        assert payload["travel_time_s"] >= 0
        assert payload["travel_distance_mi"] >= 0

    def test_eta_eval_table(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        code, out, _ = run_cli(capsys, "eta", "eval", "--config", str(cfg))
        assert code == 0
        payload = json.loads(out)
        assert set(payload) >= {"linear", "time_only", "joint"}


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    from carpool_rl.config import EtaConfig
    from carpool_rl.eta import train_joint_eta
    from carpool_rl.synth import dense_preset, generate_synthetic
    from carpool_rl.trips import ingest_csv

    root = tmp_path_factory.mktemp("cli_model")
    spec = dense_preset(n_days=1)
    generate_synthetic(spec, 3, root / "trips.csv")
    store, _, _ = ingest_csv(root / "trips.csv")
    model = train_joint_eta(store, spec.grid, EtaConfig(epochs=1), 0)
    model.save(root / "eta_model")
    return root / "eta_model"


class TestErrorContract:
    """Usage errors are argparse's: exit status 2 and plain usage text on
    stderr. Every failure after parsing returns non-zero with nothing on
    stdout and one JSON line on stderr."""

    @pytest.mark.parametrize("argv", [
        ["data", "synth", "--preset", "nope"],
        ["data", "ingest"],
    ], ids=["unknown-preset", "missing-csv"])
    def test_usage_error_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: carpool-rl")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, error", [
        (["eval", "--config", "{tmp}/missing.json"], "FileNotFoundError"),
        (["eta", "predict", "--model", "{tmp}/no_model", "--origin",
          "40.72,-74.0", "--dest", "40.73,-73.99", "--time", "30000"],
         "FileNotFoundError"),
        (["eta", "predict", "--model", "{model}", "--origin", "40.7",
          "--dest", "40.73,-73.99", "--time", "30000"], "ValueError"),
        (["eta", "predict", "--model", "{model}", "--origin", "a,b",
          "--dest", "40.73,-73.99", "--time", "30000"], "ValueError"),
        (["report", "--out", "{tmp}"], "FileNotFoundError"),
        (["data", "ingest", "--csv", "{tmp}/no_passengers.csv"],
         "ConfigError"),
    ], ids=["missing-config", "missing-model", "origin-one-number",
            "origin-not-numbers", "report-empty-dir", "csv-missing-column"])
    def test_runtime_failure_is_one_json_line(self, tmp_path, capsys,
                                              saved_model, argv, error):
        (tmp_path / "no_passengers.csv").write_text(
            "pickup_datetime,dropoff_datetime,pickup_longitude,"
            "pickup_latitude,dropoff_longitude,dropoff_latitude,"
            "trip_distance\n")
        argv = [a.format(tmp=tmp_path, model=saved_model) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code != 0 and out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert set(payload) == {"error", "message"}
        assert payload["error"] == error and payload["message"]

    @pytest.mark.parametrize("field, stats", [
        ("loc_stats", {"mean": [0.0] * 4, "std": [float("nan")] * 4}),
        ("t_stats", {"mean": [100.0], "std": [0.0]}),
        ("loc_stats", {"mean": [0.0] * 3, "std": [1.0] * 3}),
    ], ids=["nan-std", "zero-std", "three-loc-stats"])
    def test_corrupted_model_is_one_json_line(self, tmp_path, capsys,
                                              saved_model, field, stats):
        model_dir = tmp_path / "eta_model"
        shutil.copytree(saved_model, model_dir)
        meta = json.loads((model_dir / "meta.json").read_text())
        meta[field] = stats
        (model_dir / "meta.json").write_text(json.dumps(meta))
        code, out, err = run_cli(capsys, "eta", "predict", "--model",
                                 str(model_dir), "--origin", "40.72,-74.0",
                                 "--dest", "40.73,-73.99", "--time", "30000")
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert set(payload) == {"error", "message"}
        assert payload["error"] == "ValueError" and field in payload["message"]
