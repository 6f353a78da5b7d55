import json
import os

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
