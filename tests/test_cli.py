import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import carpool_rl
from carpool_rl import cli
from carpool_rl.cli import main
from carpool_rl.synth import DENSE_REGION


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

    @pytest.mark.parametrize("region", [None, "uptown", "downtown"])
    def test_ingest_counts_every_row_read(self, tmp_path, capsys, region):
        code, out, _ = run_cli(capsys, "data", "synth", "--preset", "dense",
                               "--seed", "5", "--out", str(tmp_path))
        path = json.loads(out)["path"]
        with open(path, "a") as fh:  # one unparsable row, one with 9 riders
            fh.write("garbage\n2013-01-07 08:00:00,2013-01-07 08:10:00,"
                     "-74.0,40.72,-73.99,40.73,1.5,600,9\n")
        with open(path) as fh:
            rows = sum(1 for _ in fh) - 1  # the header is not a row
        flags = ["--region", region] if region else []
        code, out, _ = run_cli(capsys, "data", "ingest", "--csv", path, *flags)
        payload = json.loads(out)
        assert code == 0 and payload["kept"] + payload["rejected"] == rows
        assert payload["rejected"] == sum(payload["rejections"].values())
        assert payload["rejections"]["unparsable"] == 1
        assert payload["rejections"]["passengers"] == 1
        assert ("region" in payload["rejections"]) == (region is not None)
        assert payload["kept"] == (0 if region == "uptown" else rows - 2)

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

    def test_train_on_one_day_matches_eval_on_both(self, tmp_path, capsys):
        # A day's demand is seeded by the day, not by its place in day_types.
        cfg = write_tiny_config(tmp_path, day_types=["weekday", "weekend"])
        eval_dir = tmp_path / "eval"
        code, _, _ = run_cli(capsys, "eval", "--config", str(cfg),
                             "--out", str(eval_dir))
        assert code == 0
        for day in ("weekday", "weekend"):
            train_dir = tmp_path / day
            for policy in ("tabq", "dqn"):
                code, _, _ = run_cli(capsys, "train", policy, "--config", str(cfg),
                                     "--day", day, "--out", str(train_dir))
                assert code == 0
            csv = f"synthetic_{day}.csv"
            assert (train_dir / csv).read_bytes() == (eval_dir / csv).read_bytes()
            names = sorted(os.listdir(train_dir / "curves"))
            assert len(names) == 5 and all(f"_{day}_seed0" in n for n in names)
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


    def test_region_flag_completes_a_csv_config(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "data", "synth", "--preset", "dense",
                               "--seed", "5", "--out", str(tmp_path))
        cfg = write_tiny_config(tmp_path, data={"kind": "csv",
                                                "csv_path": json.loads(out)["path"]})
        code, out, err = run_cli(capsys, "train", "fixed", "--config", str(cfg))
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert "data.region" in payload["message"]
        assert not os.path.exists(tmp_path / "run")
        b = DENSE_REGION
        code, out, _ = run_cli(capsys, "train", "fixed", "--config", str(cfg),
                               "--region", f"bbox={b.lat_min},{b.lat_max},"
                               f"{b.lon_min},{b.lon_max}")
        assert code == 0
        assert "mean_cumulative_reward" in json.loads(out)

    @pytest.mark.parametrize("flags", [[], ["--seed", "3"],
                                       ["--region", "downtown"]])
    def test_non_object_data_is_a_config_error(self, tmp_path, capsys, flags):
        cfg = write_tiny_config(tmp_path, data=5)
        code, out, err = run_cli(capsys, "train", "fixed", "--config",
                                 str(cfg), *flags)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert "data must be a JSON object" in payload["message"]

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


def set_last_layer(model_dir, part, row, bias):
    """Give every unit of the saved ``part`` network's last layer the weight
    row ``row``, zero-padded to the layer's width, and the bias ``bias``."""
    path = model_dir / f"{part}.json"
    net = json.loads(path.read_text())
    width = len(net["weights"][-1][0])
    net["weights"][-1] = [(row + [0.0] * width)[:width] for _ in net["biases"][-1]]
    net["biases"][-1] = [bias] * len(net["biases"][-1])
    path.write_text(json.dumps(net))


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

    @pytest.mark.parametrize("argv, error, names", [
        (["eval", "--config", "{tmp}/missing.json"], "FileNotFoundError", ""),
        (["eta", "predict", "--model", "{tmp}/no_model", "--origin",
          "40.72,-74.0", "--dest", "40.73,-73.99", "--time", "30000"],
         "FileNotFoundError", ""),
        (["eta", "predict", "--model", "{model}", "--origin", "40.7",
          "--dest", "40.73,-73.99", "--time", "30000"], "ValueError", ""),
        (["eta", "predict", "--model", "{model}", "--origin", "a,b",
          "--dest", "40.73,-73.99", "--time", "30000"], "ValueError", ""),
        (["report", "--out", "{tmp}"], "FileNotFoundError", ""),
        (["report", "--out", "{tmp}/no_policies"], "ValueError", ""),
        (["report", "--out", "{tmp}/policies_list"], "ValueError",
         "policies"),
        (["report", "--out", "{tmp}/fixed_list"], "ValueError",
         "report.json policies: 'fixed'"),
        (["report", "--out", "{tmp}/per_seed_float"], "ValueError",
         "policies/fixed/weekday"),
        (["report", "--out", "{tmp}/top_int"], "ValueError",
         "report.json: expected a JSON object"),
        (["report", "--out", "{tmp}/mean_str"], "ValueError",
         "policies/fixed/weekday: 'mean'"),
        (["report", "--out", "{tmp}/mean_nan"], "ValueError",
         "policies/fixed/weekday: 'mean'"),
        (["report", "--out", "{tmp}/rejected_int"], "ValueError",
         "report.json data: 'rejected'"),
        (["report", "--out", "{tmp}/no_rejected"], "ValueError",
         "report.json data: missing key 'rejected'"),
        (["report", "--out", "{tmp}/curves_int"], "ValueError",
         "report.json: 'curves'"),
        (["report", "--out", "{tmp}/config_list"], "ValueError",
         "report.json: 'config'"),
        (["report", "--out", "{tmp}/no_data"], "ValueError",
         "report.json: missing key 'data'"),
        (["data", "ingest", "--csv", "{tmp}/no_passengers.csv"],
         "ConfigError", ""),
    ], ids=["missing-config", "missing-model", "origin-one-number",
            "origin-not-numbers", "report-empty-dir", "report-no-policies",
            "report-policies-list", "report-policy-list",
            "report-per-seed-float", "report-top-level-int",
            "report-mean-string", "report-mean-nan", "report-rejected-int",
            "report-no-rejected", "report-curves-int", "report-config-list",
            "report-no-data", "csv-missing-column"])
    def test_runtime_failure_is_one_json_line(self, tmp_path, capsys,
                                              saved_model, argv, error, names):
        (tmp_path / "no_passengers.csv").write_text(
            "pickup_datetime,dropoff_datetime,pickup_longitude,"
            "pickup_latitude,dropoff_longitude,dropoff_latitude,"
            "trip_distance\n")
        cell = {"mean": 1.0, "std": 0.0, "per_seed": 1.0}
        good = {**cell, "per_seed": [1.0]}
        printable = {"policies": {"fixed": {"weekday": good}}}
        for name, report in (
                ("no_policies", {}),
                ("policies_list", {"policies": []}),
                ("fixed_list", {"policies": {"fixed": []}}),
                ("per_seed_float", {"policies": {"fixed": {"weekday": cell}}}),
                ("mean_str", {"policies": {"fixed": {
                    "weekday": {**good, "mean": "x"}}}}),
                ("mean_nan", {"policies": {"fixed": {
                    "weekday": {**good, "mean": float("nan")}}}}),
                # Well-formed policy rows, which report would print first.
                ("rejected_int", {**printable, "data": {"kept": 3, "rejected": 5}}),
                ("no_rejected", {**printable, "data": {"kept": 3}}),
                ("curves_int", {**printable, "curves": 3}),
                ("config_list", {**printable, "config": []}),
                ("no_data", {**printable, "data": None})):  # None: no such key
            (tmp_path / name).mkdir()
            saved = {"curves": {}, "config": {},
                     "data": {"kept": 0, "rejected": {}}, **report}
            (tmp_path / name / "report.json").write_text(json.dumps(
                {k: v for k, v in saved.items() if v is not None}))
        (tmp_path / "top_int").mkdir()
        (tmp_path / "top_int" / "report.json").write_text("1")
        argv = [a.format(tmp=tmp_path, model=saved_model) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code != 0 and out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert set(payload) == {"error", "message"}
        assert payload["error"] == error and payload["message"]
        assert names in payload["message"]

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

    @pytest.mark.parametrize("drop, names", [
        ("grid", "'grid'"), ("origin_lat", "'origin_lat'"),
        ("top-level list", "not list"),
        ("origin_lat string", "'origin_lat' is not a JSON number")])
    def test_malformed_meta_is_one_json_line(self, tmp_path, capsys,
                                             saved_model, drop, names):
        model_dir = tmp_path / "eta_model"
        shutil.copytree(saved_model, model_dir)
        meta = json.loads((model_dir / "meta.json").read_text())
        if drop == "grid":
            del meta["grid"]
        elif drop == "origin_lat":
            del meta["grid"]["origin_lat"]
        elif drop == "origin_lat string":
            meta["grid"]["origin_lat"] = "40.7"
        else:
            meta = [meta]
        (model_dir / "meta.json").write_text(json.dumps(meta))
        code, out, err = run_cli(capsys, "eta", "predict", "--model",
                                 str(model_dir), "--origin", "40.72,-74.0",
                                 "--dest", "40.73,-73.99", "--time", "30000")
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ValueError"
        assert "meta.json" in payload["message"] and names in payload["message"]

    def test_non_finite_time_bin_is_one_json_line(self, tmp_path, capsys,
                                                  saved_model):
        # json writes an infinite time_bin as Infinity, and reads it back.
        model_dir = tmp_path / "eta_model"
        shutil.copytree(saved_model, model_dir)
        meta = json.loads((model_dir / "meta.json").read_text())
        meta["grid"]["time_bin"] = float("inf")
        (model_dir / "meta.json").write_text(json.dumps(meta))
        assert '"time_bin": Infinity' in (model_dir / "meta.json").read_text()
        code, out, err = run_cli(capsys, "eta", "predict", "--model",
                                 str(model_dir), "--origin", "40.72,-74.0",
                                 "--dest", "40.73,-73.99", "--time", "30000")
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert set(payload) == {"error", "message"}
        assert payload["error"] == "ValueError"
        assert "time_bin" in payload["message"]

    @pytest.mark.parametrize("case", ["time-inf", "distance-inf", "distance-nan"])
    def test_non_finite_estimate_is_one_json_line(self, tmp_path, capsys,
                                                  saved_model, case):
        # Every saved number is finite, so the model loads; the estimate is
        # not. A head whose output is 1e308 for every input overflows to inf
        # when its target std of 10 scales it back; a trunk whose outputs
        # are all 1e308 feeds the distance head inf - inf, which is nan.
        model_dir = tmp_path / "eta_model"
        shutil.copytree(saved_model, model_dir)
        meta = json.loads((model_dir / "meta.json").read_text())
        if case == "distance-nan":
            set_last_layer(model_dir, "trunk", [], 1e308)
            set_last_layer(model_dir, "dist_head", [1e308, -1e308], 0.0)
        else:
            head, stats = (("time_net", "y_time_stats") if case == "time-inf"
                           else ("dist_head", "y_dist_stats"))
            set_last_layer(model_dir, head, [], 1e308)
            meta[stats]["std"] = [10.0]
        (model_dir / "meta.json").write_text(json.dumps(meta))
        with np.errstate(over="ignore", invalid="ignore"):  # the point here
            code, out, err = run_cli(capsys, "eta", "predict", "--model",
                                     str(model_dir), "--origin", "40.72,-74.0",
                                     "--dest", "40.73,-73.99", "--time", "30000")
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert set(payload) == {"error", "message"}
        assert payload["error"] == "ValueError"
        assert "must be finite" in payload["message"]

    def test_overflow_warnings_stay_off_stderr(self, tmp_path, saved_model):
        # Run as a program, so numpy's RuntimeWarnings reach stderr as they
        # would for a user: only the JSON line may be there.
        model_dir = tmp_path / "eta_model"
        shutil.copytree(saved_model, model_dir)
        set_last_layer(model_dir, "time_net", [], 1e308)
        meta = json.loads((model_dir / "meta.json").read_text())
        meta["y_time_stats"]["std"] = [10.0]
        (model_dir / "meta.json").write_text(json.dumps(meta))
        src = os.path.dirname(os.path.dirname(carpool_rl.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = src
        proc = subprocess.run(
            [sys.executable, "-m", "carpool_rl.cli", "eta", "predict",
             "--model", str(model_dir), "--origin", "40.72,-74.0",
             "--dest", "40.73,-73.99", "--time", "30000"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1 and proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert json.loads(line)["error"] == "ValueError"

    def test_warnings_are_dropped_on_failure_and_kept_on_success(
            self, tmp_path, capsys, monkeypatch):
        def warn_then(fail):
            def command(args):
                warnings.warn("held back", RuntimeWarning)
                if fail:
                    raise ValueError("failed")
                return 0
            return command

        argv = ["report", "--out", str(tmp_path)]
        monkeypatch.setattr(cli, "_cmd_report", warn_then(fail=True))
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and shown == []
        assert json.loads(err)["message"] == "failed"
        monkeypatch.setattr(cli, "_cmd_report", warn_then(fail=False))
        with pytest.warns(RuntimeWarning, match="held back"):
            assert run_cli(capsys, *argv) == (0, "", "")
