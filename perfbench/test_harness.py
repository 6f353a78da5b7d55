"""Smoke tests for the benchmark harness, at tiny sizes.

    PYTHONPATH=src python3 -m pytest perfbench/test_harness.py -q
"""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """dense_speed cut down to one seed, one episode per stage."""
    w = dataclasses.replace(workloads.WORKLOADS["dense_speed"], seeds=(0,),
                            train_episodes=1, eval_episodes=1)
    monkeypatch.setitem(workloads.WORKLOADS, w.name, w)
    monkeypatch.setattr(bench, "WORK_ROOT", tmp_path)
    return w


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workload_seed_reaches_generate_synthetic(tiny, monkeypatch, capsys):
    seen = []
    real = workloads.generate_synthetic

    def spy(spec, seed, path):
        seen.append(seed)
        return real(spec, seed, path)

    monkeypatch.setattr(workloads, "generate_synthetic", spy)
    assert bench.main(["--workload", tiny.name, "--seed", "7",
                       "--seconds", "0", "--trace", "0"]) == 0
    assert seen == [7] * bench.SETUP_REPEATS
    result = _result(capsys)
    assert result["correct"] and result["attempted"] == 1
    assert set(result["metrics"]) == {"run_s", "setup_s", "peak_rss_mb"}


def test_inputs_are_a_function_of_the_seed(tmp_path):
    w = workloads.WORKLOADS["dense_speed"]
    paths = [tmp_path / f"{k}.csv" for k in range(3)]
    for path, seed in zip(paths, (3, 3, 4)):
        w.make_inputs(seed, str(path))
    a, b, c = (p.read_bytes() for p in paths)
    assert a == b and a != c


def test_corrupted_digest_is_a_failure_not_a_raise(tiny, capsys):
    # The tiny workload's report cannot match the digest recorded for the
    # full-size workload at the default seed.
    assert bench.main(["--workload", tiny.name,
                       "--seed", str(workloads.DEFAULT_SEED),
                       "--seconds", "0", "--trace", "0"]) == 0
    result = _result(capsys)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1


def test_grade_counts_mismatches_and_raises():
    def rep(digest, error=None):
        return bench.Rep(False, 1.0, 1.0, digest, error)

    reps = [rep("a"), rep("a"), rep("b"), rep(None, "boom")]
    assert bench.grade(reps, None) == 2
    assert [r.error is None for r in reps] == [True, True, False, False]
    assert bench.grade([rep("a"), rep("a")], "b") == 2


def test_run_rep_records_a_raise(tiny, tmp_path):
    class Broken(workloads.Workload):
        def run(self, cfg):
            raise RuntimeError("pipeline broke")

    broken = Broken(**dataclasses.asdict(tiny))
    cfg = broken.config(str(tmp_path / "missing.csv"), str(tmp_path / "out"))
    result = bench.run_rep(broken, cfg)
    assert result.digest is None and "pipeline broke" in result.error


def _span(name, start, end, parent):
    return (name, float(start), float(end), parent)


def test_self_times_on_a_hand_built_tree():
    tree = [
        _span("experiments.run", 0, 10, -1),
        _span("agents.train_dqn", 1, 4, 0),
        _span("nn.forward", 2, 3, 1),
        _span("simulator.step", 5, 9, 0),
        _span("eta.travel_time", 5, 6, 3),
        _span("eta.travel_time", 5.5, 7, 3),   # overlaps its sibling
    ]
    assert spans.self_times(tree) == pytest.approx([3, 2, 1, 2, 1, 1.5])
    layers = spans.layer_self_times(tree[:5])
    assert layers["experiments"] == pytest.approx(3)
    assert layers["simulator"] == pytest.approx(3)
    assert sum(layers.values()) == pytest.approx(10)


def test_traced_call_self_times_sum_to_its_root(tiny, tmp_path):
    originals = {(id(o), a): vars(o)[a]
                 for o, a, *_ in spans.Tracer()._targets()}
    inputs = str(tmp_path / "trips.csv")
    tiny.make_inputs(2, inputs)
    cfg = tiny.config(inputs, str(tmp_path / "out"))
    tracer = spans.Tracer()
    result = bench.run_rep(tiny, cfg, tracer)
    assert result.error is None
    assert all(vars(o)[a] is originals[(id(o), a)]
               for o, a, *_ in spans.Tracer()._targets())
    _, start, end, parent = tracer.spans[0]
    assert parent == -1 and result.seconds == end - start
    total = sum(spans.layer_self_times(tracer.spans).values())
    assert total == pytest.approx(end - start, rel=1e-9)
    m = spans.layer_metrics(tracer, workloads.dense_preset().grid)
    assert m["agents.train_step.calls"][0] > 0
    assert m["simulator.step.calls"][0] > 0
    assert m["geo.haversine_miles.calls"][0] == m["eta.travel_time.calls"][0]
    # Tracing must not change the output.
    assert bench.run_rep(tiny, cfg).digest == result.digest
