"""Every benchmark workload, run once at the seed its digest is recorded
for, gives the output digest in ``perfbench/digests.json``: a change that
moves a single bit of the policies or of the ETA metrics fails here, not
only in the benchmark. The files under ``perfbench/`` are only read."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"

_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               BENCH_DIR / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclasses look their module up
_spec.loader.exec_module(workloads)

DIGESTS = json.loads((BENCH_DIR / "digests.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_output_matches_recorded_digest(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    csv_path = str(tmp_path / "trips.csv")
    workload.make_inputs(workloads.DEFAULT_SEED, csv_path)
    cfg = workload.config(csv_path, str(tmp_path / "run"))
    workload.run(cfg)
    assert workload.check_output(cfg.out_dir) == DIGESTS[name]
