"""Every benchmark workload, run once at the seed its digest is recorded
for, gives the output digest in ``perfbench/digests.json``: a change that
moves a single bit of the policies or of the ETA metrics fails here, not
only in the benchmark. That digest covers only the report's ``policies``,
so the policy workloads' learning-curve CSVs (the DQN ``loss`` and
``mean_q`` among them) are pinned by their own hash, kept here. The files
under ``perfbench/`` are only read."""

import hashlib
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

# SHA-256 of every curve CSV of the run, in curve-name order (see
# curve_sha256), at workloads.DEFAULT_SEED.
CURVE_SHA256 = {
    "dense_speed": "5732e6e311decad779a657af72d2b3a8f8b64590ca22101abe75c8d735da81b6",
    "dense_joint": "dd9a0697312e3d3baed8e1d6e837436bd0ff66cead85a01207fe91ed8ffcb8bf",
}


def curve_sha256(out_dir) -> str:
    report = json.loads((Path(out_dir) / "report.json").read_text())
    h = hashlib.sha256()
    for name in sorted(report["curves"]):
        h.update(Path(report["curves"][name]).read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_output_matches_recorded_digest(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    csv_path = str(tmp_path / "trips.csv")
    workload.make_inputs(workloads.DEFAULT_SEED, csv_path)
    cfg = workload.config(csv_path, str(tmp_path / "run"))
    workload.run(cfg)
    assert workload.check_output(cfg.out_dir) == DIGESTS[name]
    if name in CURVE_SHA256:
        assert curve_sha256(cfg.out_dir) == CURVE_SHA256[name]
