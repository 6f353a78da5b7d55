"""Every function and method defined in ``carpool_rl`` runs when each CLI
subcommand runs on a tiny config: a function that none of them reach is
code that only tests call, unless ``UNREACHED`` gives its reason.

The subcommands run in a fresh interpreter with a profile hook installed
before ``carpool_rl`` is imported, so import-time calls count too. A
function is named ``module.qualname``, as ``sys.setprofile`` sees its code.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "carpool_rl"

# Defined, never run by a subcommand, and kept for the stated reason.
UNREACHED = {
    "geo.bin_location": "perfbench/spans.py wraps it by name in agents and eta",
    "nn.json_name": "formats a JSON type's name in error messages only",
}

# Runs the commands given as a JSON list of argv lists, then writes the
# ``module.qualname`` of every package function that ran to the given file.
DRIVER = """
import json, sys
from pathlib import Path
package = Path(sys.argv[3])
ran = set()

def profile(frame, event, arg):
    if event == "call":
        ran.add(frame.f_code)

sys.setprofile(profile)
from carpool_rl.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"carpool-rl {' '.join(argv)} failed")
sys.setprofile(None)
names = {f"{Path(c.co_filename).stem}.{c.co_qualname}" for c in ran
         if Path(c.co_filename).parent == package}
Path(sys.argv[2]).write_text(json.dumps(sorted(names)))
"""


def defined_functions() -> set[str]:
    """``module.qualname`` of every ``def`` in the package, nested ones
    included (lambdas and comprehensions are not ``def``s)."""
    names = set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{module}.{prefix}{child.name}")
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, "")
    return names


def tiny_config(path: Path, out: Path, **extra) -> str:
    cfg = {
        "out_dir": str(out),
        "seeds": [0],
        "eval_episodes": 1,
        "data": {"kind": "synthetic", "preset": "dense", "n_days": 1, "seed": 3},
        "eta": {"kind": "speed", "epochs": 1},
        "dqn": {"train_episodes": 2, "eps_decay_steps": 200},
        "tabq": {"train_episodes": 1, "eps_decay_steps": 200},
        **extra,
    }
    path.write_text(json.dumps(cfg))
    return str(path)


def test_every_function_runs_under_some_subcommand(tmp_path):
    speed = tiny_config(tmp_path / "speed.json", tmp_path / "speed")
    joint = tiny_config(
        tmp_path / "joint.json", tmp_path / "joint",
        day_types=["weekday", "weekend"],
        eta={"kind": "joint", "epochs": 3},
        dqn={"train_episodes": 2, "eps_decay_steps": 200, "sync_period": 1})
    synth, model = tmp_path / "synth", str(tmp_path / "joint" / "eta_model")
    commands = [
        ["data", "synth", "--preset", "dense", "--out", str(synth)],
        ["data", "synth", "--preset", "sparse", "--out", str(synth)],
        ["data", "ingest", "--csv", str(synth / "synthetic_dense.csv"),
         "--region", "downtown"],
        ["eta", "train", "--config", joint],
        ["eta", "eval", "--config", joint],
        ["eta", "predict", "--model", model, "--origin", "40.72,-74.0",
         "--dest", "40.73,-73.99", "--time", "30000"],
        ["train", "fixed", "--config", speed],
        ["train", "tabq", "--config", speed],
        ["train", "dqn", "--config", speed],
        ["eval", "--config", joint],
        ["eval", "--config", speed],
        ["report", "--out", str(tmp_path / "speed")],
    ]
    ran_path = tmp_path / "ran.json"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", DRIVER, json.dumps(commands), str(ran_path),
         str(PACKAGE)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    ran = set(json.loads(ran_path.read_text()))
    defined = defined_functions()
    assert set(UNREACHED) <= defined - ran, "an UNREACHED entry is stale"
    assert sorted(defined - ran - set(UNREACHED)) == []
