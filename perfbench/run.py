"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload dense_speed --seed 1 --seconds 35 --trace 0

Run it from anywhere; the package is imported from ``src/`` beside this
directory, never from elsewhere. Set-up (a fresh interpreter importing the
package, then the workload's trip CSV from ``--seed`` and the config) is
done several times over. Then the pipeline runs again and again for
``--seconds``, each call writing its output to disk and having it checked.
With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` traced and untraced calls alternate and it holds
the per-layer metrics of the traced call with the median wall time.
See README.md beside this file for every metric.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_out"
SETUP_REPEATS = 5
# The host kernel's time (machine.host_speed_ms) in a quiet phase on the
# 2-core Xeon where the benchmark was built. run_s and setup_s are scaled by
# REFERENCE_HOST_MS / (the kernel's median time in the run), so that a host
# that is slower for minutes at a time does not read as a regression.
REFERENCE_HOST_MS = 12.0


def _import_seconds() -> float:
    """Wall time of a fresh interpreter that imports carpool_rl and exits."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import carpool_rl"], env=env,
                   check=True)
    return time.perf_counter() - t0


def _import_package() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import carpool_rl
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import carpool_rl from {src}: {exc}")
    if src.resolve() not in Path(carpool_rl.__file__).resolve().parents:
        raise SystemExit(f"perfbench: carpool_rl was imported from "
                         f"{carpool_rl.__file__}, not from {src}")


@dataclass
class Rep:
    traced: bool
    seconds: float             # the pipeline call, or its root span if traced
    cpu_s: float
    digest: str | None
    error: str | None
    metrics: dict | None = None
    episode_ms: list | None = None


def run_rep(workload, cfg, tracer=None) -> Rep:
    """One pipeline call and the check of its output. A raise or a bad
    output is recorded on the result, never propagated."""
    shutil.rmtree(cfg.out_dir, ignore_errors=True)
    error = digest = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            workload.run(cfg)
        else:
            with tracer.installed():
                tracer.call("experiments.run", workload.run, cfg)
    except Exception:  # a failed run is counted, and the benchmark goes on
        error = traceback.format_exc()
    seconds, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    if tracer is not None and tracer.spans and tracer.spans[0] is not None:
        _, start, end, _ = tracer.spans[0]
        seconds = end - start
    if error is None:
        try:
            digest = workload.check_output(cfg.out_dir)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            error = f"output check failed: {exc!r}"
    return Rep(tracer is not None, seconds, cpu_s, digest, error)


def grade(reps: list[Rep], expected: str | None) -> int:
    """Mark failed reps and return how many failed.

    With an expected digest every rep must match it; otherwise every rep
    must match the first good one.
    """
    reference = expected
    if reference is None:
        reference = next((r.digest for r in reps if r.error is None), None)
    failed = 0
    for r in reps:
        if r.error is None and r.digest != reference:
            r.error = f"digest {r.digest} != expected {reference}"
        failed += r.error is not None
    return failed


def measure(workload, cfg, seconds: float, trace: bool, grid,
            host_ms: list) -> tuple[list[Rep], object]:
    """Run reps until the next one would end past ``seconds``; with
    ``trace`` untraced and traced reps alternate. The host kernel is timed
    into ``host_ms`` before each rep. Returns the reps and the tracer of the
    last traced rep."""
    import spans
    from machine import host_speed_ms

    reps: list[Rep] = []
    longest = {False: 0.0, True: 0.0}
    last_tracer = None
    start = time.perf_counter()
    traced = False
    while True:
        elapsed = time.perf_counter() - start
        have_both = any(not r.traced for r in reps) and (
            not trace or any(r.traced for r in reps))
        if have_both and elapsed + longest[traced] > seconds:
            break
        t0 = time.perf_counter()
        host_ms.append(host_speed_ms())
        tracer = spans.Tracer() if traced else None
        rep = run_rep(workload, cfg, tracer)
        if tracer is not None and rep.error is None:
            rep.metrics = spans.layer_metrics(tracer, grid)
            rep.episode_ms = spans.dqn_episode_ms(tracer)
            last_tracer = tracer
        reps.append(rep)
        longest[traced] = max(longest[traced], time.perf_counter() - t0)
        traced = trace and not traced
    return reps, last_tracer


def write_spans(tracer, path: Path) -> None:
    """All spans of one traced call, times in seconds from its root's start."""
    t0 = tracer.spans[0][1]
    with open(path, "w") as fh:
        fh.write("index,name,start_s,end_s,parent\n")
        for idx, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(f"{idx},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


def _median_rep(reps: list[Rep]) -> Rep:
    ordered = sorted(reps, key=lambda r: r.seconds)
    return ordered[(len(ordered) - 1) // 2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_package()
    import numpy as np
    from machine import host_speed_ms, machine_record
    from workloads import DEFAULT_SEED, WORKLOADS

    machine = machine_record()
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work_dir = WORK_ROOT / workload.name
    work_dir.mkdir(parents=True, exist_ok=True)
    csv_path = str(work_dir / "trips.csv")

    setup_times, synth_times, host_ms = [], [], []
    for _ in range(SETUP_REPEATS):
        host_ms.append(host_speed_ms())
        import_s = _import_seconds()
        t0 = time.perf_counter()
        rows = workload.make_inputs(args.seed, csv_path)
        t1 = time.perf_counter()
        cfg = workload.config(csv_path, str(work_dir / "run"))
        setup_times.append(import_s + time.perf_counter() - t0)
        synth_times.append(t1 - t0)

    from carpool_rl.synth import dense_preset
    grid = dense_preset().grid
    reps, last_tracer = measure(workload, cfg, args.seconds, bool(args.trace),
                                grid, host_ms)
    host_ms.append(host_speed_ms())
    machine["host_speed_ms"] = statistics.median(host_ms)
    scale = REFERENCE_HOST_MS / machine["host_speed_ms"]

    expected = None
    if args.seed == DEFAULT_SEED:
        digests = json.loads((BENCH_DIR / "digests.json").read_text())
        expected = digests[workload.name]
    failed = grade(reps, expected)
    for r in reps:
        if r.error is not None:
            print(f"perfbench: failed call: {r.error.strip().splitlines()[-1]}",
                  file=sys.stderr)

    untraced = [r for r in reps if not r.traced]
    wall_run_s = statistics.median(r.seconds for r in untraced)
    wall_setup_s = statistics.median(setup_times)
    if args.trace:
        traced = [r for r in reps if r.traced and r.metrics is not None]
        if traced:
            chosen = _median_rep(traced)
            metrics = dict(chosen.metrics)
            episodes = [ms for r in traced for ms in r.episode_ms]
            p50, p90 = np.percentile(episodes, [50, 90]) if episodes else (0.0, 0.0)
            metrics["agents.train_episode_ms.p50"] = (float(p50), "ms")
            metrics["agents.train_episode_ms.p90"] = (float(p90), "ms")
            metrics["experiments.traced_run_s"] = (chosen.seconds, "s")
            metrics["trace_overhead_frac"] = (chosen.seconds / wall_run_s - 1.0,
                                              "fraction")
            write_spans(last_tracer, work_dir / "spans.csv")
        else:
            metrics = {}
        metrics["experiments.wall_run_s"] = (wall_run_s, "s")
        metrics["experiments.cpu_s"] = (
            statistics.median(r.cpu_s for r in untraced), "s")
        metrics["synth.rows"] = (rows, "count")
        metrics["synth.rows_per_s"] = (rows / statistics.median(synth_times), "1/s")
    else:
        metrics = {
            "run_s": (wall_run_s * scale, "s"),
            "setup_s": (wall_setup_s * scale, "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    attempted = len(reps)
    digest = next((r.digest for r in reps if r.digest is not None), None)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"reps {attempted} ({sum(r.traced for r in reps)} traced), "
          f"wall s of each call: {' '.join(f'{r.seconds:.3f}' for r in reps)}")
    print(f"wall (not scaled): run_s {wall_run_s:.6g} s, setup_s "
          f"{wall_setup_s:.6g} s; host scale {scale:.4g} = "
          f"{REFERENCE_HOST_MS} ms / {machine['host_speed_ms']:.4g} ms")
    print(f"digest {digest} "
          f"({'checked against digests.json' if expected else 'checked for repeats'})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_frac {failed / attempted:.6g} fraction")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
