"""Command-line entry point.

Subcommands: ``data ingest``, ``data synth``, ``eta train|eval|predict``,
``train fixed|tabq|dqn``, ``eval``, ``report``. Exit code 0 on success; on
failure a one-line JSON error object is written to stderr and the exit code
is nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .agents import FixedPolicy, evaluate_policy, save_qtable
from .config import (ExperimentConfig, apply_overrides, load_config,
                     parse_region)
from .eta import EtaQuery, JointEtaModel, evaluate
from .experiments import (build_env, build_eta_source, emit_curves, fit_dqn,
                          fit_joint_eta, fit_tabq, prepare_data,
                          run_eta_experiment, run_policy_experiment,
                          EvalReport)
from .geo import GeoPoint
from .synth import PRESETS, generate_synthetic
from .trips import ingest_csv


def _load_cfg(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    return apply_overrides(cfg, seed=getattr(args, "seed", None),
                           region=getattr(args, "region", None),
                           day=getattr(args, "day", None),
                           out=getattr(args, "out", None))


def _cmd_data_ingest(args) -> int:
    result = ingest_csv(args.csv)
    store = result.store
    if args.region:
        store = store.mask_region(parse_region(args.region))
    print(json.dumps({"kept": len(store), "rejected": result.rejected_count,
                      "rejections": result.rejections}))
    return 0


def _cmd_data_synth(args) -> int:
    spec = PRESETS[args.preset](args.days, args.noisy, args.day or "weekday")
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"synthetic_{args.preset}.csv")
    n = generate_synthetic(spec, args.seed if args.seed is not None else 0, path)
    print(json.dumps({"path": path, "trips": n}))
    return 0


def _cmd_eta_train(args) -> int:
    cfg = _load_cfg(args)
    data = prepare_data(cfg)
    train, test = data.store.train_test_split(cfg.eta.split_ratio,
                                              cfg.eta.split_seed)
    model = fit_joint_eta(cfg, train, data.grid, cfg.seeds[0])
    model_dir = os.path.join(cfg.out_dir, "eta_model")
    model.save(model_dir)
    metrics = evaluate(lambda q: model.predict(q).travel_time, test)
    print(json.dumps({"model": model_dir, "mae": metrics.mae,
                      "r2": metrics.r2}))
    return 0


def _cmd_eta_eval(args) -> int:
    cfg = _load_cfg(args)
    results = run_eta_experiment(cfg)
    print(json.dumps({m: results[m]["mean"] for m in ("linear", "time_only", "joint")}
                     | {"csv": results["csv_path"]}))
    return 0


def _cmd_eta_predict(args) -> int:
    model = JointEtaModel.load(args.model)
    o_lat, o_lon = (float(x) for x in args.origin.split(","))
    d_lat, d_lon = (float(x) for x in args.dest.split(","))
    est = model.predict(EtaQuery(GeoPoint(o_lat, o_lon), GeoPoint(d_lat, d_lon),
                                 args.time, args.weekend))
    print(json.dumps({"travel_time_s": est.travel_time,
                      "travel_distance_mi": est.travel_distance}))
    return 0


def _cmd_train(args) -> int:
    cfg = _load_cfg(args)
    data = prepare_data(cfg)
    day_type = cfg.day_types[0]
    env = build_env(cfg, data, build_eta_source(cfg, data, cfg.seeds[0]), day_type)
    seed = cfg.seeds[0]
    out = {"policy": args.policy, "day_type": day_type}
    os.makedirs(cfg.out_dir, exist_ok=True)

    if args.policy == "fixed":
        # Nothing to learn; evaluates the baseline and records its rewards.
        mean, totals = evaluate_policy(env, FixedPolicy(env),
                                       cfg.eval_episodes, seed=seed)
        curves = {f"fixed_reward_{day_type}_seed{seed}": totals}
        out["mean_cumulative_reward"] = mean
    elif args.policy == "tabq":
        table, curves = fit_tabq(cfg, env, seed)
        out["qtable"] = os.path.join(cfg.out_dir, "qtable.csv")
        save_qtable(table, out["qtable"])
    else:  # dqn
        agent, curves = fit_dqn(cfg, env, seed)
        out["network"] = os.path.join(cfg.out_dir, "dqn_online.json")
        agent.online.save(out["network"])
    emit_curves(curves, os.path.join(cfg.out_dir, "curves"))
    print(json.dumps(out))
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    report = run_policy_experiment(cfg)
    print(json.dumps({"report": os.path.join(cfg.out_dir, "report.json"),
                      "policies": report.policies}))
    return 0


def _cmd_report(args) -> int:
    report = EvalReport.load(os.path.join(args.out, "report.json"))
    for policy, per_day in sorted(report.policies.items()):
        for day, cell in sorted(per_day.items()):
            print(f"{policy:>6s}  {day:8s}  mean {cell['mean']:10.3f}  "
                  f"std {cell['std']:8.3f}")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--seed", type=int, help="override all seeds")
    p.add_argument("--region", help="uptown | downtown | bbox=lat0,lat1,lon0,lon1")
    p.add_argument("--day", choices=["weekday", "weekend"])
    p.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="carpool-rl")
    sub = parser.add_subparsers(dest="command", required=True)

    data = sub.add_parser("data", help="dataset utilities")
    data_sub = data.add_subparsers(dest="data_command", required=True)
    ingest = data_sub.add_parser("ingest", help="filter a trip CSV")
    ingest.add_argument("--csv", required=True)
    ingest.add_argument("--region")
    ingest.set_defaults(func=_cmd_data_ingest)
    synth = data_sub.add_parser("synth", help="generate synthetic demand")
    synth.add_argument("--preset", choices=sorted(PRESETS), required=True)
    synth.add_argument("--days", type=int, default=1)
    synth.add_argument("--noisy", action="store_true")
    synth.add_argument("--seed", type=int)
    synth.add_argument("--day", choices=["weekday", "weekend"])
    synth.add_argument("--out")
    synth.set_defaults(func=_cmd_data_synth)

    eta = sub.add_parser("eta", help="travel time estimators")
    eta_sub = eta.add_subparsers(dest="eta_command", required=True)
    eta_train = eta_sub.add_parser("train")
    _add_common(eta_train)
    eta_train.set_defaults(func=_cmd_eta_train)
    eta_eval = eta_sub.add_parser("eval")
    _add_common(eta_eval)
    eta_eval.set_defaults(func=_cmd_eta_eval)
    eta_pred = eta_sub.add_parser("predict")
    eta_pred.add_argument("--model", required=True)
    eta_pred.add_argument("--origin", required=True, metavar="LAT,LON")
    eta_pred.add_argument("--dest", required=True, metavar="LAT,LON")
    eta_pred.add_argument("--time", type=float, required=True,
                          help="seconds of day")
    eta_pred.add_argument("--weekend", action="store_true")
    eta_pred.set_defaults(func=_cmd_eta_predict)

    train = sub.add_parser("train", help="train one policy")
    train.add_argument("policy", choices=["fixed", "tabq", "dqn"])
    _add_common(train)
    train.set_defaults(func=_cmd_train)

    ev = sub.add_parser("eval", help="full policy comparison")
    _add_common(ev)
    ev.set_defaults(func=_cmd_eval)

    rep = sub.add_parser("report", help="print a saved report")
    rep.add_argument("--out", required=True)
    rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface a machine-readable error
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
