"""Span tracing from outside the package, and the per-layer numbers made
from the spans.

A :class:`Tracer` wraps public names of ``carpool_rl`` while it is
installed. Each wrapped call records one span ``(name, start, end,
parent)``; the layer of a span is the part of its name before the first
dot. Calls too short and frequent to time (``geo``, replay pushes,
``predict_batch``) are only counted.

Wrappers go where the callers look names up: ``experiments`` binds
``train_dqn``, ``evaluate_policy``, ``ingest_csv`` and friends by name, and
``agents`` / ``eta`` bind ``bin_location`` / ``haversine_miles`` by name, so
wrapping only the defining module would record nothing.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from carpool_rl import agents, eta, experiments, nn, simulator, trips
from carpool_rl.geo import bin_location, bin_time

LAYERS = ("experiments", "agents", "simulator", "eta", "nn", "trips")

# Direct children of the root span, by name, and the phase they belong to.
PHASES = {
    "experiments.prepare_data": "prepare",
    "trips.train_test_split": "prepare",
    "experiments.build_eta_source": "eta",
    "eta.train_linear": "eta",
    "eta.train_time_only": "eta",
    "eta.train_joint": "eta",
    "eta.evaluate": "eta",
    "agents.train_tabular": "tabq",
    "agents.train_dqn": "dqn",
    "agents.evaluate_policy": "eval",
    "experiments.emit_curves": "report",
    "experiments.validate_curve_csv": "report",
    "experiments.validate_report": "report",
    "experiments.report_save": "report",
}
PHASE_NAMES = ("prepare", "eta", "tabq", "dqn", "eval", "report")


class Tracer:
    """Spans and counters of one traced pipeline call, kept in memory."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index or -1)
        self._open: list[int] = [-1]
        self._open_names: list[str] = [""]
        self.counts: Counter = Counter()
        self.eta_queries: list = []    # (origin, destination, seconds, weekend)
        self.dqn_resets: list[float] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span called ``name``."""
        return self.spanned(name, fn)(*args, **kwargs)

    def spanned(self, name: str, fn, hook=None):
        """Wrap ``fn`` so each call records a span; ``hook(args, result)``
        runs after the span closes."""
        spans, open_idx, open_names = self.spans, self._open, self._open_names
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_idx[-1]
            open_idx.append(idx)
            open_names.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_idx.pop()
                open_names.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(args, result)
            return result
        return wrapper

    def counted(self, name: str, fn, hook=None):
        """Wrap ``fn`` so each call is counted; ``hook(args)`` runs first."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if hook is not None:
                hook(args)
            return fn(*args, **kwargs)
        return wrapper

    # -- hooks ---------------------------------------------------------------

    def _forward_rows(self, args, result):
        x = args[1]
        self.counts["nn.forward.rows"] += x.shape[0] if np.ndim(x) == 2 else 1

    def _predict_rows(self, args):
        self.counts["eta.predict_batch.rows"] += len(args[1])

    def _eta_query(self, args, result):
        self.eta_queries.append(args[1:5])

    def _step(self, args, tr):
        action = simulator.Action(args[2])
        self.counts[f"simulator.action.{action.name.lower()}"] += 1
        if action != simulator.Action.WAIT:
            self.counts["simulator.take_attempts"] += 1
            if tr.info.trips:
                self.counts["simulator.served"] += 1
        if len(tr.info.trips) == 2:
            self.counts["simulator.carpools"] += 1
            if tr.info.path == simulator.PATH_TWO:
                self.counts["simulator.path_two"] += 1

    def _reset(self, args):
        if self._open_names[-1] == "agents.train_dqn":
            self.dqn_resets.append(time.perf_counter())

    def _window(self, args, result):
        self.counts["trips.query_window.rows"] += len(result)

    def _ingest(self, args, result):
        self.counts["trips.ingest.rows"] += len(result.store) + result.rejected_count

    def _train_joint(self, args, result):
        train, _, cfg = args[:3]
        self.counts["eta.train_joint.samples"] += len(train) * cfg.epochs

    def _evaluate(self, args, result):
        self.counts["eta.evaluate.queries"] += len(args[1])

    def _eval_policy(self, args, result):
        self.counts["agents.eval_episodes"] += args[2]

    def _targets(self):
        """(owner, attribute, span name, hook, timed) for every wrapped name."""
        E, A, S = experiments, agents, simulator.CarpoolEnv
        return [
            (E, "prepare_data", "experiments.prepare_data", None, True),
            (E, "build_eta_source", "experiments.build_eta_source", None, True),
            (E, "emit_curves", "experiments.emit_curves", None, True),
            (E, "validate_curve_csv", "experiments.validate_curve_csv", None, True),
            (E, "validate_report", "experiments.validate_report", None, True),
            (E.EvalReport, "save", "experiments.report_save", None, True),
            (E, "ingest_csv", "trips.ingest", self._ingest, True),
            (trips.TripStore, "query_window", "trips.query_window",
             self._window, True),
            (trips.TripStore, "mask_region", "trips.mask_region", None, True),
            (trips.TripStore, "train_test_split", "trips.train_test_split",
             None, True),
            (E, "train_tabular", "agents.train_tabular", None, True),
            (E, "train_dqn", "agents.train_dqn", None, True),
            (E, "evaluate_policy", "agents.evaluate_policy",
             self._eval_policy, True),
            (A, "tabular_update", "agents.tabular_update", None, True),
            (A.DqnAgent, "train_step", "agents.train_step", None, True),
            (A.DqnAgent, "act", "agents.act", None, True),
            (A.ReplayMemory, "sample", "agents.replay.sample", None, True),
            (A.ReplayMemory, "push", "agents.replay.push", None, False),
            (nn.Mlp, "forward", "nn.forward", self._forward_rows, True),
            (nn.Mlp, "backward", "nn.backward", None, True),
            (nn.Mlp, "apply_gradients", "nn.apply_gradients", None, True),
            (E, "train_joint_eta", "eta.train_joint", self._train_joint, True),
            (E, "train_time_only", "eta.train_time_only", None, True),
            (E, "train_linear_time", "eta.train_linear", None, True),
            (E, "evaluate", "eta.evaluate", self._evaluate, True),
            (eta.ModelEta, "travel_time", "eta.travel_time", self._eta_query, True),
            (eta.ConstantSpeedEta, "travel_time", "eta.travel_time",
             self._eta_query, True),
            (eta.JointEtaModel, "predict_batch", "eta.predict_batch",
             self._predict_rows, False),
            (eta.TimeOnlyModel, "predict_batch", "eta.predict_batch",
             self._predict_rows, False),
            (eta.LinearTimeModel, "predict_batch", "eta.predict_batch",
             self._predict_rows, False),
            (S, "step", "simulator.step", self._step, True),
            (S, "can_take_one", "simulator.probe", None, True),
            (S, "can_take_two", "simulator.probe", None, True),
            (S, "reset", "simulator.reset", self._reset, False),
            (A, "bin_location", "geo.bin_location", None, False),
            (eta, "bin_location", "geo.bin_location", None, False),
            (eta, "haversine_miles", "geo.haversine_miles", None, False),
        ]

    @contextmanager
    def installed(self):
        """Wrap the package's names for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, hook, timed in self._targets():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                wrap = self.spanned if timed else self.counted
                setattr(owner, attr, wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# -- arithmetic on spans ---------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_self_times(spans) -> dict[str, float]:
    """Self time summed per layer (the span name's first component)."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for (name, *_), own in zip(spans, self_times(spans)):
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def repeat_key_frac(queries, grid) -> float:
    """Share of ETA queries whose (o_cell, d_cell, time_bin) key was seen
    earlier in the same call."""
    seen, repeats = set(), 0
    for origin, destination, seconds, weekend in queries:
        oi, oj, _ = bin_location(origin, grid)
        di, dj, _ = bin_location(destination, grid)
        key = (oi, oj, di, dj, bin_time(seconds, weekend, grid))
        if key in seen:
            repeats += 1
        else:
            seen.add(key)
    return _ratio(repeats, len(queries))


def dqn_episode_ms(tracer: Tracer) -> list[float]:
    """Wall time of each DQN training episode: from one ``env.reset`` to the
    next, the last one ending with its ``train_dqn`` call."""
    out = []
    for name, start, end, _ in tracer.spans:
        if name != "agents.train_dqn":
            continue
        marks = [t for t in tracer.dqn_resets if start <= t <= end] + [end]
        out.extend((b - a) * 1e3 for a, b in zip(marks, marks[1:]))
    return out


def layer_metrics(tracer: Tracer, grid) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pipeline call whose root span is the
    first span recorded. DQN episode times are pooled over calls by the
    caller (see :func:`dqn_episode_ms`)."""
    spans, counts = tracer.spans, tracer.counts
    calls, busy = Counter(), defaultdict(float)
    for name, start, end, _ in spans:
        calls[name] += 1
        busy[name] += end - start
    phases = dict.fromkeys(PHASE_NAMES, 0.0)
    for name, start, end, parent in spans:
        if parent == 0 and name in PHASES:
            phases[PHASES[name]] += end - start
    own = layer_self_times(spans)
    m = {
        "agents.train_step.calls": (calls["agents.train_step"], "count"),
        "agents.train_step.busy_s": (busy["agents.train_step"], "s"),
        "agents.train_steps_per_s": (
            _ratio(calls["agents.train_step"], busy["agents.train_dqn"]), "1/s"),
        "agents.replay.sample.busy_s": (busy["agents.replay.sample"], "s"),
        "agents.replay.push.calls": (counts["agents.replay.push"], "count"),
        "agents.act.busy_s": (busy["agents.act"], "s"),
        "agents.tabular_update.calls": (calls["agents.tabular_update"], "count"),
        "agents.tabular_update.busy_s": (busy["agents.tabular_update"], "s"),
        "agents.eval_episodes_per_s": (
            _ratio(counts["agents.eval_episodes"],
                   busy["agents.evaluate_policy"]), "1/s"),
        "nn.forward.calls": (calls["nn.forward"], "count"),
        "nn.forward.busy_s": (busy["nn.forward"], "s"),
        "nn.forward.rows_per_call": (
            _ratio(counts["nn.forward.rows"], calls["nn.forward"]), "rows"),
        "nn.backward.calls": (calls["nn.backward"], "count"),
        "nn.backward.busy_s": (busy["nn.backward"], "s"),
        "nn.apply_gradients.busy_s": (busy["nn.apply_gradients"], "s"),
        "eta.travel_time.calls": (calls["eta.travel_time"], "count"),
        "eta.travel_time.busy_s": (busy["eta.travel_time"], "s"),
        "eta.travel_time.repeat_key_frac": (
            repeat_key_frac(tracer.eta_queries, grid), "fraction"),
        "eta.predict_batch.calls": (counts["eta.predict_batch"], "count"),
        "eta.predict_batch.rows_per_call": (
            _ratio(counts["eta.predict_batch.rows"],
                   counts["eta.predict_batch"]), "rows"),
        "eta.train_joint.busy_s": (busy["eta.train_joint"], "s"),
        "eta.train_joint.samples_per_s": (
            _ratio(counts["eta.train_joint.samples"], busy["eta.train_joint"]),
            "1/s"),
        "eta.train_time_only.busy_s": (busy["eta.train_time_only"], "s"),
        "eta.train_linear.busy_s": (busy["eta.train_linear"], "s"),
        "eta.evaluate.busy_s": (busy["eta.evaluate"], "s"),
        "eta.evaluate.queries_per_s": (
            _ratio(counts["eta.evaluate.queries"], busy["eta.evaluate"]), "1/s"),
        "simulator.step.calls": (calls["simulator.step"], "count"),
        "simulator.step.busy_s": (busy["simulator.step"], "s"),
        "simulator.steps_per_s": (
            _ratio(calls["simulator.step"], busy["simulator.step"]), "1/s"),
        "simulator.probe.calls": (calls["simulator.probe"], "count"),
        "simulator.probe.busy_s": (busy["simulator.probe"], "s"),
        "simulator.action.wait": (counts["simulator.action.wait"], "count"),
        "simulator.action.take_one": (counts["simulator.action.take_one"], "count"),
        "simulator.action.take_two": (counts["simulator.action.take_two"], "count"),
        "simulator.served_frac": (
            _ratio(counts["simulator.served"], counts["simulator.take_attempts"]),
            "fraction"),
        "simulator.path_two_frac": (
            _ratio(counts["simulator.path_two"], counts["simulator.carpools"]),
            "fraction"),
        "trips.ingest.rows": (counts["trips.ingest.rows"], "count"),
        "trips.ingest.rows_per_s": (
            _ratio(counts["trips.ingest.rows"], busy["trips.ingest"]), "1/s"),
        "trips.query_window.calls": (calls["trips.query_window"], "count"),
        "trips.query_window.busy_s": (busy["trips.query_window"], "s"),
        "trips.query_window.mean_len": (
            _ratio(counts["trips.query_window.rows"], calls["trips.query_window"]),
            "rows"),
        "geo.bin_location.calls": (counts["geo.bin_location"], "count"),
        "geo.haversine_miles.calls": (counts["geo.haversine_miles"], "count"),
    }
    for phase in PHASE_NAMES:
        m[f"experiments.phase.{phase}.busy_s"] = (phases[phase], "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (own[layer], "s")
    return m
