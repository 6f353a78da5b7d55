"""Travel-time and travel-distance estimation from binned trip endpoints.

The main estimator is a joint model built from two stacked MLPs: a distance
trunk that sees only the four binned endpoint coordinates, and a time head
that consumes the trunk's last hidden activations concatenated with the
(binned) time-of-day. Both heads are trained together on a single summed
half-MSE loss, so time-head gradients flow back through the shared trunk.
The distance output is architecturally independent of time-of-day.

Baselines: an ordinary-least-squares linear regressor on raw coordinates and
a time-only MLP fed the binned endpoints plus time. Every MLP uses ReLU on
its hidden layers.

The learned estimators see a leg only through its cell key ``(oi, oj, di,
dj, time_bin)``, built in one place. Each ``predict_batch`` featurizes and
scales a whole batch at once and runs each layer as one matmul over the
``(N, 1, in)`` row stack (:meth:`Mlp.forward_rows`), which numpy computes
one-row slice by slice, so row ``i`` equals ``predict_batch([q_i])`` bit for
bit (a 2-D batch matmul may round otherwise); one query is a batch of one.
:func:`evaluate` scores a held-out split with one such call.
:class:`ModelEta` times the simulator's legs by cell key through the same
trunk and time head, without the distance head: a search's memo misses
run as one row-exact batch, so each leg's time has the bits of its
one-row prediction.

The SGD trainers take an :class:`~carpool_rl.config.EtaConfig` (learning
rate, batch size, epochs and the joint model's hidden widths) and a seed,
which seeds both the network initialization and the minibatch order.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterator, Sequence

import numpy as np

from .config import EtaConfig
from .geo import (GeoPoint, GridSpec, OutOfGridError, bin_time, cell_index,
                  haversine_miles, shifted_time)
# Unused here; kept bound because perfbench/spans.py wraps eta.bin_location.
from .geo import bin_location  # noqa: F401
from .nn import Mlp, CHECKPOINT_FORMAT, half_mse, json_object
from .trips import TripStore

MODEL_FORMAT = "eta-joint/1"
GRID_KEYS = ("origin_lat", "origin_lon", "cell_lat", "cell_lon", "time_bin")  # meta.json


@dataclass(frozen=True)
class EtaQuery:
    """One estimation request: endpoints plus seconds-of-day. A
    :class:`~carpool_rl.trips.TripRecord` has these fields, so is a query."""

    origin: GeoPoint
    destination: GeoPoint
    pickup_seconds: float
    is_weekend: bool = False


@dataclass(frozen=True)
class EtaMetrics:
    mae: float
    mre: float
    medae: float
    medre: float
    r2: float


# The four values every featurization reads, from a query or a trip.
_query_tuple = attrgetter("origin", "destination", "pickup_seconds",
                          "is_weekend")


def _cell_key(origin, destination, seconds_of_day, is_weekend, grid):
    """A leg's cell key ``(oi, oj, di, dj, time_bin)``: its endpoints' grid
    cells and its time bin, weekend offset applied."""
    (oi, oj), (di, dj) = cell_index(origin, grid), cell_index(destination, grid)
    return oi, oj, di, dj, bin_time(seconds_of_day, is_weekend, grid)


def _feature_matrix(queries, grid: GridSpec) -> np.ndarray:
    """The ``(N, 5)`` float matrix of the queries' cell keys, one row each;
    a bad item raises the error its own binning would."""
    rows = [_cell_key(o, d, t, w, grid)
            for o, d, t, w in map(_query_tuple, queries)]
    return np.array(rows, dtype=float).reshape(len(rows), 5)


def _trips(store: TripStore, what: str):
    """A store's trips and their durations; an empty store raises."""
    records = store.records
    if not records:
        raise ValueError(f"empty {what} set")
    return records, np.array([r.duration for r in records], dtype=float)


@dataclass(frozen=True)
class Standardizer:
    """Per-feature z-scoring with a floor on the scale."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        return cls(x.mean(axis=0), np.maximum(x.std(axis=0), 1e-8))

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.mean) / self.std

    def inverse(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) * self.std + self.mean

    def to_dict(self):
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d, where, width: int) -> "Standardizer":
        """Read :meth:`to_dict`'s output: ``mean`` and ``std`` must each hold
        ``width`` finite numbers, stds positive, or a ``ValueError`` names ``where``."""
        d = json_object(d, where, mean=[float], std=[float])
        mean, std = np.asarray(d["mean"], dtype=float), np.asarray(d["std"], dtype=float)
        if mean.shape != (width,) or std.shape != (width,):
            raise ValueError(f"{where}: mean and std must have shape ({width},), "
                             f"not {mean.shape} and {std.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
            raise ValueError(f"{where}: needs finite means and finite, positive stds: {d}")
        return cls(mean, std)


class JointEtaModel:
    """Joint travel time/distance estimator over binned endpoints.

    Construction (and so :meth:`load`) raises ``ValueError`` unless the
    trunk takes the four location features and both heads read the trunk's
    output and return one value; :meth:`Standardizer.from_dict` checks each
    saved normalization statistic.
    """

    def __init__(self, trunk: Mlp, dist_head: Mlp, time_net: Mlp,
                 grid: GridSpec, loc_stats: Standardizer, t_stats: Standardizer,
                 y_time_stats: Standardizer, y_dist_stats: Standardizer):
        if trunk.input_width != 4:
            raise ValueError(f"trunk input width must be 4, not "
                             f"{trunk.input_width}")
        if dist_head.input_width != trunk.output_width:
            raise ValueError("distance head input width must be trunk width")
        if time_net.input_width != trunk.output_width + 1:
            raise ValueError("time net input width must be trunk width + 1")
        if dist_head.output_width != 1 or time_net.output_width != 1:
            raise ValueError("both heads must output width 1")
        self.trunk = trunk
        self.dist_head = dist_head
        self.time_net = time_net
        self.grid = grid
        self.loc_stats = loc_stats
        self.t_stats = t_stats
        self.y_time_stats = y_time_stats
        self.y_dist_stats = y_dist_stats
        self.epoch_losses: list[float] = []

    def _sgd_step(self, xl, xt, yt, yd, lr: float) -> float:
        """One SGD step of the summed two-head half-MSE on a standardized
        batch; returns the pre-update loss."""
        z, cache_tr = self.trunk.forward(xl)
        h = np.maximum(z, 0.0)  # trunk output counts as a hidden layer
        y_dist, cache_d = self.dist_head.forward(h)
        y_time, cache_t = self.time_net.forward(np.concatenate([h, xt], axis=1))
        loss_t, gout_t = half_mse(y_time, yt)
        loss_d, gout_d = half_mse(y_dist, yd)
        g_h = (self.time_net.backward(cache_t, gout_t)[:, :self.trunk.output_width]
               + self.dist_head.backward(cache_d, gout_d))
        self.trunk.backward(cache_tr, g_h * (z > 0.0))
        self.time_net.apply_gradients(lr)
        self.dist_head.apply_gradients(lr)
        self.trunk.apply_gradients(lr)
        return loss_t + loss_d

    def _trunk_and_time(self, x: np.ndarray):
        """The trunk's output after its ReLU and the travel times clamped at
        0, for cell-key rows, each row computed alone (row-exact)."""
        h = np.maximum(self.trunk.forward_rows(self.loc_stats.transform(x[:, :4])), 0.0)
        y = self.time_net.forward_rows(
            np.concatenate([h, self.t_stats.transform(x[:, 4:])], axis=1))
        return h, np.maximum(self.y_time_stats.inverse(y)[:, 0], 0.0)

    def predict_batch(self, queries: Sequence[EtaQuery]):
        """Returns (times, distances) arrays, clamped at 0. Row-exact: row
        ``i`` equals ``predict_batch([queries[i]])`` bit for bit, and its
        time equals :meth:`_trunk_and_time`'s for the row's cell key in any
        batch of cell keys."""
        h, times = self._trunk_and_time(_feature_matrix(queries, self.grid))
        dists = self.y_dist_stats.inverse(self.dist_head.forward_rows(h))[:, 0]
        return times, np.maximum(dists, 0.0)

    def save(self, directory) -> None:
        os.makedirs(directory, exist_ok=True)
        self.trunk.save(os.path.join(directory, "trunk.json"))
        self.dist_head.save(os.path.join(directory, "dist_head.json"))
        self.time_net.save(os.path.join(directory, "time_net.json"))
        g = self.grid
        meta = {
            "format": MODEL_FORMAT,
            "nn_format": CHECKPOINT_FORMAT,
            "grid": dict(zip(GRID_KEYS, (g.origin_corner.lat, g.origin_corner.lon,
                                         g.cell_lat, g.cell_lon, g.time_bin))),
            "loc_stats": self.loc_stats.to_dict(),
            "t_stats": self.t_stats.to_dict(),
            "y_time_stats": self.y_time_stats.to_dict(),
            "y_dist_stats": self.y_dist_stats.to_dict(),
        }
        with open(os.path.join(directory, "meta.json"), "w") as fh:
            json.dump(meta, fh)

    @classmethod
    def load(cls, directory) -> "JointEtaModel":
        path = os.path.join(directory, "meta.json")
        widths = {"loc_stats": 4, "t_stats": 1, "y_time_stats": 1, "y_dist_stats": 1}
        with open(path) as fh:
            meta = json_object(json.load(fh), path, format=str, grid=dict,
                               **dict.fromkeys(widths, dict))
        if meta["format"] != MODEL_FORMAT:
            raise ValueError(f"{path}: unsupported model format {meta['format']!r}")
        g = json_object(meta["grid"], f"{path} grid", **dict.fromkeys(GRID_KEYS, float))
        extra = sorted(g.keys() - set(GRID_KEYS))
        if extra:
            raise ValueError(f"{path} grid: unexpected key {extra[0]!r}")
        stats = [Standardizer.from_dict(meta[k], f"{path} {k}", n)
                 for k, n in widths.items()]
        nets = [Mlp.load(os.path.join(directory, f"{name}.json"))
                for name in ("trunk", "dist_head", "time_net")]
        try:
            origin = GeoPoint(g["origin_lat"], g["origin_lon"])
            grid = GridSpec(origin, g["cell_lat"], g["cell_lon"], g["time_bin"])
            return cls(*nets, grid, *stats)  # checks the networks' widths
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _sgd_epochs(step, arrays, cfg: EtaConfig, rng) -> list[float]:
    """``cfg.epochs`` epochs of minibatch SGD; each cuts one permutation of the
    rows of ``arrays`` (drawn from ``rng``) into ``cfg.batch_size`` slices and
    calls ``step(*slice, cfg.learning_rate)`` on each. Returns the epochs' mean losses."""
    n, losses = len(arrays[0]), []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        batches = (perm[i:i + cfg.batch_size] for i in range(0, n, cfg.batch_size))
        losses.append(float(np.mean([step(*(a[idx] for a in arrays), cfg.learning_rate)
                                     for idx in batches])))
    return losses


def train_joint_eta(train: TripStore, grid: GridSpec, cfg: EtaConfig,
                    seed: int) -> JointEtaModel:
    """Fit the joint time/distance model with minibatch SGD.

    The distance trunk has hidden widths ``cfg.dist_hidden``; the time net
    sees the trunk's last hidden layer plus the time feature, so the two
    widths couple by construction, and has hidden widths
    ``cfg.time_hidden``. The loss is the sum of the two heads' half mean
    squared errors over standardized targets; both heads' gradients reach
    the shared trunk. Raises if the loss goes non-finite.
    """
    records, y_time = _trips(train, "training")
    y_dist = np.array([r.distance for r in records], dtype=float)
    x = _feature_matrix(records, grid)

    loc_stats = Standardizer.fit(x[:, :4])
    t_stats = Standardizer.fit(x[:, 4:])
    y_time_stats = Standardizer.fit(y_time[:, None])
    y_dist_stats = Standardizer.fit(y_dist[:, None])
    xl = loc_stats.transform(x[:, :4])
    xt = t_stats.transform(x[:, 4:])
    yt = y_time_stats.transform(y_time[:, None])
    yd = y_dist_stats.transform(y_dist[:, None])

    rng = np.random.default_rng(seed)
    trunk = Mlp([4, *cfg.dist_hidden], rng=rng)
    dist_head = Mlp([cfg.dist_hidden[-1], 1], rng=rng)
    time_net = Mlp([cfg.dist_hidden[-1] + 1, *cfg.time_hidden, 1], rng=rng)
    model = JointEtaModel(trunk, dist_head, time_net, grid,
                          loc_stats, t_stats, y_time_stats, y_dist_stats)

    model.epoch_losses = _sgd_epochs(model._sgd_step, (xl, xt, yt, yd), cfg, rng)
    return model


@dataclass(frozen=True)
class TimeOnlyModel:
    """Single MLP from [binned endpoints, time bin] to travel time."""

    net: Mlp
    grid: GridSpec
    x_stats: Standardizer
    y_stats: Standardizer

    def predict_batch(self, queries: Sequence[EtaQuery]) -> np.ndarray:
        """Travel times clamped at 0; row-exact like the joint model's."""
        x = self.x_stats.transform(_feature_matrix(queries, self.grid))
        return np.maximum(self.y_stats.inverse(self.net.forward_rows(x))[:, 0], 0.0)


def train_time_only(train: TripStore, grid: GridSpec, cfg: EtaConfig,
                    seed: int) -> TimeOnlyModel:
    """Fit the time-only MLP baseline, hidden widths 64 and 64 (same loss
    machinery and SGD settings as the joint model)."""
    records, y_time = _trips(train, "training")
    x = _feature_matrix(records, grid)
    x_stats = Standardizer.fit(x)
    y_stats = Standardizer.fit(y_time[:, None])
    xs = x_stats.transform(x)
    ys = y_stats.transform(y_time[:, None])

    rng = np.random.default_rng(seed)
    net = Mlp([5, 64, 64, 1], rng=rng)
    _sgd_epochs(net.sgd_step, (xs, ys), cfg, rng)
    return TimeOnlyModel(net, grid, x_stats, y_stats)


@dataclass(frozen=True)
class LinearTimeModel:
    """Ordinary least squares on raw endpoint coordinates plus time."""

    x_stats: Standardizer
    coef: np.ndarray  # [intercept, 5 standardized-feature weights]

    def predict_batch(self, queries: Sequence[EtaQuery]) -> np.ndarray:
        """Travel times, unclamped; row-exact like the joint model's."""
        x = self.x_stats.transform(_raw_features(queries))
        w0, w = self.coef[0], self.coef[1:]
        return w0 + (x[:, None, :] @ w)[:, 0]


def _raw_features(queries) -> np.ndarray:
    """Unbinned ``[o_lat, o_lon, d_lat, d_lon, t]`` per query, ``t`` the
    seconds of day plus one day on weekends."""
    rows = [(o.lat, o.lon, d.lat, d.lon, shifted_time(t, w))
            for o, d, t, w in map(_query_tuple, queries)]
    return np.array(rows, dtype=float).reshape(len(rows), 5)


def train_linear_time(train: TripStore) -> LinearTimeModel:
    """Closed-form normal-equations fit of travel time on raw features.

    Features are standardized internally for conditioning; a singular
    normal matrix falls back to a tiny ridge term (1e-8 of the mean
    diagonal), which is the documented behavior for degenerate designs.
    """
    records, y = _trips(train, "training")
    raw = _raw_features(records)
    x_stats = Standardizer.fit(raw)
    x = x_stats.transform(raw)
    design = np.concatenate([np.ones((len(records), 1)), x], axis=1)
    xtx = design.T @ design
    xty = design.T @ y
    try:
        coef = np.linalg.solve(xtx, xty)
    except np.linalg.LinAlgError:
        coef = None
    if coef is None or not np.all(np.isfinite(coef)):
        lam = 1e-8 * np.trace(xtx) / xtx.shape[0]
        coef = np.linalg.solve(xtx + lam * np.eye(xtx.shape[0]), xty)
    return LinearTimeModel(x_stats, coef)


def compute_metrics(y_true, y_pred) -> EtaMetrics:
    """MAE, MRE, MedAE, MedRE and R2 for prediction vectors.

    Samples with ground truth exactly zero are excluded from the relative
    metrics (with a warning); R2 is NaN when the truth is constant.
    """
    y = np.asarray(y_true, dtype=float)
    f = np.asarray(y_pred, dtype=float)
    if y.shape != f.shape or y.ndim != 1 or y.size == 0:
        raise ValueError("y_true and y_pred must be equal-length 1-D vectors")
    err = np.abs(y - f)
    mae = float(err.mean())
    medae = float(np.median(err))
    nz = y != 0
    if not np.all(nz):
        warnings.warn(f"excluding {int((~nz).sum())} zero-ground-truth samples "
                      "from relative-error metrics")
    if nz.any():
        mre = float(err[nz].sum() / y[nz].sum())
        medre = float(np.median(err[nz] / y[nz]))
    else:
        mre = medre = float("nan")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum((y - f) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    return EtaMetrics(mae=mae, mre=mre, medae=medae, medre=medre, r2=r2)


def evaluate(predict_batch_fn: Callable[[Sequence[EtaQuery]], np.ndarray],
             test: TripStore) -> EtaMetrics:
    """Score a batch travel-time predictor on held-out trips: one call with
    the trips themselves as queries, in order, returning one time each."""
    records, y = _trips(test, "test")
    f = np.asarray(predict_batch_fn(records), dtype=float)
    return compute_metrics(y, f)


class ConstantSpeedEta:
    """Great-circle distance over a fixed speed; handy for tests and as a
    deterministic simulator backend."""

    def __init__(self, speed_mph: float):
        if not 0 < speed_mph < math.inf:  # false for nan as well
            raise ValueError(f"speed must be finite and positive: {speed_mph!r}")
        self.speed_mph = speed_mph

    def travel_time(self, origin, destination, seconds_of_day, is_weekend) -> float:
        return haversine_miles(origin, destination) / self.speed_mph * 3600.0

    def leg_times(self, origin, destinations, seconds_of_day,
                  is_weekend) -> Iterator[float]:
        """The :meth:`travel_time` of each leg ``origin -> destination``,
        computed as the caller consumes it."""
        for destination in destinations:
            yield self.travel_time(origin, destination, seconds_of_day, is_weekend)


class ModelEta:
    """The simulator's leg timer over a trained joint model: the same
    ``travel_time`` and ``leg_times`` methods :class:`ConstantSpeedEta` has.

    The joint model sees a leg only through its binned endpoints and its
    time bin (weekend offset included), so the travel time is a pure
    function of the key ``(oi, oj, di, dj, time_bin)``, and it equals the
    time ``model.predict_batch`` gives for the leg bit for bit; the distance
    head never runs. A yielded float is memoized for the adapter's life, so
    repeat legs return bit-identical values.

    :meth:`leg_times` times one search's legs from one origin at one time:
    the origin cell and the time bin are binned once, when the first leg is
    asked for, so an off-grid origin or a seconds-of-day outside [0, 86400)
    raises there. At the search's first memo miss, every distinct key the
    memo lacks from that leg to the last runs through the trunk and the
    time head in one row-exact call; the search keeps those times for
    itself, and a leg's time enters the memo only when it is yielded. A
    search whose legs all hit runs no model. Each destination is binned
    when its leg is reached, so an off-grid one raises at its own leg, as
    does a non-finite prediction (``ValueError`` naming its key).
    :meth:`travel_time` is the one-leg search.
    """

    def __init__(self, model: JointEtaModel):
        self.model = model
        self._memo: dict[tuple[int, int, int, int, int], float] = {}

    def travel_time(self, origin, destination, seconds_of_day, is_weekend) -> float:
        return next(self.leg_times(origin, (destination,), seconds_of_day,
                                   is_weekend))

    def leg_times(self, origin, destinations, seconds_of_day,
                  is_weekend) -> Iterator[float]:
        """The travel time of each leg ``origin -> destination``, in order,
        computed as the caller consumes it (see the class docstring)."""
        grid, memo = self.model.grid, self._memo
        destinations = list(destinations)  # a miss batches the legs after it
        searched = None  # this search's batched times, from its first miss
        for n, destination in enumerate(destinations):
            if n == 0:
                head = cell_index(origin, grid)
                time_bin = bin_time(seconds_of_day, is_weekend, grid)
            key = (*head, *cell_index(destination, grid), time_bin)
            t = memo.get(key)
            if t is None:
                if searched is None:
                    searched = self._times_missing(head, destinations[n:], time_bin)
                t = searched[key]
                if not math.isfinite(t):
                    raise ValueError(f"non-finite travel time {t} for cell key "
                                     f"(oi, oj, di, dj, time_bin) = {key}")
                memo[key] = t
            yield t

    def _times_missing(self, head, destinations, time_bin) -> dict:
        """The times of the distinct keys of ``destinations``' legs that the
        memo lacks, from one row-exact model call; a destination off the
        grid is left to raise at its own leg."""
        grid, memo = self.model.grid, self._memo
        keys = {}
        for destination in destinations:
            try:
                key = (*head, *cell_index(destination, grid), time_bin)
            except OutOfGridError:
                continue
            if key not in memo:
                keys[key] = None
        times = self.model._trunk_and_time(np.array(list(keys), dtype=float))[1]
        return dict(zip(keys, times.tolist()))
