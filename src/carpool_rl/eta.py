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

Each estimator's ``predict_batch`` featurizes and scales a whole batch at
once but runs the network row by row, so row ``i`` equals
``predict_batch([q_i])`` bit for bit (a batched matmul may round otherwise).
:func:`evaluate` scores a held-out split with one such batch call. The
joint model's :meth:`JointEtaModel.cell_time` runs one cell key through the
same row steps, trunk and time head only; :class:`ModelEta` times the
simulator's legs with it.

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
from typing import Callable, Optional, Protocol, Sequence

import numpy as np

from .config import EtaConfig
from .geo import (GeoPoint, GridSpec, SECONDS_PER_DAY, bin_time, cell_index,
                  haversine_miles)
# Unused here; kept bound because perfbench/spans.py wraps eta.bin_location.
from .geo import bin_location  # noqa: F401
from .nn import Mlp, CHECKPOINT_FORMAT
from .trips import TripRecord, TripStore

MODEL_FORMAT = "eta-joint/1"


@dataclass(frozen=True)
class EtaQuery:
    """One estimation request: endpoints plus seconds-of-day."""

    origin: GeoPoint
    destination: GeoPoint
    seconds_of_day: float
    is_weekend: bool = False


@dataclass(frozen=True)
class EtaEstimate:
    travel_time: float      # seconds
    travel_distance: float  # miles

    def __post_init__(self):
        if not (0 <= self.travel_time < math.inf
                and 0 <= self.travel_distance < math.inf):  # false for nan
            raise ValueError(f"estimates must be finite and non-negative: "
                             f"{self.travel_time!r}, {self.travel_distance!r}")


@dataclass(frozen=True)
class EtaMetrics:
    mae: float
    mre: float
    medae: float
    medre: float
    r2: float


def query_from_trip(r: TripRecord) -> EtaQuery:
    return EtaQuery(r.origin, r.destination, r.pickup_seconds, r.is_weekend)


# (origin, destination, seconds_of_day, is_weekend) of a query or of a trip:
# the four values every featurization reads.
_query_fields = attrgetter("origin", "destination", "seconds_of_day",
                           "is_weekend")
_trip_fields = attrgetter("origin", "destination", "pickup_seconds",
                          "is_weekend")


def _records(data) -> tuple[TripRecord, ...]:
    return data.records if isinstance(data, TripStore) else tuple(data)


def _feature_matrix(items, grid: GridSpec, fields=_query_fields):
    """Binned endpoint features ``[o_lat, o_lon, d_lat, d_lon]`` and the
    time-bin feature (weekend offset applied), one row per query (or per
    trip, with ``fields=_trip_fields``).

    Binning is scalar Python arithmetic, one tuple per item, put into a
    single array; a bad item raises the error its own binning would.
    """
    rows = [(*cell_index(o, grid), *cell_index(d, grid), bin_time(t, w, grid))
            for o, d, t, w in map(fields, items)]
    x = np.array(rows, dtype=float).reshape(len(rows), 5)
    return x[:, :4], x[:, 4:]


@dataclass(frozen=True)
class Standardizer:
    """Per-feature z-scoring with a floor on the scale."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return cls(x.mean(axis=0), np.maximum(x.std(axis=0), 1e-8))

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.mean) / self.std

    def inverse(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) * self.std + self.mean

    def to_dict(self):
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d) -> "Standardizer":
        return cls(np.asarray(d["mean"], dtype=float),
                   np.asarray(d["std"], dtype=float))


class JointEtaModel:
    """Joint travel time/distance estimator over binned endpoints.

    Construction (and so :meth:`load`) raises ``ValueError`` unless the
    trunk takes the four location features, both heads read the trunk's
    output and return one value, and every normalization statistic has its
    feature's shape with finite means and finite, positive stds.
    """

    def __init__(self, trunk: Mlp, dist_head: Mlp, time_net: Mlp,
                 grid: GridSpec, loc_stats: Standardizer, t_stats: Standardizer,
                 y_time_stats: Standardizer, y_dist_stats: Standardizer,
                 epoch_losses: Optional[list[float]] = None):
        if trunk.input_width != 4:
            raise ValueError(f"trunk input width must be 4, not "
                             f"{trunk.input_width}")
        if dist_head.input_width != trunk.output_width:
            raise ValueError("distance head input width must be trunk width")
        if time_net.input_width != trunk.output_width + 1:
            raise ValueError("time net input width must be trunk width + 1")
        if dist_head.output_width != 1 or time_net.output_width != 1:
            raise ValueError("both heads must output width 1")
        for name, stats, width in (("loc_stats", loc_stats, 4),
                                   ("t_stats", t_stats, 1),
                                   ("y_time_stats", y_time_stats, 1),
                                   ("y_dist_stats", y_dist_stats, 1)):
            if stats.mean.shape != (width,) or stats.std.shape != (width,):
                raise ValueError(
                    f"{name} mean and std must have shape ({width},), not "
                    f"{stats.mean.shape} and {stats.std.shape}")
            if not (np.isfinite(stats.mean).all()
                    and np.isfinite(stats.std).all() and (stats.std > 0).all()):
                raise ValueError(f"{name} needs finite means and finite, "
                                 f"positive stds: {stats.to_dict()}")
        self.trunk = trunk
        self.dist_head = dist_head
        self.time_net = time_net
        self.grid = grid
        self.loc_stats = loc_stats
        self.t_stats = t_stats
        self.y_time_stats = y_time_stats
        self.y_dist_stats = y_dist_stats
        self.epoch_losses = epoch_losses or []

    def _forward(self, x_loc_std: np.ndarray, x_t_std: np.ndarray):
        """Training pass over a standardized batch, keeping every cache."""
        z, cache_tr = self.trunk.forward(x_loc_std)
        h = np.maximum(z, 0.0)  # trunk output counts as a hidden layer
        y_dist, cache_d = self.dist_head.forward(h)
        y_time, cache_t = self.time_net.forward(np.concatenate([h, x_t_std], axis=1))
        return y_time, y_dist, (z, h, cache_tr, cache_d, cache_t)

    # Inference runs one row at a time through these two steps, the same
    # operations ``_forward`` does, so a row's answer does not depend on
    # the batch around it.
    def _hidden(self, x_loc_std: np.ndarray) -> np.ndarray:
        """Trunk step: the trunk's output after its ReLU."""
        z, _ = self.trunk.forward(x_loc_std)
        return np.maximum(z, 0.0)

    def _time_head(self, h: np.ndarray, x_t_std: np.ndarray) -> np.ndarray:
        """Time-head step: standardized travel time from the trunk's output
        and the standardized time feature."""
        y, _ = self.time_net.forward(np.concatenate([h, x_t_std], axis=1))
        return y

    def predict_batch(self, queries: Sequence[EtaQuery]):
        """Returns (times, distances) arrays, clamped at 0. Row-exact: row
        ``i`` equals ``predict_batch([queries[i]])`` bit for bit, and its
        time equals :meth:`cell_time` of the row's cell key."""
        x_loc, x_t = _feature_matrix(queries, self.grid)
        xl = self.loc_stats.transform(x_loc)
        xt = self.t_stats.transform(x_t)
        y_time_std = np.empty((len(xl), 1))
        y_dist_std = np.empty((len(xl), 1))
        for i in range(len(xl)):
            h = self._hidden(xl[i:i + 1])
            y_time_std[i] = self._time_head(h, xt[i:i + 1])
            y_dist_std[i], _ = self.dist_head.forward(h)
        times = self.y_time_stats.inverse(y_time_std)[:, 0]
        dists = self.y_dist_stats.inverse(y_dist_std)[:, 0]
        return np.maximum(times, 0.0), np.maximum(dists, 0.0)

    def cell_time(self, key: tuple[int, int, int, int, int]) -> float:
        """Travel time, clamped at 0, of the cell key ``(oi, oj, di, dj,
        time_bin)``: the time column of ``predict_batch`` for any query
        with that key, bit for bit, without the distance head."""
        x = np.array([key], dtype=float)
        h = self._hidden(self.loc_stats.transform(x[:, :4]))
        y = self._time_head(h, self.t_stats.transform(x[:, 4:]))
        return float(np.maximum(self.y_time_stats.inverse(y)[:, 0], 0.0)[0])

    def predict(self, q: EtaQuery) -> EtaEstimate:
        times, dists = self.predict_batch([q])
        return EtaEstimate(float(times[0]), float(dists[0]))

    def save(self, directory) -> None:
        os.makedirs(directory, exist_ok=True)
        self.trunk.save(os.path.join(directory, "trunk.json"))
        self.dist_head.save(os.path.join(directory, "dist_head.json"))
        self.time_net.save(os.path.join(directory, "time_net.json"))
        meta = {
            "format": MODEL_FORMAT,
            "nn_format": CHECKPOINT_FORMAT,
            "grid": {
                "origin_lat": self.grid.origin_corner.lat,
                "origin_lon": self.grid.origin_corner.lon,
                "cell_lat": self.grid.cell_lat,
                "cell_lon": self.grid.cell_lon,
                "time_bin": self.grid.time_bin,
            },
            "loc_stats": self.loc_stats.to_dict(),
            "t_stats": self.t_stats.to_dict(),
            "y_time_stats": self.y_time_stats.to_dict(),
            "y_dist_stats": self.y_dist_stats.to_dict(),
        }
        with open(os.path.join(directory, "meta.json"), "w") as fh:
            json.dump(meta, fh)

    @classmethod
    def load(cls, directory) -> "JointEtaModel":
        with open(os.path.join(directory, "meta.json")) as fh:
            meta = json.load(fh)
        if meta.get("format") != MODEL_FORMAT:
            raise ValueError(f"unsupported model format {meta.get('format')!r}")
        g = dict(meta["grid"])
        grid = GridSpec(GeoPoint(g.pop("origin_lat"), g.pop("origin_lon")),
                        cell_lat=g.pop("cell_lat"), cell_lon=g.pop("cell_lon"),
                        time_bin=g.pop("time_bin"))
        # Older checkpoints also record the (always one-day) weekend shift.
        if len(g) > 1 or any(v != SECONDS_PER_DAY for v in g.values()):
            raise ValueError(f"unsupported grid fields {g} (weekend times "
                             f"always shift by {SECONDS_PER_DAY} s)")
        return cls(
            Mlp.load(os.path.join(directory, "trunk.json")),
            Mlp.load(os.path.join(directory, "dist_head.json")),
            Mlp.load(os.path.join(directory, "time_net.json")),
            grid,
            Standardizer.from_dict(meta["loc_stats"]),
            Standardizer.from_dict(meta["t_stats"]),
            Standardizer.from_dict(meta["y_time_stats"]),
            Standardizer.from_dict(meta["y_dist_stats"]),
        )


def _training_arrays(records, grid):
    x_loc, x_t = _feature_matrix(records, grid, _trip_fields)
    y_time = np.array([r.duration for r in records], dtype=float)
    y_dist = np.array([r.distance for r in records], dtype=float)
    return x_loc, x_t, y_time, y_dist


def train_joint_eta(train, grid: GridSpec, cfg: EtaConfig,
                    seed: int) -> JointEtaModel:
    """Fit the joint time/distance model with minibatch SGD.

    The distance trunk has hidden widths ``cfg.dist_hidden``; the time net
    sees the trunk's last hidden layer plus the time feature, so the two
    widths couple by construction, and has hidden widths
    ``cfg.time_hidden``. The loss is the sum of the two heads' half mean
    squared errors over standardized targets; both heads' gradients reach
    the shared trunk. Raises if the loss goes non-finite.
    """
    records = _records(train)
    if not records:
        raise ValueError("empty training set")
    x_loc, x_t, y_time, y_dist = _training_arrays(records, grid)

    loc_stats = Standardizer.fit(x_loc)
    t_stats = Standardizer.fit(x_t)
    y_time_stats = Standardizer.fit(y_time[:, None])
    y_dist_stats = Standardizer.fit(y_dist[:, None])
    xl = loc_stats.transform(x_loc)
    xt = t_stats.transform(x_t)
    yt = y_time_stats.transform(y_time[:, None])
    yd = y_dist_stats.transform(y_dist[:, None])

    rng = np.random.default_rng(seed)
    trunk = Mlp([4, *cfg.dist_hidden], rng=rng)
    dist_head = Mlp([cfg.dist_hidden[-1], 1], rng=rng)
    time_net = Mlp([cfg.dist_hidden[-1] + 1, *cfg.time_hidden, 1], rng=rng)
    model = JointEtaModel(trunk, dist_head, time_net, grid,
                          loc_stats, t_stats, y_time_stats, y_dist_stats)

    n = len(records)
    lr = cfg.learning_rate
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            nb = len(idx)
            y_time_hat, y_dist_hat, ctx = model._forward(xl[idx], xt[idx])
            z, h, cache_tr, cache_d, cache_t = ctx
            diff_t = y_time_hat - yt[idx]
            diff_d = y_dist_hat - yd[idx]
            loss = float((np.sum(diff_t ** 2) + np.sum(diff_d ** 2)) / (2.0 * nb))
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"joint training diverged at epoch {epoch}: loss={loss}")
            grads_t, g_in_t = time_net.backward(cache_t, diff_t / nb)
            grads_d, g_in_d = dist_head.backward(cache_d, diff_d / nb)
            g_h = g_in_t[:, :trunk.output_width] + g_in_d
            grads_tr, _ = trunk.backward(cache_tr, g_h * (z > 0.0))
            time_net.apply_gradients(grads_t, lr)
            dist_head.apply_gradients(grads_d, lr)
            trunk.apply_gradients(grads_tr, lr)
            batch_losses.append(loss)
        model.epoch_losses.append(float(np.mean(batch_losses)))
    return model


class TimeOnlyModel:
    """Single MLP from [binned endpoints, time bin] to travel time."""

    def __init__(self, net: Mlp, grid: GridSpec, x_stats: Standardizer,
                 y_stats: Standardizer):
        self.net = net
        self.grid = grid
        self.x_stats = x_stats
        self.y_stats = y_stats

    def predict_batch(self, queries: Sequence[EtaQuery]) -> np.ndarray:
        """Travel times clamped at 0; row-exact like the joint model's."""
        x_loc, x_t = _feature_matrix(queries, self.grid)
        x = self.x_stats.transform(np.concatenate([x_loc, x_t], axis=1))
        out = np.empty((len(x), 1))
        for i in range(len(x)):
            out[i], _ = self.net.forward(x[i:i + 1])
        return np.maximum(self.y_stats.inverse(out)[:, 0], 0.0)


def train_time_only(train, grid: GridSpec, cfg: EtaConfig, seed: int,
                    hidden: tuple[int, ...] = (64, 64)) -> TimeOnlyModel:
    """Fit the time-only MLP baseline (same loss machinery and SGD settings
    as the joint model)."""
    records = _records(train)
    if not records:
        raise ValueError("empty training set")
    x_loc, x_t, y_time, _ = _training_arrays(records, grid)
    x = np.concatenate([x_loc, x_t], axis=1)
    x_stats = Standardizer.fit(x)
    y_stats = Standardizer.fit(y_time[:, None])
    xs = x_stats.transform(x)
    ys = y_stats.transform(y_time[:, None])

    rng = np.random.default_rng(seed)
    net = Mlp([5, *hidden, 1], rng=rng)
    n = len(records)
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            net.sgd_step(xs[idx], ys[idx], cfg.learning_rate)
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
        out = np.empty(len(x))
        for i in range(len(x)):
            out[i:i + 1] = w0 + x[i:i + 1] @ w
        return out


def _raw_features(items, fields=_query_fields) -> np.ndarray:
    """Unbinned ``[o_lat, o_lon, d_lat, d_lon, t]`` per query (or trip),
    ``t`` the seconds of day plus one day on weekends."""
    rows = [(o.lat, o.lon, d.lat, d.lon, t + (SECONDS_PER_DAY if w else 0.0))
            for o, d, t, w in map(fields, items)]
    return np.array(rows, dtype=float).reshape(len(rows), 5)


def train_linear_time(train) -> LinearTimeModel:
    """Closed-form normal-equations fit of travel time on raw features.

    Features are standardized internally for conditioning; a singular
    normal matrix falls back to a tiny ridge term (1e-8 of the mean
    diagonal), which is the documented behavior for degenerate designs.
    """
    records = _records(train)
    if not records:
        raise ValueError("empty training set")
    raw = _raw_features(records, _trip_fields)
    x_stats = Standardizer.fit(raw)
    x = x_stats.transform(raw)
    design = np.concatenate([np.ones((len(records), 1)), x], axis=1)
    y = np.array([r.duration for r in records], dtype=float)
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
        mre = float("nan")
        medre = float("nan")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum((y - f) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    return EtaMetrics(mae=mae, mre=mre, medae=medae, medre=medre, r2=r2)


def evaluate(predict_batch_fn: Callable[[list[EtaQuery]], np.ndarray],
             test) -> EtaMetrics:
    """Score a batch travel-time predictor on held-out trips: one call with
    every trip's query, in order, returning one time per query."""
    records = _records(test)
    if not records:
        raise ValueError("empty test set")
    y = np.array([r.duration for r in records], dtype=float)
    f = np.asarray(predict_batch_fn([query_from_trip(r) for r in records]),
                   dtype=float)
    return compute_metrics(y, f)


class TravelTimeSource(Protocol):
    """Anything the simulator can ask for a leg travel time."""

    def travel_time(self, origin: GeoPoint, destination: GeoPoint,
                    seconds_of_day: float, is_weekend: bool) -> float: ...


class ConstantSpeedEta:
    """Great-circle distance over a fixed speed; handy for tests and as a
    deterministic simulator backend."""

    def __init__(self, speed_mph: float):
        if not 0 < speed_mph < math.inf:  # false for nan as well
            raise ValueError(f"speed must be finite and positive: {speed_mph!r}")
        self.speed_mph = speed_mph

    def travel_time(self, origin, destination, seconds_of_day, is_weekend) -> float:
        return haversine_miles(origin, destination) / self.speed_mph * 3600.0


class ModelEta:
    """Adapter exposing a trained joint model as a TravelTimeSource.

    The joint model sees a leg only through its binned endpoints and its
    time bin (weekend offset included), so the travel time is a pure
    function of the key ``(oi, oj, di, dj, time_bin)``. A key's first call
    (a memo miss) runs the trunk and the time head once, through
    ``model.cell_time(key)``, which equals the time ``model.predict`` gives
    for the leg bit for bit; the distance head never runs. The float is
    memoized for the adapter's life, so repeat legs return bit-identical
    values. The key is binned on every call, so out-of-grid points and
    seconds-of-day outside [0, 86400) still raise. A non-finite prediction
    raises ``ValueError`` naming its key.
    """

    def __init__(self, model: JointEtaModel):
        self.model = model
        self._memo: dict[tuple[int, int, int, int, int], float] = {}

    def travel_time(self, origin, destination, seconds_of_day, is_weekend) -> float:
        grid = self.model.grid
        key = (*cell_index(origin, grid), *cell_index(destination, grid),
               bin_time(seconds_of_day, is_weekend, grid))
        t = self._memo.get(key)
        if t is None:
            t = self.model.cell_time(key)
            if not math.isfinite(t):
                raise ValueError(f"non-finite travel time {t} for cell key "
                                 f"(oi, oj, di, dj, time_bin) = {key}")
            self._memo[key] = t
        return t
