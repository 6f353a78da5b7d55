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
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Sequence

import numpy as np

from .geo import (GeoPoint, GridSpec, SECONDS_PER_DAY, bin_location, bin_time,
                  haversine_miles)
from .nn import Mlp, TrainConfig, CHECKPOINT_FORMAT
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
        if self.travel_time < 0 or self.travel_distance < 0:
            raise ValueError("estimates must be non-negative")


@dataclass(frozen=True)
class EtaMetrics:
    mae: float
    mre: float
    medae: float
    medre: float
    r2: float


def query_from_trip(r: TripRecord) -> EtaQuery:
    return EtaQuery(r.origin, r.destination, r.pickup_seconds, r.is_weekend)


def _records(data) -> tuple[TripRecord, ...]:
    return data.records if isinstance(data, TripStore) else tuple(data)


def location_features(q: EtaQuery, grid: GridSpec) -> np.ndarray:
    """Binned endpoint features [o_lat, o_lon, d_lat, d_lon]."""
    oi, oj, _ = bin_location(q.origin, grid)
    di, dj, _ = bin_location(q.destination, grid)
    return np.array([oi, oj, di, dj], dtype=float)


def time_feature(q: EtaQuery, grid: GridSpec) -> float:
    """Time-bin index with the weekend offset already applied."""
    return float(bin_time(q.seconds_of_day, q.is_weekend, grid))


def _feature_matrix(queries: Sequence[EtaQuery], grid: GridSpec):
    x_loc = np.empty((len(queries), 4))
    x_t = np.empty((len(queries), 1))
    for i, q in enumerate(queries):
        x_loc[i] = location_features(q, grid)
        x_t[i, 0] = time_feature(q, grid)
    return x_loc, x_t


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


@dataclass(frozen=True)
class EtaArch:
    """Hidden widths of the joint model.

    The time net's input width is the distance trunk's last hidden width
    plus one (the time feature), so the coupling holds by construction.
    """

    dist_hidden: tuple[int, ...] = (64, 64, 32)
    time_hidden: tuple[int, ...] = (64, 64)


class JointEtaModel:
    """Joint travel time/distance estimator over binned endpoints."""

    def __init__(self, trunk: Mlp, dist_head: Mlp, time_net: Mlp,
                 grid: GridSpec, loc_stats: Standardizer, t_stats: Standardizer,
                 y_time_stats: Standardizer, y_dist_stats: Standardizer,
                 epoch_losses: Optional[list[float]] = None):
        if time_net.input_width != trunk.output_width + 1:
            raise ValueError("time net input width must be trunk width + 1")
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
        z, cache_tr = self.trunk.forward(x_loc_std)
        h = np.maximum(z, 0.0)  # trunk output counts as a hidden layer
        y_dist, cache_d = self.dist_head.forward(h)
        y_time, cache_t = self.time_net.forward(np.concatenate([h, x_t_std], axis=1))
        return y_time, y_dist, (z, h, cache_tr, cache_d, cache_t)

    def predict_batch(self, queries: Sequence[EtaQuery]):
        """Vectorized prediction: returns (times, distances) arrays, clamped at 0."""
        x_loc, x_t = _feature_matrix(queries, self.grid)
        y_time_std, y_dist_std, _ = self._forward(
            self.loc_stats.transform(x_loc), self.t_stats.transform(x_t))
        times = self.y_time_stats.inverse(y_time_std)[:, 0]
        dists = self.y_dist_stats.inverse(y_dist_std)[:, 0]
        return np.maximum(times, 0.0), np.maximum(dists, 0.0)

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
                "weekend_offset": self.grid.weekend_offset,
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
        g = meta["grid"]
        grid = GridSpec(GeoPoint(g["origin_lat"], g["origin_lon"]),
                        cell_lat=g["cell_lat"], cell_lon=g["cell_lon"],
                        time_bin=g["time_bin"], weekend_offset=g["weekend_offset"])
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
    queries = [query_from_trip(r) for r in records]
    x_loc, x_t = _feature_matrix(queries, grid)
    y_time = np.array([r.duration for r in records], dtype=float)
    y_dist = np.array([r.distance for r in records], dtype=float)
    return x_loc, x_t, y_time, y_dist


def train_joint_eta(train, grid: GridSpec, cfg: TrainConfig,
                    arch: EtaArch = EtaArch()) -> JointEtaModel:
    """Fit the joint time/distance model with minibatch SGD.

    The loss is the sum of the two heads' half mean squared errors over
    standardized targets; both heads' gradients reach the shared trunk.
    Raises if the loss goes non-finite.
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

    rng = np.random.default_rng(cfg.seed)
    trunk = Mlp([4, *arch.dist_hidden], rng=rng)
    dist_head = Mlp([arch.dist_hidden[-1], 1], rng=rng)
    time_net = Mlp([arch.dist_hidden[-1] + 1, *arch.time_hidden, 1], rng=rng)
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
        x_loc, x_t = _feature_matrix(queries, self.grid)
        x = self.x_stats.transform(np.concatenate([x_loc, x_t], axis=1))
        out, _ = self.net.forward(x)
        return np.maximum(self.y_stats.inverse(out)[:, 0], 0.0)

    def predict(self, q: EtaQuery) -> float:
        return float(self.predict_batch([q])[0])


def train_time_only(train, grid: GridSpec, cfg: TrainConfig,
                    hidden: tuple[int, ...] = (64, 64)) -> TimeOnlyModel:
    """Fit the time-only MLP baseline (same loss machinery as the joint model)."""
    records = _records(train)
    if not records:
        raise ValueError("empty training set")
    x_loc, x_t, y_time, _ = _training_arrays(records, grid)
    x = np.concatenate([x_loc, x_t], axis=1)
    x_stats = Standardizer.fit(x)
    y_stats = Standardizer.fit(y_time[:, None])
    xs = x_stats.transform(x)
    ys = y_stats.transform(y_time[:, None])

    rng = np.random.default_rng(cfg.seed)
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

    def predict(self, q: EtaQuery) -> float:
        return float(self.predict_batch([q])[0])

    def predict_batch(self, queries: Sequence[EtaQuery]) -> np.ndarray:
        x = self.x_stats.transform(_raw_features(queries))
        return self.coef[0] + x @ self.coef[1:]


def _raw_features(queries: Sequence[EtaQuery]) -> np.ndarray:
    out = np.empty((len(queries), 5))
    for i, q in enumerate(queries):
        t_eff = q.seconds_of_day + (SECONDS_PER_DAY if q.is_weekend else 0.0)
        out[i] = (q.origin.lat, q.origin.lon,
                  q.destination.lat, q.destination.lon, t_eff)
    return out


def train_linear_time(train) -> LinearTimeModel:
    """Closed-form normal-equations fit of travel time on raw features.

    Features are standardized internally for conditioning; a singular
    normal matrix falls back to a tiny ridge term (1e-8 of the mean
    diagonal), which is the documented behavior for degenerate designs.
    """
    records = _records(train)
    if not records:
        raise ValueError("empty training set")
    x_stats = Standardizer.fit(_raw_features([query_from_trip(r) for r in records]))
    x = x_stats.transform(_raw_features([query_from_trip(r) for r in records]))
    design = np.concatenate([np.ones((len(records), 1)), x], axis=1)
    y = np.array([r.duration for r in records], dtype=float)
    xtx = design.T @ design
    xty = design.T @ y
    try:
        coef = np.linalg.solve(xtx, xty)
    except np.linalg.LinAlgError:
        lam = 1e-8 * np.trace(xtx) / xtx.shape[0]
        coef = np.linalg.solve(xtx + lam * np.eye(xtx.shape[0]), xty)
    if not np.all(np.isfinite(coef)):
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


def evaluate(predict_fn: Callable[[EtaQuery], float], test) -> EtaMetrics:
    """Score a travel-time predictor on held-out trips."""
    records = _records(test)
    if not records:
        raise ValueError("empty test set")
    y = np.array([r.duration for r in records], dtype=float)
    f = np.array([float(predict_fn(query_from_trip(r))) for r in records])
    return compute_metrics(y, f)


class TravelTimeSource(Protocol):
    """Anything the simulator can ask for a leg travel time."""

    def travel_time(self, origin: GeoPoint, destination: GeoPoint,
                    seconds_of_day: float, is_weekend: bool) -> float: ...


class ConstantSpeedEta:
    """Great-circle distance over a fixed speed; handy for tests and as a
    deterministic simulator backend."""

    def __init__(self, speed_mph: float):
        if speed_mph <= 0:
            raise ValueError("speed must be positive")
        self.speed_mph = speed_mph

    def travel_time(self, origin, destination, seconds_of_day, is_weekend) -> float:
        return haversine_miles(origin, destination) / self.speed_mph * 3600.0


class ModelEta:
    """Adapter exposing a trained joint model as a TravelTimeSource."""

    def __init__(self, model: JointEtaModel):
        self.model = model

    def travel_time(self, origin, destination, seconds_of_day, is_weekend) -> float:
        q = EtaQuery(origin, destination, seconds_of_day, is_weekend)
        return self.model.predict(q).travel_time
