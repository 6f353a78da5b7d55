"""Episodic carpool dispatch environment.

One episode is one simulated day: the driver starts at second 0 at a random
grid cell and the episode ends once the clock crosses day end. Each step is
one of three top-level actions: wait in place, serve a single trip, or serve
two trips as a carpool. Trip assignment inside an action is handled by the
environment: the first trip is the earliest reachable pickup inside the
search window. The second is the candidate reachable from the first pickup
whose two dropoff orderings have the least summed extra travel time
(``total_one + total_two``), the earlier pickup on a tie; the route then
follows the cheaper ordering. The day is the env's, not the driver state's.

Each carpool leg time is taken by its role in the route: each passenger's
solo leg (O1 -> D1, O2 -> D2) is that trip's recorded duration; O1 -> O2 is
the second search's approach leg, and the other three connecting legs are
estimated by the configured travel-time source, all at the first pickup
time. No leg is looked up by its coordinates, so two trips with equal
endpoints keep their own durations. Rewards are effective distance: the sum
of the served trips' recorded distances, in miles; zero whenever nothing
was served.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from operator import attrgetter
from typing import Iterator, Optional

import numpy as np

from .config import EnvParamsConfig
from .geo import Bbox, GeoPoint, GridSpec, SECONDS_PER_DAY
from .trips import DAY_TYPES, TripRecord, TripStore, WEEKDAY, WEEKEND

PATH_ONE = "I"    # drop the first passenger first: O1 -> O2 -> D1 -> D2
PATH_TWO = "II"   # drop the second passenger first: O1 -> O2 -> D2 -> D1
PATH_NONE = "none"

_origin = attrgetter("origin")

# Successful transitions always advance the clock by at least this much, so
# every episode terminates even on degenerate zero-length estimated legs.
_MIN_PROGRESS = 1.0


class Action(IntEnum):
    WAIT = 0
    TAKE_ONE = 1
    TAKE_TWO = 2


class EpisodeOver(RuntimeError):
    """step() was called on a state at or past day end."""


@dataclass(frozen=True)
class DriverState:
    location: GeoPoint
    time_of_day: float  # seconds; may pass day end on the final transition


@dataclass(frozen=True)
class TransitionInfo:
    """Diagnostics: which trips were served and which dropoff order was used."""

    trips: tuple[TripRecord, ...] = ()
    path: str = PATH_NONE


@dataclass(frozen=True)
class Transition:
    state: DriverState
    action: Action
    reward: float  # effective distance, miles
    next_state: DriverState
    done: bool
    info: TransitionInfo = field(default_factory=TransitionInfo)


@dataclass(frozen=True)
class ExtraTravelTimes:
    """Per-passenger extra travel time under both dropoff orderings.

    ``path_one`` drops passenger 1 first (O1 -> O2 -> D1 -> D2); ``path_two``
    drops passenger 2 first (O1 -> O2 -> D2 -> D1), in which case passenger 2
    rides exactly their solo trip and incurs zero extra time.
    """

    path_one: tuple[float, float]
    path_two: tuple[float, float]
    total_one: float
    total_two: float
    chosen: str  # PATH_ONE iff total_one < total_two, else PATH_TWO


def extra_travel_times(t_o1_d1: float, t_o2_d2: float, t_o1_o2: float,
                       t_o2_d1: float, t_d1_d2: float,
                       t_d2_d1: float) -> ExtraTravelTimes:
    """Evaluate both carpool dropoff orderings from the six leg times.

    ``t_o1_d1`` and ``t_o2_d2`` are the passengers' solo times; the other
    four are the connecting legs, named by their endpoints.
    """
    ext1_p1 = t_o1_o2 + t_o2_d1 - t_o1_d1
    ext1_p2 = t_o2_d1 + t_d1_d2 - t_o2_d2
    ext2_p1 = t_o1_o2 + t_o2_d2 + t_d2_d1 - t_o1_d1
    ext2_p2 = 0.0

    total_one = ext1_p1 + ext1_p2
    total_two = ext2_p1 + ext2_p2
    chosen = PATH_ONE if total_one < total_two else PATH_TWO
    return ExtraTravelTimes((ext1_p1, ext1_p2), (ext2_p1, ext2_p2),
                            total_one, total_two, chosen)


class CarpoolEnv:
    """Single-taxi carpool environment over an immutable trip store.

    Trips are never consumed: the store models ambient demand, not a queue
    shared with other drivers. ``params`` is the ``env`` config section
    (defaults when None); ``day_type`` names the day simulated.
    """

    def __init__(self, store: TripStore, eta_source, region: Bbox,
                 grid: GridSpec, params: Optional[EnvParamsConfig] = None,
                 day_type: str = WEEKDAY):
        if day_type not in DAY_TYPES:
            raise ValueError(f"unknown day type {day_type!r}")
        self.store = store
        self.eta = eta_source
        self.region = region
        self.grid = grid
        self.params = EnvParamsConfig() if params is None else params
        self.day_type = day_type
        self.is_weekend = day_type == WEEKEND
        span_lat = region.lat_max - region.lat_min
        span_lon = region.lon_max - region.lon_min
        self._n_lat = int(np.floor(span_lat / grid.cell_lat + 1e-9))
        self._n_lon = int(np.floor(span_lon / grid.cell_lon + 1e-9))
        if self._n_lat < 1 or self._n_lon < 1:
            raise ValueError("region smaller than one grid cell")
        # The searches made for the last state asked about; see
        # _first_assignment. The second-trip candidates stay None until used.
        self._searched: Optional[DriverState] = None
        self._trip1: Optional[TripRecord] = None
        self._candidates: Optional[list[tuple[TripRecord, float]]] = None

    # -- episode control ---------------------------------------------------

    def reset(self, rng: np.random.Generator) -> DriverState:
        """Start a new day: time 0, a cell drawn uniformly by ``rng``."""
        i = int(rng.integers(self._n_lat))
        j = int(rng.integers(self._n_lon))
        origin = self.grid.origin_corner
        loc = GeoPoint(origin.lat + i * self.grid.cell_lat,
                       origin.lon + j * self.grid.cell_lon)
        return DriverState(loc, 0.0)

    def step(self, state: DriverState, action: Action) -> Transition:
        if state.time_of_day >= SECONDS_PER_DAY:
            raise EpisodeOver(f"episode already over at t={state.time_of_day}")
        if action == Action.WAIT:
            return self._idle(state, Action.WAIT)
        if action == Action.TAKE_ONE:
            return self._take_one(state)
        if action == Action.TAKE_TWO:
            return self._take_two(state)
        raise ValueError(f"unknown action {action!r}")

    # -- actions -----------------------------------------------------------

    def _take_one(self, state: DriverState) -> Transition:
        trip = self._first_assignment(state)
        if trip is None:
            return self._idle(state, Action.TAKE_ONE)
        end = max(trip.dropoff_seconds, state.time_of_day + _MIN_PROGRESS)
        nxt = DriverState(trip.destination, end)
        info = TransitionInfo(trips=(trip,))
        return self._finish(state, Action.TAKE_ONE, trip.distance, nxt, info)

    def _take_two(self, state: DriverState) -> Transition:
        candidates = self._second_candidates(state)
        if not candidates:
            # Literal rollback: a failed second assignment yields nothing,
            # as does a missing first trip.
            return self._idle(state, Action.TAKE_TWO)

        trip1 = self._first_assignment(state)
        t_o1, d1 = trip1.pickup_seconds, trip1.destination

        def est(a: GeoPoint, b: GeoPoint) -> float:
            return self.eta.travel_time(a, b, t_o1, self.is_weekend)

        best = None
        for cand, t_o1_o2 in candidates:  # ascending pickup; first minimum wins
            o2, d2 = cand.origin, cand.destination
            legs = (trip1.duration, cand.duration, t_o1_o2, est(o2, d1),
                    est(d1, d2), est(d2, d1))
            ett = extra_travel_times(*legs)
            total = ett.total_one + ett.total_two
            if best is None or total < best[0]:
                best = (total, cand, ett, legs)

        _, trip2, ett, (_, t_o2_d2, t_o1_o2, t_o2_d1, t_d1_d2, t_d2_d1) = best
        if ett.chosen == PATH_ONE:
            last_drop, travel = trip2.destination, t_o1_o2 + t_o2_d1 + t_d1_d2
        else:
            last_drop, travel = d1, t_o1_o2 + t_o2_d2 + t_d2_d1
        nxt = DriverState(last_drop, max(t_o1 + travel, state.time_of_day + _MIN_PROGRESS))
        info = TransitionInfo(trips=(trip1, trip2), path=ett.chosen)
        reward = trip1.distance + trip2.distance
        return self._finish(state, Action.TAKE_TWO, reward, nxt, info)

    # -- feasibility probes (read-only) -------------------------------------

    def can_take_one(self, state: DriverState) -> bool:
        return self._first_assignment(state) is not None

    def can_take_two(self, state: DriverState) -> bool:
        return bool(self._second_candidates(state))

    # -- internals -----------------------------------------------------------

    def _first_assignment(self, state: DriverState) -> Optional[TripRecord]:
        """The earliest reachable pickup in the search window.

        The searches for the last state asked about are kept, so a probe
        followed by ``step`` on the same state searches once. States are
        frozen and the store and ETA source are fixed for the env's life, so
        a kept search equals a fresh one.
        """
        if state is not self._searched:
            self._searched = state
            t0 = state.time_of_day
            self._trip1 = next((trip for trip, _ in self._reachable(
                state.location, t0, t0 + self.params.search_window)), None)
            self._candidates = None
        return self._trip1

    def _second_candidates(self, state: DriverState) -> list[tuple[TripRecord, float]]:
        """Trips reachable from the first pickup within the carpool window,
        each with its O1 -> O2 time (empty when there is no first trip),
        searched at most once per state."""
        trip1 = self._first_assignment(state)
        if trip1 is None:
            return []
        if self._candidates is None:
            t_o1 = trip1.pickup_seconds
            horizon = t_o1 + self.params.carpool_fraction * trip1.duration
            self._candidates = list(self._reachable(
                trip1.origin, t_o1, horizon, skip=trip1))
        return self._candidates

    def _reachable(self, start: GeoPoint, t0: float, horizon: float,
                   skip: Optional[TripRecord] = None) -> Iterator[tuple]:
        """``(trip, approach time)`` for the env's day's trips picked up in
        ``[t0, horizon]`` that a taxi leaving ``start`` at ``t0`` reaches in
        time, in ascending pickup order; ``skip`` is passed over before any
        travel-time query. The approach legs are timed as the caller
        consumes the trips, through the ETA source's ``leg_times``."""
        trips = self.store.query_window(t0, horizon, self.is_weekend)
        if skip is not None:
            trips = [trip for trip in trips if trip is not skip]
        approaches = self.eta.leg_times(start, map(_origin, trips), t0,
                                        self.is_weekend)
        for trip, approach in zip(trips, approaches):
            if approach <= trip.pickup_seconds - t0:
                yield trip, approach

    def _idle(self, state: DriverState, action: Action) -> Transition:
        """Stay in place for ``wait_delay`` with no reward: a wait, or a take
        action that found nothing to serve."""
        nxt = DriverState(state.location, state.time_of_day + self.params.wait_delay)
        return self._finish(state, action, 0.0, nxt, TransitionInfo())

    def _finish(self, state, action, reward, nxt, info) -> Transition:
        done = nxt.time_of_day >= SECONDS_PER_DAY
        return Transition(state, action, reward, nxt, done, info)

