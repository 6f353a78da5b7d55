"""A from-scratch reference for ``CarpoolEnv``, for equivalence tests.

``ReferenceEnv`` takes ``CarpoolEnv``'s constructor arguments and answers
``reset``, ``step``, ``can_take_one`` and ``can_take_two`` with no cache
and no search shortcut: every call scans every trip of the env's day and
times every leg it needs with the ETA source's ``travel_time``. It returns
the package's ``DriverState`` and ``Transition`` values, so a transition of
either env compares ``==`` field for field.

The rules it states, in its own words:

- a trip is reachable from a place at a time when the approach leg there,
  timed at that time, fits in the time left before its pickup;
- the first trip is the reachable trip with the earliest pickup no more than
  ``search_window`` after the driver's time (the first in store order on a
  tie);
- the second-trip candidates are the other trips reachable from the first
  trip's origin at its pickup time, picked up no more than
  ``carpool_fraction`` of its recorded duration later;
- the second trip is the candidate whose two routes' summed extra rider
  time (route I's plus route II's) is least, the earliest pickup on a tie;
- the carpool then drives route I (O1, O2, D1, D2) when its extra rider time
  is strictly less than route II's (O1, O2, D2, D1), else route II;
- a solo leg is its trip's recorded duration, every connecting leg is timed
  at the first pickup, and a served step lasts at least one second;
- a take action that finds nothing waits in place like WAIT.
"""

from __future__ import annotations

import math

from carpool_rl.config import EnvParamsConfig
from carpool_rl.geo import GeoPoint, SECONDS_PER_DAY
from carpool_rl.simulator import (Action, DriverState, EpisodeOver, PATH_NONE,
                                  PATH_ONE, PATH_TWO, Transition,
                                  TransitionInfo)
from carpool_rl.trips import WEEKEND


class LegsFromTravelTime:
    """``leg_times`` for a test double: one call of its own ``travel_time``
    per leg the caller consumes, so the double sees every leg."""

    def leg_times(self, origin, destinations, seconds_of_day, is_weekend):
        for destination in destinations:
            yield self.travel_time(origin, destination, seconds_of_day,
                                   is_weekend)


class ReferenceEnv:
    def __init__(self, store, eta_source, region, grid, params=None,
                 day_type="weekday"):
        self.store, self.eta, self.region, self.grid = (
            store, eta_source, region, grid)
        self.params = EnvParamsConfig() if params is None else params
        self.weekend = day_type == WEEKEND

    def reset(self, rng) -> DriverState:
        rows = math.floor((self.region.lat_max - self.region.lat_min)
                          / self.grid.cell_lat + 1e-9)
        cols = math.floor((self.region.lon_max - self.region.lon_min)
                          / self.grid.cell_lon + 1e-9)
        row, col = int(rng.integers(rows)), int(rng.integers(cols))
        corner = self.grid.origin_corner
        return DriverState(GeoPoint(corner.lat + row * self.grid.cell_lat,
                                    corner.lon + col * self.grid.cell_lon), 0.0)

    def can_take_one(self, state) -> bool:
        return self._first(state) is not None

    def can_take_two(self, state) -> bool:
        first = self._first(state)
        return first is not None and bool(self._candidates(first))

    def step(self, state, action) -> Transition:
        if state.time_of_day >= SECONDS_PER_DAY:
            raise EpisodeOver(state.time_of_day)
        first = None if action == Action.WAIT else self._first(state)
        if first is None:
            return self._wait(state, action)
        if action == Action.TAKE_ONE:
            end = DriverState(first.destination,
                              max(first.dropoff_seconds, state.time_of_day + 1.0))
            return self._transition(state, action, first.distance, end, (first,),
                                    PATH_NONE)
        candidates = self._candidates(first)
        if not candidates:
            return self._wait(state, action)

        t = first.pickup_seconds
        best = None
        for second, o1_o2 in candidates:
            o2_d1 = self._leg(second.origin, first.destination, t)
            d1_d2 = self._leg(first.destination, second.destination, t)
            d2_d1 = self._leg(second.destination, first.destination, t)
            # extra ride time over each rider's solo trip, per route
            route_one = ((o1_o2 + o2_d1 - first.duration)
                         + (o2_d1 + d1_d2 - second.duration))
            route_two = (o1_o2 + second.duration + d2_d1 - first.duration
                         + 0.0)  # the second rider rides solo on route II
            if best is None or route_one + route_two < best[0]:
                best = (route_one + route_two, second, route_one < route_two,
                        o1_o2 + o2_d1 + d1_d2, o1_o2 + second.duration + d2_d1)
        _, second, route_one_cheaper, drive_one, drive_two = best
        if route_one_cheaper:
            path, last, drive = PATH_ONE, second.destination, drive_one
        else:
            path, last, drive = PATH_TWO, first.destination, drive_two
        end = DriverState(last, max(t + drive, state.time_of_day + 1.0))
        return self._transition(state, action, first.distance + second.distance,
                                end, (first, second), path)

    def _day_trips(self, t0, t1):
        return sorted((trip for trip in self.store.records
                       if trip.is_weekend == self.weekend
                       and t0 <= trip.pickup_seconds <= t1),
                      key=lambda trip: trip.pickup_seconds)

    def _leg(self, a, b, seconds_of_day):
        return self.eta.travel_time(a, b, seconds_of_day, self.weekend)

    def _first(self, state):
        t = state.time_of_day
        for trip in self._day_trips(t, t + self.params.search_window):
            if self._leg(state.location, trip.origin, t) <= trip.pickup_seconds - t:
                return trip
        return None

    def _candidates(self, first):
        """``(trip, O1 -> O2 time)`` for each second-trip candidate."""
        t = first.pickup_seconds
        found = []
        for trip in self._day_trips(
                t, t + self.params.carpool_fraction * first.duration):
            if trip is first:
                continue
            approach = self._leg(first.origin, trip.origin, t)
            if approach <= trip.pickup_seconds - t:
                found.append((trip, approach))
        return found

    def _wait(self, state, action):
        end = DriverState(state.location,
                          state.time_of_day + self.params.wait_delay)
        return self._transition(state, action, 0.0, end, (), PATH_NONE)

    def _transition(self, state, action, reward, end, trips, path):
        return Transition(state, action, reward, end,
                          end.time_of_day >= SECONDS_PER_DAY,
                          TransitionInfo(trips, path))
