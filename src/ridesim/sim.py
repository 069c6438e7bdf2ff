"""Discrete-event marketplace simulation on a minute clock.

One episode covers a whole number of weeks. The demand profile emits each
day's rides, each ride is offered to idle drivers nearest-first until one
accepts or the offer budget runs out, and a driver who accepts is busy for
the pickup and trip legs at a constant speed, then idles at the drop point.
Each offer produces an observation, an accept/reject decision, a scalar
reward and, chained with the driver's next offer, a transition for learning.

Observations are raw engineering units (km, minutes); consumers apply their
own normalization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import groupby
from operator import attrgetter

import numpy as np

from .distributions import (MINUTES_PER_DAY, EmpiricalDistribution,
                            TimeProfile, inverse_sample, probabilistic_round)
from .ridegen import GridSpec, Ride, bounded, check_bounds, generate_rides

MINUTES_PER_WEEK = 7 * MINUTES_PER_DAY

# The observation's features in vector order, in raw units: the one list
# of that order, which the F_* indices and every per-feature field follow.
FEATURES = (
    "pickup_km",       # driver to pickup point, km
    "trip_km",         # pickup to drop, km
    "minute_of_day",   # 0..1439
    "trips_to_goal",   # remaining trips until the weekly bonus, >= 0
    "drop_center_km",  # drop point's distance from the grid center, km
    "idle_minutes",    # minutes since the driver's last completed trip
)
OBS_DIM = len(FEATURES)
F_PICKUP_KM = FEATURES.index("pickup_km")
F_TRIP_KM = FEATURES.index("trip_km")
F_MINUTE_OF_DAY = FEATURES.index("minute_of_day")
F_TRIPS_TO_GOAL = FEATURES.index("trips_to_goal")
F_DROP_CENTER_KM = FEATURES.index("drop_center_km")
F_IDLE_MINUTES = FEATURES.index("idle_minutes")

# Most upcoming rides of one day that `run_episode` scores in one pass
# (`_BlockScores`). On a 500-driver fleet a city-eval episode ran fastest at
# 16: at 32 and 64 its distance matrices outgrow the cache and it ran 4 %
# and 12 % slower.
BLOCK_RIDES = 16
_NO_DRIVERS = np.empty(0, dtype=np.int64)


class Action(IntEnum):
    REJECT = 0
    ACCEPT = 1


@dataclass
class PlatformParams:
    """Economic constants of the marketplace.

    Peak hour ranges are half-open [start, end) clock hours. The weekly
    bonus amount is amortized per goal-progressing trip as amount/goal.
    """

    fare_per_km: float = bounded(100.0, ge=0)
    cost_per_km: float = bounded(30.0, ge=0)
    peak_hours: tuple = ((6, 8), (16, 19))
    peak_fare_multiplier: float = bounded(2.0, ge=0)
    weekly_reward_amount: float = bounded(2000.0, ge=0)
    weekly_target_multiplier: float = bounded(1.0, gt=0)
    idle_cost_per_minute: float = bounded(1.0, ge=0)
    default_weekly_goal: int = bounded(40, ge=1)

    def __post_init__(self):
        check_bounds(self)
        for rng_pair in self.peak_hours:
            s, e = rng_pair
            if not (0 <= s < e <= 24):
                raise ValueError(f"bad peak hour range {rng_pair!r}")

    def is_peak(self, minute_of_day: int) -> bool:
        hour = (minute_of_day // 60) % 24
        return any(s <= hour < e for s, e in self.peak_hours)

    def effective_fare(self, minute_of_day: int) -> float:
        if self.is_peak(minute_of_day):
            return self.fare_per_km * self.peak_fare_multiplier
        return self.fare_per_km


def weekly_goal(last_week_trips: int, multiplier: float) -> int:
    """Next week's trip goal: last week's count scaled, half-up, at least 1.
    A goal that does not fit the fleet's int64 goals is a ValueError."""
    try:
        goal = math.floor(last_week_trips * multiplier + 0.5)
    except OverflowError:  # the product is infinite or too large a float
        goal = math.inf
    if goal >= 2**63:
        raise ValueError(f"a weekly goal of {last_week_trips} trips times "
                         f"multiplier {multiplier} does not fit a 64-bit integer")
    return max(1, goal)


def travel_minutes(distance_km: float, speed_kmh: float) -> int:
    """Whole minutes to cover the distance, rounded up, at least 1."""
    if distance_km < 0:
        raise ValueError("distance must be non-negative")
    if speed_kmh <= 0:
        raise ValueError("speed must be positive")
    # Multiply before dividing and shave an epsilon so exact multiples of a
    # minute do not round up an extra minute through float error.
    raw = distance_km * 60.0 / speed_kmh
    return max(1, int(math.ceil(raw - 1e-9)))


def reward_from_observation(params: PlatformParams, obs: np.ndarray,
                            goal_trips: int, action: Action) -> float:
    """Scalar reward of one accept/reject decision on observation `obs`.

    Accepting earns the (peak-adjusted) fare over the trip distance, pays the
    driving cost over pickup plus trip distance, pays the opportunity cost of
    the idle minutes that preceded the offer, and collects the amortized
    weekly bonus of a `goal_trips` goal when the trip still progresses it.
    Rejecting is worth exactly zero.
    """
    if action == Action.REJECT:
        return 0.0
    trip_km = float(obs[F_TRIP_KM])
    earnings = params.effective_fare(int(obs[F_MINUTE_OF_DAY])) * trip_km
    travel_cost = params.cost_per_km * (trip_km + float(obs[F_PICKUP_KM]))
    idle_cost = float(obs[F_IDLE_MINUTES]) * params.idle_cost_per_minute
    bonus = 0.0
    if int(obs[F_TRIPS_TO_GOAL]) > 0 and goal_trips > 0:
        bonus = params.weekly_reward_amount / goal_trips
    return earnings - travel_cost - idle_cost + bonus


@dataclass(slots=True)
class Transition:
    obs: np.ndarray
    action: Action
    next_obs: np.ndarray
    reward: float
    terminal: bool = False


@dataclass
class Trajectory:
    driver_id: object
    transitions: list = field(default_factory=list)


def chain_transitions(steps) -> list[Transition]:
    """One driver's (obs, action, reward) steps, in decision order, as
    transitions: each leads to the next step's observation, and the last is
    terminal and leads back to its own."""
    steps = list(steps)
    last = len(steps) - 1
    return [Transition(obs=obs, action=action, reward=reward,
                       next_obs=steps[i + 1][0] if i < last else obs,
                       terminal=i == last)
            for i, (obs, action, reward) in enumerate(steps)]


@dataclass(slots=True)
class OfferRecord:
    minute: int
    driver_id: int
    obs: np.ndarray
    action: Action
    reward: float
    goal_trips: int
    ride: Ride


@dataclass
class EpisodeLog:
    weeks: int
    start_dow: int
    offers: list = field(default_factory=list)
    daily_generated: list = field(default_factory=list)
    daily_assigned: list = field(default_factory=list)
    daily_lost: list = field(default_factory=list)
    completed_trips: int = 0
    total_reward: float = 0.0

    @functools.cached_property
    def trajectories(self) -> dict:
        """Driver id -> Trajectory of its offers in order, built on first
        read from `offers`."""
        by_driver: dict = {}
        for rec in self.offers:
            by_driver.setdefault(rec.driver_id, []).append(rec)
        return {i: Trajectory(i, chain_transitions((o.obs, o.action, o.reward)
                                                   for o in by_driver[i]))
                for i in sorted(by_driver)}

    @property
    def generated_total(self) -> int:
        return sum(self.daily_generated)

    @property
    def assigned_total(self) -> int:
        return sum(self.daily_assigned)

    @property
    def lost_total(self) -> int:
        return sum(self.daily_lost)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class SimSettings:
    """The run's own knobs: fleet size, horizon, offer budget and travel."""

    # the fleet's arrays and each ride block's distances hold a row a driver
    driver_count: int = bounded(50, ge=1, le=100_000)
    # each simulated day costs a demand draw, even a day with no rides
    weeks: int = bounded(1, ge=1, le=1_000)
    max_offers: int = bounded(5, ge=1)
    # a metre an hour; far slower, a trip outlasts the dates datetime holds
    speed_kmh: float = bounded(30.0, ge=0.001)
    start_dow: int = bounded(0, ge=0, le=6)  # 0 = Monday
    # An int or a per-driver list; None starts drivers at the params default.
    initial_weekly_trips: object = None

    def __post_init__(self):
        check_bounds(self)
        init = self.initial_weekly_trips
        if not (init is None or _is_int(init) or (
                isinstance(init, list) and init and all(map(_is_int, init)))):
            raise ValueError(
                "initial_weekly_trips must be an integer or integer list")


@dataclass(kw_only=True)
class SimConfig(SimSettings):
    grid: GridSpec
    params: PlatformParams
    pickup_x_dist: EmpiricalDistribution
    pickup_y_dist: EmpiricalDistribution
    trip_distance_dist: EmpiricalDistribution
    time_profile: TimeProfile

    def initial_trips_for(self, index: int) -> int:
        base = self.initial_weekly_trips
        if base is None:
            return self.params.default_weekly_goal
        if isinstance(base, list):
            return base[index % len(base)]
        return base


class Fleet:
    """Every driver's state as parallel arrays indexed by driver id.

    A driver is either idle at (x, y) or busy until `busy_until`, when the
    trip completes: its idle counter then restarts at `busy_until` (not at
    the minute the completion is processed) and the trip counts toward this
    week's goal. `assign` moves the driver to the drop point at once, since
    only idle drivers' positions are read.
    """

    def __init__(self, x, y, goal):
        self.x = np.array(x, dtype=float)
        self.y = np.array(y, dtype=float)
        n = self.x.size
        self.idle = np.ones(n, dtype=bool)
        self.busy_until = np.zeros(n, dtype=np.int64)
        self.idle_since = np.zeros(n, dtype=np.int64)
        self.trips_week = np.zeros(n, dtype=np.int64)
        self.goal = np.array(goal, dtype=np.int64)  # this week's trip goal
        self.next_completion = math.inf  # earliest busy_until of a busy driver

    @classmethod
    def place(cls, config: SimConfig, rng: np.random.Generator) -> "Fleet":
        """Start every driver idle at a pickup-distributed point in the grid.

        Draws one uniform for x, then one for y, driver by driver.
        """
        u = rng.random((config.driver_count, 2))
        x = np.clip(inverse_sample(config.pickup_x_dist, u[:, 0]),
                    0.0, config.grid.width_km)
        y = np.clip(inverse_sample(config.pickup_y_dist, u[:, 1]),
                    0.0, config.grid.height_km)
        multiplier = config.params.weekly_target_multiplier
        return cls(x, y, [weekly_goal(config.initial_trips_for(i), multiplier)
                          for i in range(config.driver_count)])

    def start_week(self, multiplier: float) -> None:
        """Set next week's goals from this week's completed trips."""
        self.goal[:] = [weekly_goal(t, multiplier) for t in self.trips_week.tolist()]
        self.trips_week[:] = 0

    def complete_trips(self, now: int) -> np.ndarray:
        """Complete every trip due by `now`; returns the drivers' ids."""
        if now < self.next_completion:
            return _NO_DRIVERS
        done = np.flatnonzero(~self.idle & (self.busy_until <= now))
        self.idle_since[done] = self.busy_until[done]
        self.trips_week[done] += 1
        self.idle[done] = True
        busy = self.busy_until[~self.idle]
        self.next_completion = int(busy.min()) if busy.size else math.inf
        return done

    def assign(self, driver_id: int, ride: Ride, now: int, speed_kmh: float) -> None:
        """Commit an accepted ride: busy for the pickup plus the trip leg."""
        pickup_km = math.hypot(self.x[driver_id] - ride.pickup_x,
                               self.y[driver_id] - ride.pickup_y)
        done = now + travel_minutes(pickup_km + ride.distance_km, speed_kmh)
        self.busy_until[driver_id] = done
        self.x[driver_id] = ride.drop_x
        self.y[driver_id] = ride.drop_y
        self.idle[driver_id] = False
        self.next_completion = min(self.next_completion, done)


def _ride_features(rides: list, grid: GridSpec) -> tuple:
    """Per-ride arrays of the features a block reads: pickup x and y, trip
    km, minute, and the drop point's distance from the grid center."""
    cx, cy = grid.center()
    return (np.array([r.pickup_x for r in rides]),
            np.array([r.pickup_y for r in rides]),
            np.array([r.distance_km for r in rides]),
            np.array([r.created_minute for r in rides]),
            np.array([math.hypot(r.drop_x - cx, r.drop_y - cy) for r in rides]))


class _BlockScores:
    """The next rides of one day scored in one pass against the fleet as it
    stands: each ride's candidates, its min(k, idle drivers) idle drivers
    nearest by straight-line distance, ties to the lower id, with their
    observations, goals and, for an agent with `greedy_actions` and two or
    more candidates a ride, greedy actions (one forward pass for all of
    them). A partition on squared distance narrows the field first; its
    cut, the ride's reach, keeps a 1e-9 relative margin so that rounding
    drops no driver that the exact hypot order places in the first k.

    A ride's score holds until an event touches its candidates, and `take`
    then hands back None, so the ride is scored again as a block of one:
    - a ride before it is assigned to one of its candidates (`assigned`);
    - a trip completes with the driver within the ride's reach, or while
      the ride has fewer than k candidates (`completed`).
    Nothing else moves a clean ride's candidates or observations: they stay
    idle where they were, `idle_since` and `trips_week` change only for a
    completing driver, and goals only at a week rollover, which a block,
    ending with its day, never spans. A ride with one candidate keeps its
    forward pass of one row, which BLAS computes along another path than
    a batch's rows.
    """

    def __init__(self, fleet: Fleet, features: tuple, k: int, agent):
        self.px, self.py, trip_km, minute, drop_km = features
        n = self.px.size
        idle = fleet.idle.nonzero()[0]
        x, y = fleet.x[idle], fleet.y[idle]
        self.count = min(k, idle.size)
        if idle.size >= k:
            d2 = x - self.px[:, None]  # squared in place, rides by drivers
            d2 *= d2
            dy2 = y - self.py[:, None]
            dy2 *= dy2
            d2 += dy2
            self.reach = np.partition(d2, k - 1, axis=1)[:, k - 1] * (1.0 + 1e-9)
            rows, cols = (d2 <= self.reach[:, None]).nonzero()
        else:
            self.reach = np.full(n, math.inf)
            rows, cols = np.indices((n, idle.size)).reshape(2, -1)
        km = np.array(list(map(math.hypot, (x[cols] - self.px[rows]).tolist(),
                               (y[cols] - self.py[rows]).tolist())))
        ids = idle[cols]
        order = np.lexsort((ids, km, rows))  # by ride, distance, then id
        rows, km, ids = rows[order], km[order], ids[order]
        if rows.size > n * self.count:  # the cut kept ties past the k-th
            top = np.arange(rows.size) - np.searchsorted(rows, rows) < k
            rows, km, ids = rows[top], km[top], ids[top]
        self.ids = ids.tolist()
        obs = self.obs = np.empty((ids.size, OBS_DIM))
        obs[:, F_PICKUP_KM] = km
        obs[:, F_TRIP_KM] = trip_km[rows]
        obs[:, F_MINUTE_OF_DAY] = minute[rows] % MINUTES_PER_DAY
        obs[:, F_TRIPS_TO_GOAL] = np.maximum(0, fleet.goal[ids] - fleet.trips_week[ids])
        obs[:, F_DROP_CENTER_KM] = drop_km[rows]
        obs[:, F_IDLE_MINUTES] = np.maximum(0, minute[rows] - fleet.idle_since[ids])
        self.goals = fleet.goal[ids].tolist()
        self.greedy = (agent.greedy_actions(obs).tolist() if self.count >= 2
                       and hasattr(agent, "greedy_actions") else None)
        # the walk's checks run once per event on a few rides: lists beat
        # numpy there
        self.reach = self.reach.tolist()
        self.px, self.py = self.px.tolist(), self.py.tolist()
        self.dirty = [False] * n
        self.rescored = 0

    def take(self, j: int):
        """Ride j's (ids, observations, goals, greedy actions or None), or
        None when it must be scored again."""
        if self.dirty[j]:
            self.rescored += 1
            return None
        a, b = j * self.count, (j + 1) * self.count
        return (self.ids[a:b], self.obs[a:b], self.goals[a:b],
                None if self.greedy is None else self.greedy[a:b])

    def assigned(self, driver_id: int, j: int) -> None:
        """Ride j went to `driver_id`: later rides offering it go stale."""
        c = self.count
        for r in range(j + 1, len(self.dirty)):
            if driver_id in self.ids[r * c:(r + 1) * c]:
                self.dirty[r] = True

    def completed(self, fleet: Fleet, done: np.ndarray, j: int) -> None:
        """Drivers `done` are idle again before ride j: rides from j on that
        they may reach go stale."""
        for x, y in zip(fleet.x[done].tolist(), fleet.y[done].tolist()):
            for r in range(j, len(self.dirty)):
                dx, dy = self.px[r] - x, self.py[r] - y
                if dx * dx + dy * dy <= self.reach[r]:
                    self.dirty[r] = True


def dispatch(ride: Ride, fleet: Fleet, agent, config: SimConfig, clock: int,
             rng: np.random.Generator,
             scored=None) -> tuple[list[OfferRecord], int | None]:
    """Offer one ride to idle drivers nearest-first until someone accepts.

    At most config.max_offers drivers are polled; every polled driver yields
    an OfferRecord whether they accepted or not. `clock` is the ride's
    created minute. The agent scores all candidates at once but decides
    lazily, so its exploration draws stop at the first accept. `scored`
    passes what a `_BlockScores` scored ahead: the candidates' ids,
    observations and goals, and their greedy actions or None to let
    `agent.decide` score them; without it the ride is scored as a block of
    one. Returns the records and the assigned driver's id, or None when the
    ride goes unserved.
    """
    if scored is None:
        scored = _BlockScores(fleet, _ride_features([ride], config.grid),
                              config.max_offers, agent).take(0)
    ids, obs_batch, goals, greedy = scored
    records = []
    if not ids:
        return records, None
    decisions = (agent.decide(obs_batch, rng) if greedy is None
                 else agent.decide(obs_batch, rng, greedy))
    for driver_id, obs, goal, action in zip(ids, obs_batch, goals, decisions):
        reward = reward_from_observation(config.params, obs, goal, action)
        # positional: this runs for every offer, and keywords cost a third more
        records.append(OfferRecord(clock, driver_id, obs, action, reward, goal,
                                   ride))
        if action == Action.ACCEPT:
            fleet.assign(driver_id, ride, clock, config.speed_kmh)
            return records, driver_id
    return records, None


def ride_stream(config: SimConfig, rng: np.random.Generator):
    """Yield (minute, rides) for each minute of config.weeks weeks that has
    a ride, in order.

    Each day is drawn as one block when the consumer reaches it: its minute
    means are rounded by `probabilistic_round`, which draws only for means
    with a fractional part, and `generate_rides` draws all of its rides.
    """
    week = np.roll(config.time_profile.means, -config.start_dow, axis=0)
    for day in range(config.weeks * 7):
        rides = generate_rides(
            config.grid, config.pickup_x_dist, config.pickup_y_dist,
            config.trip_distance_dist, probabilistic_round(week[day % 7], rng),
            day * MINUTES_PER_DAY, rng)
        for minute, batch in groupby(rides, attrgetter("created_minute")):
            yield minute, list(batch)


def episode_streams(rng: np.random.Generator) -> tuple:
    """(placement, demand, decisions): one generator each, seeded from three
    draws of `rng`, so two agents run under one seed see the same rides."""
    return tuple(np.random.default_rng(seed)
                 for seed in rng.integers(2**63, size=3).tolist())


def run_episode(config: SimConfig, agent, rng: np.random.Generator) -> EpisodeLog:
    """Simulate config.weeks weeks and return the full episode log.

    Fleet placement, demand and the agent's decisions each draw from their
    own generator (`episode_streams`). Weekly goals are fixed at episode
    start from each driver's prior week count times the target multiplier
    and refreshed at week boundaries from the trips actually completed.
    Unserved rides are lost; they never re-enter the queue. Trip completions
    and week rollovers wait for the next ride, which finds the fleet as a
    minute-by-minute clock would.

    Each day's rides are scored in blocks of up to BLOCK_RIDES
    (`_BlockScores`): when a quarter of a block's rides or more had to be
    scored again, the next block is half as long (two rides at least), else
    twice as long.
    """
    placement, demand, decisions = episode_streams(rng)
    fleet = Fleet.place(config, placement)
    days = config.weeks * 7
    log = EpisodeLog(weeks=config.weeks, start_dow=config.start_dow,
                     daily_generated=[0] * days, daily_assigned=[0] * days,
                     daily_lost=[0] * days)
    next_week = MINUTES_PER_WEEK  # first minute of the next week
    now = -1  # minute of the last ride
    length = BLOCK_RIDES  # rides in the next block

    for day, minutes in groupby(ride_stream(config, demand),
                                lambda item: item[0] // MINUTES_PER_DAY):
        rides = [ride for _, batch in minutes for ride in batch]
        log.daily_generated[day] = len(rides)
        features = _ride_features(rides, config.grid)
        first, end = 0, 0  # the current block, rides[first:end]
        for i, ride in enumerate(rides):
            if ride.created_minute != now:
                now = ride.created_minute
                while now >= next_week:
                    # A trip ending on a week's first minute counts toward
                    # the new week.
                    log.completed_trips += fleet.complete_trips(next_week - 1).size
                    fleet.start_week(config.params.weekly_target_multiplier)
                    next_week += MINUTES_PER_WEEK
                done = fleet.complete_trips(now)
                if done.size:
                    log.completed_trips += done.size
                    if i < end:
                        scores.completed(fleet, done, i - first)
            if i == end:
                first, end = i, min(i + length, len(rides))
                scores = _BlockScores(fleet, [f[first:end] for f in features],
                                      config.max_offers, agent)
            records, assigned = dispatch(ride, fleet, agent, config, now,
                                         decisions, scores.take(i - first))
            log.offers.extend(records)
            if assigned is None:
                log.daily_lost[day] += 1
            else:
                # every other record is a reject, worth 0.0
                log.total_reward += records[-1].reward
                log.daily_assigned[day] += 1
                scores.assigned(assigned, i - first)
            if i + 1 == end:
                length = (max(2, length // 2) if 4 * scores.rescored >= end - first
                          else min(BLOCK_RIDES, 2 * length))
    log.completed_trips += fleet.complete_trips(days * MINUTES_PER_DAY - 1).size
    return log
