"""Discrete-event marketplace simulation on a minute clock.

One episode covers a whole number of weeks. Every minute the demand profile
emits new rides, each ride is offered to idle drivers nearest-first until one
accepts or the offer budget runs out, and a driver who accepts is busy for
the pickup and trip legs at a constant speed, then idles at the drop point.
Each offer produces an observation, an accept/reject decision, a scalar
reward and, chained with the driver's next offer, a transition for learning.

Observations are raw engineering units (km, minutes); consumers apply their
own normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .distributions import (EmpiricalDistribution, TimeProfile, inverse_sample,
                            probabilistic_round)
from .ridegen import GridSpec, Ride, generate_rides

MINUTES_PER_DAY = 1440
MINUTES_PER_WEEK = 7 * MINUTES_PER_DAY

# Observation vector layout (fixed order, raw units).
OBS_DIM = 6
F_PICKUP_KM = 0       # driver to pickup point, km
F_TRIP_KM = 1         # pickup to drop, km
F_MINUTE_OF_DAY = 2   # 0..1439
F_TRIPS_TO_GOAL = 3   # remaining trips until the weekly bonus, >= 0
F_DROP_CENTER_KM = 4  # drop point's distance from the grid center, km
F_IDLE_MINUTES = 5    # minutes since the driver's last completed trip


class Action(IntEnum):
    REJECT = 0
    ACCEPT = 1


@dataclass
class PlatformParams:
    """Economic constants of the marketplace.

    Peak hour ranges are half-open [start, end) clock hours. The weekly
    bonus amount is amortized per goal-progressing trip as amount/goal.
    """

    fare_per_km: float = 100.0
    cost_per_km: float = 30.0
    peak_hours: tuple = ((6, 8), (16, 19))
    peak_fare_multiplier: float = 2.0
    weekly_reward_amount: float = 2000.0
    weekly_target_multiplier: float = 1.0
    fare_weight: float = 1.0
    cost_weight: float = 1.0
    idle_cost_weight: float = 1.0
    bonus_weight: float = 1.0
    idle_cost_per_minute: float = 1.0
    default_weekly_goal: int = 40

    def __post_init__(self):
        if not math.isfinite(self.fare_per_km) or self.fare_per_km < 0:
            raise ValueError("fare_per_km must be non-negative")
        if not math.isfinite(self.cost_per_km) or self.cost_per_km < 0:
            raise ValueError("cost_per_km must be non-negative")
        if self.peak_fare_multiplier < 0:
            raise ValueError("peak_fare_multiplier must be non-negative")
        if self.weekly_target_multiplier <= 0:
            raise ValueError("weekly_target_multiplier must be positive")
        if self.weekly_reward_amount < 0:
            raise ValueError("weekly_reward_amount must be non-negative")
        if self.idle_cost_per_minute < 0:
            raise ValueError("idle_cost_per_minute must be non-negative")
        if self.default_weekly_goal < 1:
            raise ValueError("default_weekly_goal must be at least 1")
        for rng_pair in self.peak_hours:
            s, e = rng_pair
            if not (0 <= s < e <= 24):
                raise ValueError(f"bad peak hour range {rng_pair!r}")
        for name in ("fare_weight", "cost_weight", "idle_cost_weight", "bonus_weight"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def is_peak(self, minute_of_day: int) -> bool:
        hour = (minute_of_day // 60) % 24
        return any(s <= hour < e for s, e in self.peak_hours)

    def effective_fare(self, minute_of_day: int) -> float:
        if self.is_peak(minute_of_day):
            return self.fare_per_km * self.peak_fare_multiplier
        return self.fare_per_km


def weekly_goal(last_week_trips: int, multiplier: float) -> int:
    """Next week's trip goal: last week's count scaled, half-up, at least 1."""
    return max(1, int(math.floor(last_week_trips * multiplier + 0.5)))


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


def reward_for_features(params: PlatformParams, *, pickup_km: float,
                        trip_km: float, minute_of_day: int,
                        trips_to_goal: int, idle_minutes: float,
                        goal_trips: int, action: Action) -> float:
    """Scalar reward of one accept/reject decision.

    Accepting earns the (peak-adjusted) fare over the trip distance, pays the
    driving cost over pickup plus trip distance, pays the opportunity cost of
    the idle minutes that preceded the offer, and collects the amortized
    weekly bonus when the trip still progresses an unmet goal. Rejecting is
    worth exactly zero.
    """
    if action == Action.REJECT:
        return 0.0
    earnings = params.fare_weight * (params.effective_fare(minute_of_day) * trip_km)
    travel_cost = params.cost_weight * (params.cost_per_km * (trip_km + pickup_km))
    idle_cost = params.idle_cost_weight * (idle_minutes * params.idle_cost_per_minute)
    bonus = 0.0
    if trips_to_goal > 0 and goal_trips > 0:
        bonus = params.bonus_weight * (params.weekly_reward_amount / goal_trips)
    return earnings - travel_cost - idle_cost + bonus


def reward_from_observation(params: PlatformParams, obs: np.ndarray,
                            goal_trips: int, action: Action) -> float:
    """Recompute the reward of a stored observation. Exact re-application."""
    return reward_for_features(
        params,
        pickup_km=float(obs[F_PICKUP_KM]),
        trip_km=float(obs[F_TRIP_KM]),
        minute_of_day=int(obs[F_MINUTE_OF_DAY]),
        trips_to_goal=int(obs[F_TRIPS_TO_GOAL]),
        idle_minutes=float(obs[F_IDLE_MINUTES]),
        goal_trips=goal_trips,
        action=action)


@dataclass
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


@dataclass(frozen=True)
class OfferRecord:
    minute: int
    driver_id: int
    obs: np.ndarray
    action: Action
    reward: float
    goal_trips: int
    ride: Ride


OFFER_COLUMNS = ["minute", "driver_id", "pickup_km", "trip_km", "minute_of_day",
                 "trips_to_goal", "drop_center_km", "idle_minutes", "action",
                 "reward"]


def offer_to_row(o: OfferRecord) -> list[str]:
    return [str(o.minute), str(o.driver_id),
            f"{o.obs[F_PICKUP_KM]:.6f}", f"{o.obs[F_TRIP_KM]:.6f}",
            str(int(o.obs[F_MINUTE_OF_DAY])), str(int(o.obs[F_TRIPS_TO_GOAL])),
            f"{o.obs[F_DROP_CENTER_KM]:.6f}", str(int(o.obs[F_IDLE_MINUTES])),
            o.action.name.lower(), f"{o.reward:.6f}"]


@dataclass
class EpisodeLog:
    weeks: int
    start_dow: int
    offers: list = field(default_factory=list)
    trajectories: dict = field(default_factory=dict)
    daily_generated: list = field(default_factory=list)
    daily_assigned: list = field(default_factory=list)
    daily_lost: list = field(default_factory=list)
    completed_trips: int = 0
    total_reward: float = 0.0

    @property
    def generated_total(self) -> int:
        return sum(self.daily_generated)

    @property
    def assigned_total(self) -> int:
        return sum(self.daily_assigned)

    @property
    def lost_total(self) -> int:
        return sum(self.daily_lost)

    def acceptance_rate(self) -> float:
        if not self.offers:
            return float("nan")
        accepted = sum(1 for o in self.offers if o.action == Action.ACCEPT)
        return accepted / len(self.offers)


@dataclass
class SimConfig:
    grid: GridSpec
    params: PlatformParams
    pickup_x_dist: EmpiricalDistribution
    pickup_y_dist: EmpiricalDistribution
    trip_distance_dist: EmpiricalDistribution
    time_profile: TimeProfile
    driver_count: int = 50
    weeks: int = 1
    max_offers: int = 5
    speed_kmh: float = 30.0
    start_dow: int = 0  # 0 = Monday
    initial_weekly_trips: object = None  # int or per-driver sequence; None uses the params default

    def __post_init__(self):
        if self.driver_count < 1:
            raise ValueError("driver_count must be at least 1")
        if self.weeks < 1:
            raise ValueError("weeks must be at least 1")
        if self.max_offers < 1:
            raise ValueError("max_offers must be at least 1")
        if self.speed_kmh <= 0:
            raise ValueError("speed_kmh must be positive")
        if not (0 <= self.start_dow < 7):
            raise ValueError("start_dow must be in 0..6")

    def initial_trips_for(self, index: int) -> int:
        base = self.initial_weekly_trips
        if base is None:
            base = self.params.default_weekly_goal
        if isinstance(base, (int, float)):
            return int(base)
        seq = list(base)
        return int(seq[index % len(seq)])


class Fleet:
    """Every driver's state as parallel arrays indexed by driver id.

    A driver is either idle at (x, y) or busy until `busy_until`, when the
    trip completes: the driver then snaps to the drop point, its idle counter
    restarts at `busy_until` (not at the minute the completion is processed)
    and the trip counts toward this week's goal.
    """

    def __init__(self, x, y, goal):
        self.x = np.array(x, dtype=float)
        self.y = np.array(y, dtype=float)
        n = self.x.size
        self.idle = np.ones(n, dtype=bool)
        self.busy_until = np.zeros(n, dtype=np.int64)
        self.drop_x = np.zeros(n)
        self.drop_y = np.zeros(n)
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

    def complete_trips(self, now: int) -> int:
        """Complete every trip due by `now`; returns how many completed."""
        if now < self.next_completion:
            return 0
        done = np.flatnonzero(~self.idle & (self.busy_until <= now))
        self.x[done] = self.drop_x[done]
        self.y[done] = self.drop_y[done]
        self.idle_since[done] = self.busy_until[done]
        self.trips_week[done] += 1
        self.idle[done] = True
        busy = self.busy_until[~self.idle]
        self.next_completion = int(busy.min()) if busy.size else math.inf
        return done.size

    def assign(self, driver_id: int, ride: Ride, now: int, speed_kmh: float) -> None:
        """Commit an accepted ride: busy for the pickup plus the trip leg."""
        pickup_km = math.hypot(self.x[driver_id] - ride.pickup_x,
                               self.y[driver_id] - ride.pickup_y)
        done = now + travel_minutes(pickup_km + ride.distance_km, speed_kmh)
        self.busy_until[driver_id] = done
        self.drop_x[driver_id] = ride.drop_x
        self.drop_y[driver_id] = ride.drop_y
        self.idle[driver_id] = False
        self.next_completion = min(self.next_completion, done)

    def nearest_idle(self, x: float, y: float, k: int) -> list[int]:
        """Ids of up to k idle drivers nearest to (x, y).

        Ordered by straight-line distance, ties to the lower id. A partition
        on squared distance narrows the field first; its cut keeps a 1e-9
        relative margin so that no driver the exact hypot order would place
        in the first k is dropped by rounding.
        """
        ids = np.flatnonzero(self.idle)
        if ids.size > k:
            dx = self.x[ids] - x
            dy = self.y[ids] - y
            d2 = dx * dx + dy * dy
            cut = np.partition(d2, k - 1)[k - 1]
            ids = ids[d2 <= cut * (1.0 + 1e-9)]
        keyed = sorted(zip(map(math.hypot, (self.x[ids] - x).tolist(),
                               (self.y[ids] - y).tolist()), ids.tolist()))
        return [i for _, i in keyed[:k]]

    def observe(self, driver_ids: list[int], ride: Ride, clock: int,
                grid: GridSpec) -> np.ndarray:
        """Offer observations in raw units (see F_* layout), one row per driver."""
        ids = np.asarray(driver_ids, dtype=np.int64)
        cx, cy = grid.center()
        obs = np.empty((ids.size, OBS_DIM))
        obs[:, F_PICKUP_KM] = list(map(math.hypot,
                                       (self.x[ids] - ride.pickup_x).tolist(),
                                       (self.y[ids] - ride.pickup_y).tolist()))
        obs[:, F_TRIP_KM] = ride.distance_km
        obs[:, F_MINUTE_OF_DAY] = clock % MINUTES_PER_DAY
        obs[:, F_TRIPS_TO_GOAL] = np.maximum(0, self.goal[ids] - self.trips_week[ids])
        obs[:, F_DROP_CENTER_KM] = math.hypot(ride.drop_x - cx, ride.drop_y - cy)
        obs[:, F_IDLE_MINUTES] = np.maximum(0, clock - self.idle_since[ids])
        return obs


def dispatch(ride: Ride, fleet: Fleet, agent, config: SimConfig, clock: int,
             rng: np.random.Generator) -> tuple[list[OfferRecord], int | None]:
    """Offer one ride to idle drivers nearest-first until someone accepts.

    At most config.max_offers drivers are polled; every polled driver yields
    an OfferRecord whether they accepted or not. The agent scores all
    candidates at once but decides lazily, so its exploration draws stop at
    the first accept. Returns the records and the assigned driver's id, or
    None when the ride goes unserved.
    """
    ids = fleet.nearest_idle(ride.pickup_x, ride.pickup_y, config.max_offers)
    records = []
    if not ids:
        return records, None
    obs_batch = fleet.observe(ids, ride, clock, config.grid)
    for driver_id, obs, action in zip(ids, obs_batch,
                                      agent.decide(obs_batch, rng)):
        goal = int(fleet.goal[driver_id])
        reward = reward_from_observation(config.params, obs, goal, action)
        records.append(OfferRecord(minute=clock, driver_id=driver_id, obs=obs,
                                   action=action, reward=reward,
                                   goal_trips=goal, ride=ride))
        if action == Action.ACCEPT:
            fleet.assign(driver_id, ride, clock, config.speed_kmh)
            return records, driver_id
    return records, None


def run_episode(config: SimConfig, agent, rng: np.random.Generator) -> EpisodeLog:
    """Simulate config.weeks weeks and return the full episode log.

    Weekly goals are fixed at episode start from each driver's prior week
    count times the target multiplier and refreshed at week boundaries from
    the trips actually completed. Unserved rides are lost; they never
    re-enter the queue.
    """
    fleet = Fleet.place(config, rng)
    total_minutes = config.weeks * MINUTES_PER_WEEK
    days = config.weeks * 7
    log = EpisodeLog(weeks=config.weeks, start_dow=config.start_dow,
                     daily_generated=[0] * days, daily_assigned=[0] * days,
                     daily_lost=[0] * days)
    # Per-driver open transition awaiting the next observation.
    pending: dict[int, tuple] = {}
    chains = {i: Trajectory(i) for i in range(config.driver_count)}

    for minute in range(total_minutes):
        # A trip ending on a week's first minute counts toward the new week.
        if minute > 0 and minute % MINUTES_PER_WEEK == 0:
            fleet.start_week(config.params.weekly_target_multiplier)
        log.completed_trips += fleet.complete_trips(minute)
        day = minute // MINUTES_PER_DAY
        dow = (config.start_dow + day) % 7
        mean = config.time_profile.means[dow][minute % MINUTES_PER_DAY]
        count = probabilistic_round(float(mean), rng)
        if count == 0:
            continue
        rides = generate_rides(config.grid, config.pickup_x_dist,
                               config.pickup_y_dist, config.trip_distance_dist,
                               count, minute, rng)
        log.daily_generated[day] += count
        for ride in rides:
            records, assigned = dispatch(ride, fleet, agent, config, minute, rng)
            log.offers.extend(records)
            for rec in records:
                log.total_reward += rec.reward
                prev = pending.get(rec.driver_id)
                if prev is not None:
                    chains[rec.driver_id].transitions.append(
                        Transition(obs=prev[0], action=prev[1],
                                   next_obs=rec.obs, reward=prev[2]))
                pending[rec.driver_id] = (rec.obs, rec.action, rec.reward)
            if assigned is None:
                log.daily_lost[day] += 1
            else:
                log.daily_assigned[day] += 1

    for driver_id, prev in pending.items():
        chains[driver_id].transitions.append(
            Transition(obs=prev[0], action=prev[1], next_obs=prev[0],
                       reward=prev[2], terminal=True))
    log.trajectories = {k: v for k, v in chains.items() if v.transitions}
    return log
