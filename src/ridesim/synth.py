"""Synthetic trip log generation with a known acceptance policy.

Drivers move through a scripted world: offers arrive through the day on a
double-peak hourly shape, pickups cluster around the grid center and trip
distances follow a clipped lognormal. Every accept/reject decision is drawn
from a logistic policy over exactly the six observation features the agent
sees, so a model trained on the resulting log can be scored against ground
truth. Weekly goals and idle gaps come from the same `DriverLedger` that
demonstration extraction replays the log through, and drops from the
ride generator's `drop_location`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from .agent import FeatureScales
from .ingest import TIME_FORMAT, DriverLedger, TripRecord
from .ridegen import GridSpec, bounded, check_bounds, drop_location
from .sim import FEATURES, PlatformParams, travel_minutes

HOURLY_WEIGHTS = (0.20, 0.15, 0.10, 0.10, 0.15, 0.40,
                  1.20, 1.50, 1.30, 0.80, 0.70, 0.70,
                  0.80, 0.80, 0.90, 1.00, 1.30, 1.50,
                  1.40, 1.10, 0.70, 0.50, 0.40, 0.30)

WEEKDAY_FACTORS = (1.0, 1.0, 1.0, 1.05, 1.15, 1.25, 0.85)

# Most offers one log may expect: the log is held whole, about 500 bytes an
# offer.
OFFER_BUDGET = 1_000_000


@dataclass(frozen=True)
class SyntheticLogSpec:
    """Size of the synthetic log and the logistic policy that labels it.

    The accept logit is the `weight_*` vector, a field per `sim.FEATURES`
    name in its order, dotted with the observation divided by the grid's
    feature scales, plus `bias`. The idle weight must stay small: the idle
    feature is unbounded minutes since the last completion, and a strong
    penalty locks rarely-accepting drivers into rejecting forever. `start`
    is a midnight timestamp in TIME_FORMAT.
    """

    driver_count: int = bounded(50, ge=1)
    days: int = bounded(28, ge=1)
    start: str = "2026-02-02T00:00"  # a Monday
    # one offer a minute; each day's offer minutes are drawn as one array
    offers_per_driver_day: float = bounded(8.0, gt=0, le=1440)
    weight_pickup_km: float = -1.5
    weight_trip_km: float = 4.0
    weight_minute_of_day: float = 0.0
    weight_trips_to_goal: float = 1.2
    weight_drop_center_km: float = -0.3
    weight_idle_minutes: float = -0.1
    bias: float = 1.1
    trip_km_log_mean: float = math.log(3.5)
    trip_km_log_sigma: float = bounded(0.45, ge=0)
    trip_km_min: float = 0.3
    trip_km_max: float = 25.0

    def __post_init__(self):
        check_bounds(self)
        if self.trip_km_min > self.trip_km_max:
            raise ValueError("trip_km_min must not exceed trip_km_max")
        offers = (self.driver_count * self.days
                  * max(1.0, self.offers_per_driver_day))
        if offers > OFFER_BUDGET:
            raise ValueError(
                "driver_count * days * offers_per_driver_day must be at most "
                f"{OFFER_BUDGET}, counting a day of under one offer as one; "
                f"it is {offers:.4g}")
        start = self.start_time()
        if start.hour or start.minute:
            raise ValueError("start must be a midnight timestamp")
        if (datetime.max - start).days <= self.days:
            raise ValueError("start plus days must fall before 9999-12-31")

    def start_time(self) -> datetime:
        try:
            return datetime.strptime(self.start, TIME_FORMAT)
        except ValueError:
            raise ValueError(f"start {self.start!r} does not match "
                             f"{TIME_FORMAT}") from None

    @functools.cached_property
    def weights(self) -> np.ndarray:
        return np.array([getattr(self, f"weight_{name}") for name in FEATURES],
                        dtype=float)

    def accept_probability(self, obs: np.ndarray, scales: np.ndarray) -> float:
        """`scales` is the grid's `FeatureScales.as_array()`."""
        logit = float(self.weights @ (np.asarray(obs, dtype=float)
                                      / scales)) + self.bias
        try:
            return 1.0 / (1.0 + math.exp(-logit))
        except OverflowError:  # exp(-logit) is past the float range
            return 0.0


def _sample_point(grid: GridSpec, spread: float,
                  rng: np.random.Generator) -> tuple:
    cx, cy = grid.center()
    x = min(max(rng.normal(cx, spread), 0.02 * grid.width_km),
            0.98 * grid.width_km)
    y = min(max(rng.normal(cy, spread), 0.02 * grid.height_km),
            0.98 * grid.height_km)
    return x, y


def generate_synthetic_log(spec: SyntheticLogSpec, grid: GridSpec,
                           params: PlatformParams, speed_kmh: float,
                           seed: int) -> list:
    """Simulate spec.days days of offers and return schema-ready records.

    Offers whose start would slip past the final day (a driver still busy at
    midnight) are dropped so the log spans exactly spec.days dates.
    """
    rng = np.random.default_rng(seed)
    scales = FeatureScales.for_grid(grid).as_array()
    spread = min(grid.width_km, grid.height_km) / 4.0
    start = spec.start_time()
    hourly = np.array(HOURLY_WEIGHTS, dtype=float)
    hourly = hourly / hourly.sum()
    records = []
    for d in range(spec.driver_count):
        driver_id = f"d{d:03d}"
        x, y = _sample_point(grid, spread, rng)
        ledger = DriverLedger(params, grid, start)
        trip_seq = 0
        for day in range(spec.days):
            date = start + timedelta(days=day)
            factor = WEEKDAY_FACTORS[date.weekday()]
            count = int(rng.poisson(spec.offers_per_driver_day * factor))
            minutes = np.sort(rng.choice(24, size=count, p=hourly) * 60
                              + rng.integers(0, 60, size=count))
            for minute in minutes:
                # a driver still on a trip sees the offer when it completes
                created = max(date + timedelta(minutes=int(minute)),
                              ledger.last_completion)
                if created >= start + timedelta(days=spec.days):
                    continue
                pickup_x, pickup_y = _sample_point(grid, spread, rng)
                pickup_km = math.hypot(x - pickup_x, y - pickup_y)
                raw_km = min(max(rng.lognormal(spec.trip_km_log_mean,
                                               spec.trip_km_log_sigma),
                                 spec.trip_km_min), spec.trip_km_max)
                (drop_x,), (drop_y,), (trip_km,) = drop_location(
                    grid, [pickup_x], [pickup_y], [raw_km], rng)
                obs = ledger.observe(created, pickup_km, trip_km,
                                     drop_x, drop_y)
                accept = rng.random() < spec.accept_probability(obs, scales)
                decision = created + timedelta(minutes=1)
                trip_seq += 1
                pickup_lat, pickup_lon = grid.to_latlon(pickup_x, pickup_y)
                drop_lat, drop_lon = grid.to_latlon(drop_x, drop_y)
                payment = "cash" if rng.random() < 0.6 else "card"
                pickup_time = None
                if accept:
                    pickup_time = decision + timedelta(
                        minutes=travel_minutes(pickup_km, speed_kmh))
                    ledger.complete(pickup_time + timedelta(
                        minutes=travel_minutes(trip_km, speed_kmh)))
                    x, y = drop_x, drop_y
                records.append(TripRecord(
                    driver_id=driver_id, trip_id=f"t{d:03d}-{trip_seq:05d}",
                    created_time=created, assigned_time=created,
                    decision_time=decision, pickup_time=pickup_time,
                    pickup_lat=pickup_lat, pickup_lon=pickup_lon,
                    drop_lat=drop_lat, drop_lon=drop_lon,
                    pickup_distance_km=pickup_km, trip_distance_km=trip_km,
                    status="completed" if accept else "rejected",
                    payment_method=payment))
    records.sort(key=lambda r: (r.created_time, r.trip_id))
    return records
