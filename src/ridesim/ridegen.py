"""Ride stream synthesis on a rectangular service grid.

Pickup points come from per-axis empirical distributions with a little
uniform jitter, clamped into the grid. Drop points are placed at a sampled
trip distance in a uniformly random direction; when the drop lands outside
the grid the distance is halved and the direction redrawn until it fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import EmpiricalDistribution, inverse_sample

KM_PER_DEG_LAT = 111.32

MAX_HALVING_ITERATIONS = 64


@dataclass(frozen=True)
class GridSpec:
    """Service region as a width x height km box anchored at a lat/lon corner."""

    width_km: float = 10.0
    height_km: float = 10.0
    noise_epsilon_km: float = 0.25
    origin_lat: float = 0.0  # southwest corner
    origin_lon: float = 0.0

    def __post_init__(self):
        if self.width_km <= 0 or self.height_km <= 0:
            raise ValueError("grid dimensions must be positive")
        if not (0 <= self.noise_epsilon_km < min(self.width_km, self.height_km) / 2):
            raise ValueError("noise epsilon must be below half the grid extent")

    @property
    def km_per_deg_lon(self) -> float:
        return KM_PER_DEG_LAT * math.cos(math.radians(self.origin_lat))

    def to_xy(self, lat: float, lon: float) -> tuple[float, float]:
        """Project lat/lon onto grid km coordinates (equirectangular)."""
        x = (lon - self.origin_lon) * self.km_per_deg_lon
        y = (lat - self.origin_lat) * KM_PER_DEG_LAT
        return x, y

    def to_latlon(self, x: float, y: float) -> tuple[float, float]:
        lat = self.origin_lat + y / KM_PER_DEG_LAT
        lon = self.origin_lon + x / self.km_per_deg_lon
        return lat, lon

    def center(self) -> tuple[float, float]:
        return self.width_km / 2.0, self.height_km / 2.0

    def half_diagonal_km(self) -> float:
        return math.hypot(self.width_km, self.height_km) / 2.0

    def latlon_bounds(self) -> tuple[float, float, float, float]:
        """(min_lat, min_lon, max_lat, max_lon) covered by the grid."""
        max_lat, max_lon = self.to_latlon(self.width_km, self.height_km)
        return self.origin_lat, self.origin_lon, max_lat, max_lon


@dataclass(frozen=True)
class Ride:
    pickup_x: float
    pickup_y: float
    drop_x: float
    drop_y: float
    distance_km: float
    created_minute: int


def drop_location(pickup_x: float, pickup_y: float, distance_km: float,
                  angle_rad: float) -> tuple[float, float]:
    """Point at the given distance from the pickup along the given bearing."""
    return (pickup_x + distance_km * math.cos(angle_rad),
            pickup_y + distance_km * math.sin(angle_rad))


def generate_rides(grid: GridSpec,
                   pickup_x_dist: EmpiricalDistribution,
                   pickup_y_dist: EmpiricalDistribution,
                   trip_distance_dist: EmpiricalDistribution,
                   count: int,
                   minute: int,
                   rng: np.random.Generator) -> list[Ride]:
    """Sample `count` rides created at the given minute.

    Per ride: each pickup axis is an inverse-CDF draw plus Uniform(-eps, eps)
    jitter, clamped into the closed grid box. The trip distance is an
    inverse-CDF draw and the drop direction uniform on the circle; while the
    drop falls outside the open grid box both the distance is halved and the
    direction redrawn. More than 64 retries aborts, since that only happens
    when the generator is fed degenerate inputs.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    eps = grid.noise_epsilon_km
    rides = []
    for _ in range(count):
        px = inverse_sample(pickup_x_dist, rng.random()) + rng.uniform(-eps, eps)
        py = inverse_sample(pickup_y_dist, rng.random()) + rng.uniform(-eps, eps)
        px = min(max(px, 0.0), grid.width_km)
        py = min(max(py, 0.0), grid.height_km)
        dist = inverse_sample(trip_distance_dist, rng.random())
        if dist < 0:
            raise ValueError("trip distance distribution produced a negative value")
        angle = rng.uniform(0.0, 2.0 * math.pi)
        dx, dy = drop_location(px, py, dist, angle)
        attempts = 0
        while not (0.0 < dx < grid.width_km and 0.0 < dy < grid.height_km):
            attempts += 1
            if attempts > MAX_HALVING_ITERATIONS:
                raise RuntimeError("drop placement failed to converge; "
                                   "check grid and distance inputs")
            dist /= 2.0
            angle = rng.uniform(0.0, 2.0 * math.pi)
            dx, dy = drop_location(px, py, dist, angle)
        rides.append(Ride(pickup_x=px, pickup_y=py, drop_x=dx, drop_y=dy,
                          distance_km=dist, created_minute=minute))
    return rides


RIDE_COLUMNS = ["minute", "pickup_x", "pickup_y", "drop_x", "drop_y", "distance_km"]


def ride_to_row(ride: Ride) -> list[str]:
    return [str(ride.created_minute),
            f"{ride.pickup_x:.6f}", f"{ride.pickup_y:.6f}",
            f"{ride.drop_x:.6f}", f"{ride.drop_y:.6f}",
            f"{ride.distance_km:.6f}"]
