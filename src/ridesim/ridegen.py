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


@dataclass(frozen=True, slots=True)
class Ride:
    pickup_x: float
    pickup_y: float
    drop_x: float
    drop_y: float
    distance_km: float
    created_minute: int


def drop_location(grid: GridSpec, x, y, km,
                  rng: np.random.Generator) -> tuple[list, list, list]:
    """(drop_x, drop_y, km) lists: each row's point km from (x, y) in a
    uniform direction.

    Each round draws, in one `rng.uniform` call, a direction for every row
    not yet inside the open grid box, and halves the distance of each row
    that lands outside again. More than 65 rounds aborts: only degenerate
    inputs get there. `math.cos` and `math.sin`, unlike numpy's SIMD
    paths, give the same bits on every host.
    """
    drop_x, drop_y, km = list(x), list(y), list(km)
    rows = range(len(km))
    for _ in range(MAX_HALVING_ITERATIONS + 1):
        outside = []
        angles = rng.uniform(0.0, 2.0 * math.pi, len(rows)).tolist()
        for i, angle in zip(rows, angles):
            dx = drop_x[i] = x[i] + km[i] * math.cos(angle)
            dy = drop_y[i] = y[i] + km[i] * math.sin(angle)
            if not (0.0 < dx < grid.width_km and 0.0 < dy < grid.height_km):
                km[i] /= 2.0
                outside.append(i)
        rows = outside
        if not rows:
            return drop_x, drop_y, km
    raise ValueError("drop placement failed to converge; "
                     "check grid and distance inputs")


def generate_rides(grid: GridSpec,
                   pickup_x_dist: EmpiricalDistribution,
                   pickup_y_dist: EmpiricalDistribution,
                   trip_distance_dist: EmpiricalDistribution,
                   counts,
                   first_minute: int,
                   rng: np.random.Generator) -> list[Ride]:
    """counts[i] rides created at minute first_minute + i, in minute order.

    Each pickup axis is an inverse-CDF draw plus Uniform(-eps, eps) jitter,
    clamped into the closed grid box, and the trip distance an inverse-CDF
    draw, each quantity one array call for the whole block in that order
    (x, x jitter, y, y jitter, distance); `drop_location` places the drops.
    """
    counts = np.array(counts, dtype=np.int64, ndmin=1)
    if np.any(counts < 0):
        raise ValueError("count must be non-negative")
    minutes = np.repeat(np.arange(counts.size) + first_minute, counts)
    n, eps = minutes.size, grid.noise_epsilon_km
    px = np.clip(inverse_sample(pickup_x_dist, rng.random(n))
                 + rng.uniform(-eps, eps, n), 0.0, grid.width_km).tolist()
    py = np.clip(inverse_sample(pickup_y_dist, rng.random(n))
                 + rng.uniform(-eps, eps, n), 0.0, grid.height_km).tolist()
    dist = inverse_sample(trip_distance_dist, rng.random(n))
    if np.any(dist < 0):
        raise ValueError("trip distance distribution produced a negative value")
    dx, dy, dist = drop_location(grid, px, py, dist.tolist(), rng)
    return list(map(Ride, px, py, dx, dy, dist, minutes.tolist()))


RIDE_COLUMNS = ["minute", "pickup_x", "pickup_y", "drop_x", "drop_y", "distance_km"]


def ride_to_row(ride: Ride) -> list[str]:
    return [str(ride.created_minute),
            f"{ride.pickup_x:.6f}", f"{ride.pickup_y:.6f}",
            f"{ride.drop_x:.6f}", f"{ride.drop_y:.6f}",
            f"{ride.distance_km:.6f}"]
