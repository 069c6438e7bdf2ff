import math

import numpy as np
import pytest

from ridesim.distributions import fit_empirical
from ridesim.ridegen import (GridSpec, Ride, drop_location, generate_rides,
                             ride_to_row)


def degenerate(value):
    return fit_empirical([value, value])


@pytest.fixture
def grid():
    return GridSpec(width_km=10.0, height_km=10.0)


class TestGridSpec:
    def test_noise_must_fit_inside_grid(self):
        with pytest.raises(ValueError):
            GridSpec(width_km=1.0, height_km=10.0, noise_epsilon_km=0.5)

    def test_xy_latlon_roundtrip(self):
        grid = GridSpec(width_km=12.0, height_km=8.0,
                        origin_lat=6.9, origin_lon=79.86)
        lat, lon = grid.to_latlon(3.0, 5.0)
        x, y = grid.to_xy(lat, lon)
        assert x == pytest.approx(3.0, abs=1e-9)
        assert y == pytest.approx(5.0, abs=1e-9)

    def test_center_and_half_diagonal(self, grid):
        assert grid.center() == (5.0, 5.0)
        assert grid.half_diagonal_km() == pytest.approx(math.hypot(5, 5))

    def test_latlon_bounds_contain_interior_points(self, grid):
        min_lat, min_lon, max_lat, max_lon = grid.latlon_bounds()
        lat, lon = grid.to_latlon(5.0, 5.0)
        assert min_lat <= lat <= max_lat
        assert min_lon <= lon <= max_lon


class _FixedAngles:
    """An rng stand-in whose `uniform` returns the given angles in turn."""

    def __init__(self, *angles):
        self.angles = list(angles)
        self.draws = 0

    def uniform(self, low, high):
        self.draws += 1
        return self.angles.pop(0) if self.angles else 0.0


class TestDropLocation:
    def test_cardinal_directions(self, grid):
        rng = _FixedAngles(0.0)
        assert drop_location(grid, 1.0, 1.0, 2.0, rng) == pytest.approx(
            (3.0, 1.0, 2.0))
        x, y, km = drop_location(grid, 1.0, 1.0, 2.0,
                                 _FixedAngles(math.pi / 2))
        assert (x, y, km) == pytest.approx((1.0, 3.0, 2.0))
        assert rng.draws == 1

    def test_distance_halves_until_the_drop_fits(self, grid):
        # west leaves the grid at 8 and 4 km; east fits at 2 km
        rng = _FixedAngles(math.pi, math.pi, 0.0)
        x, y, km = drop_location(grid, 3.0, 5.0, 8.0, rng)
        assert (x, y, km) == pytest.approx((5.0, 5.0, 2.0))
        assert rng.draws == 3

    def test_gives_up_after_65_draws(self, grid):
        rng = _FixedAngles(*[math.pi] * 100)  # always out of the west edge
        with pytest.raises(RuntimeError, match="drop placement"):
            drop_location(grid, 0.0, 5.0, 1.0, rng)
        assert rng.draws == 65


class TestGenerateRides:
    def test_invariants_on_seeded_batch(self, grid):
        rng = np.random.default_rng(123)
        px = fit_empirical(np.linspace(1, 9, 50))
        py = fit_empirical(np.linspace(2, 8, 50))
        tkm = fit_empirical(np.linspace(0.5, 6.0, 50))
        rides = generate_rides(grid, px, py, tkm, 1000, minute=37, rng=rng)
        assert len(rides) == 1000
        for ride in rides:
            assert 0.0 <= ride.pickup_x <= grid.width_km
            assert 0.0 <= ride.pickup_y <= grid.height_km
            assert 0.0 < ride.drop_x < grid.width_km
            assert 0.0 < ride.drop_y < grid.height_km
            assert ride.distance_km > 0
            assert ride.created_minute == 37
            chord = math.hypot(ride.drop_x - ride.pickup_x,
                               ride.drop_y - ride.pickup_y)
            assert chord == pytest.approx(ride.distance_km, abs=1e-9)

    def test_oversized_distance_is_halved_until_it_fits(self, grid):
        rng = np.random.default_rng(7)
        px, py = degenerate(0.5), degenerate(0.5)
        rides = generate_rides(grid, px, py, degenerate(40.0), 200,
                               minute=0, rng=rng)
        farthest = math.hypot(9.75, 9.75)  # pickup jitter reaches 0.25
        for ride in rides:
            assert ride.distance_km <= farthest
            halvings = math.log2(40.0 / ride.distance_km)
            assert halvings == pytest.approx(round(halvings), abs=1e-9)
            assert round(halvings) >= 2  # 40 and 20 can never fit a 10km grid

    def test_determinism(self, grid):
        px = fit_empirical([2.0, 8.0])
        tkm = fit_empirical([1.0, 3.0])
        a = generate_rides(grid, px, px, tkm, 50, 0, np.random.default_rng(5))
        b = generate_rides(grid, px, px, tkm, 50, 0, np.random.default_rng(5))
        assert a == b

    def test_zero_count_and_negative_count(self, grid):
        rng = np.random.default_rng(0)
        px = fit_empirical([1.0, 2.0])
        assert generate_rides(grid, px, px, px, 0, 0, rng) == []
        with pytest.raises(ValueError):
            generate_rides(grid, px, px, px, -1, 0, rng)

    def test_gives_up_when_drop_never_fits(self, grid):
        # pickup pinned to the box corner and every angle drawn along +x:
        # the drop keeps landing on the open box's edge, so halving can
        # never save it and the retry guard must fire.
        class CornerRng:
            def random(self):
                return 0.0

            def uniform(self, low, high):
                return low if low < 0 else 0.0

        px, py = degenerate(0.0), degenerate(0.0)
        with pytest.raises(RuntimeError):
            generate_rides(grid, px, py, degenerate(4.0), 1, 0, CornerRng())


def test_ride_row_formatting():
    ride = Ride(pickup_x=1.25, pickup_y=2.0, drop_x=3.0, drop_y=4.0,
                distance_km=2.5, created_minute=90)
    assert ride_to_row(ride) == ["90", "1.250000", "2.000000", "3.000000",
                                 "4.000000", "2.500000"]
