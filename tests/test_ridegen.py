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
    """An rng stand-in whose `uniform` returns the given angles in turn,
    one per requested row."""

    def __init__(self, *angles):
        self.angles = list(angles)
        self.draws = 0

    def uniform(self, low, high, size):
        self.draws += 1
        return np.array([self.angles.pop(0) if self.angles else 0.0
                         for _ in range(size)])


class TestDropLocation:
    def test_cardinal_directions(self, grid):
        rng = _FixedAngles(0.0, math.pi / 2)
        x, y, km = drop_location(grid, [1.0, 1.0], [1.0, 1.0], [2.0, 2.0], rng)
        assert x == pytest.approx([3.0, 1.0])
        assert y == pytest.approx([1.0, 3.0])
        assert km == [2.0, 2.0]
        assert rng.draws == 1

    def test_distance_halves_until_the_drop_fits(self, grid):
        # row 0 heads west, out of the grid at 8 and 4 km, then east at 2 km;
        # row 1 fits at once and draws nothing after the first round
        rng = _FixedAngles(math.pi, 0.0, math.pi, 0.0)
        x, y, km = drop_location(grid, [3.0, 1.0], [5.0, 1.0], [8.0, 1.0],
                                 rng)
        assert x == pytest.approx([5.0, 2.0])
        assert y == pytest.approx([5.0, 1.0])
        assert km == [2.0, 1.0]
        assert rng.draws == 3 and not rng.angles

    def test_redraws_only_the_rows_still_outside(self, grid):
        draws = np.random.default_rng(4)
        x, y, km = (draws.uniform(0, 10, 300).tolist(),
                     draws.uniform(0, 10, 300).tolist(),
                     draws.gamma(2.0, 3.0, 300).tolist())
        sizes = []

        class Counting:
            def uniform(self, low, high, size):
                sizes.append(size)
                return draws.uniform(low, high, size)

        dx, dy, out = drop_location(grid, x, y, km, Counting())
        assert all(0.0 < v < 10.0 for v in dx + dy)
        halvings = [round(math.log2(a / b)) for a, b in zip(km, out)]
        assert [a / 2 ** k for a, k in zip(km, halvings)] == out
        # round r draws one angle for each row halved at least r times
        assert sizes == [sum(k >= r for k in halvings)
                         for r in range(max(halvings) + 1)]
        assert sizes[0] == 300 and max(halvings) >= 2
        assert drop_location(grid, [], [], [], Counting()) == ([], [], [])

    def test_gives_up_after_65_draws(self, grid):
        rng = _FixedAngles(*[math.pi] * 100)  # always out of the west edge
        with pytest.raises(ValueError, match="drop placement"):
            drop_location(grid, [0.0], [5.0], [1.0], rng)
        assert rng.draws == 65


class TestGenerateRides:
    def test_invariants_on_seeded_batch(self, grid):
        rng = np.random.default_rng(123)
        px = fit_empirical(np.linspace(1, 9, 50))
        py = fit_empirical(np.linspace(2, 8, 50))
        tkm = fit_empirical(np.linspace(0.5, 6.0, 50))
        rides = generate_rides(grid, px, py, tkm, 1000, first_minute=37,
                               rng=rng)
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

    def test_counts_per_minute_in_one_block(self, grid):
        px = fit_empirical([2.0, 8.0])
        tkm = fit_empirical([1.0, 3.0])
        rides = generate_rides(grid, px, px, tkm, [2, 0, 3, 0], 600,
                               np.random.default_rng(5))
        assert [r.created_minute for r in rides] == [600, 600, 602, 602, 602]
        # one call per quantity: x and y uniforms and jitters, distances
        rng = np.random.default_rng(5)
        u = [rng.random(5), rng.uniform(-0.25, 0.25, 5)]
        assert [r.pickup_x for r in rides] == pytest.approx(
            np.clip(2.0 + 6.0 * u[0] + u[1], 0.0, 10.0).tolist())

    def test_oversized_distance_is_halved_until_it_fits(self, grid):
        rng = np.random.default_rng(7)
        px, py = degenerate(0.5), degenerate(0.5)
        rides = generate_rides(grid, px, py, degenerate(40.0), 200,
                               first_minute=0, rng=rng)
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
        before = rng.bit_generator.state
        px = fit_empirical([1.0, 2.0])
        assert generate_rides(grid, px, px, px, 0, 0, rng) == []
        assert generate_rides(grid, px, px, px, [0] * 1440, 0, rng) == []
        assert rng.bit_generator.state == before
        with pytest.raises(ValueError, match="count must be non-negative"):
            generate_rides(grid, px, px, px, -1, 0, rng)
        with pytest.raises(ValueError, match="count must be non-negative"):
            generate_rides(grid, px, px, px, [3, -1], 0, rng)

    def test_gives_up_when_drop_never_fits(self, grid):
        # pickup pinned to the box corner and every angle drawn along +x:
        # the drop keeps landing on the open box's edge, so halving can
        # never save it and the retry guard must fire.
        class CornerRng:
            def random(self, size):
                return np.zeros(size)

            def uniform(self, low, high, size):
                return np.full(size, low if low < 0 else 0.0)

        px, py = degenerate(0.0), degenerate(0.0)
        with pytest.raises(ValueError):
            generate_rides(grid, px, py, degenerate(4.0), 1, 0, CornerRng())


def test_ride_row_formatting():
    ride = Ride(pickup_x=1.25, pickup_y=2.0, drop_x=3.0, drop_y=4.0,
                distance_km=2.5, created_minute=90)
    assert ride_to_row(ride) == ["90", "1.250000", "2.000000", "3.000000",
                                 "4.000000", "2.500000"]
