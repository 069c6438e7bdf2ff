"""The event-driven episode loop against the minute-by-minute reference,
and the demand stream it draws from.

`run_episode` skips minutes without rides and processes trip completions and
week rollovers when the next ride arrives. These tests pin that it still
dispatches and books exactly as the reference loop in `helpers` does on the
same rides. The rides come from their own generator, a day at a time: a
minute whose mean is 0 or an integer draws no rounding uniform, `generate`
writes exactly that stream, and agents that decide differently under one
seed see the same rides (common random numbers).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (record_ride_streams, reference_episode,
                     write_distribution, write_time_profile)
from test_sim_golden import _CoinAgent, episode_digest

from ridesim import cli
from ridesim.agent import CategoricalQAgent, FeatureScales
from ridesim.artifacts import read_csv_artifact
from ridesim.distributions import MINUTES_PER_DAY, TimeProfile, fit_empirical
from ridesim.ridegen import GridSpec, generate_rides, ride_to_row
from ridesim.sim import (MINUTES_PER_WEEK, Action, PlatformParams,
                         SimConfig, ride_stream, run_episode)

pytestmark = pytest.mark.golden

GRID = GridSpec(width_km=3.0, height_km=2.0, noise_epsilon_km=0.1)


def _profile(seed: int, zero_share: float, integer_share: float,
             boundary_demand: int, fraction: float = 0.05) -> np.ndarray:
    """Minute means mixing exact zeros, fractions below `fraction` and
    integers 1-3, with `boundary_demand` rides in each of the last and first
    five minutes of every day, so that short trips end on day and week
    boundaries."""
    rng = np.random.default_rng(seed)
    means = rng.uniform(0.0, fraction, (7, MINUTES_PER_DAY))
    kind = rng.random((7, MINUTES_PER_DAY))
    means[kind < zero_share] = 0.0
    integer = kind > 1.0 - integer_share
    means[integer] = rng.integers(1, 4, integer.sum())
    means[:, :5] = boundary_demand
    means[:, -5:] = boundary_demand
    return means


def _config(means, **settings) -> SimConfig:
    return SimConfig(grid=GRID, params=PlatformParams(weekly_target_multiplier=1.5),
                     pickup_x_dist=fit_empirical([0.2, 1.0, 1.5, 2.8]),
                     pickup_y_dist=fit_empirical([0.1, 0.9, 1.9]),
                     trip_distance_dist=fit_empirical([0.1, 0.3, 0.6, 1.2]),
                     time_profile=TimeProfile(means=means, scale_factor=1.0),
                     **settings)


@given(weeks=st.integers(1, 3), start_dow=st.integers(0, 6),
       drivers=st.integers(1, 8), max_offers=st.integers(1, 3),
       # 60 km/h turns most trips around in 1-2 minutes; 0.004 km/h keeps a
       # driver busy across whole weeks without rides.
       speed=st.sampled_from([0.004, 0.5, 6.0, 60.0, 600.0]),
       zero_share=st.floats(0.0, 1.0), integer_share=st.floats(0.0, 0.003),
       boundary_demand=st.integers(0, 2),
       # at 0.0003 some weeks have no ride at all
       fraction=st.sampled_from([0.0003, 0.05]), coin=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_episode_matches_the_minute_by_minute_reference(
        weeks, start_dow, drivers, max_offers, speed, zero_share,
        integer_share, boundary_demand, fraction, coin, seed):
    means = _profile(seed, zero_share, integer_share, boundary_demand,
                     fraction)
    config = _config(means, driver_count=drivers, weeks=weeks,
                     max_offers=max_offers, speed_kmh=speed,
                     start_dow=start_dow, initial_weekly_trips=[0, 2, 5])

    def agent():
        if coin:
            return _CoinAgent()
        return CategoricalQAgent.create(
            FeatureScales.for_grid(GRID), -200.0, 400.0,
            np.random.default_rng(seed + 1), hidden=[8], atom_count=11,
            epsilon=0.3)

    expected = reference_episode(config, agent(), np.random.default_rng(seed))
    got = run_episode(config, agent(), np.random.default_rng(seed))
    assert episode_digest(got) == episode_digest(expected)


class _OneRowAgent(CategoricalQAgent):
    """Greedy on the BLAS it runs on, exaggerated: a row scored alone gets
    the opposite greedy action from the same row in any batch of two or
    more, where a row's action depends on that row only (see
    `test_nn.TestRowsAreBatchIndependent`)."""

    def greedy_actions(self, obs_batch):
        greedy = super().greedy_actions(obs_batch)
        return 1 - greedy if len(obs_batch) == 1 else greedy


@given(drivers=st.integers(40, 120), max_offers=st.integers(1, 5),
       # at 0.5 km/h a trip takes hours, at 60 km/h it ends within a block
       speed=st.sampled_from([0.5, 6.0, 60.0]), peak=st.floats(0.6, 1.2),
       epsilon=st.sampled_from([0.0, 0.3]), coin=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
# One offer a ride: every block's rides have a single candidate.
@example(drivers=60, max_offers=1, speed=6.0, peak=0.9, epsilon=0.0,
         coin=False, seed=1)
@settings(max_examples=20, deadline=None)
def test_dense_episode_matches_the_reference(drivers, max_offers, speed,
                                             peak, epsilon, coin, seed):
    # Three busy hours a day, about one ride a minute: `run_episode` scores
    # rides in blocks, and both accepts and completions send later rides of
    # a block back to be scored alone. A `_CoinAgent`, without greedy
    # actions, takes its candidates from the same blocks.
    means = np.zeros((7, MINUTES_PER_DAY))
    means[:, 420:600] = np.random.default_rng(seed).uniform(0.0, peak, (7, 180))
    config = _config(means, driver_count=drivers, max_offers=max_offers,
                     speed_kmh=speed, initial_weekly_trips=[0, 2, 5])

    def agent():
        if coin:
            return _CoinAgent()
        return _OneRowAgent.create(
            FeatureScales.for_grid(GRID), -200.0, 400.0,
            np.random.default_rng(seed + 1), hidden=[8], atom_count=11,
            epsilon=epsilon)

    expected = reference_episode(config, agent(), np.random.default_rng(seed))
    got = run_episode(config, agent(), np.random.default_rng(seed))
    assert got.generated_total > 200
    assert episode_digest(got) == episode_digest(expected)


class _AcceptAll:
    def decide(self, obs_batch, rng):
        return iter([Action.ACCEPT] * len(obs_batch))


def test_weeks_without_rides_still_roll_goals_over():
    # Two ride minutes a week at mean 0.5 leave some weeks empty. The driver
    # completes a trip in a week with rides, so its goal for the next week is
    # 2, and after an empty week it is 1 only if that week's boundary is
    # rolled over.
    means = np.zeros((7, MINUTES_PER_DAY))
    means[3, 600:602] = 0.5
    for seed in range(12):
        config = _config(means, driver_count=1, weeks=3, speed_kmh=0.5)
        expected = reference_episode(config, _AcceptAll(),
                                     np.random.default_rng(seed))
        got = run_episode(config, _AcceptAll(), np.random.default_rng(seed))
        assert episode_digest(got) == episode_digest(expected), seed


def test_an_all_zero_profile_draws_nothing():
    config = _config(np.zeros((7, MINUTES_PER_DAY)), weeks=2, start_dow=3)
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    assert list(ride_stream(config, rng)) == []
    assert rng.bit_generator.state == before


def test_integer_means_draw_only_the_rides_own_uniforms():
    means = np.zeros((7, MINUTES_PER_DAY))
    means[2, 0] = 1.0      # a week's first minute when start_dow is 2
    means[2, 700] = 3.0
    means[1, -1] = 2.0     # the week's last minute
    config = _config(means, weeks=2, start_dow=2)
    rng, twin = np.random.default_rng(8), np.random.default_rng(8)
    stream = [(minute, list(rides)) for minute, rides in ride_stream(config, rng)]

    expected = []
    for first in (0, MINUTES_PER_WEEK):
        day_one = np.zeros(MINUTES_PER_DAY, dtype=int)
        day_one[[0, 700]] = 1, 3
        rides = generate_rides(GRID, config.pickup_x_dist,
                               config.pickup_y_dist,
                               config.trip_distance_dist, day_one, first, twin)
        expected += [(first, rides[:1]), (first + 700, rides[1:])]
        last = first + MINUTES_PER_WEEK - 1
        expected.append((last, generate_rides(
            GRID, config.pickup_x_dist, config.pickup_y_dist,
            config.trip_distance_dist, 2, last, twin)))
    assert stream == expected
    assert rng.bit_generator.state == twin.bit_generator.state


def test_generate_writes_the_reference_stream(tmp_path):
    means = _profile(4, zero_share=0.5, integer_share=0.002, boundary_demand=1)
    config = _config(means, weeks=2, start_dow=5)
    for name, dist in (("pickup_x", config.pickup_x_dist),
                       ("pickup_y", config.pickup_y_dist),
                       ("trip_km", config.trip_distance_dist)):
        write_distribution(dist, tmp_path / f"dist_{name}.txt", name)
    write_time_profile(config.time_profile, tmp_path / "time_profile.txt")
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(
        f"seed: 13\npaths:\n  out_dir: \"{tmp_path}\"\n"
        f"grid:\n  width_km: {GRID.width_km}\n  height_km: {GRID.height_km}\n"
        f"  noise_epsilon_km: {GRID.noise_epsilon_km}\n"
        "sim:\n  weeks: 2\n  start_dow: 5\n")
    assert cli.main(["generate", "--config", str(cfg_path)]) == 0

    stream = ride_stream(config, cli.seed_stream(13, "generate"))
    expected = [ride_to_row(ride) for _, rides in stream for ride in rides]
    _, rows = read_csv_artifact(tmp_path / "rides.csv")
    assert len(expected) > 100
    assert rows == expected


def test_agents_under_one_seed_see_the_same_rides(monkeypatch):
    means = _profile(6, zero_share=0.3, integer_share=0.002,
                     boundary_demand=1)
    config = _config(means, driver_count=4, max_offers=2, speed_kmh=6.0)
    streams = record_ride_streams(monkeypatch)
    greedy, explore = (run_episode(config, CategoricalQAgent.create(
        FeatureScales.for_grid(GRID), -200.0, 400.0, np.random.default_rng(1),
        hidden=[8], atom_count=11, epsilon=epsilon),
        np.random.default_rng(21)) for epsilon in (0.0, 0.3))
    greedy_rides, explore_rides = streams
    assert len(greedy_rides) > 100
    assert greedy_rides == explore_rides
    # the agents decided differently, and the fleet went different ways
    assert ([int(o.action) for o in greedy.offers]
            != [int(o.action) for o in explore.offers])
    assert greedy.daily_assigned != explore.daily_assigned
