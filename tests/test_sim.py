import math
from dataclasses import fields

import numpy as np
import pytest

from helpers import candidates, observation
from ridesim.agent import FeatureScales
from ridesim.distributions import TimeProfile, fit_empirical
from ridesim.ridegen import GridSpec, Ride
from ridesim.sim import (FEATURES, Action, EpisodeLog, Fleet, OfferRecord,
                         PlatformParams, SimConfig, Transition, dispatch,
                         reward_from_observation, run_episode, travel_minutes,
                         weekly_goal)
from ridesim.synth import SyntheticLogSpec


@pytest.fixture
def params():
    return PlatformParams(fare_per_km=100.0, cost_per_km=30.0,
                          idle_cost_per_minute=1.0,
                          weekly_reward_amount=2000.0)


@pytest.fixture
def grid():
    return GridSpec(width_km=10.0, height_km=10.0)


def make_fleet(*positions, goal=1):
    """Idle drivers at the given (x, y) points, ids in argument order."""
    return Fleet([p[0] for p in positions], [p[1] for p in positions],
                 goal=[goal] * len(positions))


def observe(fleet, driver_ids, ride, grid) -> np.ndarray:
    """The observation rows that scoring `ride` with every idle driver a
    candidate gives drivers `driver_ids`, in that order."""
    [(ids, obs)] = candidates(fleet, [ride], grid, fleet.x.size)
    return obs[[ids.index(i) for i in driver_ids]]


class TestTravelMinutes:
    def test_exact_multiple_does_not_round_up(self):
        assert travel_minutes(15.0, 30.0) == 30
        assert travel_minutes(1.0, 30.0) == 2

    def test_zero_distance_still_costs_a_minute(self):
        assert travel_minutes(0.0, 30.0) == 1

    def test_fraction_rounds_up(self):
        assert travel_minutes(0.4, 30.0) == 1
        assert travel_minutes(0.51, 30.0) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            travel_minutes(-1.0, 30.0)
        with pytest.raises(ValueError):
            travel_minutes(1.0, 0.0)


class TestWeeklyGoal:
    def test_round_half_up(self):
        assert weekly_goal(3, 1.3) == 4    # 3.9 -> 4
        assert weekly_goal(5, 1.5) == 8    # 7.5 rounds up
        assert weekly_goal(40, 1.0) == 40

    def test_floor_of_one(self):
        assert weekly_goal(0, 1.0) == 1
        assert weekly_goal(1, 0.4) == 1


class TestPeakHours:
    def test_windows_are_half_open(self, params):
        peak = [6 * 60, 7 * 60 + 59, 16 * 60, 18 * 60 + 59]
        off = [5 * 60 + 59, 8 * 60, 15 * 60 + 59, 19 * 60, 0, 23 * 60 + 59]
        for minute in peak:
            assert params.is_peak(minute), minute
        for minute in off:
            assert not params.is_peak(minute), minute

    def test_effective_fare_doubles_in_peak(self, params):
        assert params.effective_fare(5 * 60) == 100.0
        assert params.effective_fare(6 * 60) == 200.0

    def test_validation_rejects_bad_window(self):
        with pytest.raises(ValueError):
            PlatformParams(peak_hours=((8, 6),))
        with pytest.raises(ValueError):
            PlatformParams(fare_per_km=-1.0)


class TestReward:
    def test_accept_economics(self, params):
        # 100*5 - 30*(5+1) - 10*1 + 2000/40 = 360
        obs = observation(pickup_km=1.0, trip_km=5.0, minute_of_day=12 * 60,
                          trips_to_goal=3, idle_minutes=10.0)
        reward = reward_from_observation(params, obs, 40, Action.ACCEPT)
        assert reward == pytest.approx(360.0, abs=1e-9)

    def test_reject_is_zero(self, params):
        obs = observation(pickup_km=1.0, trip_km=5.0, minute_of_day=12 * 60,
                          trips_to_goal=3, idle_minutes=10.0)
        reward = reward_from_observation(params, obs, 40, Action.REJECT)
        assert reward == 0.0

    def test_peak_multiplier_applies_to_fare_only(self, params):
        obs = observation(pickup_km=1.0, trip_km=5.0,
                          minute_of_day=6 * 60 + 40, trips_to_goal=3,
                          idle_minutes=10.0)
        reward = reward_from_observation(params, obs, 40, Action.ACCEPT)
        assert reward == pytest.approx(860.0, abs=1e-9)  # fare doubled

    def test_no_bonus_once_goal_met(self, params):
        obs = observation(pickup_km=1.0, trip_km=5.0, minute_of_day=12 * 60,
                          trips_to_goal=0, idle_minutes=10.0)
        reward = reward_from_observation(params, obs, 40, Action.ACCEPT)
        assert reward == pytest.approx(310.0, abs=1e-9)

    def test_halved_fare_halves_the_fare_term(self, params):
        from dataclasses import replace
        half_fare = replace(params, fare_per_km=params.fare_per_km / 2)
        obs = observation(pickup_km=1.0, trip_km=5.0, minute_of_day=12 * 60,
                          trips_to_goal=3, idle_minutes=10.0)
        reward = reward_from_observation(half_fare, obs, 40, Action.ACCEPT)
        assert reward == pytest.approx(360.0 - 250.0, abs=1e-9)

    def test_observation_reward_matches_feature_reward(self, params, grid):
        fleet = make_fleet((2.0, 2.0), goal=40)
        fleet.idle_since[0] = 100
        ride = Ride(pickup_x=2.0, pickup_y=3.0, drop_x=2.0, drop_y=8.0,
                    distance_km=5.0, created_minute=147)
        obs = observe(fleet, [0], ride, grid)[0]
        via_obs = reward_from_observation(params, obs, 40, Action.ACCEPT)
        direct = reward_from_observation(
            params, observation(pickup_km=1.0, trip_km=5.0, minute_of_day=147,
                                trips_to_goal=40, idle_minutes=47.0),
            40, Action.ACCEPT)
        assert via_obs == pytest.approx(direct, abs=1e-12)


class TestObservation:
    def test_feature_layout(self, grid):
        fleet = make_fleet((2.0, 2.0), goal=10)
        fleet.trips_week[0] = 4
        fleet.idle_since[0] = 100
        ride = Ride(pickup_x=2.0, pickup_y=5.0, drop_x=5.0, drop_y=9.0,
                    distance_km=5.0, created_minute=147)
        obs = observe(fleet, [0], ride, grid)[0]
        assert obs[0] == pytest.approx(3.0)       # pickup distance
        assert obs[1] == pytest.approx(5.0)       # trip distance
        assert obs[2] == 147.0                    # minute of day
        assert obs[3] == 6.0                      # trips left to goal
        assert obs[4] == pytest.approx(4.0)       # drop distance from center
        assert obs[5] == 47.0                     # idle minutes

    def test_minute_of_day_wraps(self, grid):
        fleet = make_fleet((0.0, 0.0))
        ride = Ride(pickup_x=1.0, pickup_y=0.0, drop_x=2.0, drop_y=1.0,
                    distance_km=1.0, created_minute=1500)
        obs = observe(fleet, [0], ride, grid)[0]
        assert obs[2] == 60.0

    def test_goal_deficit_never_negative(self, grid):
        fleet = make_fleet((0.0, 0.0), goal=3)
        fleet.trips_week[0] = 7
        ride = Ride(pickup_x=1.0, pickup_y=0.0, drop_x=2.0, drop_y=1.0,
                    distance_km=1.0, created_minute=0)
        assert observe(fleet, [0], ride, grid)[0][3] == 0.0

    def test_per_feature_fields_follow_features(self):
        # the scales divide, and the synthetic policy weighs, the
        # observation column of the same name
        assert [f.name for f in fields(FeatureScales)] == list(FEATURES)
        assert [f.name.removeprefix("weight_")
                for f in fields(SyntheticLogSpec)
                if f.name.startswith("weight_")] == list(FEATURES)

    def test_rows_follow_the_requested_driver_order(self, grid):
        fleet = make_fleet((0.0, 0.0), (3.0, 4.0))
        ride = Ride(pickup_x=0.0, pickup_y=0.0, drop_x=2.0, drop_y=1.0,
                    distance_km=1.0, created_minute=0)
        obs = observe(fleet, [1, 0], ride, grid)
        assert obs[:, 0].tolist() == [5.0, 0.0]


class TestDriverLifecycle:
    def test_assign_then_advance_to_completion(self):
        fleet = make_fleet((0.0, 0.0))
        ride = Ride(pickup_x=0.0, pickup_y=3.0, drop_x=0.0, drop_y=6.0,
                    distance_km=3.0, created_minute=100)
        fleet.assign(0, ride, now=100, speed_kmh=30.0)
        assert not fleet.idle[0]
        assert fleet.busy_until[0] == 100 + 12  # 6 km at 30 km/h

        for minute in (105, 106, 111):
            assert fleet.complete_trips(minute).tolist() == []
            assert not fleet.idle[0]
        assert fleet.complete_trips(112).tolist() == [0]
        assert fleet.idle[0]
        assert (fleet.x[0], fleet.y[0]) == (0.0, 6.0)
        assert fleet.idle_since[0] == 112
        assert fleet.trips_week[0] == 1
        assert fleet.complete_trips(113).tolist() == []

    def test_completion_during_longer_gap_uses_busy_until(self):
        # completions may first be processed minutes after busy_until; idle
        # must still count from the scheduled completion, not the polling
        # minute
        fleet = make_fleet((0.0, 0.0))
        ride = Ride(pickup_x=0.0, pickup_y=1.0, drop_x=0.0, drop_y=2.0,
                    distance_km=1.0, created_minute=0)
        fleet.assign(0, ride, now=0, speed_kmh=30.0)
        assert fleet.complete_trips(int(fleet.busy_until[0]) + 50).tolist() == [0]
        assert fleet.idle_since[0] == fleet.busy_until[0]

    def test_only_due_trips_complete(self):
        fleet = make_fleet((0.0, 0.0), (5.0, 5.0))
        short = Ride(pickup_x=0.0, pickup_y=1.0, drop_x=0.0, drop_y=2.0,
                     distance_km=1.0, created_minute=0)
        long = Ride(pickup_x=5.0, pickup_y=5.0, drop_x=5.0, drop_y=9.0,
                    distance_km=4.0, created_minute=0)
        fleet.assign(0, short, now=0, speed_kmh=30.0)   # busy until 4
        fleet.assign(1, long, now=0, speed_kmh=30.0)    # busy until 8
        assert fleet.complete_trips(4).tolist() == [0]
        assert fleet.idle.tolist() == [True, False]
        assert fleet.complete_trips(8).tolist() == [1]
        assert (fleet.x[1], fleet.y[1]) == (5.0, 9.0)

    def test_week_start_sets_goals_from_completed_trips(self):
        fleet = make_fleet((0.0, 0.0), (1.0, 1.0), goal=6)
        fleet.trips_week[:] = [3, 0]
        fleet.start_week(1.5)
        assert fleet.goal.tolist() == [weekly_goal(3, 1.5), 1]
        assert fleet.trips_week.tolist() == [0, 0]


class _FixedAgent:
    """Deterministic stand-in: accepts offers per a scripted sequence."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def decide(self, obs_batch, rng):
        for _ in obs_batch:
            action = self.script[self.calls % len(self.script)]
            self.calls += 1
            yield action


def _sim_config(grid, params, demand=0.0, **kwargs):
    flat = fit_empirical([2.0, 8.0])
    tkm = fit_empirical([1.0, 4.0])
    profile = TimeProfile(means=np.full((7, 1440), demand), scale_factor=1.0)
    return SimConfig(grid=grid, params=params, pickup_x_dist=flat,
                     pickup_y_dist=flat, trip_distance_dist=tkm,
                     time_profile=profile, **kwargs)


class TestDispatch:
    def test_nearest_idle_driver_polled_first(self, grid, params):
        config = _sim_config(grid, params, driver_count=3, max_offers=5)
        fleet = make_fleet((1.0, 1.0), (9.0, 9.0), (0.0, 0.0))
        fleet.assign(2, Ride(pickup_x=0.0, pickup_y=0.0, drop_x=9.0,
                             drop_y=0.0, distance_km=9.0, created_minute=0),
                     now=0, speed_kmh=30.0)
        ride = Ride(pickup_x=0.0, pickup_y=0.0, drop_x=1.0, drop_y=1.0,
                    distance_km=1.4, created_minute=10)
        agent = _FixedAgent([Action.REJECT, Action.ACCEPT])
        records, assigned = dispatch(ride, fleet, agent, config, 10,
                                     np.random.default_rng(0))
        # the busy driver sits on the pickup point but is never polled
        assert [r.driver_id for r in records] == [0, 1]
        assert [r.action for r in records] == [Action.REJECT, Action.ACCEPT]
        assert assigned == 1
        assert not fleet.idle[1]
        assert records[0].reward == 0.0

    def test_equal_distances_go_to_the_lower_id(self, grid, params):
        config = _sim_config(grid, params, driver_count=3, max_offers=2)
        fleet = make_fleet((6.0, 5.0), (4.0, 5.0), (5.0, 5.5))
        ride = Ride(pickup_x=5.0, pickup_y=5.0, drop_x=1.0, drop_y=1.0,
                    distance_km=5.6, created_minute=0)
        records, _ = dispatch(ride, fleet, _FixedAgent([Action.REJECT]),
                              config, 0, np.random.default_rng(0))
        assert [r.driver_id for r in records] == [2, 0]

    def test_poll_stops_at_first_accept(self, grid, params):
        config = _sim_config(grid, params, driver_count=3)
        fleet = make_fleet(*[(float(i), 0.0) for i in range(3)])
        ride = Ride(pickup_x=0.0, pickup_y=0.0, drop_x=1.0, drop_y=1.0,
                    distance_km=1.4, created_minute=0)
        agent = _FixedAgent([Action.ACCEPT])
        records, assigned = dispatch(ride, fleet, agent, config, 0,
                                     np.random.default_rng(0))
        assert len(records) == 1
        assert assigned == 0
        assert agent.calls == 1

    def test_offer_cap_limits_polling(self, grid, params):
        config = _sim_config(grid, params, driver_count=8, max_offers=5)
        fleet = make_fleet(*[(float(i), 0.0) for i in range(8)])
        ride = Ride(pickup_x=0.0, pickup_y=0.0, drop_x=1.0, drop_y=1.0,
                    distance_km=1.4, created_minute=0)
        agent = _FixedAgent([Action.REJECT])
        records, assigned = dispatch(ride, fleet, agent, config, 0,
                                     np.random.default_rng(0))
        assert [r.driver_id for r in records] == [0, 1, 2, 3, 4]
        assert assigned is None

    def test_ride_without_idle_driver_is_unserved(self, grid, params):
        config = _sim_config(grid, params, driver_count=1)
        fleet = make_fleet((0.0, 0.0))
        fleet.assign(0, Ride(pickup_x=0.0, pickup_y=0.0, drop_x=5.0,
                             drop_y=0.0, distance_km=5.0, created_minute=0),
                     now=0, speed_kmh=30.0)
        ride = Ride(pickup_x=1.0, pickup_y=0.0, drop_x=1.0, drop_y=1.0,
                    distance_km=1.0, created_minute=1)
        agent = _FixedAgent([Action.ACCEPT])
        assert dispatch(ride, fleet, agent, config, 1,
                        np.random.default_rng(0)) == ([], None)
        assert agent.calls == 0

    def test_squared_distance_rounding_does_not_reorder(self, grid):
        # Both drivers are 6.917406031446344 km away by hypot, a tie that
        # goes to id 0, yet driver 1's squared distance rounds lower.
        fleet = make_fleet((6.369616873214543, 2.697867137638703),
                           (2.3777519492833683, 6.495906547324199))
        dx = fleet.x - 0.0
        dy = fleet.y - 0.0
        squared = dx * dx + dy * dy
        assert math.hypot(dx[0], dy[0]) == math.hypot(dx[1], dy[1])
        assert squared[1] < squared[0]
        ride = Ride(pickup_x=0.0, pickup_y=0.0, drop_x=1.0, drop_y=1.0,
                    distance_km=1.4, created_minute=0)
        [(ids, _)] = candidates(fleet, [ride], grid, 1)
        assert ids == [0]

    def test_nearest_idle_matches_a_full_sort(self, grid):
        # Coarse coordinates make many exact distance ties, fine ones make
        # near-ties that squared distance and hypot may round apart. Each
        # trial scores its rides alone and as one block.
        rng = np.random.default_rng(4)
        for trial in range(300):
            n = int(rng.integers(1, 40))
            step = (1.0, 0.5, 1e-7)[trial % 3]
            xs = np.round(rng.uniform(0, 10, n) / step) * step
            ys = np.round(rng.uniform(0, 10, n) / step) * step
            fleet = Fleet(xs, ys, goal=[1] * n)
            fleet.idle[:] = rng.random(n) < 0.7
            rides = [Ride(pickup_x=float(xs[i]) + 1e-9 * trial,
                          pickup_y=float(ys[-1 - i]), drop_x=1.0, drop_y=1.0,
                          distance_km=1.0, created_minute=0)
                     for i in range(min(n, 4))]
            k = int(rng.integers(1, 6))
            alone = [c for ride in rides
                     for c in candidates(fleet, [ride], grid, k)]
            for ride, one, block in zip(rides, alone,
                                        candidates(fleet, rides, grid, k)):
                px, py = ride.pickup_x, ride.pickup_y
                expected = sorted((math.hypot(x - px, y - py), i)
                                  for i, (x, y) in enumerate(zip(xs.tolist(),
                                                                 ys.tolist()))
                                  if fleet.idle[i])
                assert one[0] == block[0] == [i for _, i in expected[:k]]
                assert one[1][:, 0].tolist() == block[1][:, 0].tolist() \
                    == [d for d, _ in expected[:k]]


class TestRunEpisode:
    def test_counts_reconcile_and_goals_refresh(self, grid, params):
        config = _sim_config(grid, params, demand=0.01, driver_count=3,
                             weeks=2, initial_weekly_trips=6)
        agent = _FixedAgent([Action.ACCEPT, Action.REJECT])
        log = run_episode(config, agent, np.random.default_rng(42))
        assert len(log.daily_generated) == 14
        assert log.generated_total == log.assigned_total + log.lost_total
        assert log.generated_total > 0
        assert log.completed_trips > 0
        # every polled offer is recorded with its reward
        assert log.total_reward == pytest.approx(
            sum(o.reward for o in log.offers))

    def test_trajectories_chain_next_observations(self, grid, params):
        config = _sim_config(grid, params, demand=0.02, driver_count=2,
                             weeks=1)
        agent = _FixedAgent([Action.REJECT])
        log = run_episode(config, agent, np.random.default_rng(1))
        assert log.trajectories, "expected offers for both drivers"
        for traj in log.trajectories.values():
            offers = [o for o in log.offers if o.driver_id == traj.driver_id]
            assert len(traj.transitions) == len(offers)
            for i, tr in enumerate(traj.transitions[:-1]):
                assert not tr.terminal
                np.testing.assert_array_equal(tr.next_obs,
                                              offers[i + 1].obs)
            assert traj.transitions[-1].terminal

    def test_trajectories_are_built_when_first_read(self, grid, params):
        config = _sim_config(grid, params, demand=0.02, driver_count=2,
                             weeks=1)
        log = run_episode(config, _FixedAgent([Action.REJECT]),
                          np.random.default_rng(1))
        assert "trajectories" not in vars(log)
        copy = EpisodeLog(**vars(log))
        assert log.trajectories is log.trajectories
        assert ([t.driver_id for t in copy.trajectories.values()]
                == sorted({o.driver_id for o in log.offers}))

    def test_deterministic_under_seed(self, grid, params):
        config = _sim_config(grid, params, demand=0.01, driver_count=2)
        a = run_episode(config, _FixedAgent([Action.ACCEPT]),
                        np.random.default_rng(9))
        b = run_episode(config, _FixedAgent([Action.ACCEPT]),
                        np.random.default_rng(9))
        assert a.daily_generated == b.daily_generated
        assert a.total_reward == b.total_reward
        assert len(a.offers) == len(b.offers)

    def test_week_boundary_resets_weekly_counts(self, grid, params):
        config = _sim_config(grid, params, demand=0.005, driver_count=1,
                             weeks=2, initial_weekly_trips=5)
        agent = _FixedAgent([Action.ACCEPT])
        log = run_episode(config, agent, np.random.default_rng(3))
        week2_offers = [o for o in log.offers if o.minute >= 7 * 1440]
        assert week2_offers, "no demand landed in week 2"
        # second-week goals come from week-1 completions, not the seed value
        goals = {o.goal_trips for o in week2_offers}
        assert all(g >= 1 for g in goals)

    def test_trip_ending_on_the_week_boundary_counts_for_the_new_week(
            self, grid, params):
        # One ride a week at 00:05 Monday and one at 23:59 Sunday; at this
        # speed every trip takes one minute, so the Sunday trip ends on the
        # first minute of week 2. Goals reset before that trip completes:
        # week 2's goal comes from the Monday trip alone, and the Sunday
        # trip already meets it.
        means = np.zeros((7, 1440))
        means[0, 5] = means[6, 1439] = 1.0
        config = SimConfig(grid=grid, params=params,
                           pickup_x_dist=fit_empirical([2.0, 8.0]),
                           pickup_y_dist=fit_empirical([2.0, 8.0]),
                           trip_distance_dist=fit_empirical([1.0, 4.0]),
                           time_profile=TimeProfile(means=means,
                                                    scale_factor=1.0),
                           driver_count=1, weeks=2, speed_kmh=1e6,
                           initial_weekly_trips=5)
        log = run_episode(config, _FixedAgent([Action.ACCEPT]),
                          np.random.default_rng(0))
        assert [o.minute for o in log.offers] == [5, 10079, 10085, 20159]
        week2 = log.offers[2]
        assert week2.goal_trips == 1
        assert week2.obs[3] == 0.0
