"""Marketplace invariants of whole episodes, over random fleets and demand."""

from collections import defaultdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ridesim.agent import CategoricalQAgent, FeatureScales
from ridesim.distributions import TimeProfile, fit_empirical
from ridesim.ridegen import GridSpec
from ridesim.sim import (F_PICKUP_KM, MINUTES_PER_DAY, Action, PlatformParams,
                         SimConfig, run_episode, travel_minutes)

GRID = GridSpec(width_km=8.0, height_km=6.0)


# Up to 120 drivers and a ride every three minutes: `run_episode` scores
# rides in blocks, and accepts and completions send some back to be scored
# alone.
@given(drivers=st.integers(1, 120), max_offers=st.integers(1, 5),
       demand=st.floats(0.0, 0.3), epsilon=st.floats(0.0, 1.0),
       weeks=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_episode_invariants(drivers, max_offers, demand, epsilon, weeks, seed):
    rng = np.random.default_rng(seed)
    profile = TimeProfile(means=np.full((7, MINUTES_PER_DAY), demand),
                          scale_factor=1.0)
    config = SimConfig(grid=GRID, params=PlatformParams(),
                       pickup_x_dist=fit_empirical(rng.uniform(0, 8, 20)),
                       pickup_y_dist=fit_empirical(rng.uniform(0, 6, 20)),
                       trip_distance_dist=fit_empirical(rng.gamma(2.0, 1.0, 20)),
                       time_profile=profile, driver_count=drivers,
                       weeks=weeks, max_offers=max_offers)
    agent = CategoricalQAgent.create(FeatureScales.for_grid(GRID), -300.0,
                                     900.0, rng, hidden=(8,), atom_count=11,
                                     epsilon=epsilon)
    log = run_episode(config, agent, rng)

    # Rides are conserved day by day.
    for generated, assigned, lost in zip(log.daily_generated,
                                         log.daily_assigned, log.daily_lost):
        assert generated == assigned + lost

    by_ride = defaultdict(list)
    for offer in log.offers:
        by_ride[id(offer.ride)].append(offer)
    assert len(by_ride) <= log.generated_total
    accepted = 0
    for offers in by_ride.values():
        ids = [o.driver_id for o in offers]
        assert len(offers) <= max_offers
        assert len(set(ids)) == len(ids), "a driver was offered one ride twice"
        actions = [o.action for o in offers]
        assert Action.ACCEPT not in actions[:-1], "polling went on past an accept"
        accepted += actions[-1] == Action.ACCEPT
        distances = [float(o.obs[F_PICKUP_KM]) for o in offers]
        assert distances == sorted(distances), "offers not nearest-first"
    assert accepted == log.assigned_total
    assert log.completed_trips <= log.assigned_total

    # No driver hears of a ride between accepting one and finishing it.
    busy_until = {}
    for offer in log.offers:
        assert offer.minute >= busy_until.get(offer.driver_id, 0), \
            f"driver {offer.driver_id} offered a ride while busy"
        if offer.action == Action.ACCEPT:
            leg_km = float(offer.obs[F_PICKUP_KM]) + offer.ride.distance_km
            busy_until[offer.driver_id] = (
                offer.minute + travel_minutes(leg_km, config.speed_kmh))
