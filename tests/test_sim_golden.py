"""Golden output of two small multi-week episodes.

The hashes pin dispatch order, the order of every random draw and the
driver bookkeeping bit for bit: any change to them shows up here, even when
every statistical check still passes. They were last recorded when each
episode split its draws into placement, demand and decision generators and
drew demand a day at a time, and must not be updated to fit a change that
is meant to keep outputs identical.
"""

import hashlib

import numpy as np
import pytest

from ridesim.distributions import TimeProfile, fit_empirical
from ridesim.ridegen import GridSpec
from ridesim.sim import Action, PlatformParams, SimConfig, run_episode

pytestmark = pytest.mark.golden


class _CoinAgent:
    """Draws from the simulation rng on every offer it decides.

    Nearer pickups are accepted more often, so acceptance depends on the
    observation as well as on the draw order.
    """

    def decide(self, obs_batch, rng):
        for obs in obs_batch:
            u = rng.random()
            yield Action.ACCEPT if u < 0.6 / (1.0 + obs[0]) else Action.REJECT


def _config(demand, **kwargs):
    profile = TimeProfile(means=np.full((7, 1440), demand), scale_factor=1.0)
    return SimConfig(grid=GridSpec(width_km=10.0, height_km=8.0),
                     params=PlatformParams(),
                     pickup_x_dist=fit_empirical([0.5, 2.0, 3.5, 6.0, 9.5]),
                     pickup_y_dist=fit_empirical([1.0, 4.0, 4.5, 7.5]),
                     trip_distance_dist=fit_empirical([0.5, 1.5, 3.0, 6.0]),
                     time_profile=profile, **kwargs)


def episode_digest(log) -> str:
    h = hashlib.sha256()
    for o in log.offers:
        h.update(f"{o.minute} {o.driver_id} {o.obs.tobytes().hex()} "
                 f"{int(o.action)} {o.reward!r} {o.goal_trips} "
                 f"{o.ride.created_minute}\n".encode())
    for driver_id in sorted(log.trajectories):
        for t in log.trajectories[driver_id].transitions:
            h.update(f"{driver_id} {t.obs.tobytes().hex()} {int(t.action)} "
                     f"{t.next_obs.tobytes().hex()} {t.reward!r} "
                     f"{t.terminal}\n".encode())
    h.update(f"{log.daily_generated} {log.daily_assigned} {log.daily_lost} "
             f"{log.completed_trips} {log.total_reward!r}\n".encode())
    return h.hexdigest()


GOLDEN = {
    # Roomy fleet: most rides find several idle drivers.
    "roomy": (dict(demand=0.03, driver_count=7, weeks=2, max_offers=3,
                   start_dow=4, initial_weekly_trips=[3, 12, 0]), 11,
              "44aaa74af7527dc5472968c5b1e8ad4cd75500070e1a8fb5709d9c6afdec87f5"),
    # Saturated fleet: rides often find every driver busy and are lost.
    "saturated": (dict(demand=0.5, driver_count=6, weeks=2, max_offers=2,
                       speed_kmh=12.0), 12,
                  "7e778541755d3e87cb91c2c1dc34a2300789ce83e0d48f27a4a43659703e2e71"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_episode_matches_golden_hash(name):
    kwargs, seed, expected = GOLDEN[name]
    log = run_episode(_config(**kwargs), _CoinAgent(),
                      np.random.default_rng(seed))
    assert log.offers
    assert log.lost_total > 0 or name != "saturated"
    assert episode_digest(log) == expected
