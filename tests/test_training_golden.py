"""Golden output of a short imitation run followed by a short RL run.

The hashes pin every learner byte: minibatch contents and order, the target
projection, the gradients, the Adam arithmetic and target syncs. The RL
buffer is small enough that the first episode already wraps it. The BC
hash was recorded before the learner moved to array storage; the RL hash
was re-recorded when episodes split their draws into placement, demand and
decision generators. Neither may be updated to fit a change that is meant
to keep outputs identical.
"""

import hashlib

import numpy as np

from ridesim.agent import FeatureScales, ReplayBuffer
from ridesim.distributions import TimeProfile, fit_empirical
from ridesim.ridegen import GridSpec
from ridesim.sim import (Action, PlatformParams, SimConfig, Trajectory,
                         Transition)
from ridesim.training import (BcConfig, RlConfig,
                              build_agent_for_demonstrations, train_bc,
                              train_rl)

BC_GOLDEN = "8914f7c2e19fe55c5fc8f0409e35b3a1478efa2075f0a7b216ffc946a3f13e13"
RL_GOLDEN = "9911ed0131310d598c470281aa9d879f859695d04099e897e2cb33d17def5a38"
RL_BUFFER = 40


def _demonstrations(rng, drivers=10, length=20):
    """Drivers who accept longer trips more often; reward grows with trip."""
    trajs = []
    for d in range(drivers):
        chain = [np.array([abs(rng.normal()) * 3, rng.uniform(0, 10),
                           rng.uniform(0, 1440), rng.integers(0, 40),
                           abs(rng.normal()) * 4, rng.uniform(0, 120)])
                 for _ in range(length)]
        transitions = []
        for i, obs in enumerate(chain):
            accept = rng.random() < 1.0 / (1.0 + np.exp(-(obs[1] - 5.0)))
            last = i + 1 == length
            transitions.append(Transition(
                obs=obs, action=Action.ACCEPT if accept else Action.REJECT,
                next_obs=obs if last else chain[i + 1],
                reward=(obs[1] - 4.0) * 3.0 if accept else 0.0,
                terminal=last))
        trajs.append(Trajectory(driver_id=f"d{d:02d}", transitions=transitions))
    return trajs


def _sim_config():
    profile = TimeProfile(means=np.full((7, 1440), 0.02), scale_factor=1.0)
    return SimConfig(grid=GridSpec(width_km=10.0, height_km=8.0),
                     params=PlatformParams(),
                     pickup_x_dist=fit_empirical([0.5, 2.0, 3.5, 6.0, 9.5]),
                     pickup_y_dist=fit_empirical([1.0, 4.0, 4.5, 7.5]),
                     trip_distance_dist=fit_empirical([0.5, 1.5, 3.0, 6.0]),
                     time_profile=profile, driver_count=4, weeks=1,
                     max_offers=3)


def _digest(agent, report) -> str:
    h = hashlib.sha256()
    for line in agent.to_lines():
        h.update(line.encode() + b"\n")
    for row in report.iterations:
        h.update(f"{row.iteration} {row.loss!r} {row.metric!r}\n".encode())
    return h.hexdigest()


def test_bc_then_rl_match_golden_hashes(monkeypatch):
    rng = np.random.default_rng(2024)
    trajs = _demonstrations(rng)
    agent = build_agent_for_demonstrations(trajs, FeatureScales(), rng,
                                           hidden=(16, 12), atom_count=21,
                                           gamma=0.6, learning_rate=3e-3,
                                           sync_every=7)
    bc = train_bc(agent, trajs, BcConfig(iterations=3, batch_size=16), rng)
    assert _digest(agent, bc) == BC_GOLDEN

    extended = []
    extend = ReplayBuffer.extend

    def counted(buffer, transitions):
        transitions = list(transitions)
        extended.append(len(transitions))
        return extend(buffer, transitions)

    monkeypatch.setattr(ReplayBuffer, "extend", counted)
    rl = train_rl(agent, _sim_config(),
                  RlConfig(iterations=3, patience=5, batch_size=16,
                           buffer_transitions=RL_BUFFER), rng)
    assert sum(extended) > 2 * RL_BUFFER    # the buffer wraps
    assert len(rl.iterations) == 3
    assert _digest(agent, rl) == RL_GOLDEN
