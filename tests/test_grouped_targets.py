"""Bootstrap targets computed a group of batches at a time.

Training computes the targets of up to `training._GROUP` batches in one
`bootstrap_targets` call. The reference run makes the same calls with every
`batch.targets` left `None`, so `train_step` computes each batch's targets
itself; both must leave the same agent bytes, losses and metrics, and a
target error must stop training at the batch that caused it.
"""

import os

import numpy as np
import pytest

from ridesim import training
from ridesim.agent import CategoricalQAgent, FeatureScales
from ridesim.training import (BcConfig, RlConfig,
                              build_agent_for_demonstrations, train_bc,
                              train_rl)
from helpers import loss_series, metric_series
from test_training_golden import RL_BUFFER, _demonstrations, _sim_config

pytestmark = pytest.mark.golden


def _agent(trajs, rng, sync_every=7):
    return build_agent_for_demonstrations(trajs, FeatureScales(), rng,
                                          hidden=(16, 12), atom_count=21,
                                          gamma=0.6, learning_rate=3e-3,
                                          sync_every=sync_every)


def _per_batch_targets(monkeypatch):
    """Make the reference run: `train_step` drops the grouped targets and
    computes each batch's own."""
    step = CategoricalQAgent.train_step
    monkeypatch.setattr(CategoricalQAgent, "train_step",
                        lambda agent, batch: step(
                            agent, batch._replace(targets=None)))


def _bc_then_rl(sync_every, batch_size):
    rng = np.random.default_rng(5)
    trajs = _demonstrations(rng)
    agent = _agent(trajs, rng, sync_every=sync_every)
    bc = train_bc(agent, trajs,
                  BcConfig(iterations=2, batch_size=batch_size), rng)
    rl = train_rl(agent, _sim_config(),
                  RlConfig(iterations=2, patience=5, batch_size=batch_size,
                           buffer_transitions=RL_BUFFER), rng)
    return (agent.to_lines(), loss_series(bc), metric_series(bc),
            loss_series(rl), metric_series(rl))


@pytest.mark.parametrize("batch_size", [2, 16])
@pytest.mark.parametrize("sync_every", [1, 4, 1000])
def test_grouped_targets_match_per_batch_targets(sync_every, batch_size,
                                                 monkeypatch):
    """Groups of one batch, groups cut short by a sync, and groups of eight
    cut short only by the end of an iteration's updates."""
    grouped = _bc_then_rl(sync_every, batch_size)
    with monkeypatch.context() as patch:
        _per_batch_targets(patch)
        assert _bc_then_rl(sync_every, batch_size) == grouped


def test_a_group_never_spans_a_target_sync(monkeypatch):
    """11 batches per iteration against syncs every 10 updates."""
    groups = []   # (updates so far, batches in the group)
    bootstrap = CategoricalQAgent.bootstrap_targets

    def recorded(agent, next_obs, reward, terminal):
        groups.append((agent.train_steps, len(reward) // 16))
        return bootstrap(agent, next_obs, reward, terminal)

    monkeypatch.setattr(CategoricalQAgent, "bootstrap_targets", recorded)
    rng = np.random.default_rng(2024)
    trajs = _demonstrations(rng)
    agent = _agent(trajs, rng, sync_every=10)
    train_bc(agent, trajs, BcConfig(iterations=3, batch_size=16), rng)
    assert sum(size for _, size in groups) == agent.train_steps
    assert max(size for _, size in groups) == training._GROUP
    for steps, size in groups:
        assert 1 <= size <= agent.sync_every - steps % agent.sync_every


def test_target_error_is_raised_before_any_update():
    rng = np.random.default_rng(2024)
    trajs = _demonstrations(rng)
    agent = _agent(trajs, rng)
    agent.target.flat[:] = np.nan
    before = agent.online.flat.copy()
    with pytest.raises(ValueError, match="NaN"):
        train_bc(agent, trajs, BcConfig(iterations=2, batch_size=16), rng)
    assert agent.train_steps == 0
    assert agent.online.flat.tobytes() == before.tobytes()


def test_target_error_mid_run_leaves_the_reference_agent(monkeypatch):
    """One successor observation is NaN: the batch that samples it fails
    before its update, after every earlier batch's update."""
    outcomes = []
    for reference in (False, True):
        with monkeypatch.context() as patch:
            if reference:
                _per_batch_targets(patch)
            rng = np.random.default_rng(2024)
            trajs = _demonstrations(rng)
            for traj in trajs:
                traj.transitions[3].next_obs = np.full(6, np.nan)
            agent = _agent(trajs, rng)
            with pytest.raises(ValueError, match="NaN"):
                train_bc(agent, trajs, BcConfig(iterations=3, batch_size=16),
                         rng)
            outcomes.append((agent.train_steps, agent.to_lines()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] > 0


def test_training_never_forks(monkeypatch):
    def refused():
        raise AssertionError("training forked a process")

    monkeypatch.setattr(os, "fork", refused)
    rng = np.random.default_rng(2024)
    trajs = _demonstrations(rng)
    agent = _agent(trajs, rng)
    train_bc(agent, trajs, BcConfig(iterations=2, batch_size=16), rng)
    train_rl(agent, _sim_config(),
             RlConfig(iterations=2, batch_size=16,
                      buffer_transitions=RL_BUFFER), rng)
    assert agent.train_steps > 0
