"""The two ways training computes its bootstrap targets.

With a second CPU the targets come from a forked helper process; without
one `train_step` computes them itself. Both must leave every agent byte and
every reported loss and metric as the golden run recorded them, and a
helper that fails or dies must stop the training call rather than hang it.
"""

import os
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from ridesim import training
from ridesim.agent import CategoricalQAgent, FeatureScales
from ridesim.training import (BcConfig, RlConfig,
                              build_agent_for_demonstrations, train_bc,
                              train_rl)
from helpers import (kill_forked_child_at_third_update, loss_series,
                     metric_series)
from test_training_golden import (BC_GOLDEN, RL_BUFFER, RL_GOLDEN, _digest,
                                  _demonstrations, _sim_config)

pytestmark = [pytest.mark.golden,
              pytest.mark.skipif(not hasattr(os, "fork"),
                                 reason="the target helper is forked")]

PATHS = {"helper": True, "in_process": False}


@pytest.fixture(params=sorted(PATHS))
def path(request, monkeypatch):
    """Force one target path, and count target computations made here.
    Afterwards no child process is left and this process's CPUs are as
    before."""
    monkeypatch.setattr(training, "usable_cpus",
                        lambda: 2 if PATHS[request.param] else 1)
    calls = []
    bootstrap = CategoricalQAgent.bootstrap_targets

    def counted(agent, *rows):
        calls.append(os.getpid())
        return bootstrap(agent, *rows)

    monkeypatch.setattr(CategoricalQAgent, "bootstrap_targets", counted)
    cpus = os.sched_getaffinity(0)
    yield request.param, calls
    _assert_no_child()
    assert os.sched_getaffinity(0) == cpus


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _agent(trajs, rng, sync_every=7):
    return build_agent_for_demonstrations(trajs, FeatureScales(), rng,
                                          hidden=(16, 12), atom_count=21,
                                          gamma=0.6, learning_rate=3e-3,
                                          sync_every=sync_every)


def test_both_paths_match_the_golden_hashes(path):
    """11 BC batches per iteration against syncs every 7 updates, then an
    RL buffer that wraps in its first episode."""
    name, calls = path
    rng = np.random.default_rng(2024)
    trajs = _demonstrations(rng)
    agent = _agent(trajs, rng)
    bc = train_bc(agent, trajs, BcConfig(iterations=3, batch_size=16), rng)
    assert _digest(agent, bc) == BC_GOLDEN
    rl = train_rl(agent, _sim_config(),
                  RlConfig(iterations=3, patience=5, batch_size=16,
                           buffer_transitions=RL_BUFFER), rng)
    assert _digest(agent, rl) == RL_GOLDEN
    # Targets computed in the helper are counted in its own memory only.
    assert (len(calls) == 0) == (name == "helper")


@pytest.mark.parametrize("sync_every", [1, 4, 1000])
def test_paths_agree_for_any_sync_period(sync_every, monkeypatch):
    """Windows of one batch, of exactly one message, and a whole iteration."""
    runs = {}
    for name, helper in PATHS.items():
        monkeypatch.setattr(training, "usable_cpus",
                            lambda: 2 if helper else 1)
        rng = np.random.default_rng(5)
        trajs = _demonstrations(rng)
        agent = _agent(trajs, rng, sync_every=sync_every)
        bc = train_bc(agent, trajs, BcConfig(iterations=2, batch_size=16), rng)
        rl = train_rl(agent, _sim_config(),
                      RlConfig(iterations=2, patience=5, batch_size=8,
                               buffer_transitions=RL_BUFFER), rng)
        runs[name] = (agent.to_lines(), loss_series(bc), metric_series(bc),
                      loss_series(rl), metric_series(rl))
    assert runs["helper"] == runs["in_process"]


def test_target_error_is_raised_before_any_update(path):
    rng = np.random.default_rng(2024)
    trajs = _demonstrations(rng)
    agent = _agent(trajs, rng)
    agent.target.flat[:] = np.nan
    before = agent.online.flat.copy()
    with pytest.raises(ValueError, match="NaN"):
        train_bc(agent, trajs, BcConfig(iterations=2, batch_size=16), rng)
    assert agent.train_steps == 0
    assert agent.online.flat.tobytes() == before.tobytes()


def test_target_error_mid_run_leaves_the_same_agent_on_both_paths(monkeypatch):
    """One successor observation is NaN: the batch that samples it fails
    before its update, after every earlier batch's update."""
    outcomes = {}
    for name, helper in PATHS.items():
        monkeypatch.setattr(training, "usable_cpus",
                            lambda: 2 if helper else 1)
        rng = np.random.default_rng(2024)
        trajs = _demonstrations(rng)
        for traj in trajs:
            traj.transitions[3].next_obs = np.full(6, np.nan)
        agent = _agent(trajs, rng)
        with pytest.raises(ValueError, match="NaN"):
            train_bc(agent, trajs, BcConfig(iterations=3, batch_size=16), rng)
        outcomes[name] = (agent.train_steps, agent.to_lines())
        _assert_no_child()
    assert outcomes["helper"] == outcomes["in_process"]
    assert outcomes["helper"][0] > 0


@contextmanager
def _deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_killed_helper_makes_training_raise(monkeypatch):
    monkeypatch.setattr(training, "usable_cpus", lambda: 2)
    kill_forked_child_at_third_update(monkeypatch)
    rng = np.random.default_rng(2024)
    trajs = _demonstrations(rng)
    agent = _agent(trajs, rng)
    with _deadline(30), pytest.raises(ChildProcessError, match="helper"):
        train_bc(agent, trajs, BcConfig(iterations=3, batch_size=16), rng)
    _assert_no_child()
