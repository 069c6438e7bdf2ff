"""Two-phase agent training.

Phase one learns from logged driver decisions alone: demonstration
transitions fill a replay buffer and the agent regresses their one-step
value distributions without ever touching the simulator. Phase two runs
whole simulated weeks with a small exploration rate, feeding fresh
transitions into the buffer. Both keep the weights of their best iteration
and stop early once their metric (holdout agreement, episode reward) stops
improving.

The targets of a minibatch depend only on its rows and on the target
weights, which stay fixed from one target sync to the next. So on Linux
with a second CPU, each training call forks a helper process that computes
them a few batches ahead while this process runs the updates: the batches
of a window, which runs from one sync to the next or to the end of an
iteration's updates, are all drawn before its first update. Elsewhere
`train_step` computes them itself. The results are bitwise the same either
way.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import signal
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .agent import (CategoricalQAgent, FeatureScales, ReplayBuffer,
                    TransitionBatch)
from .sim import OBS_DIM, SimConfig, run_episode


@dataclass
class BcConfig:
    iterations: int = 150
    buffer_trajectories: int = 1000
    batch_size: int = 64
    eval_fraction: float = 0.1

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.buffer_trajectories < 1:
            raise ValueError("buffer_trajectories must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not (0.0 < self.eval_fraction < 1.0):
            raise ValueError("eval_fraction must lie in (0, 1)")


@dataclass
class RlConfig:
    iterations: int = 50
    exploration: float = 0.05
    patience: int = 5
    batch_size: int = 64
    buffer_transitions: int = 50_000

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if not (0.0 <= self.exploration <= 1.0):
            raise ValueError("exploration must lie in [0, 1]")
        if self.patience < 0:
            raise ValueError("patience must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


@dataclass
class IterationStats:
    iteration: int
    loss: float
    metric: float


@dataclass
class TrainReport:
    phase: str
    metric_name: str
    iterations: list = field(default_factory=list)  # IterationStats
    best_iteration: int = -1
    best_metric: float = float("-inf")
    stop_reason: str = ""
    wall_clock_s: float = 0.0


def demonstration_rewards(trajectories) -> np.ndarray:
    rewards = [t.reward for traj in trajectories for t in traj.transitions]
    if not rewards:
        raise ValueError("no demonstration transitions")
    return np.array(rewards, dtype=float)


def reward_support(trajectories, low_pct: float = 1.0,
                   high_pct: float = 99.0) -> tuple[float, float]:
    """Value support bounds from the demonstration reward tails.

    Data-driven bounds keep the projected mass on-grid for the rewards the
    agent will actually see. A degenerate reward set widens by one unit each
    way so the support stays a proper interval.
    """
    rewards = demonstration_rewards(trajectories)
    v_min = float(np.percentile(rewards, low_pct))
    v_max = float(np.percentile(rewards, high_pct))
    if v_min >= v_max:
        v_min -= 1.0
        v_max += 1.0
    return v_min, v_max


def build_agent_for_demonstrations(trajectories, scales: FeatureScales,
                                   rng: np.random.Generator,
                                   **agent_kwargs) -> CategoricalQAgent:
    v_min, v_max = reward_support(trajectories)
    return CategoricalQAgent.create(scales, v_min, v_max, rng, **agent_kwargs)


# Stale BC iterations in a row that a run tolerates; one more ends it.
BC_PATIENCE = 12

_AHEAD = 8   # batch slots in the target helper's ring: how far it runs ahead


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set on Linux, else 1."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


def _shared_array(shape, dtype=float) -> np.ndarray:
    """A zeroed array in anonymous shared memory, shared with forked children."""
    count = int(np.prod(shape))
    memory = mmap.mmap(-1, count * np.dtype(dtype).itemsize)
    return np.frombuffer(memory, dtype=dtype, count=count).reshape(shape)


class _TargetHelper:
    """A forked process computing batch targets for one training call.

    The target weights, which the helper's target network views, and a ring
    of `_AHEAD` batch slots live in shared memory; each pipe carries one
    byte per batch, so neither side can block on a full pipe. Request i asks
    for the targets of slot i % `_AHEAD`; the reply is b"k", or b"e" when
    the targets raised. The weights are written only as `with_targets`
    starts, when every request is answered (a window left part-way ends
    the training call).
    """

    def __init__(self, agent: CategoricalQAgent, batch_size: int):
        self.weights = _shared_array(agent.target.flat.shape)
        self.next_obs = _shared_array((_AHEAD, batch_size, OBS_DIM))
        self.reward = _shared_array((_AHEAD, batch_size))
        self.terminal = _shared_array((_AHEAD, batch_size), bool)
        self.targets = _shared_array((_AHEAD, batch_size, agent.atoms.size))
        self.requested = 0
        request_fd, self.request_fd = os.pipe()
        self.reply_fd, reply_fd = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            self._serve(agent, request_fd, reply_fd)
        os.close(request_fd)
        os.close(reply_fd)

    def _serve(self, agent: CategoricalQAgent, request_fd: int,
               reply_fd: int) -> None:
        """The helper: a reply to each request until the trainer's end
        closes, then an exit that skips the parent's handlers."""
        try:
            os.close(self.request_fd)
            os.close(self.reply_fd)
            agent.target = nn.Mlp(agent.target.layer_dims, self.weights)
            served = 0
            while os.read(request_fd, 1):
                slot = served % _AHEAD
                try:
                    self.targets[slot] = agent.bootstrap_targets(
                        self.next_obs[slot], self.reward[slot],
                        self.terminal[slot])
                    reply = b"k"
                except Exception:   # raised again by the trainer
                    reply = b"e"
                os.write(reply_fd, reply)
                served += 1
        finally:
            os._exit(0)

    def _died(self) -> ChildProcessError:
        return ChildProcessError(f"target helper process {self.pid} died")

    def _request(self, batch: TransitionBatch) -> None:
        slot = self.requested % _AHEAD
        self.next_obs[slot] = batch.next_obs
        self.reward[slot] = batch.reward
        self.terminal[slot] = batch.terminal
        try:
            os.write(self.request_fd, b"r")
        except BrokenPipeError:
            raise self._died() from None
        self.requested += 1

    def with_targets(self, agent: CategoricalQAgent, batches: list):
        """Yield `batches` in order with their targets set, from the current
        target weights. A batch whose targets raised in the helper comes
        without them, so `train_step` computes them here and raises the
        same error before its update."""
        self.weights[...] = agent.target.flat
        first = self.requested
        for batch in batches[:_AHEAD]:
            self._request(batch)
        for i, batch in enumerate(batches):
            reply = os.read(self.reply_fd, 1)
            if not reply:
                raise self._died()
            if reply == b"k":
                batch = batch._replace(
                    targets=self.targets[(first + i) % _AHEAD])
            yield batch
            if i + _AHEAD < len(batches):   # its slot was just trained on
                self._request(batches[i + _AHEAD])

    def close(self) -> None:
        os.close(self.request_fd)
        os.close(self.reply_fd)
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


def _run_updates(agent: CategoricalQAgent, buffer: ReplayBuffer, count: int,
                 batch_size: int, rng: np.random.Generator,
                 helper: _TargetHelper | None) -> list:
    """`count` minibatch updates through `agent.train_step`; their losses.

    Without a helper each batch is drawn right before its update. With one,
    a window's batches are all drawn before its first update, by the same
    `rng` calls in the same order.
    """
    losses = []
    while len(losses) < count:
        window = count - len(losses)
        if helper is not None:   # its targets use the window's first weights
            window = min(window, agent.sync_every
                         - agent.train_steps % agent.sync_every)
        batches = (buffer.sample(batch_size, rng) for _ in range(window))
        if helper is not None:
            batches = helper.with_targets(agent, list(batches))
        for batch in batches:
            losses.append(agent.train_step(batch))
    return losses


def _holdout_agreement(agent: CategoricalQAgent,
                       holdout: TransitionBatch) -> float:
    return float(np.mean(agent.greedy_actions(holdout.obs) == holdout.action))


def _train(agent: CategoricalQAgent, report: TrainReport,
           config: BcConfig | RlConfig, patience: int, run_iteration,
           save) -> TrainReport:
    """The loop both phases share. `run_iteration(helper)` trains for one
    iteration and returns its (losses, metric). `save(agent)` is called at
    each new best metric, or once at the end when no iteration scored;
    `patience + 1` iterations in a row without an improvement end the run
    early. A target helper, when there is a second CPU for it, lives for
    this call only."""
    stale = 0
    started = time.perf_counter()
    forks = isinstance(agent, CategoricalQAgent) and usable_cpus() >= 2
    with (contextlib.closing(_TargetHelper(agent, config.batch_size))
          if forks else contextlib.nullcontext()) as helper:
        for iteration in range(config.iterations):
            losses, metric = run_iteration(helper)
            report.iterations.append(IterationStats(
                iteration=iteration, loss=float(np.mean(losses)),
                metric=metric))
            if metric > report.best_metric:
                report.best_metric = metric
                report.best_iteration = iteration
                stale = 0
                save(agent)
            else:
                stale += 1
                if stale > patience:
                    report.stop_reason = "early_stop"
                    break
    report.stop_reason = report.stop_reason or "max_iterations"
    report.wall_clock_s = time.perf_counter() - started
    if report.best_iteration < 0:
        save(agent)
    return report


def train_bc(agent: CategoricalQAgent, trajectories, config: BcConfig,
             rng: np.random.Generator,
             save=lambda agent: None) -> TrainReport:
    """Offline training on demonstration transitions.

    A fraction of whole trajectories is held out; the rest fill the buffer
    (up to the configured trajectory budget). Each iteration samples one
    buffer's worth of minibatches and then scores action agreement on the
    held-out transitions, the improvement metric; more than `BC_PATIENCE`
    non-improving iterations in a row stop the run. The simulator is never
    invoked here.
    """
    trajs = sorted(trajectories, key=lambda t: str(t.driver_id))
    if len(trajs) < 2:
        raise ValueError("need at least 2 trajectories to hold one out")
    order = rng.permutation(len(trajs))
    holdout_n = max(1, int(round(len(trajs) * config.eval_fraction)))
    if holdout_n >= len(trajs):
        holdout_n = len(trajs) - 1
    holdout = [trajs[i] for i in order[:holdout_n]]
    train = [trajs[i] for i in order[holdout_n:]]
    train = train[:config.buffer_trajectories]

    train_transitions = [t for traj in train for t in traj.transitions]
    holdout_transitions = [t for traj in holdout for t in traj.transitions]
    if not train_transitions or not holdout_transitions:
        raise ValueError("demonstrations contain empty trajectories")

    buffer = ReplayBuffer(capacity=len(train_transitions))
    buffer.extend(train_transitions)
    holdout_batch = TransitionBatch.of(holdout_transitions)
    batches = max(1, len(buffer) // config.batch_size)

    def run_iteration(helper):
        losses = _run_updates(agent, buffer, batches, config.batch_size, rng,
                              helper)
        return losses, _holdout_agreement(agent, holdout_batch)

    return _train(agent, TrainReport("bc", "holdout_agreement"), config,
                  BC_PATIENCE, run_iteration, save)


def train_rl(agent: CategoricalQAgent, sim_config: SimConfig, config: RlConfig,
             rng: np.random.Generator, save=lambda agent: None,
             allow_cold_start: bool = False) -> TrainReport:
    """Simulator-in-the-loop refinement with early stopping.

    Each iteration collects one full episode at the configured exploration
    rate, appends its transitions to the replay buffer and runs one buffer
    pass of minibatch updates. The undiscounted episode reward is the
    improvement metric; more than `patience` non-improving iterations in a
    row stop the run. A cold agent is refused unless `allow_cold_start` is set.
    """
    if agent.train_steps == 0 and not allow_cold_start:
        raise ValueError("agent has no prior training; "
                         "pass allow_cold_start=True to train from scratch")
    buffer = ReplayBuffer(capacity=config.buffer_transitions)
    agent.epsilon = config.exploration

    def run_iteration(helper):
        episode = run_episode(sim_config, agent, rng)
        buffer.extend(t for traj in episode.trajectories.values()
                      for t in traj.transitions)
        batches = max(1, len(buffer) // config.batch_size)
        losses = _run_updates(agent, buffer, batches, config.batch_size, rng,
                              helper)
        return losses, episode.total_reward

    return _train(agent, TrainReport("rl", "episode_reward"), config,
                  config.patience, run_iteration, save)
