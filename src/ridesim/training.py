"""Two-phase agent training.

Phase one learns from logged driver decisions alone: demonstration
transitions fill a replay buffer and the agent regresses their one-step
value distributions without ever touching the simulator. Phase two runs
whole simulated weeks with a small exploration rate, feeding fresh
transitions into the buffer. Both keep the weights of their best iteration
and stop early once their metric (holdout agreement, episode reward) stops
improving.

The targets of a minibatch depend only on its rows and on the target
weights, which stay fixed from one target sync to the next. So the updates
draw their batches a few at a time, never across a sync, and compute the
targets of those batches in one forward pass of the target network.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .agent import (CategoricalQAgent, FeatureScales, ReplayBuffer,
                    TransitionBatch)
from .sim import SimConfig, run_episode


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
        if self.buffer_transitions < 1:
            raise ValueError("buffer_transitions must be at least 1")


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

# Batches whose targets one `bootstrap_targets` call computes: one forward
# pass over their stacked rows costs less than one per batch.
_GROUP = 8


def _run_updates(agent: CategoricalQAgent, buffer: ReplayBuffer, count: int,
                 batch_size: int, rng: np.random.Generator) -> list:
    """`count` minibatch updates through `agent.train_step`; their losses.

    The batches are drawn in groups of up to `_GROUP` that never span a
    target sync, by the same `rng` calls in the same order as one at a
    time, and one `bootstrap_targets` call computes a group's targets. If
    that call raises, the group's batches go to `train_step` without
    targets, which raises the error again at the batch that caused it.
    """
    losses = []
    while len(losses) < count:
        size = min(_GROUP, count - len(losses),
                   agent.sync_every - agent.train_steps % agent.sync_every)
        group = [buffer.sample(batch_size, rng) for _ in range(size)]
        try:
            targets = np.split(agent.bootstrap_targets(
                *(np.concatenate([getattr(batch, name) for batch in group])
                  for name in ("next_obs", "reward", "terminal"))), size)
        except Exception:   # raised again by train_step, at its batch
            targets = [None] * size
        for batch, rows in zip(group, targets):
            losses.append(agent.train_step(batch._replace(targets=rows)))
    return losses


def _holdout_agreement(agent: CategoricalQAgent,
                       holdout: TransitionBatch) -> float:
    return float(np.mean(agent.greedy_actions(holdout.obs) == holdout.action))


def _train(agent: CategoricalQAgent, report: TrainReport,
           config: BcConfig | RlConfig, patience: int, run_iteration,
           save) -> TrainReport:
    """The loop both phases share. `run_iteration()` trains for one
    iteration and returns its (losses, metric). `save(agent)` is called at
    each new best metric, or once at the end when no iteration scored;
    `patience + 1` iterations in a row without an improvement end the run
    early."""
    stale = 0
    started = time.perf_counter()
    for iteration in range(config.iterations):
        losses, metric = run_iteration()
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

    def run_iteration():
        losses = _run_updates(agent, buffer, batches, config.batch_size, rng)
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

    def run_iteration():
        episode = run_episode(sim_config, agent, rng)
        buffer.extend(t for traj in episode.trajectories.values()
                      for t in traj.transitions)
        batches = max(1, len(buffer) // config.batch_size)
        losses = _run_updates(agent, buffer, batches, config.batch_size, rng)
        return losses, episode.total_reward

    return _train(agent, TrainReport("rl", "episode_reward"), config,
                  config.patience, run_iteration, save)
