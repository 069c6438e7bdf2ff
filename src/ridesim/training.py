"""Two-phase agent training.

Phase one learns from logged driver decisions alone: demonstration
transitions fill a replay buffer and the agent regresses their one-step
value distributions without ever touching the simulator. Phase two runs
whole simulated weeks with a small exploration rate, feeding fresh
transitions into the buffer, and stops early once the episode reward stops
improving.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .agent import (CategoricalQAgent, FeatureScales, ReplayBuffer,
                    TransitionBatch)
from .sim import Action, SimConfig, run_episode


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

    def loss_series(self) -> list:
        return [row.loss for row in self.iterations]

    def metric_series(self) -> list:
        return [row.metric for row in self.iterations]


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


def _holdout_agreement(agent: CategoricalQAgent,
                       holdout: TransitionBatch) -> float:
    return float(np.mean(agent.greedy_actions(holdout.obs) == holdout.action))


def train_bc(agent: CategoricalQAgent, trajectories, config: BcConfig,
             rng: np.random.Generator,
             checkpoint_path=None) -> TrainReport:
    """Offline training on demonstration transitions.

    A fraction of whole trajectories is held out; the rest fill the buffer
    (up to the configured trajectory budget). Each iteration samples one
    buffer's worth of minibatches and then scores action agreement on the
    held-out transitions. The checkpoint, when requested, tracks the best
    agreement seen. The simulator is never invoked here.
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

    report = TrainReport(phase="bc", metric_name="holdout_agreement")
    started = time.perf_counter()
    for iteration in range(config.iterations):
        losses = []
        for _ in range(batches):
            batch = buffer.sample(config.batch_size, rng)
            losses.append(agent.train_step(batch))
        agreement = _holdout_agreement(agent, holdout_batch)
        report.iterations.append(IterationStats(iteration=iteration,
                                                loss=float(np.mean(losses)),
                                                metric=agreement))
        if agreement > report.best_metric:
            report.best_metric = agreement
            report.best_iteration = iteration
            if checkpoint_path is not None:
                agent.save(checkpoint_path)
    report.stop_reason = "max_iterations"
    report.wall_clock_s = time.perf_counter() - started
    if checkpoint_path is not None and report.best_iteration < 0:
        agent.save(checkpoint_path)
    return report


def train_rl(agent: CategoricalQAgent, sim_config: SimConfig, config: RlConfig,
             rng: np.random.Generator, checkpoint_path=None,
             allow_cold_start: bool = False) -> TrainReport:
    """Simulator-in-the-loop refinement with early stopping.

    Each iteration collects one full episode at the configured exploration
    rate, appends its transitions to the replay buffer and runs one buffer
    pass of minibatch updates. The undiscounted episode reward is the
    improvement metric; `patience` non-improving iterations in a row stop
    the run. A cold agent is refused unless `allow_cold_start` is set.
    """
    if agent.train_steps == 0 and not allow_cold_start:
        raise ValueError("agent has no prior training; "
                         "pass allow_cold_start=True to train from scratch")
    buffer = ReplayBuffer(capacity=config.buffer_transitions)
    report = TrainReport(phase="rl", metric_name="episode_reward")
    agent.epsilon = config.exploration
    stale = 0
    started = time.perf_counter()
    for iteration in range(config.iterations):
        episode = run_episode(sim_config, agent, rng)
        buffer.extend(t for traj in episode.trajectories.values()
                      for t in traj.transitions)
        batches = max(1, len(buffer) // config.batch_size)
        losses = []
        for _ in range(batches):
            batch = buffer.sample(config.batch_size, rng)
            losses.append(agent.train_step(batch))
        metric = episode.total_reward
        report.iterations.append(IterationStats(iteration=iteration,
                                                loss=float(np.mean(losses)),
                                                metric=metric))
        if metric > report.best_metric:
            report.best_metric = metric
            report.best_iteration = iteration
            stale = 0
            if checkpoint_path is not None:
                agent.save(checkpoint_path)
        else:
            stale += 1
            if stale > config.patience:
                report.stop_reason = "early_stop"
                break
    if not report.stop_reason:
        report.stop_reason = "max_iterations"
    report.wall_clock_s = time.perf_counter() - started
    if checkpoint_path is not None and report.best_iteration < 0:
        agent.save(checkpoint_path)
    return report
