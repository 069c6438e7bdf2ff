import numpy as np
import pytest

from ridesim.agent import FeatureScales
from ridesim.distributions import TimeProfile, fit_empirical
from ridesim.ridegen import GridSpec
from ridesim.sim import (Action, PlatformParams, SimConfig, Trajectory,
                         Transition)
from ridesim.training import (BcConfig, RlConfig, TrainReport,
                              build_agent_for_demonstrations,
                              demonstration_rewards, reward_support, train_bc,
                              train_rl)


def make_trajectories(count, length, rng, accept_rule=None, reward_rule=None):
    """Hand-built demonstration set; rules see the observation."""
    trajs = []
    for d in range(count):
        transitions = []
        chain = []
        for _ in range(length):
            obs = np.array([abs(rng.normal()) * 3, rng.uniform(0, 10),
                            rng.uniform(0, 1440), rng.integers(0, 40),
                            abs(rng.normal()) * 4, rng.uniform(0, 120)])
            chain.append(obs)
        for i, obs in enumerate(chain):
            if accept_rule is None:
                action = Action.ACCEPT
            else:
                action = Action.ACCEPT if accept_rule(obs) else Action.REJECT
            if action == Action.REJECT:
                reward = 0.0
            elif reward_rule is None:
                reward = 0.5 + obs[1]
            else:
                reward = reward_rule(obs)
            last = i + 1 == len(chain)
            transitions.append(Transition(
                obs=obs, action=action,
                next_obs=obs if last else chain[i + 1],
                reward=reward, terminal=last))
        trajs.append(Trajectory(driver_id=f"d{d:02d}",
                                transitions=transitions))
    return trajs


class TestRewardSupport:
    def test_flatten_and_percentiles(self):
        rng = np.random.default_rng(0)
        trajs = make_trajectories(4, 25, rng)
        rewards = demonstration_rewards(trajs)
        assert rewards.shape == (100,)
        v_min, v_max = reward_support(trajs)
        assert v_min == pytest.approx(np.percentile(rewards, 1))
        assert v_max == pytest.approx(np.percentile(rewards, 99))
        assert v_min < v_max

    def test_degenerate_rewards_padded(self):
        rng = np.random.default_rng(1)
        trajs = make_trajectories(2, 5, rng, reward_rule=lambda obs: 3.0)
        assert reward_support(trajs) == (2.0, 4.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            demonstration_rewards([Trajectory(driver_id="a", transitions=[])])

    def test_agent_support_comes_from_demos(self):
        rng = np.random.default_rng(2)
        trajs = make_trajectories(3, 20, rng)
        agent = build_agent_for_demonstrations(trajs, FeatureScales(), rng,
                                               hidden=(8,), atom_count=5)
        v_min, v_max = reward_support(trajs)
        assert agent.v_min == pytest.approx(v_min)
        assert agent.v_max == pytest.approx(v_max)


class TestTrainBc:
    def test_uniform_acceptors_are_imitated(self):
        rng = np.random.default_rng(3)
        trajs = make_trajectories(12, 20, rng)
        agent = build_agent_for_demonstrations(trajs, FeatureScales(), rng,
                                               hidden=(16, 16), atom_count=21,
                                               learning_rate=3e-3)
        report = train_bc(agent, trajs, BcConfig(iterations=8, batch_size=32),
                          rng)
        assert report.phase == "bc"
        assert report.metric_name == "holdout_agreement"
        assert report.stop_reason == "max_iterations"
        assert report.best_metric >= 0.9
        assert len(report.iterations) == 8

    def test_stochastic_threshold_rule_recovered(self):
        # a soft trip-length rule leaves both actions observed near the
        # boundary, which is what lets offline value regression separate the
        # two heads; agreement should approach the rule's own noise ceiling
        rng = np.random.default_rng(4)

        def rule(obs):
            p = 1.0 / (1.0 + np.exp(-(obs[1] - 5.0)))
            return rng.random() < p

        trajs = make_trajectories(
            24, 25, rng, accept_rule=rule,
            reward_rule=lambda obs: (obs[1] - 5.0) * 20.0)
        agent = build_agent_for_demonstrations(trajs, FeatureScales(), rng,
                                               hidden=(16, 16), atom_count=21,
                                               learning_rate=3e-3)
        report = train_bc(agent, trajs,
                          BcConfig(iterations=40, batch_size=64), rng)
        assert report.best_metric >= 0.8
        assert report.iterations[-1].metric >= 0.7

    def test_deterministic_given_seeds(self):
        def run():
            rng = np.random.default_rng(5)
            trajs = make_trajectories(8, 15, rng)
            agent = build_agent_for_demonstrations(trajs, FeatureScales(),
                                                   rng, hidden=(8,),
                                                   atom_count=11)
            return train_bc(agent, trajs, BcConfig(iterations=4), rng)
        a, b = run(), run()
        assert a.loss_series() == b.loss_series()
        assert a.metric_series() == b.metric_series()

    def test_checkpoint_tracks_best(self, tmp_path):
        rng = np.random.default_rng(6)
        trajs = make_trajectories(8, 15, rng)
        agent = build_agent_for_demonstrations(trajs, FeatureScales(), rng,
                                               hidden=(8,), atom_count=11)
        path = tmp_path / "best.txt"
        report = train_bc(agent, trajs, BcConfig(iterations=5), rng,
                          checkpoint_path=path)
        assert path.exists()
        assert report.best_metric == max(report.metric_series())
        assert report.best_iteration == int(np.argmax(report.metric_series()))
        from ridesim.agent import CategoricalQAgent
        loaded = CategoricalQAgent.load(path)
        assert 0 < loaded.train_steps <= agent.train_steps

    def test_needs_two_trajectories(self):
        rng = np.random.default_rng(7)
        trajs = make_trajectories(1, 10, rng)
        agent = build_agent_for_demonstrations(trajs, FeatureScales(), rng,
                                               hidden=(8,), atom_count=11)
        with pytest.raises(ValueError, match="at least 2"):
            train_bc(agent, trajs, BcConfig(), rng)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BcConfig(iterations=0)
        with pytest.raises(ValueError):
            BcConfig(eval_fraction=1.0)
        with pytest.raises(ValueError):
            RlConfig(exploration=2.0)


class _StubAgent:
    """Minimal trainer-facing surface with a constant policy."""

    def __init__(self):
        self.epsilon = 0.0
        self.train_steps = 1
        self.saved = 0

    def decide(self, obs_batch, rng):
        return iter([Action.REJECT] * len(obs_batch))

    def train_step(self, batch):
        return 0.0

    def save(self, path):
        self.saved += 1
        with open(path, "w") as fh:
            fh.write("stub\n")


def tiny_sim_config():
    grid = GridSpec(width_km=10.0, height_km=10.0)
    flat = fit_empirical([2.0, 8.0])
    profile = TimeProfile(means=np.full((7, 1440), 0.01), scale_factor=1.0)
    return SimConfig(grid=grid, params=PlatformParams(),
                     pickup_x_dist=flat, pickup_y_dist=flat,
                     trip_distance_dist=fit_empirical([1.0, 4.0]),
                     time_profile=profile, driver_count=3, weeks=1)


class TestTrainRl:
    def test_cold_start_refused(self):
        rng = np.random.default_rng(8)
        trajs = make_trajectories(4, 10, rng)
        agent = build_agent_for_demonstrations(trajs, FeatureScales(), rng,
                                               hidden=(8,), atom_count=11)
        assert agent.train_steps == 0
        with pytest.raises(ValueError, match="cold_start"):
            train_rl(agent, tiny_sim_config(), RlConfig(iterations=1), rng)

    def test_allow_cold_start_runs(self):
        rng = np.random.default_rng(9)
        trajs = make_trajectories(4, 10, rng)
        agent = build_agent_for_demonstrations(trajs, FeatureScales(), rng,
                                               hidden=(8,), atom_count=11)
        report = train_rl(agent, tiny_sim_config(),
                          RlConfig(iterations=2, patience=5), rng,
                          allow_cold_start=True)
        assert report.phase == "rl"
        assert len(report.iterations) == 2
        assert agent.train_steps > 0
        assert agent.epsilon == 0.05

    def test_flat_reward_stops_early(self, tmp_path):
        # an always-rejecting policy earns exactly zero every episode, so
        # iteration 0 improves on -inf and everything after is stale
        agent = _StubAgent()
        config = RlConfig(iterations=20, patience=2)
        path = tmp_path / "rl.txt"
        report = train_rl(agent, tiny_sim_config(), config,
                          np.random.default_rng(10), checkpoint_path=path)
        assert report.stop_reason == "early_stop"
        assert len(report.iterations) == 4   # improve, then 3 stale
        assert report.best_iteration == 0
        assert report.best_metric == 0.0
        assert agent.saved == 1
        assert path.exists()

    def test_best_metric_tracks_episode_rewards(self):
        class _AcceptStub(_StubAgent):
            def decide(self, obs_batch, rng):
                return iter([Action.ACCEPT] * len(obs_batch))

        report = train_rl(_AcceptStub(), tiny_sim_config(),
                          RlConfig(iterations=3, patience=10),
                          np.random.default_rng(11))
        assert report.stop_reason in ("max_iterations", "early_stop")
        assert report.metric_series()
        assert report.best_metric == max(report.metric_series())
