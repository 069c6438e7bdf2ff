import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collections import deque

from helpers import (project_target, q_values, tabular_q_update,
                     value_distribution)
from ridesim.agent import (AGENT_HEADER_KEYS, CategoricalQAgent,
                           FeatureScales, ReplayBuffer, TransitionBatch,
                           expected_q, project_target_batch)
from ridesim.nn import checkpoint_lines, loss_and_grad_batch
from ridesim.ridegen import GridSpec
from ridesim.sim import Action, Transition


def test_tabular_update_fixture():
    assert tabular_q_update(0.0, 0.5, 1.0, 0.9, 2.0) == 1.4


def test_tabular_update_converges_to_return():
    q = 0.0
    for _ in range(500):
        q = tabular_q_update(q, 0.5, 1.0, 0.9, q)
    assert q == pytest.approx(10.0, abs=1e-6)


class TestFeatureScales:
    def test_grid_sets_drop_center_scale(self):
        grid = GridSpec(width_km=6.0, height_km=8.0)
        scales = FeatureScales.for_grid(grid)
        assert scales.drop_center_km == pytest.approx(5.0)
        assert scales.minute_of_day == 1440.0

    def test_overrides_win(self):
        grid = GridSpec(width_km=6.0, height_km=8.0)
        scales = FeatureScales.for_grid(grid, idle_minutes=60.0)
        assert scales.idle_minutes == 60.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FeatureScales(pickup_km=0.0)


def tr(reward=1.0, terminal=False):
    obs = np.arange(6, dtype=float)
    return Transition(obs=obs, action=Action.ACCEPT, next_obs=obs + 1,
                      reward=reward, terminal=terminal)


def random_transitions(rng, count):
    out = []
    for _ in range(count):
        obs = rng.normal(size=6)
        out.append(Transition(obs=obs, action=Action(int(rng.integers(2))),
                              next_obs=rng.normal(size=6),
                              reward=float(rng.normal()),
                              terminal=bool(rng.random() < 0.2)))
    return out


def assert_batch_is(batch, transitions):
    want = TransitionBatch.of(transitions)
    for got, expected in zip(batch[:5], want[:5]):   # the five columns
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=3)
        for r in range(5):
            buf.extend([tr(reward=float(r))])
        assert len(buf) == 3
        # rows 0 and 1 were overwritten by the 4th and 5th transitions
        assert buf.reward.tolist() == [3.0, 4.0, 2.0]

    def test_sample_with_replacement(self):
        buf = ReplayBuffer(capacity=10)
        buf.extend([tr()])
        out = buf.sample(5, np.random.default_rng(0))
        assert isinstance(out, TransitionBatch)
        assert out.obs.shape == (5, 6) and len(out.reward) == 5

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            ReplayBuffer(4).sample(1, np.random.default_rng(0))

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0)

    @pytest.mark.parametrize("capacity", [1, 5, 7, 32])
    def test_matches_a_deque_across_wraparound(self, capacity):
        """Same rows in the same order as a deque(maxlen) sampled with the
        same generator, through chunks shorter and longer than the ring."""
        rng = np.random.default_rng(capacity)
        buf, ref = ReplayBuffer(capacity), deque(maxlen=capacity)
        ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
        for size in (3, 1, capacity, 2 * capacity + 1, 0, 4, capacity - 1):
            chunk = random_transitions(rng, size)
            buf.extend(chunk)
            ref.extend(chunk)
            assert len(buf) == len(ref)
            if ref:
                batch = buf.sample(11, ours)
                idx = theirs.integers(0, len(ref), size=11)
                assert_batch_is(batch, [ref[i] for i in idx])

    def test_extend_accepts_a_generator(self):
        items = random_transitions(np.random.default_rng(1), 6)
        buf = ReplayBuffer(4)
        buf.extend(t for t in items)
        assert_batch_is(buf.sample(8, np.random.default_rng(2)),
                        [items[2:][i] for i in
                         np.random.default_rng(2).integers(0, 4, size=8)])

    def test_batch_of_an_empty_list_is_empty(self):
        batch = TransitionBatch.of([])
        assert batch.obs.shape == (0, 6) and batch.next_obs.shape == (0, 6)
        assert all(len(column) == 0 for column in batch[:5])
        assert batch.targets is None


def project_reference(probs, reward, gamma, atoms):
    """Scalar-loop oracle for the vectorized projection."""
    k = len(atoms)
    v_min, v_max = atoms[0], atoms[-1]
    dz = (v_max - v_min) / (k - 1)
    out = np.zeros(k)
    for p, z in zip(probs, atoms):
        point = min(max(reward + gamma * z, v_min), v_max)
        pos = (point - v_min) / dz
        lo = int(np.floor(pos))
        hi = min(lo + 1, k - 1)
        frac = pos - lo
        out[lo] += p * (1.0 - frac)
        out[hi] += p * frac
    return out


def project_add_at(probs, rewards, gammas, atoms):
    """The two-`np.add.at` projection the bincount form replaced."""
    batch, k = probs.shape
    v_min, v_max = float(atoms[0]), float(atoms[-1])
    dz = (v_max - v_min) / (k - 1)
    shifted = np.clip(rewards[:, None] + gammas[:, None] * atoms[None, :],
                      v_min, v_max)
    pos = (shifted - v_min) / dz
    lower = np.floor(pos).astype(int)
    upper = np.minimum(lower + 1, k - 1)
    frac = pos - lower
    out = np.zeros_like(probs)
    rows = np.repeat(np.arange(batch), k)
    np.add.at(out, (rows, lower.ravel()), (probs * (1.0 - frac)).ravel())
    np.add.at(out, (rows, upper.ravel()), (probs * frac).ravel())
    return out


class TestProjection:
    def test_bitwise_equal_to_add_at(self):
        rng = np.random.default_rng(31)
        for case in range(200):
            batch, k = int(rng.integers(1, 70)), int(rng.integers(2, 60))
            atoms = np.linspace(float(rng.uniform(-30, 0)),
                                float(rng.uniform(0.5, 40)), k)
            probs = rng.dirichlet(np.ones(k) * rng.uniform(0.05, 3), size=batch)
            span = atoms[-1] - atoms[0]
            # far outside the support on both sides: clamped to the edges
            rewards = rng.uniform(atoms[0] - 2 * span, atoms[-1] + 2 * span,
                                  size=batch)
            gammas = np.where(rng.random(batch) < 0.3, 0.0,
                              rng.uniform(0.0, 0.99, size=batch))
            if case % 3 == 0:
                # gamma 0 puts every atom's mass exactly on an atom
                rewards = atoms[rng.integers(0, k, size=batch)]
                gammas[:] = 0.0
            got = project_target_batch(probs, rewards, gammas, atoms)
            want = project_add_at(probs, rewards, gammas, atoms)
            assert got.tobytes() == want.tobytes(), case

    def test_midpoint_split_fixture(self):
        atoms = np.array([-1.0, 0.0, 1.0])
        probs = np.array([0.0, 1.0, 0.0])
        out = project_target(probs, reward=0.5, gamma=1.0, atoms=atoms)
        np.testing.assert_allclose(out, [0.0, 0.5, 0.5], atol=1e-12)

    def test_exact_atom_mass_stays_put(self):
        atoms = np.array([-1.0, 0.0, 1.0])
        out = project_target(np.array([0.2, 0.3, 0.5]), reward=0.0,
                             gamma=1.0, atoms=atoms)
        np.testing.assert_allclose(out, [0.2, 0.3, 0.5], atol=1e-12)

    def test_clipping_piles_on_edges(self):
        atoms = np.array([-1.0, 0.0, 1.0])
        out = project_target(np.array([0.5, 0.0, 0.5]), reward=10.0,
                             gamma=1.0, atoms=atoms)
        np.testing.assert_allclose(out, [0.0, 0.0, 1.0], atol=1e-12)

    def test_terminal_collapses_to_reward_point(self):
        atoms = np.linspace(-2.0, 2.0, 5)
        out = project_target(np.full(5, 0.2), reward=0.5, gamma=0.0,
                             atoms=atoms)
        np.testing.assert_allclose(out, [0.0, 0.0, 0.5, 0.5, 0.0], atol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            k = int(rng.integers(2, 12))
            atoms = np.linspace(float(rng.uniform(-10, 0)),
                                float(rng.uniform(0.5, 10)), k)
            probs = rng.dirichlet(np.ones(k))
            reward = float(rng.uniform(-15, 15))
            gamma = float(rng.uniform(0, 1))
            got = project_target(probs, reward, gamma, atoms)
            want = project_reference(probs, reward, gamma, atoms)
            np.testing.assert_allclose(got, want, atol=1e-9)

    @given(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=8),
           st.floats(-50.0, 50.0), st.floats(0.0, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_mass_conserved(self, raw, reward, gamma):
        probs = np.array(raw) / sum(raw)
        atoms = np.linspace(-5.0, 5.0, len(raw))
        out = project_target(probs, reward, gamma, atoms)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(out >= -1e-12)

    def test_batch_matches_single(self):
        atoms = np.linspace(-1.0, 3.0, 7)
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(7), size=4)
        rewards = rng.uniform(-2, 2, size=4)
        gammas = np.array([0.9, 0.0, 0.5, 0.99])
        batched = project_target_batch(probs, rewards, gammas, atoms)
        for i in range(4):
            single = project_target(probs[i], rewards[i], gammas[i], atoms)
            np.testing.assert_allclose(batched[i], single, atol=1e-12)

    def test_invalid_distribution_rejected(self):
        atoms = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            project_target(np.array([0.7, 0.7]), 0.0, 0.9, atoms)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mass_rejected(self, bad):
        atoms = np.linspace(-1.0, 1.0, 5)
        probs = np.array([[bad, 0.5, 0.5, 0.0, 0.0]])
        with pytest.raises(ValueError):
            project_target_batch(probs, np.zeros(1), np.full(1, 0.9), atoms)


def test_expected_q_fixture():
    probs = np.array([0.2, 0.3, 0.5])
    atoms = np.array([-1.0, 0.0, 1.0])
    assert expected_q(probs, atoms) == pytest.approx(0.3, abs=1e-12)


def test_expected_q_broadcasts():
    probs = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
    atoms = np.array([-1.0, 0.0, 1.0])
    np.testing.assert_allclose(expected_q(probs, atoms), [0.3, -1.0])


@pytest.fixture
def scales():
    return FeatureScales()


def make_agent(scales, seed=0, **kwargs):
    return CategoricalQAgent.create(scales, v_min=-5.0, v_max=5.0,
                                    rng=np.random.default_rng(seed),
                                    hidden=(8, 8), atom_count=11, **kwargs)


class TestCategoricalQAgent:
    def test_create_shapes(self, scales):
        agent = make_agent(scales)
        assert agent.online.layer_dims == [6, 8, 8, 22]
        assert agent.atoms.size == 11
        assert agent.v_min == -5.0 and agent.v_max == 5.0
        dist = value_distribution(agent, np.zeros(6))
        assert dist.shape == (2, 11)
        np.testing.assert_allclose(dist.sum(axis=1), 1.0, atol=1e-12)

    def test_exact_tie_prefers_accept(self, scales):
        agent = make_agent(scales, epsilon=0.0)
        # identical logits for both actions force an exact tie
        for w in agent.online.weights:
            w[:] = 0.0
        obs = np.ones(6)
        decisions = agent.decide(obs[None], np.random.default_rng(0))
        assert next(decisions) == Action.ACCEPT
        assert agent.greedy_actions(obs[None, :])[0] == int(Action.ACCEPT)

    def test_full_exploration_hits_both_actions(self, scales):
        agent = make_agent(scales, epsilon=1.0)
        rng = np.random.default_rng(5)
        actions = {next(agent.decide(np.zeros((1, 6)), rng)) for _ in range(50)}
        assert actions == {Action.REJECT, Action.ACCEPT}

    def test_greedy_matches_act_when_exploit(self, scales):
        agent = make_agent(scales, epsilon=0.0, seed=6)
        rng = np.random.default_rng(0)
        obs = np.abs(np.random.default_rng(7).normal(size=(20, 6)))
        batch = agent.greedy_actions(obs)
        singles = [int(next(agent.decide(o[None], rng))) for o in obs]
        np.testing.assert_array_equal(batch, singles)

    def test_decide_draws_only_for_consumed_rows(self, scales):
        agent = make_agent(scales, epsilon=0.5, seed=3)
        obs = np.abs(np.random.default_rng(4).normal(size=(5, 6)))
        batched_rng = np.random.default_rng(12)
        decisions = agent.decide(obs, batched_rng)
        first_two = [next(decisions), next(decisions)]
        single_rng = np.random.default_rng(12)
        assert first_two == [next(agent.decide(o[None], single_rng))
                             for o in obs[:2]]
        # the three unconsumed rows drew nothing
        assert batched_rng.random() == single_rng.random()

    def test_decide_scores_the_batch_in_one_forward_pass(self, scales,
                                                         monkeypatch):
        from ridesim import nn
        agent = make_agent(scales, epsilon=0.0, seed=6)
        calls = []
        forward = nn.forward
        monkeypatch.setattr(nn, "forward",
                            lambda net, x: calls.append(len(x)) or forward(net, x))
        obs = np.abs(np.random.default_rng(7).normal(size=(4, 6)))
        decisions = list(agent.decide(obs, np.random.default_rng(0)))
        assert calls == [4]
        assert decisions == [Action(a) for a in agent.greedy_actions(obs)]

    def test_terminal_training_is_supervised(self, scales):
        """With terminal transitions the projected target is a point mass at
        the reward, independent of the target net, so the train step must
        equal a plain cross-entropy step toward that distribution."""
        agent = make_agent(scales, seed=8)
        twin = make_agent(scales, seed=8)
        rng = np.random.default_rng(9)
        batch = []
        for _ in range(16):
            obs = np.abs(rng.normal(size=6))
            batch.append(Transition(obs=obs, action=Action(int(rng.integers(2))),
                                    next_obs=obs, reward=float(rng.uniform(-4, 4)),
                                    terminal=True))
        loss = agent.train_step(TransitionBatch.of(batch))

        xs = np.stack([t.obs for t in batch]) / scales.as_array()
        targets = np.stack([
            project_target(np.full(11, 1.0 / 11), t.reward, 0.0, twin.atoms)
            for t in batch])
        actions = np.array([int(t.action) for t in batch])
        expected_loss, _, _ = loss_and_grad_batch(twin.online, xs, targets,
                                                  actions, 2)
        assert loss == pytest.approx(expected_loss, abs=1e-8)

    def test_target_sync_counting(self, scales):
        agent = make_agent(scales, sync_every=3)
        batch = TransitionBatch.of([tr(reward=0.5, terminal=True)])
        for step in range(1, 7):
            agent.train_step(batch)
            synced = all(
                np.array_equal(a, b) for a, b in
                zip(agent.online.weights, agent.target.weights))
            assert synced == (step % 3 == 0), step

    def test_training_moves_expected_q_toward_reward(self, scales):
        agent = make_agent(scales, seed=10, learning_rate=5e-3)
        obs = np.ones(6)
        batch = TransitionBatch.of(
            [Transition(obs=obs, action=Action.ACCEPT, next_obs=obs,
                        reward=4.0, terminal=True)] * 32)
        before = q_values(agent, obs)[Action.ACCEPT]
        for _ in range(200):
            agent.train_step(batch)
        after = q_values(agent, obs)[Action.ACCEPT]
        assert after > before
        assert after == pytest.approx(4.0, abs=0.5)

    def test_create_validation(self, scales):
        with pytest.raises(ValueError):
            make_agent(scales, gamma=1.0)
        with pytest.raises(ValueError):
            make_agent(scales, epsilon=1.5)
        with pytest.raises(ValueError):
            CategoricalQAgent.create(scales, v_min=2.0, v_max=2.0,
                                     rng=np.random.default_rng(0))

    def test_empty_batch_rejected(self, scales):
        with pytest.raises(ValueError):
            make_agent(scales).train_step(TransitionBatch.of([]))

    @pytest.mark.parametrize("lr", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_learning_rate_rejected(self, scales, lr):
        with pytest.raises(ValueError, match="learning rate"):
            make_agent(scales, learning_rate=lr)

    def test_weights_stay_views_of_flat(self, scales, tmp_path):
        agent = make_agent(scales, sync_every=2)
        batch = TransitionBatch.of([tr(reward=1.0), tr(reward=-2.0, terminal=True)])
        for _ in range(3):              # one target sync on the way
            agent.train_step(batch)
        agent.sync_target()
        path = tmp_path / "agent.txt"
        agent.save(path)
        loaded = CategoricalQAgent.load(path)
        for net in (agent.online, agent.target, loaded.online, loaded.target):
            assert all(t.base is net.flat for t in net.weights + net.biases)
        assert loaded.online.flat.tobytes() == agent.online.flat.tobytes()
        # training the loaded agent moves the layers the forward pass reads
        before = loaded.online.weights[-1].copy()
        loaded.train_step(batch)
        assert not np.array_equal(before, loaded.online.weights[-1])


class TestAgentPersistence:
    def test_roundtrip_preserves_behavior(self, scales, tmp_path):
        agent = make_agent(scales, seed=21, gamma=0.7, epsilon=0.1,
                           sync_every=17)
        agent.train_step(TransitionBatch.of([tr(reward=1.0, terminal=True)] * 8))
        path = tmp_path / "agent.txt"
        agent.save(path)
        loaded = CategoricalQAgent.load(path)

        assert loaded.gamma == agent.gamma
        assert loaded.epsilon == agent.epsilon
        assert loaded.sync_every == agent.sync_every
        assert loaded.train_steps == agent.train_steps
        np.testing.assert_array_equal(loaded.atoms, agent.atoms)
        np.testing.assert_array_equal(loaded.scales.as_array(),
                                      agent.scales.as_array())
        obs = np.abs(np.random.default_rng(2).normal(size=(10, 6)))
        np.testing.assert_array_equal(loaded.greedy_actions(obs),
                                      agent.greedy_actions(obs))
        for a, b in zip(loaded.online.weights, agent.online.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(loaded.target.weights, agent.target.weights):
            np.testing.assert_array_equal(a, b)

    def test_save_is_atomic(self, scales, tmp_path, monkeypatch):
        agent = make_agent(scales)
        path = tmp_path / "agent.txt"
        agent.save(path)
        before = path.read_text()
        lines = make_agent(scales, seed=4).to_lines()

        def partial():
            yield from lines[:len(lines) // 2]
            raise RuntimeError("crash mid-write")

        monkeypatch.setattr(agent, "to_lines", partial)
        with pytest.raises(RuntimeError, match="mid-write"):
            agent.save(path)
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["agent.txt"]

    def test_load_skips_comment_header(self, scales, tmp_path):
        agent = make_agent(scales)
        path = tmp_path / "agent.txt"
        agent.save(path)
        stamped = tmp_path / "stamped.txt"
        stamped.write_text("# provenance line\n\n" + path.read_text())
        loaded = CategoricalQAgent.load(stamped)
        np.testing.assert_array_equal(loaded.atoms, agent.atoms)

    @pytest.mark.parametrize("key", AGENT_HEADER_KEYS)
    def test_load_names_a_missing_header_key(self, scales, tmp_path, key):
        path = tmp_path / "agent.txt"
        make_agent(scales).save(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(ln for ln in lines
                                  if not ln.startswith(key + " ")) + "\n")
        with pytest.raises(ValueError, match=repr(key)):
            CategoricalQAgent.load(path)

    @pytest.mark.parametrize("extra, message", [
        ("gamma 0.9", "agent header repeats 'gamma'"),
        ("learning_rate 0.5", "agent header repeats 'learning_rate'"),
        ("gama 0.9", "unknown agent header key 'gama'")])
    def test_load_rejects_an_unknown_or_repeated_header_key(
            self, scales, tmp_path, extra, message):
        # the extra line comes first, so a later valid line cannot win
        lines = make_agent(scales).to_lines()
        path = tmp_path / "agent.txt"
        path.write_text("\n".join(lines[:1] + [extra] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match=f"agent.txt: {message}"):
            CategoricalQAgent.load(path)

    def test_load_rejects_target_dims_unlike_online(self, scales, tmp_path):
        lines = make_agent(scales).to_lines()
        other = CategoricalQAgent.create(scales, v_min=-5.0, v_max=5.0,
                                         rng=np.random.default_rng(1),
                                         hidden=(4, 8), atom_count=11)
        path = tmp_path / "agent.txt"
        path.write_text("\n".join(lines[:lines.index("target") + 1]
                                  + checkpoint_lines(other.target)) + "\n")
        with pytest.raises(ValueError,
                           match="agent.txt: target network dims differ"):
            CategoricalQAgent.load(path)

    def test_load_names_a_file_cut_before_target(self, scales, tmp_path):
        lines = make_agent(scales).to_lines()
        path = tmp_path / "agent.txt"
        path.write_text("\n".join(lines[:lines.index("target")]) + "\n")
        with pytest.raises(ValueError,
                           match="agent.txt: .* ends before its 'target'"):
            CategoricalQAgent.load(path)

    def test_load_rejects_negative_train_steps(self, scales, tmp_path):
        path = tmp_path / "agent.txt"
        make_agent(scales).save(path)
        text = path.read_text().replace("train_steps 0\n", "train_steps -5\n")
        path.write_text(text)
        with pytest.raises(ValueError,
                           match="agent.txt: train_steps must be non-negative"):
            CategoricalQAgent.load(path)

    def test_load_rejects_a_short_scales_line(self, scales, tmp_path):
        path = tmp_path / "agent.txt"
        make_agent(scales).save(path)
        text = path.read_text()
        start = text.index("scales ")
        end = text.index("\n", start)
        path.write_text(text[:start] + "scales 1.0 2.0" + text[end:])
        with pytest.raises(ValueError, match="feature scales"):
            CategoricalQAgent.load(path)

    def test_load_rejects_other_files(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("ridesim-dist v1\n0.0\n1.0\n")
        with pytest.raises(ValueError):
            CategoricalQAgent.load(path)
