import numpy as np
import pytest

from helpers import (gradient_check, load_checkpoint, loss_and_grad, loss_only,
                     parameter_count, save_checkpoint)
from ridesim.nn import (AdamState, Mlp, adam_step, checkpoint_lines, forward,
                        loss_and_grad_batch, parse_checkpoint)


def make_net(dims, seed=0):
    return Mlp.create(dims, np.random.default_rng(seed))


class TestForward:
    def test_shapes(self):
        net = make_net([4, 8, 6])
        assert forward(net, np.zeros(4)).shape == (6,)
        assert forward(net, np.zeros((5, 4))).shape == (5, 6)

    def test_relu_hidden_layers(self):
        net = make_net([2, 3, 2])
        # all-negative first layer output must be clipped to zero, leaving
        # only the output bias
        net.weights[0][:] = -1.0
        net.biases[0][:] = 0.0
        net.biases[1][:] = [0.5, -0.5]
        out = forward(net, np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [0.5, -0.5])

    def test_no_relu_on_output(self):
        net = make_net([2, 2])
        net.weights[0][:] = [[1.0, -1.0], [0.0, 0.0]]
        out = forward(net, np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [1.0, -1.0])


class TestRowsAreBatchIndependent:
    """`sim.run_episode` scores a block's rides in one forward pass and
    compares each ride's decisions with the ride scored alone, so it relies
    on a row's output being bit for bit the same in any batch of two or more
    rows. A BLAS that breaks this fails here by name. A batch of one row
    may take another BLAS path and is not covered: a ride with one
    candidate keeps its pass of one row."""

    SIZES = (2, 3, 5, 16, 64, 81, 320)

    @staticmethod
    def _rows(seed=0, n=320):
        rng = np.random.default_rng(seed)
        # raw observations in the ranges the simulator produces
        return np.column_stack([rng.uniform(0, 8, n), rng.uniform(0, 12, n),
                                rng.integers(0, 1440, n), rng.integers(0, 60, n),
                                rng.uniform(0, 6, n), rng.integers(0, 3000, n)]
                               ).astype(float)

    def test_forward_rows(self):
        net = make_net([6, 64, 64, 102], seed=3)
        x = self._rows()
        full = forward(net, x)
        for size in self.SIZES:
            for start in range(0, len(x) - size + 1, 37):
                part = forward(net, x[start:start + size])
                assert part.tobytes() == full[start:start + size].tobytes(), \
                    (size, start)

    def test_greedy_rows(self):
        from ridesim.agent import CategoricalQAgent, FeatureScales, expected_q
        agent = CategoricalQAgent.create(FeatureScales(), -500.0, 1500.0,
                                         np.random.default_rng(4))
        obs = self._rows(seed=1)
        probs, actions = agent._greedy(agent.online, obs)
        q = expected_q(probs, agent.atoms)
        for size in self.SIZES:
            for start in range(0, len(obs) - size + 1, 37):
                rows = slice(start, start + size)
                part_probs, part_actions = agent._greedy(agent.online, obs[rows])
                assert part_probs.tobytes() == probs[rows].tobytes(), (size, start)
                assert (expected_q(part_probs, agent.atoms).tobytes()
                        == q[rows].tobytes()), (size, start)
                assert (agent.greedy_actions(obs[rows]).tolist()
                        == part_actions.tolist() == actions[rows].tolist())


class TestCreate:
    def test_zero_biases_and_scaled_weights(self):
        net = make_net([100, 200, 10], seed=3)
        for b in net.biases:
            assert not b.any()
        # He scaling: std close to sqrt(2 / fan_in)
        std = net.weights[0].std()
        assert abs(std - np.sqrt(2.0 / 100)) < 0.01

    def test_seeded_and_independent(self):
        a = make_net([3, 5, 2], seed=7)
        b = make_net([3, 5, 2], seed=7)
        c = make_net([3, 5, 2], seed=8)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        assert any((wa != wc).any() for wa, wc in zip(a.weights, c.weights))

    def test_copy_is_detached(self):
        a = make_net([3, 4, 2])
        b = a.copy()
        b.weights[0][0, 0] += 1.0
        assert a.weights[0][0, 0] != b.weights[0][0, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            make_net([4])

    def test_parameter_count(self):
        net = make_net([4, 8, 6])
        assert parameter_count(net) == 4 * 8 + 8 + 8 * 6 + 6


class TestLoss:
    def test_matches_manual_cross_entropy(self):
        net = make_net([3, 4], seed=1)  # 2 actions x 2 atoms
        x = np.array([0.3, -0.2, 0.9])
        target = np.array([0.25, 0.75])
        loss, _, _ = loss_and_grad(net, x, target, action=1, n_actions=2)
        z = forward(net, x).reshape(2, 2)[1]
        p = np.exp(z) / np.exp(z).sum()
        manual = -(target * np.log(p)).sum()
        assert loss == pytest.approx(manual, abs=1e-12)

    def test_loss_only_agrees_with_grad_path(self):
        net = make_net([4, 8, 6], seed=2)
        x = np.random.default_rng(0).normal(size=4)
        target = np.array([0.1, 0.2, 0.7])
        a = loss_only(net, x, target, 0, 2)
        b, _, _ = loss_and_grad(net, x, target, 0, 2)
        assert a == pytest.approx(b, abs=1e-12)

    def test_batch_loss_is_mean_of_singles(self):
        net = make_net([3, 6, 4], seed=4)
        rng = np.random.default_rng(5)
        xs = rng.normal(size=(3, 3))
        targets = rng.dirichlet(np.ones(2), size=3)
        actions = np.array([0, 1, 0])
        batch_loss, _, _ = loss_and_grad_batch(net, xs, targets, actions, 2)
        singles = [loss_only(net, xs[i], targets[i], actions[i], 2)
                   for i in range(3)]
        assert batch_loss == pytest.approx(np.mean(singles), abs=1e-12)

    def test_target_validation(self):
        net = make_net([3, 4])
        x = np.zeros(3)
        with pytest.raises(ValueError):
            loss_and_grad(net, x, np.array([0.5, 0.6]), 0, 2)
        with pytest.raises(ValueError):
            loss_and_grad(net, x, np.array([-0.2, 1.2]), 0, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_targets_rejected(self, bad):
        net = make_net([3, 4])
        targets = np.array([[bad, 1.0], [0.5, 0.5]])
        with pytest.raises(ValueError):
            loss_and_grad_batch(net, np.zeros((2, 3)), targets,
                                np.array([0, 1]), 2)

    def test_output_width_must_divide(self):
        net = make_net([3, 5])
        with pytest.raises(ValueError):
            loss_and_grad(net, np.zeros(3), np.ones(2) / 2, 0, 2)


class TestGradients:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_analytic_matches_finite_difference(self, seed):
        rng = np.random.default_rng(seed)
        net = Mlp.create([4, 8, 6], rng)
        x = rng.normal(size=4)
        target = rng.dirichlet(np.ones(3))
        err = gradient_check(net, x, target, action=seed % 2, n_actions=2)
        assert err < 1e-4

    def test_gradient_direction_reduces_loss(self):
        net = make_net([3, 8, 4], seed=9)
        x = np.array([0.5, -0.5, 1.0])
        target = np.array([0.9, 0.1])
        before, wg, bg = loss_and_grad(net, x, target, 0, 2)
        for w, g in zip(net.weights, wg):
            w -= 0.05 * g
        for b, g in zip(net.biases, bg):
            b -= 0.05 * g
        after = loss_only(net, x, target, 0, 2)
        assert after < before


def one_weight_net(value=1.0):
    net = Mlp([1, 1])
    net.weights[0][0, 0] = value
    return net


def adam_reference(params, grads, ms, vs, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook per-tensor Adam step."""
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    for p, g, m, v in zip(params, grads, ms, vs):
        m[...] = b1 * m + (1.0 - b1) * g
        v[...] = b2 * v + (1.0 - b2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


class TestAdam:
    def test_first_step_is_bias_corrected(self):
        net = one_weight_net()
        state = AdamState(net.flat.size, lr=0.1)
        adam_step(net, np.array([0.5, 0.0]), state)
        # m_hat/sqrt(v_hat) == sign(g) on step one, so the move is exactly lr
        assert net.weights[0][0, 0] == pytest.approx(0.9, abs=1e-6)
        assert state.step == 1

    def test_constant_gradient_keeps_unit_ratio(self):
        net = one_weight_net()
        state = AdamState(net.flat.size, lr=0.1)
        for _ in range(3):
            adam_step(net, np.array([0.5, 0.0]), state)
        assert net.weights[0][0, 0] == pytest.approx(0.7, abs=1e-5)

    def test_zero_gradient_moves_nothing(self):
        net = make_net([2, 3, 2], seed=11)
        snapshot = net.flat.copy()
        state = AdamState(net.flat.size)
        adam_step(net, np.zeros_like(net.flat), state)
        np.testing.assert_array_equal(net.flat, snapshot)

    def test_flat_step_is_bitwise_the_per_tensor_step(self):
        net = make_net([6, 16, 12, 22], seed=5)
        ref = net.copy()
        ref_w = [w.copy() for w in ref.weights]
        ref_b = [b.copy() for b in ref.biases]
        ms = [np.zeros_like(p) for p in ref_w + ref_b]
        vs = [np.zeros_like(p) for p in ref_w + ref_b]
        state = AdamState(net.flat.size, lr=3e-3)
        rng = np.random.default_rng(6)
        for t in range(1, 51):
            grad = rng.normal(size=net.flat.size) * rng.uniform(1e-4, 10.0)
            gw, gb = net.views(grad)
            adam_reference(ref_w + ref_b, gw + gb, ms, vs, t, lr=3e-3)
            adam_step(net, grad, state)
            for mine, theirs in zip(net.weights + net.biases, ref_w + ref_b):
                assert mine.tobytes() == theirs.tobytes(), t
        assert state.m.tobytes() == np.concatenate(
            [m.ravel() for m in ms]).tobytes()

    @pytest.mark.parametrize("lr", [0.0, -1e-3, float("inf"), float("nan")])
    def test_bad_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="learning rate"):
            AdamState(one_weight_net().flat.size, lr=lr)


def assert_views_of_flat(net):
    tensors = net.weights + net.biases
    assert net.flat.flags.c_contiguous and net.flat.flags.owndata
    assert all(t.base is net.flat for t in tensors)
    np.testing.assert_array_equal(
        np.concatenate([t.ravel() for t in tensors]), net.flat)


class TestFlatLayout:
    def test_create_copy_copy_from_and_parse_keep_views(self):
        net = make_net([6, 8, 4], seed=1)
        assert_views_of_flat(net)
        twin = net.copy()
        assert_views_of_flat(twin)
        assert not np.shares_memory(twin.flat, net.flat)
        other = make_net([6, 8, 4], seed=2)
        twin.copy_from(other)
        assert_views_of_flat(twin)
        np.testing.assert_array_equal(twin.flat, other.flat)
        loaded = parse_checkpoint(checkpoint_lines(net))
        assert_views_of_flat(loaded)
        assert loaded.flat.tobytes() == net.flat.tobytes()

    def test_writing_flat_moves_the_layers(self):
        net = make_net([3, 2], seed=0)
        net.flat[:] = np.arange(net.flat.size)
        np.testing.assert_array_equal(net.weights[0], [[0, 1], [2, 3], [4, 5]])
        np.testing.assert_array_equal(net.biases[0], [6, 7])

    def test_gradient_lands_in_the_given_vector(self):
        net = make_net([4, 8, 6], seed=2)
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(5, 4))
        targets = rng.dirichlet(np.ones(3), size=5)
        actions = np.array([0, 1, 1, 0, 1])
        grad = np.full(net.flat.size, np.nan)
        loss, gw, gb = loss_and_grad_batch(net, xs, targets, actions, 2,
                                           grad=grad)
        assert all(g.base is grad for g in gw + gb)
        fresh_loss, fw, fb = loss_and_grad_batch(net, xs, targets, actions, 2)
        assert loss == fresh_loss
        assert grad.tobytes() == np.concatenate(
            [g.ravel() for g in fw + fb]).tobytes()

    def test_flat_of_the_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Mlp([2, 3], np.zeros(5))


class TestCheckpoint:
    def test_roundtrip_is_exact(self, tmp_path):
        net = make_net([4, 8, 6], seed=13)
        path = tmp_path / "net.txt"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert loaded.layer_dims == net.layer_dims
        for a, b in zip(net.weights, loaded.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(net.biases, loaded.biases):
            np.testing.assert_array_equal(a, b)

    def test_loaded_net_computes_identically(self, tmp_path):
        net = make_net([6, 16, 8], seed=17)
        path = tmp_path / "net.txt"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        x = np.random.default_rng(0).normal(size=6)
        np.testing.assert_array_equal(forward(net, x), forward(loaded, x))

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="not a network checkpoint"):
            parse_checkpoint(["something-else", "dims 2 2"])

    def test_garbage_line_rejected(self):
        net = make_net([2, 2])
        lines = checkpoint_lines(net) + ["X what"]
        with pytest.raises(ValueError, match="unexpected line"):
            parse_checkpoint(lines)

    def test_missing_weight_block_rejected(self):
        lines = checkpoint_lines(make_net([4, 8, 6], seed=3))
        start = lines.index("W 1 8 6")
        lines = lines[:start] + lines[start + 9:]
        with pytest.raises(ValueError, match="net.txt: no 'W 1 8 6' block"):
            parse_checkpoint(lines, label="net.txt")

    def test_truncated_checkpoint_rejected(self):
        lines = checkpoint_lines(make_net([4, 8, 6], seed=3))
        for cut in (1, 2, 5, len(lines) - 1):
            with pytest.raises(ValueError, match="net.txt: "):
                parse_checkpoint(lines[:cut], label="net.txt")
