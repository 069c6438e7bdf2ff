import numpy as np
import pytest

from ridesim.nn import (AdamState, Mlp, adam_step, forward, gradient_check,
                        load_checkpoint, loss_and_grad, loss_and_grad_batch,
                        loss_only, parse_checkpoint, save_checkpoint)


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
        assert net.parameter_count() == 4 * 8 + 8 + 8 * 6 + 6


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


class TestAdam:
    def test_first_step_is_bias_corrected(self):
        net = Mlp(layer_dims=[1, 1], weights=[np.array([[1.0]])],
                  biases=[np.zeros(1)])
        state = AdamState.for_net(net, lr=0.1)
        wg = [np.array([[0.5]])]
        bg = [np.zeros(1)]
        adam_step(net, wg, bg, state)
        # m_hat/sqrt(v_hat) == sign(g) on step one, so the move is exactly lr
        assert net.weights[0][0, 0] == pytest.approx(0.9, abs=1e-6)
        assert state.step == 1

    def test_constant_gradient_keeps_unit_ratio(self):
        net = Mlp(layer_dims=[1, 1], weights=[np.array([[1.0]])],
                  biases=[np.zeros(1)])
        state = AdamState.for_net(net, lr=0.1)
        for _ in range(3):
            adam_step(net, [np.array([[0.5]])], [np.zeros(1)], state)
        assert net.weights[0][0, 0] == pytest.approx(0.7, abs=1e-5)

    def test_zero_gradient_moves_nothing(self):
        net = make_net([2, 3, 2], seed=11)
        snapshot = [w.copy() for w in net.weights]
        state = AdamState.for_net(net)
        adam_step(net, [np.zeros_like(w) for w in net.weights],
                  [np.zeros_like(b) for b in net.biases], state)
        for w, s in zip(net.weights, snapshot):
            np.testing.assert_array_equal(w, s)


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
        from ridesim.nn import checkpoint_lines
        lines = checkpoint_lines(net) + ["X what"]
        with pytest.raises(ValueError, match="unexpected line"):
            parse_checkpoint(lines)

    def test_missing_weight_block_rejected(self):
        from ridesim.nn import checkpoint_lines
        lines = checkpoint_lines(make_net([4, 8, 6], seed=3))
        start = lines.index("W 1 8 6")
        lines = lines[:start] + lines[start + 9:]
        with pytest.raises(ValueError, match="net.txt: no 'W 1 8 6' block"):
            parse_checkpoint(lines, label="net.txt")

    def test_truncated_checkpoint_rejected(self):
        from ridesim.nn import checkpoint_lines
        lines = checkpoint_lines(make_net([4, 8, 6], seed=3))
        for cut in (1, 2, 5, len(lines) - 1):
            with pytest.raises(ValueError, match="net.txt: "):
                parse_checkpoint(lines[:cut], label="net.txt")
