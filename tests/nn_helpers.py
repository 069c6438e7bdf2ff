"""Network helpers used only by the tests: a forward-only loss, central
finite differences, and file round trips of a bare network checkpoint."""

import numpy as np

from ridesim.nn import (Mlp, checkpoint_lines, forward, loss_and_grad,
                        parse_checkpoint)


def loss_only(net: Mlp, x: np.ndarray, target: np.ndarray, action: int,
              n_actions: int) -> float:
    """Loss via the pure forward pass, used by the finite-difference check."""
    out = forward(net, x)
    atoms = out.size // n_actions
    z = out.reshape(n_actions, atoms)[action]
    zmax = z.max()
    lse = zmax + np.log(np.exp(z - zmax).sum())
    return float(lse - (target * z).sum())


def finite_difference_grads(net: Mlp, x: np.ndarray, target: np.ndarray,
                            action: int, n_actions: int, eps: float = 1e-6):
    """Central-difference gradients of the single-sample loss, as
    (weight_grads, bias_grads) views into one vector laid out like net.flat."""
    grad = np.zeros_like(net.flat)
    for j in range(net.flat.size):
        orig = net.flat[j]
        h = eps * max(1.0, abs(orig))
        net.flat[j] = orig + h
        up = loss_only(net, x, target, action, n_actions)
        net.flat[j] = orig - h
        down = loss_only(net, x, target, action, n_actions)
        net.flat[j] = orig
        grad[j] = (up - down) / (2.0 * h)
    return net.views(grad)


def gradient_check(net: Mlp, x: np.ndarray, target: np.ndarray, action: int,
                   n_actions: int, eps: float = 1e-6) -> float:
    """Max normwise relative error between analytic and numeric gradients."""
    _, aw, ab = loss_and_grad(net, x, target, action, n_actions)
    nw, nb = finite_difference_grads(net, x, target, action, n_actions, eps)
    worst = 0.0
    for analytic, numeric in list(zip(aw, nw)) + list(zip(ab, nb)):
        denom = max(np.linalg.norm(analytic) + np.linalg.norm(numeric), 1e-12)
        err = np.linalg.norm(analytic - numeric) / denom
        worst = max(worst, float(err))
    return worst


def save_checkpoint(net: Mlp, path) -> None:
    """Text checkpoint: version, dims, then every tensor row in full precision."""
    with open(path, "w") as fh:
        fh.write("\n".join(checkpoint_lines(net)) + "\n")


def load_checkpoint(path) -> Mlp:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    return parse_checkpoint(lines, label=str(path))
