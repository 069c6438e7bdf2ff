"""Minimal feed-forward network on numpy.

ReLU hidden layers, a linear output layer read as one logit row per action
over a shared atom grid, and softmax cross-entropy against a target atom
distribution on the action actually taken. The backward pass is written out
by hand and checked against central finite differences in the test suite.

Checkpoints are plain text with full-precision reprs, so save/load round
trips bit for bit and reruns diff cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MLP_MAGIC = "ridesim-mlp v1"


@dataclass
class Mlp:
    layer_dims: list
    weights: list   # weights[i]: (layer_dims[i], layer_dims[i+1])
    biases: list    # biases[i]: (layer_dims[i+1],)

    @classmethod
    def create(cls, layer_dims, rng: np.random.Generator) -> "Mlp":
        """He-initialized weights, zero biases."""
        dims = [int(d) for d in layer_dims]
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError("layer_dims needs >= 2 positive entries")
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            scale = np.sqrt(2.0 / fan_in)
            weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(layer_dims=dims, weights=weights, biases=biases)

    def copy(self) -> "Mlp":
        return Mlp(layer_dims=list(self.layer_dims),
                   weights=[w.copy() for w in self.weights],
                   biases=[b.copy() for b in self.biases])

    def copy_from(self, other: "Mlp") -> None:
        for mine, theirs in zip(self.weights, other.weights):
            mine[...] = theirs
        for mine, theirs in zip(self.biases, other.biases):
            mine[...] = theirs

    def parameter_count(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)


def forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Pure forward pass. Accepts (d_in,) or (batch, d_in)."""
    single = x.ndim == 1
    a = np.atleast_2d(np.asarray(x, dtype=float))
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ w + b
        if i != last:
            a = np.maximum(a, 0.0)
    return a[0] if single else a


def _forward_cached(net: Mlp, x: np.ndarray):
    """Forward keeping post-activation values per layer for backprop."""
    activations = [x]
    a = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ w + b
        if i != last:
            a = np.maximum(a, 0.0)
        activations.append(a)
    return activations


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _check_targets(targets: np.ndarray) -> None:
    if np.any(targets < -1e-12):
        raise ValueError("target distribution has negative mass")
    sums = targets.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        raise ValueError("target distribution must sum to 1")


def loss_and_grad_batch(net: Mlp, xs: np.ndarray, targets: np.ndarray,
                        actions: np.ndarray, n_actions: int):
    """Mean cross-entropy over a batch, with gradients for every parameter.

    The network output is read as n_actions logit rows of equal width; only
    the row of each sample's taken action receives loss. Returns
    (loss, weight_grads, bias_grads).
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    actions = np.asarray(actions, dtype=int)
    _check_targets(targets)
    batch = xs.shape[0]
    out_dim = net.layer_dims[-1]
    if out_dim % n_actions != 0:
        raise ValueError("output width must divide evenly into actions")
    atoms = out_dim // n_actions
    if targets.shape[1] != atoms:
        raise ValueError("target width must equal the per-action atom count")

    acts = _forward_cached(net, xs)
    logits = acts[-1].reshape(batch, n_actions, atoms)
    taken = logits[np.arange(batch), actions]             # (batch, atoms)
    # loss = logsumexp(z) - sum(t * z), stable form of -sum(t * log softmax(z))
    zmax = taken.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(taken - zmax).sum(axis=1))
    loss = float(np.mean(lse - (targets * taken).sum(axis=1)))

    d_out = np.zeros((batch, n_actions, atoms))
    d_out[np.arange(batch), actions] = (_softmax(taken) - targets) / batch
    delta = d_out.reshape(batch, out_dim)

    weight_grads = [None] * len(net.weights)
    bias_grads = [None] * len(net.biases)
    for i in range(len(net.weights) - 1, -1, -1):
        weight_grads[i] = acts[i].T @ delta
        bias_grads[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ net.weights[i].T) * (acts[i] > 0)
    return loss, weight_grads, bias_grads


def loss_and_grad(net: Mlp, x: np.ndarray, target: np.ndarray, action: int,
                  n_actions: int):
    """Single-sample form of loss_and_grad_batch."""
    return loss_and_grad_batch(net, x[None, :], target[None, :],
                               np.array([action]), n_actions)


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
    """Central-difference gradients of the single-sample loss."""
    weight_grads = [np.zeros_like(w) for w in net.weights]
    bias_grads = [np.zeros_like(b) for b in net.biases]
    for params, grads in ((net.weights, weight_grads), (net.biases, bias_grads)):
        for tensor, grad in zip(params, grads):
            flat = tensor.ravel()
            gflat = grad.ravel()
            for j in range(flat.size):
                orig = flat[j]
                h = eps * max(1.0, abs(orig))
                flat[j] = orig + h
                up = loss_only(net, x, target, action, n_actions)
                flat[j] = orig - h
                down = loss_only(net, x, target, action, n_actions)
                flat[j] = orig
                gflat[j] = (up - down) / (2.0 * h)
    return weight_grads, bias_grads


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


@dataclass
class AdamState:
    """First and second moment accumulators for every parameter tensor."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m_weights: list = field(default_factory=list)
    v_weights: list = field(default_factory=list)
    m_biases: list = field(default_factory=list)
    v_biases: list = field(default_factory=list)

    @classmethod
    def for_net(cls, net: Mlp, lr: float = 1e-3) -> "AdamState":
        return cls(lr=lr,
                   m_weights=[np.zeros_like(w) for w in net.weights],
                   v_weights=[np.zeros_like(w) for w in net.weights],
                   m_biases=[np.zeros_like(b) for b in net.biases],
                   v_biases=[np.zeros_like(b) for b in net.biases])


def adam_step(net: Mlp, weight_grads, bias_grads, state: AdamState) -> None:
    """One bias-corrected Adam update, in place."""
    state.step += 1
    t = state.step
    correct1 = 1.0 - state.beta1 ** t
    correct2 = 1.0 - state.beta2 ** t
    groups = ((net.weights, weight_grads, state.m_weights, state.v_weights),
              (net.biases, bias_grads, state.m_biases, state.v_biases))
    for params, grads, ms, vs in groups:
        for p, g, m, v in zip(params, grads, ms, vs):
            m[...] = state.beta1 * m + (1.0 - state.beta1) * g
            v[...] = state.beta2 * v + (1.0 - state.beta2) * (g * g)
            m_hat = m / correct1
            v_hat = v / correct2
            p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


def save_checkpoint(net: Mlp, path) -> None:
    """Text checkpoint: version, dims, then every tensor row in full precision."""
    with open(path, "w") as fh:
        fh.write("\n".join(checkpoint_lines(net)) + "\n")


def load_checkpoint(path) -> Mlp:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    return parse_checkpoint(lines, label=str(path))


def parse_checkpoint(lines, label: str = "checkpoint") -> Mlp:
    """Network from `checkpoint_lines` output, every block in that order."""
    if not lines or lines[0] != MLP_MAGIC:
        raise ValueError(f"{label}: not a network checkpoint")
    rows = [ln.split() for ln in lines[1:] if ln.strip()]
    try:
        if not rows or rows[0][0] != "dims" or len(rows[0]) < 3:
            raise ValueError("no dims line with two or more layer sizes")
        dims = [int(v) for v in rows[0][1:]]
        pairs = list(enumerate(zip(dims[:-1], dims[1:])))
        shapes = ([(f"W {i} {a} {b}", (a, b)) for i, (a, b) in pairs]
                  + [(f"b {i} {b}", (1, b)) for i, (_, b) in pairs])
        blocks, pos = [], 1
        for header, shape in shapes:
            if pos >= len(rows) or " ".join(rows[pos]) != header:
                raise ValueError(f"no {header!r} block where expected")
            block = np.array([[float(v) for v in row]
                              for row in rows[pos + 1:pos + 1 + shape[0]]])
            if block.shape != shape:
                raise ValueError(f"block {header!r} is malformed")
            blocks.append(block)
            pos += 1 + shape[0]
        if pos < len(rows):
            raise ValueError(f"unexpected line {' '.join(rows[pos])!r}")
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from None
    n = len(pairs)
    return Mlp(layer_dims=dims, weights=blocks[:n],
               biases=[b[0] for b in blocks[n:]])


def checkpoint_lines(net: Mlp) -> list:
    """Checkpoint content as lines, for embedding in larger artifacts."""
    lines = [MLP_MAGIC, "dims " + " ".join(str(d) for d in net.layer_dims)]
    for i, w in enumerate(net.weights):
        lines.append(f"W {i} {w.shape[0]} {w.shape[1]}")
        for row in w:
            lines.append(" ".join(repr(float(v)) for v in row))
    for i, b in enumerate(net.biases):
        lines.append(f"b {i} {b.size}")
        lines.append(" ".join(repr(float(v)) for v in b))
    return lines
