"""Minimal feed-forward network on numpy.

ReLU hidden layers, a linear output layer read as one logit row per action
over a shared atom grid, and softmax cross-entropy against a target atom
distribution on the action actually taken. The backward pass is written out
by hand and checked against central finite differences in the test suite.

Checkpoints are plain text with full-precision reprs, so save/load round
trips bit for bit and reruns diff cleanly.
"""

from __future__ import annotations

import math

import numpy as np

MLP_MAGIC = "ridesim-mlp v1"


class Mlp:
    """Network parameters as one contiguous vector with per-layer views.

    `flat` holds every weight matrix, then every bias vector, in layer
    order. `weights[i]` (layer_dims[i], layer_dims[i+1]) and `biases[i]`
    (layer_dims[i+1],) are views into it, so an optimizer can update the
    whole network in one pass and a copy is one array copy.
    """

    def __init__(self, layer_dims, flat: np.ndarray | None = None):
        dims = [int(d) for d in layer_dims]
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError("layer_dims needs >= 2 positive entries")
        size = sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
        if flat is None:
            flat = np.zeros(size)
        elif flat.shape != (size,):
            raise ValueError(f"flat parameters must have shape ({size},)")
        self.layer_dims = dims
        self.flat = flat
        self.weights, self.biases = self.views(flat)

    def views(self, flat: np.ndarray) -> tuple[list, list]:
        """Per-layer weight and bias views into a vector laid out like `flat`."""
        pairs = list(zip(self.layer_dims[:-1], self.layer_dims[1:]))
        weights, biases, pos = [], [], 0
        for fan_in, fan_out in pairs:
            weights.append(flat[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out))
            pos += fan_in * fan_out
        for _, fan_out in pairs:
            biases.append(flat[pos:pos + fan_out])
            pos += fan_out
        return weights, biases

    @classmethod
    def create(cls, layer_dims, rng: np.random.Generator) -> "Mlp":
        """He-initialized weights, zero biases."""
        net = cls(layer_dims)
        for w in net.weights:
            w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]), size=w.shape)
        return net

    def copy(self) -> "Mlp":
        return Mlp(self.layer_dims, self.flat.copy())

    def copy_from(self, other: "Mlp") -> None:
        self.flat[...] = other.flat


def forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Pure forward pass. Accepts (d_in,) or (batch, d_in)."""
    single = x.ndim == 1
    out = _forward_cached(net, np.atleast_2d(np.asarray(x, dtype=float)))[-1]
    return out[0] if single else out


def _forward_cached(net: Mlp, x: np.ndarray):
    """Forward keeping post-activation values per layer for backprop."""
    activations = [x]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = activations[-1] @ w
        a += b
        if i != last:
            np.maximum(a, 0.0, out=a)
        activations.append(a)
    return activations


def _softmax(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis; `out=z` overwrites the logits."""
    e = np.subtract(z, z.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _check_distributions(probs: np.ndarray) -> None:
    """Reject rows that are not probability distributions."""
    # "Every value passes" rather than "no value fails": NaN fails every
    # comparison, and infinite mass makes its row sum inf or NaN.
    if not np.all(probs >= -1e-12):
        raise ValueError("distribution has negative or NaN mass")
    if not np.all(np.abs(probs.sum(axis=-1) - 1.0) <= 1e-6):
        raise ValueError("distribution must sum to 1")


def loss_and_grad_batch(net: Mlp, xs: np.ndarray, targets: np.ndarray,
                        actions: np.ndarray, n_actions: int,
                        grad: np.ndarray | None = None):
    """Mean cross-entropy over a batch, with gradients for every parameter.

    The network output is read as n_actions logit rows of equal width; only
    the row of each sample's taken action receives loss. The gradient is
    written into `grad`, a vector laid out like `net.flat` (a new one when
    not given). Returns (loss, weight_grads, bias_grads), the gradient
    tensors being views into that vector.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    actions = np.asarray(actions, dtype=int)
    _check_distributions(targets)
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
    e = np.exp(taken - zmax)
    total = e.sum(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(total[:, 0])
    loss = float(np.mean(lse - (targets * taken).sum(axis=1)))

    d_out = np.zeros((batch, n_actions, atoms))
    e /= total                                            # softmax(taken)
    e -= targets
    e /= batch
    d_out[np.arange(batch), actions] = e
    delta = d_out.reshape(batch, out_dim)

    weight_grads, bias_grads = net.views(np.empty_like(net.flat)
                                         if grad is None else grad)
    for i in range(len(net.weights) - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=weight_grads[i])
        np.sum(delta, axis=0, out=bias_grads[i])
        if i > 0:
            delta = delta @ net.weights[i].T
            delta *= acts[i] > 0
    return loss, weight_grads, bias_grads


class AdamState:
    """Adam's moment vectors for one network, laid out like its `flat`."""

    def __init__(self, size: int, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if not (math.isfinite(lr) and lr > 0):
            raise ValueError("learning rate must be positive and finite")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._scratch = np.empty((2, size))


def adam_step(net: Mlp, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of `net.flat`, in place.

    `grad` is laid out like `net.flat`. Every element goes through the
    textbook sequence m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
    p -= (lr * m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps), one whole-vector
    operation at a time into preallocated scratch.
    """
    state.step += 1
    t = state.step
    correct1 = 1.0 - state.beta1 ** t
    correct2 = 1.0 - state.beta2 ** t
    m, v = state.m, state.v
    step, denom = state._scratch
    m *= state.beta1
    np.multiply(grad, 1.0 - state.beta1, out=step)
    m += step
    v *= state.beta2
    np.multiply(grad, grad, out=step)
    step *= 1.0 - state.beta2
    v += step
    np.divide(m, correct1, out=step)
    step *= state.lr
    np.divide(v, correct2, out=denom)
    np.sqrt(denom, out=denom)
    denom += state.eps
    step /= denom
    net.flat -= step


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
        return Mlp(dims, np.concatenate([block.ravel() for block in blocks]))
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from None


def checkpoint_lines(net: Mlp) -> list:
    """Checkpoint content as lines, for embedding in larger artifacts."""
    lines = [MLP_MAGIC, "dims " + " ".join(str(d) for d in net.layer_dims)]
    for i, w in enumerate(net.weights):
        lines.append(f"W {i} {w.shape[0]} {w.shape[1]}")
        lines.extend(" ".join(map(repr, row)) for row in w.tolist())
    for i, b in enumerate(net.biases):
        lines.append(f"b {i} {b.size}")
        lines.append(" ".join(map(repr, b.tolist())))
    return lines
