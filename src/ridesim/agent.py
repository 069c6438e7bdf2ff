"""Driver decision agent with a categorical action-value distribution.

One shared network serves every driver. The output layer carries one row of
atom logits per action over a fixed support grid; expected values come from
the softmax distribution, decisions from an epsilon-greedy argmax with ties
broken toward accepting. Training projects the one-step return distribution
back onto the support and minimizes cross-entropy against it, with a lagged
target copy for the bootstrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import nn
from .artifacts import _read_keyed, write_lines_atomic
from .ridegen import GridSpec, bounded, check_bounds
from .sim import FEATURES, OBS_DIM, Action, _is_int

AGENT_MAGIC = "ridesim-agent v1"
# Header lines an agent file must carry; learning_rate is optional.
AGENT_HEADER_KEYS = ("atoms", "v_min", "v_max", "gamma", "epsilon",
                     "sync_every", "train_steps", "scales")

N_ACTIONS = 2
_ACTIONS = tuple(Action)  # indexed by action value

EXPLORATION = 0.05  # a fresh agent's epsilon, and rl.exploration's default


@dataclass
class AgentSpec:
    """Hidden layer widths and learning hyperparameters of an agent."""

    # Widths and atoms size the network: one 4096 x 4096 layer holds 128 MiB
    # of weights, and an agent keeps five such arrays (online, target,
    # gradient and Adam's two moments). Atoms also size each batch's targets.
    hidden: list = bounded([64, 64], ge=1, le=4096)
    atom_count: int = bounded(51, ge=2, le=1001)
    gamma: float = bounded(0.6, ge=0, lt=1)
    learning_rate: float = bounded(1e-3, gt=0)
    sync_every: int = bounded(100, ge=1)

    def __post_init__(self):
        if not all(map(_is_int, self.hidden)):
            raise ValueError("hidden must be a list of integers")
        check_bounds(self)


@dataclass(frozen=True)
class FeatureScales:
    """Per-feature divisors that bring raw observations near [0, 1]: one
    field per `sim.FEATURES` name, in its order."""

    pickup_km: float = bounded(5.0, gt=0)
    trip_km: float = bounded(10.0, gt=0)
    minute_of_day: float = bounded(1440.0, gt=0)
    trips_to_goal: float = bounded(40.0, gt=0)
    drop_center_km: float = bounded(10.0, gt=0)
    idle_minutes: float = bounded(120.0, gt=0)

    def __post_init__(self):
        check_bounds(self)

    @classmethod
    def for_grid(cls, grid: GridSpec, **overrides) -> "FeatureScales":
        kwargs = {"drop_center_km": grid.half_diagonal_km()}
        kwargs.update(overrides)
        return cls(**kwargs)

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURES], dtype=float)


class TransitionBatch(NamedTuple):
    """Transitions as parallel arrays, one row per transition.

    `targets`, when set, holds the rows' projected one-step distributions,
    computed ahead of the update from the current target weights.
    """

    obs: np.ndarray        # (n, OBS_DIM) raw observations
    action: np.ndarray     # (n,) int
    reward: np.ndarray     # (n,) float
    next_obs: np.ndarray   # (n, OBS_DIM)
    terminal: np.ndarray   # (n,) bool
    targets: np.ndarray | None = None   # (n, atoms)

    @classmethod
    def of(cls, transitions) -> "TransitionBatch":
        ts = list(transitions)
        shape = (len(ts), OBS_DIM)
        return cls(
            obs=np.array([t.obs for t in ts], dtype=float).reshape(shape),
            action=np.array([int(t.action) for t in ts], dtype=np.int64),
            reward=np.array([t.reward for t in ts], dtype=float),
            next_obs=np.array([t.next_obs for t in ts], dtype=float).reshape(shape),
            terminal=np.array([t.terminal for t in ts], dtype=bool))


class ReplayBuffer:
    """Bounded FIFO transition store with uniform sampling.

    Transitions live in ring arrays of `capacity` rows: `_next` is the row
    the next transition is written to and `_size` counts the stored rows,
    so the oldest row is `_next - _size` modulo the capacity. The arrays
    are zero-filled on allocation, so the OS backs their pages only as
    rows are first written.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.obs = np.zeros((capacity, OBS_DIM))
        self.action = np.zeros(capacity, dtype=np.int64)
        self.reward = np.zeros(capacity)
        self.next_obs = np.zeros((capacity, OBS_DIM))
        self.terminal = np.zeros(capacity, dtype=bool)
        self._next = 0
        self._size = 0

    def __len__(self):
        return self._size

    def extend(self, transitions) -> None:
        """Append in order; beyond capacity the oldest rows are overwritten.

        The transitions are stacked into one batch, and its last `capacity`
        rows are written to the ring.
        """
        batch = TransitionBatch.of(transitions)
        n = len(batch.reward)
        kept = slice(max(0, n - self.capacity), n)
        rows = np.arange(self._next + kept.start, self._next + n) % self.capacity
        for name in ("obs", "action", "reward", "next_obs", "terminal"):
            getattr(self, name)[rows] = getattr(batch, name)[kept]
        self._next = (self._next + n) % self.capacity
        self._size = min(self._size + n, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> TransitionBatch:
        """Uniform draw with replacement, in draw order; index i of the
        draw is the i-th oldest stored transition."""
        if not self._size:
            raise ValueError("cannot sample from an empty buffer")
        rows = rng.integers(0, self._size, size=batch_size)
        oldest = (self._next - self._size) % self.capacity
        if oldest:
            rows = (rows + oldest) % self.capacity
        return TransitionBatch(self.obs[rows], self.action[rows],
                               self.reward[rows], self.next_obs[rows],
                               self.terminal[rows])


def project_target_batch(probs: np.ndarray, rewards: np.ndarray,
                         gammas: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """Project r + gamma * Z onto the fixed atom grid, rowwise.

    Each atom's mass moves to the clamped point r + gamma * z and is split
    linearly between the two bracketing atoms; a point landing exactly on an
    atom keeps all its mass there. Row sums are preserved. One `bincount`
    adds every lower share, then every upper share, in row-major order.
    """
    probs = np.atleast_2d(np.asarray(probs, dtype=float))
    nn._check_distributions(probs)
    batch, k = probs.shape
    rewards = np.broadcast_to(np.asarray(rewards, dtype=float), (batch,))
    gammas = np.broadcast_to(np.asarray(gammas, dtype=float), (batch,))
    v_min, v_max = float(atoms[0]), float(atoms[-1])
    dz = (v_max - v_min) / (k - 1)
    pos = gammas[:, None] * atoms[None, :]
    pos += rewards[:, None]
    np.clip(pos, v_min, v_max, out=pos)
    pos -= v_min
    pos /= dz
    floor = np.floor(pos)
    frac = pos - floor
    index = np.empty((2, batch, k), dtype=np.intp)
    index[0] = floor
    np.minimum(index[0] + 1, k - 1, out=index[1])
    index += np.arange(0, batch * k, k)[:, None]
    mass = np.empty((2, batch, k))
    np.subtract(1.0, frac, out=mass[0])
    mass[0] *= probs
    np.multiply(probs, frac, out=mass[1])
    return np.bincount(index.ravel(), weights=mass.ravel(),
                       minlength=batch * k).reshape(batch, k)


def expected_q(probs: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """Mean of a categorical value distribution; broadcasts over leading axes."""
    return np.asarray(probs, dtype=float) @ np.asarray(atoms, dtype=float)


class CategoricalQAgent:
    """Shared accept/reject policy over categorical value distributions."""

    def __init__(self, online: nn.Mlp, target: nn.Mlp, atoms: np.ndarray,
                 scales: FeatureScales, *, gamma: float, epsilon: float,
                 learning_rate: float, sync_every: int, train_steps: int = 0):
        AgentSpec(hidden=online.layer_dims[1:-1], atom_count=atoms.size,
                  gamma=gamma, learning_rate=learning_rate,
                  sync_every=sync_every)
        if not (0.0 <= epsilon <= 1.0):
            raise ValueError("epsilon must be in [0, 1]")
        if not np.all(np.diff(atoms) > 0):
            raise ValueError("atom support must be strictly increasing")
        if online.layer_dims[0] != OBS_DIM:
            raise ValueError(f"network input width must be {OBS_DIM}")
        if online.layer_dims[-1] != N_ACTIONS * atoms.size:
            raise ValueError("network output width must be actions * atoms")
        if target.layer_dims != online.layer_dims:
            raise ValueError("target network dims differ from the online ones")
        if train_steps < 0:
            raise ValueError("train_steps must be non-negative")
        self.online = online
        self.target = target
        self.atoms = np.asarray(atoms, dtype=float)
        self.scales = scales
        self.gamma = gamma
        self.epsilon = epsilon
        self.sync_every = sync_every
        self.train_steps = train_steps
        self.adam = nn.AdamState(online.flat.size, lr=learning_rate)
        self._scale_array = scales.as_array()
        self._grad = np.empty_like(online.flat)

    @classmethod
    def create(cls, scales: FeatureScales, v_min: float, v_max: float,
               rng: np.random.Generator, *, epsilon: float = EXPLORATION,
               **spec) -> "CategoricalQAgent":
        """A fresh agent; `spec` sets `AgentSpec` fields by keyword."""
        spec = AgentSpec(**spec)
        if not (v_min < v_max):
            raise ValueError("v_min must be below v_max")
        atoms = np.linspace(v_min, v_max, spec.atom_count)
        dims = [OBS_DIM, *spec.hidden, N_ACTIONS * spec.atom_count]
        online = nn.Mlp.create(dims, rng)
        return cls(online=online, target=online.copy(), atoms=atoms,
                   scales=scales, gamma=spec.gamma, epsilon=epsilon,
                   learning_rate=spec.learning_rate,
                   sync_every=spec.sync_every)

    @property
    def v_min(self) -> float:
        return float(self.atoms[0])

    @property
    def v_max(self) -> float:
        return float(self.atoms[-1])

    def decide(self, obs_batch: np.ndarray, rng: np.random.Generator,
               greedy: list | None = None) -> Iterator[Action]:
        """Epsilon-greedy decisions for a (batch, 6) block of raw obs, in order.

        One forward pass scores every row up front, unless `greedy` passes
        the rows' greedy actions, scored already; the decisions are then
        yielded lazily, so the exploration draws (a uniform, then an action
        when exploring) are made only for the rows actually consumed.
        """
        if greedy is None:
            greedy = self.greedy_actions(obs_batch).tolist()
        return self._explore(greedy, rng)

    def _explore(self, greedy: list, rng: np.random.Generator) -> Iterator[Action]:
        epsilon = self.epsilon
        for action in greedy:
            if epsilon > 0 and rng.random() < epsilon:
                yield _ACTIONS[int(rng.integers(0, N_ACTIONS))]
            else:
                yield _ACTIONS[action]

    def greedy_actions(self, obs_batch: np.ndarray) -> np.ndarray:
        """Vectorized greedy decisions for a (batch, 6) block of raw obs."""
        return self._greedy(self.online, np.atleast_2d(obs_batch))[1]

    def _greedy(self, net: nn.Mlp, obs_batch: np.ndarray) -> tuple:
        """(value distributions, greedy actions) of `net` for a (batch, 6)
        block of raw obs. On an exact value tie the driver accepts."""
        x = obs_batch / self._scale_array
        logits = nn.forward(net, x).reshape(len(x), N_ACTIONS, -1)
        probs = nn._softmax(logits, out=logits)
        q = expected_q(probs, self.atoms)
        # 1 (accept) where accepting is worth at least as much, else 0
        return probs, (q[:, 1] >= q[:, 0]).astype(np.int64)

    def sync_target(self) -> None:
        self.target.copy_from(self.online)

    def bootstrap_targets(self, next_obs: np.ndarray, reward: np.ndarray,
                          terminal: np.ndarray) -> np.ndarray:
        """Projected one-step return distributions, one row per transition.

        The bootstrap action comes from the target network's expected values
        on the next observation; terminal transitions drop the bootstrap term
        entirely. Only the rows and the target weights are read, so the
        result is the same wherever those are.
        """
        next_probs, bootstrap = self._greedy(self.target, next_obs)
        chosen = next_probs[np.arange(len(reward)), bootstrap]
        gammas = np.where(terminal, 0.0, self.gamma)
        return project_target_batch(chosen, reward, gammas, self.atoms)

    def train_step(self, batch: TransitionBatch) -> float:
        """One minibatch update toward projected one-step distributions.

        The targets are `batch.targets` when set, else `bootstrap_targets`
        of the batch. Returns the batch loss. A non-finite loss aborts before
        any parameter changes.
        """
        if len(batch.reward) == 0:
            raise ValueError("empty batch")
        targets = batch.targets
        if targets is None:
            targets = self.bootstrap_targets(batch.next_obs, batch.reward,
                                             batch.terminal)
        with np.errstate(all="ignore"):  # a non-finite loss raises below
            loss, _, _ = nn.loss_and_grad_batch(
                self.online, batch.obs / self._scale_array, targets,
                batch.action, N_ACTIONS, grad=self._grad)
        if not math.isfinite(loss):
            raise FloatingPointError("non-finite training loss; no update applied")
        nn.adam_step(self.online, self._grad, self.adam)
        self.train_steps += 1
        if self.train_steps % self.sync_every == 0:
            self.sync_target()
        return loss

    def to_lines(self) -> list:
        lines = [AGENT_MAGIC,
                 f"atoms {self.atoms.size}",
                 f"v_min {repr(self.v_min)}",
                 f"v_max {repr(self.v_max)}",
                 f"gamma {repr(float(self.gamma))}",
                 f"epsilon {repr(float(self.epsilon))}",
                 f"sync_every {self.sync_every}",
                 f"train_steps {self.train_steps}",
                 "scales " + " ".join(repr(float(v))
                                      for v in self.scales.as_array()),
                 f"learning_rate {repr(float(self.adam.lr))}",
                 "online"]
        lines.extend(nn.checkpoint_lines(self.online))
        lines.append("target")
        lines.extend(nn.checkpoint_lines(self.target))
        return lines

    def save(self, path) -> None:
        write_lines_atomic(path, self.to_lines())

    @classmethod
    def load(cls, path) -> "CategoricalQAgent":
        def build(header, body):
            # body is the "online" line, its network, "target", its network
            if "target" not in body:
                raise ValueError("agent checkpoint ends before its "
                                 "'target' network")
            target_marker = body.index("target")
            online = nn.parse_checkpoint(body[1:target_marker],
                                         label=f"{path}:online")
            target = nn.parse_checkpoint(body[target_marker + 1:],
                                         label=f"{path}:target")
            scale_vals = header["scales"].split()
            if len(scale_vals) != OBS_DIM:
                raise ValueError(f"expected {OBS_DIM} feature scales, "
                                 f"found {len(scale_vals)}")
            atoms = np.linspace(float(header["v_min"]), float(header["v_max"]),
                                int(header["atoms"]))
            lr = header.get("learning_rate", repr(AgentSpec.learning_rate))
            return cls(online=online, target=target, atoms=atoms,
                       scales=FeatureScales(*map(float, scale_vals)),
                       gamma=float(header["gamma"]),
                       epsilon=float(header["epsilon"]),
                       learning_rate=float(lr),
                       sync_every=int(header["sync_every"]),
                       train_steps=int(header["train_steps"]))
        return _read_keyed(path, AGENT_MAGIC, AGENT_HEADER_KEYS, build,
                           optional=("learning_rate",), end="online")
