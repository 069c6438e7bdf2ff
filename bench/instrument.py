"""Counters and span tracing patched into ridesim from outside the package.

`Counters` is always installed: it times and counts `run_episode` and
`CategoricalQAgent.train_step` (one counter bump per episode and per
minibatch) plus the two training loops, which is what the end-to-end
throughputs divide by. `Tracer` is installed only for a traced pass: it wraps
every public function of every ridesim module, and the public methods of the
agent classes, with a span recorder.

ridesim modules import each other's functions by name (`cli` holds its own
binding of `run_episode`, `training` another, and so on), so a patch replaces
the function object under every name in every ridesim module that holds it.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

from checks import episode_summary

# Layer = module. `cli` is not wrapped: the benchmark opens one `cli.<stage>`
# span around each `cli.main` call, so everything cli does outside the other
# layers is that span's self time.
LAYERS = ("config", "synth", "ingest", "distributions", "ridegen", "sim",
          "agent", "nn", "training", "metrics", "artifacts")

# Classes whose public methods are wrapped, with the span-name prefix the
# metrics use (the agent's own methods read as `agent.act`, not
# `agent.CategoricalQAgent.act`).
CLASS_PREFIX = {("agent", "CategoricalQAgent"): "agent",
                ("agent", "ReplayBuffer"): "agent.ReplayBuffer"}

# Called once per log row, ride, offer or busy driver-minute with a body of a
# few microseconds, so a span each would cost as much as the work and bloat
# the span table. Their time shows as their caller's self time.
PER_ITEM = frozenset({
    "sim.advance", "sim.make_observation", "sim.reward_from_observation",
    "sim.reward_for_features", "sim.compute_reward", "sim.travel_minutes",
    "sim.assign_ride", "sim.weekly_goal", "sim.offer_to_row",
    "ridegen.drop_location", "ridegen.ride_to_row",
    "ingest.parse_minute", "ingest.format_minute", "ingest.record_to_row",
    "agent.expected_q", "agent.normalize", "agent.q_values",
    "agent.value_distribution"})


def package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "ridesim"
                                    or name.startswith("ridesim."))]


class Patches:
    """Replace objects under every binding in ridesim, and undo it."""

    def __init__(self):
        self._undo = []

    def replace(self, old, new) -> int:
        hits = 0
        for mod in package_modules():
            for name, value in list(vars(mod).items()):
                if value is old:
                    self._undo.append((mod, name, old))
                    setattr(mod, name, new)
                    hits += 1
        return hits

    def replace_attr(self, owner, name, new) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _module(name: str):
    return sys.modules[f"ridesim.{name}"]


class Counters:
    """Per-episode and per-minibatch counts behind the throughputs."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.episodes = []       # episode_summary dicts, for the output checks
        self.episode_s = 0.0     # summed wall time of run_episode
        self.train_steps = 0
        self.training_s = 0.0    # summed wall time of train_bc and train_rl

    def install(self, patches: Patches) -> None:
        clock = time.perf_counter
        run_episode = _module("sim").run_episode

        @functools.wraps(run_episode)
        def counted_episode(config, agent, rng):
            t0 = clock()
            log = run_episode(config, agent, rng)
            self.episode_s += clock() - t0
            self.episodes.append(episode_summary(config, log))
            return log

        patches.replace(run_episode, counted_episode)

        agent_cls = _module("agent").CategoricalQAgent
        train_step = agent_cls.__dict__["train_step"]

        @functools.wraps(train_step)
        def counted_step(agent, batch):
            self.train_steps += 1
            return train_step(agent, batch)

        patches.replace_attr(agent_cls, "train_step", counted_step)

        training = _module("training")
        for fn in (training.train_bc, training.train_rl):
            patches.replace(fn, self._timed_training(fn))

    def _timed_training(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.training_s += time.perf_counter() - t0
        return timed


# Counts taken from arguments and results: (counts, args, result, seconds).
def _forward_rows(counts, args, result, seconds):
    rows = 1 if np.ndim(args[1]) == 1 else len(args[1])
    counts["nn.forward.rows"] += rows
    if rows == 1:
        counts["nn.forward.batch1.calls"] += 1
        counts["nn.forward.batch1.s"] += seconds


OBSERVERS = {
    "synth.generate_synthetic_log":
        lambda c, a, r, s: c.update({"synth.rows": len(r)}),
    "ingest.read_trip_log":
        lambda c, a, r, s: c.update({"ingest.rows_parsed": len(r[0]) + len(r[1])}),
    "ridegen.generate_rides":
        lambda c, a, r, s: c.update({"ridegen.rides": len(r)}),
    "training.train_rl":
        lambda c, a, r, s: c.update({"training.train_rl.episodes": len(r.iterations)}),
    "artifacts.write_artifact":
        lambda c, a, r, s: c.update({"artifacts.bytes_written": os.path.getsize(a[0])}),
    "nn.forward": _forward_rows,
}


class Tracer:
    """In-memory span table: name, parent, start and end of every call.

    Spans are appended in start order, so a parent always has a lower index
    than its children. Nothing is written until `write` is called.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        observe = OBSERVERS.get(name)
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, result, ends[i] - starts[i])
            return result

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn under a span opened by the benchmark itself."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self, patches: Patches) -> list:
        """Wrap every public function of every layer; return the span names."""
        wrapped = []
        for layer in LAYERS:
            mod = _module(layer)
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in PER_ITEM
                        or not inspect.isfunction(obj)
                        or inspect.unwrap(obj).__module__ != mod.__name__):
                    continue
                patches.replace(obj, self.wrap(name, obj))
                wrapped.append(name)
            for (owner, cls_name), prefix in CLASS_PREFIX.items():
                if owner != layer:
                    continue
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    name = f"{prefix}.{attr}"
                    if attr.startswith("_") or name in PER_ITEM:
                        continue
                    if isinstance(obj, classmethod):
                        patches.replace_attr(
                            cls, attr, classmethod(self.wrap(name, obj.__func__)))
                    elif inspect.isfunction(obj):
                        patches.replace_attr(cls, attr, self.wrap(name, obj))
                    else:
                        continue
                    wrapped.append(name)
        return wrapped

    def table(self) -> "SpanTable":
        return SpanTable(self.names, np.frombuffer(self.name_id, dtype=np.int32),
                         np.frombuffer(self.parent, dtype=np.int32),
                         np.frombuffer(self.start), np.frombuffer(self.end))


class SpanTable:
    """Column view of recorded spans with derived self times."""

    def __init__(self, names, name_id, parent, start, end):
        self.names = list(names)
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.start = np.asarray(start, dtype=float)
        self.end = np.asarray(end, dtype=float)
        self.duration = self.end - self.start
        self.self_time = self_times(self.parent, self.duration)

    def by_name(self) -> dict:
        """name -> (calls, total seconds, self seconds)."""
        n = len(self.names)
        calls = np.bincount(self.name_id, minlength=n)
        total = np.bincount(self.name_id, weights=self.duration, minlength=n)
        own = np.bincount(self.name_id, weights=self.self_time, minlength=n)
        return {name: (int(calls[i]), float(total[i]), float(own[i]))
                for i, name in enumerate(self.names)}

    def tree_lines(self) -> list:
        """Spans merged by call path: calls, total and self seconds per path."""
        paths = {}
        node = np.empty(len(self.name_id), dtype=np.int64)
        stats = []
        for i, (nid, par) in enumerate(zip(self.name_id.tolist(),
                                           self.parent.tolist())):
            key = (node[par] if par >= 0 else -1, nid)
            j = paths.get(key)
            if j is None:
                j = paths[key] = len(stats)
                stats.append([key[0], nid, 0, 0.0, 0.0])
            node[i] = j
            row = stats[j]
            row[2] += 1
            row[3] += self.duration[i]
            row[4] += self.self_time[i]
        children = {}
        for j, row in enumerate(stats):
            children.setdefault(row[0], []).append(j)
        lines = ["# path  calls  total_s  self_s"]

        def emit(j, depth):
            _, nid, calls, total, own = stats[j]
            lines.append(f"{'  ' * depth}{self.names[nid]}  {calls}  "
                         f"{total:.6f}  {own:.6f}")
            for k in sorted(children.get(j, ()), key=lambda k: -stats[k][3]):
                emit(k, depth + 1)

        for j in sorted(children.get(-1, ()), key=lambda k: -stats[k][3]):
            emit(j, 0)
        return lines

    def write(self, directory) -> None:
        os.makedirs(directory, exist_ok=True)
        np.savez_compressed(os.path.join(directory, "spans.npz"),
                            names=np.array(self.names), name_id=self.name_id,
                            parent=self.parent, start=self.start, end=self.end)
        with open(os.path.join(directory, "span_tree.txt"), "w") as fh:
            fh.write("\n".join(self.tree_lines()) + "\n")


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Calls are nested and single-threaded, so children never overlap and the
    covered time is the sum of their durations.
    """
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child],
                          minlength=len(duration))
    return duration - covered

