"""The benchmark's workloads: pinned settings, set-up stages and timed stages.

Every workload is a closed loop of one caller: each stage starts when the
previous one returns. Settings not listed here keep the package defaults, and
every path stays inside the run's own directory.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# City-eval and sweep-rl need full demand, and the demand scale is baked into
# time_profile.txt at `fit`, so it is pinned for the whole chain. A short BC
# run is enough for an agent whose decisions exercise dispatch.
_FULL_DEMAND_INPUTS = {"demand": {"scale_factor": 1}, "bc": {"iterations": 2}}


@dataclass(frozen=True)
class Expectation:
    """The traced run should show these per-layer times above a share of
    the traced pass."""

    label: str
    metrics: tuple
    share: float


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    settings: dict           # pinned config, written to the run's YAML
    setup: tuple             # cli stages run before the clock starts
    timed: tuple             # cli stages, plus "extract", run on the clock
    expect: tuple = ()

    def config(self, seed: int, tiny: bool = False) -> dict:
        cfg = {"seed": seed,
               "paths": {"out_dir": "out",
                         "trip_log": "out/synthetic_trips.csv"}}
        _merge(cfg, copy.deepcopy(self.settings))
        if tiny:
            _merge(cfg, copy.deepcopy(TINY))
        return cfg


def stage_key(stage: str) -> str:
    """A stage name as it appears in metric names: `train-bc` -> `train_bc`."""
    return stage.replace("-", "_")


def _merge(into: dict, extra: dict) -> None:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(into.get(key), dict):
            _merge(into[key], value)
        else:
            into[key] = value


WORKLOADS = {w.name: w for w in (
    Workload(
        name="quickstart",
        why="the README chain on the default config: what every user runs "
            "first; bound by the learner, the simulator is nearly empty",
        settings={},
        setup=(),
        timed=("synth", "ingest", "fit", "generate", "train-bc", "train-rl",
               "evaluate"),
        expect=(Expectation("train_step subtree", ("agent.train_step.total_s",),
                            0.5),)),
    Workload(
        name="city-eval",
        why="evaluate a fixed BC agent with 500 drivers at full demand: "
            "dispatch and the minute loop dominate, no learning at all",
        settings={**_FULL_DEMAND_INPUTS, "sim": {"driver_count": 500},
                  "evaluate": {"replications": 2}},
        setup=("synth", "ingest", "fit", "train-bc"),
        timed=("evaluate",),
        expect=(Expectation("dispatch + run_episode self",
                            ("sim.dispatch.self_s", "sim.run_episode.self_s"),
                            0.5),)),
    Workload(
        name="sweep-rl",
        why="retrain and evaluate over peak pricing with 50 drivers at full "
            "demand: batch-1 inference interleaved with batch-64 training",
        # patience >= iterations turns early stopping off, so the work per
        # point does not depend on the episode rewards. Runnable by hand but
        # not listed in BENCHMARK.json: on the 2-core host it was tuned on,
        # its wall time spread over ten seeds (0.26 and 0.32 of the median)
        # exceeded the 0.25 bound, while its work per seed did not vary.
        settings={**_FULL_DEMAND_INPUTS, "sim": {"driver_count": 50},
                  "rl": {"iterations": 4, "patience": 4},
                  "evaluate": {"replications": 1},
                  "sweep": {"param": "platform.peak_fare_multiplier",
                            "values": [1.0, 3.0]}},
        setup=("synth", "ingest", "fit", "train-bc"),
        timed=("sweep",),
        expect=(Expectation("train_step subtree", ("agent.train_step.total_s",),
                            0.1),
                Expectation("act subtree", ("agent.act.total_s",), 0.1))),
    Workload(
        name="log-ingest",
        why="synth, ingest and fit on a 10x trip log (~116k rows), then the "
            "demonstration extraction train-bc starts with: parsing and IO",
        # Runnable by hand but not listed in BENCHMARK.json: with one pass of
        # about 25 s per run, its wall time spread over ten seeds was 0.25 and
        # 0.30 of the median in two sets on a shared 2-core host, above the
        # 0.25 bound, and with a third workload longer runs would not fit the
        # time limit on a check's runs. Its layers still run, smaller, in
        # quickstart.
        settings={"synth": {"driver_count": 500}},
        setup=(),
        timed=("synth", "ingest", "fit", "extract"),
        expect=(Expectation("synth + ingest + artifacts self",
                            ("synth.self_s", "ingest.self_s",
                             "artifacts.self_s"), 0.5),)),
)}

# Shrinks every workload to a few seconds for the self-tests; same stages.
TINY = {"synth": {"days": 14, "driver_count": 8},
        "sim": {"driver_count": 8},
        "bc": {"iterations": 1},
        "rl": {"iterations": 1, "patience": 1},
        "evaluate": {"replications": 1}}
