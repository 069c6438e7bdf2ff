"""One workload process: set up, run the timed passes, check the outputs.

`run.py` starts this file as a fresh process for every set-up it measures,
so `setup_s` runs from interpreter start (the parent passes its spawn time)
to the first timed call, and `peak_rss_mb` is this process's own peak.

    python3 bench/worker.py --workload NAME --seed N --seconds S
        --role setup|measure|trace [--baseline FILE] --spawned-at T
        --run-dir DIR --result FILE
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import SRC, WORKLOADS, stage_key

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import ridesim  # noqa: E402
from ridesim import cli, config, ingest  # noqa: E402
from ridesim.artifacts import read_csv_artifact, read_data_lines  # noqa: E402

from checks import check_artifact, check_episode, digest, stage_artifacts  # noqa: E402
from instrument import LAYERS, Counters, Patches, Tracer  # noqa: E402

CONFIG_FILE = "ridesim.yaml"
OUT = Path("out")

# Public functions whose per-layer metrics the traced run reports:
# (span name, aggregates). `total_s` is the whole subtree under the span.
FUNCTION_METRICS = (
    ("config.load_config", ("calls", "self_s")),
    ("synth.generate_synthetic_log", ("self_s",)),
    ("ingest.read_trip_log", ("calls", "self_s")),
    ("ingest.parse_trip_log", ("self_s",)),
    ("ingest.clean", ("self_s",)),
    ("ingest.extract_demonstrations", ("calls", "self_s")),
    ("distributions.fit_empirical", ("self_s",)),
    ("distributions.fit_time_profile", ("self_s",)),
    ("distributions.read_distribution", ("self_s",)),
    ("distributions.read_time_profile", ("self_s",)),
    ("distributions.inverse_sample", ("calls", "self_s")),
    ("distributions.probabilistic_round", ("calls", "self_s")),
    ("ridegen.generate_rides", ("calls", "self_s")),
    ("sim.run_episode", ("calls", "self_s")),
    ("sim.dispatch", ("calls", "self_s")),
    ("agent.act", ("calls", "self_s", "total_s")),
    ("agent.greedy_actions", ("self_s",)),
    ("agent.train_step", ("calls", "self_s", "total_s")),
    ("agent.project_target_batch", ("self_s",)),
    ("agent.ReplayBuffer.extend", ("self_s",)),
    ("agent.ReplayBuffer.sample", ("calls", "self_s")),
    ("agent.save", ("calls", "self_s")),
    ("agent.load", ("self_s",)),
    ("nn.forward", ("calls", "self_s")),
    ("nn.loss_and_grad_batch", ("self_s",)),
    ("nn.adam_step", ("self_s",)),
    ("training.train_bc", ("self_s",)),
    ("training.train_rl", ("self_s",)),
    ("metrics.acceptance_by_hour", ("self_s",)),
    ("metrics.acceptance_by_distance", ("self_s",)),
    ("metrics.daily_counts", ("self_s",)),
    ("artifacts.write_artifact", ("calls", "self_s")),
    ("artifacts.read_csv_artifact", ("self_s",)),
)
CLI_STAGES = ("synth", "ingest", "fit", "generate", "train-bc", "train-rl",
              "evaluate", "sweep")


class Operations:
    """Attempted and failed operations; a failure is recorded, not raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, label: str, errors) -> None:
        self.attempted += 1
        self.failed += bool(errors)
        self.failures.extend(f"{label}: {e}" for e in errors)


def extract_demonstrations() -> list:
    """The input step of train-bc, through the package's public functions."""
    cfg = config.load_config(CONFIG_FILE)
    records, rejects = ingest.read_trip_log(OUT / "cleaned_trips.csv")
    if rejects:
        raise ValueError(f"cleaned log has {len(rejects)} unparsable rows")
    window, _ = ingest.training_window(records, cfg.demand.holdout_days)
    return ingest.extract_demonstrations(
        records, config.build_platform(cfg), config.build_grid(cfg),
        window=window, speed_kmh=cfg.sim.speed_kmh)


def demonstration_lines(trajectories) -> list:
    """A fixed summary of extracted trajectories, for the digest."""
    transitions = [t for traj in trajectories for t in traj.transitions]
    reward = math.fsum(t.reward for t in transitions)
    obs = math.fsum(float(np.sum(t.obs)) for t in transitions)
    return [f"trajectories {len(trajectories)}",
            f"transitions {len(transitions)}",
            f"reward_sum {reward!r}", f"obs_sum {obs!r}"]


def run_stage(stage: str, tracer: Tracer | None):
    """(return code, or None when the stage raised; seconds; extract output)."""
    if stage == "extract":
        fn, args, span = extract_demonstrations, (), "bench.extract"
    else:
        fn, args, span = cli.main, ([stage, "--config", CONFIG_FILE],), f"cli.{stage_key(stage)}"
    t0 = time.perf_counter()
    try:
        value = fn(*args) if tracer is None else tracer.call(span, fn, *args)
    except Exception:  # a stage that raises is a failed operation
        traceback.print_exc()
        value = None
    seconds = time.perf_counter() - t0
    if stage == "extract":
        return (None if value is None else 0), seconds, value
    return value, seconds, None


def run_pass(workload, counters: Counters, tracer: Tracer | None = None) -> dict:
    """One timed pass over the workload's stages."""
    counters.reset()
    stages = {}

    def body():
        for stage in workload.timed:
            stages[stage] = run_stage(stage, tracer)

    t0 = time.perf_counter()
    if tracer is not None:
        tracer.call("bench.pass", body)
    else:
        body()
    wall = time.perf_counter() - t0
    return {"wall_s": wall,
            "stage_s": {s: v[1] for s, v in stages.items()},
            "rc": {s: v[0] for s, v in stages.items()},
            "extracted": stages.get("extract", (None, 0, None))[2],
            "episode_s": counters.episode_s,
            "offers": sum(e["offers"] for e in counters.episodes),
            "train_steps": counters.train_steps,
            "training_s": counters.training_s,
            "episodes": list(counters.episodes)}


def check_stages(ops: Operations, stages, rcs: dict, cfg: dict) -> list:
    """Return codes and README artifacts; returns the artifact names."""
    names = []
    for stage in stages:
        ops.record(f"stage {stage}", [] if rcs.get(stage) == 0
                   else [f"returned {rcs.get(stage)}"])
        for name in stage_artifacts(stage, cfg):
            ops.record(f"artifact {name}", check_artifact(OUT / name))
            names.append(name)
    return names


def check_pass(ops: Operations, workload, cfg: dict, p: dict) -> str:
    """Check one pass's outputs and return the digest of all its artifacts."""
    names = check_stages(ops, workload.timed, p["rc"], cfg)
    for i, summary in enumerate(p["episodes"]):
        ops.record(f"episode {i}", check_episode(summary))
    extra = ()
    if "extract" in workload.timed:
        trajs = p["extracted"] or []
        ops.record("extract", [] if trajs else ["no trajectories"])
        extra = demonstration_lines(trajs)
    setup_names = [n for s in workload.setup for n in stage_artifacts(s, cfg)]
    return digest(OUT, setup_names + names, extra)


def _float(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def quality() -> dict:
    """Behaviour figures recorded next to the timings, never gated."""
    q = {}
    corr = OUT / "correlations.txt"
    if corr.exists():
        for line in read_data_lines(corr):
            key, _, value = line.partition(" ")
            if key in ("acceptance_rate", "hourly_acceptance_pearson",
                       "distance_acceptance_pearson"):
                q[f"sim_{key}"] = _float(value)
    if (OUT / "bc_report.csv").exists():
        _, rows = read_csv_artifact(OUT / "bc_report.csv")
        q["bc_best_holdout_agreement"] = max(float(r[2]) for r in rows)
    if (OUT / "rl_report.csv").exists():
        q["rl_episodes"] = len(read_csv_artifact(OUT / "rl_report.csv")[1])
    if (OUT / "sweep" / "summary.csv").exists():
        _, rows = read_csv_artifact(OUT / "sweep" / "summary.csv")
        q["sweep_acceptance"] = {r[0]: float(r[3]) for r in rows}
        q["sweep_rl_episodes"] = {
            d.name: len(read_csv_artifact(d / "rl_report.csv")[1])
            for d in sorted((OUT / "sweep").iterdir()) if d.is_dir()}
    return q


def blas_threads():
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_record() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)),
            "ridesim": ridesim.__file__}


def layer_metrics(spans: dict, counts, traced: dict, untraced: list) -> dict:
    """Per-layer metrics of the traced pass, as name -> [value, unit].

    `spans` is `SpanTable.by_name()`, `counts` the tracer's counters.
    """

    def agg(name, kind):
        calls, total, own = spans.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "total_s": total, "self_s": own}[kind]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for stage in CLI_STAGES:
        m[f"cli.{stage_key(stage)}.self_s"] = [agg(f"cli.{stage_key(stage)}", "self_s"), "s"]
    for layer in ("cli",) + LAYERS:
        m[f"{layer}.self_s"] = [sum(v[2] for k, v in spans.items()
                                    if k.startswith(layer + ".")), "s"]
    for name, kinds in FUNCTION_METRICS:
        for kind in kinds:
            m[f"{name}.{kind}"] = [agg(name, kind),
                                   "count" if kind == "calls" else "s"]
    episodes = traced["episodes"]
    rides = sum(e["generated"] for e in episodes)
    offers = sum(e["offers"] for e in episodes)
    forward_calls = agg("nn.forward", "calls")
    m.update({
        "synth.rows": [counts["synth.rows"], "count"],
        "ingest.rows_parsed": [counts["ingest.rows_parsed"], "count"],
        "ridegen.rides": [counts["ridegen.rides"], "count"],
        "sim.rides": [rides, "count"],
        "sim.offers": [offers, "count"],
        "sim.accepts": [sum(e["accepted"] for e in episodes), "count"],
        "sim.lost": [sum(e["lost"] for e in episodes), "count"],
        "sim.offers_per_ride": [ratio(offers, rides), "ratio"],
        "sim.assigned_ratio": [ratio(sum(e["assigned"] for e in episodes), rides), "ratio"],
        # From the untraced passes: spans inside the episode would inflate it.
        "sim.us_per_offer": [1e6 * ratio(sum(p["episode_s"] for p in untraced),
                                         sum(p["offers"] for p in untraced)), "us"],
        "agent.train_step.ms_per_call": [1e3 * ratio(agg("agent.train_step", "total_s"),
                                                     agg("agent.train_step", "calls")), "ms"],
        "nn.forward.rows": [counts["nn.forward.rows"], "count"],
        "nn.forward.rows_per_call": [ratio(counts["nn.forward.rows"], forward_calls), "ratio"],
        "nn.forward.us_per_call": [1e6 * ratio(agg("nn.forward", "total_s"), forward_calls), "us"],
        "nn.forward.batch1.us_per_call": [1e6 * ratio(counts["nn.forward.batch1.s"],
                                                      counts["nn.forward.batch1.calls"]), "us"],
        "training.train_rl.episodes": [counts["training.train_rl.episodes"], "count"],
        "artifacts.bytes_written": [counts["artifacts.bytes_written"], "bytes"],
        "trace.wall_s": [traced["wall_s"], "s"],
        # Both are the first pass of a fresh process, so neither runs on a
        # heap the other warmed.
        "trace.overhead_ratio": [ratio(traced["wall_s"], untraced[0]["wall_s"]) - 1.0,
                                 "ratio"],
    })
    return m


def run_workload(workload, seed: int, run_dir: Path, *, role: str,
                 seconds: float, spawned_at: float, baseline: dict | None = None,
                 tiny: bool = False) -> dict:
    """Set up, then by role: stop ("setup"), run the untraced timed passes
    ("measure"), or run one traced pass ("trace", compared with the
    `baseline` result of a "measure" process)."""
    cfg = workload.config(seed, tiny)
    run_dir.mkdir(parents=True, exist_ok=True)
    home = os.getcwd()
    os.chdir(run_dir)
    patches = Patches()
    try:
        Path(CONFIG_FILE).write_text(json.dumps(cfg, indent=1) + "\n")
        counters = Counters()
        counters.install(patches)
        setup_rc = {s: run_stage(s, None)[0] for s in workload.setup}
        result = {"setup_s": time.monotonic() - spawned_at}

        ops = Operations()
        setup_names = check_stages(ops, workload.setup, setup_rc, cfg)
        result["setup_digest"] = digest(OUT, setup_names)
        if role == "measure":
            passes, digests, timed = [], [], 0.0
            # Another pass only if, at the mean pass time, it ends in time.
            while not passes or timed / len(passes) * (len(passes) + 1) <= seconds:
                p = run_pass(workload, counters)
                digests.append(check_pass(ops, workload, cfg, p))
                del p["episodes"], p["extracted"]
                passes.append(p)
                timed += p["wall_s"]
            result["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            for d in digests[1:]:
                ops.record("pass digest", [] if d == digests[0]
                           else ["outputs differ between passes"])
            result.update(passes=passes, digest=digests[0], quality=quality(),
                          record=run_record())
        elif role == "trace":
            tracer = Tracer()
            result["wrapped"] = tracer.install(patches)
            traced = run_pass(workload, counters, tracer)
            ops.record("traced digest",
                       [] if check_pass(ops, workload, cfg, traced) == baseline["digest"]
                       else ["traced outputs differ from untraced"])
            table = tracer.table()
            spans = table.by_name()
            result["per_layer"] = layer_metrics(spans, tracer.counts, traced,
                                                baseline["passes"])
            result["called"] = sorted(n for n, v in spans.items() if v[0] > 0)
            table.write(Path("trace"))
        result.update(attempted=ops.attempted, failed=ops.failed,
                      failures=ops.failures)
        return result
    finally:
        patches.restore()
        os.chdir(home)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--baseline", type=Path,
                        help="result file of the measure process (role trace)")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    if not Path(ridesim.__file__).resolve().is_relative_to(SRC):
        print(f"ridesim imported from {ridesim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    baseline = json.loads(args.baseline.read_text()) if args.baseline else None
    result = run_workload(WORKLOADS[args.workload], args.seed, args.run_dir,
                          role=args.role, seconds=args.seconds,
                          spawned_at=args.spawned_at, baseline=baseline)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
