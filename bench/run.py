"""Run one ridesim benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run sets up three times, each in a fresh worker process (`worker.py`),
and the third also runs the workload's timed stages in passes: the first
always, each further one only while it should end within `--seconds` of timed
work, at the mean pass time so far. With `--trace 1` a fourth process
sets up and runs one pass with every public ridesim function wrapped in a
span, and its per-layer metrics replace the end-to-end ones in the result line.

The last line of standard output is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {...}}.
Everything else the run produced is under `.bench_out/<workload>/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import BENCH, ROOT, SRC, WORKLOADS, stage_key

SETUPS = 3              # set-ups per run; setup_s is their median
RUN_LIMIT_S = 170       # the whole run, all workers included
OUT_ROOT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference_digests.json"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# The untraced result line. Stage times and throughputs exist only on the
# workloads that run them, so they are printed below but not listed here.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# ROADMAP baselines, measured by hand before this harness existed.
ROADMAP = {
    "city-eval": [("sim.us_per_offer", 246.0, "500 drivers, full demand")],
    "sweep-rl": [("sim.us_per_offer", 84.0, "50 drivers, full demand"),
                 ("agent.train_step.ms_per_call", 1.95, "batch 64"),
                 ("nn.forward.batch1.us_per_call", 28.0, "one observation")],
    "quickstart": [("agent.train_step.ms_per_call", 1.95, "batch 64"),
                   ("nn.forward.batch1.us_per_call", 28.0, "one observation")],
}


def source_digest(settings=None) -> str:
    """sha256 of the ridesim sources, and of the workload's settings if given:
    with the seed, what the outputs depend on."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ridesim").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    if settings is not None:
        h.update(json.dumps(settings, sort_keys=True).encode())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def spawn(args, role: str, index: int, run_dir: Path, deadline: float) -> dict:
    result = run_dir / f"worker{index}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--role", role, "--run-dir", str(run_dir), "--result", str(result)]
    if role == "trace":
        cmd += ["--baseline", str(run_dir / f"worker{SETUPS - 1}.json")]
    cmd += ["--spawned-at", repr(time.monotonic())]
    with open(run_dir / f"worker{index}.log", "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                env={**os.environ, **THREAD_ENV})
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"worker {index} passed the {RUN_LIMIT_S} s limit")
    if code != 0:
        raise RuntimeError(f"worker {index} exited with {code}; "
                           f"see {run_dir / f'worker{index}.log'}")
    return json.loads(result.read_text())


def end_to_end(workload, workers: list) -> dict:
    """Every end-to-end metric this workload has, as name -> (value, unit)."""
    passes = workers[-1]["passes"]

    def med(values):
        return statistics.median(values)

    m = {"setup_s": (med([w["setup_s"] for w in workers]), "s"),
         "wall_s": (med([p["wall_s"] for p in passes]), "s")}
    for stage in workload.timed:
        m[f"{stage_key(stage)}_s"] = (med([p["stage_s"][stage] for p in passes]), "s")
    if any(p["offers"] for p in passes):
        m["sim_offers_per_s"] = (med([p["offers"] / p["episode_s"] for p in passes]),
                                 "offers/s")
    if any(p["train_steps"] for p in passes):
        m["train_steps_per_s"] = (med([p["train_steps"] / p["training_s"]
                                       for p in passes]), "steps/s")
    m["peak_rss_mb"] = (workers[-1]["peak_rss_mb"], "MB")
    return m


def compare_digest(workload: str, seed: int, found: str, src: str) -> tuple:
    """(error or None, note) from this seed's earlier digests.

    `src` is `source_digest` with the workload's settings. Another run in
    this checkout with the same `src` but other outputs is nondeterminism,
    a failure. The committed reference comes from another
    machine and commit, so a difference from it is reported, never failed:
    with other source it means the change altered outputs.
    """
    key = f"{workload}/{seed}"
    history_path = OUT_ROOT / "digests.json"
    history = json.loads(history_path.read_text()) if history_path.exists() else {}
    reference = json.loads(REFERENCE.read_text()).get(key) if REFERENCE.exists() else None
    error, notes = None, []
    earlier = history.get(key)
    if earlier is not None and earlier["digest"] != found and earlier["src"] == src:
        error = "outputs differ from an earlier run of the same source"
    if reference is not None:
        same = "same" if reference["src"] == src else "other"
        notes.append(("unchanged" if reference["digest"] == found else "OUTPUTS CHANGED")
                     + f" vs the committed reference ({same} source)")
    history[key] = {"digest": found, "src": src}
    history_path.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n")
    return error, "; ".join(notes) or "no reference digest for this seed"


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ridesim" / "__init__.py").is_file():
        print(f"no ridesim source under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S

    run_dir = OUT_ROOT / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    roles = ["setup"] * (SETUPS - 1) + ["measure"] + ["trace"] * args.trace
    try:
        results = [spawn(args, role, i, run_dir, deadline)
                   for i, role in enumerate(roles)]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    workers, measured = results[:SETUPS], results[SETUPS - 1]

    failures = [f for w in results for f in w["failures"]]
    checks = [f"worker {i}: set-up outputs differ from the measured set-up"
              if w["setup_digest"] != measured["setup_digest"] else None
              for i, w in enumerate(results) if w is not measured]
    src = source_digest()
    error, digest_note = compare_digest(args.workload, args.seed, measured["digest"],
                                        source_digest(workload.settings))
    checks.append(error)
    failures += [c for c in checks if c]
    attempted = sum(w["attempted"] for w in results) + len(checks)
    failed = sum(w["failed"] for w in results) + sum(1 for c in checks if c)

    e2e = end_to_end(workload, workers)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "git_sha": git_sha(), "src_sha256": src,
              **measured["record"], "settings": workload.settings,
              "setups": SETUPS, "passes": len(measured["passes"])}
    print(f"ridesim benchmark: {args.workload}, seed {args.seed}")
    for key, value in record.items():
        print(f"  {key}: {json.dumps(value)}")
    print_table(f"end-to-end (median of {len(measured['passes'])} pass(es); "
                f"setup_s median of {SETUPS} set-ups)", e2e)
    work = {k: sum(p[k] for p in measured["passes"]) for k in ("offers", "train_steps")}
    print(f"  work in {len(measured['passes'])} pass(es): {work['offers']} offers, "
          f"{work['train_steps']} train steps")
    print(f"  {'error_rate':<40} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    for failure in failures:
        print(f"  FAILED {failure}")
    print("quality (recorded, not gated):")
    for key, value in measured["quality"].items():
        print(f"  {key}: {json.dumps(value)}")
    print(f"outputs digest {measured['digest']}: {digest_note}")

    summary = {"record": record, "end_to_end": e2e, "failures": failures,
               "attempted": attempted, "failed": failed, "digest": measured["digest"],
               "quality": measured["quality"]}
    if args.trace:
        per_layer = results[-1]["per_layer"]
        print_table("per layer (traced pass)", {k: tuple(v) for k, v in per_layer.items()})
        print(f"intended layer (share of the traced pass, "
              f"{per_layer['trace.wall_s'][0]:.3f} s):")
        for exp in workload.expect:
            share = sum(per_layer[m][0] for m in exp.metrics) / per_layer["trace.wall_s"][0]
            verdict = "as intended" if share > exp.share else "BELOW"
            print(f"  {exp.label}: {share:.3f} (expected > {exp.share}) {verdict}")
        print("ROADMAP baseline cross-check:")
        for name, baseline, where in ROADMAP.get(args.workload, ()):
            value = per_layer[name][0]
            ratio = value / baseline
            note = "" if 0.8 <= ratio <= 1.25 else "  MISMATCH"
            print(f"  {name} ({where}): {value:.4g} vs {baseline:g}, "
                  f"ratio {ratio:.2f}{note}")
        summary["per_layer"] = per_layer
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit}
                   for name, unit in END_TO_END}
    (run_dir / "result.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
