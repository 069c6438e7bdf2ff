"""Output checks and the determinism digest.

Each check returns a list of failure messages; an empty list is a pass. The
benchmark counts failures against attempts instead of stopping, so one bad
artifact shows up as an error rate, not as a missing run.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from ridesim.artifacts import comparable_lines, read_csv_artifact, read_data_lines

# What each stage writes, as the README's command table lists it. Sweep
# point directories are added per run, since their names depend on the values.
STAGE_ARTIFACTS = {
    "synth": ("synthetic_trips.csv",),
    "ingest": ("cleaned_trips.csv", "rejects.csv", "cleaning_report.txt"),
    "fit": ("dist_pickup_x.txt", "dist_pickup_y.txt", "dist_trip_km.txt",
            "time_profile.txt", "driver_averages.csv"),
    "generate": ("rides.csv",),
    "train-bc": ("agent_bc.txt", "bc_report.csv"),
    "train-rl": ("agent_rl.txt", "rl_report.csv"),
    "evaluate": ("daily_counts.csv", "acceptance_by_hour.csv",
                 "acceptance_by_distance.csv", "correlations.txt"),
    "sweep": ("sweep/summary.csv",),
}
SWEEP_POINT_ARTIFACTS = ("agent_rl.txt", "rl_report.csv", "daily_counts.csv",
                         "acceptance_by_hour.csv", "acceptance_by_distance.csv")


def stage_artifacts(stage: str, config: dict) -> list:
    names = list(STAGE_ARTIFACTS.get(stage, ()))
    if stage == "sweep":
        leaf = config["sweep"]["param"].split(".")[-1]
        for value in config["sweep"]["values"]:
            names += [f"sweep/{leaf}={value}/{name}"
                      for name in SWEEP_POINT_ARTIFACTS]
    return names


def check_artifact(path: Path) -> list:
    """The file exists and parses; a CSV keeps its column count on every row."""
    if not path.exists():
        return [f"{path.name}: missing"]
    try:
        if path.suffix == ".csv":
            columns, rows = read_csv_artifact(path)
            short = [i for i, row in enumerate(rows, 1) if len(row) != len(columns)]
            if short:
                return [f"{path.name}: row {short[0]} has the wrong field count"]
        elif not read_data_lines(path):
            return [f"{path.name}: no data lines"]
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        return [f"{path.name}: {exc}"]
    return []


def episode_summary(config, log) -> dict:
    """The counts the episode checks need, taken while the log is at hand."""
    accepted = sum(1 for o in log.offers if int(o.action) == 1)
    return {"generated": log.generated_total, "assigned": log.assigned_total,
            "lost": log.lost_total, "offers": len(log.offers),
            "accepted": accepted, "max_offers": config.max_offers}


def check_episode(s: dict) -> list:
    errors = []
    if s["generated"] != s["assigned"] + s["lost"]:
        errors.append(f"rides not conserved: {s['generated']} generated, "
                      f"{s['assigned']} assigned, {s['lost']} lost")
    if s["offers"] > s["max_offers"] * s["generated"]:
        errors.append(f"{s['offers']} offers exceed {s['max_offers']} per ride "
                      f"for {s['generated']} rides")
    if s["accepted"] != s["assigned"]:
        errors.append(f"{s['accepted']} accepted offers but "
                      f"{s['assigned']} rides assigned")
    return errors


def digest(out_dir: Path, names, extra_lines=()) -> str:
    """sha256 over the comparable lines of the named artifacts, in order."""
    h = hashlib.sha256()
    for name in names:
        path = out_dir / name
        h.update(f"== {name}\n".encode())
        if path.exists():
            h.update("\n".join(comparable_lines(path)).encode())
    for line in extra_lines:
        h.update(f"{line}\n".encode())
    return h.hexdigest()
