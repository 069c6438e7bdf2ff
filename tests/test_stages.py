"""The stage table, `cli.STAGES`: each command's files depend on the
config keys its row reads and on nothing else, it asks for the inputs its
row needs and writes the files its row lists, and README's command table
is the same table."""

import json
import re
import shutil
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
import yaml

from ridesim import cli
from ridesim.artifacts import comparable_lines, write_csv_artifact
from ridesim.config import (Config, config_from_dict, config_hash,
                            config_to_dict, load_config)
from ridesim.ingest import (LOG_COLUMNS, TripRecord, extract_demonstrations,
                            record_to_row, training_window)
from ridesim.metrics import acceptance_by_distance, acceptance_by_hour

TINY = {
    "seed": 5,
    "demand": {"scale_factor": 2.0, "holdout_days": 7},
    "sim": {"driver_count": 6, "weeks": 1},
    "agent": {"hidden": [16, 16], "atom_count": 11},
    "bc": {"iterations": 1, "batch_size": 32},
    "rl": {"iterations": 1},
    "evaluate": {"replications": 1},
    "synth": {"driver_count": 8, "days": 14, "offers_per_driver_day": 5.0},
    "sweep": {"param": "platform.peak_fare_multiplier", "values": [3.0]},
}
SWEEP_POINT = "sweep/peak_fare_multiplier=3.0/"
pytestmark = pytest.mark.filterwarnings("ignore:single replication")

# valid values unlike the base run's, where adding to a number will not do
_OTHER = {"synth.start": "2026-02-09T00:00", "sweep.param": "rl.patience",
          "platform.peak_hours": [[7, 9]], "sim.initial_weekly_trips": 3}


def _other(key, value):
    if key in _OTHER:
        return _OTHER[key]
    if isinstance(value, list):
        return [v + 1 for v in value] or [1]
    if isinstance(value, float):
        return value / 2 if value else 0.5
    return value + 1


def _in_row(key, reads):
    return key.partition(".")[0] in reads or key in reads


def _resolved(path) -> dict:
    return json.loads(json.dumps(config_to_dict(load_config(path))))


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Every command once, in table order, on a tiny config."""
    root = tmp_path_factory.mktemp("stages")
    out = root / "base"
    cfg_path = root / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({**TINY, "paths": {
        "out_dir": str(out), "trip_log": str(out / "synthetic_trips.csv")}}))
    for command in cli.STAGES:
        assert cli.main([command, "--config", str(cfg_path)]) == 0, command
    return cfg_path, out


def _rerun(base, tmp_path, command, change, monkeypatch):
    """`command` rerun in a copy of the base run's directory, on the base
    config changed by `change(key, value)` for each dotted key it returns
    a value for; (copy, the inputs it asked for, the files it wrote)."""
    cfg_path, out = base
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    data = _resolved(cfg_path)
    for section, values in data.items():
        for key, value in values.items() if isinstance(values, dict) else ():
            new = change(f"{section}.{key}", value)
            if new is not None:
                values[key] = new
    variant = tmp_path / "variant.yaml"
    variant.write_text(yaml.safe_dump(data))
    needed, written = set(), set()
    need, write = cli._Run.need, cli._Run.write

    def recorded_need(run, name):
        needed.add(name)
        return need(run, name)

    def recorded_write(run, name, lines):
        written.add((run.out / name).relative_to(copy).as_posix())
        write(run, name, lines)

    monkeypatch.setattr(cli._Run, "need", recorded_need)
    monkeypatch.setattr(cli._Run, "write", recorded_write)
    assert cli.main([command, "--config", str(variant),
                     "--out", str(copy)]) == 0
    return copy, needed, written


@pytest.mark.parametrize("command", list(cli.STAGES))
def test_files_depend_only_on_the_keys_in_their_row(base, tmp_path,
                                                    monkeypatch, command):
    stage = cli.STAGES[command]
    varied = []

    def change(key, value):
        if key == "paths.trip_log":   # another path to the same log
            return str(tmp_path / "copy" / "synthetic_trips.csv")
        if key == "paths.out_dir" or _in_row(key, stage.reads):
            return None
        varied.append(key)
        return _other(key, value)

    copy, needed, written = _rerun(base, tmp_path, command, change,
                                   monkeypatch)
    assert len(varied) >= 15, varied
    assert needed == set(stage.needs)
    expected = set(stage.writes)
    if command == "sweep":
        point = cli.STAGES["train-rl"].writes + cli.STAGES["evaluate"].writes
        expected |= {SWEEP_POINT + name for name in point
                     if name != "correlations.txt"}
    assert written == expected
    _, out = base
    for name in written:
        assert comparable_lines(copy / name) == comparable_lines(out / name), \
            f"{command} wrote another {name} with {varied} changed"


@pytest.mark.parametrize("command, key, value", [
    ("synth", "synth.days", 13), ("evaluate", "platform.fare_per_km", 90.0),
    ("train-bc", "demand.holdout_days", 6),
    ("train-rl", "rl.exploration", 0.2)])
def test_a_key_in_its_row_changes_its_config_line(base, tmp_path, monkeypatch,
                                                  command, key, value):
    assert _in_row(key, cli.STAGES[command].reads)
    copy, _, written = _rerun(base, tmp_path, command,
                              lambda k, v: value if k == key else None,
                              monkeypatch)
    _, out = base
    for name in written:
        old, new = comparable_lines(out / name), comparable_lines(copy / name)
        assert old[1].startswith("# config ") and new[1] != old[1], name


@pytest.mark.parametrize("command", list(cli.STAGES))
def test_every_key_of_a_row_enters_its_digest(command):
    reads = cli.STAGES[command].reads
    data = json.loads(json.dumps(config_to_dict(Config())))
    keys = [f"{s}.{k}" for s, v in data.items() if isinstance(v, dict)
            for k in v if _in_row(f"{s}.{k}", reads)]
    assert keys
    for key in keys:
        section, name = key.split(".")
        changed = config_from_dict(
            {section: {name: _other(key, data[section][name])}})
        assert config_hash(changed, reads) != config_hash(Config(), reads), key
    # what no row reads never enters a digest
    moved = config_from_dict({"seed": 99, "paths": {"out_dir": "elsewhere"}})
    assert config_hash(moved, reads) == config_hash(Config(), reads)


def test_writing_an_artifact_no_row_lists_raises(tmp_path):
    with pytest.raises(KeyError, match="notes.txt"):
        cli._Run(Config(), tmp_path).write("notes.txt", ["x"])
    assert not (tmp_path / "notes.txt").exists()


def test_a_missing_input_names_the_row_that_writes_it(tmp_path):
    for stage in cli.STAGES.values():
        for name in stage.needs:
            producer = next(c for c, s in cli.STAGES.items()
                            if name in s.writes)
            with pytest.raises(cli.PipelineError,
                               match=f"run `ridesim {producer}` first"):
                cli._Run(Config(), tmp_path).need(name)


def test_readme_command_table_is_the_stage_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    table = readme.split("## Commands and artifacts", 1)[1].split("\n\n")[1]
    rows = {}
    for line in table.splitlines()[2:]:
        command, *cells = (cell.strip() for cell in line.strip("|").split("|"))
        rows[command.strip("`")] = [set(re.findall(r"`([^`]+)`", cell))
                                    for cell in cells]
    assert list(rows) == list(cli.STAGES)
    for command, stage in cli.STAGES.items():
        assert rows[command] == [set(stage.reads), set(stage.needs),
                                 set(stage.writes)], command


def test_sweep_varies_seed_and_what_its_stages_read_but_fit_did_not():
    data = json.loads(json.dumps(config_to_dict(Config())))
    keys = ["seed"] + [f"{s}.{k}" for s, v in data.items()
                       if isinstance(v, dict) for k in v]
    refusals = {}
    for key in keys:
        try:
            cli.cmd_sweep(cli._Run(config_from_dict(
                {"sweep": {"param": key}}), Path("unused")), None)
        except cli.PipelineError as exc:
            refusals[key] = str(exc)
    varied = {key for key, error in refusals.items()
              if error == "sweep.values is empty"}
    assert varied == {key for key in keys if key == "seed" or
                      key.split(".")[0] in ("platform", "sim", "rl",
                                            "evaluate")}
    for key, reason in [
            ("grid.width_km", "fit fixed it in the fitted files"),
            ("demand.holdout_days", "fit fixed it in the fitted files"),
            ("demand.scale_factor", "neither train-rl nor evaluate reads it"),
            ("bc.iterations", "neither train-rl nor evaluate reads it"),
            ("paths.out_dir", "neither train-rl nor evaluate reads it")]:
        assert refusals[key].startswith(f"sweep cannot vary {key}: {reason}")


def _log_of_every_status(days=21, drivers=3, offers_per_day=6, seed=3):
    """Trips on every day for every driver, so each driver's offers straddle
    any split; statuses of every kind and trips past the distance bins."""
    rng = np.random.default_rng(seed)
    first = datetime(2026, 2, 2)
    records = []
    for day in range(days):
        for d in range(drivers):
            for i in range(offers_per_day):
                created = first + timedelta(days=day, minutes=int(
                    rng.integers(24 * 60)))
                status = str(rng.choice(["rejected", "cancelled",
                                         "completed", "accepted"]))
                records.append(TripRecord(
                    f"d{d}", f"t{day}-{d}-{i}", created, created, created,
                    created + timedelta(minutes=4)
                    if status == "completed" else None,
                    *(float(v) for v in rng.uniform(0.0, 0.08, 4)),
                    float(rng.uniform(0, 3)), float(rng.uniform(0, 24)),
                    status, "cash"))
    return records


def test_fit_bins_the_held_out_rows_as_the_replayed_decisions(tmp_path):
    """holdout.txt's curves are those of the held-out window's decisions as
    train-bc's log replay builds them."""
    records = _log_of_every_status()
    assert {r.status for r in records} == {"rejected", "cancelled",
                                           "completed", "accepted"}
    write_csv_artifact(tmp_path / "cleaned_trips.csv", LOG_COLUMNS,
                       map(record_to_row, records), "test", "digest", 0)
    assert cli.main(["fit", "--out", str(tmp_path)]) == 0
    cfg = Config()
    _, window = training_window(records, cfg.demand.holdout_days)
    decisions = [t for traj in extract_demonstrations(
                     records, cfg.platform, cfg.grid, window=window,
                     speed_kmh=cfg.sim.speed_kmh) for t in traj.transitions]
    hour, dist = acceptance_by_hour(decisions), acceptance_by_distance(decisions)
    assert 0 < sum(hour.accepted) < sum(hour.offers) == len(decisions)
    assert dist.offers[-1] > 0   # the overflow bin
    lines = dict(line.split(" ", 1) for line in comparable_lines(
        tmp_path / "holdout.txt") if not line.startswith("#"))
    for key, counts in [("hour_offers", hour.offers),
                        ("hour_accepted", hour.accepted),
                        ("distance_offers", dist.offers),
                        ("distance_accepted", dist.accepted)]:
        assert lines[key] == " ".join(map(str, counts)), key
