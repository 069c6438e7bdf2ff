"""The stage table, `cli.STAGES`: each command's files depend on the
config keys its row reads and on nothing else, it asks for the inputs its
row needs and writes the files its row lists, and README's command table
is the same table."""

import json
import re
import shutil
from pathlib import Path

import pytest
import yaml

from ridesim import cli
from ridesim.artifacts import comparable_lines
from ridesim.config import (Config, config_from_dict, config_hash,
                            config_to_dict, load_config)

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
