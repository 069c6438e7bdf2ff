"""Self-tests of the benchmark: span arithmetic, tracing coverage, checks.

    python3 -m pytest -q bench/selftest.py

Not named test_*.py, so the package's own test run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import worker
from checks import check_artifact, check_episode, digest, episode_summary
from instrument import Patches, SpanTable, Tracer, self_times
from run import END_TO_END
from workloads import BENCH, ROOT, WORKLOADS

from ridesim import sim
from ridesim.artifacts import write_artifact, write_csv_artifact
from ridesim.sim import Action, EpisodeLog, OfferRecord

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_sum_to_root_duration():
    # root [0, 10] > a [1, 4] > c [2, 3];  root > b [5, 9] > d [5, 6], e [7, 8.5]
    names = ["root", "a", "c", "b", "d", "e"]
    parent = np.array([-1, 0, 1, 0, 3, 3])
    start = np.array([0.0, 1.0, 2.0, 5.0, 5.0, 7.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 6.0, 8.5])
    own = self_times(parent, end - start)
    assert own.tolist() == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    assert own.sum() == pytest.approx(10.0)
    table = SpanTable(names, np.arange(6), parent, start, end)
    assert table.by_name()["b"] == (1, 4.0, pytest.approx(1.5))
    assert table.tree_lines()[1] == "root  1  10.000000  3.000000"


def test_tracer_nests_spans_and_covers_the_root():
    tracer = Tracer()

    def leaf():
        time.sleep(0.001)

    def middle():
        tracer.call("leaf", leaf)
        tracer.call("leaf", leaf)

    tracer.call("root", lambda: tracer.call("middle", middle))
    table = tracer.table()
    assert [table.names[i] for i in table.name_id] == ["root", "middle", "leaf", "leaf"]
    assert table.parent.tolist() == [-1, 0, 1, 1]
    assert table.self_time.sum() == pytest.approx(table.duration[0])
    assert table.by_name()["leaf"][0] == 2


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Each workload shrunk to seconds: an untraced pass, then a traced one."""
    runs = {}
    for name, workload in WORKLOADS.items():
        run_dir = tmp_path_factory.mktemp(name)
        kwargs = dict(seconds=0, spawned_at=time.monotonic(), tiny=True)
        measured = worker.run_workload(workload, 5, run_dir, role="measure", **kwargs)
        traced = worker.run_workload(workload, 5, run_dir, role="trace",
                                     baseline=measured, **kwargs)
        runs[name] = (measured, traced)
    return runs


def test_tiny_workloads_pass_their_checks(tiny_runs):
    for name, (measured, traced) in tiny_runs.items():
        assert measured["failures"] == [] and traced["failures"] == [], name
        assert measured["attempted"] > len(WORKLOADS[name].timed)


def test_every_listed_function_is_wrapped_and_called(tiny_runs):
    listed = {name for name, _ in worker.FUNCTION_METRICS}
    wrapped = set(tiny_runs["quickstart"][1]["wrapped"])
    assert listed <= wrapped
    assert "sim.advance" not in wrapped
    called = set().union(*(traced["called"] for _, traced in tiny_runs.values()))
    assert listed - called == set()


def test_tracing_is_removed_after_a_run(tiny_runs):
    agent_cls = worker.cli.CategoricalQAgent
    for fn in (sim.run_episode, worker.cli.run_episode, worker.cli.load_config,
               agent_cls.__dict__["train_step"], agent_cls.__dict__["load"].__func__):
        assert not hasattr(fn, "__wrapped__")


def test_benchmark_json_names_every_metric(tiny_runs):
    per_layer = tiny_runs["city-eval"][1]["per_layer"]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(per_layer)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [n for n, _ in END_TO_END]
    for w in BENCHMARK["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


def _offer(action):
    return OfferRecord(minute=0, driver_id=0, obs=np.zeros(6), action=action,
                       reward=0.0, goal_trips=1, ride=None)


class _Config:
    max_offers = 2


def test_episode_checks_reject_a_corrupted_log():
    log = EpisodeLog(weeks=1, start_dow=0, daily_generated=[2],
                     daily_assigned=[1], daily_lost=[1],
                     offers=[_offer(Action.REJECT), _offer(Action.ACCEPT)])
    assert check_episode(episode_summary(_Config, log)) == []

    lost_ride = EpisodeLog(**{**vars(log), "daily_lost": [0]})
    assert "not conserved" in check_episode(episode_summary(_Config, lost_ride))[0]
    extra_offers = EpisodeLog(**{**vars(log), "offers": [_offer(Action.REJECT)] * 5})
    errors = check_episode(episode_summary(_Config, extra_offers))
    assert any("exceed" in e for e in errors)
    assert any("accepted offers" in e for e in errors)


def test_artifact_checks_reject_truncated_files(tmp_path):
    csv_path = tmp_path / "daily_counts.csv"
    write_csv_artifact(csv_path, ["day", "count"], [["0", "5"], ["1", "7"]],
                       "0", "digest", 1)
    assert check_artifact(csv_path) == []
    text = csv_path.read_text()
    csv_path.write_text(text[:text.rindex(",")] + "\n")
    assert "field count" in check_artifact(csv_path)[0]
    csv_path.write_text("".join(text.splitlines(True)[:4]))
    assert "no data" in check_artifact(csv_path)[0]

    txt_path = tmp_path / "correlations.txt"
    write_artifact(txt_path, [], "0", "digest", 1)
    assert "no data lines" in check_artifact(txt_path)[0]
    assert "missing" in check_artifact(tmp_path / "absent.csv")[0]


def test_digest_ignores_only_the_written_line(tmp_path):
    path = tmp_path / "a.txt"
    write_artifact(path, ["x 1"], "0", "digest", 1)
    first = digest(tmp_path, ["a.txt"])
    path.write_text(path.read_text().replace("# written", "# written 1999 "))
    assert digest(tmp_path, ["a.txt"]) == first
    write_artifact(path, ["x 2"], "0", "digest", 1)
    assert digest(tmp_path, ["a.txt"]) != first


def test_patches_reach_every_binding_and_restore():
    original = sim.run_episode
    marker = lambda *a: None  # noqa: E731
    patches = Patches()
    assert patches.replace(original, marker) >= 3  # sim, training, cli, package
    assert worker.cli.run_episode is marker
    patches.restore()
    assert worker.cli.run_episode is original and sim.run_episode is original


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:],
                           "--workload", "quickstart", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".bench_out").exists()
