"""Golden output of the synthetic log and of its demonstration replay.

The hashes pin every synthetic record (timestamps, coordinates, distances,
status, payment) and every extracted transition (observation bytes, action,
reward, next observation, terminal flag) bit for bit. One spec is sparse
enough that a driver sits out a whole week, so the weekly goal rolls over
twice between two offers; the other replays through a window that starts
after the first record. They were recorded before the log replay moved to
one driver ledger and must not be updated to fit a change that is meant to
keep outputs identical.
"""

import dataclasses
import hashlib
from datetime import timedelta

import pytest

from ridesim.ingest import extract_demonstrations
from ridesim.ridegen import GridSpec
from ridesim.sim import PlatformParams
from ridesim.synth import SyntheticLogSpec, generate_synthetic_log

GRID = GridSpec(width_km=9.0, height_km=7.0, origin_lat=6.9, origin_lon=79.86)
PARAMS = PlatformParams(default_weekly_goal=3, weekly_target_multiplier=1.5)
SPEED_KMH = 24.0


def records_digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(("|".join(repr(v) for v in dataclasses.astuple(rec))
                  + "\n").encode())
    return h.hexdigest()


def transitions_digest(trajectories) -> str:
    h = hashlib.sha256()
    for traj in trajectories:
        for t in traj.transitions:
            h.update(f"{traj.driver_id} {t.obs.tobytes().hex()} "
                     f"{int(t.action)} {t.reward!r} "
                     f"{t.next_obs.tobytes().hex()} {t.terminal}\n".encode())
    return h.hexdigest()


def skipped_weeks(records, origin) -> int:
    """Most whole weeks, counted from `origin`, that any driver went
    without an offer between two of its offers."""
    weeks: dict = {}
    for rec in records:
        weeks.setdefault(rec.driver_id, []).append(
            (rec.created_time - origin).days // 7)
    return max(b - a - 1 for ws in weeks.values()
               for a, b in zip(sorted(ws), sorted(ws)[1:]))


GOLDEN = {
    # Sparse: about one offer a week, so some driver skips a whole week.
    "sparse": (SyntheticLogSpec(driver_count=4, days=35,
                                offers_per_driver_day=0.2, bias=3.0,
                                weight_idle_minutes=-0.01), 2, None,
               "95aa197e6292fc50ba7cbc1e60b01e24ec0ccf1e383bafd359c9e3539f1c666a",
               "0ea327e9745795a7098c16f1949b6137909412a4baf39b1a7900cc51be11e81d"),
    # Busy, replayed through a window that starts on the third day.
    "windowed": (SyntheticLogSpec(driver_count=3, days=16,
                                  offers_per_driver_day=6.0), 9, (2, 15),
                 "c0a90e8fe1780ad0796605c05e1cc7748a9b3721e1905444740da8e1926918ab",
                 "7ed708065e8dc1d3db8328f414a9b1e93c4789d660fb4b8d4380cc66562cb1b9"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_log_and_replay_match_golden_hashes(name):
    spec, seed, days, log_golden, replay_golden = GOLDEN[name]
    records = generate_synthetic_log(spec, GRID, PARAMS, SPEED_KMH, seed)
    window = None
    if days is not None:
        start = spec.start_time()
        window = (start + timedelta(days=days[0]),
                  start + timedelta(days=days[1]))
    trajectories = extract_demonstrations(records, PARAMS, GRID,
                                          window=window, speed_kmh=SPEED_KMH)
    if name == "sparse":
        # both the log's weeks and the replay's (from the first offer)
        assert skipped_weeks(records, spec.start_time()) >= 1
        assert skipped_weeks(records, records[0].created_time) >= 1
    assert records_digest(records) == log_golden
    assert transitions_digest(trajectories) == replay_golden
