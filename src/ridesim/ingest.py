"""Trip log ingestion.

Log schema (delimiter-separated text, fixed column order):

    driver_id, trip_id, created_time, assigned_time, decision_time,
    pickup_time, pickup_lat, pickup_lon, drop_lat, drop_lon,
    pickup_distance_km, trip_distance_km, status, payment_method

Timestamps are ISO-8601 UTC at minute precision (2026-02-02T06:30).
pickup_time may be empty for trips that never reached a pickup. status is
one of accepted, rejected, completed, cancelled. Lines starting with '#'
are metadata and skipped.

Parsing is strict per row and collects unusable rows into a rejects list
instead of failing the file. Cleaning then removes duplicate trip ids,
records with missing or inconsistent required values, and pickups outside
the service region, counting each removal under its first matching reason.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from datetime import datetime, timedelta
from typing import Iterable, Sequence

import numpy as np

from .artifacts import csv_rows
from .ridegen import GridSpec
from .sim import (F_DROP_CENTER_KM, F_IDLE_MINUTES, F_MINUTE_OF_DAY,
                  F_PICKUP_KM, F_TRIP_KM, F_TRIPS_TO_GOAL, OBS_DIM, Action,
                  PlatformParams, SimSettings, Trajectory, chain_transitions,
                  reward_from_observation, travel_minutes, weekly_goal)

STATUSES = ("accepted", "rejected", "completed", "cancelled")
# half the Earth's circumference: no road trip is longer
MAX_DISTANCE_KM = 20_000

TIME_FORMAT = "%Y-%m-%dT%H:%M"


def format_minute(t: datetime) -> str:
    """`t` in TIME_FORMAT; unlike strftime, zero-pads years before 1000."""
    return t.isoformat(timespec="minutes")


# Zero-padded timestamps in ASCII digits, which datetime.fromisoformat reads
# exactly as the strptime formats below do, about ten times faster. Hours past
# 23 are left to strptime, which rejects them, since some Python versions read
# "24:00" as the next midnight.
_CANONICAL_TIME = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}T(?:[01][0-9]|2[0-3]):[0-9]{2}(?::[0-9]{2})?")


def parse_minute(text: str) -> datetime:
    if _CANONICAL_TIME.fullmatch(text):
        try:
            return datetime.fromisoformat(text)
        except ValueError:
            raise ValueError(f"bad timestamp {text!r}") from None
    for fmt in (TIME_FORMAT, "%Y-%m-%dT%H:%M:%S"):
        try:
            return datetime.strptime(text, fmt)
        except ValueError:
            continue
    raise ValueError(f"bad timestamp {text!r}")


@dataclass(slots=True)
class TripRecord:
    driver_id: str
    trip_id: str
    created_time: datetime
    assigned_time: datetime
    decision_time: datetime
    pickup_time: datetime | None
    pickup_lat: float
    pickup_lon: float
    drop_lat: float
    drop_lon: float
    pickup_distance_km: float
    trip_distance_km: float
    status: str
    payment_method: str

    def accepted(self) -> bool:
        """The driver said yes, whatever happened to the trip afterwards."""
        return self.status != "rejected"

    def issues(self) -> list:
        """Required-value problems that parsing alone cannot reject."""
        problems = []
        if self.status == "completed" and self.pickup_time is None:
            problems.append("completed trip without pickup_time")
        if not (self.created_time <= self.assigned_time <= self.decision_time):
            problems.append("timestamps out of order")
        return problems


# the log's columns, in order, are TripRecord's fields
LOG_COLUMNS = [f.name for f in fields(TripRecord)]


@dataclass(frozen=True)
class RejectedRow:
    row_number: int
    reason: str


@dataclass
class CleaningReport:
    input_count: int = 0
    duplicate_count: int = 0
    missing_field_count: int = 0
    out_of_region_count: int = 0
    retained_count: int = 0

    def to_lines(self) -> list:
        return [f"input {self.input_count}",
                f"duplicates {self.duplicate_count}",
                f"missing_or_inconsistent {self.missing_field_count}",
                f"out_of_region {self.out_of_region_count}",
                f"retained {self.retained_count}"]


def _parse_row(row: Sequence[str], times: dict, texts: dict) -> TripRecord:
    """One data row as a TripRecord, field by position; the first failed
    check raises ValueError naming its column.

    Equal timestamps share one datetime from `times`, and equal driver ids,
    statuses and payment methods one str from `texts`, keyed by their text:
    a log repeats these values on many rows.
    """
    if len(row) != len(LOG_COLUMNS):
        raise ValueError(f"expected {len(LOG_COLUMNS)} columns, got {len(row)}")
    vals = [v.strip() for v in row]
    for i in (0, 1, 13):  # driver_id, trip_id, payment_method
        if not vals[i]:
            raise ValueError(f"missing {LOG_COLUMNS[i]}")
        # input validation: a logged id or payment method is one line
        if vals[i].splitlines() != [vals[i]]:
            raise ValueError(f"line break in {LOG_COLUMNS[i]}")
    for i in range(2, 6):  # created, assigned, decision and pickup time
        if i == 5 and not vals[i]:  # pickup_time may be empty
            vals[i] = None
            continue
        text = vals[i]
        if text not in times:
            try:
                times[text] = parse_minute(text)
            except ValueError:
                raise ValueError(f"bad {LOG_COLUMNS[i]} {text!r}")
        vals[i] = times[text]
    for i in range(6, 12):  # pickup and drop coordinates, then distances
        try:
            vals[i] = float(vals[i])
        except ValueError:
            raise ValueError(f"non-numeric {LOG_COLUMNS[i]} {vals[i]!r}")
        if not math.isfinite(vals[i]):
            raise ValueError(f"non-finite {LOG_COLUMNS[i]}")
    for i in (10, 11):
        if vals[i] < 0:
            raise ValueError(f"negative {LOG_COLUMNS[i]}")
        if vals[i] > MAX_DISTANCE_KM:
            raise ValueError(f"{LOG_COLUMNS[i]} over {MAX_DISTANCE_KM} km")
    if vals[12] not in STATUSES:
        raise ValueError(f"unknown status {vals[12]!r}")
    for i in (0, 12, 13):
        vals[i] = texts.setdefault(vals[i], vals[i])
    return TripRecord(*vals)


def parse_trip_log(lines: Iterable[str]) -> tuple[list, list]:
    """Parse log lines into (records, rejects).

    The header row must match the schema exactly; a missing or wrong header
    fails the whole file, and so does a row the CSV reader cannot split.
    Data rows that cannot be parsed become RejectedRow entries numbered
    from 1 in data-row order.
    """
    reader = csv_rows(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty trip log")
    if [h.strip() for h in header] != LOG_COLUMNS:
        raise ValueError("trip log header does not match the expected schema")
    records, rejects = [], []
    times, texts = {}, {}
    for number, row in enumerate(reader, start=1):
        try:
            records.append(_parse_row(row, times, texts))
        except ValueError as exc:
            rejects.append(RejectedRow(row_number=number, reason=str(exc)))
    return records, rejects


def read_trip_log(path) -> tuple[list, list]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return parse_trip_log(fh)
    except ValueError as exc:  # UnicodeDecodeError among them
        raise ValueError(f"{path}: {exc}") from None


def clean(records: Sequence[TripRecord],
          region: tuple[float, float, float, float]) -> tuple[list, CleaningReport]:
    """Drop duplicates, inconsistent records and out-of-region pickups.

    region is (min_lat, min_lon, max_lat, max_lon), bounds inclusive. Each
    removed record counts under exactly one reason, checked in the order
    duplicate, missing value, out of region. Keeps first occurrence per
    trip_id. Cleaning already-clean records removes nothing.
    """
    min_lat, min_lon, max_lat, max_lon = region
    report = CleaningReport(input_count=len(records))
    seen = set()
    kept = []
    for rec in records:
        if rec.trip_id in seen:
            report.duplicate_count += 1
            continue
        seen.add(rec.trip_id)
        if rec.issues():
            report.missing_field_count += 1
            continue
        if not (min_lat <= rec.pickup_lat <= max_lat
                and min_lon <= rec.pickup_lon <= max_lon):
            report.out_of_region_count += 1
            continue
        kept.append(rec)
    report.retained_count = len(kept)
    return kept, report


def record_to_row(rec: TripRecord) -> list:
    return [rec.driver_id, rec.trip_id,
            format_minute(rec.created_time),
            format_minute(rec.assigned_time),
            format_minute(rec.decision_time),
            format_minute(rec.pickup_time) if rec.pickup_time else "",
            f"{rec.pickup_lat:.6f}", f"{rec.pickup_lon:.6f}",
            f"{rec.drop_lat:.6f}", f"{rec.drop_lon:.6f}",
            f"{rec.pickup_distance_km:.6f}", f"{rec.trip_distance_km:.6f}",
            rec.status, rec.payment_method]


def log_span(records: Sequence[TripRecord]) -> tuple[datetime, datetime]:
    """(first, last) created_time over the records."""
    if not records:
        raise ValueError("no records")
    times = [r.created_time for r in records]
    return min(times), max(times)


def window_records(records: Sequence[TripRecord], window) -> list:
    if window is None:
        return list(records)
    start, end = window
    return [r for r in records if start <= r.created_time < end]


def training_window(records: Sequence[TripRecord],
                    holdout_days: int = 7) -> tuple[tuple, tuple]:
    """Split the log span into (training, holdout) half-open windows.

    Both windows are aligned to midnight of the first record's date so that
    week bookkeeping starts at a day boundary; the holdout covers the final
    `holdout_days` calendar days.
    """
    first, last = log_span(records)
    start = datetime.combine(first.date(), datetime.min.time())
    end = datetime.combine(last.date(), datetime.min.time()) + timedelta(days=1)
    split = end - timedelta(days=holdout_days)
    if split <= start:
        raise ValueError("log too short to hold out "
                         f"{holdout_days} days")
    return (start, split), (split, end)


def driver_weekly_averages(records: Sequence[TripRecord]) -> dict:
    """Mean completed trips per week for each driver over the record span.

    Used to seed simulated drivers' prior-week counts so weekly goals start
    from demonstrated behavior.
    """
    if not records:
        return {}
    start, end = log_span(records)
    weeks = max(1.0, ((end - start).days + 1) / 7.0)
    counts: dict = {}
    for rec in records:
        counts.setdefault(rec.driver_id, 0)
        if rec.status == "completed":
            counts[rec.driver_id] += 1
    return {driver: count / weeks for driver, count in sorted(counts.items())}


class DriverLedger:
    """One driver's bookkeeping while its log is replayed in offer order.

    The weekly goal starts at the platform default and, at each whole week
    from `reference`, becomes `weekly_goal` of the trips completed in the
    week just ended. A trip counts toward the week of its offer, not of its
    completion as in `sim.Fleet`. Idle minutes run from `reference`, then
    from the latest completion.
    """

    def __init__(self, params: PlatformParams, grid: GridSpec,
                 reference: datetime):
        self.multiplier = params.weekly_target_multiplier
        self.center = grid.center()
        self.reference = reference
        self.goal = weekly_goal(params.default_weekly_goal, self.multiplier)
        self.completed = 0
        self.week = 0
        self.last_completion = reference

    def observe(self, created: datetime, pickup_km: float, trip_km: float,
                drop_x: float, drop_y: float) -> np.ndarray:
        """The offer's observation (see `sim.FEATURES`), after rolling the
        goal over every week boundary since the previous offer."""
        offer_week = (created - self.reference).days // 7
        while self.week < offer_week:
            self.week += 1
            self.goal = weekly_goal(self.completed, self.multiplier)
            self.completed = 0
        cx, cy = self.center
        obs = np.empty(OBS_DIM)
        obs[F_PICKUP_KM], obs[F_TRIP_KM] = pickup_km, trip_km
        obs[F_MINUTE_OF_DAY] = created.hour * 60 + created.minute
        obs[F_TRIPS_TO_GOAL] = max(0, self.goal - self.completed)
        obs[F_DROP_CENTER_KM] = math.hypot(drop_x - cx, drop_y - cy)
        obs[F_IDLE_MINUTES] = max(0, int((created - self.last_completion)
                                         .total_seconds() // 60))
        return obs

    def complete(self, t: datetime) -> None:
        """Count a trip completed at `t`; the idle clock restarts there."""
        self.last_completion = t
        self.completed += 1


def extract_demonstrations(records: Sequence[TripRecord],
                           params: PlatformParams,
                           grid: GridSpec,
                           window=None,
                           speed_kmh: float = SimSettings.speed_kmh) -> list:
    """Rebuild per-driver decision trajectories from a cleaned log.

    Offers are replayed per driver in time order through a DriverLedger.
    Observations come from the logged distances, timestamps and drop
    coordinates plus the ledger's weekly-goal and idle bookkeeping; rewards
    are recomputed from the same economics the simulator uses. Completion
    times are estimated as pickup time plus trip travel time at the
    constant speed, which is what feeds the idle-gap feature of the
    following offer. Each trajectory ends in a terminal transition.
    """
    selected = window_records(records, window)
    if not selected:
        raise ValueError("no records in the demonstration window")
    if window is not None:
        reference = window[0]
    else:
        reference = min(r.created_time for r in selected)

    by_driver: dict = {}
    for rec in selected:
        by_driver.setdefault(rec.driver_id, []).append(rec)

    trajectories = []
    for driver_id in sorted(by_driver):
        ledger = DriverLedger(params, grid, reference)
        steps = []  # (obs, action, reward)
        for rec in sorted(by_driver[driver_id],
                          key=lambda r: (r.created_time, r.trip_id)):
            obs = ledger.observe(rec.created_time, rec.pickup_distance_km,
                                 rec.trip_distance_km,
                                 *grid.to_xy(rec.drop_lat, rec.drop_lon))
            action = Action.ACCEPT if rec.accepted() else Action.REJECT
            steps.append((obs, action, reward_from_observation(
                params, obs, ledger.goal, action)))
            if rec.status == "completed" and rec.pickup_time is not None:
                minutes = travel_minutes(rec.trip_distance_km, speed_kmh)
                try:   # past datetime.max
                    done = rec.pickup_time + timedelta(minutes=minutes)
                except OverflowError:
                    raise ValueError(f"trip {rec.trip_id} would end after the "
                                     "last date a datetime holds") from None
                ledger.complete(done)
        trajectories.append(Trajectory(driver_id=driver_id,
                                       transitions=chain_transitions(steps)))
    return trajectories
