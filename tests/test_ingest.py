import csv
import io
from datetime import datetime, timedelta

import numpy as np
import pytest

from helpers import observation, reconciles
from ridesim.ingest import (CleaningReport, LOG_COLUMNS, TIME_FORMAT,
                            TripRecord, clean,
                            driver_weekly_averages, extract_demonstrations,
                            format_minute, log_span, parse_minute,
                            parse_trip_log, read_trip_log, record_to_row,
                            training_window, window_records)
from ridesim.ridegen import GridSpec
from ridesim.sim import Action, PlatformParams, reward_from_observation
from ridesim.synth import SyntheticLogSpec, generate_synthetic_log

HEADER = ",".join(LOG_COLUMNS)


def csv_row(driver="d1", trip="t1", created="2026-02-02T08:00",
            assigned=None, decision=None, pickup="",
            plat="0.01", plon="0.01", dlat="0.02", dlon="0.02",
            pdist="1.0", tdist="2.0", status="rejected", pay="cash"):
    assigned = assigned or created
    decision = decision or created
    return ",".join([driver, trip, created, assigned, decision, pickup,
                     plat, plon, dlat, dlon, pdist, tdist, status, pay])


def make_record(driver="d1", trip="t1", created=datetime(2026, 2, 2, 8, 0),
                pickup_time=None, plat=0.01, plon=0.01, dlat=0.02, dlon=0.02,
                pdist=1.0, tdist=2.0, status="rejected", decision_shift=1):
    return TripRecord(driver_id=driver, trip_id=trip, created_time=created,
                      assigned_time=created,
                      decision_time=created + timedelta(minutes=decision_shift),
                      pickup_time=pickup_time, pickup_lat=plat,
                      pickup_lon=plon, drop_lat=dlat, drop_lon=dlon,
                      pickup_distance_km=pdist, trip_distance_km=tdist,
                      status=status, payment_method="cash")


def _or_none(parse, *args):
    """The parsed value, or None when parsing raises ValueError."""
    try:
        return parse(*args)
    except ValueError:
        return None


class TestTimestamps:
    def test_roundtrip(self):
        for year in (2026, 999, 1):
            t = datetime(year, 2, 2, 8, 5)
            assert parse_minute(format_minute(t)) == t

    def test_seconds_tolerated(self):
        assert parse_minute("2026-02-02T08:05:30") == datetime(2026, 2, 2, 8, 5, 30)

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_minute("02/02/2026 08:05")

    def test_canonical_strings_parse_as_strptime_does(self):
        # Every field pattern of the zero-padded form, in and out of range:
        # the value, or the rejection, must be the strptime one.
        rng = np.random.default_rng(5)
        for _ in range(3000):
            year, month, day, hour, minute, second = (
                int(rng.integers(lo, hi)) for lo, hi in
                ((1, 9999), (0, 14), (0, 33), (0, 25), (0, 62), (0, 62)))
            text = f"{year:04d}-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}"
            for text, fmt in ((text, TIME_FORMAT),
                              (f"{text}:{second:02d}", "%Y-%m-%dT%H:%M:%S")):
                assert _or_none(parse_minute, text) == \
                    _or_none(datetime.strptime, text, fmt), text

    def test_unpadded_fields_still_parse(self):
        assert parse_minute("2024-3-5T1:7") == datetime(2024, 3, 5, 1, 7)

    @pytest.mark.parametrize("text", ["2024-01-01T24:00", "2024-02-30T10:00",
                                      "2023-02-29T00:00", "2024-01-01T10:60",
                                      "2024-01-01T10:00:60", "2024-01-01 10:00",
                                      "2024-01-01T10:00\n",
                                      "\u00b2\u2070\u00b2\u2074-01-01T10:00"])
    def test_rejects_impossible_or_foreign_times(self, text):
        with pytest.raises(ValueError, match="bad timestamp"):
            parse_minute(text)

    @pytest.mark.parametrize("text", [
        "\u0662\u0660\u0662\u0664-\u0660\u0661-\u0660\u0662T\u0661\u0660:\u0663\u0660",
        "\uff12\uff10\uff12\uff14-01-02T10:30"])
    def test_non_ascii_decimal_digits_keep_the_strptime_reading(self, text):
        # Only ASCII digits take the fromisoformat path; other decimal digits
        # are left to strptime, which reads them in a year but rejects them
        # in the other fields, as before.
        assert _or_none(parse_minute, text) == \
            _or_none(datetime.strptime, text, TIME_FORMAT)


class TestParseTripLog:
    def test_valid_rows_parse(self):
        lines = [HEADER,
                 csv_row(trip="t1", status="completed",
                         pickup="2026-02-02T08:05"),
                 csv_row(trip="t2", status="rejected")]
        records, rejects = parse_trip_log(lines)
        assert len(records) == 2 and not rejects
        assert records[0].pickup_time == datetime(2026, 2, 2, 8, 5)
        assert records[1].pickup_time is None
        assert records[0].trip_distance_km == 2.0

    def test_header_must_match(self):
        with pytest.raises(ValueError, match="header"):
            parse_trip_log(["a,b,c", csv_row()])
        with pytest.raises(ValueError, match="empty"):
            parse_trip_log([])

    def test_comments_and_blanks_skipped(self):
        lines = ["# provenance", "", HEADER, "", "# note", csv_row()]
        records, rejects = parse_trip_log(lines)
        assert len(records) == 1 and not rejects

    def test_crlf_log_reads_as_its_lf_copy(self, tmp_path):
        lines = ["# provenance", "", HEADER, csv_row(trip="t1"), "",
                 csv_row(trip="bad", created="not-a-time"),
                 csv_row(trip="t2", pay='"card, visa"'),
                 csv_row(trip="t3", pay='"ca\nsh"'), "too,short"]
        parsed = {}
        for name, end in (("lf", "\n"), ("crlf", "\r\n")):
            path = tmp_path / f"{name}.csv"
            text = "\n".join(lines) + "\n"  # t3's field breaks with `end` too
            path.write_bytes(text.replace("\n", end).encode())
            parsed[name] = read_trip_log(path)
        assert parsed["crlf"] == parsed["lf"]
        records, rejects = parsed["lf"]
        assert [r.trip_id for r in records] == ["t1", "t2"]
        assert records[1].payment_method == "card, visa"
        assert [(r.row_number, r.reason) for r in rejects] == [
            (2, "bad created_time 'not-a-time'"),
            (4, "line break in payment_method"), (5, "expected 14 columns, got 2")]

    def test_rejects_numbered_in_data_row_order(self):
        lines = [HEADER,
                 csv_row(trip="ok1"),
                 csv_row(trip="bad", created="not-a-time"),
                 csv_row(trip="ok2"),
                 "too,short"]
        records, rejects = parse_trip_log(lines)
        assert [r.trip_id for r in records] == ["ok1", "ok2"]
        assert [r.row_number for r in rejects] == [2, 4]
        assert "created_time" in rejects[0].reason
        assert "columns" in rejects[1].reason

    def test_reject_reasons(self):
        bad = [csv_row(trip="", status="rejected"),
               csv_row(pdist="-1.0"),
               csv_row(pdist="nan"),
               csv_row(status="vanished"),
               csv_row(plat="east")]
        _, rejects = parse_trip_log([HEADER] + bad)
        reasons = " | ".join(r.reason for r in rejects)
        assert len(rejects) == 5
        assert "missing trip_id" in reasons
        assert "negative pickup_distance_km" in reasons
        assert "non-finite pickup_distance_km" in reasons
        assert "unknown status" in reasons
        assert "non-numeric pickup_lat" in reasons

    # One bad value per column, in the order the checks run (which is not
    # column order: payment_method is checked with the other ids).
    BAD_FIELDS = [
        ("driver_id", dict(driver=""), "missing driver_id"),
        ("trip_id", dict(trip=" "), "missing trip_id"),
        ("payment_method", dict(pay=""), "missing payment_method"),
        ("created_time", dict(created="noon", assigned="2026-02-02T08:00",
                              decision="2026-02-02T08:00"),
         "bad created_time 'noon'"),
        ("assigned_time", dict(assigned="2026-02-02T25:00"),
         "bad assigned_time '2026-02-02T25:00'"),
        ("decision_time", dict(decision="2026-02-30T08:00"),
         "bad decision_time '2026-02-30T08:00'"),
        ("pickup_time", dict(pickup="soon"), "bad pickup_time 'soon'"),
        ("pickup_lat", dict(plat="east"), "non-numeric pickup_lat 'east'"),
        ("pickup_lon", dict(plon="inf"), "non-finite pickup_lon"),
        ("drop_lat", dict(dlat=""), "non-numeric drop_lat ''"),
        ("drop_lon", dict(dlon="nan"), "non-finite drop_lon"),
        ("pickup_distance_km", dict(pdist="1 km"),
         "non-numeric pickup_distance_km '1 km'"),
        ("trip_distance_km", dict(tdist="-2.0"),
         "negative trip_distance_km"),
        ("status", dict(status="vanished"), "unknown status 'vanished'"),
    ]

    @pytest.mark.parametrize("k", range(len(BAD_FIELDS)),
                             ids=[c for c, _, _ in BAD_FIELDS])
    def test_each_column_names_its_reject_reason(self, k):
        column, bad, reason = self.BAD_FIELDS[k]
        rows = [csv_row(**bad)]
        if k + 1 < len(self.BAD_FIELDS):
            # the same row also broken by the next check: the earlier wins
            rows.append(csv_row(**{**bad, **self.BAD_FIELDS[k + 1][1]}))
        records, rejects = parse_trip_log([HEADER] + rows)
        assert not records
        assert [r.reason for r in rejects] == [reason] * len(rows), column
        assert {c for c, _, _ in self.BAD_FIELDS} == set(LOG_COLUMNS)

    @pytest.mark.parametrize("column, key", [("pickup_distance_km", "pdist"),
                                             ("trip_distance_km", "tdist")])
    def test_distance_past_half_the_earth_is_a_reject(self, column, key):
        rows = [csv_row(**{key: value}) for value in
                ("20000", "20000.001", "1000000000000", "1e308")]
        records, rejects = parse_trip_log([HEADER] + rows)
        assert [getattr(r, column) for r in records] == [20000.0]
        assert [(r.row_number, r.reason) for r in rejects] == [
            (n, f"{column} over 20000 km") for n in (2, 3, 4)]

    LINE_BREAKS = ["\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                   "\u2028", "\u2029"]

    @pytest.mark.parametrize("column, key", [("driver_id", "driver"),
                                             ("trip_id", "trip"),
                                             ("payment_method", "pay")])
    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=ascii)
    def test_line_break_in_a_text_field_is_a_reject(self, column, key, brk):
        # an id or a payment method holding any character str.splitlines()
        # splits on is damaged input, although the CSV reader keeps it
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL).writerow(
            csv_row(**{key: f"ca{brk}sh"}).split(","))
        records, rejects = parse_trip_log(
            io.StringIO(f"{HEADER}\n{csv_row(trip='ok')}\n{buf.getvalue()}"))
        assert [r.trip_id for r in records] == ["ok"]
        assert [(r.row_number, r.reason) for r in rejects] == \
            [(2, f"line break in {column}")]

    def test_unsplittable_row_fails_the_file_naming_it(self):
        with pytest.raises(ValueError, match="^data row 2: field larger than "
                                             "field limit"):
            parse_trip_log([HEADER, csv_row(), csv_row(pay="x" * 200_000)])

    def test_equal_values_share_one_object(self):
        a, b = parse_trip_log([HEADER, csv_row(trip="t1"),
                               csv_row(trip="t2")])[0]
        for name in ("driver_id", "created_time", "assigned_time",
                     "decision_time", "status", "payment_method"):
            assert getattr(a, name) is getattr(b, name), name
        assert a.created_time is a.decision_time

    def test_row_roundtrip(self):
        original = make_record(status="completed",
                               pickup_time=datetime(2026, 2, 2, 8, 5))
        lines = [HEADER, ",".join(record_to_row(original))]
        parsed = parse_trip_log(lines)[0][0]
        assert parsed.trip_id == original.trip_id
        assert parsed.pickup_time == original.pickup_time
        assert parsed.pickup_lat == pytest.approx(original.pickup_lat)


class TestRecordSemantics:
    def test_accepted_covers_all_but_rejected(self):
        for status, want in [("accepted", True), ("completed", True),
                             ("cancelled", True), ("rejected", False)]:
            assert make_record(status=status).accepted() == want

    def test_issue_completed_needs_pickup_time(self):
        rec = make_record(status="completed", pickup_time=None)
        assert rec.issues()
        ok = make_record(status="completed",
                         pickup_time=datetime(2026, 2, 2, 8, 5))
        assert not ok.issues()

    def test_issue_timestamp_order(self):
        rec = make_record(decision_shift=-5)
        assert rec.issues()


class TestClean:
    def test_reason_precedence_and_reconciliation(self):
        good = make_record(trip="a")
        dup_with_issue = make_record(trip="a", status="completed",
                                     pickup_time=None)
        issue = make_record(trip="b", status="completed", pickup_time=None)
        outside = make_record(trip="c", plat=5.0)
        kept, report = clean([good, dup_with_issue, issue, outside],
                             region=(0.0, 0.0, 1.0, 1.0))
        assert [r.trip_id for r in kept] == ["a"]
        assert report.duplicate_count == 1     # not counted as an issue
        assert report.missing_field_count == 1
        assert report.out_of_region_count == 1
        assert report.retained_count == 1
        assert reconciles(report)

    def test_keeps_first_occurrence(self):
        first = make_record(trip="a", pdist=1.0)
        second = make_record(trip="a", pdist=9.0)
        kept, _ = clean([first, second], region=(0.0, 0.0, 1.0, 1.0))
        assert kept[0].pickup_distance_km == 1.0

    def test_region_bounds_inclusive(self):
        on_edge = make_record(trip="a", plat=1.0, plon=0.0)
        beyond = make_record(trip="b", plat=1.0000001, plon=0.0)
        kept, report = clean([on_edge, beyond], region=(0.0, 0.0, 1.0, 1.0))
        assert [r.trip_id for r in kept] == ["a"]
        assert report.out_of_region_count == 1

    def test_clean_log_passes_through(self):
        records = [make_record(trip=f"t{i}") for i in range(4)]
        kept, report = clean(records, region=(0.0, 0.0, 1.0, 1.0))
        assert len(kept) == 4 and reconciles(report)

    def test_report_lines(self):
        report = CleaningReport(input_count=10, duplicate_count=2,
                                missing_field_count=1, out_of_region_count=3,
                                retained_count=4)
        assert report.to_lines() == ["input 10", "duplicates 2",
                                     "missing_or_inconsistent 1",
                                     "out_of_region 3", "retained 4"]


class TestWindows:
    def records(self):
        times = [datetime(2026, 2, 2, 5, 30), datetime(2026, 2, 8, 12, 0),
                 datetime(2026, 2, 15, 22, 10)]
        return [make_record(trip=f"t{i}", created=t)
                for i, t in enumerate(times)]

    def test_log_span(self):
        first, last = log_span(self.records())
        assert first == datetime(2026, 2, 2, 5, 30)
        assert last == datetime(2026, 2, 15, 22, 10)

    def test_window_is_half_open(self):
        records = self.records()
        window = (datetime(2026, 2, 2), datetime(2026, 2, 8, 12, 0))
        assert [r.trip_id for r in window_records(records, window)] == ["t0"]
        assert window_records(records, None) == records

    def test_training_window_aligns_to_midnight(self):
        train, holdout = training_window(self.records(), holdout_days=7)
        assert train == (datetime(2026, 2, 2), datetime(2026, 2, 9))
        assert holdout == (datetime(2026, 2, 9), datetime(2026, 2, 16))

    def test_too_short_to_split(self):
        records = [make_record(created=datetime(2026, 2, 2, 8, 0))]
        with pytest.raises(ValueError, match="too short"):
            training_window(records, holdout_days=7)


class TestWeeklyAverages:
    def test_counts_completed_only_and_keeps_zero_drivers(self):
        base = datetime(2026, 2, 2, 8, 0)
        records = [
            make_record(driver="d2", trip="a", created=base,
                        status="completed", pickup_time=base),
            make_record(driver="d2", trip="b", created=base + timedelta(days=1),
                        status="completed", pickup_time=base),
            make_record(driver="d1", trip="c", created=base + timedelta(days=2)),
        ]
        averages = driver_weekly_averages(records)
        assert list(averages) == ["d1", "d2"]   # sorted
        assert averages["d1"] == 0.0
        assert averages["d2"] == pytest.approx(2.0)  # 3-day span, 1 week floor

    def test_span_scales_weeks(self):
        base = datetime(2026, 2, 2)
        records = [make_record(trip="a", created=base, status="completed",
                               pickup_time=base),
                   make_record(trip="b", created=base + timedelta(days=13),
                               status="completed", pickup_time=base)]
        averages = driver_weekly_averages(records)
        assert averages["d1"] == pytest.approx(2.0 / 2.0)  # 14 days = 2 weeks

    def test_empty(self):
        assert driver_weekly_averages([]) == {}


class TestExtractDemonstrations:
    @pytest.fixture
    def grid(self):
        return GridSpec(width_km=10.0, height_km=10.0)

    @pytest.fixture
    def params(self):
        return PlatformParams(fare_per_km=100.0, cost_per_km=30.0,
                              idle_cost_per_minute=1.0,
                              weekly_reward_amount=2000.0,
                              default_weekly_goal=40)

    def mini_log(self, grid):
        center_lat, center_lon = grid.to_latlon(5.0, 5.0)
        corner_lat, corner_lon = grid.to_latlon(0.0, 0.0)
        a = make_record(trip="a", created=datetime(2026, 2, 2, 8, 0),
                        status="completed",
                        pickup_time=datetime(2026, 2, 2, 8, 5),
                        dlat=center_lat, dlon=center_lon, pdist=2.0, tdist=3.0)
        b = make_record(trip="b", created=datetime(2026, 2, 2, 9, 0),
                        status="rejected", dlat=corner_lat, dlon=corner_lon,
                        pdist=1.0, tdist=5.0)
        c = make_record(trip="c", created=datetime(2026, 2, 10, 10, 0),
                        status="completed",
                        pickup_time=datetime(2026, 2, 10, 10, 4),
                        dlat=center_lat, dlon=center_lon, pdist=1.0, tdist=4.0)
        return [a, b, c]

    def test_replay_bookkeeping(self, grid, params):
        trajs = extract_demonstrations(self.mini_log(grid), params, grid)
        assert len(trajs) == 1
        t = trajs[0].transitions
        assert len(t) == 3

        # offer a: log start, so no idle gap; goal still the default 40
        np.testing.assert_allclose(
            t[0].obs, [2.0, 3.0, 480.0, 40.0, 0.0, 0.0], atol=1e-9)
        assert t[0].action == Action.ACCEPT
        assert t[0].reward == pytest.approx(300.0 - 150.0 + 50.0, abs=1e-9)

        # offer b: idle runs from a's completion (08:05 pickup + 6 min trip)
        assert t[1].obs[5] == pytest.approx(49.0)
        assert t[1].obs[3] == 39.0   # one trip closer to the goal
        assert t[1].obs[4] == pytest.approx(np.hypot(5.0, 5.0))
        assert t[1].action == Action.REJECT
        assert t[1].reward == 0.0

        # offer c: 8 days later, goal has rolled to last week's single trip
        assert t[2].obs[3] == 1.0
        idle = t[2].obs[5]
        assert idle == pytest.approx(8 * 1440 + 109)  # 02-02T08:11 to 02-10T10:00
        assert t[2].reward == pytest.approx(
            400.0 - 150.0 - idle + 2000.0, abs=1e-9)

    def test_transitions_chain(self, grid, params):
        t = extract_demonstrations(self.mini_log(grid), params, grid)[0].transitions
        np.testing.assert_array_equal(t[0].next_obs, t[1].obs)
        np.testing.assert_array_equal(t[1].next_obs, t[2].obs)
        assert not t[0].terminal and not t[1].terminal
        assert t[2].terminal
        np.testing.assert_array_equal(t[2].next_obs, t[2].obs)

    def test_rewards_recompute_from_observation(self, grid, params):
        for traj in extract_demonstrations(self.mini_log(grid), params, grid):
            goal_seen = {0: 40, 1: 40, 2: 1}
            for i, tr in enumerate(traj.transitions):
                want = reward_from_observation(
                    params, observation(
                        pickup_km=tr.obs[0], trip_km=tr.obs[1],
                        minute_of_day=int(tr.obs[2]),
                        trips_to_goal=int(tr.obs[3]), idle_minutes=tr.obs[5]),
                    goal_seen[i], tr.action)
                assert tr.reward == pytest.approx(want, abs=1e-9)

    def test_window_filters_and_anchors_reference(self, grid, params):
        window = (datetime(2026, 2, 9), datetime(2026, 2, 16))
        trajs = extract_demonstrations(self.mini_log(grid), params, grid,
                                       window=window)
        t = trajs[0].transitions
        assert len(t) == 1
        # inside the window the goal has not rolled and idle counts from
        # the window start, not from records before it
        assert t[0].obs[3] == 40.0
        assert t[0].obs[5] == pytest.approx(1 * 1440 + 10 * 60)

    def test_empty_window_raises(self, grid, params):
        with pytest.raises(ValueError, match="window"):
            extract_demonstrations(self.mini_log(grid), params, grid,
                                   window=(datetime(2027, 1, 1),
                                           datetime(2027, 1, 8)))

    @pytest.mark.parametrize("pickup, tdist", [
        (datetime(2026, 2, 2, 8, 5), 1e12),
        (datetime(9999, 12, 31, 20, 0), 20000.0)])
    def test_trip_ending_past_the_last_datetime_names_it(self, grid, params,
                                                         pickup, tdist):
        rec = make_record(trip="far", created=pickup - timedelta(minutes=5),
                          status="completed", pickup_time=pickup, tdist=tdist)
        with pytest.raises(ValueError, match="^trip far would end after"):
            extract_demonstrations([rec], params, grid)

    def test_drivers_sorted_and_separate(self, grid, params):
        log = self.mini_log(grid)
        extra = make_record(driver="a9", trip="z",
                            created=datetime(2026, 2, 3, 12, 0))
        trajs = extract_demonstrations(log + [extra], params, grid)
        assert [t.driver_id for t in trajs] == ["a9", "d1"]
        assert len(trajs[0].transitions) == 1
        assert trajs[0].transitions[0].terminal


class TestSyntheticRoundtrip:
    def test_extraction_matches_generated_log(self):
        grid = GridSpec(width_km=10.0, height_km=10.0)
        params = PlatformParams()
        spec = SyntheticLogSpec(driver_count=5, days=8,
                                offers_per_driver_day=5.0)
        records = generate_synthetic_log(spec, grid, params, 30.0, seed=3)
        assert records, "generator produced an empty log"
        statuses = {r.status for r in records}
        assert statuses <= {"completed", "rejected"}

        trajs = extract_demonstrations(records, params, grid)
        by_driver = {}
        for rec in records:
            by_driver.setdefault(rec.driver_id, []).append(rec)
        assert len(trajs) == len(by_driver)
        for traj in trajs:
            rows = sorted(by_driver[traj.driver_id],
                          key=lambda r: (r.created_time, r.trip_id))
            assert len(traj.transitions) == len(rows)
            for tr, rec in zip(traj.transitions, rows):
                assert tr.obs[0] == pytest.approx(rec.pickup_distance_km)
                assert tr.obs[1] == pytest.approx(rec.trip_distance_km)
                minute = rec.created_time.hour * 60 + rec.created_time.minute
                assert tr.obs[2] == minute
                assert tr.obs[5] >= 0.0
                if rec.status == "rejected":
                    assert tr.reward == 0.0
            assert traj.transitions[-1].terminal
            assert not any(t.terminal for t in traj.transitions[:-1])
