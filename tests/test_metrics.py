import warnings

import numpy as np
import pytest
from scipy import stats

from helpers import bootstrap_mean_diff
from ridesim.metrics import (AcceptanceCurve, acceptance_by_distance,
                             acceptance_by_hour, acceptance_curves,
                             curve_pearson, curve_rows, daily_counts,
                             delta_percent, pearson)
from ridesim.ridegen import Ride
from ridesim.sim import Action, OfferRecord, Transition


class TestPearson:
    def test_fixture(self):
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(
            0.9819805060619657, abs=1e-15)

    def test_scipy_agreement(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=50)
        y = 0.3 * x + rng.normal(size=50)
        assert pearson(x, y) == pytest.approx(stats.pearsonr(x, y).statistic,
                                              abs=1e-12)

    def test_perfect_and_inverse(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_errors(self):
        with pytest.raises(ValueError, match="lengths"):
            pearson([1, 2], [1, 2, 3])
        with pytest.raises(ValueError, match="at least 2"):
            pearson([1], [1])
        with pytest.raises(ValueError, match="zero variance"):
            pearson([2, 2, 2], [1, 2, 3])


class TestDeltaPercent:
    def test_fixtures(self):
        assert delta_percent(110852, 100905) == 9.858
        assert delta_percent(106807, 108280) == -1.36

    def test_rounding_to_three_decimals(self):
        assert delta_percent(1.0 / 3.0 + 1.0, 1.0) == 33.333

    def test_zero_actual_rejected(self):
        with pytest.raises(ValueError):
            delta_percent(5.0, 0.0)


class TestDailyCounts:
    def test_mean_and_confidence_band(self):
        reps = [[10.0, 20.0], [14.0, 22.0], [12.0, 24.0]]
        report = daily_counts(reps)
        assert report.replications == 3
        row = report.rows[0]
        assert row.predicted_mean == pytest.approx(12.0)
        half = 1.96 * np.std([10, 14, 12], ddof=1) / np.sqrt(3)
        assert row.ci_low == pytest.approx(12.0 - half)
        assert row.ci_high == pytest.approx(12.0 + half)

    def test_single_replication_warns_and_omits_band(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = daily_counts([[5.0, 6.0]])
        assert any("confidence" in str(w.message) for w in caught)
        assert report.rows[0].ci_low is None
        assert report.rows[0].ci_high is None

    @pytest.mark.filterwarnings("ignore:single replication")
    def test_scale_applies_before_comparison(self):
        report = daily_counts([[50.0]], actual=[100.0], scale=2.0)
        assert report.rows[0].predicted_mean == pytest.approx(100.0)
        assert report.rows[0].delta_pct == 0.0

    @pytest.mark.filterwarnings("ignore:single replication")
    def test_dow_rotation(self):
        report = daily_counts([[1.0] * 9], start_dow=5)
        names = [r.dow_name for r in report.rows]
        assert names == ["Sat", "Sun", "Mon", "Tue", "Wed", "Thu", "Fri",
                         "Sat", "Sun"]

    def test_actual_and_delta(self):
        report = daily_counts([[110852.0], [110852.0]], actual=[100905.0])
        assert report.rows[0].delta_pct == 9.858

    @pytest.mark.filterwarnings("ignore:single replication")
    def test_row_formatting(self):
        report = daily_counts([[1.5]], actual=[2.0])
        assert report.to_rows() == [["0", "Mon", "1.500", "", "",
                                     "2.000", "-25.000"]]

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            daily_counts([])
        with pytest.raises(ValueError):
            daily_counts([[1.0, 2.0], [1.0]])
        with pytest.raises(ValueError):
            daily_counts([[1.0, 2.0]], actual=[1.0])


def offer(minute_of_day=600.0, trip_km=3.0, action=Action.ACCEPT):
    obs = np.array([1.0, trip_km, minute_of_day, 5.0, 2.0, 10.0])
    ride = Ride(pickup_x=0.0, pickup_y=0.0, drop_x=1.0, drop_y=1.0,
                distance_km=trip_km, created_minute=int(minute_of_day))
    return OfferRecord(minute=int(minute_of_day), driver_id=0, obs=obs,
                       action=action, reward=0.0, goal_trips=10, ride=ride)


class TestAcceptanceCurves:
    def test_hour_bin_edges(self):
        offers = [offer(minute_of_day=59.0), offer(minute_of_day=60.0,
                                                   action=Action.REJECT)]
        curve = acceptance_by_hour(offers)
        assert curve.offers[0] == 1 and curve.accepted[0] == 1
        assert curve.offers[1] == 1 and curve.accepted[1] == 0
        assert len(curve.labels) == 24
        assert [i for i, o in enumerate(curve.offers) if o > 0] == [0, 1]

    def test_distance_bins_and_overflow(self):
        offers = [offer(trip_km=0.5), offer(trip_km=19.99),
                  offer(trip_km=20.0), offer(trip_km=57.0)]
        curve = acceptance_by_distance(offers)
        assert len(curve.labels) == 21
        assert curve.labels[0] == "0-1"
        assert curve.labels[-1] == "20+"
        assert curve.offers[0] == 1
        assert curve.offers[19] == 1
        assert curve.offers[20] == 2   # both beyond-max offers pool

    def test_both_curves_from_one_stack_match_each_alone(self):
        rng = np.random.default_rng(2)
        offers = [offer(minute_of_day=float(m), trip_km=float(km),
                        action=Action(int(a)))
                  for m, km, a in zip(rng.integers(0, 1440, 300),
                                      rng.uniform(0, 25, 300),
                                      rng.integers(0, 2, 300))]
        for sample in (offers, offers[:1], []):
            assert acceptance_curves(sample) == (acceptance_by_hour(sample),
                                                 acceptance_by_distance(sample))

    def test_empty_bins_have_no_rate(self):
        curve = acceptance_by_hour([offer(minute_of_day=0.0)])
        rates = curve.rates()
        assert rates[0] == 1.0
        assert rates[1:] == [None] * 23

    def test_curve_rows_format(self):
        curve = AcceptanceCurve(labels=["00", "01"], offers=[4, 0], accepted=[1, 0])
        rows = curve_rows(curve)
        assert rows[0] == ["00", "4", "1", "0.250000"]
        assert rows[1] == ["01", "0", "0", ""]

    @pytest.mark.parametrize("bin_km, max_km", [(1.0, 20.0), (3.0, 20.0),
                                                (0.7, 5.0)])
    def test_binned_counts_match_a_loop_over_offers(self, bin_km, max_km):
        rng = np.random.default_rng(int(bin_km * 10))
        offers = [offer(minute_of_day=float(rng.integers(0, 1440)),
                        trip_km=float(rng.choice([rng.uniform(0, 25),
                                                  max_km, np.inf])),
                        action=Action(int(rng.integers(2))))
                  for _ in range(400)]
        offers += [Transition(obs=o.obs, action=o.action, next_obs=o.obs,
                              reward=0.0) for o in offers[:50]]
        hours = acceptance_by_hour(offers)
        dist = acceptance_by_distance(offers, bin_km=bin_km, max_km=max_km)
        for curve, bin_of in (
                (hours, lambda o: int(o.obs[2]) // 60),
                (dist, lambda o: (min(int(o.obs[1] // bin_km),
                                      len(dist.labels) - 1)
                                  if o.obs[1] < max_km
                                  else len(dist.labels) - 1))):
            expect_offers = [0] * len(curve.labels)
            expect_accepted = [0] * len(curve.labels)
            for o in offers:
                expect_offers[bin_of(o)] += 1
                expect_accepted[bin_of(o)] += o.action == Action.ACCEPT
            assert curve.offers == expect_offers
            assert curve.accepted == expect_accepted
            assert all(type(n) is int for n in curve.offers + curve.accepted)


class TestCurvePearson:
    def curve(self, offers, accepted):
        labels = [str(i) for i in range(len(offers))]
        return AcceptanceCurve(labels=labels, offers=offers, accepted=accepted)

    def test_joint_bins_only(self):
        a = self.curve([10, 10, 0, 10], [1, 5, 0, 9])
        b = self.curve([10, 0, 10, 10], [2, 0, 5, 8])
        # only bins 0 and 3 are populated on both sides
        expected = pearson([0.1, 0.9], [0.2, 0.8])
        assert curve_pearson(a, b) == pytest.approx(expected)

    def test_label_mismatch(self):
        a = self.curve([1, 1], [0, 1])
        b = AcceptanceCurve(labels=["a", "b"], offers=[1, 1], accepted=[0, 1])
        with pytest.raises(ValueError, match="binning"):
            curve_pearson(a, b)

    def test_too_few_joint_bins(self):
        a = self.curve([10, 0], [5, 0])
        b = self.curve([10, 0], [5, 0])
        with pytest.raises(ValueError, match="jointly populated"):
            curve_pearson(a, b)

    def test_matching_shapes_correlate(self):
        rng = np.random.default_rng(1)
        base = np.linspace(0.2, 0.9, 12)
        a = self.curve([100] * 12, list((base * 100).astype(int)))
        noisy = np.clip(base + rng.normal(0, 0.02, 12), 0, 1)
        b = self.curve([100] * 12, list((noisy * 100).astype(int)))
        assert curve_pearson(a, b) > 0.95


class TestBootstrap:
    def test_separated_samples_give_unit_interval(self):
        lo, hi = bootstrap_mean_diff([1.0] * 30, [0.0] * 30,
                                     np.random.default_rng(0))
        assert (lo, hi) == (1.0, 1.0)

    def test_seeded_reproducibility(self):
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        x = list(np.random.default_rng(1).normal(0.3, 1.0, 40))
        y = list(np.random.default_rng(2).normal(0.0, 1.0, 40))
        assert bootstrap_mean_diff(x, y, rng_a) == bootstrap_mean_diff(
            x, y, rng_b)

    def test_clear_gap_excludes_zero(self):
        rng = np.random.default_rng(3)
        high = np.random.default_rng(4).normal(5.0, 0.5, 60)
        low = np.random.default_rng(5).normal(1.0, 0.5, 60)
        lo, hi = bootstrap_mean_diff(high, low, rng)
        assert lo > 0
        assert lo < 4.0 < hi

    def test_overlapping_samples_span_zero(self):
        rng = np.random.default_rng(6)
        same = list(np.random.default_rng(8).normal(0.0, 1.0, 80))
        lo, hi = bootstrap_mean_diff(same, same, rng)
        assert lo < 0 < hi

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_mean_diff([], [1.0], np.random.default_rng(0))
