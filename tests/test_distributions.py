import math
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (expected_daily, ks_statistic, write_distribution,
                     write_time_profile)
from ridesim.agent import CategoricalQAgent, FeatureScales
from ridesim.distributions import (EmpiricalDistribution,
                                   TimeProfile, distribution_lines,
                                   fit_empirical, fit_time_profile,
                                   inverse_sample, probabilistic_round,
                                   read_distribution, read_time_profile,
                                   time_profile_lines)


@pytest.fixture
def quartet():
    return fit_empirical([10.0, 20.0, 30.0, 40.0])


class TestInverseSample:
    def test_midpoint_interpolates(self, quartet):
        assert inverse_sample(quartet, 0.5) == pytest.approx(25.0, abs=1e-12)

    def test_endpoints(self, quartet):
        assert inverse_sample(quartet, 0.0) == 10.0
        assert inverse_sample(quartet, 1.0) == 40.0

    def test_hits_order_statistics(self, quartet):
        # u = k/(n-1) lands exactly on the k-th sorted sample
        for k, expected in enumerate([10.0, 20.0, 30.0, 40.0]):
            assert inverse_sample(quartet, k / 3) == pytest.approx(expected)

    def test_array_input(self, quartet):
        out = inverse_sample(quartet, np.array([0.0, 0.5, 1.0]))
        assert np.allclose(out, [10.0, 25.0, 40.0])

    def test_rejects_out_of_range(self, quartet):
        with pytest.raises(ValueError):
            inverse_sample(quartet, -0.01)
        with pytest.raises(ValueError):
            inverse_sample(quartet, 1.01)
        with pytest.raises(ValueError):
            inverse_sample(quartet, float("nan"))

    def test_rejects_infinities(self, quartet):
        for u in (float("inf"), float("-inf"), np.float64("nan")):
            with pytest.raises(ValueError):
                inverse_sample(quartet, u)

    @pytest.mark.parametrize("n", [2, 3, 7, 250, 4001])
    def test_scalar_path_matches_array_path_bitwise(self, n):
        rng = np.random.default_rng(n)
        dist = fit_empirical(rng.gamma(2.0, 3.0, n))
        u = np.concatenate([rng.random(4000), np.arange(n) / (n - 1),
                            [0.0, 1.0, np.nextafter(1.0, 0.0), 5e-324]])
        scalar = np.array([inverse_sample(dist, float(v)) for v in u])
        assert scalar.tobytes() == inverse_sample(dist, u).tobytes()

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30),
           st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_output_within_sample_range(self, values, u):
        dist = fit_empirical(values)
        out = inverse_sample(dist, u)
        assert dist.samples[0] - 1e-9 <= out <= dist.samples[-1] + 1e-9

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_u(self, values, u1, u2):
        dist = fit_empirical(values)
        lo, hi = sorted([u1, u2])
        assert inverse_sample(dist, lo) <= inverse_sample(dist, hi) + 1e-9


class TestFitEmpirical:
    def test_sorts_samples(self):
        dist = fit_empirical([3.0, 1.0, 2.0])
        assert list(dist.samples) == [1.0, 2.0, 3.0]
        assert dist.count == 3

    def test_rejects_short_and_nonfinite(self):
        with pytest.raises(ValueError):
            fit_empirical([1.0])
        with pytest.raises(ValueError):
            fit_empirical([1.0, float("inf")])

    def test_distribution_is_validated(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(samples=np.array([2.0, 1.0]))  # unsorted


class TestProbabilisticRound:
    def test_integer_passthrough(self):
        rng = np.random.default_rng(0)
        assert probabilistic_round(3.0, rng) == 3
        assert probabilistic_round(0.0, rng) == 0

    def test_rejects_negative(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            probabilistic_round(-0.1, rng)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-negative and finite"):
                probabilistic_round([1.5, bad], rng)

    def test_mean_matches_fraction(self):
        rng = np.random.default_rng(42)
        draws = probabilistic_round(np.full(20000, 2.3), rng)
        assert set(draws.tolist()) <= {2, 3}
        assert abs(np.mean(draws) - 2.3) < 0.02

    def test_draws_once_for_the_fractional_entries_only(self):
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        out = probabilistic_round([0.0, 2.0, 0.25, 0.0, 1.75, 3.0], rng)
        u = twin.random(2)
        assert out.tolist() == [0, 2, int(u[0] < 0.25), 0,
                                1 + int(u[1] < 0.75), 3]
        assert rng.bit_generator.state == twin.bit_generator.state
        before = rng.bit_generator.state
        assert probabilistic_round(np.zeros(1440), rng).tolist() == [0] * 1440
        assert probabilistic_round([1.0, 4.0], rng).tolist() == [1, 4]
        assert rng.bit_generator.state == before

    @given(st.floats(0.0, 100.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_result_brackets_input(self, x, seed):
        rng = np.random.default_rng(seed)
        out = probabilistic_round(x, rng)
        assert math.floor(x) <= out <= math.ceil(x)


class TestTimeProfile:
    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            TimeProfile(means=np.zeros((7, 100)))
        with pytest.raises(ValueError):
            TimeProfile(means=-np.ones((7, 1440)))

    def test_expected_totals(self):
        means = np.full((7, 1440), 0.01)
        profile = TimeProfile(means=means, scale_factor=1.0)
        assert expected_daily(profile, 0) == pytest.approx(14.4)
        assert profile.expected_weekly() == pytest.approx(100.8)

    def test_fit_counts_per_weekday_occurrence(self):
        # 8-day span Mon..Mon: Monday occurs twice, other weekdays once
        start = datetime(2026, 2, 2)  # a Monday
        times = []
        for day in [0, 7]:  # both Mondays, 2 rides each at 08:30
            times.extend([start + timedelta(days=day, hours=8, minutes=30)] * 2)
        times.append(start + timedelta(days=2, hours=9))  # one Wednesday ride
        profile = fit_time_profile(times, scale_factor=2.0)
        # Monday 08:30: 4 rides over 2 Mondays -> 2 per Monday, scaled by 1/2
        assert profile.means[0][8 * 60 + 30] == pytest.approx(1.0)
        # Wednesday 09:00: 1 ride over 1 Wednesday, scaled by 1/2
        assert profile.means[2][9 * 60] == pytest.approx(0.5)
        assert profile.expected_weekly() == pytest.approx(1.5)

    def test_fit_requires_a_full_week(self):
        start = datetime(2026, 2, 2)
        times = [start, start + timedelta(days=5)]
        with pytest.raises(ValueError):
            fit_time_profile(times, 35.0)

    def test_scaler_validation(self):
        start = datetime(2026, 2, 2)
        times = [start, start + timedelta(days=7)]
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="scale_factor"):
                fit_time_profile(times, scale_factor=bad)


class TestKsStatistic:
    def test_identical_samples_give_zero(self):
        dist = fit_empirical([1.0, 2.0, 3.0, 4.0])
        assert ks_statistic(dist, [1.0, 2.0, 3.0, 4.0]) == 0.0

    def test_disjoint_samples_give_one(self):
        dist = fit_empirical([0.0, 1.0])
        assert ks_statistic(dist, [10.0, 11.0]) == 1.0

    def test_agrees_with_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(7)
        a = rng.normal(0, 1, 300)
        b = rng.normal(0.3, 1.2, 400)
        dist = fit_empirical(a)
        ours = ks_statistic(dist, b)
        reference = scipy_stats.ks_2samp(a, b).statistic
        assert ours == pytest.approx(reference, abs=1e-12)


class TestRoundTrips:
    def test_distribution_file_roundtrip(self, tmp_path):
        dist = fit_empirical([0.1, 2.5, 1.0 / 3.0, 7.25])
        path = tmp_path / "d.txt"
        write_distribution(dist, path, "trip_km")
        name, back = read_distribution(path)
        assert name == "trip_km"
        assert np.array_equal(back.samples, dist.samples)  # bit-exact

    def test_profile_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        means = rng.uniform(0, 0.2, size=(7, 1440))
        profile = TimeProfile(means=means, scale_factor=35.0)
        path = tmp_path / "p.txt"
        write_time_profile(profile, path)
        back = read_time_profile(path)
        assert np.array_equal(back.means, profile.means)
        assert back.scale_factor == 35.0

    def test_reader_skips_comment_lines(self, tmp_path):
        dist = fit_empirical([1.0, 2.0])
        path = tmp_path / "d.txt"
        write_distribution(dist, path, "x")
        path.write_text("# header\n# another\n" + path.read_text())
        name, back = read_distribution(path)
        assert name == "x"
        assert np.array_equal(back.samples, dist.samples)


class TestStrictReaders:
    """Truncated or malformed artifacts fail with the file name, never load."""

    def _profile_file(self, tmp_path):
        profile = TimeProfile(means=np.full((7, 1440), 0.01), scale_factor=2.0)
        path = tmp_path / "p.txt"
        write_time_profile(profile, path)
        return path

    def test_distribution_with_only_its_magic_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("ridesim-dist v1\n")
        with pytest.raises(ValueError, match="d.txt.*'name'"):
            read_distribution(path)

    def test_distribution_with_extra_samples(self, tmp_path):
        path = tmp_path / "d.txt"
        write_distribution(fit_empirical([1.0, 2.0]), path, "x")
        path.write_text(path.read_text() + "3.0\n")
        with pytest.raises(ValueError, match="expected 2 samples, found 3"):
            read_distribution(path)

    def test_profile_missing_weekend_rows(self, tmp_path):
        path = self._profile_file(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(ln for ln in lines
                                  if not ln.startswith(("dow 5", "dow 6")))
                        + "\n")
        with pytest.raises(ValueError, match="p.txt.*expected 7 dow rows"):
            read_time_profile(path)

    def test_profile_row_out_of_range(self, tmp_path):
        path = self._profile_file(tmp_path)
        path.write_text(path.read_text().replace("dow 6 ", "dow 9 "))
        with pytest.raises(ValueError, match="p.txt.*not dow 6"):
            read_time_profile(path)

    @pytest.mark.parametrize("scale", ["nan", "-1.0", "inf", "0.0"])
    def test_profile_scale_must_be_positive_and_finite(self, tmp_path, scale):
        path = self._profile_file(tmp_path)
        path.write_text(path.read_text().replace("scale 2.0\n",
                                                 f"scale {scale}\n"))
        with pytest.raises(ValueError,
                           match="p.txt: scale_factor must be positive"):
            read_time_profile(path)

    def test_profile_short_row(self, tmp_path):
        path = self._profile_file(tmp_path)
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(" ", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="p.txt.*1440 values"):
            read_time_profile(path)


def keyed_artifact(kind):
    """(payload lines, reader, lines of what was read, header length) of a
    small artifact of each keyed kind."""
    if kind == "distribution":
        return (distribution_lines(fit_empirical([1.0, 2.0, 4.0]), "x"),
                read_distribution, lambda got: distribution_lines(got[1], got[0]),
                2)
    if kind == "profile":
        profile = TimeProfile(means=np.full((7, 1440), 0.01), scale_factor=2.0)
        return (time_profile_lines(profile), read_time_profile,
                time_profile_lines, 1)
    agent = CategoricalQAgent.create(FeatureScales(), v_min=-1.0, v_max=1.0,
                                     rng=np.random.default_rng(0),
                                     hidden=(4, 4), atom_count=5)
    lines = agent.to_lines()
    return (lines, CategoricalQAgent.load, CategoricalQAgent.to_lines,
            lines.index("online") - 1)


class TestKeyedReaders:
    """Distribution, time-profile and agent files share one header rule."""

    @pytest.mark.parametrize("kind", ["distribution", "profile", "agent"])
    def test_every_cut_short_of_the_end_names_the_file(self, tmp_path, kind):
        lines, read, _, _ = keyed_artifact(kind)
        path = tmp_path / f"{kind}.txt"
        for cut in range(len(lines)):
            path.write_text("".join(line + "\n" for line in lines[:cut]))
            with pytest.raises(ValueError) as caught:
                read(path)
            assert str(caught.value).startswith(f"{path}:"), cut

    @pytest.mark.parametrize("kind", ["distribution", "profile", "agent"])
    def test_reordered_header_reads_the_same(self, tmp_path, kind):
        lines, read, lines_of, header = keyed_artifact(kind)
        reordered = lines[:1] + lines[header:0:-1] + lines[header + 1:]
        path = tmp_path / f"{kind}.txt"
        path.write_text("\n".join(reordered) + "\n")
        assert lines_of(read(path)) == lines

    @pytest.mark.parametrize("kind, extra, message", [
        ("distribution", "bogus 1", "unknown dist header key 'bogus'"),
        ("distribution", "name y", "dist header repeats 'name'"),
        ("profile", "bogus 1", "unknown profile header key 'bogus'")])
    def test_unknown_or_repeated_key_names_the_file(self, tmp_path, kind,
                                                    extra, message):
        lines, read, _, _ = keyed_artifact(kind)
        path = tmp_path / f"{kind}.txt"
        path.write_text("\n".join(lines[:1] + [extra] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match=f"{kind}.txt: {message}"):
            read(path)
