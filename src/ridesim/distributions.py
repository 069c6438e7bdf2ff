"""Empirical distributions fitted from trip logs.

Pickup coordinates and trip distances are modeled as raw empirical samples
drawn back out by inverse transform sampling with linear interpolation
between order statistics. Demand over the week is a 7x1440 profile of mean
scaled ride counts per day-of-week minute, turned into integer counts by an
expectation-preserving probabilistic rounding.

Serialized artifacts are plain text so that fitted inputs diff cleanly
between runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterable, Sequence

import numpy as np

from .artifacts import read_data_lines

PROFILE_MAGIC = "ridesim-profile v1"
DIST_MAGIC = "ridesim-dist v1"

MINUTES_PER_DAY = 1440
DAYS_PER_WEEK = 7


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted sample array backing an interpolated empirical CDF."""

    samples: np.ndarray  # ascending, >= 2 entries, finite

    def __post_init__(self):
        s = self.samples
        if s.ndim != 1 or s.size < 2:
            raise ValueError("need at least 2 samples")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples must be finite")
        if np.any(np.diff(s) < 0):
            raise ValueError("samples must be sorted ascending")

    @property
    def count(self) -> int:
        return int(self.samples.size)


def fit_empirical(values: Sequence[float]) -> EmpiricalDistribution:
    """Sort the observed values and store them verbatim."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need at least 2 samples to fit a distribution")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    return EmpiricalDistribution(samples=np.sort(arr))


def inverse_sample(dist: EmpiricalDistribution, u):
    """Quantile of the interpolated empirical CDF at u in [0, 1].

    Positions the probe at p = u * (n - 1) and interpolates linearly between
    the bracketing order statistics, so u=0 gives the minimum, u=1 the
    maximum. Accepts a scalar or an array of u values.
    """
    n = dist.samples.size
    if isinstance(u, float):
        # The per-ride path: one chained compare, which NaN also fails.
        if not 0.0 <= u <= 1.0:
            raise ValueError("u must lie in [0, 1]")
        return float(np.interp(u * (n - 1), _index_grid(n), dist.samples))
    u_arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u_arr)) or np.any(u_arr < 0.0) or np.any(u_arr > 1.0):
        raise ValueError("u must lie in [0, 1]")
    out = np.interp(u_arr * (n - 1), _index_grid(n), dist.samples)
    if np.isscalar(u) or u_arr.ndim == 0:
        return float(out)
    return out


@functools.lru_cache(maxsize=16)
def _index_grid(n: int) -> np.ndarray:
    """Read-only 0..n-1 positions of the order statistics, as floats."""
    grid = np.arange(n, dtype=float)
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True)
class TimeProfile:
    """Mean scaled ride count for every (day-of-week, minute) slot."""

    means: np.ndarray  # shape (7, 1440), finite, >= 0
    scale_factor: float = 35.0

    def __post_init__(self):
        if self.means.shape != (DAYS_PER_WEEK, MINUTES_PER_DAY):
            raise ValueError("profile must have shape (7, 1440)")
        if not np.all(np.isfinite(self.means)) or np.any(self.means < 0):
            raise ValueError("profile entries must be finite and non-negative")

    def expected_daily(self, dow: int) -> float:
        """Expected generated rides on the given day of week (0 = Monday)."""
        return float(self.means[dow].sum())

    def expected_weekly(self) -> float:
        return float(self.means.sum())


def fit_time_profile(created_times: Iterable[datetime],
                     scale_factor: float) -> TimeProfile:
    """Average ride creations per (day-of-week, minute) slot, scaled down.

    Each slot's raw count is divided by the number of calendar dates with
    that day of week inside the log's date span, then by the scale factor,
    which divides demand so one simulated week stays at a tractable size.
    The log must span at least one full week so every slot has support.
    """
    if not math.isfinite(scale_factor) or scale_factor <= 0:
        raise ValueError("scale_factor must be positive and finite")
    times = list(created_times)
    if not times:
        raise ValueError("cannot fit a time profile from an empty log")
    counts = np.zeros((DAYS_PER_WEEK, MINUTES_PER_DAY), dtype=float)
    first = min(times).date()
    last = max(times).date()
    span_days = (last - first).days + 1
    if span_days < 7:
        raise ValueError(f"log spans {span_days} days; need at least one full week")
    for t in times:
        minute = t.hour * 60 + t.minute
        counts[t.weekday(), minute] += 1.0
    # Number of dates of each weekday inside [first, last].
    occurrences = np.zeros(DAYS_PER_WEEK, dtype=float)
    for offset in range(span_days):
        occurrences[(first + timedelta(days=offset)).weekday()] += 1.0
    means = counts / occurrences[:, None] / scale_factor
    return TimeProfile(means=means, scale_factor=scale_factor)


def probabilistic_round(x: float, rng: np.random.Generator) -> int:
    """Round x down, bumping up by 1 with probability frac(x).

    The result's expectation equals x, so scaled fractional demand keeps
    its mean over a run.
    """
    if not math.isfinite(x) or x < 0:
        raise ValueError("x must be non-negative and finite")
    base = math.floor(x)
    frac = x - base
    if frac > 0.0 and rng.random() < frac:
        return base + 1
    return base


def ks_statistic(dist: EmpiricalDistribution, observed: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov distance between dist and observed.

    Maximum absolute gap between the two empirical CDFs, evaluated at every
    sample point of either side.
    """
    obs = np.asarray(observed, dtype=float)
    if obs.size == 0:
        raise ValueError("observed sample is empty")
    if not np.all(np.isfinite(obs)):
        raise ValueError("observed samples must be finite")
    xs = dist.samples  # already sorted
    ys = np.sort(obs)
    grid = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, grid, side="right") / xs.size
    cdf_y = np.searchsorted(ys, grid, side="right") / ys.size
    return float(np.max(np.abs(cdf_x - cdf_y)))


def distribution_lines(dist: EmpiricalDistribution, name: str) -> list:
    """Plain-text dump: version line, name, count, one sample per line."""
    lines = [DIST_MAGIC, f"name {name}", f"count {dist.count}"]
    lines.extend(repr(float(v)) for v in dist.samples)
    return lines


def write_distribution(dist: EmpiricalDistribution, path, name: str) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(distribution_lines(dist, name)) + "\n")


def _keyed(lines: list, index: int, key: str) -> str:
    """The value of line `index`, which must read `<key> <value>`."""
    line = lines[index] if index < len(lines) else ""
    found, _, value = line.partition(" ")
    if found != key or not value:
        raise ValueError(f"payload line {index + 1} is not a {key!r} line")
    return value


def read_distribution(path) -> tuple[str, EmpiricalDistribution]:
    lines = read_data_lines(path)
    try:
        if lines[:1] != [DIST_MAGIC]:
            raise ValueError("not a distribution artifact")
        name = _keyed(lines, 1, "name")
        count = int(_keyed(lines, 2, "count"))
        samples = np.array([float(v) for v in lines[3:]])
        if samples.size != count:
            raise ValueError(f"expected {count} samples, found {samples.size}")
        return name, EmpiricalDistribution(samples=samples)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def time_profile_lines(profile: TimeProfile) -> list:
    lines = [PROFILE_MAGIC, f"scale {repr(float(profile.scale_factor))}"]
    for dow in range(DAYS_PER_WEEK):
        row = " ".join(repr(float(v)) for v in profile.means[dow])
        lines.append(f"dow {dow} {row}")
    return lines


def write_time_profile(profile: TimeProfile, path) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(time_profile_lines(profile)) + "\n")


def read_time_profile(path) -> TimeProfile:
    lines = read_data_lines(path)
    try:
        if lines[:1] != [PROFILE_MAGIC]:
            raise ValueError("not a time profile artifact")
        scale = float(_keyed(lines, 1, "scale"))
        if len(lines) != 2 + DAYS_PER_WEEK:
            raise ValueError(f"expected {DAYS_PER_WEEK} dow rows, "
                             f"found {len(lines) - 2}")
        rows = [_keyed(lines, 2 + dow, "dow").split()
                for dow in range(DAYS_PER_WEEK)]
        for dow, row in enumerate(rows):
            if row[:1] != [str(dow)] or len(row) != 1 + MINUTES_PER_DAY:
                raise ValueError(f"row {dow + 1} is not dow {dow} "
                                 f"with {MINUTES_PER_DAY} values")
        means = np.array([[float(v) for v in row[1:]] for row in rows])
        return TimeProfile(means=means, scale_factor=scale)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
