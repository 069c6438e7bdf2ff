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

import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterable, Sequence

import numpy as np

from .artifacts import _read_keyed

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


def inverse_sample(dist: EmpiricalDistribution, u) -> np.ndarray:
    """Quantiles of the interpolated empirical CDF at every u in [0, 1].

    Positions each probe at p = u * (n - 1) and interpolates linearly between
    the bracketing order statistics, so u=0 gives the minimum, u=1 the
    maximum.
    """
    u = np.asarray(u, dtype=float)
    if not np.all((u >= 0.0) & (u <= 1.0)):  # NaN fails both
        raise ValueError("u must lie in [0, 1]")
    n = dist.samples.size
    return np.interp(u * (n - 1), np.arange(n, dtype=float), dist.samples)


@dataclass(frozen=True)
class TimeProfile:
    """Mean scaled ride count for every (day-of-week, minute) slot."""

    means: np.ndarray  # shape (7, 1440), finite, >= 0
    scale_factor: float = 35.0

    def __post_init__(self):
        if not 0 < self.scale_factor < math.inf:  # NaN fails too
            raise ValueError("scale_factor must be positive and finite")
        if self.means.shape != (DAYS_PER_WEEK, MINUTES_PER_DAY):
            raise ValueError("profile must have shape (7, 1440)")
        if not np.all(np.isfinite(self.means)) or np.any(self.means < 0):
            raise ValueError("profile entries must be finite and non-negative")

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
    with np.errstate(divide="ignore", invalid="ignore"):  # checked below
        means = counts / occurrences[:, None] / scale_factor
    return TimeProfile(means=means, scale_factor=scale_factor)


def probabilistic_round(x, rng: np.random.Generator) -> np.ndarray:
    """Round every entry of x down, bumping it up by 1 with probability
    frac(x), as an int array.

    Each result's expectation equals its entry, so scaled fractional demand
    keeps its mean over a run. One `rng.random` call covers the entries with
    a fractional part, in order; integer entries, zeros included, draw
    nothing.
    """
    x = np.array(x, dtype=float, ndmin=1)
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise ValueError("x must be non-negative and finite")
    counts = np.floor(x)
    frac = x - counts
    up = frac > 0.0
    counts[up] += rng.random(np.count_nonzero(up)) < frac[up]
    return counts.astype(np.int64)


def distribution_lines(dist: EmpiricalDistribution, name: str) -> list:
    """Plain-text dump: version line, name, count, one sample per line."""
    lines = [DIST_MAGIC, f"name {name}", f"count {dist.count}"]
    lines.extend(repr(float(v)) for v in dist.samples)
    return lines


def read_distribution(path) -> tuple[str, EmpiricalDistribution]:
    def build(header, body):
        count = int(header["count"])
        samples = np.array([float(v) for v in body])
        if samples.size != count:
            raise ValueError(f"expected {count} samples, found {samples.size}")
        return header["name"], EmpiricalDistribution(samples=samples)
    return _read_keyed(path, DIST_MAGIC, ("name", "count"), build)


def time_profile_lines(profile: TimeProfile) -> list:
    lines = [PROFILE_MAGIC, f"scale {repr(float(profile.scale_factor))}"]
    for dow in range(DAYS_PER_WEEK):
        row = " ".join(repr(float(v)) for v in profile.means[dow])
        lines.append(f"dow {dow} {row}")
    return lines


def read_time_profile(path) -> TimeProfile:
    def build(header, body):
        scale = float(header["scale"])
        if len(body) != DAYS_PER_WEEK:
            raise ValueError(f"expected {DAYS_PER_WEEK} dow rows, "
                             f"found {len(body)}")
        rows = [line.split() for line in body]
        for dow, row in enumerate(rows):
            if row[:2] != ["dow", str(dow)] or len(row) != 2 + MINUTES_PER_DAY:
                raise ValueError(f"row {dow + 1} is not dow {dow} "
                                 f"with {MINUTES_PER_DAY} values")
        means = np.array([[float(v) for v in row[2:]] for row in rows])
        return TimeProfile(means=means, scale_factor=scale)
    return _read_keyed(path, PROFILE_MAGIC, ("scale",), build)
