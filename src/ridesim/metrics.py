"""Evaluation statistics for simulated against observed behavior.

Daily ride counts are averaged across replications with a normal-theory
confidence band and a signed percentage gap against actuals. Acceptance
behavior is summarized as per-bin rates over hour of day and trip distance,
compared across sources by Pearson correlation on jointly populated bins.
Directional experiments use a plain percentile bootstrap on the difference
of acceptance rates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .sim import Action, F_MINUTE_OF_DAY, F_TRIP_KM, OBS_DIM

DOW_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient; errors on degenerate input."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size:
        raise ValueError("series lengths differ")
    if x.size < 2:
        raise ValueError("need at least 2 points")
    dx = x - x.mean()
    dy = y - y.mean()
    denom = math.sqrt(float(dx @ dx) * float(dy @ dy))
    if denom == 0.0:
        raise ValueError("zero variance series")
    return float(dx @ dy) / denom


def delta_percent(predicted: float, actual: float) -> float:
    """Signed percentage gap of predicted against actual, 3 decimals."""
    if actual == 0:
        raise ValueError("actual count is zero")
    return round(100.0 * (predicted - actual) / actual, 3)


@dataclass(frozen=True)
class DailyCountRow:
    day_index: int
    dow_name: str
    predicted_mean: float
    ci_low: float | None
    ci_high: float | None
    actual: float | None
    delta_pct: float | None


@dataclass
class DailyCountReport:
    replications: int
    rows: list = field(default_factory=list)

    def to_rows(self) -> list:
        out = []
        for r in self.rows:
            out.append([str(r.day_index), r.dow_name,
                        f"{r.predicted_mean:.3f}",
                        "" if r.ci_low is None else f"{r.ci_low:.3f}",
                        "" if r.ci_high is None else f"{r.ci_high:.3f}",
                        "" if r.actual is None else f"{r.actual:.3f}",
                        "" if r.delta_pct is None else f"{r.delta_pct:.3f}"])
        return out


DAILY_COUNT_COLUMNS = ["day", "dow", "predicted_mean", "ci_low", "ci_high",
                       "actual", "delta_percent"]


def daily_counts(replication_counts: Sequence[Sequence[float]],
                 actual: Sequence[float] | None = None,
                 start_dow: int = 0,
                 scale: float = 1.0) -> DailyCountReport:
    """Average per-day generated counts across replications.

    Every replication must report the same number of days. Predictions are
    multiplied by `scale` before comparison so a down-scaled simulation can
    be read against full-size actuals. The confidence band is
    mean +/- 1.96 * sd / sqrt(n); with fewer than 2 replications it is
    omitted with a warning.
    """
    if not replication_counts:
        raise ValueError("no replications")
    arr = np.asarray(replication_counts, dtype=float) * scale
    if arr.ndim != 2:
        raise ValueError("replications must share the same day count")
    n, days = arr.shape
    if actual is not None and len(actual) != days:
        raise ValueError("actual series length does not match day count")
    means = arr.mean(axis=0)
    if n >= 2:
        half = 1.96 * arr.std(axis=0, ddof=1) / math.sqrt(n)
    else:
        warnings.warn("single replication; confidence band omitted")
        half = None
    report = DailyCountReport(replications=n)
    for day in range(days):
        act = None if actual is None else float(actual[day])
        delta = None
        if act is not None and act != 0:
            delta = delta_percent(float(means[day]), act)
        report.rows.append(DailyCountRow(
            day_index=day,
            dow_name=DOW_NAMES[(start_dow + day) % 7],
            predicted_mean=float(means[day]),
            ci_low=None if half is None else float(means[day] - half[day]),
            ci_high=None if half is None else float(means[day] + half[day]),
            actual=act,
            delta_pct=delta))
    return report


@dataclass
class AcceptanceCurve:
    """Acceptance rate per bin; empty bins carry a None rate."""

    labels: list
    offers: list
    accepted: list

    def __post_init__(self):
        if not len(self.labels) == len(self.offers) == len(self.accepted):
            raise ValueError(f"{len(self.labels)} bins, but {len(self.offers)} "
                             f"offer and {len(self.accepted)} accept counts")
        if not all(0 <= a <= o for o, a in zip(self.offers, self.accepted)):
            raise ValueError("a bin's accepts are negative or exceed its offers")

    def rates(self) -> list:
        return [None if o == 0 else a / o
                for o, a in zip(self.offers, self.accepted)]


ACCEPTANCE_COLUMNS = ["bin", "offers", "accepted", "rate"]


def curve_rows(curve: AcceptanceCurve) -> list:
    rows = []
    for label, offers, accepted, rate in zip(curve.labels, curve.offers,
                                             curve.accepted, curve.rates()):
        rows.append([label, str(offers), str(accepted),
                     "" if rate is None else f"{rate:.6f}"])
    return rows


def _columns(offers, *features) -> tuple:
    """Columns `features` of the offers' observations, then accepted flags;
    offers are sim OfferRecords or log Transitions (`obs` and `action`)."""
    obs = np.array([o.obs for o in offers], dtype=float).reshape(-1, OBS_DIM)
    accepted = np.array([o.action for o in offers], dtype=np.int64) == Action.ACCEPT
    return *(obs[:, f] for f in features), accepted


def _curve(labels, index, accepted) -> AcceptanceCurve:
    """Offers and accepts per bin from each offer's bin `index`; a bin past
    the last one fails the curve's own count check."""
    return AcceptanceCurve(
        labels=labels, offers=np.bincount(index, minlength=len(labels)).tolist(),
        accepted=np.bincount(index[accepted], minlength=len(labels)).tolist())


def hour_curve(minute, accepted) -> AcceptanceCurve:
    """24 hourly bins over offers' minutes of day and (bool) accepted flags."""
    return _curve([f"{h:02d}" for h in range(24)],
                  np.asarray(minute).astype(np.int64) // 60, accepted)


def distance_curve(km, accepted, bin_km: float = 1.0,
                   max_km: float = 20.0) -> AcceptanceCurve:
    """Bins of bin_km width up to max_km, then an overflow bin, over trip km."""
    edges = np.arange(0.0, max_km + bin_km, bin_km)
    labels = [f"{edges[i]:g}-{edges[i + 1]:g}" for i in range(len(edges) - 1)]
    labels.append(f"{max_km:g}+")
    overflow = len(labels) - 1
    km = np.asarray(km, dtype=float)
    inside = km < max_km  # NaN and inf go to the overflow bin
    index = np.full(km.shape, overflow, dtype=np.int64)
    index[inside] = np.minimum(km[inside] // bin_km, overflow)
    return _curve(labels, index, accepted)


def acceptance_by_hour(offers: Sequence) -> AcceptanceCurve:
    """`hour_curve` of offers: sim OfferRecords or log Transitions."""
    return hour_curve(*_columns(offers, F_MINUTE_OF_DAY))


def acceptance_by_distance(offers: Sequence, bin_km: float = 1.0,
                           max_km: float = 20.0) -> AcceptanceCurve:
    """`distance_curve` of offers: sim OfferRecords or log Transitions."""
    return distance_curve(*_columns(offers, F_TRIP_KM), bin_km, max_km)


def acceptance_curves(offers: Sequence) -> tuple:
    """`acceptance_by_hour` and `acceptance_by_distance` (default bins) of
    the same offers, which are stacked once for both."""
    minute, km, accepted = _columns(offers, F_MINUTE_OF_DAY, F_TRIP_KM)
    return hour_curve(minute, accepted), distance_curve(km, accepted)


def curve_pearson(a: AcceptanceCurve, b: AcceptanceCurve) -> float:
    """Correlation of two curves over bins populated on both sides."""
    if a.labels != b.labels:
        raise ValueError("curves have different binning")
    rates_a, rates_b = a.rates(), b.rates()
    xs, ys = [], []
    for i in range(len(a.labels)):
        if rates_a[i] is not None and rates_b[i] is not None:
            xs.append(rates_a[i])
            ys.append(rates_b[i])
    if len(xs) < 2:
        raise ValueError("fewer than 2 jointly populated bins")
    return pearson(xs, ys)

