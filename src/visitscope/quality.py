"""Temporal and spatial completeness metrics and cohort selection."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .ingest import MobilityTrace

EARTH_RADIUS_M = 6_371_000.0
SECONDS_PER_DAY = 86_400.0

DEFAULT_TAU_SET_H = (1.0, 4.0, 6.0)
DEFAULT_T_SET_D = (7, 15, 30)


@dataclass(frozen=True)
class CompletenessParams:
    """Window parameters: observation unit P, window size tau, period T days."""

    p_hours: float = 24.0
    tau_hours: float = 1.0
    t_days: int = 15
    max_speed_kmh: float = 150.0

    def __post_init__(self):
        # a message starts with the field it names, which a config error then reports
        if self.tau_hours <= 0 or self.tau_hours > self.p_hours:
            raise ValueError("tau_hours must satisfy 0 < tau_hours <= p_hours")
        if self.t_days < 1:
            raise ValueError("t_days must be >= 1")
        if self.max_speed_kmh <= 0:
            raise ValueError("max_speed_kmh must be positive")

    @property
    def n_bins(self) -> int:
        # last bin truncated when tau does not divide P
        return math.ceil(self.p_hours / self.tau_hours - 1e-9)


@dataclass
class CompletenessReport:
    user_id: str
    mu_t: float
    mu_s: float
    per_day: list[float]
    params: CompletenessParams


def haversine(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters (R = 6,371,000 m)."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def _offsets(trace: MobilityTrace, window_start: datetime) -> np.ndarray:
    """Seconds from ``window_start`` to each record, exactly as ``timedelta.total_seconds``."""
    recs = trace.records
    return np.fromiter(((r.t - window_start).total_seconds() for r in recs), float, len(recs))


def temporal_completeness(
    trace: MobilityTrace, params: CompletenessParams, window_start: datetime
) -> tuple[list[float], float]:
    """Per-day coverage series and its mean over the T-day window.

    Each day splits into half-open bins ]((i-1)tau, i*tau]; a bin scores 1
    when any record falls inside it; the day score is tau/P times the number
    of covered bins, clamped to [0, 1]. Records outside the window are
    ignored.
    """
    if params.t_days < 1:
        raise ValueError("T must be >= 1")
    return _temporal_from_offsets(_offsets(trace, window_start), params)


def _temporal_from_offsets(off: np.ndarray, params: CompletenessParams) -> tuple[list[float], float]:
    """:func:`temporal_completeness` of the records at window offsets ``off`` (seconds)."""
    tau_s = params.tau_hours * 3600.0
    p_s = params.p_hours * 3600.0
    n_bins = params.n_bins

    off = off[(off >= 0) & (off < params.t_days * SECONDS_PER_DAY)]
    day = np.floor_divide(off, SECONDS_PER_DAY)
    day_off = off - day * SECONDS_PER_DAY
    # bins are half-open ]((i-1)tau, i*tau], so an offset exactly at a day
    # origin closes the previous day's last bin (the window start itself
    # hits the empty bin 0 and is dropped)
    origin = day_off == 0.0
    day[origin] -= 1.0
    day_off[origin] = SECONDS_PER_DAY
    # exact-edge check keeps boundary offsets in the lower bin regardless
    # of division rounding
    bin_idx = np.floor(day_off / tau_s) + 1.0
    bin_idx[day_off == (bin_idx - 1.0) * tau_s] -= 1.0
    keep = (day >= 0) & (bin_idx >= 1) & (bin_idx <= n_bins)

    # distinct (day, bin) pairs, each held exactly as day + 1j * bin
    covered = np.unique(day[keep] + 1j * bin_idx[keep]).real.astype(np.int64)
    counts = np.bincount(covered, minlength=params.t_days)[: params.t_days]
    per_day = [min(1.0, max(0.0, (tau_s / p_s) * n)) for n in counts.tolist()]
    mu_t = sum(per_day) / params.t_days
    return per_day, min(1.0, max(0.0, mu_t))


def spatial_completeness(trace: MobilityTrace, params: CompletenessParams) -> float:
    """Fraction of consecutive record pairs with a plausible gap and speed.

    A pair passes when the time gap is <= P and the implied speed is
    <= max_speed. Zero-gap pairs with zero displacement are skipped; with
    nonzero displacement they fail.
    """
    if len(trace.records) < 2:
        warnings.warn(f"trace {trace.user_id!r} has < 2 records; mu_S defaults to 1.0")
        return 1.0
    p_s = params.p_hours * 3600.0
    max_speed_mps = params.max_speed_kmh / 3.6
    good = 0
    total = 0
    prev = trace.records[0]
    for rec in trace.records[1:]:
        dt = (rec.t - prev.t).total_seconds()
        dr = haversine(prev.lat, prev.lon, rec.lat, rec.lon)
        prev = rec
        if dt == 0.0:
            if dr == 0.0:
                continue
            total += 1
            continue
        total += 1
        if dt <= p_s and dr / dt <= max_speed_mps:
            good += 1
    if total == 0:
        warnings.warn(f"trace {trace.user_id!r} has no measurable pairs; mu_S defaults to 1.0")
        return 1.0
    return good / total


def default_window_start(trace: MobilityTrace) -> datetime:
    """First record's midnight; the natural anchor for per-user assessment."""
    if not trace.records:
        raise ValueError("empty trace has no window start")
    t0 = trace.records[0].t
    return t0.replace(hour=0, minute=0, second=0, microsecond=0)


def assess_user(
    trace: MobilityTrace, params: CompletenessParams, window_start: datetime | None = None
) -> CompletenessReport:
    if window_start is None:
        window_start = default_window_start(trace)
    per_day, mu_t = temporal_completeness(trace, params, window_start)
    mu_s = spatial_completeness(trace, params)
    return CompletenessReport(trace.user_id, mu_t, mu_s, per_day, params)


@dataclass
class GridCell:
    tau_hours: float
    t_days: int
    reports: list[CompletenessReport]

    def quantiles(self, metric: str = "mu_t", qs=(0.0, 0.25, 0.5, 0.75, 1.0)) -> dict[float, float]:
        vals = sorted(getattr(r, metric) for r in self.reports)
        if not vals:
            return {q: float("nan") for q in qs}
        out = {}
        for q in qs:
            idx = min(len(vals) - 1, int(round(q * (len(vals) - 1))))
            out[q] = vals[idx]
        return out

    def histogram(self, metric: str = "mu_t", bins: int = 20) -> list[int]:
        counts = [0] * bins
        for r in self.reports:
            v = getattr(r, metric)
            idx = min(bins - 1, int(v * bins))
            counts[idx] += 1
        return counts


def grid_assessment(
    traces: dict[str, MobilityTrace],
    tau_set=DEFAULT_TAU_SET_H,
    t_set=DEFAULT_T_SET_D,
    p_hours: float = 24.0,
    max_speed_kmh: float = 150.0,
    extra=(),
) -> dict[tuple[float, int], GridCell]:
    """Completeness distribution for every (tau, T) cell of the parameter grid.

    The ``extra`` (tau, T) pairs are scored as cells too. Each user's window
    offsets and mu_S (which reads only P and the speed cap) are computed once
    and shared by every cell.
    """
    keys = [(tau, t) for tau in tau_set for t in t_set] + list(extra)
    cells = {(float(tau), int(t)): GridCell(float(tau), int(t), []) for tau, t in keys}
    params = {key: CompletenessParams(p_hours, *key, max_speed_kmh) for key in cells}
    for user in sorted(traces):
        trace = traces[user]
        if not trace.records or not cells:
            continue
        off = _offsets(trace, default_window_start(trace))
        mu_s = spatial_completeness(trace, next(iter(params.values())))
        for key, cell in cells.items():
            per_day, mu_t = _temporal_from_offsets(off, params[key])
            cell.reports.append(CompletenessReport(user, mu_t, mu_s, per_day, params[key]))
    return cells


def select_cohort(
    reports: list[CompletenessReport],
    mu_t_min: float = 1.0,
    mu_s_min: float = 0.99,
) -> list[str]:
    """Users meeting both completeness floors, sorted by id."""
    chosen = sorted(r.user_id for r in reports if r.mu_t >= mu_t_min and r.mu_s >= mu_s_min)
    if not chosen:
        warnings.warn("cohort selection produced no users")
    return chosen
