import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from visitscope.ingest import MobilityTrace
from visitscope.quality import (
    EARTH_RADIUS_M,
    CompletenessParams,
    assess_user,
    default_window_start,
    grid_assessment,
    haversine,
    select_cohort,
    spatial_completeness,
    temporal_completeness,
)

from synth import START, offset_m, random_trace, trace_from_offsets


# --- independent brute-force oracles ---------------------------------------

def oracle_temporal(trace, params, window_start):
    tau_s = params.tau_hours * 3600.0
    p_s = params.p_hours * 3600.0
    n_bins = math.ceil(p_s / tau_s - 1e-9)
    window_s = params.t_days * 86400.0
    offs = [
        (r.t - window_start).total_seconds()
        for r in trace.records
        if 0 <= (r.t - window_start).total_seconds() < window_s
    ]
    per_day = []
    for day in range(params.t_days):
        day0 = day * 86400.0
        count = 0
        for i in range(1, n_bins + 1):
            lo = day0 + (i - 1) * tau_s
            hi = day0 + min(i * tau_s, p_s)
            if any(lo < o <= hi for o in offs):
                count += 1
        per_day.append(min(1.0, max(0.0, (tau_s / p_s) * count)))
    return per_day, min(1.0, max(0.0, sum(per_day) / params.t_days))


def oracle_spatial(trace, params):
    if len(trace.records) < 2:
        return 1.0
    p_s = params.p_hours * 3600.0
    vmax = params.max_speed_kmh / 3.6
    good = total = 0
    for a, b in zip(trace.records, trace.records[1:]):
        dt = (b.t - a.t).total_seconds()
        dr = haversine(a.lat, a.lon, b.lat, b.lon)
        if dt == 0.0 and dr == 0.0:
            continue
        total += 1
        if dt > 0.0 and dt <= p_s and dr / dt <= vmax:
            good += 1
    return good / total if total else 1.0


def scalar_temporal(trace, params, window_start):
    """Record-by-record reference for temporal_completeness: the same float arithmetic, no numpy."""
    tau_s = params.tau_hours * 3600.0
    p_s = params.p_hours * 3600.0
    covered = {}
    for rec in trace.records:
        off = (rec.t - window_start).total_seconds()
        if off < 0 or off >= params.t_days * 86400.0:
            continue
        day = int(off // 86400.0)
        day_off = off - day * 86400.0
        if day_off == 0.0:
            day -= 1
            day_off = 86400.0
            if day < 0:
                continue
        bin_idx = int(math.floor(day_off / tau_s)) + 1
        if day_off == (bin_idx - 1) * tau_s:
            bin_idx -= 1
        if 1 <= bin_idx <= params.n_bins:
            covered.setdefault(day, set()).add(bin_idx)
    per_day = [min(1.0, max(0.0, (tau_s / p_s) * len(covered.get(d, ())))) for d in range(params.t_days)]
    return per_day, min(1.0, max(0.0, sum(per_day) / params.t_days))


def haversine_reference(lat1, lon1, lat2, lon2):
    # spherical law of cosines via atan2, numerically robust reference
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dlam = math.radians(lon2 - lon1)
    y = math.sqrt(
        (math.cos(phi2) * math.sin(dlam)) ** 2
        + (math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlam)) ** 2
    )
    x = math.sin(phi1) * math.sin(phi2) + math.cos(phi1) * math.cos(phi2) * math.cos(dlam)
    return EARTH_RADIUS_M * math.atan2(y, x)


# --- haversine ---------------------------------------------------------------

def test_haversine_identical_points():
    assert haversine(39.9, 116.3, 39.9, 116.3) == 0.0


def test_haversine_antipodal_arc():
    assert haversine(0.0, 0.0, 0.0, 180.0) == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-12)


def test_haversine_against_reference():
    rng = np.random.default_rng(42)
    for _ in range(300):
        lat1, lat2 = rng.uniform(-89, 89, 2)
        lon1, lon2 = rng.uniform(-180, 180, 2)
        got = haversine(lat1, lon1, lat2, lon2)
        want = haversine_reference(lat1, lon1, lat2, lon2)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-6)


# --- temporal completeness ---------------------------------------------------

def full_coverage_trace(t_days=2, step_min=30):
    offs = np.arange(step_min * 60, t_days * 86400 + 1, step_min * 60, dtype=float) - 1.0
    return trace_from_offsets("u", offs)


def test_temporal_full_coverage():
    params = CompletenessParams(tau_hours=1.0, t_days=2)
    _, mu = temporal_completeness(full_coverage_trace(), params, START)
    assert mu == 1.0


def test_temporal_empty_trace():
    params = CompletenessParams(tau_hours=1.0, t_days=3)
    per_day, mu = temporal_completeness(MobilityTrace("u", []), params, START)
    assert mu == 0.0 and per_day == [0.0, 0.0, 0.0]


def test_temporal_half_coverage_single_day():
    # records strictly inside 12 of the 24 one-hour bins
    offs = [h * 3600 + 120 for h in range(12)]
    trace = trace_from_offsets("u", offs)
    params = CompletenessParams(tau_hours=1.0, t_days=1)
    per_day, mu = temporal_completeness(trace, params, START)
    assert per_day[0] == pytest.approx(0.5) and mu == pytest.approx(0.5)


def test_temporal_day_boundary_belongs_to_previous_day():
    # a record exactly at midnight day 1 covers day 0's last bin
    trace = trace_from_offsets("u", [86400.0])
    params = CompletenessParams(tau_hours=1.0, t_days=2)
    per_day, _ = temporal_completeness(trace, params, START)
    assert per_day[0] == pytest.approx(1.0 / 24.0) and per_day[1] == 0.0


def test_temporal_window_start_covers_nothing():
    trace = trace_from_offsets("u", [0.0])
    params = CompletenessParams(tau_hours=1.0, t_days=1)
    _, mu = temporal_completeness(trace, params, START)
    assert mu == 0.0


def test_temporal_oracle_equivalence_randomized():
    rng = np.random.default_rng(1)
    for i in range(200):
        trace = random_trace(rng, t_days=3)
        for tau in (1.0, 4.0, 6.0):
            params = CompletenessParams(tau_hours=tau, t_days=3)
            got_days, got_mu = temporal_completeness(trace, params, START)
            want_days, want_mu = oracle_temporal(trace, params, START)
            assert got_days == want_days
            assert got_mu == want_mu


def test_temporal_truncated_last_bin():
    # tau=5h over P=24h -> 5 bins, last truncated to 4h; full coverage clamps to 1
    offs = [b * 5 * 3600 + 60 for b in range(5)]
    trace = trace_from_offsets("u", offs)
    params = CompletenessParams(tau_hours=5.0, t_days=1)
    per_day, mu = temporal_completeness(trace, params, START)
    assert per_day == oracle_temporal(trace, params, START)[0]
    assert mu == 1.0


# --- spatial completeness ----------------------------------------------------

def two_point_trace(dist_km, dt_h):
    lat2, lon2 = offset_m(39.9, 116.3, dist_km * 1000.0, 0.0)
    return trace_from_offsets("u", [0.0, dt_h * 3600.0], [(39.9, 116.3), (lat2, lon2)])


def test_spatial_slow_pair_valid():
    assert spatial_completeness(two_point_trace(10.0, 1.0), CompletenessParams()) == 1.0


def test_spatial_fast_pair_invalid():
    assert spatial_completeness(two_point_trace(300.0, 1.0), CompletenessParams()) == 0.0


def test_spatial_teleport_pair():
    # 11 records, one teleport pair -> 9/10
    coords = [(39.9, 116.3)] * 11
    coords[5] = offset_m(39.9, 116.3, 500_000.0, 0.0)
    # teleport into record 5 invalidates pair (4,5); make pair (5,6) valid by
    # returning over a long gap
    offs = [i * 3600.0 for i in range(11)]
    offs[6] = offs[5] + 5 * 3600.0
    offs = sorted(set(offs))
    while len(offs) < 11:
        offs.append(offs[-1] + 3600.0)
    trace = trace_from_offsets("u", offs[:11], coords)
    params = CompletenessParams()
    got = spatial_completeness(trace, params)
    assert got == oracle_spatial(trace, params)


def test_spatial_single_record_defaults_to_one():
    with pytest.warns(UserWarning):
        assert spatial_completeness(trace_from_offsets("u", [0.0]), CompletenessParams()) == 1.0


def test_spatial_zero_gap_rules():
    # same t, same place -> skipped; same t, moved -> invalid
    trace = trace_from_offsets(
        "u", [0.0, 0.0, 3600.0], [(39.9, 116.3), (39.9, 116.3), (39.9, 116.3)]
    )
    assert spatial_completeness(trace, CompletenessParams()) == 1.0
    teleported = trace_from_offsets(
        "u", [0.0, 3600.0, 3600.0], [(39.9, 116.3), (39.9, 116.3), (40.9, 116.3)]
    )
    assert spatial_completeness(teleported, CompletenessParams()) == 0.5


def test_spatial_oracle_equivalence_randomized():
    rng = np.random.default_rng(2)
    for i in range(200):
        trace = random_trace(rng, t_days=3)
        if len(trace.records) < 2:
            continue
        params = CompletenessParams()
        assert spatial_completeness(trace, params) == oracle_spatial(trace, params)


# --- properties --------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000_000))
def test_metrics_bounded(seed):
    rng = np.random.default_rng(seed)
    trace = random_trace(rng, t_days=2)
    params = CompletenessParams(tau_hours=1.0, t_days=2)
    _, mu_t = temporal_completeness(trace, params, START)
    assert 0.0 <= mu_t <= 1.0
    if len(trace.records) >= 2:
        assert 0.0 <= spatial_completeness(trace, params) <= 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000_000))
def test_window_nesting(seed):
    rng = np.random.default_rng(seed)
    trace = random_trace(rng, t_days=2)
    mus = {}
    for tau in (1.0, 2.0, 4.0, 6.0):
        _, mus[tau] = temporal_completeness(
            trace, CompletenessParams(tau_hours=tau, t_days=2), START
        )
    # divisor pairs only
    assert mus[1.0] <= mus[2.0] <= mus[4.0]
    assert mus[1.0] <= mus[6.0]
    assert mus[2.0] <= mus[6.0]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000_000), st.floats(0, 2 * 86400 - 1))
def test_adding_record_never_decreases_mu_t(seed, extra_off):
    rng = np.random.default_rng(seed)
    trace = random_trace(rng, t_days=2)
    params = CompletenessParams(tau_hours=1.0, t_days=2)
    _, before = temporal_completeness(trace, params, START)
    extra = trace_from_offsets("u", [extra_off]).records[0]
    bigger = MobilityTrace("u", sorted(trace.records + [extra], key=lambda r: r.t))
    _, after = temporal_completeness(bigger, params, START)
    assert after >= before


def test_teleport_substitution_decreases_mu_s():
    offs = [i * 3600.0 for i in range(10)]
    coords = [offset_m(39.9, 116.3, 1000.0 * i, 0.0) for i in range(10)]
    trace = trace_from_offsets("u", offs, coords)
    params = CompletenessParams()
    base = spatial_completeness(trace, params)
    assert base == 1.0
    coords2 = list(coords)
    coords2[5] = offset_m(39.9, 116.3, 1_000_000.0, 0.0)
    worse = spatial_completeness(trace_from_offsets("u", offs, coords2), params)
    assert worse < base


# --- grid assessment and cohort ---------------------------------------------

def test_grid_assessment_full_coverage_user():
    trace = full_coverage_trace(t_days=30, step_min=30)
    cells = grid_assessment({"u": trace})
    assert len(cells) == 9
    for cell in cells.values():
        assert cell.reports[0].mu_t == 1.0


def test_grid_assessment_daytime_only_cohort():
    # records only 08:00-20:00 -> mu_T(tau=1) = 0.5 per day
    offs = []
    for day in range(7):
        for h in range(8, 20):
            offs.append(day * 86400 + h * 3600 + 300)
    trace = trace_from_offsets("u", offs)
    cells = grid_assessment({"u": trace}, tau_set=(1.0,), t_set=(7,))
    rep = cells[(1.0, 7)].reports[0]
    assert rep.mu_t == pytest.approx(0.5)
    assert all(day == pytest.approx(0.5) for day in rep.per_day)


GRID_TAUS = (1.0, 4.0, 5.0, 6.0)
GRID_TS = (1, 7, 15, 30)


def edge_traces(rng):
    """Traces with fixes on day origins, on tau edges, before the window start and after T."""
    edges = [d * 86400.0 for d in range(32)] + [h * 3600.0 for h in range(24 * 31)]
    yield "edges", trace_from_offsets("edges", sorted(edges))
    yield "near", trace_from_offsets(
        "near", sorted(e + s for e in edges[::7] for s in (-1e-6, 1e-6, 0.5))
    )
    late = trace_from_offsets("late", [3600.0 * 5, 7 * 86400.0, 15 * 86400.0, 30 * 86400.0, 40 * 86400.0])
    yield "late", late
    # unsorted: the window starts at the first record's midnight, so later-listed
    # records can fall before it
    early = trace_from_offsets("early", [-86400.0 * 2, -1e-6, -3600.0]).records
    yield "before", MobilityTrace("before", [late.records[1]] + early + late.records[2:])
    yield "one", trace_from_offsets("one", [3600.0 * 7 + 0.25])
    yield "empty", MobilityTrace("empty", [])
    for i in range(30):
        trace = random_trace(rng, t_days=int(rng.choice([2, 8, 31])), user=f"r{i:02d}")
        yield trace.user_id, trace


@pytest.mark.filterwarnings("ignore:trace .* mu_S defaults to 1.0")
def test_grid_cells_equal_assess_user():
    traces = dict(edge_traces(np.random.default_rng(9)))
    cells = grid_assessment(traces, tau_set=GRID_TAUS, t_set=GRID_TS, extra=[(2, 10), (1.0, 7)])
    assert list(cells) == [(tau, t) for tau in GRID_TAUS for t in GRID_TS] + [(2.0, 10)]
    users = sorted(u for u, tr in traces.items() if tr.records)
    for (tau, t_days), cell in cells.items():
        params = CompletenessParams(tau_hours=tau, t_days=t_days)
        assert [r.user_id for r in cell.reports] == users
        for rep in cell.reports:
            trace = traces[rep.user_id]
            want = assess_user(trace, params)
            assert rep.params == params
            assert rep.mu_t == want.mu_t and rep.mu_s == want.mu_s and rep.per_day == want.per_day
            assert (rep.per_day, rep.mu_t) == scalar_temporal(trace, params, default_window_start(trace))


def test_grid_with_an_empty_axis_is_empty():
    traces = {"u": full_coverage_trace(t_days=2)}
    assert grid_assessment(traces, tau_set=(), t_set=(7,)) == {}
    assert grid_assessment(traces, tau_set=(1.0,), t_set=()) == {}
    only = grid_assessment(traces, tau_set=(), t_set=(7,), extra=[(4.0, 2)])
    assert list(only) == [(4.0, 2)] and [r.mu_t for r in only[(4.0, 2)].reports] == [1.0]


def test_grid_computes_mu_s_once_per_user():
    with pytest.warns(UserWarning) as caught:
        cells = grid_assessment({"v": trace_from_offsets("v", [3600.0])})
    assert len(cells) == 9 and len(caught) == 1


def test_select_cohort_thresholds():
    trace = full_coverage_trace(t_days=15, step_min=30)
    full = assess_user(trace, CompletenessParams(tau_hours=1.0, t_days=15))
    assert select_cohort([full]) == ["u"]
    partial = assess_user(
        trace_from_offsets("v", [3600.0 * h + 60 for h in range(24)]),
        CompletenessParams(tau_hours=1.0, t_days=15),
    )
    assert partial.mu_t < 1.0
    assert select_cohort([full, partial]) == ["u"]
    assert set(select_cohort([full, partial], mu_t_min=0.05)) == {"u", "v"}


def test_select_cohort_empty_warns():
    rep = assess_user(
        trace_from_offsets("v", [3600.0]), CompletenessParams(tau_hours=1.0, t_days=15)
    )
    with pytest.warns(UserWarning):
        assert select_cohort([rep]) == []


def test_default_window_start_is_midnight():
    trace = trace_from_offsets("u", [3600.0 * 5 + 42])
    assert default_window_start(trace) == START
