import math
from datetime import timedelta

import numpy as np
import pytest

from visitscope.ingest import PoiRecord
from visitscope.quality import haversine
from visitscope.visits import (
    SpatialIndex,
    Visit,
    VisitFeature,
    aggregate_features,
    extract_stay_points,
    feature_matrix,
    snap_visits,
)

from synth import START, offset_m, trace_from_offsets


def walking_leg(lat, lon, heading_m_per_step, n, t0_s, step_s=60.0):
    """Coordinates and offsets for a straight constant-speed leg."""
    coords, offs = [], []
    for i in range(n):
        coords.append(offset_m(lat, lon, heading_m_per_step * i, 0.0))
        offs.append(t0_s + i * step_s)
    return coords, offs


def stay_leg(lat, lon, n, t0_s, step_s=60.0, jitter_m=20.0, seed=0):
    rng = np.random.default_rng(seed)
    coords, offs = [], []
    for i in range(n):
        coords.append(offset_m(lat, lon, rng.uniform(-jitter_m, jitter_m), rng.uniform(-jitter_m, jitter_m)))
        offs.append(t0_s + i * step_s)
    return coords, offs


def build(legs):
    coords, offs = [], []
    for c, o in legs:
        coords += c
        offs += o
    return trace_from_offsets("u", offs, coords)


def test_three_planted_stays():
    home = (39.90, 116.30)
    work = offset_m(*home, 3000.0, 0.0)
    cafe = offset_m(*home, 0.0, 3000.0)
    trace = build([
        stay_leg(*home, 30, 0.0, seed=1),                 # 29 min stay
        walking_leg(*offset_m(*home, 300.0, 0.0), 400.0, 7, 30 * 60.0),
        stay_leg(*work, 40, 40 * 60.0, seed=2),           # 39 min stay
        walking_leg(*offset_m(*work, 300.0, 0.0), 400.0, 7, 81 * 60.0),
        stay_leg(*cafe, 20, 90 * 60.0, seed=3),           # 19 min stay
    ])
    visits = extract_stay_points(trace)
    assert len(visits) == 3
    for v, (lat, lon) in zip(visits, [home, work, cafe]):
        assert haversine(v.lat, v.lon, lat, lon) < 50.0
    # durations within one sample interval of the planted spans
    for v, planted_min in zip(visits, [29, 39, 19]):
        assert abs(v.dwell_s - planted_min * 60.0) <= 60.0


def test_constant_motion_yields_no_stays():
    # 500 m/min steps: consecutive records never cluster within 200 m
    coords, offs = walking_leg(39.9, 116.3, 500.0, 60, 0.0)
    trace = trace_from_offsets("u", offs, coords)
    assert extract_stay_points(trace) == []


def test_short_pause_below_time_threshold():
    coords, offs = stay_leg(39.9, 116.3, 5, 0.0, step_s=60.0)  # 4-minute pause
    trace = trace_from_offsets("u", offs, coords)
    assert extract_stay_points(trace, time_thresh_s=600.0) == []


def test_stays_do_not_overlap():
    rng = np.random.default_rng(9)
    legs = []
    t = 0.0
    for i in range(8):
        spot = offset_m(39.9, 116.3, rng.uniform(0, 5000), rng.uniform(0, 5000))
        n = int(rng.integers(5, 40))
        legs.append(stay_leg(*spot, n, t, seed=i))
        t += n * 60.0
        legs.append(walking_leg(*offset_m(*spot, 300.0, 0.0), 400.0, 6, t))
        t += 6 * 60.0
    visits = extract_stay_points(build(legs))
    assert visits
    for a, b in zip(visits, visits[1:]):
        assert a.departure <= b.arrival


def test_snap_matches_linear_scan():
    rng = np.random.default_rng(5)
    pois = [
        PoiRecord(f"p{i:03d}", *offset_m(39.9, 116.3, rng.uniform(0, 4000), rng.uniform(0, 4000)), "store")
        for i in range(80)
    ]
    index = SpatialIndex(pois)
    for _ in range(300):
        lat, lon = offset_m(39.9, 116.3, rng.uniform(-200, 4200), rng.uniform(-200, 4200))
        got = index.nearest(lat, lon, 100.0)
        cands = [
            (haversine(lat, lon, p.lat, p.lon), p.poi_id, p)
            for p in pois
            if haversine(lat, lon, p.lat, p.lon) <= 100.0
        ]
        want = min(cands)[2] if cands else None
        assert got is want


def test_snap_tie_prefers_smaller_poi_id():
    loc = (39.9, 116.3)
    east = offset_m(*loc, 0.0, 50.0)
    west = offset_m(*loc, 0.0, -50.0)
    pois = [PoiRecord("pb", *east, "a"), PoiRecord("pa", *west, "a")]
    v = Visit("u", *loc, START, START + timedelta(minutes=20))
    snapped = snap_visits([v], SpatialIndex(pois))
    # 50 m east vs 50 m west: equidistant within float noise either way,
    # but the id tiebreak only fires on exact ties, so assert containment
    assert snapped[0].poi_id in ("pa", "pb")
    same = [PoiRecord("pb", *loc, "a"), PoiRecord("pa", *loc, "a")]
    v2 = Visit("u", *loc, START, START + timedelta(minutes=20))
    assert snap_visits([v2], SpatialIndex(same))[0].poi_id == "pa"


def test_snap_outside_radius_is_none():
    pois = [PoiRecord("p1", 39.9, 116.3, "a")]
    far = offset_m(39.9, 116.3, 250.0, 0.0)
    v = Visit("u", *far, START, START + timedelta(minutes=20))
    assert snap_visits([v], SpatialIndex(pois))[0].poi_id is None


def test_aggregate_example():
    # three visits at one PoI across two calendar days; dwells 1h, 2h, 3h
    def visit(day, start_h, dwell_h):
        t0 = START + timedelta(days=day, hours=start_h)
        return Visit("u", 39.9, 116.3, t0, t0 + timedelta(hours=dwell_h), poi_id="p1")

    feats, unsnapped = aggregate_features([visit(0, 8, 1), visit(0, 14, 2), visit(1, 9, 3)])
    assert unsnapped == 0
    (f,) = feats
    assert (f.n_days, f.n_visits) == (2, 3)
    assert f.mean_dwell_h == pytest.approx(2.0)
    assert f.total_dwell_h == pytest.approx(6.0)


def test_mean_dwell_goes_by_way_of_seconds():
    # the arithmetic that visits/features.csv and the fit were made with; total_dwell_h / n_visits ends in ...906
    f = VisitFeature("u", "p1", 1, 7, 3 / 3600.0)
    assert f.mean_dwell_h == 0.00011904761904761905


def test_aggregate_counts_unsnapped_and_conserves_visits():
    t0 = START
    visits = [
        Visit("u", 39.9, 116.3, t0, t0 + timedelta(hours=1), poi_id="p1"),
        Visit("u", 39.9, 116.3, t0, t0 + timedelta(hours=1), poi_id=None),
        Visit("v", 39.9, 116.3, t0, t0 + timedelta(hours=1), poi_id="p1"),
        Visit("u", 39.9, 116.3, t0 + timedelta(days=1), t0 + timedelta(days=1, hours=2), poi_id="p2"),
    ]
    feats, unsnapped = aggregate_features(visits)
    assert unsnapped == 1
    assert sum(f.n_visits for f in feats) + unsnapped == len(visits)
    assert [(f.user_id, f.poi_id) for f in feats] == sorted((f.user_id, f.poi_id) for f in feats)


def test_feature_matrix_log1p_round_trip():
    t0 = START
    visits = [
        Visit("u", 39.9, 116.3, t0, t0 + timedelta(hours=2), poi_id="p1"),
        Visit("u", 39.9, 116.3, t0 + timedelta(days=3), t0 + timedelta(days=3, hours=4), poi_id="p1"),
    ]
    feats, _ = aggregate_features(visits)
    fm = feature_matrix(feats, transform="log1p")
    assert fm.x.shape == (1, 2)
    np.testing.assert_allclose(np.expm1(fm.x), fm.raw, rtol=1e-12)
    np.testing.assert_allclose(fm.raw[0], [2.0, 3.0])
    assert fm.index == [("u", "p1")]

    plain = feature_matrix(feats, transform="none")
    np.testing.assert_allclose(plain.x, plain.raw)
    with pytest.raises(ValueError):
        feature_matrix(feats, transform="zscore")


def test_feature_matrix_empty_input():
    fm = feature_matrix([])
    assert fm.x.shape == (0, 2) and fm.index == []
