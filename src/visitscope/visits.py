"""Stay-point extraction, PoI snapping, and per-(user, PoI) visit features."""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .ingest import MobilityTrace, PoiRecord
from .quality import haversine

DEFAULT_DIST_THRESH_M = 200.0
DEFAULT_TIME_THRESH_S = 600.0
DEFAULT_SNAP_RADIUS_M = 100.0

TRANSFORMS = ("none", "log1p")  # of the features before the fit

M_PER_DEG_LAT = 110_574.0
M_PER_DEG_LON_EQ = 111_320.0


@dataclass
class Visit:
    """One stay event: a user lingering near one spot between arrival and departure."""

    user_id: str
    lat: float
    lon: float
    arrival: datetime
    departure: datetime
    poi_id: str | None = None

    @property
    def dwell_s(self) -> float:
        return (self.departure - self.arrival).total_seconds()


@dataclass
class VisitFeature:
    """Aggregated visit behavior of one user at one PoI."""

    user_id: str
    poi_id: str
    n_days: int
    n_visits: int
    total_dwell_h: float

    @property
    def mean_dwell_h(self) -> float:
        # by way of seconds, the arithmetic the fit's bytes were made with
        return self.total_dwell_h * 3600.0 / self.n_visits / 3600.0


class SpatialIndex:
    """Uniform lat/lon grid over the PoI set for radius-bounded nearest queries.

    Queries scan every cell overlapping the query circle's bounding box, so
    results are exact for any cell size.
    """

    def __init__(self, pois: list[PoiRecord], cell_m: float = DEFAULT_SNAP_RADIUS_M):
        self.pois = list(pois)
        ref_lat = max((abs(p.lat) for p in pois), default=0.0)
        self.cell_lat_deg = cell_m / M_PER_DEG_LAT
        self.m_per_deg_lon = max(1.0, M_PER_DEG_LON_EQ * math.cos(math.radians(min(ref_lat, 89.0))))
        self.cell_lon_deg = cell_m / self.m_per_deg_lon
        self.cells: dict[tuple[int, int], list[PoiRecord]] = {}
        for poi in self.pois:
            self.cells.setdefault(self._key(poi.lat, poi.lon), []).append(poi)

    def _key(self, lat: float, lon: float) -> tuple[int, int]:
        return (int(math.floor(lat / self.cell_lat_deg)), int(math.floor(lon / self.cell_lon_deg)))

    def nearest(self, lat: float, lon: float, radius_m: float) -> PoiRecord | None:
        """Closest PoI within radius_m, ties broken by smaller poi_id."""
        dlat = radius_m / M_PER_DEG_LAT * 1.01
        dlon = radius_m / (M_PER_DEG_LON_EQ * max(0.01, math.cos(math.radians(abs(lat))))) * 1.01
        i_lo, j_lo = self._key(lat - dlat, lon - dlon)
        i_hi, j_hi = self._key(lat + dlat, lon + dlon)
        best: tuple[float, str, PoiRecord] | None = None
        for i in range(i_lo, i_hi + 1):
            for j in range(j_lo, j_hi + 1):
                for poi in self.cells.get((i, j), ()):
                    d = haversine(lat, lon, poi.lat, poi.lon)
                    if d > radius_m:
                        continue
                    cand = (d, poi.poi_id, poi)
                    if best is None or cand[:2] < best[:2]:
                        best = cand
        return best[2] if best else None


def extract_stay_points(
    trace: MobilityTrace,
    dist_thresh_m: float = DEFAULT_DIST_THRESH_M,
    time_thresh_s: float = DEFAULT_TIME_THRESH_S,
) -> list[Visit]:
    """Scan-forward stay-point detection.

    Grow a run of consecutive records all within dist_thresh of the run's
    anchor record; when the run spans at least time_thresh, emit a visit at
    the member centroid and resume after the run.
    """
    recs = trace.records
    visits: list[Visit] = []
    i = 0
    n = len(recs)
    while i < n:
        anchor = recs[i]
        j = i + 1
        while j < n and haversine(anchor.lat, anchor.lon, recs[j].lat, recs[j].lon) <= dist_thresh_m:
            j += 1
        span = (recs[j - 1].t - recs[i].t).total_seconds()
        if span >= time_thresh_s:
            members = recs[i:j]
            lat = sum(r.lat for r in members) / len(members)
            lon = sum(r.lon for r in members) / len(members)
            visits.append(Visit(trace.user_id, lat, lon, recs[i].t, recs[j - 1].t))
            i = j
        else:
            i += 1
    return visits


def snap_visits(
    visits: list[Visit], index: SpatialIndex, radius_m: float = DEFAULT_SNAP_RADIUS_M
) -> list[Visit]:
    for v in visits:
        poi = index.nearest(v.lat, v.lon, radius_m)
        v.poi_id = poi.poi_id if poi else None
    return visits


def aggregate_features(visits: list[Visit]) -> tuple[list[VisitFeature], int]:
    """Group snapped visits by (user, PoI); returns features and the unsnapped count."""
    unsnapped = 0
    groups: dict[tuple[str, str], list[Visit]] = {}
    for v in visits:
        if v.poi_id is None:
            unsnapped += 1
            continue
        groups.setdefault((v.user_id, v.poi_id), []).append(v)

    features = []
    for (user, poi) in sorted(groups):
        vs = groups[(user, poi)]
        days = {v.arrival.date() for v in vs}
        features.append(
            VisitFeature(user, poi, len(days), len(vs), sum(v.dwell_s for v in vs) / 3600.0)
        )
    return features, unsnapped


@dataclass
class FeatureMatrix:
    """n x 2 feature array [n_days, mean_dwell_h] plus row provenance."""

    x: np.ndarray               # as fitted (possibly log1p-transformed)
    raw: np.ndarray             # untransformed values
    index: list[tuple[str, str]]  # row -> (user_id, poi_id)
    transform: str


def feature_matrix(features: list[VisitFeature], transform: str = "log1p") -> FeatureMatrix:
    if transform not in TRANSFORMS:
        raise ValueError(f"unknown transform {transform!r}")
    raw = np.array([[f.n_days, f.mean_dwell_h] for f in features], dtype=float)
    raw = raw.reshape(-1, 2)
    x = np.log1p(raw) if transform == "log1p" else raw.copy()
    idx = [(f.user_id, f.poi_id) for f in features]
    return FeatureMatrix(x, raw, idx, transform)
