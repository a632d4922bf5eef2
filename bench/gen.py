"""Seeded input generators for the benchmark workloads (numpy only, no visitscope).

The Geolife tree follows the make-up of ``tests/synth.make_geolife_fixture``:
an 8 x 8 PoI grid 700 m apart, one PLT file per user, a fix every 5 minutes,
and a home / work / rotating-extras weekday routine. On top of that some users
are planted so that cohort selection and the G3 override have work to do:

* ``gap`` users lose 3 hours of fixes on one day of the first week, so they
  fail mu_T at tau = 1 h but pass at tau = 4 h (a 3 h gap cannot empty a 4 h bin);
* ``teleport`` users have 3 % of their fixes moved 0.2 deg north (22 km in
  5 minutes), so they fail mu_S at every (tau, T);
* ``trip`` users spend both weekends at another PoI (Sat 10:00 to Sun 20:00),
  so their mean dwell there exceeds 24 h.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

START = datetime(2024, 1, 1)  # a Monday
STEP_S = 300
BASE_LAT, BASE_LON = 39.90, 116.30
POI_SPACING_M = 700.0
CATEGORIES = [
    "food", "residential", "office_building", "store", "public_service",
    "recreation", "education", "religious",
]
PLT_HEADER = (
    "Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n"
    "0,2,255,My Track,0,0,2,8421376\n0\n"
)
GAP_S = 3 * 3600
TELEPORT_SHARE = 0.03
TELEPORT_DEG = 0.2

# planted mixture for gmm-sweep, in the log1p(n_days), log1p(mean_dwell_h) plane
GMM_CENTERS = np.array([(0.8, 0.5), (0.8, 2.5), (1.7, 1.5), (2.6, 0.5), (2.6, 2.5)])
GMM_SD = 0.25


def offset_m(lat: float, lon: float, north_m: float, east_m: float) -> tuple[float, float]:
    return lat + north_m / 110_574.0, lon + east_m / (111_320.0 * math.cos(math.radians(lat)))


@dataclass
class GeolifeInput:
    """What the generator wrote, kept for the output checks."""

    root: str                 # PLT tree (plt_root)
    poi_csv: str
    pois: list                # (poi_id, lat, lon, category), as written
    kinds: dict               # user -> "normal" | "gap" | "teleport" | "trip"
    t: dict = field(default_factory=dict)    # user -> int64 seconds since START
    lat: dict = field(default_factory=dict)  # user -> float64, as written (6 decimals)
    lon: dict = field(default_factory=dict)

    @property
    def n_records(self) -> int:
        return sum(len(v) for v in self.t.values())


def _pois() -> list:
    pois = []
    for gi in range(8):
        for gj in range(8):
            lat, lon = offset_m(BASE_LAT, BASE_LON, gi * POI_SPACING_M, gj * POI_SPACING_M)
            pois.append((f"poi{gi}{gj}", round(lat, 6), round(lon, 6), CATEGORIES[(gi * 8 + gj) % 8]))
    return pois


def _lerp(a, b, frac):
    return a + (b - a) * frac


def _user_track(rng, n_slots, home, work, extras, trip, u):
    """lat/lon per 5-minute slot for one user (before gaps and teleports)."""
    slot = np.arange(n_slots)
    day = slot // 288
    hour = (slot % 288) * STEP_S / 3600.0
    dow = (START.weekday() + day) % 7
    weekend = dow >= 5

    lat = np.full(n_slots, home[1])
    lon = np.full(n_slots, home[2])
    noisy = np.ones(n_slots, dtype=bool)

    wd = ~weekend
    go = wd & (hour >= 8.0) & (hour < 9.0)
    lat[go] = _lerp(home[1], work[1], hour[go] - 8.0)
    lon[go] = _lerp(home[2], work[2], hour[go] - 8.0)
    noisy[go] = False
    at_work = wd & (hour >= 9.0) & (hour < 17.0)
    lat[at_work], lon[at_work] = work[1], work[2]
    late = wd & (hour >= 17.0) & (hour < 18.0)
    for d in np.unique(day[late]):
        m = late & (day == d)
        if (d + u) % (2 + d % 2) == 0:
            extra = extras[(d + u) % len(extras)]
            lat[m], lon[m] = extra[1], extra[2]
        else:
            lat[m], lon[m] = work[1], work[2]
    back = wd & (hour >= 18.0) & (hour < 19.5)
    lat[back] = _lerp(work[1], home[1], (hour[back] - 18.0) / 1.5)
    lon[back] = _lerp(work[2], home[2], (hour[back] - 18.0) / 1.5)
    noisy[back] = False

    if trip is not None:
        # Sat 09:00-10:00 out, Sat 10:00 - Sun 20:00 away, Sun 20:00-21:00 back
        sat = weekend & (dow == 5)
        sun = weekend & (dow == 6)
        out = sat & (hour >= 9.0) & (hour < 10.0)
        lat[out] = _lerp(home[1], trip[1], hour[out] - 9.0)
        lon[out] = _lerp(home[2], trip[2], hour[out] - 9.0)
        noisy[out] = False
        away = (sat & (hour >= 10.0)) | (sun & (hour < 20.0))
        lat[away], lon[away] = trip[1], trip[2]
        ret = sun & (hour >= 20.0) & (hour < 21.0)
        lat[ret] = _lerp(trip[1], home[1], hour[ret] - 20.0)
        lon[ret] = _lerp(trip[2], home[2], hour[ret] - 20.0)
        noisy[ret] = False

    k = int(noisy.sum())
    lat[noisy] += rng.normal(0, 0.0001, size=k)
    lon[noisy] += rng.normal(0, 0.0001, size=k)
    return lat, lon


def make_geolife(root: str, seed: int, n_users: int = 50, t_days: int = 15,
                 n_gap: int = 4, n_teleport: int = 4, n_trip: int = 6, index: int = 0) -> GeolifeInput:
    """Write a Geolife-layout PLT tree plus a PoI catalog under ``root``.

    ``index`` draws the index-th of a seed's independent trees.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, n_users, t_days, index]))
    pois = _pois()
    os.makedirs(root, exist_ok=True)
    poi_csv = os.path.join(root, "pois.csv")
    with open(poi_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["poi_id", "lat", "lon", "category"])
        writer.writerows(pois)

    order = rng.permutation(n_users)
    kinds = {}
    for rank, u in enumerate(order):
        kind = "normal"
        if rank < n_gap:
            kind = "gap"
        elif rank < n_gap + n_teleport:
            kind = "teleport"
        elif rank < n_gap + n_teleport + n_trip:
            kind = "trip"
        kinds[f"{u:03d}"] = kind

    n_slots = t_days * 288
    slot_t = np.arange(n_slots, dtype=np.int64) * STEP_S
    epoch_days = (START - datetime(1899, 12, 30)).days
    # date/time columns are shared by every user
    stamps = [START + timedelta(seconds=int(s)) for s in slot_t]
    tails = [
        f",0,0,{epoch_days + s / 86400.0:.10f},{ts:%Y-%m-%d},{ts:%H:%M:%S}\n"
        for s, ts in zip(slot_t.tolist(), stamps)
    ]

    data = GeolifeInput(os.path.join(root, "Data"), poi_csv, pois, kinds)
    for u in range(n_users):
        user = f"{u:03d}"
        picks = rng.choice(len(pois), size=6, replace=False)
        home, work = pois[picks[0]], pois[picks[1]]
        extras = [pois[i] for i in picks[2:5]]
        trip = pois[picks[5]] if kinds[user] == "trip" else None
        lat, lon = _user_track(rng, n_slots, home, work, extras, trip, u)
        keep = np.ones(n_slots, dtype=bool)
        if kinds[user] == "gap":
            day = int(rng.integers(1, 6))
            start = day * 86400 + int(rng.integers(10 * 12, 13 * 12)) * STEP_S
            keep &= ~((slot_t >= start) & (slot_t < start + GAP_S))
        elif kinds[user] == "teleport":
            moved = rng.choice(np.arange(1, n_slots - 1), size=int(TELEPORT_SHARE * n_slots), replace=False)
            lat[moved] += TELEPORT_DEG
        idx = np.flatnonzero(keep)
        lat_s = [f"{v:.6f}" for v in lat[idx].tolist()]
        lon_s = [f"{v:.6f}" for v in lon[idx].tolist()]
        traj = os.path.join(data.root, user, "Trajectory")
        os.makedirs(traj, exist_ok=True)
        with open(os.path.join(traj, "20240101000000.plt"), "w") as fh:
            fh.write(PLT_HEADER)
            fh.write("".join(a + "," + b + tails[i] for a, b, i in zip(lat_s, lon_s, idx.tolist())))
        data.t[user] = slot_t[idx]
        data.lat[user] = np.array(lat_s, dtype=float)
        data.lon[user] = np.array(lon_s, dtype=float)
    return data


def geolife_config(data: GeolifeInput, out_dir: str, **sections) -> dict:
    """Pipeline config for the generated tree; ``sections`` override config sections."""
    cfg = {
        "out_dir": out_dir,
        "ingest": {
            "plt_root": data.root,
            "poi_csv": data.poi_csv,
            "poi_column_map": {"poi_id": "poi_id", "lat": "lat", "lon": "lon", "category": "category"},
        },
    }
    for name, values in sections.items():
        cfg[name] = dict(values)
    return cfg


def make_gmm_matrix(seed: int, n_rows: int = 2000, index: int = 0) -> np.ndarray:
    """Equal-weight, isotropic, well-separated 5-component mixture, rows shuffled.

    ``index`` draws the index-th of a seed's independent matrices.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, n_rows, index]))
    k = len(GMM_CENTERS)
    labels = np.repeat(np.arange(k), n_rows // k)
    x = GMM_CENTERS[labels] + rng.normal(0.0, GMM_SD, size=(len(labels), 2))
    return x[rng.permutation(len(x))]
