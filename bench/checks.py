"""Output checks computed apart from the program (numpy and the csv module only).

Every checker returns a list of problems; an empty list means the check passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from collections import defaultdict
from datetime import datetime

import numpy as np

EARTH_R_M = 6_371_000.0
SNAP_RADIUS_M = 100.0
# visits.csv rounds coordinates to 6 decimals (<= 0.11 m), so distances this
# close to the snap radius cannot be judged from the artifact
SNAP_BAND_M = 0.5
LABELS = ("G1", "G2", "G3", "G4", "G5", "G6", "G7")
D = 2  # feature dimensions


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _json(path):
    with open(path) as fh:
        return json.load(fh)


def haversine_m(lat1, lon1, lat2, lon2):
    p1, p2 = np.radians(lat1), np.radians(lat2)
    a = np.sin((p2 - p1) / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(np.radians(lon2 - lon1) / 2.0) ** 2
    return 2.0 * EARTH_R_M * np.arcsin(np.minimum(1.0, np.sqrt(a)))


def tree_digest(root: str) -> dict:
    """relative path -> sha256 of every file under root except run_manifest.json."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            if rel == "run_manifest.json":
                continue
            with open(path, "rb") as fh:
                out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return out


def tree_diff(got: dict, want: dict) -> list:
    """Files that are missing, extra or different in ``got`` against ``want``."""
    return sorted(rel for rel in set(got) | set(want) if got.get(rel) != want.get(rel))


# -- completeness, recomputed ------------------------------------------------


def mu_t(t_s: np.ndarray, tau_h: float, t_days: int, p_h: float = 24.0) -> float:
    """Temporal completeness from integer fix times (seconds), bins ](i-1)tau, i*tau]."""
    tau_s, p_s = tau_h * 3600.0, p_h * 3600.0
    n_bins = math.ceil(p_h / tau_h - 1e-9)
    off = t_s - (t_s[0] // 86400) * 86400
    off = off[off < t_days * 86400]
    day = off // 86400
    day_off = off - day * 86400
    edge = day_off == 0
    day = np.where(edge, day - 1, day)
    day_off = np.where(edge, 86400, day_off)
    b = np.ceil(day_off / tau_s).astype(np.int64)
    ok = (day >= 0) & (b >= 1) & (b <= n_bins)
    covered = np.unique(day[ok] * (n_bins + 1) + b[ok]) // (n_bins + 1)
    counts = np.bincount(covered, minlength=t_days)[:t_days]
    per_day = [min(1.0, max(0.0, (tau_s / p_s) * int(c))) for c in counts]
    return min(1.0, max(0.0, sum(per_day) / t_days))


def mu_s(t_s, lat, lon, max_speed_kmh: float = 150.0, p_h: float = 24.0) -> float:
    """Spatial completeness: share of consecutive pairs with gap <= P and speed <= max."""
    dt = np.diff(t_s).astype(float)
    dr = haversine_m(lat[:-1], lon[:-1], lat[1:], lon[1:])
    measurable = ~((dt == 0) & (dr == 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        good = (dt > 0) & (dt <= p_h * 3600.0) & (dr / dt <= max_speed_kmh / 3.6)
    total = int(measurable.sum())
    return 1.0 if total == 0 else int((good & measurable).sum()) / total


# -- geolife run tree -----------------------------------------------------------


def check_records(run: str, data) -> list:
    users = _json(os.path.join(run, "ingest", "manifest.json"))["users"]
    want = {u: len(t) for u, t in data.t.items()}
    got = {u: v["n_records"] for u, v in users.items()}
    if got != want:
        bad = sorted(u for u in set(got) | set(want) if got.get(u) != want.get(u))
        return [f"per-user record counts differ from the generator for users {bad[:5]}"]
    return []


def check_quality(run: str, data, cfg: dict) -> list:
    """reports.csv equals recomputed mu_T / mu_S for every grid cell; cohort follows the floors."""
    q = cfg["quality"]
    problems = []
    ms = {u: mu_s(data.t[u], data.lat[u], data.lon[u], q["max_speed_kmh"], q["p_hours"]) for u in data.t}
    mt = {
        (u, float(tau), int(t_days)): mu_t(data.t[u], tau, t_days, q["p_hours"])
        for u in data.t for tau in q["tau_set"] for t_days in q["t_set"]
    }
    seen = 0
    for row in _rows(os.path.join(run, "quality", "reports.csv")):
        key = (row["user_id"], float(row["tau_h"]), int(row["T_d"]))
        seen += 1
        if key not in mt or not (
            math.isclose(float(row["mu_T"]), mt[key], rel_tol=1e-9, abs_tol=1e-12)
            and math.isclose(float(row["mu_S"]), ms[key[0]], rel_tol=1e-9, abs_tol=1e-12)
        ):
            problems.append(f"reports.csv row {key} = ({row['mu_T']}, {row['mu_S']}), "
                            f"recomputed ({mt.get(key)}, {ms.get(key[0])})")
    if seen != len(mt):
        problems.append(f"reports.csv has {seen} rows, expected {len(mt)}")
    want_cohort = sorted(
        u for u in data.t
        if mu_t(data.t[u], q["tau_hours"], int(q["t_days"]), q["p_hours"]) >= q["mu_t_min"]
        and ms[u] >= q["mu_s_min"]
    )
    got = _json(os.path.join(run, "quality", "cohort.json"))["users"]
    if got != want_cohort:
        problems.append(f"cohort {len(got)} users != recomputed {len(want_cohort)}: "
                        f"{sorted(set(got) ^ set(want_cohort))[:5]}")
    return problems[:10]


def check_snapping(run: str, pois: list) -> list:
    """Every visit's PoI is the brute-force nearest within 100 m; unsnapped ones have none."""
    rows = _rows(os.path.join(run, "visits", "visits.csv"))
    if not rows:
        return ["visits.csv is empty"]
    ids = [p[0] for p in pois]
    plat = np.array([p[1] for p in pois])
    plon = np.array([p[2] for p in pois])
    vlat = np.array([float(r["lat"]) for r in rows])
    vlon = np.array([float(r["lon"]) for r in rows])
    dist = haversine_m(vlat[:, None], vlon[:, None], plat[None, :], plon[None, :])
    problems = []
    for i, r in enumerate(rows):
        d = dist[i]
        j = int(np.argmin(d))
        if abs(d[j] - SNAP_RADIUS_M) < SNAP_BAND_M:
            continue
        want = ids[j] if d[j] <= SNAP_RADIUS_M else ""
        if r["poi_id"] != want:
            problems.append(f"visit {i} of {r['user_id']} snapped to {r['poi_id']!r}, "
                            f"nearest within 100 m is {want!r} ({d[j]:.1f} m)")
    return problems[:10]


def check_features(run: str) -> list:
    """features.csv equals a recount of visits.csv; labeled rows mirror the features."""
    groups = defaultdict(list)
    for r in _rows(os.path.join(run, "visits", "visits.csv")):
        if r["poi_id"]:
            groups[(r["user_id"], r["poi_id"])].append(r)
    want = {}
    for key, vs in groups.items():
        days = {datetime.fromisoformat(v["arrival"]).date() for v in vs}
        total_s = sum(float(v["dwell_s"]) for v in vs)
        want[key] = (len(days), len(vs), total_s / len(vs) / 3600.0, total_s / 3600.0)
    feats = _rows(os.path.join(run, "visits", "features.csv"))
    problems = []
    got_keys = [(f["user_id"], f["poi_id"]) for f in feats]
    if got_keys != sorted(want):
        problems.append(f"features.csv has {len(feats)} (user, PoI) rows, recount has {len(want)}")
    for f in feats:
        w = want.get((f["user_id"], f["poi_id"]))
        got = (int(f["n_days"]), int(f["n_visits"]), float(f["mean_dwell_h"]), float(f["total_dwell_h"]))
        if w is None or got[:2] != w[:2] or not all(
            math.isclose(a, b, rel_tol=1e-9) for a, b in zip(got[2:], w[2:])
        ):
            problems.append(f"features row {f['user_id']},{f['poi_id']} = {got}, recount {w}")
    labeled = _rows(os.path.join(run, "classify", "labeled_features.csv"))
    if [(r["user_id"], r["poi_id"]) for r in labeled] != got_keys:
        problems.append("labeled_features.csv rows do not mirror features.csv")
    return problems[:10]


def check_labels(run: str, cfg: dict) -> list:
    c = cfg["classify"]
    problems = []
    for r in _rows(os.path.join(run, "classify", "labeled_features.csv")):
        if r["label"] not in LABELS:
            problems.append(f"unknown label {r['label']!r}")
        elif c["override_enabled"] and float(r["mean_dwell_h"]) > c["dwell_override_h"] and r["label"] != "G3":
            problems.append(f"{r['user_id']},{r['poi_id']} dwells {r['mean_dwell_h']} h but is {r['label']}")
    return problems[:10]


def check_transitions(run: str) -> list:
    """transitions.csv equals a recount of labelled visits in arrival order; rows sum to 1 or 0."""
    label = {(r["user_id"], r["poi_id"]): r["label"]
             for r in _rows(os.path.join(run, "classify", "labeled_features.csv"))}
    seqs = defaultdict(list)
    for r in _rows(os.path.join(run, "visits", "visits.csv")):
        lab = label.get((r["user_id"], r["poi_id"])) if r["poi_id"] else None
        if lab is not None:
            seqs[r["user_id"]].append((r["arrival"], lab))
    want = defaultdict(int)
    for user, seq in seqs.items():
        labs = [lab for _, lab in sorted(seq, key=lambda s: s[0])]
        for a, b in zip(labs, labs[1:]):
            want[(user, a, b)] += 1
    problems = []
    rows = defaultdict(list)
    for r in _rows(os.path.join(run, "patterns", "transitions.csv")):
        rows[(r["user_id"], r["from"])].append((int(r["count"]), float(r["prob"])))
        if int(r["count"]) != want.get((r["user_id"], r["from"], r["to"]), 0):
            problems.append(f"transition {r['user_id']} {r['from']}->{r['to']} count {r['count']}, "
                            f"recount {want.get((r['user_id'], r['from'], r['to']), 0)}")
    if set(u for u, _ in rows) != set(seqs):
        problems.append("transitions.csv users differ from users with labelled visits")
    for key, cells in rows.items():
        total = sum(p for _, p in cells)
        if not (math.isclose(total, 1.0, abs_tol=1e-9) or total == 0.0):
            problems.append(f"transition row {key} sums to {total}")
    return problems[:10]


def check_temporal_profile(run: str, cfg: dict) -> list:
    total = sum(float(r["intensity"]) for r in _rows(os.path.join(run, "patterns", "temporal_profile.csv")))
    want = 7.0 / cfg["quality"]["t_days"]
    if not math.isclose(total, want, rel_tol=1e-6):
        return [f"temporal-profile intensities sum to {total:.6g}, 7 / t_days = {want:.6g}"]
    return []


def n_params(k: int, kind: str, d: int = D) -> int:
    """Free parameters, by hand: means k*d, weights k-1, plus covariance terms."""
    cov = {"spherical": k, "diagonal": k * d, "tied": d * (d + 1) // 2, "full": k * d * (d + 1) // 2}[kind]
    return k * d + (k - 1) + cov


def check_ic(cells: list, n: int) -> list:
    """BIC = p ln n - 2l and AIC = 2p - 2l for every cell (k, kind, loglik, bic, aic)."""
    problems = []
    for k, kind, ll, bic, aic in cells:
        p = n_params(k, kind)
        tol = 1e-9 * max(1.0, abs(ll), abs(bic))
        if not (abs(bic - (p * math.log(n) - 2.0 * ll)) <= tol and abs(aic - (2.0 * p - 2.0 * ll)) <= tol):
            problems.append(f"cell k={k} {kind}: bic {bic} aic {aic} inconsistent with loglik {ll}, p={p}")
    return problems[:10]


def check_sweep_csv(run: str) -> list:
    path = os.path.join(run, "fit", "sweep.csv")
    if not os.path.exists(path):
        return []
    n = len(_rows(os.path.join(run, "visits", "features.csv")))
    cells = [(int(r["k"]), r["cov_kind"], float(r["loglik"]), float(r["bic"]), float(r["aic"]))
             for r in _rows(path)]
    return check_ic(cells, n)


def check_report(run: str) -> list:
    summary = _json(os.path.join(run, "report", "summary.json"))
    cohort = _json(os.path.join(run, "quality", "cohort.json"))["users"]
    labeled = _rows(os.path.join(run, "classify", "labeled_features.csv"))
    counts = {lab: 0 for lab in LABELS}
    for r in labeled:
        counts[r["label"]] = counts.get(r["label"], 0) + 1
    if (summary["cohort_size"], summary["n_features"], summary["label_counts"]) != (len(cohort), len(labeled), counts):
        return ["report/summary.json disagrees with the cohort or the labelled features"]
    return []


def check_geolife_run(run: str, data) -> list:
    """Every check of a finished `visitscope all` tree, against the config it recorded."""
    cfg = _json(os.path.join(run, "run_manifest.json"))["config"]
    problems = []
    for check in (
        lambda: check_records(run, data),
        lambda: check_quality(run, data, cfg),
        lambda: check_snapping(run, data.pois),
        lambda: check_features(run),
        lambda: check_labels(run, cfg),
        lambda: check_transitions(run),
        lambda: check_temporal_profile(run, cfg),
        lambda: check_sweep_csv(run),
        lambda: check_report(run),
    ):
        problems += check()
    return problems


# -- gmm sweep -----------------------------------------------------------------


def k1_loglik(x: np.ndarray, kind: str, reg: float = 1e-6) -> float:
    """Closed-form single-Gaussian MLE log-likelihood (covariance + reg on the diagonal)."""
    n, d = x.shape
    xc = x - x.mean(axis=0)
    s = xc.T @ xc / n
    if kind == "spherical":
        var = np.trace(s) / d + reg
        return float(-0.5 * n * d * (math.log(2 * math.pi) + math.log(var)) - 0.5 * np.sum(xc**2) / var)
    if kind == "diagonal":
        var = np.diag(s) + reg
        return float(-0.5 * n * (d * math.log(2 * math.pi) + np.sum(np.log(var))) - 0.5 * np.sum(xc**2 / var))
    cov = s + reg * np.eye(d)
    _, logdet = np.linalg.slogdet(cov)
    quad = np.sum(xc @ np.linalg.inv(cov) * xc)
    return float(-0.5 * n * (d * math.log(2 * math.pi) + logdet) - 0.5 * quad)


def tied_loglik(x, weights, means, cov) -> float:
    _, logdet = np.linalg.slogdet(cov)
    inv = np.linalg.inv(cov)
    diff = x[:, None, :] - means[None, :, :]
    quad = np.einsum("nkd,de,nke->nk", diff, inv, diff)
    lp = np.log(weights)[None, :] - 0.5 * (x.shape[1] * math.log(2 * math.pi) + logdet + quad)
    m = lp.max(axis=1)
    return float(np.sum(m + np.log(np.exp(lp - m[:, None]).sum(axis=1))))


def check_gmm(x: np.ndarray, cells: list, fit: dict, planted_k: int) -> list:
    """cells: dicts with k, cov_kind, loglik, bic, aic, error; fit: GmmModel.to_dict()."""
    problems = [f"cell k={c['k']} {c['cov_kind']} failed: {c['error']}" for c in cells if c["error"]]
    ok = [c for c in cells if not c["error"]]
    for c in ok:
        if c["k"] == 1:
            want = k1_loglik(x, c["cov_kind"])
            if not math.isclose(c["loglik"], want, rel_tol=1e-8):
                problems.append(f"k=1 {c['cov_kind']} loglik {c['loglik']} != closed form {want}")
    problems += check_ic([(c["k"], c["cov_kind"], c["loglik"], c["bic"], c["aic"]) for c in ok], len(x))
    for kind in sorted({c["cov_kind"] for c in ok}):
        series = {c["k"]: c["bic"] for c in ok if c["cov_kind"] == kind}
        best = min(series, key=series.get)
        if best != planted_k:
            problems.append(f"{kind}: BIC lowest at k={best}, planted k={planted_k}")
    w, mu, cov = (np.asarray(fit[key], dtype=float) for key in ("weights", "means", "covariances"))
    if fit["cov_kind"] != "tied" or len(w) != 7 or not math.isclose(w.sum(), 1.0, abs_tol=1e-9):
        problems.append("selected fit is not a k=7 tied mixture with weights summing to 1")
    else:
        want = tied_loglik(x, w, mu, cov)
        if not math.isclose(fit["loglik"], want, rel_tol=1e-8):
            problems.append(f"selected fit loglik {fit['loglik']} != recomputed {want}")
    return problems[:10]
