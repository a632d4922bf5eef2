"""Class-transition motifs and semantic / temporal / spatial visit profiles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import LABELS, LabeledFeature
from .model import kmeans_pp_seeds, lloyd
from .visits import Visit

LABEL_INDEX = {lab: i for i, lab in enumerate(LABELS)}

DEFAULT_CELL_DEG = 0.005


@dataclass
class LabeledVisit:
    user_id: str
    poi_id: str
    lat: float
    lon: float
    arrival: object  # datetime
    label: str


def label_visits(visits: list[Visit], labeled: list[LabeledFeature]) -> list[LabeledVisit]:
    """Project (user, PoI) feature labels back onto individual snapped visits."""
    label_of = {(lf.user_id, lf.poi_id): lf.label for lf in labeled}
    out = []
    for v in visits:
        if v.poi_id is None:
            continue
        lab = label_of.get((v.user_id, v.poi_id))
        if lab is None:
            continue
        out.append(LabeledVisit(v.user_id, v.poi_id, v.lat, v.lon, v.arrival, lab))
    return out


def visit_sequence(user_visits: list[LabeledVisit]) -> list[str]:
    """Time-ordered label sequence for one user."""
    return [v.label for v in sorted(user_visits, key=lambda v: v.arrival)]


@dataclass
class TransitionMatrix:
    user_id: str
    counts: np.ndarray  # (7, 7) ints
    probs: np.ndarray   # (7, 7), rows sum to 1 or are all-zero

    @classmethod
    def from_sequence(cls, user_id: str, sequence: list[str]) -> "TransitionMatrix":
        counts = np.zeros((len(LABELS), len(LABELS)), dtype=int)
        for a, b in zip(sequence, sequence[1:]):
            counts[LABEL_INDEX[a], LABEL_INDEX[b]] += 1
        probs = np.zeros_like(counts, dtype=float)
        row_sums = counts.sum(axis=1)
        nz = row_sums > 0
        probs[nz] = counts[nz] / row_sums[nz, None]
        return cls(user_id, counts, probs)


def transition_matrix(user_id: str, sequence: list[str]) -> TransitionMatrix:
    return TransitionMatrix.from_sequence(user_id, sequence)


@dataclass
class MotifClusterResult:
    membership: dict[str, int]
    centroids: np.ndarray  # (k_m, 7, 7)
    inertia: float


def cluster_motifs(
    matrices: dict[str, TransitionMatrix], k_m: int = 3, seed: int = 0, n_restarts: int = 10
) -> MotifClusterResult:
    """k-means over flattened 49-dim transition-probability matrices.

    Users are processed in sorted id order, so membership is independent of
    the caller's dict ordering.
    """
    users = sorted(matrices)
    if len(users) < k_m:
        raise ValueError(f"{len(users)} users < k_m={k_m}; pick a smaller k_m")
    x = np.array([matrices[u].probs.ravel() for u in users])

    best_assign = None
    best_centers = None
    best_inertia = np.inf
    for restart in range(n_restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, restart]))
        centers = kmeans_pp_seeds(x, k_m, rng)
        assign = lloyd(x, centers, n_iter=300)
        inertia = float(np.sum((x - centers[assign]) ** 2))
        if inertia < best_inertia:
            best_inertia = inertia
            best_assign = assign
            best_centers = centers

    membership = {u: int(c) for u, c in zip(users, best_assign)}
    return MotifClusterResult(membership, best_centers.reshape(k_m, 7, 7), best_inertia)


@dataclass
class SemanticProfile:
    shares: dict[str, dict[str, float]]      # label -> category -> share
    top: dict[str, list[tuple[str, float]]]  # label -> top-k (category, share)


def semantic_top_k(
    visits: list[LabeledVisit], categories: dict[str, str], k: int = 5
) -> SemanticProfile:
    """Per label, category share of visits; top-k by share, ties by name."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    counts: dict[str, dict[str, int]] = {lab: {} for lab in LABELS}
    totals: dict[str, int] = {lab: 0 for lab in LABELS}
    for v in visits:
        cat = categories.get(v.poi_id)
        if cat is None:
            continue
        counts[v.label][cat] = counts[v.label].get(cat, 0) + 1
        totals[v.label] += 1

    shares = {}
    top = {}
    for lab in LABELS:
        total = totals[lab]
        lab_shares = {c: n / total for c, n in counts[lab].items()} if total else {}
        ranked = sorted(lab_shares.items(), key=lambda cs: (-cs[1], cs[0]))
        shares[lab] = dict(sorted(lab_shares.items()))
        top[lab] = ranked[:k]
    return SemanticProfile(shares, top)


@dataclass
class TemporalProfile:
    intensity: dict[str, np.ndarray]  # label -> (7 dow, 24 hour)
    n_weeks: float
    mode: str = "per-user-share, uniform user mean, per-week"


def temporal_profile(visits: list[LabeledVisit], n_weeks: float) -> TemporalProfile:
    """Weekly (day-of-week x hour) visit-start intensity per label.

    Each user's histogram is divided by that user's labeled-visit count,
    averaged uniformly across users, then divided by the number of observed
    weeks.
    """
    if n_weeks <= 0:
        raise ValueError("n_weeks must be positive")
    per_user: dict[str, dict[str, np.ndarray]] = {}
    user_totals: dict[str, int] = {}
    for v in visits:
        hists = per_user.setdefault(v.user_id, {})
        h = hists.setdefault(v.label, np.zeros((7, 24)))
        h[v.arrival.weekday(), v.arrival.hour] += 1.0
        user_totals[v.user_id] = user_totals.get(v.user_id, 0) + 1

    n_users = len(per_user)
    intensity = {lab: np.zeros((7, 24)) for lab in LABELS}
    for user, hists in per_user.items():
        total = user_totals[user]
        for lab, h in hists.items():
            intensity[lab] += h / total
    if n_users:
        for lab in LABELS:
            intensity[lab] /= n_users * n_weeks
    return TemporalProfile(intensity, n_weeks)


@dataclass
class SpatialGrid:
    cell_deg: float
    lat0: float
    lon0: float
    counts: dict[str, dict[tuple[int, int], int]]  # label -> (lat_idx, lon_idx) -> count


def spatial_grid(
    visits: list[LabeledVisit],
    cell_deg: float = DEFAULT_CELL_DEG,
    origin: tuple[float, float] | None = None,
) -> SpatialGrid:
    """Per-label visit counts on a uniform lat/lon grid (floor indexing)."""
    if origin is None:
        if visits:
            lat0 = min(v.lat for v in visits)
            lon0 = min(v.lon for v in visits)
        else:
            lat0 = lon0 = 0.0
    else:
        lat0, lon0 = origin
    counts: dict[str, dict[tuple[int, int], int]] = {lab: {} for lab in LABELS}
    for v in visits:
        key = (
            int(np.floor((v.lat - lat0) / cell_deg)),
            int(np.floor((v.lon - lon0) / cell_deg)),
        )
        cell = counts[v.label]
        cell[key] = cell.get(key, 0) + 1
    return SpatialGrid(cell_deg, lat0, lon0, counts)
