from datetime import timedelta

import numpy as np
import pytest

from visitscope.classify import LabeledFeature
from visitscope.patterns import (
    LABELS,
    LabeledVisit,
    TransitionMatrix,
    cluster_motifs,
    label_visits,
    semantic_top_k,
    spatial_grid,
    temporal_profile,
    visit_sequence,
)
from visitscope.visits import Visit

from synth import START


def lv(user, label, hours=0.0, poi="p1", lat=39.9, lon=116.3):
    return LabeledVisit(user, poi, lat, lon, START + timedelta(hours=hours), label)


def idx(label):
    return LABELS.index(label)


# --- labeling joins and sequences -----------------------------------------------

def test_label_visits_join_and_skips():
    visits = [
        Visit("u", 39.9, 116.3, START, START + timedelta(hours=1), poi_id="p1"),
        Visit("u", 39.9, 116.3, START, START + timedelta(hours=1), poi_id=None),
        Visit("u", 39.9, 116.3, START, START + timedelta(hours=1), poi_id="p9"),
    ]
    feats = [LabeledFeature("u", "p1", 3, 1.0, 0, "G6")]
    out = label_visits(visits, feats)
    assert len(out) == 1 and out[0].label == "G6" and out[0].poi_id == "p1"


def test_visit_sequence_sorted_by_arrival():
    seq = visit_sequence([lv("u", "G2", 5), lv("u", "G1", 1), lv("u", "G3", 3)])
    assert seq == ["G1", "G3", "G2"]


# --- transition matrices ----------------------------------------------------------

def test_transition_hand_counts():
    tm = TransitionMatrix.from_sequence("u", ["G1", "G6", "G1", "G6", "G6"])
    assert tm.counts[idx("G1"), idx("G6")] == 2
    assert tm.counts[idx("G6"), idx("G1")] == 1
    assert tm.counts[idx("G6"), idx("G6")] == 1
    assert tm.counts.sum() == 4
    assert tm.probs[idx("G1"), idx("G6")] == 1.0
    assert tm.probs[idx("G6"), idx("G1")] == pytest.approx(0.5)
    # untouched rows stay all-zero instead of becoming NaN
    assert np.all(tm.probs[idx("G3")] == 0.0)
    row_sums = tm.probs.sum(axis=1)
    assert set(np.round(row_sums, 12)) <= {0.0, 1.0}


def test_transition_empty_and_singleton_sequences():
    assert TransitionMatrix.from_sequence("u", []).counts.sum() == 0
    assert TransitionMatrix.from_sequence("u", ["G1"]).counts.sum() == 0


# --- motif clustering --------------------------------------------------------------

def planted_motif_matrices(n_users_per=8, sigma=0.01, seed=0):
    """Users drawn from 3 distinct transition archetypes."""
    rng = np.random.default_rng(seed)
    bases = []
    for pair in [("G1", "G6"), ("G2", "G7"), ("G3", "G4")]:
        seq = list(pair) * 30
        bases.append(TransitionMatrix.from_sequence("b", seq).probs)
    mats = {}
    truth = {}
    for c, base in enumerate(bases):
        for i in range(n_users_per):
            user = f"u{c}{i:02d}"
            noisy = np.clip(base + rng.normal(0, sigma, size=(7, 7)), 0.0, None)
            mats[user] = TransitionMatrix(user, (noisy * 100).astype(int), noisy)
            truth[user] = c
    return mats, truth


def cluster_accuracy(membership, truth):
    # best label permutation via agreement counting (3 clusters -> brute force)
    from itertools import permutations

    users = list(truth)
    best = 0
    for perm in permutations(range(3)):
        hits = sum(perm[membership[u]] == truth[u] for u in users)
        best = max(best, hits)
    return best / len(users)


def test_motif_clusters_recover_archetypes():
    mats, truth = planted_motif_matrices()
    result = cluster_motifs(mats, k_m=3, seed=1)
    assert cluster_accuracy(result.membership, truth) == 1.0
    assert result.centroids.shape == (3, 7, 7)


def test_motif_k1_centroid_is_mean():
    mats, _ = planted_motif_matrices(n_users_per=4)
    result = cluster_motifs(mats, k_m=1, seed=0)
    mean = np.mean([m.probs for m in mats.values()], axis=0)
    np.testing.assert_allclose(result.centroids[0], mean, rtol=1e-12)
    assert set(result.membership.values()) == {0}


def test_motif_membership_independent_of_dict_order():
    mats, _ = planted_motif_matrices(seed=4)
    reversed_mats = dict(reversed(list(mats.items())))
    a = cluster_motifs(mats, k_m=3, seed=2)
    b = cluster_motifs(reversed_mats, k_m=3, seed=2)
    assert a.membership == b.membership
    assert a.inertia == b.inertia


def test_motif_too_few_users_errors():
    mats, _ = planted_motif_matrices(n_users_per=1)
    with pytest.raises(ValueError):
        cluster_motifs(mats, k_m=5)


# --- semantic profiles ---------------------------------------------------------------

def test_semantic_shares_example():
    cats = {"pa": "food", "pb": "food", "pc": "store"}
    visits = [
        lv("u", "G6", poi="pa"),
        lv("u", "G6", poi="pb"),
        lv("v", "G6", poi="pa"),
        lv("v", "G6", poi="pc"),
        lv("v", "G1", poi="pc"),
    ]
    prof = semantic_top_k(visits, cats, k=2)
    assert prof.shares["G6"] == {"food": 0.75, "store": 0.25}
    assert prof.top["G6"] == [("food", 0.75), ("store", 0.25)]
    assert prof.shares["G1"] == {"store": 1.0}
    assert prof.shares["G3"] == {}


def test_semantic_tie_breaks_by_category_name():
    cats = {"pa": "zoo", "pb": "art"}
    visits = [lv("u", "G2", poi="pa"), lv("u", "G2", poi="pb")]
    prof = semantic_top_k(visits, cats, k=1)
    assert prof.top["G2"] == [("art", 0.5)]


def test_semantic_unknown_poi_ignored():
    prof = semantic_top_k([lv("u", "G1", poi="mystery")], {}, k=3)
    assert prof.shares["G1"] == {}


def test_semantic_rejects_negative_k():
    visits = [lv("u", "G1", poi="pa")]
    assert semantic_top_k(visits, {"pa": "food"}, k=0).top["G1"] == []
    with pytest.raises(ValueError, match="k must be >= 0"):
        semantic_top_k(visits, {"pa": "food"}, k=-1)


# --- temporal profiles ----------------------------------------------------------------

def test_temporal_two_disjoint_users():
    # user u: 2 G6 visits Monday 09:00; user v: 2 G6 visits Tuesday 18:00
    visits = [
        lv("u", "G6", hours=9.0),            # 2024-01-01 is a Monday
        lv("u", "G6", hours=9.5),
        lv("v", "G6", hours=24 + 18.0),
        lv("v", "G6", hours=24 + 18.2),
    ]
    prof = temporal_profile(visits, n_weeks=1.0)
    g6 = prof.intensity["G6"]
    assert g6[0, 9] == pytest.approx(0.5)
    assert g6[1, 18] == pytest.approx(0.5)
    assert g6.sum() == pytest.approx(1.0)


def test_temporal_user_clone_invariance():
    visits = [lv("u", "G6", hours=9.0), lv("u", "G1", hours=12.0)]
    clones = visits + [
        LabeledVisit("w", v.poi_id, v.lat, v.lon, v.arrival, v.label) for v in visits
    ]
    a = temporal_profile(visits, n_weeks=2.0)
    b = temporal_profile(clones, n_weeks=2.0)
    for lab in LABELS:
        np.testing.assert_allclose(a.intensity[lab], b.intensity[lab], rtol=1e-12)


def test_temporal_requires_positive_weeks():
    with pytest.raises(ValueError):
        temporal_profile([], n_weeks=0.0)


def test_temporal_empty_is_all_zero():
    prof = temporal_profile([], n_weeks=2.0)
    assert all(prof.intensity[lab].sum() == 0.0 for lab in LABELS)


# --- spatial grids ----------------------------------------------------------------------

def test_spatial_grid_conservation_and_floor_rule():
    visits = [
        lv("u", "G6", lat=39.9000, lon=116.3000),
        lv("u", "G6", lat=39.9001, lon=116.3001),   # same 0.005-deg cell
        lv("u", "G6", lat=39.9051, lon=116.3000),   # next lat cell
        lv("u", "G1", lat=39.9000, lon=116.3000),
    ]
    grid = spatial_grid(visits, cell_deg=0.005)
    assert grid.lat0 == 39.9000 and grid.lon0 == 116.3000
    assert grid.counts["G6"][(0, 0)] == 2
    assert grid.counts["G6"][(1, 0)] == 1
    assert grid.counts["G1"][(0, 0)] == 1
    total = sum(n for cells in grid.counts.values() for n in cells.values())
    assert total == len(visits)


def test_spatial_grid_explicit_origin():
    visits = [lv("u", "G1", lat=40.0, lon=117.0)]
    grid = spatial_grid(visits, cell_deg=0.5, origin=(39.0, 116.0))
    assert grid.counts["G1"] == {(2, 2): 1}
