import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from visitscope.classify import (
    DEFAULT_ANCHORS,
    LABELS,
    LabelingRules,
    assign_labels,
    classify_features,
    empirical_percentile,
    min_cost_assignment,
)
from visitscope.model import GmmParams, fit_gmm
from visitscope.visits import FeatureMatrix

from synth import planted_taxonomy_features


def planted_fit(seed=0, fit_seed=0):
    x, raw, labels = planted_taxonomy_features(seed)
    index = [(f"u{i}", f"p{i}") for i in range(len(x))]
    fm = FeatureMatrix(x, raw, index, "log1p")
    model = fit_gmm(x, GmmParams(k=7, cov_kind="diagonal", seed=fit_seed))
    return fm, model, labels


# --- percentiles ---------------------------------------------------------------

def test_percentile_examples():
    vals = np.array([1.0, 2.0, 3.0])
    assert empirical_percentile(vals, 2.0) == pytest.approx(200.0 / 3.0)
    assert empirical_percentile(vals, 0.5) == 0.0
    assert empirical_percentile(vals, 3.0) == 100.0
    assert empirical_percentile(vals, 10.0) == 100.0


def test_percentile_ties_use_weak_inequality():
    vals = np.array([1.0, 2.0, 2.0, 2.0, 5.0])
    assert empirical_percentile(vals, 2.0) == pytest.approx(80.0)


def test_percentile_empty_population_errors():
    with pytest.raises(ValueError):
        empirical_percentile(np.array([]), 1.0)


# --- assignment ------------------------------------------------------------------

def test_planted_clusters_recover_taxonomy():
    fm, model, labels = planted_fit()
    labeling = assign_labels(model, fm)
    assert sorted(labeling.label_of.values()) == sorted(LABELS)  # bijection
    labeled = classify_features(fm, model, labeling)
    got = np.array([lf.label for lf in labeled])
    accuracy = float(np.mean(got == labels))
    assert accuracy >= 0.99


def test_labeling_permutation_invariance():
    # shuffling the rows must not change any row's label
    fm, model, _ = planted_fit(seed=3)
    labeling = assign_labels(model, fm)
    by_key = {(lf.user_id, lf.poi_id): lf.label for lf in classify_features(fm, model, labeling)}

    rng = np.random.default_rng(0)
    perm = rng.permutation(len(fm.x))
    fm2 = FeatureMatrix(fm.x[perm], fm.raw[perm], [fm.index[i] for i in perm], fm.transform)
    labeling2 = assign_labels(model, fm2)
    assert labeling2.label_of == labeling.label_of
    for lf in classify_features(fm2, model, labeling2):
        assert by_key[(lf.user_id, lf.poi_id)] == lf.label


def test_assignment_is_optimal_not_greedy():
    fm, model, _ = planted_fit(seed=1)
    labeling = assign_labels(model, fm)
    proto = np.array([DEFAULT_ANCHORS[lab] for lab in LABELS])
    cost = np.linalg.norm(
        labeling.centroid_percentiles[:, None, :] - proto[None, :, :], axis=2
    )
    # total cost no worse than a large random sample of permutations
    rng = np.random.default_rng(7)
    for _ in range(500):
        perm = rng.permutation(7)
        assert labeling.cost <= cost[np.arange(7), perm].sum() + 1e-9


def test_assignment_ties_go_to_first_permutation_in_lexicographic_order():
    rng = np.random.default_rng(12)
    cost = rng.uniform(0.0, 100.0, size=(7, 7))
    cost[:, 5] = cost[:, 2]  # two identical prototypes: every optimum has a twin
    totals = [sum(cost[i, p[i]] for i in range(7)) for p in itertools.permutations(range(7))]
    best = min(totals)
    optima = [p for p, t in zip(itertools.permutations(range(7)), totals) if t == best]
    assert len(optima) == 2
    got = min_cost_assignment(cost)
    assert tuple(got.tolist()) == optima[0]
    twin = [{2: 5, 5: 2}.get(c, c) for c in optima[0]]
    assert tuple(twin) == optima[1] and optima[0] < optima[1]


def test_assignment_matches_scipy_on_tie_free_matrices():
    rng = np.random.default_rng(13)
    for _ in range(200):
        cost = rng.uniform(0.0, 150.0, size=(7, 7))
        rows, cols = linear_sum_assignment(cost)  # rows come back as 0..6
        assert np.array_equal(min_cost_assignment(cost), cols)


def test_k_not_seven_is_an_error():
    x, raw, _ = planted_taxonomy_features(2)
    fm = FeatureMatrix(x, raw, [("u", str(i)) for i in range(len(x))], "log1p")
    model = fit_gmm(x, GmmParams(k=5, cov_kind="diagonal", seed=0))
    with pytest.raises(ValueError, match="refit with k=7"):
        assign_labels(model, fm)


# --- dwell override ---------------------------------------------------------------

def test_long_dwell_override_forces_g3():
    fm, model, _ = planted_fit(seed=4)
    labeling = assign_labels(model, fm)
    labeled = classify_features(fm, model, labeling)
    for lf in labeled:
        if lf.mean_dwell_h > 24.0:
            assert lf.label == "G3"


def test_override_can_be_disabled():
    fm, model, _ = planted_fit(seed=4)
    labeling = assign_labels(model, fm)
    rules = LabelingRules(override_enabled=False)
    on = classify_features(fm, model, labeling)
    off = classify_features(fm, model, labeling, rules)
    # with the override off, labels follow the component assignment alone
    for a, b in zip(on, off):
        assert b.label == labeling.label_of[b.component]
        if a.mean_dwell_h <= 24.0:
            assert a.label == b.label


def test_override_threshold_configurable():
    fm, model, _ = planted_fit(seed=5)
    labeling = assign_labels(model, fm)
    strict = classify_features(fm, model, labeling, LabelingRules(dwell_override_h=5.0))
    for lf in strict:
        if lf.mean_dwell_h > 5.0:
            assert lf.label == "G3"


def test_rules_validation():
    with pytest.raises(ValueError):
        LabelingRules(anchors={"G1": (120.0, 10.0)})
    with pytest.raises(ValueError):
        LabelingRules(dwell_override_h=0.0)


def test_labeling_serializes():
    fm, model, _ = planted_fit(seed=6)
    d = assign_labels(model, fm).to_dict()
    assert sorted(d["label_of"].values()) == sorted(LABELS)
    assert len(d["centroids_raw"]) == 7 and len(d["centroid_percentiles"]) == 7
