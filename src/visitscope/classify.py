"""Mapping mixture components onto the seven visit classes G1-G7."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .model import GmmModel, predict
from .visits import FeatureMatrix

LABELS = ("G1", "G2", "G3", "G4", "G5", "G6", "G7")

DISPLAY_NAMES = {
    "G1": "short-exploratory",
    "G2": "long-rare-exploration",
    "G3": "routine-change",
    "G4": "casual",
    "G5": "important",
    "G6": "routine",
    "G7": "anchored",
}

# (frequency percentile, dwell percentile) prototype per class
DEFAULT_ANCHORS = {
    "G1": (10.0, 10.0),
    "G2": (10.0, 75.0),
    "G3": (50.0, 95.0),
    "G4": (30.0, 10.0),
    "G5": (30.0, 60.0),
    "G6": (70.0, 50.0),
    "G7": (90.0, 85.0),
}


@dataclass(frozen=True)
class LabelingRules:
    anchors: dict = field(default_factory=lambda: dict(DEFAULT_ANCHORS))
    dwell_override_h: float = 24.0
    override_enabled: bool = True

    def __post_init__(self):
        # a message starts with the field it names, which a config error then reports
        for label, (pf, pd_) in self.anchors.items():
            if not (0.0 <= pf <= 100.0 and 0.0 <= pd_ <= 100.0):
                raise ValueError(f"anchors entry {label} outside [0, 100]^2")
        if self.dwell_override_h <= 0:
            raise ValueError("dwell_override_h must be positive")


@dataclass
class ComponentLabeling:
    label_of: dict[int, str]              # component index -> label
    centroids_raw: np.ndarray             # (7, 2) raw-space centroids
    centroid_percentiles: np.ndarray      # (7, 2) percentile coordinates
    cost: float

    def to_dict(self) -> dict:
        return {
            "label_of": {str(j): lab for j, lab in sorted(self.label_of.items())},
            "centroids_raw": self.centroids_raw.tolist(),
            "centroid_percentiles": self.centroid_percentiles.tolist(),
            "cost": self.cost,
        }


@dataclass
class LabeledFeature:
    user_id: str
    poi_id: str
    n_days: float
    mean_dwell_h: float
    component: int
    label: str


def empirical_percentile(values: np.ndarray, x: float) -> float:
    """Weak-inequality percentile: 100 * |{v <= x}| / n."""
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError("empty population")
    return 100.0 * float(np.count_nonzero(values <= x)) / values.size


def min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Column of each row of a square cost matrix, minimising the total cost.

    Exact search over all n! permutations (5,040 for the seven classes); among
    equal minimum totals the first permutation in lexicographic order wins.
    """
    n = cost.shape[0]
    perms = np.array(list(itertools.permutations(range(n))))
    totals = cost[np.arange(n), perms].sum(axis=1)
    return perms[int(np.argmin(totals))]


def assign_labels(
    model: GmmModel, fm: FeatureMatrix, rules: LabelingRules | None = None
) -> ComponentLabeling:
    """Match components to class prototypes by minimum-total-cost assignment.

    Component centroids are responsibility-weighted means of the *raw*
    features, converted to percentile coordinates over the raw population,
    then matched to the prototype anchors optimally (not greedily).
    """
    if rules is None:
        rules = LabelingRules()
    if model.k != len(LABELS):
        raise ValueError(
            f"labeling requires k={len(LABELS)} components, got k={model.k}; refit with k=7"
        )
    _, resp = predict(model, fm.x)
    nk = resp.sum(axis=0)
    nk = np.maximum(nk, np.finfo(float).tiny)
    centroids = (resp.T @ fm.raw) / nk[:, None]

    pcts = np.empty_like(centroids)
    for col in range(2):
        pop = fm.raw[:, col]
        for j in range(model.k):
            pcts[j, col] = empirical_percentile(pop, centroids[j, col])

    proto = np.array([rules.anchors[lab] for lab in LABELS])
    cost = np.linalg.norm(pcts[:, None, :] - proto[None, :, :], axis=2)
    cols = min_cost_assignment(cost)
    label_of = {j: LABELS[c] for j, c in enumerate(cols)}
    return ComponentLabeling(label_of, centroids, pcts, float(cost[np.arange(model.k), cols].sum()))


def classify_features(
    fm: FeatureMatrix,
    model: GmmModel,
    labeling: ComponentLabeling,
    rules: LabelingRules | None = None,
) -> list[LabeledFeature]:
    """Label every feature row; long dwells override to G3 when enabled."""
    if rules is None:
        rules = LabelingRules()
    assign, _ = predict(model, fm.x)
    out = []
    for row, ((user, poi), comp) in enumerate(zip(fm.index, assign)):
        n_days, dwell_h = fm.raw[row]
        label = labeling.label_of[int(comp)]
        if rules.override_enabled and dwell_h > rules.dwell_override_h:
            label = "G3"
        out.append(LabeledFeature(user, poi, float(n_days), float(dwell_h), int(comp), label))
    return out
