"""Spans and counters around calls into visitscope's modules, installed from outside.

Each wrapped function records a span (name, start, end, parent, attrs) in
memory. Per-record functions (``haversine``, ``SpatialIndex.nearest``) and the
EM inner loop only bump counters. A function is wrapped on every module that
binds it, because ``visits`` imports ``haversine`` by name, ``classify``
imports ``predict`` and ``patterns`` imports ``kmeans_pp_seeds``.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

from visitscope import classify, cli, ingest, model, patterns, pipeline, quality, visits

STAGES = pipeline.STAGES
KINDS = model.COV_KINDS

# name -> (unit, better); the traced run reports exactly these, in this order
PER_LAYER = {"cli.self_s": ("s", "lower")}
PER_LAYER.update({f"pipeline.stage_s.{s}": ("s", "lower") for s in STAGES})
PER_LAYER.update({
    "pipeline.self_s": ("s", "lower"),
    "pipeline.verify_s": ("s", "lower"),
    "pipeline.cache_hits": ("count", "higher"),
    "pipeline.artifact_bytes": ("bytes", "lower"),
    "ingest.self_s": ("s", "lower"),
    "ingest.parse_plt_s": ("s", "lower"),
    "ingest.records": ("count", "higher"),
    "ingest.build_traces_s": ("s", "lower"),
    "ingest.write_traces_s": ("s", "lower"),
    "ingest.read_traces_s": ("s", "lower"),
    "ingest.read_traces_calls": ("count", "lower"),
    "ingest.store_bytes": ("bytes", "lower"),
    "ingest.trace_bytes_per_record": ("B/record", "lower"),
    "quality.self_s": ("s", "lower"),
    "quality.grid_s": ("s", "lower"),
    "quality.assess_calls": ("count", "lower"),
    "quality.temporal_s": ("s", "lower"),
    "quality.spatial_s": ("s", "lower"),
    "quality.spatial_calls": ("count", "lower"),
    "quality.haversine_calls": ("count", "lower"),
    "visits.self_s": ("s", "lower"),
    "visits.stay_points_s": ("s", "lower"),
    "visits.stay_points": ("count", "higher"),
    "visits.snap_s": ("s", "lower"),
    "visits.nearest_calls": ("count", "lower"),
    "visits.snapped_ratio": ("ratio", "higher"),
    "visits.aggregate_s": ("s", "lower"),
    "visits.haversine_calls": ("count", "lower"),
    "model.self_s": ("s", "lower"),
    "model.sweep_s": ("s", "lower"),
})
PER_LAYER.update({f"model.sweep_s.{k}": ("s", "lower") for k in KINDS})
PER_LAYER.update({
    "model.fit_s": ("s", "lower"),
    "model.em_iters": ("count", "lower"),
    "model.em_iter_us": ("us", "lower"),
    "model.maxiter_cells": ("count", "lower"),
    "model.ic_s": ("s", "lower"),
    "model.predict_s": ("s", "lower"),
    "classify.self_s": ("s", "lower"),
    "classify.assign_s": ("s", "lower"),
    "classify.classify_s": ("s", "lower"),
    "patterns.self_s": ("s", "lower"),
    "patterns.motifs_s": ("s", "lower"),
    "patterns.profiles_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
})

PROFILE_SPANS = (
    "patterns.label_visits", "patterns.visit_sequence", "patterns.transition_matrix",
    "patterns.semantic_top_k", "patterns.temporal_profile", "patterns.spatial_grid",
)


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, n)) for d, _, names in os.walk(path) for n in names)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, attrs]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, result)
            return result

        return wrapper

    def _counter(self, name, fn, amount=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1 if amount is None else amount(result)
            return result

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        def stage_attrs(args, hit):
            sdir = args[0].stage_dir(args[1])
            return {"stage": args[1], "hit": bool(hit), "bytes": 0 if hit else _dir_bytes(sdir)}

        def store_attrs(pos):
            return lambda args, _: {"bytes": _dir_bytes(os.path.join(args[pos], "traces"))}

        spans = [
            (cli, "main", "cli.main", None),
            (pipeline.Pipeline, "run_stage", "pipeline.run_stage", stage_attrs),
            (ingest, "parse_plt", "ingest.parse_plt", lambda a, r: {"records": len(r[0])}),
            (ingest, "parse_trajectory_csv", "ingest.parse_trajectory_csv", lambda a, r: {"records": len(r[0])}),
            (ingest, "parse_poi_file", "ingest.parse_poi_file", None),
            (ingest, "build_traces", "ingest.build_traces", None),
            (ingest, "write_traces", "ingest.write_traces", store_attrs(1)),
            (ingest, "read_traces", "ingest.read_traces", store_attrs(0)),
            (quality, "grid_assessment", "quality.grid_assessment", None),
            (quality, "assess_user", "quality.assess_user", None),
            (quality, "temporal_completeness", "quality.temporal_completeness", None),
            (quality, "spatial_completeness", "quality.spatial_completeness", None),
            (quality, "select_cohort", "quality.select_cohort", None),
            (visits, "extract_stay_points", "visits.extract_stay_points", lambda a, r: {"n": len(r)}),
            (visits, "snap_visits", "visits.snap_visits",
             lambda a, r: {"n": len(r), "snapped": sum(v.poi_id is not None for v in r)}),
            (visits, "aggregate_features", "visits.aggregate_features", None),
            (visits, "feature_matrix", "visits.feature_matrix", None),
            (model, "sweep", "model.sweep",
             lambda a, r: {"maxiter": sum(c.error is None and not c.converged for c in r.cells.values())}),
            (model, "fit_gmm", "model.fit_gmm", lambda a, r: {"kind": a[1].cov_kind}),
            (model, "information_criteria", "model.information_criteria", lambda a, r: {"kind": a[0].cov_kind}),
            (model, "log_likelihood", "model.log_likelihood", None),
            (model, "predict", "model.predict", None),
            (classify, "predict", "model.predict", None),
            (patterns, "kmeans_pp_seeds", "model.kmeans_pp_seeds", None),
            (classify, "assign_labels", "classify.assign_labels", None),
            (classify, "classify_features", "classify.classify_features", None),
        ]
        spans += [(patterns, n.split(".")[1], n, None) for n in PROFILE_SPANS]
        spans.append((patterns, "cluster_motifs", "patterns.cluster_motifs", None))
        for owner, attr, name, attrs in spans:
            self._patch(owner, attr, self._span(name, getattr(owner, attr), attrs))
        self._patch(quality, "haversine", self._counter("quality.haversine_calls", quality.haversine))
        self._patch(visits, "haversine", self._counter("visits.haversine_calls", visits.haversine))
        self._patch(visits.SpatialIndex, "nearest", self._counter("visits.nearest_calls", visits.SpatialIndex.nearest))
        self._patch(model, "_fit_single", self._counter("model.em_iters", model._fit_single, lambda m: m.n_iter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- reduction -------------------------------------------------------------

    def mark(self) -> tuple[int, dict]:
        """Start of a round: span index and a copy of the counters."""
        return len(self.spans), dict(self.counts)

    def round_metrics(self, since: tuple[int, dict]) -> dict:
        """Per-layer metrics of the spans and counts recorded after ``since``."""
        first, counts0 = since
        spans = self.spans[first:]
        counts = {k: v - counts0.get(k, 0) for k, v in self.counts.items()}
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= first:
                child[s[3] - first] += dur[i]
        parent_name = [self.spans[s[3]][0] if s[3] >= 0 else "" for s in spans]

        m = {name: 0.0 for name in PER_LAYER}

        def total(name, pred=lambda i: True):
            return sum(dur[i] for i, s in enumerate(spans) if s[0] == name and pred(i))

        for i, s in enumerate(spans):
            m[s[0].split(".")[0] + ".self_s"] += dur[i] - child[i]
            attrs = s[4] or {}
            if s[0] == "pipeline.run_stage":
                m[f"pipeline.stage_s.{attrs['stage']}"] += dur[i]
                m["pipeline.cache_hits"] += attrs["hit"]
                m["pipeline.verify_s"] += dur[i] if attrs["hit"] else 0.0
                m["pipeline.artifact_bytes"] += attrs["bytes"]
            elif s[0] in ("ingest.parse_plt", "ingest.parse_trajectory_csv"):
                m["ingest.records"] += attrs["records"]
            elif s[0] in ("ingest.write_traces", "ingest.read_traces"):
                m["ingest.store_bytes"] = max(m["ingest.store_bytes"], attrs["bytes"])
            elif s[0] == "visits.extract_stay_points":
                m["visits.stay_points"] += attrs["n"]
            elif s[0] == "visits.snap_visits":
                m["visits.snapped_ratio"] += attrs["snapped"]
            elif s[0] == "model.sweep":
                m["model.maxiter_cells"] += attrs["maxiter"]
            elif parent_name[i] == "model.sweep":
                m[f"model.sweep_s.{attrs['kind']}"] += dur[i]
        m["visits.snapped_ratio"] = m["visits.snapped_ratio"] / m["visits.stay_points"] if m["visits.stay_points"] else 0.0
        m.update({
            "ingest.parse_plt_s": total("ingest.parse_plt"),
            "ingest.build_traces_s": total("ingest.build_traces"),
            "ingest.write_traces_s": total("ingest.write_traces"),
            "ingest.read_traces_s": total("ingest.read_traces"),
            "ingest.read_traces_calls": sum(s[0] == "ingest.read_traces" for s in spans),
            "quality.grid_s": total("quality.grid_assessment"),
            "quality.assess_calls": sum(s[0] == "quality.assess_user" for s in spans),
            "quality.temporal_s": total("quality.temporal_completeness"),
            "quality.spatial_s": total("quality.spatial_completeness"),
            "quality.spatial_calls": sum(s[0] == "quality.spatial_completeness" for s in spans),
            "quality.haversine_calls": counts.get("quality.haversine_calls", 0),
            "visits.stay_points_s": total("visits.extract_stay_points"),
            "visits.snap_s": total("visits.snap_visits"),
            "visits.nearest_calls": counts.get("visits.nearest_calls", 0),
            "visits.aggregate_s": total("visits.aggregate_features"),
            "visits.haversine_calls": counts.get("visits.haversine_calls", 0),
            "model.sweep_s": total("model.sweep"),
            "model.fit_s": total("model.fit_gmm", lambda i: parent_name[i] != "model.sweep"),
            "model.em_iters": counts.get("model.em_iters", 0),
            "model.ic_s": total("model.information_criteria"),
            "model.predict_s": total("model.predict"),
            "classify.assign_s": total("classify.assign_labels"),
            "classify.classify_s": total("classify.classify_features"),
            "patterns.motifs_s": total("patterns.cluster_motifs"),
            "patterns.profiles_s": sum(total(n) for n in PROFILE_SPANS),
        })
        iters = m["model.em_iters"]
        m["model.em_iter_us"] = total("model.fit_gmm") / iters * 1e6 if iters else 0.0
        return m

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, start, end (perf_counter seconds), parent index, attrs."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "attrs": attrs}) + "\n")
