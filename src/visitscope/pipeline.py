"""Staged pipeline: ingest -> quality -> visits -> fit -> classify -> patterns -> report.

Each stage writes its artifacts into ``<out>/.<stage>.tmp/``, which replaces
``<out>/<stage>/`` whole once the stage has succeeded, and records a cache key
in ``<out>/run_manifest.json``; re-running an unchanged stage is a no-op.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import json
import os
import shutil
import sys
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime

from . import classify as classify_mod
from . import ingest as ingest_mod
from . import model as model_mod
from . import patterns as patterns_mod
from . import quality as quality_mod
from . import visits as visits_mod

STAGES = ("ingest", "quality", "visits", "fit", "classify", "patterns", "report")
# the quality settings cohort.json records next to the cohort
COHORT_PARAMS = ("tau_hours", "t_days", "mu_t_min", "mu_s_min")


class ConfigError(Exception):
    """Invalid configuration; the message starts with the offending field path."""


@dataclass
class PipelineConfig:
    out_dir: str
    ingest: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    visits: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    classify: dict = field(default_factory=dict)
    patterns: dict = field(default_factory=dict)

    DEFAULTS = {
        "quality": {
            "p_hours": 24.0,
            "tau_hours": 1.0,
            "t_days": 15,
            "max_speed_kmh": 150.0,
            "tau_set": [1.0, 4.0, 6.0],
            "t_set": [7, 15, 30],
            "mu_t_min": 1.0,
            "mu_s_min": 0.99,
        },
        "visits": {
            "dist_thresh_m": visits_mod.DEFAULT_DIST_THRESH_M,
            "time_thresh_s": visits_mod.DEFAULT_TIME_THRESH_S,
            "snap_radius_m": visits_mod.DEFAULT_SNAP_RADIUS_M,
        },
        "model": {
            "k": 7,
            "cov_kind": "tied",
            "k_max": 21,
            "seed": 0,
            "transform": "log1p",
            "max_iter": 500,
            "tol": 1e-6,
            "reg_covar": 1e-6,
            "n_init": 5,
            "run_sweep": True,
        },
        "classify": {"dwell_override_h": 24.0, "override_enabled": True},
        "patterns": {"k_m": 3, "cell_deg": patterns_mod.DEFAULT_CELL_DEG, "top_k": 5},
    }

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config: must be a JSON object")
        out_dir = raw.get("out_dir")
        if not out_dir or not isinstance(out_dir, str):
            raise ConfigError("out_dir: required string")
        cfg = cls(out_dir=out_dir)
        cfg.ingest = dict(raw.get("ingest", {}))
        for section in ("quality", "visits", "model", "classify", "patterns"):
            merged = dict(cls.DEFAULTS[section])
            user = raw.get(section, {})
            if not isinstance(user, dict):
                raise ConfigError(f"{section}: must be an object")
            for key, val in user.items():
                if key not in merged:
                    raise ConfigError(f"{section}.{key}: unknown field")
                merged[key] = val
            setattr(cfg, section, merged)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        q = self.quality
        if not (0 < q["tau_hours"] <= q["p_hours"]):
            raise ConfigError("quality.tau_hours: must satisfy 0 < tau <= P")
        if q["t_days"] < 1:
            raise ConfigError("quality.t_days: must be >= 1")
        if q["max_speed_kmh"] <= 0:
            raise ConfigError("quality.max_speed_kmh: must be positive")
        if self.model["cov_kind"] not in model_mod.COV_KINDS:
            raise ConfigError(f"model.cov_kind: must be one of {model_mod.COV_KINDS}")
        if self.model["k"] < 1:
            raise ConfigError("model.k: must be >= 1")
        if self.model["transform"] not in ("none", "log1p"):
            raise ConfigError("model.transform: must be 'none' or 'log1p'")
        if self.patterns["k_m"] < 1:
            raise ConfigError("patterns.k_m: must be >= 1")
        for key in ("plt_root", "poi_csv"):
            path = self.ingest.get(key)
            if path and not os.path.exists(path):
                raise ConfigError(f"ingest.{key}: path does not exist: {path}")
        for path in self.ingest.get("trajectory_csvs", []):
            if not os.path.exists(path):
                raise ConfigError(f"ingest.trajectory_csvs: path does not exist: {path}")

    def to_dict(self) -> dict:
        return asdict(self)


# stage -> stages whose outputs feed it
STAGE_DEPS = {
    "ingest": (),
    "quality": ("ingest",),
    "visits": ("ingest", "quality"),
    "fit": ("visits",),
    "classify": ("fit", "visits"),
    "patterns": ("classify", "visits", "ingest"),
    "report": ("quality", "fit", "classify"),
}

# config sections that feed each stage's cache key
STAGE_CONFIG = {
    "ingest": ("ingest",),
    "quality": ("quality",),
    "visits": ("quality", "visits"),
    "fit": ("model",),
    "classify": ("model", "classify"),
    "patterns": ("patterns", "quality", "model"),
    "report": (),
}

# table -> (path under <out>, columns); a column "name:spec" is written as f"{value:spec}",
# a bare "name" as the csv module writes the value (None as an empty field)
TABLES = {
    "pois": ("ingest/pois.csv", "poi_id lat:.6f lon:.6f category"),
    "reports": ("quality/reports.csv", "user_id tau_h:g T_d mu_T:.12g mu_S:.12g"),
    "visits": ("visits/visits.csv", "user_id poi_id arrival departure dwell_s:.12g lat:.6f lon:.6f"),
    "features": (
        "visits/features.csv",
        "user_id poi_id n_days mean_dwell_h:.12g n_visits total_dwell_h:.12g",
    ),
    "sweep": ("fit/sweep.csv", "k cov_kind loglik:.12g bic:.12g aic:.12g converged"),
    "labeled_features": (
        "classify/labeled_features.csv",
        "user_id poi_id n_days:g mean_dwell_h:.12g component label",
    ),
    "transitions": ("patterns/transitions.csv", "user_id from to count prob:.12g"),
    "semantic_profile": ("patterns/semantic_profile.csv", "label rank category share:.12g"),
    "temporal_profile": ("patterns/temporal_profile.csv", "label dow hour intensity:.12g"),
    "spatial_grid": ("patterns/spatial_grid.csv", "label lat_idx lon_idx count"),
}


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Pipeline:
    def __init__(self, config: PipelineConfig, progress_json: bool = False):
        self.config = config
        self.out = config.out_dir
        self.progress_json = progress_json
        os.makedirs(self.out, exist_ok=True)
        self.manifest_path = os.path.join(self.out, "run_manifest.json")
        self.manifest = {"stages": {}}
        if os.path.exists(self.manifest_path):
            self.manifest = self._read_json("run_manifest.json")
        self.manifest["config"] = config.to_dict()

    # -- plumbing ----------------------------------------------------------

    def stage_dir(self, stage: str) -> str:
        return os.path.join(self.out, stage)

    def _staged(self, rel: str) -> str:
        """Where ``<out>/<rel>`` is written: under the temp twin of its top-level entry."""
        top, sep, rest = rel.partition("/")
        return os.path.join(self.out, f".{top}.tmp{sep}{rest}")

    def _write_json(self, rel: str, doc) -> None:
        with open(self._staged(rel), "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def _read_json(self, rel: str):
        with open(os.path.join(self.out, rel)) as fh:
            return json.load(fh)

    def _write_table(self, table: str, rows) -> None:
        rel, columns = TABLES[table]
        names, specs = zip(*(col.partition(":")[::2] for col in columns.split()))
        with open(self._staged(rel), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(names)
            writer.writerows([format(v, s) if s else v for v, s in zip(row, specs)] for row in rows)

    def _read_table(self, table: str) -> list[dict]:
        with open(os.path.join(self.out, TABLES[table][0]), newline="") as fh:
            return list(csv.DictReader(fh))

    def _log(self, stage: str, event: str, **extra) -> None:
        if self.progress_json:
            print(json.dumps({"stage": stage, "event": event, **extra}), file=sys.stderr)
        else:
            print(f"[{stage}] {event}" + (f" {extra}" if extra else ""), file=sys.stderr)

    def _raw_input_files(self, stage: str) -> list[str]:
        if stage != "ingest":
            return []
        files = []
        root = self.config.ingest.get("plt_root")
        if root:
            files += glob.glob(os.path.join(root, "**", "*.plt"), recursive=True)
        files += self.config.ingest.get("trajectory_csvs", [])
        poi = self.config.ingest.get("poi_csv")
        if poi:
            files.append(poi)
        return sorted(files)

    def _cache_key(self, stage: str) -> str:
        h = hashlib.sha256()
        for section in STAGE_CONFIG[stage]:
            h.update(json.dumps(getattr(self.config, section), sort_keys=True).encode())
        for path in self._raw_input_files(stage):
            h.update(path.encode())
            h.update(_sha256_file(path).encode())
        for dep in STAGE_DEPS[stage]:
            dep_entry = self.manifest["stages"].get(dep, {})
            h.update(json.dumps(dep_entry.get("outputs", {}), sort_keys=True).encode())
        return h.hexdigest()

    def _outputs_intact(self, entry: dict) -> bool:
        paths = {os.path.join(self.out, rel): digest for rel, digest in entry["outputs"].items()}
        return all(os.path.exists(path) and _sha256_file(path) == d for path, d in paths.items())

    def run_stage(self, stage: str) -> bool:
        """Run one stage; returns True on a cache hit.

        The stage writes into ``<out>/.<stage>.tmp/``; only once it succeeds does
        that directory replace ``<out>/<stage>/``, so no file of an earlier run
        survives. The output digests and the manifest are then updated.
        """
        key = self._cache_key(stage)
        entry = self.manifest["stages"].get(stage)
        if entry and entry["cache_key"] == key and self._outputs_intact(entry):
            self._log(stage, "cache-hit")
            return True
        self._log(stage, "start")
        tmp, sdir = self._staged(stage), self.stage_dir(stage)
        shutil.rmtree(tmp, ignore_errors=True)  # left by a run that crashed in this stage
        os.makedirs(tmp)
        t0 = time.perf_counter()
        getattr(self, f"_stage_{stage}")()
        wall = time.perf_counter() - t0
        shutil.rmtree(sdir, ignore_errors=True)
        os.replace(tmp, sdir)

        outputs = {}
        for dirpath, _, names in os.walk(sdir):
            for name in names:
                path = os.path.join(dirpath, name)
                outputs[os.path.relpath(path, self.out)] = _sha256_file(path)
        self.manifest["stages"][stage] = {"cache_key": key, "outputs": outputs, "wall_clock_s": wall}
        self._write_json("run_manifest.json", self.manifest)
        os.replace(self._staged("run_manifest.json"), self.manifest_path)
        self._log(stage, "done", wall_clock_s=round(wall, 3))
        return False

    # -- stages -------------------------------------------------------------

    def _stage_ingest(self) -> None:
        cfg = self.config.ingest
        records: list[ingest_mod.MobilityRecord] = []
        sources: list[str] = []
        errors = 0

        root = cfg.get("plt_root")
        if root:
            for path in sorted(glob.glob(os.path.join(root, "**", "*.plt"), recursive=True)):
                user = os.path.relpath(path, root).split(os.sep)[0]
                with open(path) as fh:
                    recs, stats = ingest_mod.parse_plt(fh, user)
                records += recs
                errors += stats.skipped
                sources.append(path)
        for path in cfg.get("trajectory_csvs", []):
            with open(path) as fh:
                recs, stats = ingest_mod.parse_trajectory_csv(fh, cfg["trajectory_column_map"])
            records += recs
            errors += stats.skipped
            sources.append(path)

        traces, build_stats = ingest_mod.build_traces(records)
        manifest = ingest_mod.write_traces(traces, self._staged("ingest"), sources, errors)
        manifest["build"] = asdict(build_stats)
        self._write_json("ingest/manifest.json", manifest)

        poi_path = cfg.get("poi_csv")
        if poi_path:
            with open(poi_path) as fh:
                pois, _ = ingest_mod.parse_poi_file(fh, cfg["poi_column_map"])
            self._write_table(
                "pois",
                ((p.poi_id, p.lat, p.lon, p.category) for p in sorted(pois, key=lambda p: p.poi_id)),
            )

    def _load_pois(self) -> list[ingest_mod.PoiRecord]:
        return [
            ingest_mod.PoiRecord(r["poi_id"], float(r["lat"]), float(r["lon"]), r["category"])
            for r in self._read_table("pois")
        ]

    def _stage_quality(self) -> None:
        cfg = self.config.quality
        traces = ingest_mod.read_traces(self.stage_dir("ingest"))

        cells = quality_mod.grid_assessment(
            traces,
            tau_set=cfg["tau_set"],
            t_set=cfg["t_set"],
            p_hours=cfg["p_hours"],
            max_speed_kmh=cfg["max_speed_kmh"],
        )
        self._write_table(
            "reports",
            (
                (rep.user_id, tau, t_days, rep.mu_t, rep.mu_s)
                for (tau, t_days) in sorted(cells)
                for rep in cells[(tau, t_days)].reports
            ),
        )
        hist = {
            f"tau={tau:g},T={t}": {
                "mu_t_hist": cell.histogram("mu_t"),
                "mu_s_hist": cell.histogram("mu_s"),
                "mu_t_quantiles": {str(q): v for q, v in cell.quantiles("mu_t").items()},
                "mu_s_quantiles": {str(q): v for q, v in cell.quantiles("mu_s").items()},
            }
            for (tau, t), cell in sorted(cells.items())
        }
        hist["_meta"] = {"aggregation": "per-day mean of day scores"}
        self._write_json("quality/histograms.json", hist)

        cohort_cell = cells.get((float(cfg["tau_hours"]), int(cfg["t_days"])))
        if cohort_cell is None:
            params = quality_mod.CompletenessParams(
                cfg["p_hours"], cfg["tau_hours"], cfg["t_days"], cfg["max_speed_kmh"]
            )
            reports = [
                quality_mod.assess_user(traces[u], params) for u in sorted(traces) if traces[u].records
            ]
        else:
            reports = cohort_cell.reports
        cohort = quality_mod.select_cohort(reports, cfg["mu_t_min"], cfg["mu_s_min"])
        self._write_json("quality/cohort.json", {"users": cohort, **{k: cfg[k] for k in COHORT_PARAMS}})

    def _stage_visits(self) -> None:
        cfg = self.config.visits
        cohort = self._read_json("quality/cohort.json")["users"]
        traces = ingest_mod.read_traces(self.stage_dir("ingest"), users=cohort)
        pois = self._load_pois()
        index = visits_mod.SpatialIndex(pois, cell_m=cfg["snap_radius_m"])

        all_visits: list[visits_mod.Visit] = []
        for user in cohort:
            trace = traces.get(user)
            if trace is None:
                continue
            vs = visits_mod.extract_stay_points(trace, cfg["dist_thresh_m"], cfg["time_thresh_s"])
            visits_mod.snap_visits(vs, index, cfg["snap_radius_m"])
            all_visits += vs

        self._write_table(
            "visits",
            (
                (v.user_id, v.poi_id, v.arrival.isoformat(), v.departure.isoformat(),
                 v.dwell_s, v.lat, v.lon)
                for v in all_visits
            ),
        )
        features, unsnapped = visits_mod.aggregate_features(all_visits)
        self._write_table(
            "features",
            (
                (f.user_id, f.poi_id, f.n_days, f.mean_dwell_h, f.n_visits, f.total_dwell_s / 3600.0)
                for f in features
            ),
        )
        self._write_json(
            "visits/meta.json",
            {
                "n_visits": len(all_visits),
                "n_unsnapped": unsnapped,
                "note": "visits realized by anchor-based stay-point detection",
            },
        )

    def _feature_matrix(self) -> visits_mod.FeatureMatrix:
        features = [
            visits_mod.VisitFeature(
                r["user_id"], r["poi_id"], int(r["n_days"]), int(r["n_visits"]),
                float(r["total_dwell_h"]) * 3600.0,
            )
            for r in self._read_table("features")
        ]
        return visits_mod.feature_matrix(features, self.config.model["transform"])

    def _gmm_params(self) -> model_mod.GmmParams:
        fields = ("k", "cov_kind", "seed", "max_iter", "tol", "reg_covar", "n_init")
        return model_mod.GmmParams(**{f: self.config.model[f] for f in fields})

    def _stage_fit(self) -> None:
        cfg = self.config.model
        fm = self._feature_matrix()

        if cfg["run_sweep"]:
            result = model_mod.sweep(
                fm.x,
                k_max=cfg["k_max"],
                params=self._gmm_params(),
                selected=(cfg["k"], cfg["cov_kind"]),
            )
            self._write_table(
                "sweep",
                ((c.k, c.cov_kind, c.loglik, c.bic, c.aic, c.converged) for c in result.rows()),
            )
            self._write_json(
                "fit/sweep_meta.json",
                {
                    "selected_k": cfg["k"],
                    "selected_cov_kind": cfg["cov_kind"],
                    "elbow_k": result.elbow_k,
                    "elbow_flag": result.elbow_flag,
                },
            )

        model = model_mod.fit_gmm(fm.x, self._gmm_params())
        doc = model.to_dict()
        doc["seed"] = cfg["seed"]
        doc["transform"] = fm.transform
        self._write_json("fit/model.json", doc)

    def _stage_classify(self) -> None:
        fm = self._feature_matrix()
        model = model_mod.GmmModel.from_dict(self._read_json("fit/model.json"))
        rules = classify_mod.LabelingRules(**self.config.classify)
        labeling = classify_mod.assign_labels(model, fm, rules)
        labeled = classify_mod.classify_features(fm, model, labeling, rules)

        self._write_table(
            "labeled_features",
            (
                (lf.user_id, lf.poi_id, lf.n_days, lf.mean_dwell_h, lf.component, lf.label)
                for lf in labeled
            ),
        )
        self._write_json("classify/labeling.json", labeling.to_dict())

    def _load_labeled_features(self) -> list[classify_mod.LabeledFeature]:
        return [
            classify_mod.LabeledFeature(
                r["user_id"], r["poi_id"], float(r["n_days"]), float(r["mean_dwell_h"]),
                int(r["component"]), r["label"],
            )
            for r in self._read_table("labeled_features")
        ]

    def _load_visits(self) -> list[visits_mod.Visit]:
        return [
            visits_mod.Visit(
                r["user_id"], float(r["lat"]), float(r["lon"]),
                datetime.fromisoformat(r["arrival"]), datetime.fromisoformat(r["departure"]),
                r["poi_id"] or None,
            )
            for r in self._read_table("visits")
        ]

    def _stage_patterns(self) -> None:
        cfg = self.config.patterns
        labeled = self._load_labeled_features()
        visits = self._load_visits()
        lvisits = patterns_mod.label_visits(visits, labeled)
        categories = {p.poi_id: p.category for p in self._load_pois()}
        labels = patterns_mod.LABELS

        by_user: dict[str, list] = {}
        for lv in lvisits:
            by_user.setdefault(lv.user_id, []).append(lv)
        matrices = {
            user: patterns_mod.transition_matrix(user, patterns_mod.visit_sequence(vs))
            for user, vs in sorted(by_user.items())
        }
        self._write_table(
            "transitions",
            (
                (user, a, b, int(tm.counts[i, j]), tm.probs[i, j])
                for user, tm in sorted(matrices.items())
                for i, a in enumerate(labels)
                for j, b in enumerate(labels)
            ),
        )

        motif_doc = {"k_m": cfg["k_m"], "note": "fewer users than k_m; clustering skipped"}
        nonzero = {u: m for u, m in matrices.items() if m.counts.sum() > 0}
        if len(nonzero) >= cfg["k_m"]:
            motifs = patterns_mod.cluster_motifs(
                nonzero, k_m=cfg["k_m"], seed=self.config.model["seed"]
            )
            motif_doc = {
                "k_m": cfg["k_m"],
                "membership": motifs.membership,
                "centroids": motifs.centroids.tolist(),
                "inertia": motifs.inertia,
            }
        self._write_json("patterns/motif_centroids.json", motif_doc)

        semantic = patterns_mod.semantic_top_k(lvisits, categories, k=cfg["top_k"])
        self._write_table(
            "semantic_profile",
            (
                (lab, rank, cat, share)
                for lab in labels
                for rank, (cat, share) in enumerate(semantic.top[lab], start=1)
            ),
        )

        n_weeks = self.config.quality["t_days"] / 7.0
        profile = patterns_mod.temporal_profile(lvisits, n_weeks)
        self._write_table(
            "temporal_profile",
            (
                (lab, dow, hour, profile.intensity[lab][dow, hour])
                for lab in labels
                for dow in range(7)
                for hour in range(24)
            ),
        )

        grid = patterns_mod.spatial_grid(lvisits, cell_deg=cfg["cell_deg"])
        self._write_table(
            "spatial_grid",
            (
                (lab, i, j, grid.counts[lab][(i, j)])
                for lab in labels
                for (i, j) in sorted(grid.counts[lab])
            ),
        )
        self._write_json(
            "patterns/grid_meta.json",
            {
                "cell_deg": grid.cell_deg,
                "lat0": grid.lat0,
                "lon0": grid.lon0,
                "normalization": profile.mode,
            },
        )

    def _stage_report(self) -> None:
        cohort = self._read_json("quality/cohort.json")
        labeled = self._load_labeled_features()
        label_counts = {lab: 0 for lab in classify_mod.LABELS}
        for lf in labeled:
            label_counts[lf.label] += 1

        sweep_rows = []
        if os.path.exists(os.path.join(self.out, TABLES["sweep"][0])):
            sweep_rows = self._read_table("sweep")
        model_doc = self._read_json("fit/model.json")

        summary = {
            "cohort_size": len(cohort["users"]),
            "cohort_params": {k: cohort[k] for k in COHORT_PARAMS},
            "label_counts": label_counts,
            "n_features": len(labeled),
            "selected_model": {
                "k": len(model_doc["weights"]),
                "cov_kind": model_doc["cov_kind"],
                "loglik": model_doc["loglik"],
                "converged": model_doc["converged"],
            },
            "sweep_table": sweep_rows,
        }
        self._write_json("report/summary.json", summary)
        lines = [
            "visitscope run summary",
            "======================",
            f"cohort size: {summary['cohort_size']}",
            f"features labeled: {summary['n_features']}",
            "label counts: " + ", ".join(f"{k}={v}" for k, v in sorted(label_counts.items())),
            f"selected model: k={summary['selected_model']['k']} "
            f"({summary['selected_model']['cov_kind']}), "
            f"loglik={summary['selected_model']['loglik']:.6g}",
            f"sweep cells: {len(sweep_rows)}",
        ]
        with open(self._staged("report/summary.txt"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
