"""Staged pipeline: ingest -> quality -> visits -> fit -> classify -> patterns -> report.

Each stage writes its artifacts into ``<out>/.<stage>.tmp/``, which replaces
``<out>/<stage>/`` whole once the stage has succeeded. ``<out>/run_manifest.json``
records what the stage read: each config field, the manifest digest of each
artifact (or its absence), the raw inputs and the package source. Re-running a
stage none of whose reads has changed is a no-op.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import glob
import hashlib
import json
import os
import shutil
import sys
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime

import numpy as np

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


def _defaults(cls) -> dict:
    """The config fields of a library parameter object: its fields with a plain default."""
    return {f.name: f.default for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}


def _check_type(path: str, val, default) -> None:
    # an int may stand for a float; a bool stands only for a bool; a list's items have its default's item type
    want = type(default)
    types = (int, float) if want is float else want
    if isinstance(val, bool) != (want is bool) or not isinstance(val, types):
        raise ConfigError(f"{path}: expected {want.__name__}, got {type(val).__name__}")
    for item in val if want is list and default else ():
        _check_type(path, item, default[0])


def _build(section: str, cls, get, cell: dict | None = None):
    """``cls`` from its fields, each from ``get(name)`` or ``cell``; its ValueError, whose message starts with
    the field it names, becomes a ConfigError on that field, or on the grid set a ``cell`` value came from."""
    cell = cell or {}
    try:
        return cls(**{**{name: get(name) for name in _defaults(cls)}, **cell})
    except ValueError as exc:
        name = str(exc).split()[0]
        name = {"tau_hours": "tau_set", "t_days": "t_set"}[name] if name in cell else name
        raise ConfigError(f"{section}.{name}: {exc}") from None


@dataclass
class PipelineConfig:
    out_dir: str
    ingest: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    visits: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    classify: dict = field(default_factory=dict)
    patterns: dict = field(default_factory=dict)

    # each value's type is the type a config value must have; the library objects own their defaults
    DEFAULTS = {
        "ingest": {"plt_root": "", "poi_csv": "", "poi_column_map": {}, "trajectory_csvs": [],
                   "trajectory_column_map": {}},
        "quality": {**_defaults(quality_mod.CompletenessParams), "tau_set": list(quality_mod.DEFAULT_TAU_SET_H),
                    "t_set": list(quality_mod.DEFAULT_T_SET_D), "mu_t_min": 1.0, "mu_s_min": 0.99},
        "visits": {
            "dist_thresh_m": visits_mod.DEFAULT_DIST_THRESH_M,
            "time_thresh_s": visits_mod.DEFAULT_TIME_THRESH_S,
            "snap_radius_m": visits_mod.DEFAULT_SNAP_RADIUS_M,
        },
        "model": {**_defaults(model_mod.GmmParams), "k_max": 21, "transform": "log1p", "run_sweep": True},
        "classify": _defaults(classify_mod.LabelingRules),
        "patterns": {"k_m": 3, "cell_deg": patterns_mod.DEFAULT_CELL_DEG, "top_k": 5},
    }

    @classmethod
    def from_dict(cls, raw: dict, flags: dict | None = None) -> "PipelineConfig":
        """``raw`` with each ``flags`` value set at its field path ("model.seed"), checked as a config value is."""
        flags = flags or {}
        if not isinstance(raw, dict):
            raise ConfigError("config: must be a JSON object")
        out_dir = flags.get("out_dir", raw.get("out_dir"))
        if not out_dir or not isinstance(out_dir, str):
            raise ConfigError("out_dir: required string")
        unknown = sorted(raw.keys() - cls.DEFAULTS.keys() - {"out_dir"})
        if unknown:
            raise ConfigError(f"{unknown[0]}: unknown section")
        cfg = cls(out_dir=out_dir)
        for section, defaults in cls.DEFAULTS.items():
            user = raw.get(section, {})
            if not isinstance(user, dict):
                raise ConfigError(f"{section}: must be an object")
            prefix = f"{section}."
            user = {**user, **{p.removeprefix(prefix): val for p, val in flags.items() if p.startswith(prefix)}}
            for key, val in user.items():
                if key not in defaults:
                    raise ConfigError(f"{section}.{key}: unknown field")
                _check_type(f"{section}.{key}", val, defaults[key])
            setattr(cfg, section, {**defaults, **user})
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Build the parameter objects the stages build, and check the rules no library object owns."""
        q = self.quality
        for cell in [{}] + [{"tau_hours": tau, "t_days": t} for tau in q["tau_set"] for t in q["t_set"]]:
            _build("quality", quality_mod.CompletenessParams, q.get, cell)  # the cohort's (tau, T), then the grid
        _build("model", model_mod.GmmParams, self.model.get)
        _build("classify", classify_mod.LabelingRules, self.classify.get)
        transforms = visits_mod.TRANSFORMS
        ingest = self.ingest
        rules = [
            ("model.transform", self.model["transform"] in transforms, f"must be one of {transforms}"),
            ("model.k_max", self.model["k_max"] >= 1, "must be >= 1"),
            ("visits.dist_thresh_m", self.visits["dist_thresh_m"] > 0, "must be positive"),
            ("visits.time_thresh_s", self.visits["time_thresh_s"] >= 0, "must be >= 0"),
            ("visits.snap_radius_m", self.visits["snap_radius_m"] > 0, "must be positive"),
            ("patterns.k_m", self.patterns["k_m"] >= 1, "must be >= 1"),
            ("patterns.cell_deg", self.patterns["cell_deg"] > 0, "must be positive"),
            ("patterns.top_k", self.patterns["top_k"] >= 0, "must be >= 0"),
            ("ingest.poi_csv", ingest["poi_csv"] != "", "required"),
            ("ingest.plt_root", ingest["plt_root"] or ingest["trajectory_csvs"], "required without trajectory_csvs"),
        ]
        maps = [("poi_column_map", ingest_mod.POI_COLUMNS)]
        maps += [("trajectory_column_map", ingest_mod.TRAJECTORY_COLUMNS)] if ingest["trajectory_csvs"] else []
        rules += [(f"ingest.{key}", all(isinstance(ingest[key].get(col), str) for col in cols),
                   f"must map each of {cols} to a column name") for key, cols in maps]
        paths = [(key, ingest[key]) for key in ("plt_root", "poi_csv") if ingest[key]]
        paths += [("trajectory_csvs", path) for path in ingest["trajectory_csvs"]]
        rules += [(f"ingest.{key}", isinstance(path, str) and os.path.exists(path), f"path does not exist: {path}")
                  for key, path in paths]
        for path, ok, rule in rules:
            if not ok:
                raise ConfigError(f"{path}: {rule}")


# table -> (path under <out>, columns, row class). A column "name:spec" is written as
# f"{value:spec}", a bare "name" as the csv module writes the value (None as an empty
# field) and a datetime as its isoformat(). A row class's objects are written column by
# attribute and read back with each field parsed by its annotation (_PARSE); a column
# that is no field (visits' dwell_s, features' mean_dwell_h) is not read back. The
# other tables go out as tuples and come back as dicts of text: sweep, as report copies
# its text cells into summary.json; the rest, as their headers are not attribute names.
TABLES = {
    "pois": ("ingest/pois.csv", "poi_id lat:.6f lon:.6f category", ingest_mod.PoiRecord),
    "reports": ("quality/reports.csv", "user_id tau_h:g T_d mu_T:.12g mu_S:.12g", None),
    "visits": ("visits/visits.csv", "user_id poi_id arrival departure dwell_s:.12g lat:.6f lon:.6f",
               visits_mod.Visit),
    "features": ("visits/features.csv", "user_id poi_id n_days mean_dwell_h:.12g n_visits total_dwell_h:.12g",
                 visits_mod.VisitFeature),
    "sweep": ("fit/sweep.csv", "k cov_kind loglik:.12g bic:.12g aic:.12g converged", None),
    "labeled_features": (
        "classify/labeled_features.csv",
        "user_id poi_id n_days:g mean_dwell_h:.12g component label",
        classify_mod.LabeledFeature,
    ),
    "transitions": ("patterns/transitions.csv", "user_id from to count prob:.12g", None),
    "semantic_profile": ("patterns/semantic_profile.csv", "label rank category share:.12g", None),
    "temporal_profile": ("patterns/temporal_profile.csv", "label dow hour intensity:.12g", None),
    "spatial_grid": ("patterns/spatial_grid.csv", "label lat_idx lon_idx count", None),
}
# annotation -> cell parser; annotations are strings, as the row modules postpone them
_PARSE = {"str": str, "int": int, "float": float, "datetime": datetime.fromisoformat,
          "str | None": lambda cell: cell or None}


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _plt_files(root: str) -> list[str]:
    """The PLT files under a Geolife root, sorted; none for an empty root."""
    return sorted(glob.glob(os.path.join(root, "**", "*.plt"), recursive=True)) if root else []


@functools.cache
def source_digest() -> str:
    """Digest of the package's source files, so that no other version's artifacts are reused."""
    pkg = os.path.dirname(os.path.abspath(__file__))
    return _digest({name: _sha256_file(os.path.join(pkg, name)) for name in glob.glob("*.py", root_dir=pkg)})


@functools.cache
def numeric_stack() -> dict:
    """numpy's version and, where numpy reports it, its BLAS build: they decide the fit's last bits."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 only prints its config
        return {"numpy": np.__version__}
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


class Pipeline:
    def __init__(self, config: PipelineConfig, progress_json: bool = False):
        self.config = config
        self.out = config.out_dir
        self.progress_json = progress_json
        os.makedirs(self.out, exist_ok=True)
        self.manifest_path = os.path.join(self.out, "run_manifest.json")
        self.manifest = {"stages": {}}
        if os.path.exists(self.manifest_path):
            with open(self.manifest_path) as fh:
                self.manifest = json.load(fh)
        self.manifest["config"] = asdict(config)

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

    def _read_json(self, rel: str, key: str | None = None):
        """An artifact's JSON document; with ``key``, only its member ``key``, the one read recorded."""
        self._read(f"{rel}#{key}" if key else rel)
        with open(os.path.join(self.out, rel)) as fh:
            doc = json.load(fh)
        return doc[key] if key else doc

    def _write_table(self, table: str, rows) -> None:
        """Write ``rows``: objects of the table's row class, or tuples in column order (see TABLES)."""
        rel, columns, row_cls = TABLES[table]
        names, specs = zip(*(col.partition(":")[::2] for col in columns.split()))
        if row_cls:
            rows = ([getattr(obj, name) for name in names] for obj in rows)
        with open(self._staged(rel), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(names)
            writer.writerows(
                [format(v, s) if s else v.isoformat() if isinstance(v, datetime) else v for v, s in zip(row, specs)]
                for row in rows
            )

    def _read_table(self, table: str) -> list:
        rel, _, row_cls = TABLES[table]
        self._read(rel)
        with open(os.path.join(self.out, rel), newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not row_cls:
            return rows
        parsers = [(f.name, _PARSE[f.type]) for f in dataclasses.fields(row_cls)]
        return [row_cls(**{name: parse(r[name]) for name, parse in parsers}) for r in rows]

    def _log(self, stage: str, event: str, **extra) -> None:
        if self.progress_json:
            print(json.dumps({"stage": stage, "event": event, **extra}), file=sys.stderr)
        else:
            print(f"[{stage}] {event}" + (f" {extra}" if extra else ""), file=sys.stderr)

    def _dep(self, key: str):
        """Current value of something a stage reads.

        ``<stage>/<path>`` is an artifact's digest in the manifest (None when it
        is absent); a trailing ``/`` names every artifact under that directory,
        and ``<stage>/<path>#<member>`` is the digest of that member of the JSON
        artifact as it is now (None when the file is absent). ``source`` is the
        package source, ``numpy`` the numeric stack, ``inputs`` the raw input
        files, and ``<section>.<field>`` a config field.
        """
        rel, _, member = key.partition("#")
        if member:
            path = os.path.join(self.out, rel)
            if not os.path.exists(path):
                return None
            with open(path) as fh:
                return _digest(json.load(fh)[member])
        if "/" in key:
            outputs = self.manifest["stages"].get(key.partition("/")[0], {}).get("outputs", {})
            if key.endswith("/"):
                return _digest({rel: d for rel, d in outputs.items() if rel.startswith(key)})
            return outputs.get(key)
        if key == "source":
            return source_digest()
        if key == "numpy":
            return numeric_stack()
        if key == "inputs":
            ingest = self.config.ingest
            files = _plt_files(ingest["plt_root"]) + ingest["trajectory_csvs"]
            files += [ingest["poi_csv"]] if ingest["poi_csv"] else []
            return _digest({path: _sha256_file(path) for path in files})
        section, _, name = key.partition(".")
        return getattr(self.config, section).get(name)

    def _read(self, key: str):
        """:meth:`_dep` of ``key``, recorded as a read of the running stage."""
        self._reads[key] = value = self._dep(key)
        return value

    def _section(self, section: str):
        """Getter of the config fields of ``section`` that records each field read."""
        return lambda name: self._read(f"{section}.{name}")

    def _outputs_intact(self, entry: dict) -> bool:
        paths = {os.path.join(self.out, rel): digest for rel, digest in entry["outputs"].items()}
        return all(os.path.exists(path) and _sha256_file(path) == d for path, d in paths.items())

    def run_stage(self, stage: str) -> bool:
        """Run one stage; returns True on a cache hit.

        The stage writes into ``<out>/.<stage>.tmp/``; only once it succeeds does
        that directory replace ``<out>/<stage>/``, so no file of an earlier run
        survives. The manifest then records what the stage read and its outputs' digests.
        """
        entry = self.manifest["stages"].get(stage, {})
        reads = entry.get("reads")  # absent in a manifest written before reads were recorded
        if reads and _digest(reads) == _digest({k: self._dep(k) for k in reads}) and self._outputs_intact(entry):
            self._log(stage, "cache-hit")
            return True
        self._log(stage, "start")
        tmp, sdir = self._staged(stage), self.stage_dir(stage)
        shutil.rmtree(tmp, ignore_errors=True)  # left by a run that crashed in this stage
        os.makedirs(tmp)
        self._reads = {"source": source_digest()}
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
        self.manifest["stages"][stage] = {"reads": self._reads, "outputs": outputs, "wall_clock_s": wall}
        self._write_json("run_manifest.json", self.manifest)
        os.replace(self._staged("run_manifest.json"), self.manifest_path)
        self._log(stage, "done", wall_clock_s=round(wall, 3))
        return False

    # -- stages -------------------------------------------------------------

    def _stage_ingest(self) -> None:
        cfg = self._section("ingest")
        self._read("inputs")
        root, csvs = cfg("plt_root"), cfg("trajectory_csvs")
        sources = _plt_files(root) + csvs
        records: list[ingest_mod.MobilityRecord] = []
        errors = 0
        for path in sources:
            with open(path) as fh:
                if path in csvs:
                    recs, stats = ingest_mod.parse_trajectory_csv(fh, cfg("trajectory_column_map"))
                else:  # a PLT file's user is its top directory under the root
                    recs, stats = ingest_mod.parse_plt(fh, os.path.relpath(path, root).split(os.sep)[0])
            records += recs
            errors += stats.skipped

        traces, build_stats = ingest_mod.build_traces(records)
        manifest = ingest_mod.write_traces(traces, self._staged("ingest"), sources, errors)
        manifest["build"] = asdict(build_stats)
        self._write_json("ingest/manifest.json", manifest)

        poi_path = cfg("poi_csv")
        if poi_path:
            with open(poi_path) as fh:
                pois, _ = ingest_mod.parse_poi_file(fh, cfg("poi_column_map"))
            self._write_table("pois", sorted(pois, key=lambda p: p.poi_id))

    def _stage_quality(self) -> None:
        cfg = self._section("quality")
        self._read("ingest/traces/")  # the whole store, so that a new user's trace is a change
        traces = ingest_mod.read_traces(self.stage_dir("ingest"))
        # one pass scores the grid and the cohort's (tau, T), which may lie off the grid
        cohort_key = (float(cfg("tau_hours")), cfg("t_days"))
        cells = quality_mod.grid_assessment(
            traces, cfg("tau_set"), cfg("t_set"), cfg("p_hours"), cfg("max_speed_kmh"), extra=[cohort_key]
        )
        cohort = quality_mod.select_cohort(cells[cohort_key].reports, cfg("mu_t_min"), cfg("mu_s_min"))
        grid = [(float(tau), int(t)) for tau in cfg("tau_set") for t in cfg("t_set")]
        cells = {key: cells[key] for key in grid}
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
        self._write_json("quality/cohort.json", {"users": cohort, **{k: cfg(k) for k in COHORT_PARAMS}})

    def _stage_visits(self) -> None:
        cfg = self._section("visits")
        cohort = self._read_json("quality/cohort.json", "users")
        for user in cohort:
            self._read(os.path.join("ingest", ingest_mod.trace_file(user)))
        traces = ingest_mod.read_traces(self.stage_dir("ingest"), users=cohort)
        index = visits_mod.SpatialIndex(self._read_table("pois"), cell_m=cfg("snap_radius_m"))

        all_visits: list[visits_mod.Visit] = []
        for user in cohort:
            trace = traces.get(user)
            if trace is None:
                continue
            vs = visits_mod.extract_stay_points(trace, cfg("dist_thresh_m"), cfg("time_thresh_s"))
            visits_mod.snap_visits(vs, index, cfg("snap_radius_m"))
            all_visits += vs

        self._write_table("visits", all_visits)
        features, unsnapped = visits_mod.aggregate_features(all_visits)
        self._write_table("features", features)
        self._write_json(
            "visits/meta.json",
            {
                "n_visits": len(all_visits),
                "n_unsnapped": unsnapped,
                "note": "visits realized by anchor-based stay-point detection",
            },
        )

    def _stage_fit(self) -> None:
        cfg = self._section("model")
        self._read("numpy")  # numpy's build decides the floats' last bits, here as in classify and patterns
        fm = visits_mod.feature_matrix(self._read_table("features"), self._read("model.transform"))
        params = _build("model", model_mod.GmmParams, cfg)

        if cfg("run_sweep"):
            result = model_mod.sweep(fm.x, k_max=cfg("k_max"), params=params, selected=(cfg("k"), cfg("cov_kind")))
            self._write_table(
                "sweep",
                ((c.k, c.cov_kind, c.loglik, c.bic, c.aic, c.converged) for c in result.rows()),
            )
            self._write_json(
                "fit/sweep_meta.json",
                {
                    "selected_k": cfg("k"),
                    "selected_cov_kind": cfg("cov_kind"),
                    "elbow_k": result.elbow_k,
                    "elbow_flag": result.elbow_flag,
                },
            )

        model = model_mod.fit_gmm(fm.x, params)
        doc = model.to_dict()
        doc["seed"] = cfg("seed")
        doc["transform"] = fm.transform
        self._write_json("fit/model.json", doc)

    def _stage_classify(self) -> None:
        self._read("numpy")
        fm = visits_mod.feature_matrix(self._read_table("features"), self._read("model.transform"))
        model = model_mod.GmmModel.from_dict(self._read_json("fit/model.json"))
        rules = _build("classify", classify_mod.LabelingRules, self._section("classify"))
        labeling = classify_mod.assign_labels(model, fm, rules)
        labeled = classify_mod.classify_features(fm, model, labeling, rules)

        self._write_table("labeled_features", labeled)
        self._write_json("classify/labeling.json", labeling.to_dict())

    def _stage_patterns(self) -> None:
        cfg = self._section("patterns")
        self._read("numpy")
        lvisits = patterns_mod.label_visits(self._read_table("visits"), self._read_table("labeled_features"))
        categories = {p.poi_id: p.category for p in self._read_table("pois")}
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

        motif_doc = {"k_m": cfg("k_m"), "note": "fewer users than k_m; clustering skipped"}
        nonzero = {u: m for u, m in matrices.items() if m.counts.sum() > 0}
        if len(nonzero) >= cfg("k_m"):
            motifs = patterns_mod.cluster_motifs(nonzero, k_m=cfg("k_m"), seed=self._read("model.seed"))
            motif_doc = {
                "k_m": cfg("k_m"),
                "membership": motifs.membership,
                "centroids": motifs.centroids.tolist(),
                "inertia": motifs.inertia,
            }
        self._write_json("patterns/motif_centroids.json", motif_doc)

        semantic = patterns_mod.semantic_top_k(lvisits, categories, k=cfg("top_k"))
        self._write_table(
            "semantic_profile",
            (
                (lab, rank, cat, share)
                for lab in labels
                for rank, (cat, share) in enumerate(semantic.top[lab], start=1)
            ),
        )

        n_weeks = self._read("quality.t_days") / 7.0
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

        grid = patterns_mod.spatial_grid(lvisits, cell_deg=cfg("cell_deg"))
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
        labeled = self._read_table("labeled_features")
        label_counts = {lab: 0 for lab in classify_mod.LABELS}
        for lf in labeled:
            label_counts[lf.label] += 1

        sweep_rows = self._read_table("sweep") if self._read(TABLES["sweep"][0]) else []  # None: fit wrote none
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
