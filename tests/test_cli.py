import csv
import glob
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import visitscope
from visitscope import ingest, pipeline
from visitscope.cli import main

from synth import START, make_geolife_fixture, write_plt

POI_COLUMNS = {"poi_id": "poi_id", "lat": "lat", "lon": "lon", "category": "category"}


@pytest.fixture(scope="module")
def fixture_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("geolife")
    poi_csv = make_geolife_fixture(str(root), n_users=8, t_days=7, seed=3)
    return str(root), poi_csv


def write_config(path, root, poi_csv, out_dir, **overrides):
    cfg = {
        "out_dir": out_dir,
        "ingest": {"plt_root": root, "poi_csv": poi_csv, "poi_column_map": POI_COLUMNS},
        "quality": {"t_days": 7, "tau_set": [1.0], "t_set": [7]},
        "model": {"k_max": 8, "n_init": 2},
        "patterns": {"k_m": 2},
    }
    for section, vals in overrides.items():
        cfg.setdefault(section, {}).update(vals)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


@pytest.fixture(scope="module")
def completed_run(fixture_root, tmp_path_factory):
    """One full pipeline run shared by the read-only assertions below."""
    root, poi_csv = fixture_root
    base = tmp_path_factory.mktemp("run")
    out = str(base / "out")
    config = write_config(str(base / "config.json"), root, poi_csv, out)
    assert main(["all", "--config", config]) == 0
    return config, out


def test_all_stages_produce_artifacts(completed_run):
    _, out = completed_run
    expected = [
        "ingest/manifest.json",
        "ingest/pois.csv",
        "quality/reports.csv",
        "quality/cohort.json",
        "visits/visits.csv",
        "visits/features.csv",
        "fit/sweep.csv",
        "fit/model.json",
        "classify/labeled_features.csv",
        "classify/labeling.json",
        "patterns/transitions.csv",
        "patterns/motif_centroids.json",
        "report/summary.json",
        "report/summary.txt",
        "run_manifest.json",
    ]
    for rel in expected:
        assert os.path.exists(os.path.join(out, rel)), rel
    with open(os.path.join(out, "quality", "cohort.json")) as fh:
        assert len(json.load(fh)["users"]) == 8  # dense fixture: everyone passes
    with open(os.path.join(out, "report", "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["cohort_size"] == 8
    assert summary["selected_model"]["k"] == 7
    assert sum(summary["label_counts"].values()) == summary["n_features"] > 0


def test_second_run_is_all_cache_hits(completed_run, capsys):
    config, _ = completed_run
    assert main(["all", "--config", config, "--progress-json"]) == 0
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert events and all(e["event"] == "cache-hit" for e in events)


def test_deleted_stage_artifacts_regenerate(completed_run, capsys):
    config, out = completed_run
    shutil.rmtree(os.path.join(out, "quality"))
    assert main(["quality", "--config", config, "--progress-json"]) == 0
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert any(e["event"] == "done" for e in events)
    assert os.path.exists(os.path.join(out, "quality", "cohort.json"))


def test_missing_input_path_is_config_error(fixture_root, tmp_path, capsys):
    root, poi_csv = fixture_root
    config = write_config(
        str(tmp_path / "config.json"), root, poi_csv, str(tmp_path / "out")
    )
    with open(config) as fh:
        raw = json.load(fh)
    raw["ingest"]["plt_root"] = str(tmp_path / "nowhere")
    with open(config, "w") as fh:
        json.dump(raw, fh)
    assert main(["ingest", "--config", config]) == 2
    assert "ingest.plt_root" in capsys.readouterr().err


def test_unknown_field_is_config_error(fixture_root, tmp_path, capsys):
    root, poi_csv = fixture_root
    config = write_config(
        str(tmp_path / "config.json"), root, poi_csv, str(tmp_path / "out"),
        quality={"tau_hourz": 2.0},
    )
    assert main(["quality", "--config", config]) == 2
    assert "quality.tau_hourz" in capsys.readouterr().err


def assert_config_error(fixture_root, tmp_path, capsys, section, value, field, flags=()):
    """`visitscope all` with ``value`` merged into ``section`` (with no section, ``value`` as the whole config)
    and ``flags`` exits 2, names ``field`` and runs no stage."""
    root, poi_csv = fixture_root
    config = write_config(str(tmp_path / "config.json"), root, poi_csv, str(tmp_path / "out"))
    with open(config) as fh:
        raw = json.load(fh)
    if section is None:
        raw = value
    else:
        raw[section] = {**raw.get(section, {}), **value} if isinstance(value, dict) else value
    with open(config, "w") as fh:
        json.dump(raw, fh)
    assert main(["all", "--config", config, *flags]) == 2
    err = capsys.readouterr().err
    assert f"config error: {field}:" in err and "Traceback" not in err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize(
    "section, value, field",
    [
        ("quality", {"tau_hours": "4"}, "quality.tau_hours"),
        ("model", {"k": "7"}, "model.k"),
        ("model", {"k": True}, "model.k"),
        ("ingest", "x", "ingest"),
        ("quality", {"t_days": 7.5}, "quality.t_days"),
        ("quality", {"t_set": [7, 7.5]}, "quality.t_set"),
        ("quality", {"tau_set": [1.0, "4"]}, "quality.tau_set"),
    ],
)
def test_wrongly_typed_value_is_config_error(fixture_root, tmp_path, capsys, section, value, field):
    assert_config_error(fixture_root, tmp_path, capsys, section, value, field)


@pytest.mark.parametrize(
    "section, value, field",
    [
        ("model", {"tol": -1}, "model.tol"),
        ("model", {"reg_covar": -1}, "model.reg_covar"),
        ("model", {"n_init": 0}, "model.n_init"),
        ("model", {"max_iter": 0}, "model.max_iter"),
        ("model", {"seed": -1}, "model.seed"),
        ("visits", {"snap_radius_m": 0}, "visits.snap_radius_m"),
        ("quality", {"tau_set": [0]}, "quality.tau_set"),
        ("quality", {"t_set": [0]}, "quality.t_set"),
        ("classify", {"dwell_override_h": 0}, "classify.dwell_override_h"),
        ("patterns", {"cell_deg": 0}, "patterns.cell_deg"),
        ("patterns", {"top_k": -1}, "patterns.top_k"),
        ("ingest", {"plt_roots": "x"}, "ingest.plt_roots"),
        ("ingest", {"poi_column_map": "x"}, "ingest.poi_column_map"),
        ("patern", {"k_m": 2}, "patern"),
        ("model", {"k_max": 0}, "model.k_max"),
        ("visits", {"dist_thresh_m": 0}, "visits.dist_thresh_m"),
        ("visits", {"time_thresh_s": -1}, "visits.time_thresh_s"),
        ("ingest", {"poi_column_map": {}}, "ingest.poi_column_map"),
        ("ingest", {"poi_csv": ""}, "ingest.poi_csv"),
        ("ingest", {"plt_root": ""}, "ingest.plt_root"),  # and no trajectory_csvs
        # load checks only that a trajectory CSV exists, so any file stands for one
        ("ingest", {"trajectory_csvs": [__file__], "trajectory_column_map": {"user": "u", "lat": "a", "lon": "o"}},
         "ingest.trajectory_column_map"),
    ],
)
def test_out_of_range_value_is_config_error(fixture_root, tmp_path, capsys, section, value, field):
    assert_config_error(fixture_root, tmp_path, capsys, section, value, field)


@pytest.mark.parametrize(
    "section, value, flags, field",
    [
        (None, [], ["--out", "out"], "config"),
        ("model", [1], ["--seed", "3"], "model"),
        ("quality", "x", ["--tau", "4"], "quality"),
        ("quality", {}, ["--out", ""], "out_dir"),
        ("quality", {}, ["--T", "0"], "quality.t_days"),
    ],
)
def test_flag_is_checked_as_a_config_value(fixture_root, tmp_path, capsys, monkeypatch, section, value, flags, field):
    monkeypatch.chdir(tmp_path)  # a relative --out names the directory that must not appear
    assert_config_error(fixture_root, tmp_path, capsys, section, value, field, flags)


def test_unreadable_config_is_config_error(tmp_path, capsys):
    assert main(["all", "--config", str(tmp_path / "missing.json")]) == 2
    assert "config" in capsys.readouterr().err


def test_stage_with_missing_dependency_fails_at_runtime(fixture_root, tmp_path, capsys):
    root, poi_csv = fixture_root
    config = write_config(str(tmp_path / "config.json"), root, poi_csv, str(tmp_path / "out"))
    assert main(["visits", "--config", config]) == 1
    assert "stage visits failed" in capsys.readouterr().err


def test_flag_overrides_config(fixture_root, tmp_path):
    root, poi_csv = fixture_root
    out = str(tmp_path / "out")
    config = write_config(str(tmp_path / "config.json"), root, poi_csv, out)
    assert main(["ingest", "--config", config]) == 0
    assert main(["quality", "--config", config, "--tau", "4", "--mu-t-min", "0.9"]) == 0
    with open(os.path.join(out, "quality", "cohort.json")) as fh:
        cohort = json.load(fh)
    assert cohort["tau_hours"] == 4.0 and isinstance(cohort["tau_hours"], float)  # the schema's type, as JSON 4.0
    assert cohort["mu_t_min"] == 0.9


def test_out_flag_redirects_artifacts(fixture_root, tmp_path):
    root, poi_csv = fixture_root
    config = write_config(str(tmp_path / "config.json"), root, poi_csv, str(tmp_path / "a"))
    alt = str(tmp_path / "b")
    assert main(["ingest", "--config", config, "--out", alt]) == 0
    assert os.path.exists(os.path.join(alt, "ingest", "manifest.json"))
    assert not os.path.exists(os.path.join(str(tmp_path / "a"), "ingest"))


def test_config_change_invalidates_cache(fixture_root, tmp_path, capsys):
    root, poi_csv = fixture_root
    out = str(tmp_path / "out")
    config = write_config(str(tmp_path / "config.json"), root, poi_csv, out)
    assert main(["ingest", "--config", config]) == 0
    assert main(["quality", "--config", config]) == 0
    capsys.readouterr()
    # quality params changed -> quality must recompute, ingest must not
    assert main(["ingest", "--config", config, "--progress-json"]) == 0
    assert main(["quality", "--config", config, "--tau", "6", "--progress-json"]) == 0
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    by_stage = {}
    for e in events:
        by_stage.setdefault(e["stage"], []).append(e["event"])
    assert by_stage["ingest"] == ["cache-hit"]
    assert "done" in by_stage["quality"]


def tree_files(out):
    """relative path -> bytes of every artifact under ``out`` except run_manifest.json."""
    files = {}
    for dirpath, _, names in os.walk(out):
        for name in names:
            rel = os.path.relpath(os.path.join(dirpath, name), out)
            if rel != "run_manifest.json":
                with open(os.path.join(out, rel), "rb") as fh:
                    files[rel] = fh.read()
    return files


def test_rerun_without_sweep_drops_sweep_artifacts(completed_run, tmp_path):
    config, out = completed_run
    rerun = str(tmp_path / "out")
    shutil.copytree(out, rerun)
    with open(config) as fh:
        raw = json.load(fh)
    raw["model"]["run_sweep"] = False
    with open(tmp_path / "config.json", "w") as fh:
        json.dump(raw, fh)
    assert main(["all", "--config", str(tmp_path / "config.json"), "--out", rerun]) == 0
    assert not os.path.exists(os.path.join(rerun, "fit", "sweep.csv"))
    assert not os.path.exists(os.path.join(rerun, "fit", "sweep_meta.json"))
    with open(os.path.join(rerun, "report", "summary.json")) as fh:
        assert json.load(fh)["sweep_table"] == []
    with open(os.path.join(rerun, "report", "summary.txt")) as fh:
        assert "sweep cells: 0" in fh.read()
    assert not [name for name in os.listdir(rerun) if name.startswith(".")]


def test_truncated_manifest_is_runtime_error(completed_run, tmp_path, capsys):
    config, out = completed_run
    broken = str(tmp_path / "out")
    shutil.copytree(out, broken)
    path = os.path.join(broken, "run_manifest.json")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[: len(text) // 2])
    capsys.readouterr()
    assert main(["all", "--config", config, "--out", broken]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "run manifest" in err and "Traceback" not in err


def test_t_days_change_refreshes_patterns(fixture_root, tmp_path):
    """A T edit that keeps the cohort must still renormalise the temporal profile."""
    root, poi_csv = fixture_root
    config = write_config(
        str(tmp_path / "config.json"), root, poi_csv, str(tmp_path / "edited"),
        model={"run_sweep": False},
    )
    assert main(["all", "--config", config]) == 0
    assert main(["all", "--config", config, "--T", "5"]) == 0
    fresh = str(tmp_path / "fresh")
    assert main(["all", "--config", config, "--T", "5", "--out", fresh]) == 0
    with open(os.path.join(fresh, "quality", "cohort.json")) as fh:
        assert len(json.load(fh)["users"]) == 8  # the edit keeps the cohort
    edited, expected = tree_files(str(tmp_path / "edited")), tree_files(fresh)
    assert edited["patterns/temporal_profile.csv"] == expected["patterns/temporal_profile.csv"]
    assert edited == expected


def test_rerun_replaces_the_stage_directory_whole(completed_run, tmp_path):
    config, out = completed_run
    run = str(tmp_path / "out")
    shutil.copytree(out, run)
    os.makedirs(os.path.join(run, ".quality.tmp"))  # as a crash inside the stage leaves it
    for rel in (".quality.tmp/partial.csv", "quality/stale.csv"):
        with open(os.path.join(run, rel), "w") as fh:
            fh.write("x\n")
    assert main(["quality", "--config", config, "--out", run, "--mu-t-min", "0.9"]) == 0
    assert not os.path.exists(os.path.join(run, ".quality.tmp"))
    assert sorted(os.listdir(os.path.join(run, "quality"))) == [
        "cohort.json", "histograms.json", "reports.csv",
    ]


def test_visits_loads_only_the_cohort(fixture_root, tmp_path, monkeypatch):
    root, poi_csv = fixture_root
    tree = str(tmp_path / "geolife")
    shutil.copytree(root, tree)
    os.makedirs(os.path.join(tree, "sparse", "Trajectory"))
    write_plt(os.path.join(tree, "sparse", "Trajectory", "x.plt"), [(39.9, 116.3, START)])
    loaded = []
    read_traces = ingest.read_traces

    def recording_read_traces(*args, **kwargs):
        traces = read_traces(*args, **kwargs)
        loaded.append(sorted(traces))
        return traces

    monkeypatch.setattr(ingest, "read_traces", recording_read_traces)
    out = str(tmp_path / "out")
    config = write_config(str(tmp_path / "config.json"), tree, poi_csv, out)
    for stage in ("ingest", "quality", "visits"):
        assert main([stage, "--config", config]) == 0
    with open(os.path.join(out, "quality", "cohort.json")) as fh:
        cohort = json.load(fh)["users"]
    assert len(cohort) == 8 and "sparse" not in cohort
    assert loaded == [cohort + ["sparse"], cohort]


def rerun(config, run, capsys, **sections):
    """`visitscope all` into ``run`` with ``sections`` merged into ``config``; the stages that ran."""
    with open(config) as fh:
        raw = json.load(fh)
    for section, vals in sections.items():
        raw.setdefault(section, {}).update(vals)
    with open(run + ".json", "w") as fh:
        json.dump(raw, fh)
    capsys.readouterr()
    assert main(["all", "--config", run + ".json", "--out", run, "--progress-json"]) == 0
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    return [e["stage"] for e in events if e["event"] == "done"]


@pytest.mark.parametrize(
    "sections, stages",
    [
        ({"quality": {"tau_set": [1.0, 4.0]}}, ["quality"]),  # the cohort's cell is unchanged
        ({"model": {"k_max": 6}}, ["fit", "report"]),  # model.json is unchanged; sweep.csv is not
        ({"patterns": {"top_k": 3}}, ["patterns"]),
        ({"quality": {"t_days": 5}}, ["quality", "patterns", "report"]),  # the cohort's users are unchanged
    ],
)
def test_edit_reruns_only_the_stages_that_read_it(completed_run, tmp_path, capsys, sections, stages):
    config, out = completed_run
    run = str(tmp_path / "out")
    shutil.copytree(out, run)
    assert rerun(config, run, capsys, **sections) == stages
    fresh = str(tmp_path / "fresh")
    assert rerun(config, fresh, capsys, **sections) == list(pipeline.STAGES)
    assert tree_files(run) == tree_files(fresh)


def test_source_change_reruns_every_stage(completed_run, tmp_path, capsys, monkeypatch):
    config, out = completed_run
    run = str(tmp_path / "out")
    shutil.copytree(out, run)
    assert rerun(config, run, capsys) == []
    monkeypatch.setattr(pipeline, "source_digest", lambda: "another version")
    assert rerun(config, run, capsys) == list(pipeline.STAGES)
    assert rerun(config, run, capsys) == []
    assert tree_files(run) == tree_files(out)


def test_numpy_change_reruns_the_stages_whose_floats_it_computes(completed_run, tmp_path, capsys, monkeypatch):
    config, out = completed_run
    with open(os.path.join(out, "run_manifest.json")) as fh:
        entries = json.load(fh)["stages"]
    assert [s for s in pipeline.STAGES if "numpy" in entries[s]["reads"]] == ["fit", "classify", "patterns"]
    assert entries["fit"]["reads"]["numpy"]["numpy"] == np.__version__
    run = str(tmp_path / "out")
    shutil.copytree(out, run)
    monkeypatch.setattr(np, "__version__", "0.0")
    pipeline.numeric_stack.cache_clear()
    try:
        assert rerun(config, run, capsys) == ["fit", "classify", "patterns"]  # report: fit's bytes are unchanged
        assert rerun(config, run, capsys) == []
    finally:
        pipeline.numeric_stack.cache_clear()
    assert tree_files(run) == tree_files(out)


def test_trajectory_csv_input_gives_the_plt_run(tmp_path, capsys):
    """The fixes of a PLT tree, as one trajectory CSV, give the PLT run's artifacts."""
    root = str(tmp_path / "geolife")
    poi_csv = make_geolife_fixture(root, n_users=4, t_days=7, seed=5)
    fixes = str(tmp_path / "fixes.csv")
    with open(fixes, "w", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(["device", "latitude", "longitude", "time"])
        for path in sorted(glob.glob(os.path.join(root, "*", "Trajectory", "*.plt"))):
            with open(path) as fh:
                records, _ = ingest.parse_plt(fh, os.path.relpath(path, root).split(os.sep)[0])
            writer.writerows((r.user_id, r.lat, r.lon, r.t.strftime("%Y-%m-%d %H:%M:%S")) for r in records)
    plt_config = write_config(
        str(tmp_path / "plt.json"), root, poi_csv, str(tmp_path / "plt"), model={"run_sweep": False}
    )
    with open(plt_config) as fh:
        raw = json.load(fh)
    del raw["ingest"]["plt_root"]
    raw["ingest"]["trajectory_csvs"] = [fixes]
    raw["ingest"]["trajectory_column_map"] = {"user": "device", "lat": "latitude", "lon": "longitude", "t": "time"}
    raw["out_dir"] = str(tmp_path / "csv")
    with open(tmp_path / "csv.json", "w") as fh:
        json.dump(raw, fh)
    reads = {}
    for name, config in (("plt", plt_config), ("csv", str(tmp_path / "csv.json"))):
        assert main(["all", "--config", config]) == 0
        with open(tmp_path / name / "run_manifest.json") as fh:
            reads[name] = json.load(fh)["stages"]["ingest"]["reads"]
    plt_tree, csv_tree = tree_files(str(tmp_path / "plt")), tree_files(str(tmp_path / "csv"))
    assert plt_tree.pop("ingest/manifest.json") != csv_tree.pop("ingest/manifest.json")  # it names the sources
    assert csv_tree == plt_tree
    assert "ingest.trajectory_column_map" in reads["csv"]
    assert "ingest.trajectory_column_map" not in reads["plt"]


def test_new_plt_user_reruns_quality_and_grows_the_cohort(fixture_root, tmp_path, capsys):
    root, poi_csv = fixture_root
    tree = str(tmp_path / "geolife")
    shutil.copytree(root, tree)
    shutil.move(os.path.join(tree, "007"), str(tmp_path / "held_out"))
    run = str(tmp_path / "out")
    config = write_config(str(tmp_path / "config.json"), tree, poi_csv, run, model={"run_sweep": False})
    assert rerun(config, run, capsys) == list(pipeline.STAGES)
    shutil.move(str(tmp_path / "held_out"), os.path.join(tree, "007"))
    assert "quality" in rerun(config, run, capsys)
    with open(os.path.join(run, "quality", "cohort.json")) as fh:
        assert json.load(fh)["users"] == [f"{u:03d}" for u in range(8)]
    fresh = str(tmp_path / "fresh")
    assert rerun(config, fresh, capsys) == list(pipeline.STAGES)
    assert tree_files(run) == tree_files(fresh)


def test_sweep_back_on_restores_the_sweep_table(completed_run, tmp_path, capsys):
    config, out = completed_run
    run = str(tmp_path / "out")
    shutil.copytree(out, run)
    assert rerun(config, run, capsys, model={"run_sweep": False}) == ["fit", "report"]
    assert rerun(config, run, capsys, model={"run_sweep": True}) == ["fit", "report"]
    with open(os.path.join(run, "report", "summary.json")) as fh:
        assert len(json.load(fh)["sweep_table"]) == 8 * 4
    assert tree_files(run) == tree_files(out)


def test_manifest_without_recorded_reads_reruns_every_stage(completed_run, tmp_path, capsys):
    config, out = completed_run
    run = str(tmp_path / "out")
    shutil.copytree(out, run)
    path = os.path.join(run, "run_manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    for entry in manifest["stages"].values():  # the format that held one cache key per stage
        del entry["reads"]
        entry["cache_key"] = "0" * 64
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    assert rerun(config, run, capsys) == list(pipeline.STAGES)
    with open(path) as fh:
        assert all("reads" in e and "cache_key" not in e for e in json.load(fh)["stages"].values())
    assert tree_files(run) == tree_files(out)


def test_runtime_imports_no_scipy():
    # numpy is the only runtime dependency; scipy is a test-only oracle
    code = (
        "import sys, visitscope.cli, visitscope.model;"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = os.path.dirname(os.path.dirname(visitscope.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
