import json
import os
import shutil

import pytest

from visitscope import ingest
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
    assert cohort["tau_hours"] == 4.0
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
