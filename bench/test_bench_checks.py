"""The benchmark's output checks pass on a real run and reject corrupted artifacts."""

import csv
import json
import os
import shutil

import pytest

import checks
import gen


def edit_rows(path, fn):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    fn(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, reader.fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def edit_json(path, fn):
    doc = load_json(path)
    fn(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    from visitscope.cli import main

    root = tmp_path_factory.mktemp("bench")
    data = gen.make_geolife(str(root / "geo"), seed=3, n_users=8, t_days=8, n_gap=1, n_teleport=1, n_trip=2)
    run = str(root / "run")
    cfg = gen.geolife_config(data, run, quality={"t_days": 7}, model={"k_max": 8, "n_init": 1})
    (root / "cfg.json").write_text(json.dumps(cfg))
    assert main(["all", "--config", str(root / "cfg.json")]) == 0
    return data, run


@pytest.fixture
def tree(small_run, tmp_path):
    data, run = small_run
    dst = str(tmp_path / "run")
    shutil.copytree(run, dst)
    return data, dst


def test_clean_run_passes(small_run):
    data, run = small_run
    assert checks.check_geolife_run(run, data) == []
    cohort = load_json(os.path.join(run, "quality", "cohort.json"))["users"]
    planted_out = {u for u, kind in data.kinds.items() if kind in ("gap", "teleport")}
    assert cohort == sorted(set(data.kinds) - planted_out)


def test_record_count_off_by_one(tree):
    data, run = tree
    edit_json(os.path.join(run, "ingest", "manifest.json"),
              lambda doc: doc["users"]["000"].update(n_records=doc["users"]["000"]["n_records"] - 1))
    assert checks.check_records(run, data)


def test_cohort_missing_user(tree):
    data, run = tree
    edit_json(os.path.join(run, "quality", "cohort.json"), lambda doc: doc["users"].pop())
    cfg = load_json(os.path.join(run, "run_manifest.json"))["config"]
    assert checks.check_quality(run, data, cfg)


def test_moved_visit(tree):
    data, run = tree

    def move(rows):
        row = next(r for r in rows if r["poi_id"])
        row["lat"] = f"{float(row['lat']) + 0.003:.6f}"  # ~330 m north

    edit_rows(os.path.join(run, "visits", "visits.csv"), move)
    assert checks.check_snapping(run, data.pois)


def test_dropped_snap(tree):
    data, run = tree
    edit_rows(os.path.join(run, "visits", "visits.csv"),
              lambda rows: next(r for r in rows if r["poi_id"]).update(poi_id=""))
    assert checks.check_snapping(run, data.pois)


def test_feature_recount_off_by_one(tree):
    _, run = tree
    edit_rows(os.path.join(run, "visits", "features.csv"),
              lambda rows: rows[0].update(n_visits=int(rows[0]["n_visits"]) + 1))
    assert checks.check_features(run)


def test_long_dwell_not_g3(tree):
    _, run = tree

    def relabel(rows):
        row = next(r for r in rows if float(r["mean_dwell_h"]) > 24.0)  # a planted weekend trip
        row["label"] = "G1"

    edit_rows(os.path.join(run, "classify", "labeled_features.csv"), relabel)
    cfg = load_json(os.path.join(run, "run_manifest.json"))["config"]
    assert checks.check_labels(run, cfg)


def test_transition_count(tree):
    _, run = tree
    edit_rows(os.path.join(run, "patterns", "transitions.csv"),
              lambda rows: rows[0].update(count=int(rows[0]["count"]) + 1))
    assert checks.check_transitions(run)


def test_stale_temporal_profile(tree):
    _, run = tree

    def stale(rows):  # what a profile normalised for T = 15 days looks like
        for r in rows:
            r["intensity"] = f"{float(r['intensity']) * 7 / 15:.12g}"

    edit_rows(os.path.join(run, "patterns", "temporal_profile.csv"), stale)
    cfg = load_json(os.path.join(run, "run_manifest.json"))["config"]
    assert checks.check_temporal_profile(run, cfg)


def test_perturbed_bic(tree):
    _, run = tree
    edit_rows(os.path.join(run, "fit", "sweep.csv"),
              lambda rows: rows[3].update(bic=f"{float(rows[3]['bic']) + 0.01:.12g}"))
    assert checks.check_sweep_csv(run)


def test_report_disagrees(tree):
    _, run = tree
    edit_json(os.path.join(run, "report", "summary.json"), lambda doc: doc.update(cohort_size=doc["cohort_size"] + 1))
    assert checks.check_report(run)


def test_tree_diff_ignores_only_the_manifest(tree, small_run):
    _, run = tree
    want = checks.tree_digest(small_run[1])
    assert checks.tree_diff(checks.tree_digest(run), want) == []
    with open(os.path.join(run, "run_manifest.json"), "a") as fh:
        fh.write(" ")
    assert checks.tree_diff(checks.tree_digest(run), want) == []
    with open(os.path.join(run, "patterns", "temporal_profile.csv"), "a") as fh:
        fh.write("\n")
    assert checks.tree_diff(checks.tree_digest(run), want) == [os.path.join("patterns", "temporal_profile.csv")]


@pytest.fixture(scope="module")
def small_sweep():
    from visitscope.model import GmmParams, fit_gmm, sweep

    x = gen.make_gmm_matrix(0, 500)
    result = sweep(x, k_max=7, params=GmmParams(n_init=1))
    cells = [
        {"k": c.k, "cov_kind": c.cov_kind, "loglik": c.loglik, "bic": c.bic, "aic": c.aic, "error": c.error}
        for c in result.rows()
    ]
    return x, cells, fit_gmm(x, GmmParams(k=7, cov_kind="tied", n_init=2)).to_dict()


def test_gmm_clean_sweep_passes(small_sweep):
    x, cells, fit = small_sweep
    assert checks.check_gmm(x, cells, fit, planted_k=5) == []


def _corrupt(cells, k, kind, **changes):
    return [dict(c, **changes) if (c["k"], c["cov_kind"]) == (k, kind) else c for c in cells]


def test_gmm_k1_loglik_off(small_sweep):
    x, cells, fit = small_sweep
    c = next(c for c in cells if (c["k"], c["cov_kind"]) == (1, "full"))
    ll = c["loglik"] - 1.0  # IC kept consistent, so only the closed form can catch it
    bad = _corrupt(cells, 1, "full", loglik=ll, bic=c["bic"] + 2.0, aic=c["aic"] + 2.0)
    problems = checks.check_gmm(x, bad, fit, planted_k=5)
    assert problems and all("closed form" in p for p in problems)


def test_gmm_perturbed_bic(small_sweep):
    x, cells, fit = small_sweep
    c = next(c for c in cells if (c["k"], c["cov_kind"]) == (6, "diagonal"))
    assert checks.check_gmm(x, _corrupt(cells, 6, "diagonal", bic=c["bic"] * (1 + 1e-6)), fit, planted_k=5)


def test_gmm_wrong_planted_k_and_cell_error(small_sweep):
    x, cells, fit = small_sweep
    assert checks.check_gmm(x, cells, fit, planted_k=4)
    assert checks.check_gmm(x, _corrupt(cells, 3, "tied", error="boom"), fit, planted_k=5)


def test_gmm_fit_loglik_off(small_sweep):
    x, cells, fit = small_sweep
    assert checks.check_gmm(x, cells, dict(fit, loglik=fit["loglik"] + 0.5), planted_k=5)
