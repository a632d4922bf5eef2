"""The benchmark's tracer still finds every function it wraps and reports every per-layer metric.

``bench/tracing.py`` patches functions by name, so renaming ``Pipeline.run_stage``,
``Pipeline.stage_dir``, ``ingest.read_traces`` or any other wrapped function, or
changing how the pipeline calls them, breaks the benchmark's traced run.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import tracing

from visitscope import cli, pipeline

from synth import make_geolife_fixture


def test_traced_cli_run_reports_every_layer(tmp_path):
    root = str(tmp_path / "geolife")
    poi_csv = make_geolife_fixture(root, n_users=4, t_days=7, seed=5)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "out_dir": str(tmp_path / "out"),
        "ingest": {
            "plt_root": root,
            "poi_csv": poi_csv,
            "poi_column_map": {k: k for k in ("poi_id", "lat", "lon", "category")},
        },
        "quality": {"t_days": 7, "tau_set": [1.0], "t_set": [7]},
        "model": {"k_max": 2, "n_init": 1},
        "patterns": {"k_m": 2},
    }))
    run_stage = pipeline.Pipeline.run_stage

    tracer = tracing.Tracer()
    tracer.install()
    try:
        since = tracer.mark()
        assert cli.main(["all", "--config", str(config)]) == 0
        metrics = tracer.round_metrics(since)
    finally:
        tracer.uninstall()

    assert pipeline.Pipeline.run_stage is run_stage
    assert list(metrics) == list(tracing.PER_LAYER)
    for stage in pipeline.STAGES:
        assert metrics[f"pipeline.stage_s.{stage}"] > 0, stage
    assert metrics["pipeline.cache_hits"] == 0
    assert metrics["pipeline.artifact_bytes"] > 0
    assert metrics["ingest.records"] > 0
    assert metrics["ingest.read_traces_calls"] >= 1
    assert metrics["ingest.store_bytes"] > 0
    assert metrics["model.sweep_s"] > 0 and metrics["model.em_iters"] > 0
    assert metrics["visits.stay_points"] > 0
    assert metrics["patterns.profiles_s"] > 0
