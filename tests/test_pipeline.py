import dataclasses
import os
from datetime import datetime

import pytest

from visitscope import classify, ingest, pipeline, visits

# objects of every table with a row class; each float is exact at its column's precision
TYPED_ROWS = {
    "pois": [
        ingest.PoiRecord("p1", 39.9, 116.25, "food"),
        ingest.PoiRecord("p2", -33.875, 151.2, "park, with a comma"),
    ],
    "visits": [
        visits.Visit("u1", 39.9, 116.25, datetime(2024, 1, 1, 8, 0, 0, 123456), datetime(2024, 1, 1, 9, 30), "p1"),
        visits.Visit("u1", 39.95, 116.5, datetime(2024, 1, 2, 8), datetime(2024, 1, 2, 8, 20)),
    ],
    "features": [
        visits.VisitFeature("u1", "p1", 3, 4, 6.5),
        visits.VisitFeature("u2", "p2", 1, 1, 0.25),
    ],
    "labeled_features": [
        classify.LabeledFeature("u1", "p1", 2.5, 1.25, 3, "G5"),
        classify.LabeledFeature("u2", "p2", 7.0, 0.5, 0, "G6"),
    ],
}
FIELD_TYPES = {"str": str, "int": int, "float": float, "datetime": datetime, "str | None": (str, type(None))}


@pytest.mark.parametrize("table", [t for t, (_, _, row_cls) in pipeline.TABLES.items() if row_cls])
def test_typed_table_round_trip(tmp_path, table):
    pipe = pipeline.Pipeline(pipeline.PipelineConfig(out_dir=str(tmp_path)))
    pipe._reads = {}
    rel, _, row_cls = pipeline.TABLES[table]
    stage = rel.partition("/")[0]

    def write(rows) -> bytes:
        os.makedirs(pipe._staged(stage), exist_ok=True)
        pipe._write_table(table, rows)
        with open(pipe._staged(rel), "rb") as fh:
            return fh.read()

    written = write(TYPED_ROWS[table])
    os.replace(pipe._staged(stage), pipe.stage_dir(stage))
    rows = pipe._read_table(table)
    assert rows == TYPED_ROWS[table]
    for row in rows:
        assert type(row) is row_cls
        for f in dataclasses.fields(row_cls):
            assert isinstance(getattr(row, f.name), FIELD_TYPES[f.type]), f.name
    assert write(rows) == written


def test_visit_cells(tmp_path):
    """A datetime is written with isoformat(), microseconds included; None as an empty cell."""
    pipe = pipeline.Pipeline(pipeline.PipelineConfig(out_dir=str(tmp_path)))
    os.makedirs(pipe._staged("visits"))
    pipe._write_table("visits", TYPED_ROWS["visits"])
    with open(pipe._staged("visits/visits.csv")) as fh:
        assert fh.read().splitlines() == [
            "user_id,poi_id,arrival,departure,dwell_s,lat,lon",
            "u1,p1,2024-01-01T08:00:00.123456,2024-01-01T09:30:00,5399.876544,39.900000,116.250000",
            "u1,,2024-01-02T08:00:00,2024-01-02T08:20:00,1200,39.950000,116.500000",
        ]
