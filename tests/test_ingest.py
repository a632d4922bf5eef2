import io
import itertools
import os
from datetime import datetime

import pytest

from visitscope.ingest import (
    MobilityRecord,
    build_traces,
    parse_plt,
    parse_poi_file,
    parse_trajectory_csv,
    read_traces,
    write_traces,
)

PLT_HEADER = "line1\nline2\nline3\nline4\nline5\nline6\n"


def test_parse_plt_line():
    body = "39.984702,116.318417,0,492,39744.1201851852,2008-10-23,02:53:04\n"
    records, stats = parse_plt(io.StringIO(PLT_HEADER + body), "000")
    assert stats.parsed_ok == 1 and stats.skipped == 0
    rec = records[0]
    assert rec.user_id == "000"
    assert rec.lat == pytest.approx(39.984702)
    assert rec.lon == pytest.approx(116.318417)
    assert rec.t == datetime(2008, 10, 23, 2, 53, 4)


def test_parse_plt_header_only():
    records, stats = parse_plt(io.StringIO(PLT_HEADER), "u")
    assert records == [] and stats.skipped == 0


def test_parse_plt_bad_latitude_skipped():
    body = "91.0,116.3,0,492,39744.12,2008-10-23,02:53:04\n"
    records, stats = parse_plt(io.StringIO(PLT_HEADER + body), "u")
    assert records == [] and stats.skipped == 1


PLT_STAMPS = [
    ("2008-10-23", "02:53:04"),
    ("2024-1-1", "1:2:3"),
    ("2024-01-01", "0:0:0"),
    ("2024-01- 1", "00:00:00"),
    ("2024-01-01 ", "00:00:00"),
    ("2024-01-01", "02:53:04.5"),
    ("2024-01-01", "02:53:04.000001"),
    ("2024-01-01", "02:53:04+08:00"),
    ("2024-01-01T02:53:04", "02:53:04"),
    ("2024/01/01", "02:53:04"),
    ("\u0662\u0660\u0662\u0664-01-01", "00:00:00"),
    ("\uff12\uff10\uff12\uff14-01-01", "00:00:00"),
    ("2024-01-01", "\u0660\u0662:53:04"),
    ("2024-12-31", "23:59:60"),
    ("2024-02-30", "00:00:00"),
    ("2023-02-29", "00:00:00"),
    ("2024-02-29", "00:00:00"),
    ("2024-01-01", ""),
    ("", "00:00:00"),
] + [
    (f"{y}-{m}-{d}", f"{hh}:{mm}:{ss}")
    for y, m, d, hh, mm, ss in itertools.product(
        ("0000", "0001", "2024", "9999"),
        ("00", "01", "12", "13"),
        ("00", "01", "29", "31", "32"),
        ("00", "23", "24"),
        ("00", "59", "60"),
        ("00", "59", "60", "61"),
    )
]


def test_parse_plt_timestamps_match_strptime():
    # every line is parsed or skipped exactly as strptime decides, with the same datetime
    body = "".join(f"39.9,116.3,0,0,1.0,{date},{time}\n" for date, time in PLT_STAMPS)
    records, stats = parse_plt(io.StringIO(PLT_HEADER + body), "u")
    want = []
    for date, time in PLT_STAMPS:
        try:
            want.append(datetime.strptime(date + " " + time, "%Y-%m-%d %H:%M:%S"))
        except ValueError:
            pass
    assert 0 < len(want) < len(PLT_STAMPS)
    assert [r.t for r in records] == want
    assert stats.parsed_ok == len(want) and stats.skipped == len(PLT_STAMPS) - len(want)


def test_parse_plt_bytes_and_malformed():
    body = "39.9,116.3,0,0,1.0,2008-10-23,02:53:04\nnot,a,line\n"
    records, stats = parse_plt(io.BytesIO((PLT_HEADER + body).encode()), "u")
    assert stats.parsed_ok == 1 and stats.skipped == 1
    assert stats.parsed_ok + stats.skipped == 2  # row conservation


CSV_MAP = {"user": "uid", "lat": "latitude", "lon": "longitude", "t": "ts", "t_format": "%Y-%m-%d %H:%M:%S"}


def make_csv(rows):
    out = "uid,latitude,longitude,ts\n"
    for r in rows:
        out += ",".join(str(v) for v in r) + "\n"
    return io.StringIO(out)


def test_parse_trajectory_csv_valid_rows():
    stream = make_csv(
        [
            ("a", 1.0, 2.0, "2024-01-01 00:00:00"),
            ("a", 1.1, 2.1, "2024-01-01 01:00:00"),
            ("b", 1.2, 2.2, "2024-01-01 02:00:00"),
        ]
    )
    records, stats = parse_trajectory_csv(stream, CSV_MAP)
    assert len(records) == 3 and stats.skipped == 0


def test_parse_trajectory_csv_bad_timestamp_skipped():
    stream = make_csv([("a", 1.0, 2.0, "not-a-time"), ("a", 1.0, 2.0, "2024-01-01 00:00:00")])
    records, stats = parse_trajectory_csv(stream, CSV_MAP)
    assert len(records) == 1 and stats.skipped == 1


def test_parse_trajectory_csv_missing_column_is_hard_error():
    stream = io.StringIO("uid,latitude,ts\na,1.0,2024-01-01 00:00:00\n")
    with pytest.raises(ValueError, match="longitude"):
        parse_trajectory_csv(stream, CSV_MAP)


def test_parse_trajectory_csv_duplicates_pass_through():
    # dedup is build_traces' job, not the parser's
    rows = [("a", 1.0, 2.0, "2024-01-01 00:00:00")] * 2
    records, stats = parse_trajectory_csv(make_csv(rows), CSV_MAP)
    assert len(records) == 2


POI_MAP = {"poi_id": "id", "lat": "lat", "lon": "lon", "category": "cat"}


def test_parse_poi_file():
    stream = io.StringIO("id,lat,lon,cat\np1,1.0,2.0,food\np2,1.1,2.1,residential\n")
    pois, stats = parse_poi_file(stream, POI_MAP)
    assert [p.category for p in pois] == ["food", "residential"]


def test_parse_poi_empty_category_skipped():
    stream = io.StringIO("id,lat,lon,cat\np1,1.0,2.0,\n")
    pois, stats = parse_poi_file(stream, POI_MAP)
    assert pois == [] and stats.skipped == 1


def test_parse_poi_44_category_vocabulary():
    lines = ["id,lat,lon,cat"]
    for i in range(88):
        lines.append(f"p{i},1.0,2.0,cat{i % 44}")
    pois, _ = parse_poi_file(io.StringIO("\n".join(lines)), POI_MAP)
    assert len({p.category for p in pois}) == 44


def rec(user, t_s, lat=1.0, lon=2.0):
    return MobilityRecord(user, lat, lon, datetime(2024, 1, 1) + __import__("datetime").timedelta(seconds=t_s))


def test_build_traces_sorts():
    records = [rec("a", s) for s in (50, 10, 40, 20, 30)]
    traces, stats = build_traces(records)
    ts = [r.t for r in traces["a"].records]
    assert ts == sorted(ts) and len(ts) == 5


def test_build_traces_dedup_exact():
    records = [rec("a", 10), rec("a", 10)]
    traces, stats = build_traces(records)
    assert len(traces["a"]) == 1 and stats.deduped == 1 and stats.conflicts == 0


def test_build_traces_conflict_keeps_first():
    records = [rec("a", 10, lat=1.0), rec("a", 10, lat=5.0)]
    traces, stats = build_traces(records)
    assert len(traces["a"]) == 1
    assert traces["a"].records[0].lat == 1.0
    assert stats.conflicts == 1


def test_build_traces_idempotent():
    records = [rec("a", s) for s in (30, 10, 20)] + [rec("b", 5)]
    traces, _ = build_traces(records)
    again, stats = build_traces([r for t in traces.values() for r in t.records])
    assert stats.deduped == 0
    assert {u: [r.t for r in t.records] for u, t in again.items()} == {
        u: [r.t for r in t.records] for u, t in traces.items()
    }


def test_write_read_roundtrip(tmp_path):
    records = [rec("a", s, lat=39.123456789) for s in (10, 20)] + [rec("b", 5)]
    traces, _ = build_traces(records)
    manifest = write_traces(traces, str(tmp_path), sources=["x.plt"], parse_errors=2)
    assert manifest["users"]["a"]["n_records"] == 2
    assert manifest["parse_errors"] == 2
    loaded = read_traces(str(tmp_path))
    assert set(loaded) == {"a", "b"}
    # 6-decimal coordinate precision preserved on round trip
    assert loaded["a"].records[0].lat == pytest.approx(39.123457, abs=1e-9)
    for trace in loaded.values():
        trace.check()


def test_read_traces_loads_only_the_listed_users(tmp_path):
    traces, _ = build_traces([rec("a", 10), rec("b", 5), rec("../x", 10), rec("../x", 20)])
    write_traces(traces, str(tmp_path))
    loaded = read_traces(str(tmp_path), users=["b", "../x", "missing"])
    assert list(loaded) == ["../x", "b"]
    assert [r.t for r in loaded["../x"].records] == [r.t for r in traces["../x"].records]
    assert all(r.user_id == "../x" for r in loaded["../x"].records)
    assert read_traces(str(tmp_path), users=[]) == {}


def test_user_ids_stay_inside_the_trace_store(tmp_path):
    traces, _ = build_traces([rec("../x", 10), rec("../x", 20), rec("a", 5)])
    store = tmp_path / "store"
    write_traces(traces, str(store))
    assert os.listdir(tmp_path) == ["store"]
    assert os.listdir(store) == ["traces"]
    assert sorted(os.listdir(store / "traces")) == ["..%2Fx.csv", "a.csv"]
    loaded = read_traces(str(store))
    assert {u: [r.t for r in t.records] for u, t in loaded.items()} == {
        u: [r.t for r in t.records] for u, t in traces.items()
    }
    for trace in loaded.values():
        trace.check()
