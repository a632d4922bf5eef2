"""Parsers for raw trajectory / PoI files and the canonical per-user trace store."""

from __future__ import annotations

import csv
import io
import os
import re
from dataclasses import dataclass
from datetime import datetime
from typing import IO, Iterable
from urllib.parse import quote, unquote

PLT_HEADER_LINES = 6
COORD_DECIMALS = 6
# the keys a column map must name, for a PoI CSV and for a trajectory CSV
POI_COLUMNS = ("poi_id", "lat", "lon", "category")
TRAJECTORY_COLUMNS = ("user", "lat", "lon", "t")
# the date/time shape PLT files use, in ASCII digits: fromisoformat accepts or
# rejects such a stamp exactly as strptime("%Y-%m-%d %H:%M:%S") does, and is
# about ten times faster
_CANONICAL_STAMP = re.compile(r"\d{4}-\d\d-\d\d \d\d:\d\d:\d\d", re.ASCII)


@dataclass(frozen=True, slots=True)
class MobilityRecord:
    """One timestamped GPS fix for one user."""

    user_id: str
    lat: float
    lon: float
    t: datetime

    def is_valid(self) -> bool:
        return -90.0 <= self.lat <= 90.0 and -180.0 <= self.lon <= 180.0


@dataclass
class MobilityTrace:
    """Chronologically ordered records of a single user."""

    user_id: str
    records: list[MobilityRecord]

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True, slots=True)
class PoiRecord:
    poi_id: str
    lat: float
    lon: float
    category: str


@dataclass
class ParseStats:
    """Line accounting for one parsed file: parsed_ok + skipped = data lines."""

    parsed_ok: int = 0
    skipped: int = 0


@dataclass
class BuildStats:
    """Row accounting for trace building."""

    kept: int = 0
    deduped: int = 0
    conflicts: int = 0


def _plt_time(stamp: str) -> datetime:
    if _CANONICAL_STAMP.fullmatch(stamp):
        return datetime.fromisoformat(stamp)
    return datetime.strptime(stamp, "%Y-%m-%d %H:%M:%S")


def parse_plt(stream: IO[str] | IO[bytes], user_id: str) -> tuple[list[MobilityRecord], ParseStats]:
    """Parse a Geolife PLT file.

    Layout: 6 header lines, then lines of
    ``lat,lon,0,alt_ft,days_since_1899,date,time``. Timestamps are kept
    naive, exactly as recorded. Malformed lines are skipped and counted.
    """
    text = _as_text(stream)
    stats = ParseStats()
    records: list[MobilityRecord] = []
    for lineno, line in enumerate(text.splitlines()):
        if lineno < PLT_HEADER_LINES:
            continue
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 7:
            stats.skipped += 1
            continue
        try:
            lat = float(parts[0])
            lon = float(parts[1])
            t = _plt_time(parts[5] + " " + parts[6])
        except ValueError:
            stats.skipped += 1
            continue
        rec = MobilityRecord(user_id, lat, lon, t)
        if not rec.is_valid():
            stats.skipped += 1
            continue
        records.append(rec)
        stats.parsed_ok += 1
    return records, stats


def _mapped_rows(stream: IO[str] | IO[bytes], column_map: dict, required: tuple[str, ...]) -> csv.DictReader:
    """Rows of a CSV with a header row that has the column ``column_map`` names for each required key.

    A missing mapped column raises ValueError.
    """
    reader = csv.DictReader(io.StringIO(_as_text(stream)))
    fieldnames = reader.fieldnames or []
    for key in required:
        col = column_map.get(key)
        if col is None or col not in fieldnames:
            raise ValueError(f"column for {key!r} ({col!r}) not found in header {fieldnames}")
    return reader


def parse_trajectory_csv(
    stream: IO[str] | IO[bytes], column_map: dict
) -> tuple[list[MobilityRecord], ParseStats]:
    """Parse a generic trajectory CSV with a header row.

    ``column_map`` names the ``user``, ``lat``, ``lon`` and ``t`` columns and
    carries the strptime pattern under ``t_format``. A missing mapped column
    is a hard error; bad rows are skipped and counted.
    """
    reader = _mapped_rows(stream, column_map, TRAJECTORY_COLUMNS)
    t_format = column_map.get("t_format", "%Y-%m-%d %H:%M:%S")

    stats = ParseStats()
    records: list[MobilityRecord] = []
    for row in reader:
        try:
            user = row[column_map["user"]]
            lat = float(row[column_map["lat"]])
            lon = float(row[column_map["lon"]])
            t = datetime.strptime(row[column_map["t"]], t_format)
        except (ValueError, TypeError, KeyError):
            stats.skipped += 1
            continue
        if not user:
            stats.skipped += 1
            continue
        rec = MobilityRecord(user, lat, lon, t)
        if not rec.is_valid():
            stats.skipped += 1
            continue
        records.append(rec)
        stats.parsed_ok += 1
    return records, stats


def parse_poi_file(stream: IO[str] | IO[bytes], column_map: dict) -> tuple[list[PoiRecord], ParseStats]:
    """Parse a PoI CSV. ``column_map`` names ``poi_id``, ``lat``, ``lon``, ``category``."""
    reader = _mapped_rows(stream, column_map, POI_COLUMNS)
    stats = ParseStats()
    pois: list[PoiRecord] = []
    for row in reader:
        try:
            poi_id = row[column_map["poi_id"]]
            lat = float(row[column_map["lat"]])
            lon = float(row[column_map["lon"]])
            category = row[column_map["category"]]
        except (ValueError, TypeError, KeyError):
            stats.skipped += 1
            continue
        if not poi_id or not category or not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            stats.skipped += 1
            continue
        pois.append(PoiRecord(poi_id, lat, lon, category))
        stats.parsed_ok += 1
    return pois, stats


def build_traces(records: Iterable[MobilityRecord]) -> tuple[dict[str, MobilityTrace], BuildStats]:
    """Group records per user, sort by time, collapse duplicates.

    Exact (user, t, lat, lon) duplicates are dropped. Records sharing a
    timestamp but with differing coordinates keep the first by input order;
    the losers are dropped and counted as conflicts.
    """
    stats = BuildStats()
    by_user: dict[str, list[MobilityRecord]] = {}
    for rec in records:
        by_user.setdefault(rec.user_id, []).append(rec)

    traces: dict[str, MobilityTrace] = {}
    for user in sorted(by_user):
        recs = by_user[user]
        # stable sort on t preserves input order among equal timestamps
        recs.sort(key=lambda r: r.t)
        kept: list[MobilityRecord] = []
        for rec in recs:
            # sorted, so the first fix of rec.t, if any, is the last one kept
            if not kept or kept[-1].t != rec.t:
                kept.append(rec)
                stats.kept += 1
                continue
            stats.deduped += 1
            if kept[-1].lat != rec.lat or kept[-1].lon != rec.lon:
                stats.conflicts += 1
        traces[user] = MobilityTrace(user, kept)
    return traces, stats


def trace_file(user: str) -> str:
    """Path of a user's trace under the store's directory: ``traces/<quoted user_id>.csv``.

    The user id is percent-quoted with no safe characters, so an id such as
    ``../x`` names a file inside ``traces/``.
    """
    return os.path.join("traces", quote(user, safe="") + ".csv")


def write_traces(
    traces: dict[str, MobilityTrace],
    out_dir: str,
    sources: list[str] | None = None,
    parse_errors: int = 0,
) -> dict:
    """Persist traces to ``<out_dir>/<trace_file(user)>``; return the store's manifest."""
    os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
    users = {}
    for user in sorted(traces):
        trace = traces[user]
        with open(os.path.join(out_dir, trace_file(user)), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_iso8601", "lat", "lon"])
            for rec in trace.records:
                writer.writerow(
                    [
                        rec.t.isoformat(),
                        f"{rec.lat:.{COORD_DECIMALS}f}",
                        f"{rec.lon:.{COORD_DECIMALS}f}",
                    ]
                )
        span = None
        if trace.records:
            span = [trace.records[0].t.isoformat(), trace.records[-1].t.isoformat()]
        users[user] = {"n_records": len(trace), "time_span": span}
    return {
        "sources": sorted(sources or []),
        "parse_errors": parse_errors,
        "users": users,
    }


def read_traces(out_dir: str, users: Iterable[str] | None = None) -> dict[str, MobilityTrace]:
    """Load the canonical store written by :func:`write_traces`.

    With ``users``, only those users' traces are loaded; ids not in the store
    are ignored.
    """
    traces_dir = os.path.join(out_dir, "traces")
    wanted = None if users is None else set(users)
    traces: dict[str, MobilityTrace] = {}
    for name in sorted(os.listdir(traces_dir)):
        if not name.endswith(".csv"):
            continue
        user = unquote(name[:-4])
        if wanted is not None and user not in wanted:
            continue
        with open(os.path.join(traces_dir, name), newline="") as fh:
            reader = csv.reader(fh)
            next(reader)  # header: t_iso8601, lat, lon
            records = [
                MobilityRecord(user, float(lat), float(lon), datetime.fromisoformat(t))
                for t, lat, lon in reader
            ]
        traces[user] = MobilityTrace(user, records)
    return traces


def _as_text(stream: IO[str] | IO[bytes]) -> str:
    data = stream.read()
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data
