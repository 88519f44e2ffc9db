"""The record-list ingest oracle, and raw feeds that parse_records reads through csv.

This module imports nothing but the standard library and ``mdlpatterns``, so
every supported interpreter can run it: ``edge_feed_mismatches`` is what the
interpreter gate runs on python3.10, 3.12 and 3.13.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from datetime import datetime, timedelta
from math import isfinite
from typing import IO, Any, Callable, Mapping

from mdlpatterns.ingest import (
    COLUMNS,
    DIRECTIONS,
    VEHICLE_CLASSES,
    IngestError,
    ParseResult,
    canonical,
    parse_records,
)
from mdlpatterns.synth import WaitTimeRecord


def kept_rows(result: ParseResult) -> list[tuple]:
    """Every kept row in file order: (site, direction, class, timestamp, wait)."""
    rows = sorted((line, *slice_, datetime.min + timedelta(microseconds=stamp), wait)
                  for slice_, columns in result.slices.items()
                  for stamp, wait, line in zip(*columns))
    return [row[1:] for row in rows]


@dataclass
class OracleParse:
    records: list[WaitTimeRecord]
    diagnostics: list[str]
    rejected_rows: int
    duplicate_rows: int


def parse_records_oracle(stream: IO[str], delimiter: str = ",") -> OracleParse:
    """The record-list ingest that the one-pass parse_records replaced.

    ``csv.DictReader`` gives every row a dict, every valid row becomes a
    WaitTimeRecord, and a second pass over the list, from the end, keeps the
    last row per (site, direction, vehicle_class, timestamp). Rows are named
    by their physical line.
    """
    reader = csv.DictReader(stream, delimiter=delimiter)
    if reader.fieldnames is None:
        raise IngestError("input has no header row")
    missing = [c for c in COLUMNS if c not in reader.fieldnames]
    if missing:
        raise IngestError(f"missing required column(s): {', '.join(missing)}")

    result = OracleParse(records=[], diagnostics=[], rejected_rows=0, duplicate_rows=0)
    parsed: list[WaitTimeRecord] = []
    for row in reader:
        try:
            parsed.append(_oracle_row(row))
        except ValueError as exc:
            result.diagnostics.append(f"row {reader.line_num}: {exc}")
            result.rejected_rows += 1

    seen: set[tuple] = set()
    for rec in reversed(parsed):
        key = (rec.site, rec.direction, rec.vehicle_class, rec.timestamp)
        if key in seen:
            result.diagnostics.append(
                f"duplicate observation for {rec.site}/{rec.direction}/"
                f"{rec.vehicle_class} at {rec.timestamp.isoformat()}; kept last"
            )
            result.duplicate_rows += 1
            continue
        seen.add(key)
        result.records.append(rec)
    result.records.reverse()
    return result


# The raw feed's stamp grammar, in ASCII: a date, T or a space, hours and
# minutes, optional seconds.
STAMP = re.compile(r"\d{4}-\d\d-\d\d[T ]\d\d:\d\d(:\d\d)?", re.ASCII)


def oracle_stamp(text: str) -> datetime | None:
    """The instant a stripped stamp text names under STAMP, or None when the
    text is not in that grammar or names no date and time."""
    if not STAMP.fullmatch(text):
        return None
    fields = text[:4], text[5:7], text[8:10], text[11:13], text[14:16], text[17:] or "0"
    try:
        return datetime(*map(int, fields))
    except ValueError:  # a field out of its range
        return None


def _oracle_row(row: Mapping[str, str]) -> WaitTimeRecord:
    raw_ts = (row.get("timestamp") or "").strip()
    timestamp = oracle_stamp(raw_ts)
    if timestamp is None:
        raise ValueError(f"bad timestamp {raw_ts!r}")
    site = (row.get("site") or "").strip()
    if not site:
        raise ValueError("empty site")
    direction = canonical(row.get("direction") or "", DIRECTIONS, "direction")
    vehicle_class = canonical(row.get("vehicle_class") or "", VEHICLE_CLASSES, "vehicle class")
    raw_wait = (row.get("wait_minutes") or "").strip()
    try:
        wait = float(raw_wait)
    except ValueError:
        raise ValueError(f"bad wait minutes {raw_wait!r}")
    # float() also reads digit groups ("1_5") and other scripts' digits; a
    # wait is written with the characters of an ASCII number, inf or nan only
    if not all(char in "0123456789+-.eEinfatyINFATY" for char in raw_wait):
        raise ValueError(f"bad wait minutes {raw_wait!r}")
    if not isfinite(wait):
        raise ValueError(f"non-finite wait ({raw_wait})")
    if wait < 0:
        raise ValueError(f"negative wait ({raw_wait})")
    return WaitTimeRecord(timestamp, site, direction, vehicle_class, wait)


# --- feeds a plain split would read otherwise than csv does --------------------

HEADER = ",".join(COLUMNS)
ROWS = [
    "2016-08-22T10:00,PB,ToCanada,Car,5",
    "2016-08-22T10:05,PB,ToCanada,Car,7.5",
    "2016-08-22T10:00,LQ,tous,truck,0",
    "2016-08-22T10:00,PB,ToCanada,Car,6",
    "2016-08-22T11:00,RB,ToCanada,Car,soon",
    "not-a-date,PB,ToCanada,Car,1",
    "2016-08-22T10:00,PB,Sideways,Car,1",
]


def _feed(*rows: str, header: str = HEADER, end: str = "\n") -> str:
    return "".join(line + end for line in (header, *rows))


def _layout(order: list[int], *rows: str) -> str:
    """``rows`` (each a prefix of COLUMNS' fields, or longer) with the columns in ``order``."""
    lines = [[COLUMNS[i] for i in order]]
    for row in rows:
        fields = row.split(",")
        lines.append([fields[i] for i in order if i < len(fields)] + fields[len(COLUMNS):])
    return "".join(",".join(line) + "\n" for line in lines)


# Stamps that fromisoformat reads on some supported interpreters only, or
# reads where STAMP does not: another separator, the basic and week forms, an
# hour alone, a fraction of a second, a UTC offset, a date alone, a non-ASCII
# digit; and the space and the seconds, which STAMP takes. A NUL for the T is
# in the NUL feed: csv reads NUL only from 3.11.
EDGE_STAMPS = [
    "2016-08-22X11:00", "20160822T1200", "2016-W34-1T13:00", "2016-08-22T14",
    "2016-08-22T15:00:00.5", "2016-08-22 16:00", "2016-08-22T17:00:00.500",
    "2016-08-22T18:00Z", "2016-08-22T19:00+00:00", "2016-08-22", "2016-08-22T20:00:00",
    "2016-08-22 21:00:00", "2016-08-22T22:00:00.000000", "2016-08-22T23:00:00+01:00",
    "2016-08-23T00:0\u0661", "2016-02-30T10:00", "2016-08-23T01:00:60",
]
# Stamps in hours seen above, so their hour text is cached and their minute
# text may be: seconds, the space form, padding, and bad minutes after a good hour.
REPEATED_HOURS = [
    "2016-08-22T16:05", "2016-08-22 16:10:30", " 2016-08-22T16:15 ", "\t2016-08-22 21:20",
    "2016-08-22T20:25:00", "2016-08-22T16:6x", "2016-08-22T16:60", "2016-08-22T16:0\u0661",
    "2016-08-22T16: 5", "2016-08-22T16:05:0", "2016-08-22T20:00",
]
EDGE_STAMP_FEED = _feed(*(f"{stamp},PB,ToCanada,Car,{wait}"
                          for wait, stamp in enumerate(EDGE_STAMPS + REPEATED_HOURS)))

LONG = csv.field_size_limit() + 1
EDGE_FEEDS: dict[str, tuple[str, str]] = {  # name -> (feed text, delimiter)
    **{name: (_feed(*ROWS).replace(",", sep), sep)
       for name, sep in [("tab", "\t"), ("semicolon", ";"), ("space", " "), ("quote", '"')]},
    "stamp last": (_layout([1, 2, 3, 4, 0], *ROWS, "2016-08-22T12:00,PB,ToCanada",
                           "2016-08-22T12:00,PB,ToCanada,Car,5,extra", "2016-08-22T12:00"), ","),
    "stamp in the middle": (_layout([1, 2, 0, 3, 4], *ROWS, "2016-08-22T12:00,PB,ToCanada",
                                    "2016-08-22T12:00,PB", "2016-08-22T12:00,PB,ToCanada,Car"),
                            ","),
    "crlf": (_feed(*ROWS[:3], "", *ROWS[3:], "", end="\r\n"), ","),
    "whitespace lines": (_feed(ROWS[0], "   ", ROWS[1], "\t", " , ", ROWS[2], " "), ","),
    "carriage return mid-line": (_feed(ROWS[0], "2016-08-22T10:05,PB\r,ToCanada,Car,5"), ","),
    "carriage return in the last line": (_feed(ROWS[0], "2016-08-22T10:05,PB,ToCanada,Car,5\r6")
                                         .removesuffix("\n"), ","),
    "carriage returns ending lines": (_feed(ROWS[0], ROWS[1] + "\r\r", "2016-08-22T10:10,PB,",
                                            ROWS[2] + "\r", end="\r\n").removesuffix("\n"), ","),
    "NUL": (_feed(ROWS[0], "2016-08-22T10:05,P\0B,ToCanada,Car,5",
                  "2016-08-22\x0010:10,PB,ToCanada,Car,5", ROWS[1]), ","),
    "quoted delimiter": (_feed(ROWS[0], '2016-08-22T10:05,"P,B",ToCanada,Car,5', ROWS[1]), ","),
    "multi-line quoted field": (_feed(ROWS[0], '2016-08-22T10:05,"P\nB",ToCanada,Car,5',
                                      '2016-08-22T10:10,PB,"To\n\nCanada",Car,5', *ROWS[1:]), ","),
    "quoted stamp": (_feed('"2016-08-22T10:05",PB,ToCanada,Car,5',
                           '"not, a date",PB,ToCanada,Car,5',
                           '"2016-08-22T10:05\r",PB,ToCanada,Car,6', *ROWS), ","),
    "carriage return after a quoted stamp": (_feed(ROWS[0], '"2016-08-22T10:05\r",PB,ToUS,Car,5',
                                                   "2016-08-22T10:05\r,PB,ToCanada,Car,5"), ","),
    "quote inside a field": (_feed(ROWS[0], '2016-08-22T10:05,P"B,ToCanada,Car,5',
                                   '2016-08-22T10:10,PB,ToCanada,Car,5"', ROWS[1]), ","),
    "quote left open": (_feed(ROWS[0], '2016-08-22T10:05,"PB,ToCanada,Car,5', ROWS[1]), ","),
    "no final newline": (_feed(*ROWS).removesuffix("\n"), ","),
    "field over the size limit": (_feed(ROWS[0], f"2016-08-22T10:05,{'P' * LONG},ToCanada,Car,5"),
                                  ","),
    "line over the size limit": (_feed(ROWS[0], ROWS[1] + ",x" * (LONG // 2), ROWS[2]), ","),
    "edge stamps": (EDGE_STAMP_FEED, ","),
}


def parse_outcome(parse: Callable[..., Any], text: str, delimiter: str) -> tuple:
    """What ``parse`` makes of ``text``: the kept rows, diagnostics and counts,
    or the type and text of what it raises."""
    try:
        result = parse(io.StringIO(text), delimiter)
    except Exception as exc:  # csv's own errors too: the parses must raise alike
        return type(exc), str(exc)
    if isinstance(result, ParseResult):
        rows = kept_rows(result)
    else:
        rows = [(r.site, r.direction, r.vehicle_class, r.timestamp, r.wait_minutes)
                for r in result.records]
    return rows, result.diagnostics, result.rejected_rows, result.duplicate_rows


def expected_outcome(text: str, delimiter: str) -> tuple:
    """What ``csv.reader`` raises on ``text`` on the running interpreter, as
    parse_outcome gives it, or else the oracle's outcome."""
    try:
        list(csv.reader(io.StringIO(text), delimiter=delimiter))
    except (csv.Error, ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return parse_outcome(parse_records_oracle, text, delimiter)


def edge_feed_mismatches() -> list[str]:
    """The EDGE_FEEDS on which parse_records gives other than expected_outcome."""
    return [name for name, (text, delimiter) in EDGE_FEEDS.items()
            if parse_outcome(parse_records, text, delimiter) != expected_outcome(text, delimiter)]
