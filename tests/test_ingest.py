"""Ingestion: parsing, deduplication, hourly means, categorization, assembly."""

import csv
import gc
import io
import re
import sys
import tracemalloc
from array import array
from datetime import datetime, timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feed_oracle import (
    EDGE_FEEDS,
    EDGE_STAMPS,
    expected_outcome,
    kept_rows,
    oracle_stamp,
    parse_outcome,
    parse_records_oracle,
)
from helpers import (
    LATE_CHANGES,
    LONG_ROWS,
    SITE_NAMES,
    Hour,
    aggregate_hourly_oracle,
    artifact_rows,
    category_fields,
    change_late_row,
    collapse,
    hours_of,
    outcome,
    read_transactions_oracle,
    site_fault_oracle,
)
from mdlpatterns import ingest, read_transactions
from mdlpatterns.ingest import (
    COLUMNS,
    DIRECTIONS,
    VEHICLE_CLASSES,
    IngestError,
    _stamp,
    aggregate_hourly,
    build_transactions,
    canonical,
    discretize,
    hour_text,
    parse_hours,
    parse_records,
    site_fault,
    write_transactions,
)
from mdlpatterns.synth import generate_synthetic, write_records_csv

HEADER = "timestamp,site,direction,vehicle_class,wait_minutes"


def parse(text: str):
    return parse_records(io.StringIO(text))


def feed(*rows: str) -> str:
    return HEADER + "\n" + "".join(row + "\n" for row in rows)


def means_of(result) -> dict:
    """aggregate_hourly of each parsed slice's columns, by slice."""
    return {slice_: aggregate_hourly(stamps, waits)
            for slice_, (stamps, waits, _) in result.slices.items()}


def hourly_of(*rows: str) -> dict:
    return means_of(parse(feed(*rows)))


def micros(stamp: datetime) -> int:
    """A stamp as the columns hold it: microseconds since datetime.min."""
    return (stamp - datetime.min) // timedelta(microseconds=1)


def hour_number(stamp: datetime) -> int:
    """A clock hour as aggregate_hourly keys it: hours since datetime.min."""
    return (stamp - datetime.min) // timedelta(hours=1)


PB_CAR = ("PB", "ToCanada", "Car")


def matches_the_oracles(text: str):
    """parse_records and aggregate_hourly on ``text``, checked against the
    record-list oracles: kept rows, diagnostics, counts, and per slice the
    hourly key order and the exact bits of every mean."""
    result = parse(text)
    oracle = parse_records_oracle(io.StringIO(text))
    assert kept_rows(result) == [
        (r.site, r.direction, r.vehicle_class, r.timestamp, r.wait_minutes)
        for r in oracle.records
    ]
    assert result.diagnostics == oracle.diagnostics
    assert result.rejected_rows == oracle.rejected_rows
    assert result.duplicate_rows == oracle.duplicate_rows
    expected = aggregate_hourly_oracle(oracle.records)
    assert {key[:3] for key in expected} <= result.slices.keys()
    for slice_, hourly in means_of(result).items():
        # the oracle's means of this slice alone, in its key order
        means = [(hour_number(key[3]), mean) for key, mean in expected.items() if key[:3] == slice_]
        assert list(hourly) == [hour for hour, _ in means], slice_
        assert [mean.hex() for mean in hourly.values()] == [mean.hex() for _, mean in means]
    return result


# --- parsing -----------------------------------------------------------------


def test_parse_happy_path():
    result = parse(
        HEADER + "\n"
        "2016-08-22T10:00,PB,ToCanada,Car,12.5\n"
        "2016-08-22T10:05,LQ,ToUS,Truck,0\n"
    )
    assert result.rejected_rows == 0
    assert result.diagnostics == []
    first, second = kept_rows(result)
    assert first == ("PB", "ToCanada", "Car", datetime(2016, 8, 22, 10, 0), 12.5)
    assert second == ("LQ", "ToUS", "Truck", datetime(2016, 8, 22, 10, 5), 0.0)
    # each slice keeps three columns: stamps in microseconds, waits, and lines;
    # both stamps fall in hour 10
    first_stamp, second_stamp = (micros(datetime(2016, 8, 22, 10, minute)) for minute in (0, 5))
    assert result.slices == {
        ("PB", "ToCanada", "Car"): (array("q", [first_stamp]), array("d", [12.5]), array("q", [2])),
        ("LQ", "ToUS", "Truck"): (array("q", [second_stamp]), array("d", [0.0]), array("q", [3])),
    }
    assert [list(hourly) for hourly in means_of(result).values()] == [
        [hour_number(datetime(2016, 8, 22, 10))]] * 2


def test_parse_empty_input_raises():
    with pytest.raises(IngestError, match="no header"):
        parse("")


def test_parse_reads_a_blank_first_line_as_an_empty_header():
    # csv.reader reads it as a row with no fields, so every column is missing
    with pytest.raises(IngestError, match="missing required column.*timestamp"):
        parse("\n" + feed("2016-08-22T10:00,PB,ToCanada,Car,5"))


def test_parse_missing_column_raises():
    with pytest.raises(IngestError, match="wait_minutes"):
        parse("timestamp,site,direction,vehicle_class\na,b,c,d\n")


def test_parse_bad_rows_skipped_with_diagnostics():
    result = parse(
        HEADER + "\n"
        "not-a-date,PB,ToCanada,Car,5\n"
        "2016-08-22T10:00,,ToCanada,Car,5\n"
        "2016-08-22T10:00,PB,Sideways,Car,5\n"
        "2016-08-22T10:00,PB,ToCanada,Car,soon\n"
        "2016-08-22T10:00,PB,ToCanada,Car,5\n"
    )
    assert result.rejected_rows == 4
    assert len(result.records) == 1
    assert [d.split(":")[0] for d in result.diagnostics] == [
        "row 2",
        "row 3",
        "row 4",
        "row 5",
    ]


def test_parse_names_the_physical_line_after_a_blank_line():
    # blank lines are skipped, but they still count as lines of the file
    result = parse(feed("2016-08-22T10:00,PB,ToCanada,Car,5", "", "not-a-date,PB,ToCanada,Car,5"))
    assert result.diagnostics == ["row 4: bad timestamp 'not-a-date'"]
    assert len(result.records) == 1


def test_parse_rejects_negative_wait():
    result = parse(HEADER + "\n2016-08-22T10:00,PB,ToCanada,Car,-3\n")
    assert result.rejected_rows == 1
    assert "negative wait" in result.diagnostics[0]


@pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_parse_rejects_non_finite_wait(raw):
    # float() accepts these, and a NaN or infinite mean would otherwise
    # discretize to a false heavy-delay hour
    result = parse(HEADER + f"\n2016-08-22T10:00,PB,ToCanada,Car,{raw}\n")
    assert result.rejected_rows == 1
    assert kept_rows(result) == []
    assert result.diagnostics == [f"row 2: non-finite wait ({raw})"]


# waits float() reads (as 15, 12 and 15) that the parser must reject
FLOAT_ONLY_WAITS = ["1_5", "\u0661\u0662", "\uff11\uff15"]


@pytest.mark.parametrize("raw", ["1_000.5", *FLOAT_ONLY_WAITS])
def test_parse_rejects_a_wait_float_reads_from_digit_groups_or_other_scripts(raw):
    # float() reads these as 1000.5, 15, 12 and 15, but no feed writes a wait so
    result = parse(HEADER + f"\n2016-08-22T10:00,PB,ToCanada,Car,{raw}\n")
    assert result.rejected_rows == 1
    assert kept_rows(result) == []
    assert result.diagnostics == [f"row 2: bad wait minutes {raw!r}"]


@pytest.mark.parametrize("stamp", ["2017-01-01T01:00+00:00", "2017-01-01T01:00-05:00"])
def test_parse_rejects_timestamp_with_utc_offset(stamp):
    result = parse(
        HEADER + "\n"
        "2017-01-01T00:00,PB,ToCanada,Car,5\n"
        f"{stamp},PB,ToCanada,Car,5\n"
    )
    assert result.rejected_rows == 1
    assert result.diagnostics == [f"row 3: bad timestamp {stamp!r}"]
    # the naive row alone still builds; mixed with an aware one it could not be sorted
    build = build_transactions(result, ["PB"], "ToCanada", "Car")
    assert build.transactions.hours == ["2017-01-01T00:00"]


@pytest.mark.parametrize("stamp", ["2016-08-22", " 2016-08-22 ", "20160822", "2016-W34-1"])
def test_parse_rejects_a_stamp_with_no_time_of_day(stamp):
    # fromisoformat reads a date alone as midnight, so the row would land in hour 0
    result = parse(feed("2016-08-22T00:05,PB,ToCanada,Car,5", f"{stamp},PB,ToCanada,Car,40"))
    assert result.diagnostics == [f"row 3: bad timestamp {stamp.strip()!r}"]
    assert means_of(result) == {PB_CAR: {hour_number(datetime(2016, 8, 22, 0)): 5.0}}


def expected_stamp(raw: str) -> int | str:
    """_stamp by the grammar's regex and the datetime constructor (oracle_stamp)."""
    stamp = oracle_stamp(raw.strip())
    return f"bad timestamp {raw.strip()!r}" if stamp is None else micros(stamp)


# a character that may stand in a stamp, or near one
STAMP_CHARS = "0123456789-T :.,+Z W_x\0\t\u0661\uff10"


@st.composite
def stamp_texts(draw):
    """A stamp as the grammar writes one, from any second of years 1 to 9999,
    with T or a space and with or without seconds, or an edge stamp; then up
    to three characters replaced, deleted or inserted, and maybe spaces around."""
    stamp = draw(st.datetimes()).isoformat(sep=draw(st.sampled_from("T ")),
                                            timespec=draw(st.sampled_from(["minutes", "seconds"])))
    text = list(draw(st.sampled_from([stamp] * 3 + EDGE_STAMPS)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        change = draw(st.sampled_from(["replace", "delete", "insert"]))
        if change != "insert" and at < len(text):
            del text[at]
        if change != "delete":
            text.insert(at, draw(st.sampled_from(STAMP_CHARS)))
    return draw(st.sampled_from(["", " "])) + "".join(text) + draw(st.sampled_from(["", " "]))


@given(raw=stamp_texts())
@settings(max_examples=1000)
def test_stamp_reads_exactly_the_grammar(raw):
    assert _stamp(raw) == expected_stamp(raw)


@pytest.mark.parametrize("raw", [*EDGE_STAMPS, "2016-08-22\x0010:10", "0001-01-01T00:00"])
def test_stamp_reads_each_edge_stamp_as_the_grammar_does(raw):
    # fromisoformat reads most of these on 3.11 and later, fewer on 3.10;
    # the grammar takes the space and the seconds on every interpreter
    assert _stamp(raw) == expected_stamp(raw)
    assert isinstance(_stamp(raw), int) is (raw in {"2016-08-22 16:00", "2016-08-22T20:00:00",
                                                    "2016-08-22 21:00:00", "0001-01-01T00:00"})


def test_parse_duplicate_keeps_last():
    result = parse(
        HEADER + "\n"
        "2016-08-22T10:00,PB,ToCanada,Car,5\n"
        "2016-08-22T10:00,LQ,ToCanada,Car,7\n"
        "2016-08-22T10:00,PB,ToCanada,Car,9\n"
    )
    assert result.duplicate_rows == 1
    assert len(result.records) == 2
    waits = {site: wait for site, _, _, _, wait in kept_rows(result)}
    assert waits == {"PB": 9.0, "LQ": 7.0}
    assert any("kept last" in d for d in result.diagnostics)


def test_duplicate_diagnostics_name_the_latest_replaced_row_first():
    # A on data rows 1 and 3, B on rows 2 and 4: A is replaced first, but
    # B's replaced row (2) comes after A's (1) in the file, so B is named first
    result = parse(feed(
        "2016-08-22T10:00,PB,ToCanada,Car,1",
        "2016-08-22T10:05,PB,ToCanada,Car,2",
        "2016-08-22T10:00,PB,ToCanada,Car,3",
        "2016-08-22T10:05,PB,ToCanada,Car,4",
    ))
    assert result.diagnostics == [
        "duplicate observation for PB/ToCanada/Car at 2016-08-22T10:05:00; kept last",
        "duplicate observation for PB/ToCanada/Car at 2016-08-22T10:00:00; kept last",
    ]
    assert [(stamp.minute, wait) for *_, stamp, wait in kept_rows(result)] == [(0, 3.0), (5, 4.0)]


def test_direction_and_class_parse_case_insensitive():
    assert canonical("tocanada", DIRECTIONS, "direction") == "ToCanada"
    assert canonical(" ToUS ", DIRECTIONS, "direction") == "ToUS"
    assert canonical("TRUCK", VEHICLE_CLASSES, "vehicle class") == "Truck"
    with pytest.raises(ValueError) as direction:
        canonical("north", DIRECTIONS, "direction")
    assert str(direction.value) == "unknown direction 'north' (expected ToUS or ToCanada)"
    with pytest.raises(ValueError) as vehicle_class:
        canonical("bike", VEHICLE_CLASSES, "vehicle class")
    assert str(vehicle_class.value) == "unknown vehicle class 'bike' (expected Car or Truck)"


def test_slice_columns_hold_no_object_per_row_for_the_cyclic_collector():
    # a slice's columns are arrays of machine values, so a collection visits
    # each array once and no object per row, however many rows it keeps
    result = parse(feed("2016-08-22T10:00,PB,ToCanada,Car,5", "2016-08-22T10:05,LQ,tous,truck,7",
                        "2016-08-22T10:00,PB,ToCanada,Car,6"))
    assert list(result.slices) == [("PB", "ToCanada", "Car"), ("LQ", "ToUS", "Truck")]
    columns = [column for table in result.slices.values() for column in table]
    assert [column.typecode for column in columns] == ["q", "d", "q"] * 2
    assert [gc.get_referents(column) for column in columns] == [[array]] * 6


def test_parse_and_aggregate_peak_under_96_bytes_per_kept_row(tmp_path):
    # the kept rows live in arrays and every parse cache is bounded, so the
    # peak grows by a few dozen bytes per row (a dict entry per row is more)
    path = tmp_path / "raw.csv"
    write_records_csv(str(path), generate_synthetic(seed=7, days=30).records)
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8") as fh:
            result = parse_records(fh)
        hourly = means_of(result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(result.records), sum(map(len, hourly.values()))) == (18_000, 2_160)
    assert peak <= 96 * len(result.records)


def test_parse_and_aggregate_peak_under_96_bytes_per_kept_row_when_no_tail_repeats(tmp_path):
    # every row's wait is its own, so no text after a stamp repeats: the tail
    # and wait caches fill to their bounds, and the peak stays within the same budget
    path = tmp_path / "raw.csv"
    records = generate_synthetic(seed=7, days=30).records
    write_records_csv(str(path), [r._replace(wait_minutes=i / 1000) for i, r in enumerate(records)])
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8") as fh:
            result = parse_records(fh)
        hourly = means_of(result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(result.records), sum(map(len, hourly.values()))) == (18_000, 2_160)
    assert peak <= 96 * len(result.records)


# --- hourly aggregation ------------------------------------------------------


def test_aggregate_hourly_means_five_minute_feed():
    hourly = hourly_of(
        *(f"2016-08-22T10:{5 * i:02d},PB,ToCanada,Car,{float(i)}" for i in range(12))
    )
    assert hourly == {PB_CAR: {hour_number(datetime(2016, 8, 22, 10)): 5.5}}


def test_aggregate_hourly_single_value_is_its_own_mean():
    hourly = hourly_of("2016-08-22T10:00,RB,ToCanada,Car,22.0")
    assert hourly[("RB", "ToCanada", "Car")][hour_number(datetime(2016, 8, 22, 10))] == 22.0


def test_aggregate_hourly_separates_hours_and_sites():
    hourly = hourly_of(
        "2016-08-22T10:59,PB,ToCanada,Car,10.0",
        "2016-08-22T11:00,PB,ToCanada,Car,20.0",
        "2016-08-22T10:00,LQ,ToCanada,Car,30.0",
    )
    assert sum(map(len, hourly.values())) == 3


@given(
    waits=st.lists(
        st.floats(min_value=0, max_value=500, allow_nan=False), min_size=1, max_size=24
    )
)
@settings(max_examples=100)
def test_aggregate_mean_bounded_by_extremes(waits):
    (means,) = hourly_of(
        *(f"2016-08-22T10:{i % 60:02d},PB,ToCanada,Car,{w!r}" for i, w in enumerate(waits))
    ).values()
    (mean,) = means.values()
    assert min(waits) - 1e-9 <= mean <= max(waits) + 1e-9


# --- the one pass against the record-list oracle -------------------------------

FIVE_MINUTE_STAMPS = [f"2016-08-22T{h}:{m:02d}" for h in (10, 11) for m in range(0, 60, 5)]
# other spellings of instants above: each is a duplicate key of its twin
FIVE_MINUTE_STAMPS += ["2016-08-22 10:00", "2016-08-22T10:05:00", " 2016-08-22T11:55 "]
HOURLY_STAMPS = ["2016-08-22T10:00", "2016-08-22T11:00"]
# waits whose hour means sit on or next to the 15 and 30 bounds, where the
# order of the additions can move a mean by one bit across a bound
WAITS = [
    "0", "-0", "0.1", "0.2", "0.3", "0.7", "14.9", "15", "15.1",
    "14.999999999999998", "15.000000000000002", "29.7", "29.9", "30", "30.1", "44.35",
]
DIRECTION_SPELLINGS = ["ToCanada", "ToCanada", "ToCanada", "tous", "ToUS"]
CLASS_SPELLINGS = ["Car", "Car", "Car", "TRUCK"]
# per column of COLUMNS: field values the parser must reject
BAD_FIELDS = (
    ["", "not-a-date", "2016-02-30T10:00", "2016-08-22T10:00+00:00", "2016-08-22"],
    ["", "  "],
    ["Sideways", ""],
    ["Bike", ""],
    ["", "soon", "-3", "nan", "-inf", "1e400"],
)


def _rows(stamps, sites):
    return st.tuples(
        st.sampled_from(stamps), st.sampled_from(sites), st.sampled_from(DIRECTION_SPELLINGS),
        st.sampled_from(CLASS_SPELLINGS), st.sampled_from(WAITS),
    ).map(list)


five_minute_rows = _rows(FIVE_MINUTE_STAMPS, ["PB", "LQ", " PB "])
hourly_rows = _rows(HOURLY_STAMPS, ["RB"])


@st.composite
def malformed_rows(draw):
    fields = draw(five_minute_rows)
    kind = draw(st.sampled_from(["field", "float-only wait", "short", "long", "blank"]))
    if kind == "field":
        column = draw(st.integers(0, len(COLUMNS) - 1))
        fields[column] = draw(st.sampled_from(BAD_FIELDS[column]))
    elif kind == "float-only wait":
        fields[-1] = draw(st.sampled_from(FLOAT_ONLY_WAITS))
    elif kind == "short":  # missing fields read as empty
        fields = fields[: draw(st.integers(1, len(COLUMNS) - 1))]
    elif kind == "long":  # extra fields are ignored
        fields.append("extra")
    else:
        fields = []
    return fields


@st.composite
def five_minute_runs(draw):
    """Consecutive five-minute readings of one site, direction and class in one hour."""
    hour = draw(st.sampled_from(["10", "11"]))
    site, direction, vehicle_class = draw(five_minute_rows)[1:4]
    first = draw(st.integers(0, 11))
    return [
        [f"2016-08-22T{hour}:{5 * slot:02d}", site, direction, vehicle_class,
         draw(st.sampled_from(WAITS))]
        for slot in range(first, draw(st.integers(first + 1, 12)))
    ]


@st.composite
def csv_spelling(draw, field: str) -> str:
    """``field`` as only csv reads it: quoted, or a field of its own that is
    quoted and holds the delimiter or a newline, or that holds a quote inside."""
    kind = draw(st.sampled_from(["quoted", "delimiter", "newline", "inner quote"]))
    if kind == "inner quote":
        return field[:1] + '"' + field[1:] if field else 'x"'
    inner = {"quoted": field, "delimiter": field + ",", "newline": field[:1] + "\n" + field[1:]}
    return '"' + inner[kind] + '"'


@st.composite
def feeds(draw):
    """Raw feed text: columns in any order, maybe a repeated column that an
    earlier decoy shadows, and rows of every kind. Some rows are re-sent
    later with a new wait, and the rows may be shuffled. A few fields, the
    stamp among them, are spelled as only csv reads them, and the last line
    may lack its newline."""
    order = draw(st.permutations(range(len(COLUMNS))))
    header = [COLUMNS[i] for i in order]
    decoy = draw(st.sampled_from([None, *COLUMNS]))
    single = st.one_of(five_minute_rows, hourly_rows, malformed_rows()).map(lambda row: [row])
    blocks = draw(st.lists(st.one_of(single, five_minute_runs()), max_size=12))
    rows = [row for block in blocks for row in block]
    for origin, offset, wait in draw(st.lists(
        st.tuples(st.integers(0, 99), st.integers(1, 99), st.sampled_from(WAITS)), max_size=6
    )):
        if rows:
            origin %= len(rows)
            rows.insert(origin + 1 + offset % (len(rows) - origin), rows[origin][:4] + [wait])
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    lines = [([decoy] if decoy else []) + header]
    for fields in rows:
        by_column = [fields[i] for i in order if i < len(fields)] + fields[len(COLUMNS):]
        lines.append(["decoy"] + by_column if decoy and fields else by_column)
    for at, column in draw(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 9)), max_size=3)):
        line = lines[1 + at % len(lines[1:])] if lines[1:] else []
        if line:
            line[column % len(line)] = draw(csv_spelling(line[column % len(line)]))
    text = "".join(",".join(line) + "\n" for line in lines)
    return text.removesuffix("\n") if draw(st.booleans()) else text


@given(text=feeds())
@settings(max_examples=300, deadline=None)
def test_one_pass_matches_the_record_list_oracle(text):
    matches_the_oracles(text)


@pytest.mark.parametrize("name", EDGE_FEEDS)
def test_parse_matches_the_oracle_or_csv_error_on_edge_feeds(name):
    # other delimiters, other stamp columns with short rows, CRLF, whitespace
    # lines and the lines only csv splits as csv does: each as the oracle reads
    # it, or csv's own error where csv.reader raises
    text, delimiter = EDGE_FEEDS[name]
    assert parse_outcome(parse_records, text, delimiter) == expected_outcome(text, delimiter)


def test_edge_feeds_reach_csv_errors_as_the_interpreter_has_them():
    # a carriage return inside a line is csv's error everywhere, NUL only before 3.11
    assert expected_outcome(*EDGE_FEEDS["carriage return mid-line"])[0] is csv.Error
    nul = expected_outcome(*EDGE_FEEDS["NUL"])
    assert (nul[0] is csv.Error) == (sys.version_info < (3, 11))
    assert expected_outcome(*EDGE_FEEDS["field over the size limit"])[0] is csv.Error


def test_a_stream_that_yields_empty_lines_parses_as_the_oracle_reads_it():
    # csv reads "" as a line holding no row; after one, the next line that
    # only csv splits is read in its own turn, and every line keeps its number
    lines = [HEADER + "\n", "", '"2016-08-22T10:05",PB,ToCanada,Car,5\n', "",
             '2016-08-22T10:10,"P\n', 'B",ToCanada,Car,5\n', "",
             "2016-08-22T10:15,PB,ToCanada,Car,x\n", "2016-08-22T10:20,PB,ToCanada,Car,6\n"]
    result, oracle = parse_records(iter(lines)), parse_records_oracle(iter(lines))
    assert kept_rows(result) == [(r.site, r.direction, r.vehicle_class, r.timestamp,
                                  r.wait_minutes) for r in oracle.records]
    assert [site for site, *_ in kept_rows(result)] == ["PB", "P\nB", "PB"]
    assert result.diagnostics == oracle.diagnostics == ["row 8: bad wait minutes 'x'"]


def test_a_quoted_feed_parses_each_hour_and_minute_text_once(monkeypatch):
    # csv reads every quoted line, and its stamp goes through the hour and
    # minute caches as a split line's does: the text before the first colon is
    # read as that hour at :00, the rest as that minute of hour 0 of year 1,
    # each once; hour 0 of year 1 is cached too. A rejected stamp is read whole
    # for its reason, once per row.
    calls = []
    monkeypatch.setattr(ingest, "_stamp", lambda raw: calls.append(raw) or _stamp(raw))
    rows = [f'"{stamp}","{site}","ToCanada","Car","5"'
            for stamp in ["0001-01-01T00:00", "2016-08-22T10:00", "bad"] for site in "ABC"]
    result = parse(feed(*rows))
    assert calls == ["0001-01-01T00:00", "0001-01-01T00:00", "2016-08-22T10:00",
                     "bad:00", "bad", "bad", "bad"]
    assert result.rejected_rows == 3 and len(result.records) == 6


@st.composite
def crossed_stamps(draw):
    """Up to three stamp_texts, and each one's text before its first colon joined
    to each other's text after it."""
    parts = [raw.partition(":") for raw in draw(st.lists(stamp_texts(), min_size=1, max_size=3))]
    return [head + colon + rest for head, colon, _ in parts for _, _, rest in parts]


@given(stamps=crossed_stamps(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_each_stamp_is_its_hour_plus_its_minute_as_the_grammar_reads_the_whole(stamps, data):
    # each stamp twice, split and quoted, in any order: later rows find their
    # hour and minute texts cached, and split rows their tail too
    lines = data.draw(st.permutations([(raw, quoted) for raw in stamps for quoted in (0, 1)]))
    text = "".join(f'"{raw}";PB;ToUS;Car;5\n' if quoted else f"{raw};PB;ToCanada;Car;5\n"
                   for raw, quoted in lines)
    result = parse_records(io.StringIO(HEADER.replace(",", ";") + "\n" + text), ";")
    kept, reasons = [], []
    for row, (raw, quoted) in enumerate(lines, start=2):
        stamp = _stamp(raw)
        if isinstance(stamp, str):
            reasons.append(f"row {row}: {stamp}")
        else:  # keep-last: a later row with the same stamp replaces this one
            kept = [k for k in kept if k != (DIRECTIONS[1 - quoted], stamp)]
            kept.append((DIRECTIONS[1 - quoted], stamp))
    assert [(direction, micros(at)) for _, direction, _, at, _ in kept_rows(result)] == kept
    assert result.diagnostics[:result.rejected_rows] == reasons
    assert all(reason.split(": ", 1)[1].startswith("bad timestamp '") for reason in reasons)


def synth_feed(tmp_path) -> list[str]:
    """The lines of ``synth --seed 7 --days 30``: 720 hours, header first."""
    write_records_csv(str(tmp_path / "raw.csv"), generate_synthetic(seed=7, days=30).records)
    return (tmp_path / "raw.csv").read_text().splitlines(keepends=True)


def stamp_calls(monkeypatch, text: str, delimiter: str = ",") -> int:
    calls = []
    monkeypatch.setattr(ingest, "_stamp", lambda raw: calls.append(raw) or _stamp(raw))
    parse_records(io.StringIO(text), delimiter)
    return len(calls)


def test_a_feed_parses_each_clock_hour_once(tmp_path, monkeypatch):
    # one _stamp call per hour and per minute text, not per stamp text (8,672 here),
    # whether the feed is written hour by hour or site by site
    header, *body = synth_feed(tmp_path)
    minutes = {line.partition(",")[0].partition(":")[2] for line in body}
    assert stamp_calls(monkeypatch, header + "".join(body)) <= 720 + len(minutes)
    by_site = sorted(body, key=lambda line: line.split(",")[1])
    assert stamp_calls(monkeypatch, header + "".join(by_site)) <= 3 * 720 + 12


def test_padded_stamps_stay_cached(tmp_path, monkeypatch):
    # a stamp column written with spaces around it, the site first: each padded
    # hour and minute text is cached as it is written
    header, *body = synth_feed(tmp_path)
    padded = ["site,timestamp,direction,vehicle_class,wait_minutes\n"]
    for line in body:
        stamp, site, rest = line.split(",", 2)
        padded.append(f"{site}, {stamp} ,{rest}")
    assert stamp_calls(monkeypatch, "".join(padded)) <= 720 + 12
    assert kept_rows(parse("".join(padded))) == kept_rows(parse(header + "".join(body)))


# --- keep-last: settled after the pass, from the late rows only ----------------


def test_keep_last_a_row_resent_twice():
    # the first re-send's twin ascends with the rows before it; the second's
    # twin is the first re-send, itself a late row
    result = matches_the_oracles(feed(
        "2016-08-22T10:00,PB,ToCanada,Car,14.9", "2016-08-22T10:05,PB,ToCanada,Car,15.1",
        "2016-08-22T10:00,PB,ToCanada,Car,0.1", "2016-08-22T10:00,PB,ToCanada,Car,0.2",
    ))
    assert result.duplicate_rows == 2
    assert [wait for *_, wait in kept_rows(result)] == [15.1, 0.2]


def test_keep_last_re_sends_whose_twins_come_in_reverse_order():
    # the second re-send replaces a row above the first's twin; diagnostics
    # still name the latest replaced row first
    result = matches_the_oracles(feed(
        "2016-08-22T10:00,PB,ToCanada,Car,0.1", "2016-08-22T10:05,PB,ToCanada,Car,0.2",
        "2016-08-22T10:10,PB,ToCanada,Car,0.3", "2016-08-22T10:05,PB,ToCanada,Car,14.9",
        "2016-08-22T10:00,PB,ToCanada,Car,15.1",
    ))
    assert [wait for *_, wait in kept_rows(result)] == [0.3, 14.9, 15.1]
    assert [d.split(" at ")[1] for d in result.diagnostics] == [
        "2016-08-22T10:05:00; kept last", "2016-08-22T10:00:00; kept last",
    ]


def test_keep_last_a_late_row_with_a_new_stamp_is_no_duplicate():
    result = matches_the_oracles(feed(
        "2016-08-22T10:00,PB,ToCanada,Car,0.1", "2016-08-22T10:10,PB,ToCanada,Car,0.2",
        "2016-08-22T10:05,PB,ToCanada,Car,0.7",
    ))
    assert (result.duplicate_rows, len(result.records)) == (0, 3)


def test_keep_last_a_late_duplicate_of_a_late_row():
    result = matches_the_oracles(feed(
        "2016-08-22T10:00,PB,ToCanada,Car,0.1", "2016-08-22T10:10,PB,ToCanada,Car,0.2",
        "2016-08-22T10:05,PB,ToCanada,Car,0.7", "2016-08-22T10:05,PB,ToCanada,Car,29.9",
    ))
    assert result.duplicate_rows == 1
    assert [wait for *_, wait in kept_rows(result)] == [0.1, 0.2, 29.9]


def test_keep_last_a_slice_that_ascends_except_at_its_last_row():
    slots = [f"2016-08-22T10:{5 * slot:02d},PB,ToCanada,Car,{WAITS[slot]}" for slot in range(12)]
    resent = "2016-08-22T10:30,PB,ToCanada,Car,14.999999999999998"
    result = matches_the_oracles(feed(*slots, resent))
    assert result.duplicate_rows == 1
    assert result.diagnostics == [
        "duplicate observation for PB/ToCanada/Car at 2016-08-22T10:30:00; kept last"
    ]


def test_keep_last_the_feed_year_shape():
    # per hour: PB's twelve slots, one re-sent after the later slots of its
    # hour, then LQ's and RB's; then the next hour
    rows = []
    for hour, resent in ((10, 3), (11, 11)):
        for site in ("PB", "LQ"):
            slots = [(slot, WAITS[(slot + hour) % len(WAITS)]) for slot in range(12)]
            if site == "PB":
                slots.append((resent, "15.000000000000002"))
            rows += [f"2016-08-22T{hour}:{5 * slot:02d},{site},ToCanada,Car,{wait}"
                     for slot, wait in slots]
        rows.append(f"2016-08-22T{hour}:00,RB,ToCanada,Car,30")
    result = matches_the_oracles(feed(*rows))
    assert (result.duplicate_rows, sum(map(len, means_of(result).values()))) == (2, 6)


# --- categorization ----------------------------------------------------------


def test_discretize_boundaries():
    expected = {0: 1, 0.1: 2, 15: 2, 15.01: 3, 30: 3, 30.01: 4, 45: 4}
    assert {wait: discretize(wait) for wait in expected} == expected


def test_discretize_rejects_negative():
    with pytest.raises(ValueError, match="non-negative"):
        discretize(-0.5)


@given(wait=st.floats(min_value=0, max_value=1e6, allow_nan=False))
@settings(max_examples=100)
def test_discretize_total_and_ordered(wait):
    cat = discretize(wait)
    assert 1 <= cat <= 4
    assert discretize(wait + 10.0) >= cat


# --- transaction assembly ----------------------------------------------------


def hourly_fixture():
    return parse(feed(
        "2016-08-22T10:00,PB,ToCanada,Car,0.0",
        "2016-08-22T10:00,LQ,ToCanada,Car,8.0",
        "2016-08-22T10:00,RB,ToCanada,Car,40.0",
        # hour 11 misses RB and must be dropped
        "2016-08-22T11:00,PB,ToCanada,Car,0.0",
        "2016-08-22T11:00,LQ,ToCanada,Car,8.0",
        # other direction, other class, other site: all ignored
        "2016-08-22T10:00,PB,ToUS,Car,99.0",
        "2016-08-22T10:00,PB,ToCanada,Truck,99.0",
        "2016-08-22T10:00,XX,ToCanada,Car,99.0",
    ))


def test_build_transactions_assembles_complete_hours_only():
    build = build_transactions(hourly_fixture(), ["PB", "LQ", "RB"], "ToCanada", "Car")
    assert build.transactions.hours == ["2016-08-22T10:00"]
    assert hours_of(build.transactions)[0].items == (("PB", 1), ("LQ", 2), ("RB", 4))
    assert build.excluded_hours == ["2016-08-22T11:00"]


def test_build_transactions_respects_attribute_order():
    build = build_transactions(hourly_fixture(), ["RB", "PB", "LQ"], "ToCanada", "Car")
    assert hours_of(build.transactions)[0].items == (("RB", 4), ("PB", 1), ("LQ", 2))


def test_build_transactions_sorts_by_timestamp():
    result = parse(feed("2016-08-23T05:00,PB,ToCanada,Car,1.0",
                        "2016-08-22T09:00,PB,ToCanada,Car,1.0"))
    build = build_transactions(result, ["PB"], "ToCanada", "Car")
    stamps = build.transactions.hours
    assert stamps == sorted(stamps)


# hours whose text is easy to get wrong: years 1 and 9999, and Feb 29
EDGE_HOURS = [datetime(1, 1, 1, 0), datetime(1, 1, 1, 23), datetime(9999, 12, 31, 23),
              datetime(2016, 2, 29, 5), datetime(2000, 2, 29, 0), datetime(1900, 3, 1, 0)]
SITE_SETS = [("PB",), ("LQ",), ("PB", "LQ")]


@given(sites_of=st.dictionaries(
    st.one_of(st.sampled_from(EDGE_HOURS), st.datetimes(max_value=datetime(9999, 12, 31, 23))
              .map(lambda at: at.replace(minute=0, second=0, microsecond=0))),
    st.sampled_from(SITE_SETS), max_size=40))
@example(sites_of=dict(zip(EDGE_HOURS, SITE_SETS * 2)))
def test_build_transactions_writes_each_hour_as_hour_text(sites_of):
    # an hour with a value at one site only is excluded; every hour, kept or
    # excluded, is written as hour_text writes it
    slices = {(site, "ToCanada", "Car"): tuple(map(array, "qdq", (
        [micros(at) for at, sites in sites_of.items() if site in sites],
        [5.0 for sites in sites_of.values() if site in sites],
        [0 for sites in sites_of.values() if site in sites]))) for site in ("PB", "LQ")}
    build = build_transactions(ingest.ParseResult(slices, [], 0, 0), ["PB", "LQ"], "ToCanada", "Car")
    assert build.transactions.hours == [hour_text(at) for at in sorted(sites_of)
                                        if len(sites_of[at]) == 2]
    assert build.excluded_hours == [hour_text(at) for at in sorted(sites_of)
                                    if len(sites_of[at]) == 1]


@given(sites=st.lists(SITE_NAMES, max_size=4))
@settings(max_examples=500)
def test_site_fault_states_the_site_rule(sites):
    # the rule run, the build and both staged readers share, against its regex oracle
    assert site_fault(sites) == site_fault_oracle(sites)


def test_build_transactions_validates_attributes():
    with pytest.raises(IngestError, match=re.escape("attribute list [] names no site")):
        build_transactions(parse(feed()), [], "ToCanada", "Car")
    with pytest.raises(IngestError, match=re.escape("attribute list ['PB', 'PB'] names a site")):
        build_transactions(parse(feed()), ["PB", "PB"], "ToCanada", "Car")
    # an empty name, and one that no stripped raw site can match, build no database
    with pytest.raises(IngestError, match=re.escape("attribute list ['PB', ''] names an empty")):
        build_transactions(parse(feed()), ["PB", ""], "ToCanada", "Car")
    with pytest.raises(IngestError, match=re.escape("attribute list ['PB '] names site 'PB ',")):
        build_transactions(parse(feed()), ["PB "], "ToCanada", "Car")


def test_build_peak_on_a_four_slice_mix_is_near_its_peak_on_the_slices_own_feed(tmp_path):
    # Four 30-day feeds, one per direction and vehicle class, mixed line by
    # line: only the configured slice is averaged, so the other three add
    # nothing to what build_transactions allocates, and the database is the same.
    slices = [(direction, c) for direction in DIRECTIONS for c in VEHICLE_CLASSES]
    feeds = {}
    for direction, vehicle_class in slices:
        path = tmp_path / f"{direction}-{vehicle_class}.csv"
        dataset = generate_synthetic(seed=7, days=30, direction=direction,
                                     vehicle_class=vehicle_class)
        write_records_csv(str(path), dataset.records)
        feeds[direction, vehicle_class] = path.read_text().splitlines(keepends=True)
    mixed = parse(HEADER + "\n" + "".join(
        line for lines in zip(*(lines[1:] for lines in feeds.values())) for line in lines
    ))
    for direction, vehicle_class in slices:
        builds, peaks = [], []
        for parsed in (parse("".join(feeds[direction, vehicle_class])), mixed):
            tracemalloc.start()
            try:
                build = build_transactions(parsed, ["PB", "LQ", "RB"], direction, vehicle_class)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            db = build.transactions
            builds.append((db.hours, db.index, db.items, build.excluded_hours))
        assert builds[0] == builds[1], (direction, vehicle_class)
        assert len(builds[0][0]) == 720
        assert peaks[1] <= 1.25 * peaks[0], (direction, vehicle_class, peaks)


# --- transaction file round trip ----------------------------------------------


def test_transactions_round_trip(tmp_path):
    build = build_transactions(hourly_fixture(), ["PB", "LQ", "RB"], "ToCanada", "Car")
    path = tmp_path / "transactions.csv"
    write_transactions(str(path), build.transactions, ["PB", "LQ", "RB"])
    loaded, attributes = read_transactions(str(path))
    assert attributes == ["PB", "LQ", "RB"]
    assert hours_of(loaded) == hours_of(build.transactions)


# naive clock hours, years 1 to 9999
HOURS = st.datetimes().map(lambda stamp: stamp.replace(minute=0, second=0, microsecond=0))


@given(hours=st.lists(HOURS, max_size=30), repeats=st.lists(st.integers(0, 29), max_size=2))
@settings(max_examples=300)
def test_hour_text_orders_as_the_hours_and_parse_hours_takes_distinct_texts(hours, repeats):
    # the database holds each hour as its text: it sorts the texts, read_scores
    # compares them, and the staged readers take a column of them in one call
    assert sorted(map(hour_text, hours)) == list(map(hour_text, sorted(hours)))
    hours += [hours[at] for at in repeats if at < len(hours)]
    texts = list(map(hour_text, hours))
    assert parse_hours(texts) is (len(set(hours)) == len(hours))
    assert texts == list(map(hour_text, hours))  # checked, not changed


def test_read_transactions_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp,PB\n2016-08-22T10:00\n")
    with pytest.raises(IngestError, match="expected 2 fields"):
        read_transactions(str(path))
    path.write_text("nope\n")
    with pytest.raises(IngestError, match="bad transaction header"):
        read_transactions(str(path))
    # discretize only writes categories 1..4; anything else would be mined as an item
    for row, bad in [("9,1,1", "PB:9"), ("1,0,5", "LQ:0,RB:5")]:
        path.write_text(f"timestamp,PB,LQ,RB\n2016-08-22T00:00,1,1,1\n2016-08-22T01:00,{row}\n")
        reason = f"{path}:3: category outside 1..4 ({bad})"
        with pytest.raises(IngestError, match=re.escape(reason)):
            read_transactions(str(path))


@pytest.mark.parametrize("stamp, form", [
    ("2016-08-22", "timestamp has no time of day"),
    ("2016-08-22T11:00+02:00", "timestamp carries a UTC offset"),
    ("2016-08-22T12:30:45", "timestamp has seconds"),
    ("2016-08-22T10:30", "timestamp is not on the hour"),
])
def test_read_transactions_rejects_stamps_it_cannot_write_back(tmp_path, stamp, form):
    # only hour_text's form is read: a date alone would read as its 00:00
    # hour; an offset could not be compared with the naive hours; seconds
    # would be dropped; a minute would give the 10:00 row's hour a second row,
    # which the report's hour-of-day histogram would count twice
    path = tmp_path / "transactions.csv"
    path.write_text(f"timestamp,PB\n2016-08-22T10:00,1\n{stamp},2\n")
    reason = f"{path}:3: bad hour '{stamp}' (expected YYYY-MM-DDTHH:00)"
    with pytest.raises(IngestError, match=re.escape(reason)):
        read_transactions(str(path))


@pytest.mark.parametrize("text", [" 3", "+2", "\u0661", "04"])
def test_read_transactions_rejects_a_category_written_otherwise(tmp_path, text):
    # int() reads each as a category in 1..4, which write_transactions would
    # write back as other text
    path = tmp_path / "transactions.csv"
    path.write_text(f"timestamp,PB,LQ\n2016-08-22T10:00,1,{text}\n", encoding="utf-8")
    reason = f"{path}:2: category outside 1..4 (LQ:{text})"
    with pytest.raises(IngestError, match=re.escape(reason)):
        read_transactions(str(path))


def test_read_transactions_rejects_a_repeated_hour(tmp_path):
    # both rows would be mined and scored, and the hour counted twice in the report
    path = tmp_path / "transactions.csv"
    path.write_text(
        "timestamp,PB,LQ,RB\n2016-08-22T00:00,1,1,1\n2016-08-22T01:00,1,1,1\n"
        "2016-08-22T00:00,4,4,4\n"
    )
    with pytest.raises(IngestError, match=re.escape(f"{path}:4: repeated hour 2016-08-22T00:00")):
        read_transactions(str(path))


def test_read_transactions_rejects_a_header_naming_a_site_twice(tmp_path):
    # every row would hold two categories for PB, which no hour can hold; run
    # refuses such an attribute list
    path = tmp_path / "transactions.csv"
    path.write_text("timestamp,PB,PB\n2016-08-22T10:00,1,2\n")
    reason = f"{path}: transaction header names a site twice ('timestamp,PB,PB')"
    with pytest.raises(IngestError, match=re.escape(reason)):
        read_transactions(str(path))


@pytest.mark.parametrize("header", ["timestamp,PB,", "timestamp,,PB"])
def test_read_transactions_rejects_a_header_naming_an_empty_site(header, tmp_path):
    # the staged mine and compress would write items such as ':2', which no
    # reader reads back; run refuses such an attribute list
    path = tmp_path / "transactions.csv"
    path.write_text(f"{header}\n2016-08-22T10:00,1,2\n")
    reason = f"{path}: transaction header names an empty site ({header!r})"
    with pytest.raises(IngestError, match=re.escape(reason)):
        read_transactions(str(path))
    assert outcome(read_transactions_oracle, str(path)) == (IngestError, reason)


@pytest.mark.parametrize("header, site", [
    ("timestamp,#A,PB", "#A"), ("timestamp, PB", " PB"), ("timestamp,P|B", "P|B"),
    ("timestamp,P\tB", "P\tB"), ("timestamp,PB,\u00a0LQ", "\u00a0LQ"),
])
def test_read_transactions_rejects_a_header_site_an_artifact_cannot_hold(header, site, tmp_path):
    # run refuses each such site before any stage, so no run writes one; a raw
    # site is stripped, so a site with space around it matches no feed row
    path = tmp_path / "transactions.csv"
    row = ",".join(["2016-08-22T10:00"] + ["1"] * header.count(","))
    path.write_text(f"{header}\n{row}\n", encoding="utf-8")
    reason = (f"{path}: transaction header names site {site!r}, which has space around it, "
              f"a leading '#' or a separator ({header!r})")
    with pytest.raises(IngestError, match=re.escape(reason)):
        read_transactions(str(path))
    assert outcome(read_transactions_oracle, str(path)) == (IngestError, reason)


def test_read_transactions_shares_one_items_tuple_per_category_text(tmp_path):
    path = tmp_path / "transactions.csv"
    path.write_text("timestamp,PB,LQ\n2016-08-22T00:00,1,2\n2016-08-22T01:00,3,1\n"
                    "2016-08-22T02:00,1,2\n")
    loaded, _ = read_transactions(str(path))
    hours = hours_of(loaded)
    assert hours[0].items == (("PB", 1), ("LQ", 2))
    assert hours[2].items is hours[0].items


def test_transactions_round_trip_a_year_before_1000(tmp_path):
    # strftime("%Y") writes 999, which fromisoformat cannot read back
    txn = Hour(timestamp=hour_text(datetime(999, 12, 31, 23)), items=(("PB", 2),))
    path = tmp_path / "transactions.csv"
    write_transactions(str(path), collapse([txn]), ["PB"])
    assert path.read_text() == "timestamp,PB\n0999-12-31T23:00,2\n"
    db, attributes = read_transactions(str(path))
    assert (hours_of(db), attributes) == ([txn], ["PB"])


@st.composite
def transaction_files(draw):
    attributes = draw(st.sampled_from([["PB"], ["PB", "LQ", "RB"]]))
    rows = draw(artifact_rows(st.lists(category_fields(len(attributes)), min_size=1, max_size=4)))
    lines = [["timestamp", *attributes], *rows]
    return "".join(",".join(line) + "\n" for line in lines)


def in_time_order(result):
    """A reader's outcome with its hours in time order, as the database holds them."""
    if isinstance(result[0], type):  # what it raised
        return result
    hours, attributes = result
    if not isinstance(hours, list):
        hours = hours_of(hours)
    return sorted(hours, key=lambda hour: hour.timestamp), attributes


@given(text=transaction_files())
@settings(max_examples=300, deadline=None)
def test_read_transactions_matches_the_per_row_oracle(text, tmp_path_factory):
    path = tmp_path_factory.mktemp("transactions") / "transactions.csv"
    path.write_text(text)
    assert in_time_order(outcome(read_transactions, str(path))) == in_time_order(
        outcome(read_transactions_oracle, str(path))
    )


@pytest.mark.parametrize("change", LATE_CHANGES)
def test_read_transactions_matches_the_per_row_oracle_on_a_long_file(change, tmp_path):
    start = datetime(2016, 1, 1)
    rows = [[hour_text(start + timedelta(hours=i)), str(i % 4 + 1), str(i // 4 % 4 + 1)]
            for i in range(LONG_ROWS)]
    change_late_row(rows, change)
    path = tmp_path / "transactions.csv"
    path.write_text("timestamp,PB,LQ\n" + "".join(",".join(row) + "\n" for row in rows))
    expected = in_time_order(outcome(read_transactions_oracle, str(path)))
    assert isinstance(expected[0], type) is (change != "hours out of order")
    assert in_time_order(outcome(read_transactions, str(path))) == expected


def test_parse_hours_reads_only_stamps_as_hour_text_writes_them():
    texts = [hour_text(datetime(2016, 8, 22) + timedelta(hours=i)) for i in range(30)]
    hours = list(texts)
    assert parse_hours(hours) and hours == texts
    for bad in [
        [*texts, texts[3]],  # a repeat
        ["2016-08-22T10:0", "2016-08-22T11:000"],  # 32 characters, but not 16 each
        ["2016-08-22 10:00"], ["2016-08-22T10:00:00"], ["2016-08-22T10:30"],
        ["2016-08-\u0662\u0662T10:00"], ["2016-02-30T10:00"], ["2016-08-22T1x:00"],
    ]:
        assert not parse_hours(list(bad))
