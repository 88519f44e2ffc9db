"""Ingestion: parsing, deduplication, hourly means, categorization, assembly."""

import gc
import io
import re
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import aggregate_hourly_oracle, parse_records_oracle
from mdlpatterns import read_transactions
from mdlpatterns.ingest import (
    COLUMNS,
    DIRECTIONS,
    VEHICLE_CLASSES,
    IngestError,
    aggregate_hourly,
    build_transactions,
    canonical,
    discretize,
    parse_records,
    write_transactions,
)

HEADER = "timestamp,site,direction,vehicle_class,wait_minutes"


def parse(text: str):
    return parse_records(io.StringIO(text))


def feed(*rows: str) -> str:
    return HEADER + "\n" + "".join(row + "\n" for row in rows)


def kept(result) -> list[tuple]:
    """Kept rows in file order: (site, direction, class, timestamp, wait)."""
    return [(*key, result.waits[position]) for key, position in result.records.items()]


def hourly_of(*rows: str):
    return aggregate_hourly(parse(feed(*rows)))


# --- parsing -----------------------------------------------------------------


def test_parse_happy_path():
    result = parse(
        HEADER + "\n"
        "2016-08-22T10:00,PB,ToCanada,Car,12.5\n"
        "2016-08-22T10:05,LQ,ToUS,Truck,0\n"
    )
    assert result.rejected_rows == 0
    assert result.diagnostics == []
    first, second = kept(result)
    assert first == ("PB", "ToCanada", "Car", datetime(2016, 8, 22, 10, 0), 12.5)
    assert second == ("LQ", "ToUS", "Truck", datetime(2016, 8, 22, 10, 5), 0.0)
    assert result.hours[datetime(2016, 8, 22, 10, 5)] == datetime(2016, 8, 22, 10)


def test_parse_empty_input_raises():
    with pytest.raises(IngestError, match="no header"):
        parse("")


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
    assert result.records == {}
    assert result.diagnostics == [f"row 2: non-finite wait ({raw})"]


@pytest.mark.parametrize("stamp", ["2017-01-01T01:00+00:00", "2017-01-01T01:00-05:00"])
def test_parse_rejects_timestamp_with_utc_offset(stamp):
    result = parse(
        HEADER + "\n"
        "2017-01-01T00:00,PB,ToCanada,Car,5\n"
        f"{stamp},PB,ToCanada,Car,5\n"
    )
    assert result.rejected_rows == 1
    assert result.diagnostics[0].startswith("row 3: timestamp carries a UTC offset")
    # the naive row alone still builds; mixed with an aware one it could not be sorted
    build = build_transactions(aggregate_hourly(result), ["PB"], "ToCanada", "Car")
    assert [t.timestamp for t in build.transactions] == [datetime(2017, 1, 1, 0)]


def test_parse_duplicate_keeps_last():
    result = parse(
        HEADER + "\n"
        "2016-08-22T10:00,PB,ToCanada,Car,5\n"
        "2016-08-22T10:00,LQ,ToCanada,Car,7\n"
        "2016-08-22T10:00,PB,ToCanada,Car,9\n"
    )
    assert result.duplicate_rows == 1
    assert len(result.records) == 2
    waits = {site: wait for site, _, _, _, wait in kept(result)}
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
    assert [(stamp.minute, wait) for _, _, _, stamp, wait in kept(result)] == [(0, 3.0), (5, 4.0)]


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


def test_record_keys_are_not_tracked_by_the_cyclic_collector():
    # keys of strings and datetimes hold nothing the collector must walk, so a
    # full collection untracks them and later collections skip them
    result = parse(feed("2016-08-22T10:00,PB,ToCanada,Car,5", "2016-08-22T10:05,LQ,tous,truck,7"))
    gc.collect()
    assert [gc.is_tracked(key) for key in result.records] == [False, False]


# --- hourly aggregation ------------------------------------------------------


def test_aggregate_hourly_means_five_minute_feed():
    hourly = hourly_of(
        *(f"2016-08-22T10:{5 * i:02d},PB,ToCanada,Car,{float(i)}" for i in range(12))
    )
    key = ("PB", "ToCanada", "Car", datetime(2016, 8, 22, 10))
    assert hourly == {key: 5.5}


def test_aggregate_hourly_single_value_is_its_own_mean():
    hourly = hourly_of("2016-08-22T10:00,RB,ToCanada,Car,22.0")
    key = ("RB", "ToCanada", "Car", datetime(2016, 8, 22, 10))
    assert hourly[key] == 22.0


def test_aggregate_hourly_separates_hours_and_sites():
    hourly = hourly_of(
        "2016-08-22T10:59,PB,ToCanada,Car,10.0",
        "2016-08-22T11:00,PB,ToCanada,Car,20.0",
        "2016-08-22T10:00,LQ,ToCanada,Car,30.0",
    )
    assert len(hourly) == 3


@given(
    waits=st.lists(
        st.floats(min_value=0, max_value=500, allow_nan=False), min_size=1, max_size=24
    )
)
@settings(max_examples=100)
def test_aggregate_mean_bounded_by_extremes(waits):
    (mean,) = hourly_of(
        *(f"2016-08-22T10:{i % 60:02d},PB,ToCanada,Car,{w!r}" for i, w in enumerate(waits))
    ).values()
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
    ["", "not-a-date", "2016-02-30T10:00", "2016-08-22T10:00+00:00"],
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
    kind = draw(st.sampled_from(["field", "short", "long", "blank"]))
    if kind == "field":
        column = draw(st.integers(0, len(COLUMNS) - 1))
        fields[column] = draw(st.sampled_from(BAD_FIELDS[column]))
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
def feeds(draw):
    """Raw feed text: columns in any order, maybe a repeated column that an
    earlier decoy shadows, and rows of every kind. Some rows are re-sent
    later with a new wait, and the rows may be shuffled."""
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
    return "".join(",".join(line) + "\n" for line in lines)


@given(text=feeds())
@settings(max_examples=300, deadline=None)
def test_one_pass_matches_the_record_list_oracle(text):
    result = parse(text)
    oracle = parse_records_oracle(io.StringIO(text))
    assert kept(result) == [
        (r.site, r.direction, r.vehicle_class, r.timestamp, r.wait_minutes)
        for r in oracle.records
    ]
    assert result.diagnostics == oracle.diagnostics
    assert result.rejected_rows == oracle.rejected_rows
    assert result.duplicate_rows == oracle.duplicate_rows
    hourly = aggregate_hourly(result)
    expected = aggregate_hourly_oracle(oracle.records)
    assert list(hourly) == list(expected)
    assert [mean.hex() for mean in hourly.values()] == [mean.hex() for mean in expected.values()]


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
    hours = {
        ("PB", "ToCanada", "Car", datetime(2016, 8, 22, 10)): 0.0,
        ("LQ", "ToCanada", "Car", datetime(2016, 8, 22, 10)): 8.0,
        ("RB", "ToCanada", "Car", datetime(2016, 8, 22, 10)): 40.0,
        # hour 11 misses RB and must be dropped
        ("PB", "ToCanada", "Car", datetime(2016, 8, 22, 11)): 0.0,
        ("LQ", "ToCanada", "Car", datetime(2016, 8, 22, 11)): 8.0,
        # other direction, other class, other site: all ignored
        ("PB", "ToUS", "Car", datetime(2016, 8, 22, 10)): 99.0,
        ("PB", "ToCanada", "Truck", datetime(2016, 8, 22, 10)): 99.0,
        ("XX", "ToCanada", "Car", datetime(2016, 8, 22, 10)): 99.0,
    }
    return hours


def test_build_transactions_assembles_complete_hours_only():
    build = build_transactions(hourly_fixture(), ["PB", "LQ", "RB"], "ToCanada", "Car")
    assert [t.timestamp for t in build.transactions] == [datetime(2016, 8, 22, 10)]
    assert build.transactions[0].items == (("PB", 1), ("LQ", 2), ("RB", 4))
    assert build.excluded_hours == [datetime(2016, 8, 22, 11)]


def test_build_transactions_respects_attribute_order():
    build = build_transactions(hourly_fixture(), ["RB", "PB", "LQ"], "ToCanada", "Car")
    assert build.transactions[0].items == (("RB", 4), ("PB", 1), ("LQ", 2))


def test_build_transactions_sorts_by_timestamp():
    hours = {
        ("PB", "ToCanada", "Car", datetime(2016, 8, 23, 5)): 1.0,
        ("PB", "ToCanada", "Car", datetime(2016, 8, 22, 9)): 1.0,
    }
    build = build_transactions(hours, ["PB"], "ToCanada", "Car")
    stamps = [t.timestamp for t in build.transactions]
    assert stamps == sorted(stamps)


def test_build_transactions_validates_attributes():
    with pytest.raises(IngestError, match="nonempty"):
        build_transactions({}, [], "ToCanada", "Car")
    with pytest.raises(IngestError, match="distinct"):
        build_transactions({}, ["PB", "PB"], "ToCanada", "Car")


# --- transaction file round trip ----------------------------------------------


def test_transactions_round_trip(tmp_path):
    build = build_transactions(hourly_fixture(), ["PB", "LQ", "RB"], "ToCanada", "Car")
    path = tmp_path / "transactions.csv"
    write_transactions(str(path), build.transactions, ["PB", "LQ", "RB"])
    loaded, attributes = read_transactions(str(path))
    assert attributes == ["PB", "LQ", "RB"]
    assert loaded == build.transactions


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


@pytest.mark.parametrize("stamp, reason", [
    ("2016-08-22T11:00+02:00", "timestamp carries a UTC offset"),
    ("2016-08-22T12:30:45", "timestamp has seconds"),
])
def test_read_transactions_rejects_stamps_it_cannot_write_back(tmp_path, stamp, reason):
    # an offset could not be compared with the naive hours; seconds would be dropped
    path = tmp_path / "transactions.csv"
    path.write_text(f"timestamp,PB\n2016-08-22T10:00,1\n{stamp},2\n")
    with pytest.raises(IngestError, match=re.escape(f"{path}:3: {reason} ('{stamp}')")):
        read_transactions(str(path))
