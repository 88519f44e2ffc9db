"""Ingestion: parsing, deduplication, hourly means, categorization, assembly."""

import io
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlpatterns import read_transactions
from mdlpatterns.ingest import (
    Direction,
    IngestError,
    VehicleClass,
    WaitTimeRecord,
    aggregate_hourly,
    build_transactions,
    discretize,
    parse_records,
    write_transactions,
)

HEADER = "timestamp,site,direction,vehicle_class,wait_minutes"


def parse(text: str):
    return parse_records(io.StringIO(text))


def record(ts: str, site: str = "PB", wait: float = 5.0) -> WaitTimeRecord:
    return WaitTimeRecord(
        timestamp=datetime.fromisoformat(ts),
        site=site,
        direction=Direction.TO_CANADA,
        vehicle_class=VehicleClass.CAR,
        wait_minutes=wait,
    )


# --- parsing -----------------------------------------------------------------


def test_parse_happy_path():
    result = parse(
        HEADER + "\n"
        "2016-08-22T10:00,PB,ToCanada,Car,12.5\n"
        "2016-08-22T10:05,LQ,ToUS,Truck,0\n"
    )
    assert result.rejected_rows == 0
    assert result.diagnostics == []
    first, second = result.records
    assert first.timestamp == datetime(2016, 8, 22, 10, 0)
    assert first.site == "PB"
    assert first.direction is Direction.TO_CANADA
    assert first.vehicle_class is VehicleClass.CAR
    assert first.wait_minutes == 12.5
    assert second.direction is Direction.TO_US
    assert second.vehicle_class is VehicleClass.TRUCK


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
    assert result.records == []
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
    build = build_transactions(
        aggregate_hourly(result.records), ["PB"], Direction.TO_CANADA, VehicleClass.CAR
    )
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
    waits = {rec.site: rec.wait_minutes for rec in result.records}
    assert waits == {"PB": 9.0, "LQ": 7.0}
    assert any("kept last" in d for d in result.diagnostics)


def test_direction_and_class_parse_case_insensitive():
    assert Direction.parse("tocanada") is Direction.TO_CANADA
    assert Direction.parse(" ToUS ") is Direction.TO_US
    assert VehicleClass.parse("TRUCK") is VehicleClass.TRUCK
    with pytest.raises(ValueError, match="unknown direction"):
        Direction.parse("north")
    with pytest.raises(ValueError, match="unknown vehicle class"):
        VehicleClass.parse("bike")


# --- hourly aggregation ------------------------------------------------------


def test_aggregate_hourly_means_five_minute_feed():
    records = [
        record(f"2016-08-22T10:{5 * i:02d}", wait=float(i)) for i in range(12)
    ]
    hourly = aggregate_hourly(records)
    key = ("PB", Direction.TO_CANADA, VehicleClass.CAR, datetime(2016, 8, 22, 10))
    assert hourly == {key: 5.5}


def test_aggregate_hourly_single_value_is_its_own_mean():
    hourly = aggregate_hourly([record("2016-08-22T10:00", site="RB", wait=22.0)])
    key = ("RB", Direction.TO_CANADA, VehicleClass.CAR, datetime(2016, 8, 22, 10))
    assert hourly[key] == 22.0


def test_aggregate_hourly_separates_hours_and_sites():
    records = [
        record("2016-08-22T10:59", wait=10.0),
        record("2016-08-22T11:00", wait=20.0),
        record("2016-08-22T10:00", site="LQ", wait=30.0),
    ]
    hourly = aggregate_hourly(records)
    assert len(hourly) == 3


@given(
    waits=st.lists(
        st.floats(min_value=0, max_value=500, allow_nan=False), min_size=1, max_size=24
    )
)
@settings(max_examples=100)
def test_aggregate_mean_bounded_by_extremes(waits):
    records = [
        record(f"2016-08-22T10:{i % 60:02d}", wait=w) for i, w in enumerate(waits)
    ]
    (mean,) = aggregate_hourly(records).values()
    assert min(waits) - 1e-9 <= mean <= max(waits) + 1e-9


# --- categorization ----------------------------------------------------------


def test_discretize_boundaries():
    expected = {0: 1, 0.1: 2, 15: 2, 15.01: 3, 30: 3, 30.01: 4, 45: 4}
    assert {wait: int(discretize(wait)) for wait in expected} == expected


def test_discretize_rejects_negative():
    with pytest.raises(ValueError, match="non-negative"):
        discretize(-0.5)


@given(wait=st.floats(min_value=0, max_value=1e6, allow_nan=False))
@settings(max_examples=100)
def test_discretize_total_and_ordered(wait):
    cat = discretize(wait)
    assert 1 <= int(cat) <= 4
    assert discretize(wait + 10.0) >= cat


# --- transaction assembly ----------------------------------------------------


def hourly_fixture():
    hours = {
        ("PB", Direction.TO_CANADA, VehicleClass.CAR, datetime(2016, 8, 22, 10)): 0.0,
        ("LQ", Direction.TO_CANADA, VehicleClass.CAR, datetime(2016, 8, 22, 10)): 8.0,
        ("RB", Direction.TO_CANADA, VehicleClass.CAR, datetime(2016, 8, 22, 10)): 40.0,
        # hour 11 misses RB and must be dropped
        ("PB", Direction.TO_CANADA, VehicleClass.CAR, datetime(2016, 8, 22, 11)): 0.0,
        ("LQ", Direction.TO_CANADA, VehicleClass.CAR, datetime(2016, 8, 22, 11)): 8.0,
        # other direction, other class, other site: all ignored
        ("PB", Direction.TO_US, VehicleClass.CAR, datetime(2016, 8, 22, 10)): 99.0,
        ("PB", Direction.TO_CANADA, VehicleClass.TRUCK, datetime(2016, 8, 22, 10)): 99.0,
        ("XX", Direction.TO_CANADA, VehicleClass.CAR, datetime(2016, 8, 22, 10)): 99.0,
    }
    return hours


def test_build_transactions_assembles_complete_hours_only():
    build = build_transactions(
        hourly_fixture(), ["PB", "LQ", "RB"], Direction.TO_CANADA, VehicleClass.CAR
    )
    assert [t.timestamp for t in build.transactions] == [datetime(2016, 8, 22, 10)]
    assert build.transactions[0].items == (("PB", 1), ("LQ", 2), ("RB", 4))
    assert build.excluded_hours == [datetime(2016, 8, 22, 11)]


def test_build_transactions_respects_attribute_order():
    build = build_transactions(
        hourly_fixture(), ["RB", "PB", "LQ"], Direction.TO_CANADA, VehicleClass.CAR
    )
    assert build.transactions[0].items == (("RB", 4), ("PB", 1), ("LQ", 2))


def test_build_transactions_sorts_by_timestamp():
    hours = {
        ("PB", Direction.TO_CANADA, VehicleClass.CAR, datetime(2016, 8, 23, 5)): 1.0,
        ("PB", Direction.TO_CANADA, VehicleClass.CAR, datetime(2016, 8, 22, 9)): 1.0,
    }
    build = build_transactions(hours, ["PB"], Direction.TO_CANADA, VehicleClass.CAR)
    stamps = [t.timestamp for t in build.transactions]
    assert stamps == sorted(stamps)


def test_build_transactions_validates_attributes():
    with pytest.raises(IngestError, match="nonempty"):
        build_transactions({}, [], Direction.TO_CANADA, VehicleClass.CAR)
    with pytest.raises(IngestError, match="distinct"):
        build_transactions({}, ["PB", "PB"], Direction.TO_CANADA, VehicleClass.CAR)


# --- transaction file round trip ----------------------------------------------


def test_transactions_round_trip(tmp_path):
    build = build_transactions(
        hourly_fixture(), ["PB", "LQ", "RB"], Direction.TO_CANADA, VehicleClass.CAR
    )
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
