"""Raw wait-time ingestion: parse, aggregate to hourly means, categorize, assemble transactions.

Input is delimiter-separated text with a header row. Each data row is one
observation: timestamp (ISO-8601, minute resolution), site identifier,
direction, vehicle class, and wait minutes. Sites report at different rates
(five-minute or hourly feeds); everything is averaged per clock hour before
categorization so the sites line up.

Pipeline:
    parse_records()      -> list of WaitTimeRecord (+ per-row diagnostics)
    aggregate_hourly()   -> (site, direction, vehicle_class, hour) -> mean minutes
    discretize()         -> wait category 1..4
    build_transactions() -> one Transaction per hour where every configured
                            site has a value; incomplete hours are dropped
                            and counted, never imputed

All operations are pure and deterministic: identical input yields identical
transactions.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum, IntEnum
from math import isfinite
from typing import IO, Iterable, Mapping, Sequence

Item = tuple[str, int]

# The header columns every raw input must have, one per record field.
COLUMNS = ("timestamp", "site", "direction", "vehicle_class", "wait_minutes")


class IngestError(RuntimeError):
    """Fatal ingestion problem: unreadable input, bad schema, bad configuration."""


class Direction(str, Enum):
    TO_US = "ToUS"
    TO_CANADA = "ToCanada"

    @classmethod
    def parse(cls, text: str) -> "Direction":
        return _parse_member(cls, text, "direction")


class VehicleClass(str, Enum):
    CAR = "Car"
    TRUCK = "Truck"

    @classmethod
    def parse(cls, text: str) -> "VehicleClass":
        return _parse_member(cls, text, "vehicle class")


# Case-insensitive spelling -> member, per enum.
_MEMBERS = {cls: {m.value.lower(): m for m in cls} for cls in (Direction, VehicleClass)}


def _parse_member(cls, text: str, noun: str):
    member = _MEMBERS[cls].get(text.strip().lower())
    if member is None:
        expected = " or ".join(m.value for m in cls)
        raise ValueError(f"unknown {noun} {text!r} (expected {expected})")
    return member


class Category(IntEnum):
    """Wait-time category. Index/name pairing is fixed; see discretize() for bounds."""

    NO_WAITING = 1
    SLIGHT_DELAY = 2
    DELAY = 3
    HEAVY_DELAY = 4


@dataclass(frozen=True)
class WaitTimeRecord:
    """One raw observation before aggregation."""

    timestamp: datetime
    site: str
    direction: Direction
    vehicle_class: VehicleClass
    wait_minutes: float


@dataclass(frozen=True)
class Transaction:
    """One hourly row: a category per configured site, in configured site order."""

    timestamp: datetime
    items: tuple[Item, ...]

    @property
    def item_set(self) -> frozenset[Item]:
        return frozenset(self.items)


@dataclass
class ParseResult:
    records: list[WaitTimeRecord]
    diagnostics: list[str] = field(default_factory=list)
    rejected_rows: int = 0
    duplicate_rows: int = 0


@dataclass
class TransactionBuild:
    transactions: list[Transaction]
    excluded_hours: list[datetime] = field(default_factory=list)


def parse_records(stream: IO[str], delimiter: str = ",") -> ParseResult:
    """Parse delimiter-separated records with a header row naming COLUMNS.

    Malformed rows are skipped with a per-row diagnostic and counted in
    ``rejected_rows``; they are never silently dropped. Duplicate
    (site, direction, vehicle_class, timestamp) keys keep the last
    occurrence, with a diagnostic per replaced row.

    Raises IngestError if the stream has no header or a mandatory column
    is missing.
    """
    reader = csv.DictReader(stream, delimiter=delimiter)
    if reader.fieldnames is None:
        raise IngestError("input has no header row")
    missing = [c for c in COLUMNS if c not in reader.fieldnames]
    if missing:
        raise IngestError(f"missing required column(s): {', '.join(missing)}")

    result = ParseResult(records=[])
    parsed: list[WaitTimeRecord] = []
    for lineno, row in enumerate(reader, start=2):
        try:
            parsed.append(_parse_row(row))
        except ValueError as exc:
            result.diagnostics.append(f"row {lineno}: {exc}")
            result.rejected_rows += 1

    # Deduplicate on (site, direction, class, timestamp), keeping the last
    # occurrence; output order is the order of the surviving rows.
    seen: set[tuple] = set()
    survivors: list[WaitTimeRecord] = []
    for rec in reversed(parsed):
        key = (rec.site, rec.direction, rec.vehicle_class, rec.timestamp)
        if key in seen:
            result.diagnostics.append(
                f"duplicate observation for {rec.site}/{rec.direction.value}/"
                f"{rec.vehicle_class.value} at {rec.timestamp.isoformat()}; kept last"
            )
            result.duplicate_rows += 1
            continue
        seen.add(key)
        survivors.append(rec)
    survivors.reverse()
    result.records = survivors
    return result


def _parse_row(row: Mapping[str, str]) -> WaitTimeRecord:
    raw_ts = (row.get("timestamp") or "").strip()
    try:
        timestamp = datetime.fromisoformat(raw_ts)
    except ValueError:
        raise ValueError(f"bad timestamp {raw_ts!r}")
    if timestamp.tzinfo is not None:
        raise ValueError(f"timestamp carries a UTC offset ({raw_ts!r})")
    site = (row.get("site") or "").strip()
    if not site:
        raise ValueError("empty site")
    direction = Direction.parse(row.get("direction") or "")
    vehicle_class = VehicleClass.parse(row.get("vehicle_class") or "")
    raw_wait = (row.get("wait_minutes") or "").strip()
    try:
        wait = float(raw_wait)
    except ValueError:
        raise ValueError(f"bad wait minutes {raw_wait!r}")
    if not isfinite(wait):
        raise ValueError(f"non-finite wait ({raw_wait})")
    if wait < 0:
        raise ValueError(f"negative wait ({raw_wait})")
    return WaitTimeRecord(timestamp, site, direction, vehicle_class, wait)


def aggregate_hourly(
    records: Iterable[WaitTimeRecord],
) -> dict[tuple[str, Direction, VehicleClass, datetime], float]:
    """Arithmetic mean of wait minutes per (site, direction, class, clock hour).

    A record at timestamp t contributes to the hour floor(t); hours with no
    records are simply absent. For an hourly feed the single value is the mean.
    """
    sums: dict[tuple, float] = {}
    counts: dict[tuple, int] = {}
    for rec in records:
        hour = rec.timestamp.replace(minute=0, second=0, microsecond=0)
        key = (rec.site, rec.direction, rec.vehicle_class, hour)
        sums[key] = sums.get(key, 0.0) + rec.wait_minutes
        counts[key] = counts.get(key, 0) + 1
    return {key: sums[key] / counts[key] for key in sums}


def discretize(mean_wait: float) -> Category:
    """Map mean wait minutes to a category.

    Exactly 0 -> 1 (no waiting); (0, 15] -> 2 (slight delay);
    (15, 30] -> 3 (delay); above 30 -> 4 (heavy delay).
    """
    if mean_wait < 0:
        raise ValueError(f"wait minutes must be non-negative, got {mean_wait}")
    if mean_wait == 0:
        return Category.NO_WAITING
    if mean_wait <= 15:
        return Category.SLIGHT_DELAY
    if mean_wait <= 30:
        return Category.DELAY
    return Category.HEAVY_DELAY


def build_transactions(
    hourly: Mapping[tuple[str, Direction, VehicleClass, datetime], float],
    attributes: Sequence[str],
    direction: Direction,
    vehicle_class: VehicleClass,
) -> TransactionBuild:
    """Assemble one transaction per hour in which every configured site has a value.

    Hours where any configured site is missing are excluded and recorded in
    ``excluded_hours``; nothing is imputed. Transactions are sorted by
    timestamp and carry items in the configured attribute order.
    """
    if not attributes:
        raise IngestError("attribute list must be nonempty")
    if len(set(attributes)) != len(attributes):
        raise IngestError("attribute list must be distinct")

    by_hour: dict[datetime, dict[str, float]] = {}
    for (site, rec_dir, rec_class, hour), mean in hourly.items():
        if rec_dir != direction or rec_class != vehicle_class:
            continue
        if site not in attributes:
            continue
        by_hour.setdefault(hour, {})[site] = mean

    build = TransactionBuild(transactions=[])
    for hour in sorted(by_hour):
        values = by_hour[hour]
        if any(site not in values for site in attributes):
            build.excluded_hours.append(hour)
            continue
        items = tuple((site, int(discretize(values[site]))) for site in attributes)
        build.transactions.append(Transaction(timestamp=hour, items=items))
    return build


# --- transaction file format -------------------------------------------------
# One row per hour: ISO-8601 hour, then one category index per attribute,
# comma-separated. Header names the attributes.

def write_transactions(
    path: str,
    transactions: Sequence[Transaction],
    attributes: Sequence[str],
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("timestamp," + ",".join(attributes) + "\n")
        for txn in transactions:
            cats = dict(txn.items)
            fields = [txn.timestamp.strftime("%Y-%m-%dT%H:%M")]
            fields.extend(str(cats[attr]) for attr in attributes)
            fh.write(",".join(fields) + "\n")


def read_transactions(path: str) -> tuple[list[Transaction], list[str]]:
    """Read a transaction file back; returns (transactions, attribute names)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header:
            raise IngestError(f"{path}: empty transaction file")
        columns = header.split(",")
        if columns[0] != "timestamp" or len(columns) < 2:
            raise IngestError(f"{path}: bad transaction header {header!r}")
        attributes = columns[1:]
        transactions = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(columns):
                raise IngestError(f"{path}:{lineno}: expected {len(columns)} fields")
            try:
                ts = datetime.fromisoformat(parts[0])
                cats = [int(p) for p in parts[1:]]
            except ValueError as exc:
                raise IngestError(f"{path}:{lineno}: {exc}")
            items = tuple(zip(attributes, cats))
            transactions.append(Transaction(timestamp=ts, items=items))
    return transactions, attributes
