"""Raw wait-time ingestion: parse, aggregate to hourly means, categorize, assemble transactions.

Input is delimiter-separated text with a header row. Each data row is one
observation: timestamp (ISO-8601, minute resolution), site identifier,
direction, vehicle class, and wait minutes. The direction and vehicle class
match one of DIRECTIONS and VEHICLE_CLASSES ignoring case and surrounding
spaces, and are kept in that canonical spelling. Sites report at different
rates (five-minute or hourly feeds); everything is averaged per clock hour
before categorization so the sites line up.

Pipeline:
    parse_records()      -> in one pass, the last row per (site, direction,
                            vehicle_class, timestamp), in file order
                            (+ a diagnostic per rejected or replaced row)
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
from array import array
from dataclasses import dataclass, field
from datetime import datetime
from math import inf, isfinite
from typing import IO, Mapping, Sequence

Item = tuple[str, int]

# The header columns every raw input must have, one per record field.
COLUMNS = ("timestamp", "site", "direction", "vehicle_class", "wait_minutes")

# The canonical spellings of the two fields that slice a feed.
DIRECTIONS = ("ToUS", "ToCanada")
VEHICLE_CLASSES = ("Car", "Truck")

# How every artifact writes an hour.
HOUR_FORMAT = "%Y-%m-%dT%H:%M"


class IngestError(RuntimeError):
    """Fatal ingestion problem: unreadable input, bad schema, bad configuration."""


def canonical(text: str, names: Sequence[str], noun: str) -> str:
    """The one of ``names`` that ``text`` spells, ignoring case and surrounding spaces."""
    for name in names:
        if name.lower() == text.strip().lower():
            return name
    raise ValueError(f"unknown {noun} {text!r} (expected {' or '.join(names)})")


@dataclass(frozen=True)
class Transaction:
    """One hourly row: a category per configured site, in configured site order."""

    timestamp: datetime
    items: tuple[Item, ...]

    @property
    def item_set(self) -> frozenset[Item]:
        return frozenset(self.items)


# (site, direction, vehicle_class, timestamp) of one observation
RecordKey = tuple[str, str, str, datetime]


@dataclass
class ParseResult:
    """The rows parse_records kept, and what it rejected or replaced.

    ``records`` maps each kept (site, direction, vehicle_class, timestamp)
    to its row's position in ``waits``; its order is the file order of the
    kept rows. ``hours`` maps every timestamp to its clock hour.
    """

    records: dict[RecordKey, int] = field(default_factory=dict)
    waits: array = field(default_factory=lambda: array("d"))
    hours: dict[datetime, datetime] = field(default_factory=dict)
    diagnostics: list[str] = field(default_factory=list)
    rejected_rows: int = 0
    duplicate_rows: int = 0


@dataclass
class TransactionBuild:
    transactions: list[Transaction]
    excluded_hours: list[datetime] = field(default_factory=list)


def parse_records(stream: IO[str], delimiter: str = ",") -> ParseResult:
    """Parse delimiter-separated records with a header row naming COLUMNS.

    One pass, with no object per row. Malformed rows are skipped with a
    diagnostic naming their line and counted in ``rejected_rows``; they are
    never silently dropped. Duplicate (site, direction, vehicle_class,
    timestamp) keys keep the last occurrence, with a diagnostic per replaced
    row; these follow the rejections, latest replaced row first.

    As with ``csv.DictReader``, blank lines are skipped, a repeated column
    name reads its last column and a short row reads its missing fields as
    empty.

    Raises IngestError if the stream has no header or a mandatory column
    is missing.
    """
    reader = csv.reader(stream, delimiter=delimiter)
    header = next(reader, None)
    if header is None:
        raise IngestError("input has no header row")
    missing = [c for c in COLUMNS if c not in header]
    if missing:
        raise IngestError(f"missing required column(s): {', '.join(missing)}")
    index = {name: i for i, name in enumerate(header)}
    i_stamp, i_site, i_direction, i_class, i_wait = (index[c] for c in COLUMNS)
    width = max(index[c] for c in COLUMNS) + 1
    padding = [""] * width

    result = ParseResult()
    records, waits, diagnostics = result.records, result.waits, result.diagnostics
    # Raw field text -> parsed value, or the reason the field is rejected.
    # Sites share timestamps and a feed has few slices, so each distinct
    # string is parsed once.
    stamps: dict[str, datetime | str] = {}
    slices: dict[tuple[str, str, str], tuple[str, str, str] | str] = {}
    replaced: list[tuple[int, RecordKey]] = []  # (position of the replaced row, key)
    for row in reader:
        if len(row) < width:
            if not row:
                continue
            row += padding[len(row):]
        stamp = stamps.get(row[i_stamp])
        if stamp is None:
            stamp = stamps[row[i_stamp]] = _parse_stamp(row[i_stamp], result.hours)
        if isinstance(stamp, str):
            diagnostics.append(f"row {reader.line_num}: {stamp}")
            continue
        fields = (row[i_site], row[i_direction], row[i_class])
        slice_ = slices.get(fields)
        if slice_ is None:
            slice_ = slices[fields] = _parse_slice(*fields)
        if isinstance(slice_, str):
            diagnostics.append(f"row {reader.line_num}: {slice_}")
            continue
        raw_wait = row[i_wait].strip()
        try:
            wait = float(raw_wait)
        except ValueError:
            diagnostics.append(f"row {reader.line_num}: bad wait minutes {raw_wait!r}")
            continue
        if not 0 <= wait < inf:
            reason = "non-finite" if not isfinite(wait) else "negative"
            diagnostics.append(f"row {reader.line_num}: {reason} wait ({raw_wait})")
            continue
        key = (*slice_, stamp)
        if key in records:
            replaced.append((records.pop(key), key))
        records[key] = len(waits)
        waits.append(wait)

    result.rejected_rows = len(diagnostics)  # only rejections so far
    result.duplicate_rows = len(replaced)
    # positions are distinct, so the sort never compares keys
    for _, (site, direction, vehicle_class, stamp) in sorted(replaced, reverse=True):
        diagnostics.append(
            f"duplicate observation for {site}/{direction}/{vehicle_class} "
            f"at {stamp.isoformat()}; kept last"
        )
    return result


def _parse_stamp(raw: str, hours: dict[datetime, datetime]) -> datetime | str:
    """A naive timestamp, recorded in ``hours`` with its clock hour, or why not."""
    text = raw.strip()
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError:
        return f"bad timestamp {text!r}"
    if stamp.tzinfo is not None:
        return f"timestamp carries a UTC offset ({text!r})"
    # The constructor is several times faster than replace(minute=0, ...).
    # An hour is its own clock hour, so its entry holds the one object that
    # all its stamps share, and aggregate_hourly compares hours by identity.
    hour = datetime(stamp.year, stamp.month, stamp.day, stamp.hour)
    hours[stamp] = hours.setdefault(hour, hour)
    return stamp


def _parse_slice(site: str, direction: str, vehicle_class: str) -> tuple[str, str, str] | str:
    """(site, direction, vehicle_class), canonical, or why the first bad field fails."""
    site = site.strip()
    if not site:
        return "empty site"
    try:
        direction = canonical(direction, DIRECTIONS, "direction")
        return site, direction, canonical(vehicle_class, VEHICLE_CLASSES, "vehicle class")
    except ValueError as exc:
        return str(exc)


def aggregate_hourly(parsed: ParseResult) -> dict[RecordKey, float]:
    """Arithmetic mean of wait minutes per (site, direction, class, clock hour).

    A record at timestamp t contributes to the hour floor(t); hours with no
    records are simply absent. For an hourly feed the single value is the mean.
    Each hour's sum adds its waits in file order with plain ``+``: a mean on
    a category bound can move by one bit under another order or under a
    compensated sum (``sum`` is one from Python 3.12).
    """
    hours, waits = parsed.hours, parsed.waits
    sums: dict[tuple, float] = {}
    counts: dict[tuple, int] = {}
    # Rows of one hour and slice mostly sit together, so sum each run in
    # locals and store it when the key changes; a key seen again resumes
    # its stored sum, which keeps the additions in file order.
    current, total, count = None, 0.0, 0
    for (site, direction, vehicle_class, stamp), position in parsed.records.items():
        key = (site, direction, vehicle_class, hours[stamp])
        if key != current:
            if current is not None:
                sums[current], counts[current] = total, count
            current = key
            total, count = sums.get(key, 0.0), counts.get(key, 0)
        total += waits[position]
        count += 1
    if current is not None:
        sums[current], counts[current] = total, count
    return {key: sums[key] / counts[key] for key in sums}


def discretize(mean_wait: float) -> int:
    """Map mean wait minutes to a wait category, 1..4.

    Exactly 0 -> 1 (no waiting); (0, 15] -> 2 (slight delay);
    (15, 30] -> 3 (delay); above 30 -> 4 (heavy delay).
    """
    if mean_wait < 0:
        raise ValueError(f"wait minutes must be non-negative, got {mean_wait}")
    if mean_wait == 0:
        return 1
    if mean_wait <= 15:
        return 2
    if mean_wait <= 30:
        return 3
    return 4


def build_transactions(
    hourly: Mapping[RecordKey, float],
    attributes: Sequence[str],
    direction: str,
    vehicle_class: str,
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
        items = tuple((site, discretize(values[site])) for site in attributes)
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
            fields = [txn.timestamp.strftime(HOUR_FORMAT)]
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
                transactions.append(parse_hour_row(parts, attributes))
            except ValueError as exc:
                raise IngestError(f"{path}:{lineno}: {exc}")
    return transactions, attributes


def parse_hour_row(fields: Sequence[str], attributes: Sequence[str]) -> Transaction:
    """The hour that starts an artifact row: a stamp, then a category per attribute.

    Raises ValueError on a bad field, on a category outside 1..4, or on a
    UTC offset or seconds, which HOUR_FORMAT would not write back.
    """
    stamp = datetime.fromisoformat(fields[0])
    if stamp.tzinfo is not None:
        raise ValueError(f"timestamp carries a UTC offset ({fields[0]!r})")
    if stamp.second or stamp.microsecond:
        raise ValueError(f"timestamp has seconds ({fields[0]!r})")
    categories = [int(text) for text in fields[1 : 1 + len(attributes)]]
    if not {1, 2, 3, 4}.issuperset(categories):
        bad = ",".join(f"{a}:{c}" for a, c in zip(attributes, categories) if not 1 <= c <= 4)
        raise ValueError(f"category outside 1..4 ({bad})")
    return Transaction(timestamp=stamp, items=tuple(zip(attributes, categories)))
