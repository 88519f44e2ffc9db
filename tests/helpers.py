"""Shared builders and independent oracles for the test suite.

The oracles here deliberately take the slow, obvious route (enumerate every
subset, try every pattern combination) so the optimized implementations have
something honest to be checked against.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import combinations
from math import isfinite, log2
from typing import IO, Iterable, Mapping, Sequence

from hypothesis import strategies as st

from mdlpatterns import SupportThreshold
from mdlpatterns.codec import (
    Cover,
    PatternTable,
    cover_database,
    database_length,
    init_pattern_table,
    recompute_usages,
    total_length,
)
from mdlpatterns.ingest import (
    COLUMNS,
    DIRECTIONS,
    VEHICLE_CLASSES,
    IngestError,
    ParseResult,
    Transaction,
    canonical,
    parse_records,
)
from mdlpatterns.mining import format_items
from mdlpatterns.synth import SyntheticDataset, WaitTimeRecord, write_records_csv

BASE = datetime(2016, 8, 22)


def make_db(
    combos: Sequence[tuple[int, ...]],
    attrs: Sequence[str] = ("PB", "LQ", "RB"),
) -> list[Transaction]:
    """One transaction per category combo, consecutive hourly timestamps."""
    rows = []
    for i, cats in enumerate(combos):
        items = tuple((attr, int(cat)) for attr, cat in zip(attrs, cats))
        rows.append(Transaction(timestamp=BASE + timedelta(hours=i), items=items))
    return rows


def random_db(
    rng: random.Random,
    max_rows: int = 12,
    attrs: Sequence[str] = ("A", "B", "C"),
    max_cat: int = 4,
    min_rows: int = 1,
) -> list[Transaction]:
    n = rng.randint(min_rows, max_rows)
    combos = [
        tuple(rng.randint(1, max_cat) for _ in attrs) for _ in range(n)
    ]
    return make_db(combos, attrs=attrs)


def db_strategy(max_rows: int = 12, attrs=("A", "B", "C"), max_cat: int = 4):
    """Hypothesis strategy for small databases over fixed attributes."""
    row = st.tuples(*(st.integers(1, max_cat) for _ in attrs))
    return st.lists(row, min_size=1, max_size=max_rows).map(
        lambda combos: make_db(combos, attrs=attrs)
    )


def support(items: frozenset, transactions: Sequence[Transaction]) -> int:
    """Number of transactions whose item set contains all of ``items``."""
    items = frozenset(items)
    return sum(1 for txn in transactions if items <= txn.item_set)


def brute_force_frequent(
    transactions: Sequence[Transaction], threshold: SupportThreshold
) -> set[tuple[frozenset, int]]:
    """Every itemset of size >= 2 meeting the threshold, by direct enumeration.

    Tries each combination of observed items up to the longest row size (a
    larger set cannot be contained in any row) and counts supersets one row
    at a time.
    """
    resolved = threshold.resolve(len(transactions))
    universe = sorted({item for txn in transactions for item in txn.items})
    longest_row = max(len(txn.items) for txn in transactions)
    found = set()
    for size in range(2, min(len(universe), longest_row) + 1):
        for combo in combinations(universe, size):
            items = frozenset(combo)
            sup = support(items, transactions)
            if threshold.meets(sup, resolved):
                found.add((items, sup))
    return found


def exhaustive_best_length(
    transactions: Sequence[Transaction], candidates: Mapping[frozenset, int]
) -> float:
    """Minimum total length over every subset of the candidate patterns.

    The empty subset (singletons only) is included, so this is always a lower
    bound for what the greedy search can reach with the same candidates.
    """
    best = None
    for mask in range(2 ** len(candidates)):
        table = init_pattern_table(transactions)
        for bit, (items, sup) in enumerate(candidates.items()):
            if mask >> bit & 1:
                table.usages[items] = sup
        recompute_usages(table, transactions)
        length = total_length(transactions, table)
        if best is None or length < best:
            best = length
    return best


def cover_transaction(txn: Transaction, table: PatternTable) -> Cover:
    """One transaction's cover under the table's current order."""
    return cover_database([txn], table)[0]


def pattern_code_length(pattern: frozenset, table: PatternTable) -> float:
    """-log2(usage / total usage), straight from the definition. A pattern
    with zero usage carries no code, so asking for its length is an error."""
    usage = table.usages[pattern]
    if usage == 0:
        raise ValueError(f"pattern {format_items(pattern)} has zero usage")
    return -log2(usage / sum(table.usages.values()))


def transaction_code_length(txn: Transaction, table: PatternTable) -> float:
    """One transaction's code length: the sum over its cover."""
    return database_length([txn], table)


def greedy_cover_oracle(items: frozenset, order: Sequence[frozenset]) -> tuple[frozenset, ...]:
    """Row-by-row greedy scan: take each pattern, in order, whose items are all
    still uncovered. The codec covers all distinct rows in one sweep over the
    patterns instead, and must pick exactly these parts."""
    uncovered = set(items)
    parts = []
    for pattern in order:
        if pattern <= uncovered:
            parts.append(pattern)
            uncovered -= pattern
    assert not uncovered, "oracle needs a table with every singleton"
    return tuple(parts)


def parse_synthetic(dataset: SyntheticDataset, tmp_path) -> ParseResult:
    """Write a synthetic dataset as a raw feed and parse it back, as ``run`` does."""
    path = tmp_path / "raw.csv"
    write_records_csv(str(path), dataset.records)
    with open(path, "r", encoding="utf-8") as fh:
        return parse_records(fh)


# --- ingest oracle: a record per row, deduplicated and averaged in later passes --


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


def _oracle_row(row: Mapping[str, str]) -> WaitTimeRecord:
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
    direction = canonical(row.get("direction") or "", DIRECTIONS, "direction")
    vehicle_class = canonical(row.get("vehicle_class") or "", VEHICLE_CLASSES, "vehicle class")
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


def aggregate_hourly_oracle(
    records: Iterable[WaitTimeRecord],
) -> dict[tuple[str, str, str, datetime], float]:
    """Mean wait per (site, direction, class, clock hour), one dict update per record."""
    sums: dict[tuple, float] = {}
    counts: dict[tuple, int] = {}
    for rec in records:
        hour = rec.timestamp.replace(minute=0, second=0, microsecond=0)
        key = (rec.site, rec.direction, rec.vehicle_class, hour)
        sums[key] = sums.get(key, 0.0) + rec.wait_minutes
        counts[key] = counts.get(key, 0) + 1
    return {key: sums[key] / counts[key] for key in sums}
