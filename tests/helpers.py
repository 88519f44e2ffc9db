"""Shared builders and independent oracles for the test suite.

The oracles here deliberately take the slow, obvious route (enumerate every
subset, try every pattern combination) so the optimized implementations have
something honest to be checked against.
"""

from __future__ import annotations

import csv
import random
from collections import Counter
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from itertools import combinations
from math import fsum, isfinite, log2
from typing import IO, Iterable, Mapping, Sequence

from hypothesis import strategies as st

from mdlpatterns import SupportThreshold
from mdlpatterns.anomaly import SCORES_TAIL, ScoredTransaction
from mdlpatterns.codec import (
    _MAX_RECOVER_PASSES,
    Cover,
    PatternTable,
    cover_database,
    cover_order,
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
from mdlpatterns.mining import distinct_rows, format_items, parse_items
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


# three sites with categories 1..4, or six with 1..2, so itemsets up to six items deep
DATABASES = st.one_of(db_strategy(), db_strategy(attrs=tuple("ABCDEF"), max_cat=2))


def support(items: frozenset, transactions: Sequence[Transaction]) -> int:
    """Number of transactions whose item set contains all of ``items``."""
    items = frozenset(items)
    return sum(1 for txn in transactions if items <= frozenset(txn.items))


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
        table = init_pattern_table(distinct_rows(transactions))
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


def settle_oracle(table: PatternTable, transactions: Sequence[Transaction]) -> dict:
    """Cover passes until the cover order is stable, usages added up row by row.

    Each pass covers each distinct row alone with the greedy scan, then adds
    the row's multiplicity to the usage of every part of its cover. The codec
    counts a pattern's usage on the rows it takes, all rows at once, and must
    reach exactly these usages. Returns each distinct row's settled cover,
    keyed by the row's items in order of first appearance.
    """
    multiplicity = Counter(frozenset(txn.items) for txn in transactions)
    order = cover_order(table.usages)
    for _ in range(_MAX_RECOVER_PASSES):
        covers = {items: greedy_cover_oracle(items, order) for items in multiplicity}
        usages = table.usages = dict.fromkeys(table.usages, 0)
        for items, parts in covers.items():
            for part in parts:
                usages[part] += multiplicity[items]
        previous, order = order, cover_order(usages)
        if order == previous:
            return covers
    raise ValueError(f"cover order did not settle in {_MAX_RECOVER_PASSES} passes")


def settled_length_oracle(table: PatternTable, transactions: Sequence[Transaction]) -> float:
    """Settle the table with settle_oracle, then its total length in bits: each
    distinct row's code lengths added in cover order, times its multiplicity,
    plus the table's codes and singleton-item terms, each side one fsum."""
    covers = settle_oracle(table, transactions)
    total = sum(table.usages.values())
    lengths = {p: -log2(usage / total) for p, usage in table.usages.items() if usage > 0}
    multiplicity = Counter(frozenset(txn.items) for txn in transactions)
    rows = fsum(sum(lengths[p] for p in parts) * multiplicity[r] for r, parts in covers.items())
    c = sum(table.singleton_counts.values())
    items = [-r * log2(r / c) for r in table.singleton_counts.values()]
    return rows + fsum([*lengths.values(), *items])


def compress_oracle(
    transactions: Sequence[Transaction], candidates: Mapping[frozenset, int]
) -> tuple[float, list[float], PatternTable]:
    """The greedy search with every trial settled and measured by the oracles
    above: (initial length, each candidate's trial length, final table)."""
    table = init_pattern_table(distinct_rows(transactions))
    initial = best = settled_length_oracle(table, transactions)
    trials = []
    for items, support in candidates.items():
        trial = replace(table, usages={**table.usages, items: support})
        trials.append(settled_length_oracle(trial, transactions))
        if trials[-1] < best:
            best = trials[-1]
            trial.usages = {p: u for p, u in trial.usages.items() if u > 0 or len(p) == 1}
            table = trial
    return initial, trials, table


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


# --- artifact I/O oracles: every row split, parsed and formatted in full ---------


def read_transactions_oracle(path: str) -> tuple[list[Transaction], list[str]]:
    """The per-row transaction reader that read_transactions replaced."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header:
            raise IngestError(f"{path}: empty transaction file")
        columns = header.split(",")
        if columns[0] != "timestamp" or len(columns) < 2:
            raise IngestError(f"{path}: bad transaction header {header!r}")
        attributes = columns[1:]
        if len(set(attributes)) != len(attributes):
            raise IngestError(f"{path}: transaction header names a site twice ({header!r})")
        transactions = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(columns):
                raise IngestError(f"{path}:{lineno}: expected {len(columns)} fields")
            try:
                transactions.append(_oracle_hour_row(parts, attributes, transactions))
            except ValueError as exc:
                raise IngestError(f"{path}:{lineno}: {exc}")
    return transactions, attributes


def read_scores_oracle(path: str) -> tuple[list[ScoredTransaction], list[str]]:
    """The per-row scores reader that read_scores replaced, with its checks:
    every row compared with all the rows before it."""
    scored, texts = [], []  # texts: each row's categories, score and cover
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        attributes = header[1:-3]
        if not attributes or [header[0], *header[-3:]] != ["timestamp", *SCORES_TAIL]:
            raise ValueError(f"{path}: bad scores header")
        if len(set(attributes)) != len(attributes):
            raise ValueError(f"{path}: scores header names a site twice")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                earlier = [entry.transaction for entry in scored]
                transaction = _oracle_hour_row(fields, attributes, earlier)
                score = float(fields[-3])
                if not isfinite(score):
                    raise ValueError(f"non-finite score {fields[-3]}")
                covered = [item for part in fields[-1].split("|") for item in parse_items(part)]
                if sorted(covered) != sorted(transaction.items):
                    raise ValueError(f"cover {fields[-1]} does not split the row's items")
                rank = int(fields[-2])
                if rank != len(scored) + 1:
                    raise ValueError(f"rank {rank} out of place (expected {len(scored) + 1})")
                if scored and score > scored[-1].score:
                    raise ValueError(
                        f"score {score!r} above the row before it ({scored[-1].score!r})"
                    )
                text = (*fields[1:-2], fields[-1])
                same = [txn.timestamp for txn, other in zip(earlier, texts) if other == text]
                if same and max(same) > transaction.timestamp:
                    latest = max(same).isoformat(timespec="minutes")
                    raise ValueError(f"one row's hours out of order ({latest} first)")
                scored.append(ScoredTransaction(transaction, fields[-1], score))
                texts.append(text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}")
    return scored, attributes


def _oracle_hour_row(
    fields: Sequence[str], attributes: Sequence[str], earlier: Sequence[Transaction]
) -> Transaction:
    """The stamp and categories that start an artifact row; ValueError on a bad
    one, on an offset, seconds or minutes, or on an hour that an earlier row holds."""
    stamp = datetime.fromisoformat(fields[0])
    if stamp.tzinfo is not None:
        raise ValueError(f"timestamp carries a UTC offset ({fields[0]!r})")
    if stamp.second or stamp.microsecond:
        raise ValueError(f"timestamp has seconds ({fields[0]!r})")
    if stamp.minute:
        raise ValueError(f"timestamp is not on the hour ({fields[0]!r})")
    if any(txn.timestamp == stamp for txn in earlier):
        raise ValueError(f"repeated hour {stamp.isoformat(timespec='minutes')}")
    categories = [int(text) for text in fields[1 : 1 + len(attributes)]]
    if not {1, 2, 3, 4}.issuperset(categories):
        bad = ",".join(f"{a}:{c}" for a, c in zip(attributes, categories) if not 1 <= c <= 4)
        raise ValueError(f"category outside 1..4 ({bad})")
    return Transaction(timestamp=stamp, items=tuple(zip(attributes, categories)))


def write_scores_oracle(
    path: str, scored: Sequence[ScoredTransaction], attributes: Sequence[str]
) -> None:
    """The per-row scores writer that write_scores replaced."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("timestamp\t" + "\t".join(attributes) + "\tscore_bits\trank\tcover\n")
        for rank, entry in enumerate(scored, start=1):
            cats = dict(entry.transaction.items)
            fields = [entry.transaction.timestamp.isoformat(timespec="minutes")]
            fields.extend(str(cats[attr]) for attr in attributes)
            fields.append(f"{entry.score:.9f}")
            fields.append(str(rank))
            fields.append(entry.cover)
            fh.write("\t".join(fields) + "\n")


# Stamps that no staged reader accepts: unparseable, with a UTC offset, with
# seconds, off the hour.
BAD_STAMPS = [
    "notadate", "", "2016-08-22T11:00+02:00", "2016-08-22T12:30:45", "2016-08-22T12:00:00.5",
    "2016-08-22T12:30",
]


@st.composite
def artifact_rows(draw, pools, ranked: bool = False):
    """Rows of a staged artifact file as field lists ([] is a blank line).

    Each row is a stamp, then one of a few field lists drawn once from
    ``pools``, so equal texts repeat and one that is bad may first appear
    anywhere. A row may instead carry a bad stamp, an earlier row's hour (as
    written or with a space for the T), one field too few or too many, or its
    stamp alone.

    With ``ranked``, rows are mostly as write_scores writes them: they take
    the field lists in the pool's order (the caller's ranking), so one list's
    hours ascend, and a rank goes before the last field, the row's place among
    the data rows. A row may instead carry a bad rank, go back to the first
    field list (a higher score, or an equal one), or take an hour before every
    other row's.
    """
    pool = draw(pools)
    start = draw(st.sampled_from([datetime(2016, 8, 22), datetime(999, 12, 31, 21)]))
    kinds = ["good"] * 20 + ["bad stamp", "repeat", "short", "long", "stamp alone", "blank"]
    if ranked:
        kinds = ["good"] * 100 + kinds[20:] + ["bad rank", "climb", "early"]
    rows, stamps, at = [], [], 0
    for i in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            rows.append([])
            continue
        hour = start + timedelta(hours=-1 - i if kind == "early" else i)
        stamp = hour.isoformat(timespec="minutes")
        if kind == "bad stamp":
            stamp = draw(st.sampled_from(BAD_STAMPS))
        elif kind == "repeat" and stamps:
            stamp = draw(st.sampled_from(stamps)).replace("T", draw(st.sampled_from("T ")))
        stamps.append(stamp)
        if not ranked:
            fields = list(draw(st.sampled_from(pool)))
        else:
            at = 0 if kind == "climb" else min(at + draw(st.sampled_from([0, 0, 1])), len(pool) - 1)
            rank = str(len(stamps))
            if kind == "bad rank":
                rank = draw(st.sampled_from([" 7", "x", "1.5", "", "0"]))
            fields = [*pool[at][:-1], rank, pool[at][-1]]
        if kind == "short":
            fields.pop(draw(st.integers(0, len(fields) - 1)))
        elif kind == "long":
            fields.append("1")
        elif kind == "stamp alone":
            fields = []
        rows.append([stamp, *fields])
    return rows


def category_fields(width: int):
    """``width`` category fields, mostly valid; 0, 9, x or an empty field are not."""
    field = st.sampled_from(["1", "2", "3", "4"] * 6 + [" 2", "0", "9", "x", ""])
    return st.lists(field, min_size=width, max_size=width)


def read_manifest(path: str) -> list[datetime]:
    """The injected hours that synth.write_manifest wrote, one per line."""
    hours = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                hours.append(datetime.fromisoformat(line))
    return hours


def outcome(read, path: str):
    """What a reader returns, or the type and message of what it raises."""
    try:
        return read(path)
    except (IngestError, ValueError) as exc:
        return type(exc), str(exc)
