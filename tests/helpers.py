"""Shared builders and independent oracles for the test suite.

The oracles here deliberately take the slow, obvious route (enumerate every
subset, try every pattern combination) so the optimized implementations have
something honest to be checked against.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import reduce
from itertools import combinations
from math import fsum, isfinite, log2
from operator import add
from typing import Iterable, Mapping, NamedTuple, Sequence

from hypothesis import strategies as st

from mdlpatterns.anomaly import SCORES_TAIL, Ranking
from mdlpatterns.codec import (
    _MAX_RECOVER_PASSES,
    CompressionResult,
    PatternTable,
    compress,
    cover_database,
    cover_order,
    database_length,
    init_pattern_table,
    recompute_usages,
    total_length,
)
from mdlpatterns.ingest import DistinctRows, IngestError, ParseResult, hour_text, parse_records
from mdlpatterns.mining import format_items, frequent_itemsets, parse_items
from mdlpatterns.synth import SyntheticDataset, WaitTimeRecord, write_records_csv

BASE = datetime(2016, 8, 22)


@dataclass(frozen=True)
class Hour:
    """One hourly row, as the builders and oracles here hold it: its hour as
    hour_text writes it, as the database holds it, and a category per site."""

    timestamp: str
    items: tuple


class ScoredHour(NamedTuple):
    """One ranked hour, as the scores oracles here hold it; its hour as hour_text writes it."""

    timestamp: str
    items: tuple
    score: float
    cover: str


def collapse(hours: Sequence[Hour]) -> DistinctRows:
    """The database of ``hours``, built as ingest builds it: each hour is its text."""
    return DistinctRows([hour.timestamp for hour in hours], [hour.items for hour in hours])


def hours_of(db: DistinctRows) -> list[Hour]:
    """The database's hours, in its order (time)."""
    return [Hour(stamp, db.items[row]) for stamp, row in zip(db.hours, db.index)]


def scored_hours(ranking: Ranking) -> list[ScoredHour]:
    """The ranking's hours, in rank order, each with its row's items, score and cover."""
    return [
        ScoredHour(stamp, ranking.items[row], ranking.bits[row], ranking.covers[row])
        for stamp, row in zip(ranking.hours, ranking.index)
    ]


def make_db(
    combos: Sequence[tuple[int, ...]],
    attrs: Sequence[str] = ("PB", "LQ", "RB"),
) -> list[Hour]:
    """One hour per category combo, consecutive hourly timestamps."""
    rows = []
    for i, cats in enumerate(combos):
        items = tuple((attr, int(cat)) for attr, cat in zip(attrs, cats))
        rows.append(Hour(timestamp=hour_text(BASE + timedelta(hours=i)), items=items))
    return rows


def random_db(
    rng: random.Random,
    max_rows: int = 12,
    attrs: Sequence[str] = ("A", "B", "C"),
    max_cat: int = 4,
    min_rows: int = 1,
) -> list[Hour]:
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


def support(items: frozenset, transactions: Sequence[Hour]) -> int:
    """Number of transactions whose item set contains all of ``items``."""
    items = frozenset(items)
    return sum(1 for txn in transactions if items <= frozenset(txn.items))


def brute_force_frequent(
    transactions: Sequence[Hour], least: int
) -> set[tuple[frozenset, int]]:
    """Every itemset of size >= 2 with support at least ``least``, by direct enumeration.

    Tries each combination of observed items up to the longest row size (a
    larger set cannot be contained in any row) and counts supersets one row
    at a time.
    """
    universe = sorted({item for txn in transactions for item in txn.items})
    longest_row = max(len(txn.items) for txn in transactions)
    found = set()
    for size in range(2, min(len(universe), longest_row) + 1):
        for combo in combinations(universe, size):
            items = frozenset(combo)
            sup = support(items, transactions)
            if sup >= least:
                found.add((items, sup))
    return found


def mine_and_compress(transactions: Sequence[Hour], least: int = 2) -> CompressionResult:
    """Mine at ``least`` and compress on one collapse of the hours, as ``run`` does."""
    db = collapse(transactions)
    return compress(db, frequent_itemsets(db, least))


def exhaustive_best_length(
    transactions: Sequence[Hour], candidates: Mapping[frozenset, int]
) -> float:
    """Minimum total length over every subset of the candidate patterns.

    The empty subset (singletons only) is included, so this is always a lower
    bound for what the greedy search can reach with the same candidates.
    """
    best = None
    db = collapse(transactions)
    for mask in range(2 ** len(candidates)):
        table = init_pattern_table(db)
        for bit, (items, sup) in enumerate(candidates.items()):
            if mask >> bit & 1:
                table.usages[items] = sup
        recompute_usages(table, db)
        length = total_length(db, table)
        if best is None or length < best:
            best = length
    return best


def cover_transaction(txn: Hour, table: PatternTable) -> tuple[frozenset, ...]:
    """One hour's cover under the table's current order."""
    return cover_database(collapse([txn]), table)[0]


def left_to_right(values: Iterable[float]) -> float:
    """The values added one at a time from 0, in order: a row's bits, on any
    Python (builtin ``sum`` compensates float rounding from 3.12 on)."""
    return reduce(add, values, 0)


def pattern_code_length(pattern: frozenset, table: PatternTable) -> float:
    """-log2(usage / total usage), straight from the definition. A pattern
    with zero usage carries no code, so asking for its length is an error."""
    usage = table.usages[pattern]
    if usage == 0:
        raise ValueError(f"pattern {format_items(pattern)} has zero usage")
    return -log2(usage / sum(table.usages.values()))


def transaction_code_length(txn: Hour, table: PatternTable) -> float:
    """One hour's code length: the sum over its cover."""
    return database_length(collapse([txn]), table)


def canonical_key(items: frozenset, weight: int) -> tuple:
    """Sort key of the canonical order, from its definition: descending
    cardinality, then descending weight (usage or support), then lexicographic
    items."""
    return (-len(items), -weight, tuple(sorted(items)))


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


def settle_oracle(table: PatternTable, transactions: Sequence[Hour]) -> dict:
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
        usages = table.usages  # in place: the caller sees the settled usages
        usages.update(dict.fromkeys(usages, 0))
        for items, parts in covers.items():
            for part in parts:
                usages[part] += multiplicity[items]
        previous, order = order, cover_order(usages)
        if order == previous:
            return covers
    raise ValueError(f"cover order did not settle in {_MAX_RECOVER_PASSES} passes")


def settled_length_oracle(table: PatternTable, transactions: Sequence[Hour]) -> float:
    """Settle the table with settle_oracle, then its total length in bits: each
    distinct row's code lengths added in cover order, times its multiplicity,
    plus the table's codes and singleton-item terms, each side one fsum."""
    covers = settle_oracle(table, transactions)
    total = sum(table.usages.values())
    lengths = {p: -log2(usage / total) for p, usage in table.usages.items() if usage > 0}
    multiplicity = Counter(frozenset(txn.items) for txn in transactions)
    rows = fsum(left_to_right(lengths[p] for p in parts) * multiplicity[r]
                for r, parts in covers.items())
    c = sum(table.singleton_counts.values())
    items = [-r * log2(r / c) for r in table.singleton_counts.values()]
    return rows + fsum([*lengths.values(), *items])


def compress_oracle(
    transactions: Sequence[Hour], candidates: Mapping[frozenset, int]
) -> tuple[float, list[float], PatternTable]:
    """The greedy search with every trial settled and measured by the oracles
    above: (initial length, each candidate's trial length, final table)."""
    table = init_pattern_table(collapse(transactions))
    initial = best = settled_length_oracle(table, transactions)
    trials = []
    for items, support in candidates.items():
        trial = table._replace(usages={**table.usages, items: support})
        trials.append(settled_length_oracle(trial, transactions))
        if trials[-1] < best:
            best = trials[-1]
            table = trial._replace(usages={p: u for p, u in trial.usages.items()
                                           if u > 0 or len(p) == 1})
    return initial, trials, table


def parse_synthetic(dataset: SyntheticDataset, tmp_path) -> ParseResult:
    """Write a synthetic dataset as a raw feed and parse it back, as ``run`` does."""
    path = tmp_path / "raw.csv"
    write_records_csv(str(path), dataset.records)
    with open(path, "r", encoding="utf-8") as fh:
        return parse_records(fh)


# --- ingest oracle: averaged in a later pass ------------------------------------


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


def read_transactions_oracle(path: str) -> tuple[list[Hour], list[str]]:
    """The per-row transaction reader that read_transactions replaced; its
    hours come in file order, each as hour_text writes it."""
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
        if "" in attributes:
            raise IngestError(f"{path}: transaction header names an empty site ({header!r})")
        transactions, seen = [], set()  # seen: the earlier rows' hour texts
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(columns):
                raise IngestError(f"{path}:{lineno}: expected {len(columns)} fields")
            try:
                transactions.append(_oracle_hour_row(parts, attributes, seen))
            except ValueError as exc:
                raise IngestError(f"{path}:{lineno}: {exc}")
            seen.add(transactions[-1].timestamp)
    return transactions, attributes


def read_scores_oracle(path: str) -> tuple[list[ScoredHour], list[str]]:
    """The per-row scores reader that read_scores replaced, with its checks:
    every row compared with all the rows before it. Its hours are texts, as
    hour_text writes them, compared as the clock hours they name."""
    scored, seen = [], set()  # seen: the earlier rows' hour texts
    latest = {}  # each row text (categories, score and cover) -> its latest hour
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        attributes = header[1:-3]
        if not attributes or [header[0], *header[-3:]] != ["timestamp", *SCORES_TAIL]:
            raise ValueError(f"{path}: bad scores header")
        if len(set(attributes)) != len(attributes):
            raise ValueError(f"{path}: scores header names a site twice")
        if "" in attributes:
            raise ValueError(f"{path}: scores header names an empty site")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                transaction = _oracle_hour_row(fields, attributes, seen)
                score = float(fields[-3])
                if not isfinite(score):
                    raise ValueError(f"non-finite score {fields[-3]}")
                covered = [item for part in fields[-1].split("|") for item in parse_items(part)]
                if sorted(covered) != sorted(transaction.items):
                    raise ValueError(f"cover {fields[-1]} does not split the row's items")
                # a rank is written as str() writes its place; int() would
                # also read "+1", " 1", "01" or "0_1"
                place = str(len(scored) + 1)
                if fields[-2] != place:
                    raise ValueError(f"rank {fields[-2]!r} out of place (expected {place})")
                if scored and score > scored[-1].score:
                    raise ValueError(
                        f"score {score!r} above the row before it ({scored[-1].score!r})"
                    )
                text = (*fields[1:-2], fields[-1])
                if text in latest and (datetime.fromisoformat(latest[text])
                                       > datetime.fromisoformat(transaction.timestamp)):
                    raise ValueError(f"one row's hours out of order ({latest[text]} first)")
                stamp, items = transaction.timestamp, transaction.items
                scored.append(ScoredHour(stamp, items, score, fields[-1]))
                seen.add(stamp)
                latest[text] = stamp
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}")
    return scored, attributes


# The one stamp form the staged readers take, in ASCII: an hour as hour_text writes it.
HOUR_STAMP = re.compile(r"\d{4}-\d\d-\d\dT\d\d:00", re.ASCII)


def _oracle_hour_row(
    fields: Sequence[str], attributes: Sequence[str], earlier: set[str]
) -> Hour:
    """The stamp, as hour_text writes it, and categories that start an artifact
    row; ValueError on a stamp not in HOUR_STAMP or naming no date and hour,
    or on an hour in ``earlier``, the hour texts of the rows before it."""
    hour = fields[0]
    try:
        if not HOUR_STAMP.fullmatch(hour):
            raise ValueError
        datetime(int(hour[:4]), int(hour[5:7]), int(hour[8:10]), int(hour[11:13]))
    except ValueError:
        raise ValueError(f"bad hour {hour!r} (expected YYYY-MM-DDTHH:00)")
    if hour in earlier:
        raise ValueError(f"repeated hour {hour}")
    texts = fields[1 : 1 + len(attributes)]
    categories = [int(text) for text in texts]
    # int() also reads " 2", "+2" and other scripts' digits, which no writer writes
    written = [str(category) == text and 1 <= category <= 4
               for text, category in zip(texts, categories)]
    if not all(written):
        bad = ",".join(f"{a}:{t}" for a, t, ok in zip(attributes, texts, written) if not ok)
        raise ValueError(f"category outside 1..4 ({bad})")
    return Hour(timestamp=hour, items=tuple(zip(attributes, categories)))


def write_scores_oracle(
    path: str, scored: Sequence[ScoredHour], attributes: Sequence[str]
) -> None:
    """The per-row scores writer that write_scores replaced."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("timestamp\t" + "\t".join(attributes) + "\tscore_bits\trank\tcover\n")
        for rank, entry in enumerate(scored, start=1):
            cats = dict(entry.items)
            fields = [entry.timestamp]
            fields.extend(str(cats[attr]) for attr in attributes)
            fields.append(f"{entry.score:.9f}")
            fields.append(str(rank))
            fields.append(entry.cover)
            fh.write("\t".join(fields) + "\n")


# Stamps that no staged reader accepts: unparseable, a date with no time of
# day, with a UTC offset, with seconds, off the hour, an impossible date, and
# an hour written otherwise than hour_text writes it.
BAD_STAMPS = [
    "notadate", "", "2016-08-22", "2016-08-22T11:00+02:00", "2016-08-22T12:30:45",
    "2016-08-22T12:00:00.5", "2016-08-22T12:30", "2016-02-30T10:00", "2016-08-22 12:00",
    "2016-08-22T12:00:00", "2016-08-22T12", "20160822T1200", " 2016-08-22T12:00",
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
                rank = draw(st.sampled_from([" 7", "x", "1.5", "", "0", f"+{rank}", f"0{rank}"]))
            fields = [*pool[at][:-1], rank, pool[at][-1]]
        if kind == "short":
            fields.pop(draw(st.integers(0, len(fields) - 1)))
        elif kind == "long":
            fields.append("1")
        elif kind == "stamp alone":
            fields = []
        rows.append([stamp, *fields])
    return rows


# A long artifact file has LONG_ROWS rows, so a change to row LATE follows
# hundreds of stamps as hour_text writes them, which a reader takes in one call.
LONG_ROWS, LATE = 1000, 990
# The changes change_late_row makes: one late fault, one late stamp naming
# its hour otherwise than hour_text writes it, which the readers reject too,
# or two faults. Only "hours out of order" leaves a file the readers accept.
LATE_CHANGES = [
    "bad stamp", "impossible date", "off the hour", "repeat", "repeat with a space",
    "space for the T", "seconds", "hour alone", "hours out of order",
    "stamp then category", "category then stamp",
]


def change_late_row(rows: list[list[str]], change: str) -> None:
    """Make one of LATE_CHANGES to a long file's rows: field lists, each a stamp
    then a category. "hours out of order" swaps the stamps of rows LATE - 1
    and LATE; a "repeat" takes row 5's stamp."""
    late, stamp = rows[LATE], rows[LATE][0]
    if change == "bad stamp":
        late[0] = "notadate"
    elif change == "impossible date":  # as hour_text writes a stamp, but no date
        late[0] = "2016-02-30T10:00"
    elif change == "off the hour":
        late[0] = stamp[:-2] + "30"
    elif change == "repeat":
        late[0] = rows[5][0]
    elif change == "repeat with a space":
        late[0] = rows[5][0].replace("T", " ")
    elif change == "space for the T":
        late[0] = stamp.replace("T", " ")
    elif change == "seconds":
        late[0] = stamp + ":00"
    elif change == "hour alone":
        late[0] = stamp[:-3]
    elif change == "hours out of order":
        rows[LATE - 1][0], late[0] = stamp, rows[LATE - 1][0]
    elif change == "stamp then category":
        rows[LATE - 5][0], late[1] = "notadate", "9"
    elif change == "category then stamp":
        rows[LATE - 5][1], late[0] = "9", "notadate"
    else:
        raise ValueError(f"unknown change {change!r}")


# Texts that int() reads as 1 but no writer writes: a sign, a space, an
# Arabic-Indic digit, a digit group, a leading zero.
NONCANONICAL_ONES = ["+1", " 1", "\u0661", "0_1", "01"]


def category_fields(width: int):
    """``width`` category fields, mostly valid; " 2", "+2", an Arabic-Indic 2,
    0, 9, x or an empty field are not."""
    field = st.sampled_from(["1", "2", "3", "4"] * 6 + [" 2", "+2", "\u0662", "0", "9", "x", ""])
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
