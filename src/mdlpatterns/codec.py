"""Dictionary-based compressor: pattern table, greedy covering, code lengths, MDL search.

The pattern table is the compression model. Every distinct item in the
database is always present as a singleton pattern, so any hour can be
covered; multi-item patterns are admitted one at a time when they shorten the
total description (database bits plus table bits, log base 2).

An hour's cover is a disjoint exact decomposition of its items into table
patterns, chosen greedily in canonical cover order: descending cardinality,
then descending usage, then lexicographic items. A pattern's code length is
-log2 of its share of all usages, so frequent patterns get short codes; an
hour's code length (the anomaly score downstream) is the sum over its cover.

A pattern is a frozenset of items, and the table maps each pattern to its
usage, as Krimp's code table holds itemsets with usages. Covers, usages and
code lengths depend only on which distinct row an hour is, so compress is
handed the database that mining and scoring are handed too: distinct rows
with multiplicities (``ingest.DistinctRows``; usage over a multiset, as in
Krimp). A cover pass sweeps the patterns once over all rows' bitmasks; a
pattern's usage, like a singleton's raw count, is the weight of the rows it
takes, counted as mining counts support. Passes repeat until the cover order
is stable. Each taken-row mask is split once per call into its weight and
its row positions. Compress and scoring share one walk from a sweep to row
bits: in cover order, it adds each pattern's code length to the bits of the
rows the pattern takes. No trial spreads its sweep into per-row covers; only
scoring does, to write them out. The length is one correctly rounded sum of
each distinct row's bits times its multiplicity, whatever the row order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import fsum, inf, log2
from operator import mul
from typing import Mapping, Sequence

from .ingest import DistinctRows, Item
from .mining import cover_order, format_items, parse_items
from .mining import frequent_itemsets  # noqa: F401  (perfbench/tracer.py wraps this binding)

# Cover/usage consistency: usages are defined by covers and covers scan in
# usage order, so cover passes repeat until the order is stable. Preference
# feeds back positively, so in practice this takes a pass or two; a trial
# still moving after the cap raises rather than continuing on unsettled usages.
_MAX_RECOVER_PASSES = 25


@dataclass
class PatternTable:
    """The code dictionary: pattern -> usage, plus fixed singleton-item statistics.

    ``usages`` is in table order: sorted singletons, then accepted candidates
    in acceptance order. Every length is one correctly rounded sum, so no
    number depends on that order.
    ``singleton_counts`` holds the raw occurrence count of each item over the
    whole database, fixed at initialization and independent of the evolving
    covers.
    """

    usages: dict[frozenset[Item], int]
    singleton_counts: dict[Item, int]


@dataclass(frozen=True)
class TrialRecord:
    items: frozenset[Item]
    support: int
    trial_length: float
    accepted: bool
    length_after: float


@dataclass
class CompressionResult:
    table: PatternTable
    initial_length: float
    final_length: float
    log: list[TrialRecord] = field(default_factory=list)

    @property
    def compression_ratio(self) -> float:
        return self.final_length / self.initial_length


def init_pattern_table(db: DistinctRows) -> PatternTable:
    """Singleton-only table: one pattern per distinct item, usage = raw count."""
    if not db.weights:
        raise ValueError("cannot build a pattern table from an empty database")
    counts = {item: db.weight(rows) for item, rows in sorted(db.holding.items())}
    return PatternTable(
        usages={frozenset([item]): count for item, count in counts.items()},
        singleton_counts=counts,
    )


def _sweep(db: DistinctRows, order: Sequence[frozenset]) -> list[int]:
    """Greedy cover of every distinct row under one cover order: each pattern's taken rows.

    Visits each pattern once, in order, and takes it for every row in which
    all its items are still uncovered: for each row, exactly the parts, in
    the same order, that a scan of that row alone would pick.
    """
    uncovered = dict(db.holding)  # row bitmasks, as in DistinctRows.holding
    taken_rows = []
    for pattern in order:
        taken = -1
        for item in pattern:
            taken &= uncovered.get(item, 0)
        if taken:
            for item in pattern:
                uncovered[item] &= ~taken
        taken_rows.append(taken)
    stranded = 0
    for rows in uncovered.values():
        stranded |= rows
    if stranded:  # pre-condition violation: some item has no singleton
        first = stranded & -stranded  # the first distinct row that failed
        missing = format_items(item for item, rows in uncovered.items() if rows & first)
        raise ValueError(f"table cannot cover item(s) {missing}")
    return taken_rows


class _Splits(dict):
    """Taken-row mask -> (its weight, its set bits' row positions ascending).

    Each mask is split on its first lookup. compress keeps one per call, as
    its passes and trials take the same few masks again and again.
    """

    def __init__(self, db: DistinctRows) -> None:
        super().__init__()
        self.db = db

    def __missing__(self, rows: int) -> tuple[int, tuple[int, ...]]:
        positions = []
        remaining = rows
        while remaining:
            positions.append((remaining & -remaining).bit_length() - 1)
            remaining &= remaining - 1  # clear the lowest set bit
        self[rows] = split = (self.db.weight(rows), tuple(positions))
        return split


def _expand(db: DistinctRows, order: Sequence[frozenset], taken_rows: Sequence[int],
            splits: _Splits) -> list[tuple[frozenset, ...]]:
    """Each distinct row's cover, its parts in cover order, from a sweep's taken rows."""
    parts: list[list[frozenset]] = [[] for _ in db.weights]
    for pattern, taken in zip(order, taken_rows):
        for row in splits[taken][1]:
            parts[row].append(pattern)
    return [tuple(row_parts) for row_parts in parts]


def _row_bits(db: DistinctRows, order: Sequence[frozenset], taken_rows: Sequence[int],
              lengths: Mapping, splits: _Splits) -> list[float]:
    """Each distinct row's bits: walking the sweep in cover order adds each
    pattern's code length to every row it takes, from integer 0. A loop, not
    ``sum``, which compensates float rounding from Python 3.12 on, so a row's
    bits are the same on every Python. A zero-usage pattern that takes a row
    is a ValueError."""
    bits = [0] * len(db.weights)
    try:
        for pattern, taken in zip(order, taken_rows):
            if taken:
                length = lengths[pattern]
                for row in splits[taken][1]:
                    bits[row] += length
    except KeyError:  # code_lengths leaves out every zero-usage pattern
        unused = format_items(pattern)
        raise ValueError(f"pattern {unused} has zero usage; it carries no code") from None
    return bits


def _settle(table: PatternTable, db: DistinctRows, trial: str, names=None,
            splits=None) -> tuple[list[frozenset], list[int]]:
    """Cover passes until usages are self-consistent; returns the settled sweep.

    Each pass sets every usage to the weight of the rows whose covers take it.
    Once the order after a pass equals the order before it, another pass would
    repeat its covers, and that pass's cover order and each pattern's taken
    rows are returned. Raises ValueError naming ``trial`` at the pass cap;
    ``names`` is cover_order's, and ``splits`` a ``_Splits`` of ``db``.
    """
    splits = _Splits(db) if splits is None else splits
    order = cover_order(table.usages, names)
    for _ in range(_MAX_RECOVER_PASSES):
        taken_rows = _sweep(db, order)
        usages = dict(zip(order, [splits[taken][0] for taken in taken_rows]))
        table.usages = {pattern: usages[pattern] for pattern in table.usages}  # table order
        previous, order = order, cover_order(table.usages, names)
        if order == previous:
            return order, taken_rows
    raise ValueError(f"cover order for {trial} did not settle in {_MAX_RECOVER_PASSES} passes")


def code_lengths(table: PatternTable) -> dict[frozenset[Item], float]:
    """-log2(usage / total usage) of every in-use pattern."""
    total = sum(table.usages.values())
    return {p: -log2(usage / total) for p, usage in table.usages.items() if usage > 0}


def cover_rows(db: DistinctRows, table: PatternTable) -> tuple[list[float], list[tuple]]:
    """Each distinct row's bits and cover, from one sweep under the table as given."""
    order = cover_order(table.usages)
    taken_rows, splits = _sweep(db, order), _Splits(db)
    bits = _row_bits(db, order, taken_rows, code_lengths(table), splits)
    return bits, _expand(db, order, taken_rows, splits)


def _database_bits(db: DistinctRows, row_bits: Sequence[float]) -> float:
    return fsum(map(mul, row_bits, db.weights))


def _table_bits(table: PatternTable, lengths: Mapping) -> float:
    # Code lengths of all in-use patterns, plus the fixed singleton-item
    # encoding: the sum of -r_i * log2(r_i / c) over raw item counts.
    c = sum(table.singleton_counts.values())
    return fsum([*lengths.values(), *(-r * log2(r / c) for r in table.singleton_counts.values())])


def compress(db: DistinctRows, candidates: Mapping[frozenset[Item], int]) -> CompressionResult:
    """Greedy MDL selection of a pattern table from mined candidate itemsets.

    Seeds the singleton table, computes the initial length L0, then trials
    each candidate (itemset -> support, in the given order; ``frequent_itemsets``
    returns canonical order) once, on a copy of the table: insert, settle
    usages, and keep the copy only if the total length strictly drops.
    Multi-item patterns left unused by a later accepted candidate are pruned;
    singletons always stay. A candidate already in the table is a ValueError.
    """
    table = init_pattern_table(db)
    names = {pattern: tuple(sorted(pattern)) for pattern in (*table.usages, *candidates)}
    splits = _Splits(db)

    def settled_length(model: PatternTable, trial: str) -> float:
        order, taken_rows = _settle(model, db, trial, names, splits)
        lengths = code_lengths(model)
        row_bits = _row_bits(db, order, taken_rows, lengths, splits)
        return _database_bits(db, row_bits) + _table_bits(model, lengths)

    initial = best = settled_length(table, "the singleton table")
    log: list[TrialRecord] = []
    for items, support in candidates.items():
        if items in table.usages:
            raise ValueError(f"candidate {format_items(items)} is already in the table")
        # Provisional usage = support places the newcomer among its
        # same-cardinality peers for the trial's first cover pass.
        trial = replace(table, usages={**table.usages, items: support})
        length = settled_length(trial, f"candidate {format_items(items)}")
        accepted = length < best
        if accepted:
            best = length
            trial.usages = {p: u for p, u in trial.usages.items() if u > 0 or len(p) == 1}
            table = trial
        log.append(TrialRecord(items, support, length, accepted, best))
    return CompressionResult(table=table, initial_length=initial, final_length=best, log=log)


# --- whole-database helpers outside the pipeline ---------------------------------
# compress and score_all share one walk from a sweep to row bits (_row_bits):
# compress on each trial's settled sweep, score_all through cover_rows.
# Neither calls these five, which the tests use as oracles. They stay here, not
# in tests/helpers.py, because the benchmark's tracer (perfbench/tracer.py)
# wraps them by name, and tests/test_tracer_targets.py checks that they
# resolve. They can move once the tracer reads run metrics instead of
# wrapping functions.

def cover_database(db: DistinctRows, table: PatternTable) -> list[tuple[frozenset, ...]]:
    """Every hour's cover, in time order, under one fixed canonical order (single pass)."""
    order = cover_order(table.usages)
    covers = _expand(db, order, _sweep(db, order), _Splits(db))
    return [covers[row] for row in db.index]


def recompute_usages(table: PatternTable, db: DistinctRows) -> PatternTable:
    """Set every pattern's usage to the number of covers that include it."""
    _settle(table, db, "the table")
    return table


def database_length(db: DistinctRows, table: PatternTable) -> float:
    """Total bits to encode every hour under the table."""
    return _database_bits(db, cover_rows(db, table)[0])


def table_length(table: PatternTable) -> float:
    """Bits to encode the table itself."""
    return _table_bits(table, code_lengths(table))


def total_length(db: DistinctRows, table: PatternTable) -> float:
    return database_length(db, table) + table_length(table)


# --- pattern table file format -------------------------------------------------
# Pattern lines: "site:cat,...<TAB>usage<TAB>code_length_bits", in canonical
# cover order. Leading '#' lines carry the fixed singleton statistics so a
# reloaded table supports every length computation without the database.

def write_pattern_table(path: str, table: PatternTable) -> None:
    lengths = code_lengths(table)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# pattern-table v1\n")
        fh.write(f"# total_singleton_count\t{sum(table.singleton_counts.values())}\n")
        for item in sorted(table.singleton_counts):
            fh.write(f"# item_count\t{format_items([item])}\t{table.singleton_counts[item]}\n")
        for pattern in cover_order(table.usages):
            bits = lengths.get(pattern, inf)  # formats as "inf"
            fh.write(f"{format_items(pattern)}\t{table.usages[pattern]}\t{bits:.9f}\n")


def read_pattern_table(path: str) -> PatternTable:
    """Reload a written table. Code lengths are derived from usages, so the
    stored bits column is informational only. Each item count is stated once
    and is at least 1, and a stated total singleton count must be their sum."""
    usages: dict[frozenset[Item], int] = {}
    singleton_counts: dict[Item, int] = {}
    totals: list[tuple[int, int]] = []  # (line number, stated total)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                if line.startswith("#"):
                    fields = line[1:].strip().split("\t")
                    if fields[0] == "total_singleton_count":
                        totals.append((lineno, int(fields[1])))
                    elif fields[0] == "item_count":
                        (item,) = parse_items(fields[1])  # one item, or ValueError
                        if item in singleton_counts:
                            raise ValueError(f"repeated item count {fields[1]}")
                        singleton_counts[item] = int(fields[2])
                        if singleton_counts[item] < 1:
                            raise ValueError(f"item count {fields[2]} for {fields[1]} is below 1")
                    continue
                items_text, usage_text, _bits = line.split("\t")
                pattern, usage = parse_items(items_text), int(usage_text)
                if usage < 0:
                    raise ValueError(f"negative usage {usage} for {items_text}")
                if pattern in usages:
                    raise ValueError(f"repeated pattern {items_text}")
                usages[pattern] = usage
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}")
    if not usages:
        raise ValueError(f"{path}: no patterns found")
    count = sum(singleton_counts.values())
    for lineno, total in totals:
        if total != count:
            raise ValueError(
                f"{path}:{lineno}: total_singleton_count {total}, item counts sum to {count}"
            )
    return PatternTable(usages=usages, singleton_counts=singleton_counts)


# --- acceptance log file format --------------------------------------------

def write_acceptance_log(path: str, result: CompressionResult) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# acceptance-log v1\n")
        fh.write(f"# initial_length\t{result.initial_length:.9f}\n")
        fh.write(f"# final_length\t{result.final_length:.9f}\n")
        fh.write("candidate\tsupport\ttrial_length\taccepted\tlength_after\n")
        for record in result.log:
            fh.write(
                f"{format_items(record.items)}\t{record.support}\t"
                f"{record.trial_length:.9f}\t"
                f"{'yes' if record.accepted else 'no'}\t{record.length_after:.9f}\n"
            )
