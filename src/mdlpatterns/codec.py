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
handed the database that mining and scoring are handed too: distinct rows with
multiplicities (``ingest.DistinctRows``; usage over a multiset, as in Krimp).
A cover pass sweeps the patterns once over all rows' bitmasks; a pattern's
usage, like a singleton's raw count, is the weight of the rows it takes,
counted as mining counts support. Passes repeat until the cover order is
stable. What a pattern takes depends only on the patterns before it, so a
trial's pass resumes the table's settled sweep, or the trial's last pass,
where its order leaves theirs; a candidate that takes no row where it enters
the table's sweep would only repeat the table's covers, and costs no pass. The
database works out a taken-row mask's weight once, and its row positions once,
whichever stage asks (``DistinctRows.weight`` and ``rows``). Compress and
scoring share one walk from a sweep to row bits: in cover order, it adds each
pattern's code length to the bits of the rows the pattern takes. No trial
spreads its sweep into per-row covers; only scoring does, to write them out.
The length is one correctly rounded sum of each distinct row's bits times its
multiplicity, whatever the row order.
"""

from __future__ import annotations

from functools import reduce
from itertools import islice
from math import fsum, inf, log2
from operator import and_, mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from .ingest import DistinctRows, Item, check_fields, parse_count
from .mining import cover_order, cover_ranks, format_items, parse_items
from .mining import frequent_itemsets  # noqa: F401  (perfbench/tracer.py wraps this binding)

# Cover/usage consistency: usages are defined by covers and covers scan in
# usage order, so cover passes repeat until the order is stable. Preference
# feeds back positively, so in practice this takes a pass or two; a trial
# still moving after the cap raises rather than continuing on unsettled usages.
_MAX_RECOVER_PASSES = 25


class PatternTable(NamedTuple):
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


class TrialRecord(NamedTuple):
    items: frozenset[Item]
    support: int
    trial_length: float
    accepted: bool
    length_after: float


class CompressionResult(NamedTuple):
    table: PatternTable
    initial_length: float
    final_length: float
    log: list[TrialRecord]

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


class _Patterns(dict):
    """Pattern -> its items' numbers, for every pattern one call may sweep, with
    their cover_ranks and each numbered item's rows (0 if no row holds it)."""

    def __init__(self, db: DistinctRows, patterns: Iterable[frozenset]) -> None:
        self.ranks = cover_ranks(patterns)
        self.numbered = sorted(set(db.holding).union(*self.ranks))
        number = {item: n for n, item in enumerate(self.numbered)}
        super().__init__((p, tuple(map(number.__getitem__, p))) for p in self.ranks)
        self.holding = [db.holding.get(item, 0) for item in self.numbered]


class _Sweep(NamedTuple):
    """A cover pass: its order, each pattern's taken rows, and the item masks
    still uncovered before each position and after the last (one list, copied
    where a pattern takes rows)."""

    order: list[frozenset]
    taken: list[int]
    uncovered: list[list[int]]


def _sweep(order: Sequence[frozenset], patterns: _Patterns, resumable=()) -> _Sweep:
    """Greedy cover of every distinct row under one cover order.

    Visits each pattern once, in order, and takes it for every row in which
    all its items are still uncovered: for each row, exactly the parts, in
    the same order, that a scan of that row alone would pick. What a pattern
    takes depends only on the patterns before it, so the sweep resumes the
    one of ``resumable`` whose order shares the longest prefix with ``order``.
    """
    base, start = _Sweep([], [], [patterns.holding]), 0
    for sweep in resumable:  # the length of the prefix it shares with ``order``
        shared = next((k for k, (a, b) in enumerate(zip(sweep.order, order)) if a is not b),
                      min(len(sweep.order), len(order)))
        if shared > start:
            base, start = sweep, shared
    taken_rows, uncovered = base.taken[:start], base.uncovered[:start + 1]
    state = uncovered[-1]
    for pattern in islice(order, start, None):
        numbers = patterns[pattern]
        taken = -1
        for n in numbers:
            taken &= state[n]
        if taken:
            state = state.copy()
            for n in numbers:
                state[n] &= ~taken
        taken_rows.append(taken)
        uncovered.append(state)
    if any(state):  # pre-condition violation: some item has no singleton
        first = min(rows & -rows for rows in state if rows)  # the first distinct row that failed
        missing = format_items(item for item, rows in zip(patterns.numbered, state) if rows & first)
        raise ValueError(f"table cannot cover item(s) {missing}")
    return _Sweep(order, taken_rows, uncovered)


def _expand(db: DistinctRows, order: Sequence[frozenset],
            taken_rows: Sequence[int]) -> list[tuple[frozenset, ...]]:
    """Each distinct row's cover, its parts in cover order, from a sweep's taken rows."""
    parts: list[list[frozenset]] = [[] for _ in db.weights]
    for pattern, taken in zip(order, taken_rows):
        for row in db.rows(taken):
            parts[row].append(pattern)
    return [tuple(row_parts) for row_parts in parts]


def _row_bits(db: DistinctRows, order: Sequence[frozenset], taken_rows: Sequence[int],
              lengths: Mapping) -> list[float]:
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
                for row in db.rows(taken):
                    bits[row] += length
    except KeyError:  # code_lengths leaves out every zero-usage pattern
        unused = format_items(pattern)
        raise ValueError(f"pattern {unused} has zero usage; it carries no code") from None
    return bits


def _settle(table: PatternTable, db: DistinctRows, trial: str, patterns=None, order=None,
            resumable=()) -> _Sweep:
    """Cover passes until usages are self-consistent; returns the settled sweep.

    Each pass sets every usage, in place and in table order, to the weight of
    the rows whose covers take it. Once the order after a pass equals the
    order before it, another pass would repeat its covers, and that pass's
    sweep is returned. A pass resumes the last pass or one of ``resumable``.
    Raises ValueError naming ``trial`` at the pass cap. ``order`` is the
    table's cover order.
    """
    patterns = _Patterns(db, table.usages) if patterns is None else patterns
    order = order or cover_order(table.usages, patterns.ranks)
    passes = resumable
    for _ in range(_MAX_RECOVER_PASSES):
        sweep = _sweep(order, patterns, passes)
        table.usages.update(zip(order, map(db.weight, sweep.taken)))
        previous, order = order, cover_order(table.usages, patterns.ranks)
        if order == previous:
            return sweep
        passes = (*resumable, sweep)
    raise ValueError(f"cover order for {trial} did not settle in {_MAX_RECOVER_PASSES} passes")


def code_lengths(table: PatternTable) -> dict[frozenset[Item], float]:
    """-log2(usage / total usage) of every in-use pattern."""
    total = sum(table.usages.values())
    return {p: -log2(usage / total) for p, usage in table.usages.items() if usage > 0}


def cover_rows(db: DistinctRows, table: PatternTable) -> tuple[list[float], list[tuple]]:
    """Each distinct row's bits and cover, from one sweep under the table as given."""
    order = cover_order(table.usages)
    taken_rows = _sweep(order, _Patterns(db, table.usages)).taken
    bits = _row_bits(db, order, taken_rows, code_lengths(table))
    return bits, _expand(db, order, taken_rows)


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
    patterns = _Patterns(db, [*table.usages, *candidates])

    def settled_length(model: PatternTable, trial: str, *resume) -> tuple[float, _Sweep]:
        sweep = _settle(model, db, trial, patterns, *resume)
        lengths = code_lengths(model)
        row_bits = _row_bits(db, sweep.order, sweep.taken, lengths)
        return _database_bits(db, row_bits) + _table_bits(model, lengths), sweep

    initial, settled = settled_length(table, "the singleton table")
    best = initial
    log: list[TrialRecord] = []
    for items, support in candidates.items():
        if items in table.usages:
            raise ValueError(f"candidate {format_items(items)} is already in the table")
        # Provisional usage = support places the newcomer among its
        # same-cardinality peers for the trial's first cover pass.
        trial = table._replace(usages={**table.usages, items: support})
        # It enters the table's settled order; with no row left for it there,
        # every pass would repeat the table's covers, and its length.
        order = cover_order(trial.usages, patterns.ranks)
        free = settled.uncovered[order.index(items)]
        if not reduce(and_, map(free.__getitem__, patterns[items]), -1):
            log.append(TrialRecord(items, support, best, False, best))
            continue
        length, sweep = settled_length(trial, f"candidate {format_items(items)}", order, (settled,))
        accepted = length < best
        if accepted:
            best = length
            table = trial._replace(usages={p: u for p, u in trial.usages.items()
                                           if u > 0 or len(p) == 1})
            # the pruned patterns took no rows, so the masks skip them unchanged
            kept = [k for k, pattern in enumerate(sweep.order) if pattern in table.usages]
            settled = _Sweep([sweep.order[k] for k in kept], [sweep.taken[k] for k in kept],
                             [sweep.uncovered[k] for k in (*kept, -1)])
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
    covers = _expand(db, order, _sweep(order, _Patterns(db, table.usages)).taken)
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
            if not line or line == "# pattern-table v1":
                continue
            try:
                fields = line.split("\t")
                if fields[0] == "# total_singleton_count":
                    _, total = check_fields(fields, 2)
                    totals.append((lineno, parse_count(total)))
                elif fields[0] == "# item_count":
                    _, items_text, count_text = check_fields(fields, 3)
                    if len(items := parse_items(items_text)) != 1:
                        raise ValueError(f"item count names {len(items)} items ({items_text})")
                    (item,) = items
                    if item in singleton_counts:
                        raise ValueError(f"repeated item count {items_text}")
                    singleton_counts[item] = parse_count(count_text)
                    if singleton_counts[item] < 1:
                        raise ValueError(f"item count {count_text} for {items_text} is below 1")
                elif line.startswith("#"):
                    raise ValueError(f"unknown comment line {line!r}")
                else:
                    items_text, usage_text, _bits = check_fields(fields, 3)
                    pattern, usage = parse_items(items_text), parse_count(usage_text)
                    if usage < 0:
                        raise ValueError(f"negative usage {usage} for {items_text}")
                    if pattern in usages:
                        raise ValueError(f"repeated pattern {items_text}")
                    usages[pattern] = usage
            except ValueError as exc:
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
