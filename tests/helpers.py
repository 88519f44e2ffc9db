"""Shared builders and independent oracles for the test suite.

The oracles here deliberately take the slow, obvious route (enumerate every
subset, try every pattern combination) so the optimized implementations have
something honest to be checked against.
"""

from __future__ import annotations

import random
from datetime import datetime, timedelta
from itertools import combinations
from math import log2
from typing import Sequence

from hypothesis import strategies as st

from mdlpatterns import SupportThreshold
from mdlpatterns.codec import (
    Cover,
    Pattern,
    PatternTable,
    cover_database,
    database_length,
    init_pattern_table,
    recompute_usages,
    total_length,
)
from mdlpatterns.ingest import Transaction
from mdlpatterns.mining import Itemset, format_items

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
    transactions: Sequence[Transaction], candidates: Sequence[Itemset]
) -> float:
    """Minimum total length over every subset of the candidate patterns.

    The empty subset (singletons only) is included, so this is always a lower
    bound for what the greedy search can reach with the same candidates.
    """
    best = None
    for mask in range(2 ** len(candidates)):
        table = init_pattern_table(transactions)
        for bit, cand in enumerate(candidates):
            if mask >> bit & 1:
                table.patterns.append(Pattern(items=cand.items, usage=cand.support))
        recompute_usages(table, transactions)
        length = total_length(transactions, table)
        if best is None or length < best:
            best = length
    return best


def cover_transaction(txn: Transaction, table: PatternTable) -> Cover:
    """One transaction's cover under the table's current order."""
    return cover_database([txn], table)[0]


def pattern_code_length(pattern: Pattern, table: PatternTable) -> float:
    """-log2(usage / total usage), straight from the definition. A pattern
    with zero usage carries no code, so asking for its length is an error."""
    if pattern.usage == 0:
        raise ValueError(f"pattern {format_items(pattern.items)} has zero usage")
    return -log2(pattern.usage / table.active_usage_total())


def transaction_code_length(txn: Transaction, table: PatternTable) -> float:
    """One transaction's code length: the sum over its cover."""
    return database_length([txn], table)


def find_pattern(table: PatternTable, items: frozenset) -> Pattern | None:
    return next((p for p in table.patterns if p.items == items), None)


def greedy_cover_oracle(items: frozenset, order: Sequence[Pattern]) -> tuple[Pattern, ...]:
    """Row-by-row greedy scan: take each pattern, in order, whose items are all
    still uncovered. The codec covers all distinct rows in one sweep over the
    patterns instead, and must pick exactly these parts."""
    uncovered = set(items)
    parts = []
    for pattern in order:
        if pattern.items <= uncovered:
            parts.append(pattern)
            uncovered -= pattern.items
    assert not uncovered, "oracle needs a table with every singleton"
    return tuple(parts)
