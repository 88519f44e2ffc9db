"""Frequent-itemset mining over attribute-qualified items, on distinct rows.

An item is a (site, category) pair: the same category at two different sites
is two different items, and no valid itemset holds two categories for one
site. ``distinct_rows`` collapses the hours into distinct rows with
multiplicities; mining, the codec and the scorer each start from it. Each
item's rows form one bitmask, and the support of a set of items is the
weight of the AND of their masks: one popcount per bit plane of the
multiplicities. Mining returns itemsets of size >= 2 only, as itemset ->
support; the codec counts singletons and usages with the same weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .ingest import Item, Transaction


@dataclass(frozen=True)
class SupportThreshold:
    """Minimum support, either an absolute count or a fraction of |database|.

    ``inclusive`` selects support >= threshold (default) versus a strict
    support > threshold. ``minimum`` floors the resolved count.
    """

    count: int | None = None
    fraction: float | None = None
    minimum: int = 1
    inclusive: bool = True

    def __post_init__(self) -> None:
        if (self.count is None) == (self.fraction is None):
            raise ValueError("set exactly one of count or fraction")
        if self.count is not None and self.count < 1:
            raise ValueError(f"absolute threshold must be >= 1, got {self.count}")
        if self.fraction is not None and not (0 < self.fraction <= 1):
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.minimum < 1:
            raise ValueError(f"minimum must be >= 1, got {self.minimum}")

    def resolve(self, n_transactions: int) -> int:
        if self.count is not None:
            base = self.count
        else:
            base = exact_ceil(self.fraction, n_transactions)
        return max(self.minimum, base)

    def meets(self, support_count: int, resolved: int) -> bool:
        if self.inclusive:
            return support_count >= resolved
        return support_count > resolved


def exact_ceil(fraction: float, n: int) -> int:
    """ceil(fraction * n) for 0 < fraction <= 1, taken exactly from the decimal
    the fraction is written as: 0.07 of 100 is 7, where floating point gives 8.

    Integer arithmetic on repr(fraction), which is the shortest decimal that
    reads back as the same float; ``fractions`` would do the same but loads
    ``decimal``, which costs the CLI start-up time and memory.
    """
    mantissa, _, exponent = repr(fraction).partition("e")
    whole, _, decimals = mantissa.partition(".")
    scale = len(decimals) - int(exponent or 0)  # fraction == digits / 10**scale
    return -(-int(whole + decimals) * n // 10**scale)


def format_items(items: Iterable[Item]) -> str:
    """Render items as "site:category,..." in lexicographic item order."""
    return ",".join(f"{attr}:{cat}" for attr, cat in sorted(items))


def parse_items(text: str) -> frozenset[Item]:
    """Items of "site:category,...", which an hour can hold: one category in 1..4 per site."""
    items: dict[str, int] = {}
    for token in text.split(","):
        attr, _, cat = token.rpartition(":")
        if not attr:
            raise ValueError(f"bad item {token!r} (expected site:category)")
        if attr in items:
            raise ValueError(f"two categories for site {attr} ({text})")
        items[attr] = int(cat)
        if not 1 <= items[attr] <= 4:
            raise ValueError(f"category outside 1..4 ({token})")
    return frozenset(items.items())


def canonical_key(items: frozenset[Item], weight: int) -> tuple:
    """Sort key: descending cardinality, descending weight, lexicographic items."""
    return (-len(items), -weight, tuple(sorted(items)))


@dataclass(frozen=True)
class DistinctRows:
    """A database collapsed to its distinct rows, each with its multiplicity."""

    weights: list[int]  # per distinct row, in order of first appearance
    index: list[int]  # distinct-row index of every transaction, in order
    holding: dict[Item, int]  # bit r set: distinct row r holds the item
    planes: list[int]  # bit r of plane k set: bit k of row r's multiplicity is set

    def weight(self, rows: int) -> int:
        """Summed multiplicity of the distinct rows whose bits are set in ``rows``:
        one popcount per multiplicity bit plane, whatever the number of rows."""
        total = 0
        for plane in reversed(self.planes):  # the highest bit first
            total = 2 * total + (rows & plane).bit_count()
        return total


def distinct_rows(transactions: Sequence[Transaction]) -> DistinctRows:
    position: dict[frozenset[Item], int] = {}
    index = [position.setdefault(frozenset(txn.items), len(position)) for txn in transactions]
    weights = [0] * len(position)
    for row in index:
        weights[row] += 1
    holding: dict[Item, int] = {}
    for row, items in enumerate(position):
        for item in items:
            holding[item] = holding.get(item, 0) | 1 << row
    planes = [int("".join(str(w >> k & 1) for w in reversed(weights)), 2)
              for k in range(max(weights, default=0).bit_length())]
    return DistinctRows(weights=weights, index=index, holding=holding, planes=planes)


def frequent_itemsets(
    transactions: Sequence[Transaction], threshold: SupportThreshold
) -> dict[frozenset[Item], int]:
    """All itemsets of size >= 2 meeting the support threshold, mapped to support.

    Depth-first search over the frequent items' row bitmasks, as in Eclat: a
    frequent set is extended by every later frequent item, in item order, and
    the extension's support is the weight of the rows both masks hold. Two
    categories of one site share no row, so together they have support 0.
    Output is sorted by descending cardinality, then descending support, then
    lexicographic items; this order drives both the `mine` artifact and the
    compression trial loop.
    """
    db = distinct_rows(transactions)
    resolved = threshold.resolve(len(transactions))
    frequent = [(item, rows) for item, rows in sorted(db.holding.items())
                if threshold.meets(db.weight(rows), resolved)]
    found: dict[frozenset[Item], int] = {}

    def extend(items: frozenset[Item], rows: int, start: int) -> None:
        for position in range(start, len(frequent)):
            item, holding = frequent[position]
            support = db.weight(rows & holding)
            if threshold.meets(support, resolved):
                if items:  # the empty set's extensions are the singletons
                    found[items | {item}] = support
                extend(items | {item}, rows & holding, position + 1)

    extend(frozenset(), -1, 0)
    return dict(sorted(found.items(), key=lambda entry: canonical_key(*entry)))


# --- itemset file format -----------------------------------------------------
# One itemset per line: "site:cat,site:cat<TAB>support", in canonical order.

def write_itemsets(path: str, itemsets: Mapping[frozenset[Item], int]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for items, support in itemsets.items():
            fh.write(f"{format_items(items)}\t{support}\n")


def read_itemsets(path: str) -> dict[frozenset[Item], int]:
    itemsets: dict[frozenset[Item], int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                items_text, support_text = line.split("\t")
                items = parse_items(items_text)
                if items in itemsets:
                    raise ValueError(f"repeated itemset {items_text}")
                itemsets[items] = int(support_text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}")
    return itemsets
