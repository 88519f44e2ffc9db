"""Level-wise (Apriori) frequent-itemset mining over attribute-qualified items.

An item is a (site, category) pair: the same category at two different sites
is two different items, and no valid itemset holds two categories for one
site. Mining returns itemsets of size >= 2 only, as itemset -> support;
singletons are seeded into the pattern table directly by the codec.
"""

from __future__ import annotations

from collections import Counter
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
        return max(self.minimum, base, 1)

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


def frequent_itemsets(
    transactions: Sequence[Transaction],
    threshold: SupportThreshold,
) -> dict[frozenset[Item], int]:
    """All itemsets of size >= 2 meeting the support threshold, mapped to support.

    Classic level-wise search: candidates of size k are joins of frequent
    (k-1)-sets, pruned by downward closure and by attribute validity (at most
    one item per site). Output is sorted by descending cardinality, then
    descending support, then lexicographic items; this order drives both the
    `mine` artifact and the compression trial loop.
    """
    n = len(transactions)
    resolved = threshold.resolve(n)

    rows = Counter(txn.item_set for txn in transactions)

    def count_support(candidate: frozenset[Item]) -> int:
        return sum(mult for row, mult in rows.items() if candidate <= row)

    item_counts: Counter = Counter()
    for row, mult in rows.items():
        for item in row:
            item_counts[item] += mult
    frequent_singles = sorted(
        item for item, cnt in item_counts.items() if threshold.meets(cnt, resolved)
    )

    found: dict[frozenset[Item], int] = {}
    level: list[frozenset[Item]] = [frozenset([item]) for item in frequent_singles]
    size = 2
    while level:
        level_set = set(level)
        candidates = _generate_candidates(level, size, level_set)
        next_level = []
        for cand in candidates:
            sup = count_support(cand)
            if threshold.meets(sup, resolved):
                found[cand] = sup
                next_level.append(cand)
        level = next_level
        size += 1

    return dict(sorted(found.items(), key=lambda entry: canonical_key(*entry)))


def _generate_candidates(
    level: list[frozenset[Item]],
    size: int,
    level_set: set[frozenset[Item]],
) -> list[frozenset[Item]]:
    """Join (k-1)-sets sharing a (k-2)-prefix; prune by closure and attributes."""
    sorted_level = sorted(tuple(sorted(s)) for s in level)
    candidates = []
    for i, left in enumerate(sorted_level):
        for right in sorted_level[i + 1 :]:
            if left[:-1] != right[:-1]:
                break  # prefixes are grouped by the sort
            last_a, last_b = left[-1], right[-1]
            if last_a[0] == last_b[0]:
                continue  # two categories for one site can never occur
            union = frozenset(left) | {last_b}
            if _all_subsets_frequent(union, level_set):
                candidates.append(union)
    return candidates


def _all_subsets_frequent(
    candidate: frozenset[Item], level_set: set[frozenset[Item]]
) -> bool:
    return all(candidate - {item} in level_set for item in candidate)


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
