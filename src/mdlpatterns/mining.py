"""Frequent-itemset mining over attribute-qualified items, on distinct rows.

An item is a (site, category) pair: the same category at two different sites
is two different items, and no valid itemset holds two categories for one
site. Ingest builds the database once, already collapsed into distinct rows
with multiplicities (``ingest.DistinctRows``); mining, the codec and the
scorer are each handed that one database. Each item's rows form one bitmask,
and the support of a set of items is the weight of the AND of their masks:
one popcount per bit plane of the multiplicities. Mining returns itemsets of
size >= 2 only, as itemset -> support; the codec counts singletons and usages
with the same weights.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .ingest import DistinctRows, Item, check_fields, parse_categories, parse_count


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


def least_support(threshold: str | float, n: int, minimum: int = 1, inclusive: bool = True) -> int:
    """The least support that counts as frequent among ``n`` transactions.

    Integer text ("12") is an absolute count; any other text ("0.05", "1e-2")
    is a fraction of ``n``, rounded up exactly (see exact_ceil). The result is
    floored at ``minimum``. A strict threshold (support > threshold rather
    than >=) adds one.
    """
    text = str(threshold).strip()
    try:
        try:
            least = int(text)
        except ValueError:
            fraction = float(text)
            if not 0 < fraction <= 1:
                raise ValueError(f"fraction must be in (0, 1], got {fraction}") from None
            least = exact_ceil(fraction, n)
        else:
            if least < 1:
                raise ValueError(f"absolute threshold must be >= 1, got {least}")
        if minimum < 1:
            raise ValueError(f"minimum must be >= 1, got {minimum}")
    except ValueError as exc:
        raise ValueError(f"bad threshold {text!r}: {exc}") from None
    return max(minimum, least) + (not inclusive)


def format_items(items: Iterable[Item]) -> str:
    """Render items as "site:category,..." in lexicographic item order."""
    return ",".join(f"{attr}:{cat}" for attr, cat in sorted(items))


def parse_items(text: str) -> frozenset[Item]:
    """Items of "site:category,..." an hour can hold: one ASCII digit 1..4 per site."""
    items: dict[str, int] = {}
    for token in text.split(","):
        attr, _, cat = token.rpartition(":")
        if not attr:
            raise ValueError(f"bad item {token!r} (expected site:category)")
        if attr in items:
            raise ValueError(f"two categories for site {attr} ({text})")
        items.update(parse_categories([cat], [attr]))
    return frozenset(items.items())


def cover_ranks(patterns: Iterable[frozenset]) -> dict[frozenset, int]:
    """Each pattern's place in the canonical order's static part: descending
    cardinality, then lexicographic items."""
    ranked = sorted(patterns, key=lambda pattern: (-len(pattern), sorted(pattern)))
    return {pattern: rank for rank, pattern in enumerate(ranked)}


def cover_order(usages: Mapping[frozenset, int], ranks: Mapping | None = None) -> list[frozenset]:
    """The canonical order: descending cardinality, then descending usage (or
    support), then lexicographic items. ``ranks`` is cover_ranks of patterns
    that include all of ``usages``; a pattern's rank stands for its items."""
    ranks = ranks or cover_ranks(usages)
    return sorted(usages, key=lambda p: (-len(p), -usages[p], ranks[p]))


def frequent_itemsets(db: DistinctRows, least: int) -> dict[frozenset[Item], int]:
    """All itemsets of size >= 2 with support at least ``least``, mapped to support.

    Depth-first search over the frequent items' row bitmasks, as in Eclat: a
    frequent set is extended by every later frequent item, in item order, and
    the extension's support is the weight of the rows both masks hold. Two
    categories of one site share no row, so together they have support 0.
    Output is in cover_order, support as the usage; this order drives both the
    `mine` artifact and the compression trial loop. A ``least`` below 1 is a
    ValueError: it would count pairs no hour holds, such as two categories of
    one site, as frequent.
    """
    if least < 1:
        raise ValueError(f"least support must be >= 1, got {least}")
    frequent = [(item, rows) for item, rows in sorted(db.holding.items())
                if db.weight(rows) >= least]
    found: dict[frozenset[Item], int] = {}

    def extend(items: frozenset[Item], rows: int, start: int) -> None:
        for position in range(start, len(frequent)):
            item, holding = frequent[position]
            support = db.weight(rows & holding)
            if support >= least:
                if items:  # the empty set's extensions are the singletons
                    found[items | {item}] = support
                extend(items | {item}, rows & holding, position + 1)

    extend(frozenset(), -1, 0)
    return {items: found[items] for items in cover_order(found)}


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
                items_text, support_text = check_fields(line.split("\t"), 2)
                items = parse_items(items_text)
                if items in itemsets:
                    raise ValueError(f"repeated itemset {items_text}")
                itemsets[items] = parse_count(support_text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}")
    return itemsets
