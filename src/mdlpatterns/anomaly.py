"""Anomaly scoring and reporting: rank transactions by code length.

A transaction's anomaly score is its code length under the final pattern
table: hours that compress well are ordinary, hours that need long codes are
unusual. Scores are ranked descending, the top fraction extracted, and an
hour-of-day histogram built over the extracted set.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from math import copysign, inf, isfinite
from typing import Sequence

from .codec import PatternTable, code_lengths, cover_order, cover_rows, row_lengths
from .codec import cover_database  # noqa: F401  (perfbench/tracer.py wraps this binding)
from .ingest import Item, Transaction, hour_text, parse_categories, parse_hour
from .mining import DistinctRows, exact_ceil, format_items, parse_items

REPORT_VERSION = "pattern-anomaly-report v1"


@dataclass(frozen=True)
class ScoredTransaction:
    """One scored hour; its rank is its 1-based place in the ranked list."""

    transaction: Transaction
    cover: str  # patterns '|'-separated, items ',': "LQ:3,RB:2|PB:1"
    score: float


def score_all(db: DistinctRows, table: PatternTable) -> list[ScoredTransaction]:
    """Score every transaction and rank descending; ties rank earlier hours first.

    Each distinct row is covered, scored and its cover written out as text
    once, under the table as given.
    """
    covers = cover_rows(db, cover_order(table.usages))
    bits = row_lengths(covers, code_lengths(table))
    texts = ["|".join(format_items(part) for part in cover) for cover in covers]
    scored = [
        ScoredTransaction(txn, texts[row], bits[row]) for txn, row in zip(db.transactions, db.index)
    ]
    scored.sort(key=lambda entry: (-entry.score, entry.transaction.timestamp))
    return scored


def top_fraction(
    scored: Sequence[ScoredTransaction], fraction: float
) -> list[ScoredTransaction]:
    """The highest-scoring ceil(fraction * n) transactions (see exact_ceil)."""
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if not scored:
        raise ValueError("scored list is empty")
    k = exact_ceil(fraction, len(scored))
    return list(scored[:k])


def hour_frequency(selected: Sequence[ScoredTransaction]) -> tuple[int, ...]:
    """Count the selected transactions by hour of day: 24 counts, index = hour."""
    bins = [0] * 24
    for entry in selected:
        bins[entry.transaction.timestamp.hour] += 1
    return tuple(bins)


def report(scored: Sequence[ScoredTransaction], fraction: float, k: int) -> str:
    """Structured-text report: top-k table, top-fraction listing, hour histogram.

    Machine-readable: versioned header line, then tab-separated sections.
    Rows are ranked by their place in ``scored``. Cover column lists patterns
    separated by '|', items within a pattern by ','.
    """
    selected = top_fraction(scored, fraction)
    if k < 0:
        raise ValueError(f"k={k} is negative")
    if k > len(scored):
        raise ValueError(f"k={k} exceeds the number of scored transactions ({len(scored)})")
    lines = [REPORT_VERSION, f"[summary]\tn={len(scored)}\tselected={len(selected)}\ttop_k={k}"]
    for section, entries in (("[top-k]", scored[:k]), ("[top-fraction]", selected)):
        lines += [section, "rank\ttimestamp\tcategories\tscore_bits\tcover"]
        lines += (_entry_line(rank, entry) for rank, entry in enumerate(entries, start=1))
    lines += ["[hour-histogram]", "hour\tcount"]
    lines += (f"{hour}\t{count}" for hour, count in enumerate(hour_frequency(selected)))
    return "\n".join(lines) + "\n"


def _entry_line(rank: int, entry: ScoredTransaction) -> str:
    categories = ",".join(f"{attr}:{cat}" for attr, cat in entry.transaction.items)
    return (
        f"{rank}\t{hour_text(entry.transaction.timestamp)}\t"
        f"{categories}\t{entry.score:.9f}\t{entry.cover}"
    )


# --- scored file format ------------------------------------------------------
# Ranked order; columns: timestamp, one category per attribute, score bits,
# rank (the row's place), cover (patterns '|'-separated).
SCORES_TAIL = ("score_bits", "rank", "cover")


def write_scores(
    path: str,
    scored: Sequence[ScoredTransaction],
    attributes: Sequence[str],
) -> None:
    # The text around the rank is formatted once per (items, score, cover);
    # copysign keeps apart 0.0 and -0.0, which are equal but format apart.
    around: dict[tuple, tuple[str, str]] = {}
    lines = []
    for rank, entry in enumerate(scored, start=1):
        txn, score = entry.transaction, entry.score
        key = (txn.items, score, copysign(1.0, score), entry.cover)
        parts = around.get(key)
        if parts is None:
            cats = dict(txn.items)
            categories = "".join(f"\t{cats[attr]}" for attr in attributes)
            parts = around[key] = (f"{categories}\t{score:.9f}\t", f"\t{entry.cover}\n")
        lines.append(f"{hour_text(txn.timestamp)}{parts[0]}{rank}{parts[1]}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\t".join(["timestamp", *attributes, *SCORES_TAIL]) + "\n")
        fh.writelines(lines)


def read_scores(path: str) -> tuple[list[ScoredTransaction], list[str]]:
    """Reload a scored file; returns (scored transactions, attribute names).

    The ranking must be as write_scores writes it: each rank is the row's place
    among the data rows, no score is above the row before it, and the hours of
    one distinct row (equal categories, score and cover) ascend. No two rows
    may hold one hour. The header names each site once, then score_bits, rank
    and cover. A distinct row is parsed and checked once: a finite score, and a
    cover whose patterns are disjoint and together hold exactly its items."""
    scored = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        attributes = header[1:-3]
        if header[0] != "timestamp" or tuple(header[-3:]) != SCORES_TAIL or not attributes:
            raise ValueError(f"{path}: bad scores header")
        if len(set(attributes)) != len(attributes):
            raise ValueError(f"{path}: scores header names a site twice")
        rows: dict[tuple[str, str], tuple[tuple[Item, ...], float, str]] = {}
        last_hour: dict[tuple[str, str], datetime] = {}  # per distinct row
        seen = set()
        previous = inf
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                if line.count("\t") != len(header) - 1:
                    raise ValueError(f"expected {len(header)} fields")
                text, _, rest = line.partition("\t")
                stamp = parse_hour(text)
                if stamp in seen:
                    raise ValueError(f"repeated hour {hour_text(stamp)}")
                constant, rank, cover = rest.rsplit("\t", 2)  # constant: categories, score
                key = (constant, cover)
                row = rows.get(key)
                if row is None:
                    *categories, score_text = constant.split("\t")
                    items, score = parse_categories(categories, attributes), float(score_text)
                    if not isfinite(score):
                        raise ValueError(f"non-finite score {score_text}")
                    parts = [parse_items(part) for part in cover.split("|")]
                    covered = set().union(*parts)
                    if sum(map(len, parts)) != len(covered) or covered != set(items):
                        raise ValueError(f"cover {cover} does not split the row's items")
                    row = rows[key] = (items, score, cover)
                rank = int(rank)
                if rank != len(scored) + 1:
                    raise ValueError(f"rank {rank} out of place (expected {len(scored) + 1})")
                if row[1] > previous:
                    raise ValueError(f"score {row[1]!r} above the row before it ({previous!r})")
                earlier = last_hour.get(key, stamp)
                if earlier > stamp:
                    raise ValueError(f"one row's hours out of order ({hour_text(earlier)} first)")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}")
            seen.add(stamp)
            last_hour[key] = stamp
            items, previous, cover = row
            scored.append(ScoredTransaction(Transaction(stamp, items), cover, previous))
    return scored, attributes
