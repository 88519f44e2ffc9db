"""Anomaly scoring and reporting: rank transactions by code length.

A transaction's anomaly score is its code length under the final pattern
table: hours that compress well are ordinary, hours that need long codes are
unusual. Scores are ranked descending, the top fraction extracted, and an
hour-of-day histogram built over the extracted set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .codec import PatternTable, code_lengths, cover_order, cover_rows, distinct_rows, row_lengths
from .codec import cover_database  # noqa: F401  (perfbench/tracer.py wraps this binding)
from .ingest import HOUR_FORMAT, Transaction, parse_hour_row
from .mining import exact_ceil, format_items

REPORT_VERSION = "pattern-anomaly-report v1"


@dataclass(frozen=True)
class ScoredTransaction:
    transaction: Transaction
    cover: str  # patterns '|'-separated, items ',': "LQ:3,RB:2|PB:1"
    score: float
    rank: int


def score_all(transactions: Sequence[Transaction], table: PatternTable) -> list[ScoredTransaction]:
    """Score every transaction and rank descending; ties rank earlier hours first.

    Each distinct row is covered, scored and its cover written out as text
    once, under the table as given.
    """
    db = distinct_rows(transactions)
    covers = cover_rows(db, cover_order(table.usages))
    bits = row_lengths(covers, code_lengths(table))
    texts = ["|".join(format_items(part) for part in cover) for cover in covers]
    unranked = [(txn, texts[row], bits[row]) for txn, row in zip(transactions, db.index)]
    unranked.sort(key=lambda entry: (-entry[2], entry[0].timestamp))
    return [
        ScoredTransaction(transaction=txn, cover=cover, score=score, rank=rank)
        for rank, (txn, cover, score) in enumerate(unranked, start=1)
    ]


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


def report(
    scored: Sequence[ScoredTransaction],
    selected: Sequence[ScoredTransaction],
    histogram: Sequence[int],
    k: int,
) -> str:
    """Structured-text report: top-k table, top-fraction listing, hour histogram.

    Machine-readable: versioned header line, then tab-separated sections.
    Cover column lists patterns separated by '|', items within a pattern by ','.
    """
    if k < 0:
        raise ValueError(f"k={k} is negative")
    if k > len(scored):
        raise ValueError(f"k={k} exceeds the number of scored transactions ({len(scored)})")
    lines = [REPORT_VERSION]
    lines.append(
        f"[summary]\tn={len(scored)}\tselected={len(selected)}\ttop_k={k}"
    )
    lines.append("[top-k]")
    lines.append("rank\ttimestamp\tcategories\tscore_bits\tcover")
    for entry in scored[:k]:
        lines.append(_entry_line(entry))
    lines.append("[top-fraction]")
    lines.append("rank\ttimestamp\tcategories\tscore_bits\tcover")
    for entry in selected:
        lines.append(_entry_line(entry))
    lines.append("[hour-histogram]")
    lines.append("hour\tcount")
    for hour, count in enumerate(histogram):
        lines.append(f"{hour}\t{count}")
    return "\n".join(lines) + "\n"


def _entry_line(entry: ScoredTransaction) -> str:
    categories = ",".join(f"{attr}:{cat}" for attr, cat in entry.transaction.items)
    return (
        f"{entry.rank}\t{entry.transaction.timestamp.strftime(HOUR_FORMAT)}\t"
        f"{categories}\t{entry.score:.9f}\t{entry.cover}"
    )


# --- scored file format ------------------------------------------------------
# Ranked order; columns: timestamp, one category per attribute, score bits,
# rank, cover (patterns '|'-separated).

def write_scores(
    path: str,
    scored: Sequence[ScoredTransaction],
    attributes: Sequence[str],
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("timestamp\t" + "\t".join(attributes) + "\tscore_bits\trank\tcover\n")
        for entry in scored:
            cats = dict(entry.transaction.items)
            fields = [entry.transaction.timestamp.strftime(HOUR_FORMAT)]
            fields.extend(str(cats[attr]) for attr in attributes)
            fields.append(f"{entry.score:.9f}")
            fields.append(str(entry.rank))
            fields.append(entry.cover)
            fh.write("\t".join(fields) + "\n")


def read_scores(path: str) -> tuple[list[ScoredTransaction], list[str]]:
    """Reload a scored file; returns (scored transactions, attribute names)."""
    scored = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if len(header) < 4 or header[0] != "timestamp":
            raise ValueError(f"{path}: bad scores header")
        attributes = header[1:-3]
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                scored.append(ScoredTransaction(
                    transaction=parse_hour_row(fields, attributes), cover=fields[-1],
                    score=float(fields[-3]), rank=int(fields[-2]),
                ))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}")
    return scored, attributes
