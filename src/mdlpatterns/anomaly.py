"""Anomaly scoring and reporting: rank hours by code length.

An hour's anomaly score is its code length under the final pattern table:
hours that compress well are ordinary, hours that need long codes are
unusual. A score depends only on which distinct row an hour is, so each
distinct row is covered, scored and formatted once. Scores are ranked
descending (a Ranking; ``len(ranking.hours)`` counts its hours), the top
fraction extracted, and an hour-of-day histogram built over the extracted set.
"""

from __future__ import annotations

from functools import partial
from math import inf, isfinite
from typing import Any, Callable, NamedTuple, Sequence

from .codec import PatternTable, cover_rows
from .codec import cover_database  # noqa: F401  (perfbench/tracer.py wraps this binding)
from .ingest import DistinctRows, Item, parse_categories, read_stamped
from .mining import exact_ceil, format_items, parse_items

REPORT_VERSION = "pattern-anomaly-report v1"


class Ranking(NamedTuple):
    """Scored hours by descending score, ties by time; a rank is a 1-based place.

    ``hours`` and ``index`` hold each ranked hour's clock hour (its hour_text) and row.
    ``items``, ``bits`` and ``covers`` hold each row's items in attribute
    order, its score and its cover (patterns '|'-separated, items ',':
    "LQ:3,RB:2|PB:1").
    """

    hours: list[str]
    index: list[int]
    items: list[tuple[Item, ...]]
    bits: list[float]
    covers: list[str]


def score_all(db: DistinctRows, table: PatternTable) -> Ranking:
    """Score every hour and rank descending; ties rank earlier hours first.

    Each distinct row is covered, scored and its cover written out as text
    once, under the table as given. The positions are ranked by one stable
    sort on their row's score: the database's hours ascend, and a reversed
    stable sort keeps equal keys in their order, so ties rank in time order.
    """
    bits, covers = cover_rows(db, table)
    scores = list(map(bits.__getitem__, db.index))  # each position's row's score
    order = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
    texts = ["|".join(format_items(part) for part in cover) for cover in covers]
    return Ranking([db.hours[p] for p in order], [db.index[p] for p in order],
                   db.items, bits, texts)


def top_fraction(ranking: Ranking, fraction: float) -> Ranking:
    """The highest-scoring ceil(fraction * n) hours (see exact_ceil)."""
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if not ranking.hours:
        raise ValueError("ranking is empty")
    k = exact_ceil(fraction, len(ranking.hours))
    return ranking._replace(hours=ranking.hours[:k], index=ranking.index[:k])


def hour_frequency(selected: Ranking) -> tuple[int, ...]:
    """Count the selected hours by hour of day: 24 counts, index = hour."""
    bins = [0] * 24
    for hour in selected.hours:  # 2016-08-22T10:00
        bins[int(hour[11:13])] += 1
    return tuple(bins)


def report(ranking: Ranking, fraction: float, k: int) -> str:
    """Structured-text report: top-k table, top-fraction listing, hour histogram.

    Machine-readable: versioned header line, then tab-separated sections.
    Hours are ranked by their place in ``ranking``. Cover column lists
    patterns separated by '|', items within a pattern by ','. Each row's
    text after the stamp is formatted once.
    """
    selected = top_fraction(ranking, fraction)
    n, chosen = len(ranking.hours), len(selected.hours)
    if k < 0:
        raise ValueError(f"k={k} is negative")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of scored transactions ({n})")
    after = [
        f"\t{','.join(f'{attr}:{cat}' for attr, cat in items)}\t{bits:.9f}\t{cover}"
        for items, bits, cover in zip(ranking.items, ranking.bits, ranking.covers)
    ]
    lines = [REPORT_VERSION, f"[summary]\tn={n}\tselected={chosen}\ttop_k={k}"]
    for section, count in (("[top-k]", k), ("[top-fraction]", chosen)):
        lines += [section, "rank\ttimestamp\tcategories\tscore_bits\tcover"]
        ranked = zip(ranking.hours[:count], ranking.index[:count])
        lines += (f"{rank}\t" + hour + after[row] for rank, (hour, row) in enumerate(ranked, 1))
    lines += ["[hour-histogram]", "hour\tcount"]
    lines += (f"{hour}\t{count}" for hour, count in enumerate(hour_frequency(selected)))
    return "\n".join(lines) + "\n"


# --- scored file format ------------------------------------------------------
# Ranked order; columns: timestamp, one category per attribute, score bits,
# rank (the row's place), cover (patterns '|'-separated).
SCORES_TAIL = ("score_bits", "rank", "cover")


def write_scores(path: str, ranking: Ranking, attributes: Sequence[str]) -> None:
    """One line per ranked hour; the text around the rank is formatted once per row."""
    around = []  # per row: (categories and score, cover)
    for items, bits, cover in zip(ranking.items, ranking.bits, ranking.covers):
        cats = dict(items)
        categories = "".join(f"\t{cats[attr]}" for attr in attributes)
        around.append((f"{categories}\t{bits:.9f}\t", f"\t{cover}\n"))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\t".join(["timestamp", *attributes, *SCORES_TAIL]) + "\n")
        fh.writelines(hour + f"{around[row][0]}{rank}{around[row][1]}"
                      for rank, (hour, row) in enumerate(zip(ranking.hours, ranking.index), 1))


def read_scores(path: str) -> tuple[Ranking, list[str]]:
    """Reload a scored file; returns (ranking, attribute names).

    The ranking must be as write_scores writes it: each rank is the row's place
    among the data rows, no score is above the row before it, and the hours of
    one distinct row (equal categories, score and cover) ascend. No two rows
    may hold one hour. The header names each site once, by a name that is not
    empty, then score_bits, rank and cover. A distinct row is parsed and
    checked once: a finite score, and a cover whose patterns are disjoint and
    together hold exactly its items. The stamps are read as read_stamped reads
    them: in one call when every one is as hour_text writes it, else per row."""
    return read_stamped(partial(_ranked_rows, path), lambda ranked: ranked[0].hours)


def _ranked_rows(path: str, read_hour: Callable[[str], Any]) -> tuple[Ranking, list[str]]:
    """The ranking with each stamp as ``read_hour`` reads it, and the attribute
    names; ValueError names the first bad line."""
    hours, index, row_items, bits, covers = [], [], [], [], []  # the Ranking's fields
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        attributes = header[1:-3]
        if header[0] != "timestamp" or tuple(header[-3:]) != SCORES_TAIL or not attributes:
            raise ValueError(f"{path}: bad scores header")
        if len(set(attributes)) != len(attributes):
            raise ValueError(f"{path}: scores header names a site twice")
        if "" in attributes:
            raise ValueError(f"{path}: scores header names an empty site")
        rows: dict[tuple[str, str], int] = {}  # (categories and score, cover) text -> row
        last_hour: list = []  # per row
        previous = inf
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                if line.count("\t") != len(header) - 1:
                    raise ValueError(f"expected {len(header)} fields")
                text, _, rest = line.partition("\t")
                stamp = read_hour(text)
                constant, rank, cover = rest.rsplit("\t", 2)  # constant: categories, score
                row = rows.get((constant, cover))
                if row is None:
                    *categories, score_text = constant.split("\t")
                    items, score = parse_categories(categories, attributes), float(score_text)
                    if not isfinite(score):
                        raise ValueError(f"non-finite score {score_text}")
                    parts = [parse_items(part) for part in cover.split("|")]
                    covered = set().union(*parts)
                    if sum(map(len, parts)) != len(covered) or covered != set(items):
                        raise ValueError(f"cover {cover} does not split the row's items")
                    row = rows[constant, cover] = len(last_hour)
                    row_items.append(items)
                    bits.append(score)
                    covers.append(cover)
                    last_hour.append(stamp)
                score, earlier, expected = bits[row], last_hour[row], str(len(hours) + 1)
                if rank != expected:  # int() would also read "+1", " 1", "01", "0_1"
                    raise ValueError(f"rank {rank!r} out of place (expected {expected})")
                if score > previous:
                    raise ValueError(f"score {score!r} above the row before it ({previous!r})")
                if earlier > stamp:
                    raise ValueError(f"one row's hours out of order ({earlier} first)")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}")
            last_hour[row], previous = stamp, score
            hours.append(stamp)
            index.append(row)
    return Ranking(hours, index, row_items, bits, covers), attributes
