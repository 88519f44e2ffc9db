"""Correctness checks on the program's artifacts, computed apart from it.

Each check reads the artifacts with its own parser and compares them with
the benchmark's ground truth or with a property the method must have; none
compares with a saved copy of earlier output, and none calls the program.
Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from fractions import Fraction
from itertools import combinations
from math import fsum, log2

SCORE_TOLERANCE = 1e-8  # scores are written with nine decimals
MAX_REPORTED = 5

@dataclass(frozen=True)
class ScoreRow:
    timestamp: datetime
    categories: tuple[int, ...]
    score_text: str
    rank: int
    cover: tuple[frozenset, ...]

    @property
    def score(self) -> float:
        return float(self.score_text)


@dataclass
class Table:
    usages: dict[frozenset, int]
    bits: dict[frozenset, str]  # the code length column, as written


def _items(text: str) -> frozenset:
    out = []
    for token in text.split(","):
        site, _, cat = token.rpartition(":")
        out.append((site, int(cat)))
    return frozenset(out)


def _render(items) -> str:
    return ",".join(f"{site}:{cat}" for site, cat in sorted(items))


def exact_ceil(fraction: str, n: int) -> int:
    """ceil(fraction * n) in integer arithmetic, fraction given as decimal text."""
    value = Fraction(fraction) * n
    return -(-value.numerator // value.denominator)


# --- artifact readers ---------------------------------------------------------

def read_transactions(path: str) -> tuple[tuple[str, ...], dict[datetime, tuple[int, ...]]]:
    with open(path, encoding="utf-8") as fh:
        sites = tuple(fh.readline().rstrip("\n").split(",")[1:])
        rows = {}
        for line in fh:
            fields = line.rstrip("\n").split(",")
            rows[datetime.fromisoformat(fields[0])] = tuple(int(f) for f in fields[1:])
    return sites, rows


def read_table(path: str) -> Table:
    table = Table(usages={}, bits={})
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.rstrip("\n").split("\t")
            if fields[0].startswith("#"):
                continue
            items = _items(fields[0])
            table.usages[items] = int(fields[1])
            table.bits[items] = fields[2]
    return table


def read_scores(path: str) -> tuple[tuple[str, ...], list[ScoreRow]]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        sites = tuple(header[1:-3])
        rows = []
        for line in fh:
            fields = line.rstrip("\n").split("\t")
            rows.append(ScoreRow(
                timestamp=datetime.fromisoformat(fields[0]),
                categories=tuple(int(f) for f in fields[1:1 + len(sites)]),
                score_text=fields[-3],
                rank=int(fields[-2]),
                cover=tuple(_items(p) for p in fields[-1].split("|") if p),
            ))
    return sites, rows


def read_itemsets(path: str) -> list[tuple[frozenset, int]]:
    with open(path, encoding="utf-8") as fh:
        return [
            (_items(text), int(support))
            for text, support in (line.rstrip("\n").split("\t") for line in fh if line.strip())
        ]


def _row_items(sites, categories) -> frozenset:
    return frozenset(zip(sites, categories))


def _cover_order(table: Table) -> list[frozenset]:
    return sorted(table.usages, key=lambda p: (-len(p), -table.usages[p], sorted(p)))


def greedy_cover(items: frozenset, order: list[frozenset]) -> tuple[frozenset, ...] | None:
    """First-fit cover in canonical order; None if some item stays uncovered."""
    left = set(items)
    parts = []
    for pattern in order:
        if not left:
            break
        if pattern <= left:
            parts.append(pattern)
            left -= pattern
    return None if left else tuple(parts)


def _limit(problems: list[str]) -> list[str]:
    if len(problems) > MAX_REPORTED:
        return problems[:MAX_REPORTED] + [f"... {len(problems) - MAX_REPORTED} more"]
    return problems


# --- checks -------------------------------------------------------------------

def check_categories(transactions_path: str, truth: dict[datetime, tuple[int, ...]]) -> list[str]:
    """Every complete hour's categories equal those of the benchmark's own
    exact hourly means under the 0/15/30-minute bounds; no hour is missing
    or extra (incomplete hours must be excluded, not imputed)."""
    _, rows = read_transactions(transactions_path)
    problems = [f"hour {ts} missing" for ts in truth if ts not in rows]
    problems += [f"hour {ts} not expected" for ts in rows if ts not in truth]
    problems += [
        f"hour {ts}: categories {rows[ts]} != expected {cats}"
        for ts, cats in truth.items() if ts in rows and rows[ts] != cats
    ]
    return _limit(problems)


def check_covers(sites, scores: list[ScoreRow], table: Table) -> list[str]:
    """Each cover is an exact disjoint partition of its hour's items into
    table patterns, and it is the greedy cover in canonical order."""
    order = _cover_order(table)
    memo: dict[frozenset, tuple | None] = {}
    problems = []
    for row in scores:
        items = _row_items(sites, row.categories)
        union = frozenset().union(*row.cover)
        if sum(len(p) for p in row.cover) != len(items) or union != items:
            problems.append(f"{row.timestamp}: cover is not a partition of {_render(items)}")
            continue
        unknown = [p for p in row.cover if p not in table.usages]
        if unknown:
            problems.append(f"{row.timestamp}: cover uses {_render(unknown[0])}, not in the table")
            continue
        if items not in memo:
            memo[items] = greedy_cover(items, order)
        if memo[items] is None:
            problems.append(f"{row.timestamp}: the table cannot cover {_render(items)}")
        elif memo[items] != row.cover:
            problems.append(f"{row.timestamp}: cover is not the greedy cover")
    return _limit(problems)


def check_usages(scores: list[ScoreRow], table: Table) -> list[str]:
    """Each usage equals the number of covers containing the pattern, and
    its code length column equals -log2(usage / total usage)."""
    used = Counter(part for row in scores for part in row.cover)
    total = sum(table.usages.values())
    problems = [
        f"pattern {_render(p)}: usage {u} != {used.get(p, 0)} covers"
        for p, u in table.usages.items() if u != used.get(p, 0)
    ]
    problems += [f"pattern {_render(p)} used in covers but not in the table"
                 for p in used if p not in table.usages]
    for p, u in table.usages.items():
        expected = f"{-log2(u / total):.9f}" if u > 0 else "inf"
        if table.bits[p] != expected:
            problems.append(f"pattern {_render(p)}: bits {table.bits[p]} != {expected}")
    return _limit(problems)


def check_scores(scores: list[ScoreRow], table: Table) -> list[str]:
    """Each score equals the sum of -log2(usage / total usage) over its cover."""
    total = sum(table.usages.values())
    problems = []
    for row in scores:
        try:
            expected = fsum(-log2(table.usages[p] / total) for p in row.cover)
        except (KeyError, ValueError):
            problems.append(f"{row.timestamp}: cover has a pattern without usage")
            continue
        if abs(expected - row.score) > SCORE_TOLERANCE:
            problems.append(f"{row.timestamp}: score {row.score_text} != {expected:.9f}")
    return _limit(problems)


def check_ranking(scores: list[ScoreRow], hours: dict[datetime, tuple[int, ...]]) -> list[str]:
    """Ranks run 1..n down the file, scores descend, equal covers tie-break on
    earlier timestamp, and every input hour appears once with its categories."""
    problems = [f"row {i}: rank {row.rank}" for i, row in enumerate(scores, start=1)
                if row.rank != i]
    for before, after in zip(scores, scores[1:]):
        if after.score > before.score:
            problems.append(f"rank {after.rank} scores above rank {before.rank}")
        elif (after.score_text == before.score_text and after.cover == before.cover
              and after.timestamp < before.timestamp):
            problems.append(f"tie at rank {before.rank}: later hour ranked first")
    seen = Counter(row.timestamp for row in scores)
    problems += [f"hour {ts} listed {n} times" for ts, n in seen.items() if n > 1]
    problems += [f"hour {ts} not scored" for ts in hours if ts not in seen]
    problems += [f"hour {row.timestamp} is not an input hour" for row in scores
                 if row.timestamp not in hours]
    problems += [f"hour {row.timestamp}: categories {row.categories} != {hours[row.timestamp]}"
                 for row in scores if row.timestamp in hours
                 and row.categories != hours[row.timestamp]]
    return _limit(problems)


def check_report(report_path: str, sites, scores: list[ScoreRow],
                 fraction: str, top_k: int) -> list[str]:
    """The selection is the first ceil(fraction * n) ranked hours, computed
    exactly; the top-k rows are the first k; the histogram counts the
    selected hours by hour of day."""
    with open(report_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    n = len(scores)
    want_selected = exact_ceil(fraction, n)
    want_k = min(top_k, n)
    problems = []
    try:
        summary = dict(f.split("=") for f in lines[1].split("\t")[1:])
        sections = _sections(lines)
    except (IndexError, ValueError):
        return ["report layout unreadable"]
    if summary != {"n": str(n), "selected": str(want_selected), "top_k": str(want_k)}:
        problems.append(f"summary {summary} != n={n} selected={want_selected} top_k={want_k}")
    expected_rows = [_report_line(sites, row) for row in scores]
    if sections.get("[top-k]") != expected_rows[:want_k]:
        problems.append("top-k rows are not the first k ranked hours")
    if sections.get("[top-fraction]") != expected_rows[:want_selected]:
        problems.append(f"top-fraction rows are not the first {want_selected} ranked hours")
    bins = Counter(row.timestamp.hour for row in scores[:want_selected])
    histogram = [f"{h}\t{bins.get(h, 0)}" for h in range(24)]
    if sections.get("[hour-histogram]") != histogram:
        problems.append("hour histogram does not match the selected hours")
    return _limit(problems)


def _sections(lines: list[str]) -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    current = None
    for line in lines[2:]:
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line, [])
            continue
        if current is not None and line not in ("rank\ttimestamp\tcategories\tscore_bits\tcover",
                                                "hour\tcount"):
            current.append(line)
    return sections


def _report_line(sites, row: ScoreRow) -> str:
    cats = ",".join(f"{s}:{c}" for s, c in zip(sites, row.categories))
    cover = "|".join(_render(p) for p in row.cover)
    return f"{row.rank}\t{row.timestamp:%Y-%m-%dT%H:%M}\t{cats}\t{row.score_text}\t{cover}"


def check_recall(scores: list[ScoreRow], injected: list[datetime], fraction: str) -> list[str]:
    """Every injected heavy-delay hour is in the top fraction."""
    selected = {row.timestamp for row in scores[:exact_ceil(fraction, len(scores))]}
    return _limit([f"injected hour {ts} not in the top {fraction}"
                   for ts in injected if ts not in selected])


def check_itemsets(itemsets_path: str, sites, hours: dict[datetime, tuple[int, ...]],
                   fraction: str, minimum: int) -> list[str]:
    """The itemsets and supports equal a brute-force count of every
    sub-itemset of size >= 2 over the transactions, at the exact threshold,
    listed in canonical order (size, support descending, then items)."""
    resolved = max(minimum, exact_ceil(fraction, len(hours)), 1)
    counts: Counter = Counter()
    for row, mult in Counter(_row_items(sites, c) for c in hours.values()).items():
        ordered = sorted(row)
        for size in range(2, len(ordered) + 1):
            for subset in combinations(ordered, size):
                counts[frozenset(subset)] += mult
    expected = {s: c for s, c in counts.items() if c >= resolved}
    found = read_itemsets(itemsets_path)
    got = dict(found)
    problems = []
    if len(got) != len(found):
        problems.append("an itemset is listed twice")
    problems += [f"itemset {_render(s)} support {got[s]} != {c}"
                 for s, c in expected.items() if s in got and got[s] != c]
    problems += [f"frequent itemset {_render(s)} (support {c}) missing"
                 for s, c in expected.items() if s not in got]
    problems += [f"itemset {_render(s)} (support {got[s]}) is not frequent"
                 for s in got if s not in expected]
    keys = [(-len(s), -c, sorted(s)) for s, c in found]
    if keys != sorted(keys):
        problems.append("itemsets are not in canonical order")
    return _limit(problems)


def check_table_items(table: Table, hours: dict[datetime, tuple[int, ...]], sites) -> list[str]:
    """The frozen table has a singleton for every item of the hours it scores."""
    items = {item for cats in set(hours.values()) for item in zip(sites, cats)}
    return _limit([f"item {s}:{c} has no singleton in the table"
                   for s, c in sorted(items) if frozenset([(s, c)]) not in table.usages])
