"""Raw wait-time ingestion: parse, aggregate to hourly means, categorize, collapse.

Input is delimiter-separated text with a header row. Each data row is one
observation: timestamp (ISO-8601, minute resolution), site identifier,
direction, vehicle class, and wait minutes. The direction and vehicle class
match one of DIRECTIONS and VEHICLE_CLASSES ignoring case and surrounding
spaces, and are kept in that canonical spelling. Sites report at different
rates (five-minute or hourly feeds); everything is averaged per clock hour
before categorization so the sites line up.

Pipeline:
    parse_records()      -> in one pass, three arrays per (site, direction,
                            vehicle_class) slice, in file order: stamp in
                            microseconds, wait, line; the last row per stamp
                            is kept (+ a diagnostic per rejected or replaced row)
    aggregate_hourly()   -> (site, direction, vehicle_class, hour) -> mean minutes
    discretize()         -> wait category 1..4
    build_transactions() -> the database: every hour where every configured
                            site has a value, collapsed to distinct rows
                            (DistinctRows); incomplete hours are dropped and
                            counted, never imputed

An hour is a position in the database: its clock hour and its distinct row.
ParseResult and TransactionBuild are immutable NamedTuples. All operations
are pure and deterministic: identical input yields an identical database.
Only parse_records uses `csv` and `array`, and it imports them as it starts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from datetime import date, datetime, timedelta
from itertools import compress, count, islice, repeat
from math import inf, isfinite
from operator import add, floordiv, ge, gt
from typing import IO, TYPE_CHECKING, Iterator, Mapping, NamedTuple, Sequence

if TYPE_CHECKING:
    from array import array

Item = tuple[str, int]

# The header columns every raw input must have, one per record field.
COLUMNS = ("timestamp", "site", "direction", "vehicle_class", "wait_minutes")

# The canonical spellings of the two fields that slice a feed.
DIRECTIONS = ("ToUS", "ToCanada")
VEHICLE_CLASSES = ("Car", "Truck")

class IngestError(RuntimeError):
    """Fatal ingestion problem: unreadable input, bad schema, bad configuration."""


def canonical(text: str, names: Sequence[str], noun: str) -> str:
    """The one of ``names`` that ``text`` spells, ignoring case and surrounding spaces."""
    for name in names:
        if name.lower() == text.strip().lower():
            return name
    raise ValueError(f"unknown {noun} {text!r} (expected {' or '.join(names)})")


class DistinctRows:
    """The database: its hours in ascending time, collapsed to distinct rows.

    Each hour is a position: ``hours`` holds its clock hour and ``index`` its
    distinct row. Per distinct row, in order of first appearance in the input:
    ``items`` holds its items in attribute order and ``weights`` its
    multiplicity. Bit r of ``holding[item]`` is set when distinct row r holds
    the item, and bit r of ``planes[k]`` when bit k of row r's multiplicity is.
    """

    def __init__(self, hours: Sequence[datetime], items: Sequence[tuple[Item, ...]]) -> None:
        position: dict[tuple[Item, ...], int] = {}  # items -> distinct row
        index = [position.setdefault(row_items, len(position)) for row_items in items]
        if any(map(gt, hours, hours[1:])):  # out of time order; the sort is stable
            order = sorted(range(len(hours)), key=hours.__getitem__)
            hours, index = [hours[i] for i in order], [index[i] for i in order]
        self.hours, self.index, self.items = list(hours), index, list(position)
        self.weights = [0] * len(position)
        for row in index:
            self.weights[row] += 1
        self.holding: dict[Item, int] = {}
        for row, row_items in enumerate(self.items):
            for item in row_items:
                self.holding[item] = self.holding.get(item, 0) | 1 << row
        self.planes = [int("".join(str(w >> k & 1) for w in reversed(self.weights)), 2)
                       for k in range(max(self.weights, default=0).bit_length())]

    def __len__(self) -> int:
        return len(self.hours)

    def weight(self, rows: int) -> int:
        """Summed multiplicity of the distinct rows whose bits are set in ``rows``:
        one popcount per multiplicity bit plane, whatever the number of rows."""
        total = 0
        for plane in reversed(self.planes):  # the highest bit first
            total = 2 * total + (rows & plane).bit_count()
        return total


# (site, direction, vehicle_class, timestamp) of one observation
RecordKey = tuple[str, str, str, datetime]

_MICROSECOND, _HOUR = timedelta(microseconds=1), 3_600_000_000  # an hour in microseconds
# texts a parse cache holds before it is cleared: stamps pass, a year's few thousand waits recur
_STAMPS_CACHED, _WAITS_CACHED = 1 << 10, 1 << 14


class ParseResult(NamedTuple):
    """The rows parse_records kept, and what it rejected or replaced.

    Each (site, direction, vehicle_class) slice holds its kept rows in file
    order as three columns: stamps (``array('q')``, microseconds since
    ``datetime.min``), waits (``array('d')``) and lines in the input (``array('q')``)."""

    slices: dict[tuple[str, str, str], tuple[array, array, array]]
    diagnostics: list[str]
    rejected_rows: int
    duplicate_rows: int

    # the kept rows, numbered: len(records) counts them
    records = property(lambda self: range(sum(len(columns[0]) for columns in self.slices.values())))


class TransactionBuild(NamedTuple):
    transactions: DistinctRows  # the complete hours
    excluded_hours: list[datetime]


def parse_records(stream: IO[str], delimiter: str = ",") -> ParseResult:
    """Parse delimiter-separated records with a header row naming COLUMNS.

    One pass, with no object per row. Malformed rows are skipped with a
    diagnostic naming their line and counted in ``rejected_rows``; they are
    never silently dropped. Duplicate (site, direction, vehicle_class,
    timestamp) keys keep the last occurrence, with a diagnostic per replaced
    row; these follow the rejections, latest replaced row first.

    As with ``csv.DictReader``, blank lines are skipped, a repeated column
    name reads its last column and a short row reads its missing fields as
    empty.

    Raises IngestError if the stream has no header or a mandatory column
    is missing.
    """
    import csv
    from array import array

    reader = csv.reader(stream, delimiter=delimiter)
    header = next(reader, None)
    if header is None:
        raise IngestError("input has no header row")
    missing = [c for c in COLUMNS if c not in header]
    if missing:
        raise IngestError(f"missing required column(s): {', '.join(missing)}")
    index = {name: i for i, name in enumerate(header)}
    i_stamp, i_site, i_direction, i_class, i_wait = (index[c] for c in COLUMNS)
    width = max(index[c] for c in COLUMNS) + 1
    padding = [""] * width

    slices: dict[tuple[str, str, str], tuple[array, array, array]] = {}
    diagnostics: list[str] = []
    # Stamp and wait text -> value, or why it is rejected; cleared when full, so
    # each stamp is parsed once in an hour-major feed, and per row in a site-major one.
    stamp_of: dict[str, int | str] = {}
    wait_of: dict[str, float | str] = {}
    appends: dict[tuple[str, str, str], tuple] = {}  # slice fields -> its columns' appends
    for row in reader:
        if len(row) < width:
            if not row:
                continue
            row += padding[len(row):]
        stamp = stamp_of.get(row[i_stamp])
        if stamp is None:
            if len(stamp_of) == _STAMPS_CACHED:
                stamp_of.clear()
            stamp = stamp_of[row[i_stamp]] = _stamp(row[i_stamp])
        if stamp.__class__ is str:
            diagnostics.append(f"row {reader.line_num}: {stamp}")
            continue
        fields = (row[i_site], row[i_direction], row[i_class])
        append = appends.get(fields)
        if append is None:
            slice_ = _parse_slice(*fields)
            if isinstance(slice_, str):
                diagnostics.append(f"row {reader.line_num}: {slice_}")
                continue
            columns = slices.setdefault(slice_, (array("q"), array("d"), array("q")))
            append = appends[fields] = tuple(column.append for column in columns)
        wait = wait_of.get(row[i_wait])
        if wait is None:
            if len(wait_of) == _WAITS_CACHED:
                wait_of.clear()
            wait = wait_of[row[i_wait]] = _wait(row[i_wait].strip())
        if wait.__class__ is str:
            diagnostics.append(f"row {reader.line_num}: {wait}")
            continue
        add_stamp, add_wait, add_line = append
        add_stamp(stamp)
        add_wait(wait)
        add_line(reader.line_num)

    rejected = len(diagnostics)  # only rejections so far
    replaced = []  # (line, slice, stamp) per replaced row
    for slice_, (stamps, waits, lines) in slices.items():
        if rows := sorted(_replaced(stamps)):
            replaced += ((lines[row], slice_, stamps[row]) for row in rows)
            slices[slice_] = tuple(map(_without, (stamps, waits, lines), repeat(rows)))
    for _, slice_, stamp in sorted(replaced, reverse=True):  # lines are distinct
        diagnostics.append(f"duplicate observation for {'/'.join(slice_)} "
                           f"at {(datetime.min + stamp * _MICROSECOND).isoformat()}; kept last")
    return ParseResult(slices, diagnostics, rejected, len(replaced))


def _replaced(stamps: array) -> list[int]:
    """The rows of a slice that a later row with the same stamp replaces. Only a
    late row, one not above every earlier stamp, replaces one; the other rows
    ascend, so its twin is bisected for in their runs, or is an earlier late row."""
    late, end = [], 0
    for drop in compress(count(1), map(ge, stamps, islice(stamps, 1, None))):
        if drop > end:  # stamps[drop - 1] is the highest so far
            top, end = stamps[drop - 1], drop
            while end < len(stamps) and stamps[end] <= top:
                late.append(end)
                end += 1
    runs = [(start, stop) for start, stop in zip([0, *(row + 1 for row in late)],
                                                 [*late, len(stamps)]) if start < stop]
    firsts = [stamps[start] for start, _ in runs]
    replaced, seen = [], {}  # seen: stamp -> the latest late row holding it
    for row in late:
        if (stamp := stamps[row]) in seen:
            replaced.append(seen[stamp])
        elif run := bisect_right(firsts, stamp):
            start, stop = runs[run - 1]
            if (twin := bisect_left(stamps, stamp, start, stop)) < stop and stamps[twin] == stamp:
                replaced.append(twin)
        seen[stamp] = row
    return replaced


def _without(column: array, rows: list[int]) -> array:
    """``column`` without the ascending positions ``rows``, each kept run copied whole."""
    kept = column[:0]
    for start, stop in zip([0, *(row + 1 for row in rows)], [*rows, len(column)]):
        kept += column[start:stop]
    return kept


def _stamp(raw: str) -> int | str:
    """A naive timestamp in microseconds since ``datetime.min``, or why it is rejected."""
    text = raw.strip()
    try:
        stamp = _read_stamp(text)
    except ValueError:
        return f"bad timestamp {text!r}"
    if stamp.tzinfo is not None:
        return f"timestamp carries a UTC offset ({text!r})"
    return (stamp - datetime.min) // _MICROSECOND


def _wait(text: str) -> float | str:
    """A wait's minutes, or why it is rejected."""
    try:
        if "_" in text or not text.isascii():
            raise ValueError  # float() reads "1_5" as 15 and non-ASCII digits
        wait = float(text)
    except ValueError:
        return f"bad wait minutes {text!r}"
    if not 0 <= wait < inf:
        return f"{'non-finite' if not isfinite(wait) else 'negative'} wait ({text})"
    return wait


def _read_stamp(text: str) -> datetime:
    """A raw or staged row's stamp. Raises ValueError on a bad one, or on a
    date with no time of day, which fromisoformat would read as midnight."""
    stamp = datetime.fromisoformat(text)
    if len(text) <= 10:  # no longer than a date
        try:
            date.fromisoformat(text)
        except ValueError:
            return stamp
        raise ValueError(f"timestamp has no time of day ({text!r})")
    return stamp


def _parse_slice(site: str, direction: str, vehicle_class: str) -> tuple[str, str, str] | str:
    """(site, direction, vehicle_class), canonical, or why the first bad field fails."""
    site = site.strip()
    if not site:
        return "empty site"
    try:
        direction = canonical(direction, DIRECTIONS, "direction")
        return site, direction, canonical(vehicle_class, VEHICLE_CLASSES, "vehicle class")
    except ValueError as exc:
        return str(exc)


def aggregate_hourly(parsed: ParseResult) -> dict[RecordKey, float]:
    """Arithmetic mean of wait minutes per (site, direction, class, clock hour).

    A record at timestamp t contributes to the hour floor(t); hours with no
    records are simply absent. For an hourly feed the single value is the mean.
    Each hour's sum adds its waits in file order with plain ``+``: a mean on
    a category bound can move by one bit under another order or under a
    compensated sum (``sum`` is one from Python 3.12).
    """
    groups = []  # [first kept line, slice, hour, sum, count] per slice and hour
    for slice_, (stamps, waits, lines) in parsed.slices.items():
        by_hour: dict[int, list] = {}  # hour -> its group; the columns are in file order
        for hour, wait, line in zip(map(floordiv, stamps, repeat(_HOUR)), waits, lines):
            group = by_hour.get(hour)
            if group is None:
                group = by_hour[hour] = [line, slice_, hour, 0.0, 0]
            group[3] += wait
            group[4] += 1
        groups += by_hour.values()
    groups.sort()  # first lines are distinct, so keys come in file order
    clock = {hour: datetime.min + timedelta(hours=hour) for hour in {group[2] for group in groups}}
    return {(*slice_, clock[hour]): total / rows for _, slice_, hour, total, rows in groups}


def discretize(mean_wait: float) -> int:
    """Map mean wait minutes to a wait category, 1..4.

    Exactly 0 -> 1 (no waiting); (0, 15] -> 2 (slight delay);
    (15, 30] -> 3 (delay); above 30 -> 4 (heavy delay).
    """
    if mean_wait < 0:
        raise ValueError(f"wait minutes must be non-negative, got {mean_wait}")
    if mean_wait == 0:
        return 1
    if mean_wait <= 15:
        return 2
    if mean_wait <= 30:
        return 3
    return 4


def build_transactions(
    hourly: Mapping[RecordKey, float],
    attributes: Sequence[str],
    direction: str,
    vehicle_class: str,
) -> TransactionBuild:
    """The database of every hour in which every configured site has a value.

    Hours where any configured site is missing are excluded and recorded in
    ``excluded_hours``; nothing is imputed. Each hour's items are in the
    configured attribute order.
    """
    if not attributes:
        raise IngestError("attribute list must be nonempty")
    if len(set(attributes)) != len(attributes):
        raise IngestError("attribute list must be distinct")

    by_hour: dict[datetime, dict[str, float]] = {}
    for (site, rec_dir, rec_class, hour), mean in hourly.items():
        if rec_dir != direction or rec_class != vehicle_class:
            continue
        if site not in attributes:
            continue
        by_hour.setdefault(hour, {})[site] = mean

    hours, rows, excluded = [], [], []
    for hour in sorted(by_hour):
        values = by_hour[hour]
        if any(site not in values for site in attributes):
            excluded.append(hour)
            continue
        hours.append(hour)
        rows.append(tuple((site, discretize(values[site])) for site in attributes))
    return TransactionBuild(DistinctRows(hours, rows), excluded)


# --- transaction file format -------------------------------------------------
# One row per hour: ISO-8601 hour, then one category index per attribute,
# comma-separated. Header names the attributes.

def hour_text(stamp: datetime) -> str:
    """How every artifact writes an hour: ``2016-08-22T10:00``, the year in four digits."""
    return stamp.isoformat(timespec="minutes")


_HOURS, _MINUTES = [f"T{hour:02d}" for hour in range(24)], [f":{m:02d}" for m in range(60)]


def hour_texts(stamps: Sequence[datetime]) -> Iterator[str]:
    """hour_text of each stamp, lazily and with no call per stamp: each day's
    date is formatted once. A stamp with a tzinfo, whose text ends in its
    offset, takes hour_text."""
    days = {day: date.fromordinal(day).isoformat() for day in set(map(date.toordinal, stamps))}
    return (days[s.toordinal()] + _HOURS[s.hour] + _MINUTES[s.minute] if s.tzinfo is None
            else hour_text(s) for s in stamps)


def parse_hour(text: str) -> datetime:
    """The hour that starts an artifact row. Raises ValueError on a bad stamp,
    on a date with no time of day, on a UTC offset or seconds, which hour_text
    would not write back, or on a stamp off the hour, which would give its
    hour a second row."""
    stamp = _read_stamp(text)
    if stamp.tzinfo is not None:
        raise ValueError(f"timestamp carries a UTC offset ({text!r})")
    if stamp.second or stamp.microsecond:
        raise ValueError(f"timestamp has seconds ({text!r})")
    if stamp.minute:
        raise ValueError(f"timestamp is not on the hour ({text!r})")
    return stamp


def parse_categories(texts: Sequence[str], attributes: Sequence[str]) -> tuple[Item, ...]:
    """A category per attribute, each the ASCII digit 1..4, as every writer writes
    one; raises ValueError on any other field (int() also reads " 3" or "+2")."""
    categories = [int(text) for text in texts]
    bad = ",".join(f"{a}:{t}" for a, t in zip(attributes, texts) if t not in ("1", "2", "3", "4"))
    if bad:
        raise ValueError(f"category outside 1..4 ({bad})")
    return tuple(zip(attributes, categories))


def parse_count(text: str) -> int:
    """An integer in canonical ASCII decimal, as every writer writes one; int()
    also reads "+1", " 1", "01", "0_1" and other scripts' digits."""
    if str(count := int(text)) != text:
        raise ValueError(f"count {text!r} is not in canonical decimal")
    return count


def write_transactions(path: str, db: DistinctRows, attributes: Sequence[str]) -> None:
    """One row per hour, in time order; each distinct row's categories are formatted once."""
    texts = []
    for items in db.items:
        cats = dict(items)
        texts.append("".join(f",{cats[a]}" for a in attributes) + "\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("timestamp," + ",".join(attributes) + "\n")
        fh.writelines(map(add, hour_texts(db.hours), map(texts.__getitem__, db.index)))


def read_transactions(path: str) -> tuple[DistinctRows, list[str]]:
    """Read a transaction file back; returns (database, attribute names).

    Every row is checked, no two rows may hold one hour, and the header may
    not name a site twice. Each distinct category text is parsed once, so its
    rows share one items tuple. Rows may come in any time order."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header:
            raise IngestError(f"{path}: empty transaction file")
        columns = header.split(",")
        if columns[0] != "timestamp" or len(columns) < 2:
            raise IngestError(f"{path}: bad transaction header {header!r}")
        attributes = columns[1:]
        if len(set(attributes)) != len(attributes):
            raise IngestError(f"{path}: transaction header names a site twice ({header!r})")
        hours, hour_items = [], []
        rows: dict[str, tuple[Item, ...]] = {}  # category text -> items
        seen: set[datetime] = set()
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                if line.count(",") != len(attributes):
                    raise ValueError(f"expected {len(columns)} fields")
                text, _, categories = line.partition(",")
                stamp = parse_hour(text)
                if stamp in seen:
                    raise ValueError(f"repeated hour {hour_text(stamp)}")
                items = rows.get(categories)
                if items is None:
                    items = rows[categories] = parse_categories(categories.split(","), attributes)
            except ValueError as exc:
                raise IngestError(f"{path}:{lineno}: {exc}")
            seen.add(stamp)
            hours.append(stamp)
            hour_items.append(items)
    return DistinctRows(hours, hour_items), attributes
