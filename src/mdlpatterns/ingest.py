"""Raw wait-time ingestion: parse, aggregate to hourly means, categorize, collapse.

Input is delimiter-separated text with a header row. Each data row is one
observation: timestamp (ASCII ``YYYY-MM-DD``, ``T`` or a space, ``HH:MM``,
optional ``:SS``; the same on every supported interpreter), site identifier,
direction, vehicle class, and wait minutes. The direction and vehicle class
match one of DIRECTIONS and VEHICLE_CLASSES ignoring case and surrounding
spaces, and are kept in that canonical spelling. Sites report at different
rates (five-minute or hourly feeds); the configured slice is averaged per
clock hour before categorization so the sites line up.

Pipeline:
    parse_records()      -> in one pass, three arrays per (site, direction,
                            vehicle_class) slice, in file order: stamp in
                            microseconds, wait, line; the last row per stamp
                            is kept (+ a diagnostic per rejected or replaced row)
    build_transactions() -> the database, built by column: per configured site,
                            its configured slice's hourly means (aggregate_hourly),
                            each a wait category 1..4 (discretize); every hour
                            where every configured site has a value is kept,
                            collapsed to distinct rows (DistinctRows); incomplete
                            hours are dropped and counted, never imputed

An hour is a position in the database: its clock hour, held as the text every
artifact writes (hour_text: ``2016-08-22T10:00``), and its distinct row.
ParseResult and TransactionBuild are immutable NamedTuples. All operations
are pure and deterministic. Only parse_records uses `csv` and `array`,
imported as it starts: csv reads the header and any line a split would
misread; each other line is cut at its stamp, and the text after it and the
stamp's hour and minute texts are each parsed once into a bounded cache.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from datetime import datetime, timedelta
from functools import cache, partial
from itertools import chain, compress, count, islice, pairwise, repeat, starmap
from math import inf, isfinite
from operator import add, eq, floordiv, ge, gt, itemgetter
from typing import IO, TYPE_CHECKING, Any, Callable, NamedTuple, Sequence

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

    Each hour is a position: ``hours`` holds its clock hour as hour_text writes
    it, a text that orders as the hours do, and ``index`` its distinct row. Per
    distinct row, in order of first appearance in the input: ``items`` holds
    its items in attribute order and ``weights`` its multiplicity. Bit r of
    ``holding[item]`` is set when distinct row r holds the item, and bit r of
    ``planes[k]`` when bit k of row r's multiplicity is.

    ``weight`` and ``rows`` map a row mask to the summed multiplicity and the
    ascending positions of its distinct rows, each worked out once per mask.
    """

    def __init__(self, hours: Sequence[str], items: Sequence[tuple[Item, ...]]) -> None:
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
        self.weight = cache(partial(_weight, self.planes))
        self.rows = cache(_positions)

    def __len__(self) -> int:
        return len(self.hours)


def _weight(planes: Sequence[int], rows: int) -> int:
    """Summed multiplicity of the rows whose bits are set in ``rows``: one
    popcount per multiplicity bit plane, whatever the number of rows."""
    total = 0
    for plane in reversed(planes):  # the highest bit first
        total = 2 * total + (rows & plane).bit_count()
    return total


def _positions(rows: int) -> tuple[int, ...]:
    """The positions of the bits set in ``rows``, ascending."""
    positions = []
    while rows:
        positions.append((rows & -rows).bit_length() - 1)
        rows &= rows - 1  # clear the lowest set bit
    return tuple(positions)


_HOUR = 3_600_000_000  # an hour in microseconds
# texts a parse cache holds: hours pass, so theirs is cleared when full, as is the offsets'
# (3,600 seconds fit); a year's few thousand tails recur, so the first are kept
_STAMPS_CACHED, _TAILS_CACHED = 1 << 10, 1 << 12
# the separators of the stamps _stamp reads, at positions 4, 7, 10, 13 and 16
_STAMP_FORMS = frozenset(["--T:", "-- :", "--T::", "-- ::"])


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
    excluded_hours: list[str]  # as hour_text writes them


def parse_records(stream: IO[str], delimiter: str = ",") -> ParseResult:
    """Parse delimiter-separated records with a header row naming COLUMNS.

    One pass, with no object per row. Malformed rows are skipped with a
    diagnostic naming their line and counted in ``rejected_rows``; they are
    never silently dropped. Duplicate (site, direction, vehicle_class,
    timestamp) keys keep the last occurrence, with a diagnostic per replaced
    row; these follow the rejections, latest replaced row first.

    csv reads the header. Each line is then cut into its stamp text and its
    tail, the rest of the line. A tail maps, in a cache keeping the first
    _TAILS_CACHED, to its slice's appends and wait or why it is rejected. A
    stamp is its hour, the text before its first colon, plus its offset, the
    minute text after it: _stamp reads each once into a cache cleared when
    full, and reads whole, for its reason, a stamp that either rejects. A
    line holding a quote, NUL, ``\\r`` before its end or more than
    ``csv.field_size_limit()`` characters, or too short to reach its stamp,
    is read as one csv row instead; its stamp is stripped before its
    look-ups, and its tail is not cached.

    As with ``csv.DictReader``, blank lines are skipped, a repeated column
    name reads its last column and a short row reads its missing fields as
    empty.

    Raises IngestError if the stream has no header or a mandatory column
    is missing; csv's own errors pass through.
    """
    import csv
    from array import array

    source = iter(stream)
    reader = csv.reader(source, delimiter=delimiter)
    header = next(reader, None)
    if header is None:
        raise IngestError("input has no header row")
    missing = [c for c in COLUMNS if c not in header]
    if missing:
        raise IngestError(f"missing required column(s): {', '.join(missing)}")
    index = {name: i for i, name in enumerate(header)}
    i_stamp, i_site, i_direction, i_class, i_wait = (index[c] for c in COLUMNS)
    width = max(index[c] for c in COLUMNS) + 1
    limit = csv.field_size_limit()

    slices: dict[tuple[str, str, str], tuple[array, array, array]] = {}
    diagnostics: list[str] = []
    hour_of: dict[str, int | None] = {}  # "YYYY-MM-DDTHH" -> its hour in microseconds, or None
    offset_of: dict[str, int | None] = {}  # "MM" or "MM:SS" -> its offset in the hour, or None
    appends: dict[tuple[str, str, str], tuple] = {}  # slice fields -> its columns' appends
    tail_of: dict[str, tuple | str] = {}  # tail -> its entry (parse_tail)

    def cut(line: str) -> tuple[str, str, str]:
        """(stamp text, delimiter, the line without them); no delimiter if the line is short."""
        fields = line.split(delimiter, i_stamp + 1)
        if len(fields) <= i_stamp:
            return "", "", line
        return fields.pop(i_stamp), delimiter, delimiter.join(fields)

    def part(cache: dict[str, int | None], key: str, form: str, size: int) -> int | None:
        """``cache[key]``: _stamp(form % key), None if it is rejected; cleared when full."""
        if key not in cache:
            if len(cache) == size:
                cache.clear()
            cache[key] = value if (value := _stamp(form % key)).__class__ is int else None
        return cache[key]

    def stamp_of(text: str) -> int | str:
        """_stamp(text): the hour before its first colon plus the offset after it."""
        head, _, rest = text.partition(":")
        hour = part(hour_of, head, "%s:00", _STAMPS_CACHED)
        offset = None if hour is None else part(offset_of, rest, "0001-01-01T00:%s", _TAILS_CACHED)
        return _stamp(text) if offset is None else hour + offset  # _stamp gives the reason

    def parse_tail(row: list[str]) -> tuple | str:
        """A row's tail entry: (*appends, wait), or why its slice, then its wait, is rejected."""
        if len(row) < width:
            row += [""] * (width - len(row))
        fields = (row[i_site], row[i_direction], row[i_class])
        append = appends.get(fields)
        if append is None:
            slice_ = _parse_slice(*fields)
            if isinstance(slice_, str):
                return slice_
            columns = slices.setdefault(slice_, (array("q"), array("d"), array("q")))
            append = appends[fields] = tuple(column.append for column in columns)
        wait = _wait(row[i_wait].strip())
        return wait if wait.__class__ is str else append + (wait,)

    line_num = reader.line_num
    for line in source:
        line_num += 1
        text, sep, tail = line.partition(delimiter) if i_stamp == 0 else cut(line)
        head, _, rest = text.partition(":")
        hour, offset, tail_entry = hour_of.get(head), offset_of.get(rest), tail_of.get(tail)
        stamp = None if hour is None or offset is None else hour + offset
        if stamp is None or tail_entry is None:  # cached texts were checked as they were cached
            row = None
            if (not sep or len(line) > limit or '"' in line or "\0" in line
                    or "\r" in line and "\r" in line.rstrip("\r\n")):
                # csv reads a line that a split would misread; its stamp, stripped, is
                # looked up, so no cached text holds a character only csv reads
                row_reader = csv.reader(chain([line], source), delimiter=delimiter)
                row = next(row_reader)
                line_num += row_reader.line_num - 1
                if not row:
                    continue
                row += [""] * (width - len(row))
                stamp = stamp_of(row[i_stamp].strip())
            elif stamp is None:
                stamp = stamp_of(text)
            if stamp.__class__ is not str:
                if row is not None:
                    tail_entry = parse_tail(row)
                elif tail_entry is None:
                    tail_entry = parse_tail(line.rstrip("\r\n").split(delimiter))
                    if len(tail_of) < _TAILS_CACHED:
                        tail_of[tail] = tail_entry
        if stamp.__class__ is str or tail_entry.__class__ is str:  # the stamp's reason first
            diagnostics.append(f"row {line_num}: {stamp if stamp.__class__ is str else tail_entry}")
            continue
        add_stamp, add_wait, add_line, wait = tail_entry
        add_stamp(stamp)
        add_wait(wait)
        add_line(line_num)

    rejected = len(diagnostics)  # only rejections so far
    replaced = []  # (line, slice, stamp) per replaced row
    for slice_, (stamps, waits, lines) in slices.items():
        if rows := sorted(_replaced(stamps)):
            replaced += ((lines[row], slice_, stamps[row]) for row in rows)
            slices[slice_] = tuple(map(_without, (stamps, waits, lines), repeat(rows)))
    for _, slice_, stamp in sorted(replaced, reverse=True):  # lines are distinct
        at = (datetime.min + timedelta(microseconds=stamp)).isoformat()
        diagnostics.append(f"duplicate observation for {'/'.join(slice_)} at {at}; kept last")
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
    """A stamp in microseconds since ``datetime.min``, or why it is rejected: the
    stripped text is ASCII ``YYYY-MM-DD``, ``T`` or a space, ``HH:MM`` and optional
    ``:SS``, its form checked by position, then its digits by fromisoformat."""
    text = raw.strip()
    if len(text) in (16, 19) and text[4::3] in _STAMP_FORMS and text.isascii():
        try:
            delta = datetime.fromisoformat(text) - datetime.min
        except ValueError:
            pass
        else:  # the grammar has no fraction of a second
            return (delta.days * 86_400 + delta.seconds) * 1_000_000
    return f"bad timestamp {text!r}"


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


def aggregate_hourly(stamps: array, waits: array) -> dict[int, float]:
    """Arithmetic mean of one slice's wait minutes per clock hour, keyed by the
    hour's number since ``datetime.min``, in the order of each hour's first row.

    A record at timestamp t contributes to the hour floor(t); hours with no
    records are simply absent. For an hourly feed the single value is the mean.
    Each hour's sum adds its waits in file order with plain ``+``: a mean on
    a category bound can move by one bit under another order or under a
    compensated sum (``sum`` is one from Python 3.12).
    """
    groups: dict[int, list] = {}  # hour -> [sum, count]; the columns are in file order
    for hour, wait in zip(map(floordiv, stamps, repeat(_HOUR)), waits):
        group = groups.get(hour)
        if group is None:
            group = groups[hour] = [0.0, 0]
        group[0] += wait
        group[1] += 1
    return {hour: total / rows for hour, (total, rows) in groups.items()}


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
    parsed: ParseResult,
    attributes: Sequence[str],
    direction: str,
    vehicle_class: str,
) -> TransactionBuild:
    """The database of every hour in which every configured site has a value.

    Each site's configured slice alone is averaged (aggregate_hourly). Hours
    where any configured site is missing are excluded and recorded in
    ``excluded_hours``; nothing is imputed. Each hour's items are in the
    configured attribute order. Every hour is kept as its hour_text.
    """
    if not attributes:
        raise IngestError("attribute list must be nonempty")
    if len(set(attributes)) != len(attributes):
        raise IngestError("attribute list must be distinct")

    means = [aggregate_hourly(*parsed.slices.get((site, direction, vehicle_class), ((), ()))[:2])
             for site in attributes]  # per site, hour -> mean; a site with no slice has none

    def texts(hours: list[int]) -> list[str]:
        """hour_text of each hour, numbered since datetime.min; each day's date formatted once."""
        dates = {day: hour_text(datetime.min + timedelta(days=day))[:11]  # "2016-08-22T"
                 for day in set(map(floordiv, hours, repeat(24)))}
        return [f"{dates[hour // 24]}{hour % 24:02}:00" for hour in hours]

    hours = sorted(set(means[0]).intersection(*means[1:]))
    excluded = sorted(set().union(*means).difference(hours))
    # a site's item per category, one tuple that every row holding it shares
    rows = zip(*(map({category: (site, category) for category in range(1, 5)}.__getitem__,
                     map(discretize, map(hourly.__getitem__, hours)))
                 for site, hourly in zip(attributes, means)))
    return TransactionBuild(DistinctRows(texts(hours), list(rows)), texts(excluded))


# --- transaction file format -------------------------------------------------
# One row per hour: ISO-8601 hour, then one category index per attribute,
# comma-separated. Header names the attributes.

def hour_text(stamp: datetime) -> str:
    """How every artifact writes an hour: ``2016-08-22T10:00``, the year in four digits."""
    return stamp.isoformat(timespec="minutes")


# Each character that every hour_text stamp has at a fixed position.
_HOUR_MARKS = tuple(zip((4, 7, 10, 13, 14, 15), "--T:00"))


def parse_hours(texts: Sequence[str]) -> bool:
    """Whether each text is exactly as hour_text writes it (``2016-08-22T10:00``:
    ASCII, 16 characters) and no text repeats, checked in a few calls over the
    whole column; the texts are left as they are. fromisoformat checks the
    digits and their ranges. Texts in that form order as their hours do, so
    sorting them finds a repeat."""
    joined, n = "".join(texts), len(texts)
    if (len(joined) != 16 * n or min(map(len, texts), default=16) != 16
            or not joined.isascii()
            or any(joined[at::16] != mark * n for at, mark in _HOUR_MARKS)):
        return False
    if any(starmap(eq, pairwise(sorted(texts)))):
        return False
    try:
        all(map(datetime.fromisoformat, texts))  # every datetime is true, so all reads each
    except ValueError:
        return False
    return True


def read_stamped(rows: Callable[[Callable[[str], Any]], Any], column: Callable[[Any], list]) -> Any:
    """A staged file read by its row loop ``rows``, which reads each stamp with
    the reader it is given. The first pass keeps every stamp as its text and
    checks ``column`` of the result in one call (parse_hours). If that pass
    raises or parse_hours returns False, the loop runs again and checks each
    stamp as it comes, with parse_hours and against the hours read before it;
    that pass alone gives the result or the diagnostic. Either way an hour is
    its text, as hour_text writes it."""
    try:
        result = rows(str)
        if parse_hours(column(result)):
            return result
    except (IngestError, ValueError):
        pass
    seen: set[str] = set()

    def read(text: str) -> str:
        if not parse_hours([text]):
            raise ValueError(f"bad hour {text!r} (expected YYYY-MM-DDTHH:00)")
        if text in seen:
            raise ValueError(f"repeated hour {text}")
        seen.add(text)
        return text

    return rows(read)


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


def check_fields(fields: list[str], count: int) -> list[str]:
    """``fields``, if there are ``count`` of them; otherwise ValueError."""
    if len(fields) != count:
        raise ValueError(f"expected {count} fields")
    return fields


def write_transactions(path: str, db: DistinctRows, attributes: Sequence[str]) -> None:
    """One row per hour, in time order; each distinct row's categories are formatted once."""
    texts = []
    for items in db.items:
        cats = dict(items)
        texts.append("".join(f",{cats[a]}" for a in attributes) + "\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("timestamp," + ",".join(attributes) + "\n")
        fh.writelines(map(add, db.hours, map(texts.__getitem__, db.index)))


def read_transactions(path: str) -> tuple[DistinctRows, list[str]]:
    """Read a transaction file back; returns (database, attribute names).

    Every row is checked, no two rows may hold one hour, and the header names
    each site once, by a name that is not empty. Each distinct category text is
    parsed once, so its rows share one items tuple. Rows may come in any time
    order. The stamps are read as read_stamped reads them: in one call when
    every one is as hour_text writes it, else per row."""
    hours, hour_items, attributes = read_stamped(partial(_transaction_rows, path), itemgetter(0))
    return DistinctRows(hours, hour_items), attributes


def _transaction_rows(path: str, read_hour: Callable[[str], Any]) -> tuple[list, list, list[str]]:
    """Each row's stamp as ``read_hour`` reads it and its items, in file order,
    and the attribute names; IngestError names the first bad line."""
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
        if "" in attributes:
            raise IngestError(f"{path}: transaction header names an empty site ({header!r})")
        hours, hour_items = [], []
        rows: dict[str, tuple[Item, ...]] = {}  # category text -> items
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                if line.count(",") != len(attributes):
                    raise ValueError(f"expected {len(columns)} fields")
                text, _, categories = line.partition(",")
                stamp = read_hour(text)
                items = rows.get(categories)
                if items is None:
                    items = rows[categories] = parse_categories(categories.split(","), attributes)
            except ValueError as exc:
                raise IngestError(f"{path}:{lineno}: {exc}")
            hours.append(stamp)
            hour_items.append(items)
    return hours, hour_items, attributes
