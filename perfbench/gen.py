"""Seeded input generators for the three benchmark workloads.

Every input is made here, from the workload seed, so a change to the
program's own ``synth`` module cannot change a workload. Each generator also
returns the ground truth the correctness checks need: the category of every
hour, computed from the exact readings written, and the injected hours.

Readings are drawn as whole hundredths of a minute, so hourly means are exact
fractions and the category of every hour is known without floating point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from fractions import Fraction

# Reading bands per category, in hundredths of a minute. Category 1 is
# exactly zero; the others sit well inside (0, 15], (15, 30] and (30, inf).
BANDS = {1: (0, 0), 2: (400, 1200), 3: (1800, 2800), 4: (3600, 7000)}

FEED_SITES = ("PB", "LQ", "RB")
FEED_HOURLY_SITE = "RB"
WIDE_SITES = ("PB", "LQ", "RB", "WH", "BW", "AM")
DIRECTION = "ToCanada"
VEHICLE_CLASS = "Car"

FEED_DAYS = 365
FEED_START = datetime(2017, 1, 1)
FEED_INJECTED = 24
FEED_EXCLUDED = 12
FEED_DUPLICATES = 48
FEED_MALFORMED = 24
FEED_DRIFT = 0.06
FEED_OFF_BAND = 0.08

WIDE_DAYS = 30
WIDE_START = datetime(2018, 3, 1)
WIDE_DRIFT = 0.22

DECADE_DAYS = 3650
DECADE_START = datetime(2007, 1, 1)
DECADE_INJECTED_PER_YEAR = 24
TABLE_DAYS = 365

HEADER = "timestamp,site,direction,vehicle_class,wait_minutes\n"

# Rows the ingest stage must reject, one per kind of fault it diagnoses.
# NaN and infinite waits are left out: the parser accepts them today.
_MALFORMED = (
    "2017-02-30T10:00,PB,ToCanada,Car,4.00",
    "2017-03-01T10:00,PB,ToCanada,Car,-4.00",
    "2017-03-01T10:00,PB,Sideways,Car,4.00",
    "2017-03-01T10:00,LQ,ToCanada,Bicycle,4.00",
    "2017-03-01T10:00,LQ,ToCanada,Car,n/a",
    "2017-03-01T10:00,,ToCanada,Car,4.00",
)


@dataclass
class RawInput:
    """A raw feed plus its truth: categories per complete hour (incomplete
    hours are absent), injected hours."""

    lines: list[str]
    sites: tuple[str, ...]
    hours: int
    categories: dict[datetime, tuple[int, ...]]
    injected: list[datetime] = field(default_factory=list)


@dataclass
class TransactionInput:
    """Hourly categories written straight to the transaction file format."""

    sites: tuple[str, ...]
    rows: list[tuple[datetime, tuple[int, ...]]]
    table_rows: list[tuple[datetime, tuple[int, ...]]]


def _feed_regime(stamp: datetime) -> tuple[int, int, int]:
    hour = stamp.hour
    weekend = stamp.weekday() >= 5
    if hour < 6:
        return (1, 1, 1)
    if hour < 10:
        return (1, 2, 1) if weekend else (2, 2, 1)
    if hour < 15:
        return (3, 3, 2) if weekend else (2, 3, 2)
    if hour < 19:
        return (3, 2, 2)
    return (1, 2, 1)


def _drift(combo: tuple[int, ...], rng: random.Random, top: int) -> tuple[int, ...]:
    idx = rng.randrange(len(combo))
    drifted = list(combo)
    drifted[idx] = min(top, max(1, drifted[idx] + rng.choice((-1, 1))))
    return tuple(drifted)


def _category(mean: Fraction) -> int:
    if mean == 0:
        return 1
    if mean <= 15:
        return 2
    if mean <= 30:
        return 3
    return 4


def _near_bound(total: int, count: int) -> bool:
    """Mean within half a hundredth of 15 or 30 minutes: float rounding could
    put it on either side, so such hours are redrawn."""
    mean = Fraction(total, count)
    return any(abs(mean - bound) < Fraction(1, 2) for bound in (1500, 3000))


def _fmt(cents: int) -> str:
    return f"{cents // 100}.{cents % 100:02d}"


def _draw(rng: random.Random, category: int) -> int:
    lo, hi = BANDS[category]
    return lo if lo == hi else rng.randint(lo, hi)


def _five_minute_readings(rng: random.Random, category: int, injected: bool) -> list[int]:
    """Twelve readings for one hour; some come from a neighbouring band."""
    while True:
        readings = []
        for _ in range(12):
            cat = category
            if not injected and category > 1 and rng.random() < FEED_OFF_BAND:
                cat = 5 - category  # 2 <-> 3: mixes bands without leaving [2, 3]
            readings.append(_draw(rng, cat))
        if not _near_bound(sum(readings), 12):
            return readings


def feed_year(seed: int) -> RawInput:
    """365 days, three sites: PB and LQ every five minutes, RB hourly."""
    rng = random.Random(f"feed_year:{seed}")
    hours = FEED_DAYS * 24
    picks = rng.sample(range(hours), FEED_INJECTED + FEED_EXCLUDED)
    injected = set(picks[:FEED_INJECTED])
    excluded = set(picks[FEED_INJECTED:])
    five_min = [s for s in FEED_SITES if s != FEED_HOURLY_SITE]
    dup_keys = set(
        rng.sample([(h, s) for h in range(hours) for s in five_min], FEED_DUPLICATES)
    )
    bad_at = set(rng.sample(range(hours), FEED_MALFORMED))
    malformed = 0

    out = RawInput(lines=[HEADER], sites=FEED_SITES, hours=hours, categories={})
    tail = f",{DIRECTION},{VEHICLE_CLASS},"
    for offset in range(hours):
        stamp = FEED_START + timedelta(hours=offset)
        if offset in injected:
            combo = (4, 4, 4)
        else:
            combo = _feed_regime(stamp)
            if rng.random() < FEED_DRIFT:
                combo = _drift(combo, rng, 3)
        cats = []
        for site, category in zip(FEED_SITES, combo):
            if site == FEED_HOURLY_SITE:
                while True:
                    value = _draw(rng, category)
                    if not _near_bound(value, 1):
                        break
                cats.append(_category(Fraction(value, 100)))
                if offset in excluded:
                    continue
                out.lines.append(f"{stamp:%Y-%m-%dT%H:%M},{site}{tail}{_fmt(value)}\n")
                continue
            readings = _five_minute_readings(rng, category, offset in injected)
            sent = list(enumerate(readings))
            if (offset, site) in dup_keys:
                # The feed re-sends one slot later in the hour with a new
                # value; ingest keeps the last one, and so does the truth.
                slot = rng.randrange(12)
                stale = readings[slot]
                while True:
                    readings[slot] = _draw(rng, category)
                    if not _near_bound(sum(readings), 12):
                        break
                sent[slot] = (slot, stale)
                sent.append((slot, readings[slot]))
            for slot, value in sent:
                ts = stamp + timedelta(minutes=5 * slot)
                out.lines.append(f"{ts:%Y-%m-%dT%H:%M},{site}{tail}{_fmt(value)}\n")
            cats.append(_category(Fraction(sum(readings), 1200)))
        if offset in bad_at:
            out.lines.append(_MALFORMED[malformed % len(_MALFORMED)] + "\n")
            malformed += 1
        if offset not in excluded:
            out.categories[stamp] = tuple(cats)
    out.injected = sorted(FEED_START + timedelta(hours=h) for h in injected)
    return out


# Wide feed: one daily profile, phase-shifted per site, so every site pair
# meets many category pairs over a day.
_WIDE_PROFILE = (1, 1, 1, 1, 1, 2, 2, 3, 3, 3, 2, 2, 3, 3, 4, 4, 3, 3, 2, 2, 2, 1, 1, 1)
_WIDE_SHIFT = (0, 1, 3, 5, 8, 11)


def wide_sites(seed: int, days: int = WIDE_DAYS) -> RawInput:
    """Six hourly sites, each drifting on its own.

    Drift is stratified: for every site and hour of day, exactly
    round(WIDE_DRIFT * days) of the days drift, half up and half down, and
    the seed picks which. Each site's category counts are then the same for
    every seed, and only how the sites' drifts coincide varies.
    """
    rng = random.Random(f"wide_sites:{seed}")
    hours = days * 24
    drifts = round(WIDE_DRIFT * days)
    shift: dict[tuple[int, int], int] = {}  # (hour offset, site index) -> -1 or +1
    for hour_of_day in range(24):
        for site in range(len(WIDE_SITES)):
            chosen = rng.sample(range(days), drifts)
            for n, day in enumerate(chosen):
                shift[(day * 24 + hour_of_day, site)] = 1 if n % 2 else -1
    out = RawInput(lines=[HEADER], sites=WIDE_SITES, hours=hours, categories={})
    tail = f",{DIRECTION},{VEHICLE_CLASS},"
    for offset in range(hours):
        stamp = WIDE_START + timedelta(hours=offset)
        cats = []
        for index, (site, phase) in enumerate(zip(WIDE_SITES, _WIDE_SHIFT)):
            category = _WIDE_PROFILE[(stamp.hour + phase) % 24]
            category = min(4, max(1, category + shift.get((offset, index), 0)))
            while True:
                value = _draw(rng, category)
                if not _near_bound(value, 1):
                    break
            cats.append(_category(Fraction(value, 100)))
            out.lines.append(f"{stamp:%Y-%m-%dT%H:%M},{site}{tail}{_fmt(value)}\n")
        out.categories[stamp] = tuple(cats)
    return out


def rescore_decade(seed: int) -> TransactionInput:
    """Ten years of hourly categories for three sites, drawn like feed_year.

    The first TABLE_DAYS days are the year the frozen pattern table is
    compressed from; every year has its own injected heavy-delay hours, so
    the first year holds every item the decade does.
    """
    rng = random.Random(f"rescore_decade:{seed}")
    year = TABLE_DAYS * 24
    injected = set()
    for start in range(0, DECADE_DAYS * 24, year):
        injected.update(rng.sample(range(start, start + year), DECADE_INJECTED_PER_YEAR))
    rows = []
    for offset in range(DECADE_DAYS * 24):
        stamp = DECADE_START + timedelta(hours=offset)
        if offset in injected:
            combo = (4, 4, 4)
        else:
            combo = _feed_regime(stamp)
            if rng.random() < FEED_DRIFT:
                combo = _drift(combo, rng, 3)
        rows.append((stamp, combo))
    return TransactionInput(sites=FEED_SITES, rows=rows, table_rows=rows[:year])


def write_transactions(path: str, sites: tuple[str, ...], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("timestamp," + ",".join(sites) + "\n")
        for stamp, combo in rows:
            fh.write(f"{stamp:%Y-%m-%dT%H:%M}," + ",".join(map(str, combo)) + "\n")
