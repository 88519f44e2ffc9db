"""Seeded synthetic wait-time generator for pipeline testing and recall evaluation.

Produces raw records for three sites over a configurable number of days: two
sites report every five minutes, the third hourly, mirroring the mixed feed
rates the ingest stage has to handle. Each hour follows a regime's dominant
category combination with probability ``dominance``; otherwise one site
drifts by one category. Injected anomalous hours overwrite the regime with
heavy delay everywhere (category 4, which the regimes never produce) and are
listed in a manifest so recall can be measured against ground truth.

Same seed, same output, always.
"""

from __future__ import annotations

import random
from datetime import datetime, timedelta
from typing import Callable, NamedTuple, Sequence

from .ingest import COLUMNS, DIRECTIONS, VEHICLE_CLASSES, canonical, hour_text

# The sites a regime gives categories for, in order, and those reporting hourly.
_SITES = ("PB", "LQ", "RB")
_HOURLY_SITES = ("RB",)
_FIRST_HOUR = datetime(2016, 8, 22)

# Per-category sampling bands for five-minute values; means of band draws stay
# inside the category's interval. Category 1 must average exactly zero.
_CATEGORY_BANDS = {
    1: (0.0, 0.0),
    2: (4.0, 12.0),
    3: (18.0, 28.0),
    4: (36.0, 70.0),
}

_ANOMALY_CATEGORY = 4

RegimeFn = Callable[[int], tuple[int, int, int]]


def _constant_regime(hour: int) -> tuple[int, int, int]:
    return (2, 1, 1)


def _daily_regime(hour: int) -> tuple[int, int, int]:
    # Qualitative daily shape: quiet nights, elevated mornings, a midday bump,
    # an afternoon peak, easing evenings. Categories stay at or below 3.
    if hour < 6:
        return (1, 1, 1)
    if hour < 10:
        return (2, 2, 1)
    if hour < 15:
        return (2, 3, 2)
    if hour < 19:
        return (3, 2, 2)
    return (1, 2, 1)


REGIMES: dict[str, RegimeFn] = {
    "constant": _constant_regime,
    "daily": _daily_regime,
}


class WaitTimeRecord(NamedTuple):
    """One raw observation, as a row of the raw feed."""

    timestamp: datetime
    site: str
    direction: str
    vehicle_class: str
    wait_minutes: float


class SyntheticDataset(NamedTuple):
    records: list[WaitTimeRecord]
    injected_hours: list[datetime]


def generate_synthetic(
    seed: int,
    days: int = 30,
    *,
    direction: str = "ToCanada",
    vehicle_class: str = "Car",
    dominance: float = 0.95,
    anomalies: int = 20,
    regime: str = "daily",
) -> SyntheticDataset:
    """Generate deterministic raw records plus the injected-hour manifest."""
    direction = canonical(direction, DIRECTIONS, "direction")
    vehicle_class = canonical(vehicle_class, VEHICLE_CLASSES, "vehicle class")
    if days < 1:
        raise ValueError(f"days must be >= 1, got {days}")
    if not 0 <= dominance <= 1:
        raise ValueError(f"dominance must be in [0, 1], got {dominance}")
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r} (have: {', '.join(sorted(REGIMES))})")
    total_hours = days * 24
    if not 0 <= anomalies <= total_hours:
        raise ValueError(f"anomalies must be in [0, {total_hours}], got {anomalies}")

    rng = random.Random(seed)
    regime_fn = REGIMES[regime]

    injected_offsets = sorted(rng.sample(range(total_hours), anomalies))
    injected = set(injected_offsets)

    records: list[WaitTimeRecord] = []
    for offset in range(total_hours):
        hour_start = _FIRST_HOUR + timedelta(hours=offset)
        if offset in injected:
            combo = (_ANOMALY_CATEGORY,) * len(_SITES)
        else:
            combo = regime_fn(hour_start.hour)
            if rng.random() >= dominance:
                combo = _drift_one_site(combo, rng)
        for site, category in zip(_SITES, combo):
            lo, hi = _CATEGORY_BANDS[category]
            if site in _HOURLY_SITES:
                stamps = [hour_start]
            else:
                stamps = [hour_start + timedelta(minutes=5 * i) for i in range(12)]
            for stamp in stamps:
                value = lo if lo == hi else rng.uniform(lo, hi)
                records.append(
                    WaitTimeRecord(
                        timestamp=stamp,
                        site=site,
                        direction=direction,
                        vehicle_class=vehicle_class,
                        wait_minutes=round(value, 2),
                    )
                )
    manifest = [_FIRST_HOUR + timedelta(hours=off) for off in injected_offsets]
    return SyntheticDataset(records=records, injected_hours=manifest)


def _drift_one_site(
    combo: tuple[int, ...], rng: random.Random
) -> tuple[int, ...]:
    """Shift one site's category by +/-1, clamped to [1, 3]."""
    idx = rng.randrange(len(combo))
    delta = rng.choice((-1, 1))
    drifted = list(combo)
    drifted[idx] = min(3, max(1, drifted[idx] + delta))
    return tuple(drifted)


def write_records_csv(path: str, records: Sequence[WaitTimeRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(COLUMNS) + "\n")
        for rec in records:
            fh.write(
                f"{hour_text(rec.timestamp)},{rec.site},"
                f"{rec.direction},{rec.vehicle_class},{rec.wait_minutes}\n"
            )


def write_manifest(path: str, injected_hours: Sequence[datetime]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for hour in injected_hours:
            fh.write(hour_text(hour) + "\n")
