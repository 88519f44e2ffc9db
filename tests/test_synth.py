"""Synthetic generator: determinism, regime structure, injections, manifests."""

from datetime import datetime, timedelta

import pytest

from mdlpatterns.ingest import (
    Direction,
    VehicleClass,
    aggregate_hourly,
    build_transactions,
    parse_records,
)
from mdlpatterns.synth import (
    generate_synthetic,
    read_manifest,
    write_manifest,
    write_records_csv,
)

SITES = ["PB", "LQ", "RB"]


def test_same_seed_reproduces_everything():
    first = generate_synthetic(seed=42, days=3)
    second = generate_synthetic(seed=42, days=3)
    assert first.records == second.records
    assert first.injected_hours == second.injected_hours


def test_different_seeds_differ():
    first = generate_synthetic(seed=1, days=3)
    second = generate_synthetic(seed=2, days=3)
    assert first.records != second.records


def test_record_volume_mixed_feed_rates():
    # two five-minute sites and one hourly site: 25 records per hour
    dataset = generate_synthetic(seed=0, days=2, anomalies=0)
    assert len(dataset.records) == 2 * 24 * 25


def test_manifest_is_sorted_in_range():
    days = 4
    dataset = generate_synthetic(seed=9, days=days, anomalies=10)
    hours = dataset.injected_hours
    assert len(hours) == 10
    assert hours == sorted(hours)
    assert len(set(hours)) == 10
    start = datetime(2016, 8, 22)
    assert all(start <= h < start + timedelta(days=days) for h in hours)
    assert all(h.minute == 0 for h in hours)


def test_injected_hours_are_heavy_everywhere():
    dataset = generate_synthetic(seed=5, days=3, anomalies=8)
    injected = set(dataset.injected_hours)
    for rec in dataset.records:
        hour = rec.timestamp.replace(minute=0)
        if hour in injected:
            assert rec.wait_minutes >= 36.0


def test_normal_hours_never_reach_heavy_delay():
    dataset = generate_synthetic(seed=6, days=3, anomalies=0, dominance=0.5)
    assert all(rec.wait_minutes <= 28.0 for rec in dataset.records)


def test_constant_regime_without_noise_is_uniform():
    dataset = generate_synthetic(
        seed=3, days=2, anomalies=0, dominance=1.0, regime="constant"
    )
    hourly = aggregate_hourly(dataset.records)
    build = build_transactions(
        hourly, SITES, Direction.TO_CANADA, VehicleClass.CAR
    )
    assert len(build.transactions) == 48
    assert build.excluded_hours == []
    categories = {tuple(cat for _, cat in t.items) for t in build.transactions}
    assert categories == {(2, 1, 1)}


def test_generator_validates_arguments():
    with pytest.raises(ValueError, match="days"):
        generate_synthetic(seed=0, days=0)
    with pytest.raises(ValueError, match="dominance"):
        generate_synthetic(seed=0, days=1, dominance=1.5)
    with pytest.raises(ValueError, match="anomalies"):
        generate_synthetic(seed=0, days=1, anomalies=25)
    with pytest.raises(ValueError, match="regime"):
        generate_synthetic(seed=0, days=1, regime="lunar")
    with pytest.raises(ValueError, match="3 sites"):
        generate_synthetic(seed=0, days=1, sites=("A", "B"))


def test_records_csv_feeds_the_parser(tmp_path):
    dataset = generate_synthetic(seed=11, days=1, anomalies=2)
    path = tmp_path / "raw.csv"
    write_records_csv(str(path), dataset.records)
    with open(path, "r", encoding="utf-8") as fh:
        result = parse_records(fh)
    assert result.rejected_rows == 0
    assert result.duplicate_rows == 0
    assert len(result.records) == len(dataset.records)
    assert result.records[0].timestamp == dataset.records[0].timestamp
    assert result.records[0].wait_minutes == dataset.records[0].wait_minutes


def test_manifest_round_trip(tmp_path):
    dataset = generate_synthetic(seed=11, days=2, anomalies=5)
    path = tmp_path / "manifest.txt"
    write_manifest(str(path), dataset.injected_hours)
    assert read_manifest(str(path)) == dataset.injected_hours
