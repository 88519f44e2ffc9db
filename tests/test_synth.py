"""Synthetic generator: determinism, regime structure, injections, manifests."""

from datetime import datetime, timedelta

import pytest

from feed_oracle import kept_rows
from helpers import parse_synthetic, read_manifest
from mdlpatterns.ingest import build_transactions
from mdlpatterns.synth import (
    generate_synthetic,
    write_manifest,
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


def test_constant_regime_without_noise_is_uniform(tmp_path):
    dataset = generate_synthetic(
        seed=3, days=2, anomalies=0, dominance=1.0, regime="constant"
    )
    build = build_transactions(parse_synthetic(dataset, tmp_path), SITES, "ToCanada", "Car")
    assert len(build.transactions) == 48
    assert build.excluded_hours == []
    categories = {tuple(cat for _, cat in items) for items in build.transactions.items}
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


def test_generator_stores_the_canonical_slice_spelling():
    records = generate_synthetic(seed=0, days=1, direction=" tous", vehicle_class="TRUCK").records
    assert {(rec.direction, rec.vehicle_class) for rec in records} == {("ToUS", "Truck")}
    with pytest.raises(ValueError, match="unknown direction 'Sideways'"):
        generate_synthetic(seed=0, days=1, direction="Sideways")


def test_records_csv_feeds_the_parser(tmp_path):
    dataset = generate_synthetic(seed=11, days=1, anomalies=2)
    result = parse_synthetic(dataset, tmp_path)
    assert result.rejected_rows == 0
    assert result.duplicate_rows == 0
    assert len(result.records) == len(dataset.records)
    # every record comes back, in the order written
    assert kept_rows(result) == [
        (rec.site, rec.direction, rec.vehicle_class, rec.timestamp, rec.wait_minutes)
        for rec in dataset.records
    ]


def test_manifest_round_trip(tmp_path):
    dataset = generate_synthetic(seed=11, days=2, anomalies=5)
    path = tmp_path / "manifest.txt"
    write_manifest(str(path), dataset.injected_hours)
    assert read_manifest(str(path)) == dataset.injected_hours
