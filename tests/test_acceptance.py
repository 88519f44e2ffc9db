"""End-to-end acceptance gate.

One test per criterion. Each records a single verdict line, echoed in the
terminal summary after the run (see conftest), and then asserts; quoted
numbers are measured in the run, never pasted in.
"""

import random
import time
from math import fsum

import conftest
from conftest import PAIR, RB2, SIX_ROW_COMBOS, TRIPLE
from helpers import (
    brute_force_frequent,
    exhaustive_best_length,
    make_db,
    parse_synthetic,
    pattern_code_length,
    random_db,
    transaction_code_length,
)
from mdlpatterns import SupportThreshold, compress, frequent_itemsets, score_all, top_fraction
from mdlpatterns.cli import RunConfig, run_pipeline
from mdlpatterns.codec import database_length, init_pattern_table, recompute_usages
from mdlpatterns.ingest import (
    aggregate_hourly,
    build_transactions,
    discretize,
)
from mdlpatterns.synth import generate_synthetic, write_records_csv

SITES = ["PB", "LQ", "RB"]


def _verdict(num: int, ok: bool, detail: str) -> bool:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    conftest.VERDICTS.append(line)
    print(line)
    return ok


def _worked_table_and_rows():
    rows = make_db(SIX_ROW_COMBOS)
    table = init_pattern_table(rows)
    table.usages.update({TRIPLE: 4, PAIR: 6})
    recompute_usages(table, rows)
    return rows, table


def test_criterion_1_worked_example_usages():
    started = time.perf_counter()
    rows, table = _worked_table_and_rows()
    elapsed = time.perf_counter() - started
    got = (table.usages[TRIPLE], table.usages[PAIR], table.usages[RB2])
    ok = (
        got == (4, 2, 2)
        and table.total_singleton_count == 18
        and table.singleton_counts[("PB", 1)] == 6
        and elapsed < 1.0
    )
    detail = (
        f"usages {got[0]}/{got[1]}/{got[2]}, c={table.total_singleton_count}, "
        f"r(PB:1)={table.singleton_counts[('PB', 1)]}, {elapsed:.3f}s"
    )
    assert _verdict(1, ok, detail), detail


def test_criterion_2_worked_example_code_lengths():
    rows, table = _worked_table_and_rows()
    lengths = tuple(
        pattern_code_length(items, table) for items in (TRIPLE, PAIR, RB2)
    )
    scores = [transaction_code_length(t, table) for t in rows]
    db_bits = database_length(rows, table)
    tol = 1e-9
    ok = (
        all(abs(g - e) <= tol for g, e in zip(lengths, (1.0, 2.0, 2.0)))
        and all(abs(g - e) <= tol for g, e in zip(scores, [1.0] * 4 + [4.0] * 2))
        and abs(db_bits - 12.0) <= tol
    )
    detail = (
        f"pattern bits {lengths[0]:.9f}/{lengths[1]:.9f}/{lengths[2]:.9f}, "
        f"row bits {scores[0]:.9f}x4 {scores[4]:.9f}x2, database {db_bits:.9f}"
    )
    assert _verdict(2, ok, detail), detail


def test_criterion_3_mining_matches_brute_force():
    started = time.perf_counter()
    rng = random.Random(160822)
    mismatches = 0
    compared = 0
    for _ in range(200):
        db = random_db(rng, max_rows=12, attrs=("A", "B", "C"), max_cat=4)
        if rng.random() < 0.5:
            threshold = SupportThreshold(count=rng.randint(1, 4))
        else:
            threshold = SupportThreshold(fraction=rng.choice((0.2, 0.34, 0.5)))
        mined = set(frequent_itemsets(db, threshold).items())
        oracle = brute_force_frequent(db, threshold)
        compared += len(oracle)
        if mined != oracle:
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 10.0
    detail = (
        f"200 databases, {compared} itemsets cross-checked, "
        f"{mismatches} mismatches, {elapsed:.2f}s"
    )
    assert _verdict(3, ok, detail), detail


def test_criterion_4_greedy_versus_exhaustive():
    started = time.perf_counter()
    rng = random.Random(48109)
    threshold = SupportThreshold(count=2)
    ratios = []
    never_worse_than_start = True
    for _ in range(50):
        while True:
            db = random_db(rng, max_rows=10, min_rows=3, attrs=("A", "B", "C"), max_cat=3)
            candidates = frequent_itemsets(db, threshold)
            if len(candidates) <= 10:  # keeps the exhaustive sweep tractable
                break
        result = compress(db, candidates)
        never_worse_than_start &= result.final_length <= result.initial_length
        best = exhaustive_best_length(db, candidates)
        ratios.append(result.final_length / best)

    exact_on_uniform = True
    for combo in [(1, 2, 1), (2, 1, 3), (3, 3, 3), (1, 1, 1), (2, 3, 2)]:
        db = make_db([combo] * 20)
        candidates = frequent_itemsets(db, threshold)
        result = compress(db, candidates)
        best = exhaustive_best_length(db, candidates)
        exact_on_uniform &= abs(result.final_length - best) <= 1e-9

    elapsed = time.perf_counter() - started
    sane = all(r >= 1.0 - 1e-9 for r in ratios)
    ok = never_worse_than_start and exact_on_uniform and sane and elapsed < 30.0
    detail = (
        f"L/L* mean {fsum(ratios) / len(ratios):.4f}, max {max(ratios):.4f} "
        f"over 50 databases; identical-row class exact: {exact_on_uniform}; "
        f"{elapsed:.2f}s"
    )
    assert _verdict(4, ok, detail), detail


def test_criterion_5_accepted_lengths_strictly_decrease():
    rng = random.Random(905905)
    violations = 0
    acceptances = 0
    for _ in range(100):
        db = random_db(rng, max_rows=12, attrs=("A", "B", "C"), max_cat=3)
        result = compress(db, frequent_itemsets(db, SupportThreshold(count=2)))
        lengths = [result.initial_length] + [
            r.trial_length for r in result.log if r.accepted
        ]
        acceptances += len(lengths) - 1
        for earlier, later in zip(lengths, lengths[1:]):
            if not later < earlier:
                violations += 1
        if result.final_length != lengths[-1]:
            violations += 1
    ok = violations == 0
    detail = f"100 databases, {acceptances} acceptances, {violations} violations"
    assert _verdict(5, ok, detail), detail


def test_criterion_6_synthetic_recall(tmp_path):
    started = time.perf_counter()
    threshold = SupportThreshold(fraction=0.05, minimum=2)
    hits = []
    for seed in range(10):
        dataset = generate_synthetic(
            seed=seed, days=30, dominance=0.95, anomalies=20
        )
        hourly = aggregate_hourly(parse_synthetic(dataset, tmp_path))
        build = build_transactions(hourly, SITES, "ToCanada", "Car")
        candidates = frequent_itemsets(build.transactions, threshold)
        result = compress(build.transactions, candidates)
        scored = score_all(build.transactions, result.table)
        selected = top_fraction(scored, 0.05)
        top_hours = {s.transaction.timestamp for s in selected}
        hits.append(sum(1 for h in dataset.injected_hours if h in top_hours))
    elapsed = time.perf_counter() - started
    mean_recall = fsum(hits) / len(hits)
    ok = mean_recall >= 18.0 and elapsed < 30.0
    detail = (
        f"mean recall {mean_recall:.1f}/20 over 10 seeds "
        f"(per-seed {hits}), {elapsed:.2f}s"
    )
    assert _verdict(6, ok, detail), detail


def test_criterion_7_discretization_mapping():
    expected = {0: 1, 0.1: 2, 15: 2, 15.01: 3, 30: 3, 30.01: 4, 45: 4}
    got = {wait: int(discretize(wait)) for wait in expected}
    ok = got == expected
    detail = ", ".join(f"{w}->{c}" for w, c in got.items())
    assert _verdict(7, ok, detail), detail


def test_criterion_8_score_accounting(tmp_path):
    tol = 1e-9
    checks = []
    rows, table = _worked_table_and_rows()
    cases = [("worked", rows, table)]

    result = compress(rows, frequent_itemsets(rows, SupportThreshold(count=2)))
    cases.append(("compressed", rows, result.table))

    dataset = generate_synthetic(seed=0, days=10, anomalies=10)
    hourly = aggregate_hourly(parse_synthetic(dataset, tmp_path))
    build = build_transactions(hourly, SITES, "ToCanada", "Car")
    candidates = frequent_itemsets(
        build.transactions, SupportThreshold(fraction=0.05, minimum=2)
    )
    synth_result = compress(build.transactions, candidates)
    cases.append(("synthetic", build.transactions, synth_result.table))

    for name, transactions, current in cases:
        scored = score_all(transactions, current)
        score_gap = abs(
            fsum(s.score for s in scored) - database_length(transactions, current)
        )
        code_share = fsum(
            2 ** -pattern_code_length(p, current)
            for p, usage in current.usages.items()
            if usage > 0
        )
        share_gap = abs(code_share - 1.0)
        checks.append((name, score_gap, share_gap))

    ok = all(score_gap <= tol and share_gap <= tol for _, score_gap, share_gap in checks)
    detail = "; ".join(
        f"{name}: score gap {score_gap:.2e}, code share gap {share_gap:.2e}"
        for name, score_gap, share_gap in checks
    )
    assert _verdict(8, ok, detail), detail


def test_criterion_9_byte_identical_reruns(tmp_path):
    dataset_a = generate_synthetic(seed=17, days=10)
    dataset_b = generate_synthetic(seed=17, days=10)
    raw_a = tmp_path / "raw_a.csv"
    raw_b = tmp_path / "raw_b.csv"
    write_records_csv(str(raw_a), dataset_a.records)
    write_records_csv(str(raw_b), dataset_b.records)
    raw_identical = raw_a.read_bytes() == raw_b.read_bytes()

    out = tmp_path / "out"
    config = RunConfig(input=str(raw_a), output_dir=str(out))
    run_pipeline(config)
    names = sorted(p.name for p in out.iterdir())
    before = {name: (out / name).read_bytes() for name in names}
    run_pipeline(config)
    after = {name: (out / name).read_bytes() for name in names}

    ok = raw_identical and before == after and len(names) == 7
    identical = [name for name in names if before[name] == after[name]]
    detail = (
        f"generator rerun identical: {raw_identical}; "
        f"{len(identical)}/{len(names)} artifacts byte-identical on rerun"
    )
    assert _verdict(9, ok, detail), detail
