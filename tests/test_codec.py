"""Pattern table, covering, code lengths, and the greedy search.

The six-row database is small enough to check every number by hand, so most
expectations here are exact hand-computed values. Frozen floats carry full
precision where the formula mixes irrational logs.
"""

import random
import re
from collections import Counter
from dataclasses import replace
from math import fsum, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PAIR, RB2, TRIPLE
from helpers import (
    DATABASES,
    compress_oracle,
    cover_transaction,
    db_strategy,
    greedy_cover_oracle,
    make_db,
    pattern_code_length,
    random_db,
    settle_oracle,
    transaction_code_length,
)
from mdlpatterns import SupportThreshold, codec, compress, frequent_itemsets
from mdlpatterns.codec import (
    cover_database,
    cover_order,
    database_length,
    init_pattern_table,
    read_pattern_table,
    recompute_usages,
    table_length,
    total_length,
    write_acceptance_log,
    write_pattern_table,
)
from mdlpatterns.ingest import Transaction
from mdlpatterns.mining import distinct_rows

TRIPLE_B = frozenset({("PB", 1), ("LQ", 2), ("RB", 2)})

# Hand-computed lengths for the six-row database:
#   initial table: four singleton codes over 18 usages
#   final table:   the two full-row triples, usages 4 and 2
INITIAL_LENGTH = 76.58797503894245
FINAL_LENGTH = 41.71880002307701
# sum of -r * log2(r / 18) over r = 6, 6, 4, 2
SINGLETON_TERM = 34.03910001730775


# --- table initialization -----------------------------------------------------


def test_init_table_uses_raw_item_counts(six_rows):
    table = init_pattern_table(distinct_rows(six_rows))
    usages = {next(iter(p)): usage for p, usage in table.usages.items()}
    assert usages == {("PB", 1): 6, ("LQ", 2): 6, ("RB", 1): 4, ("RB", 2): 2}
    assert sum(table.singleton_counts.values()) == 18
    assert table.singleton_counts[("PB", 1)] == 6
    # singletons only, in sorted item order: the table order lengths are summed in
    assert list(table.usages) == [frozenset([item]) for item in sorted(usages)]


def test_init_table_rejects_empty_database():
    with pytest.raises(ValueError, match="empty"):
        init_pattern_table(distinct_rows([]))


# --- covering -----------------------------------------------------------------


def test_cover_is_exact_and_disjoint(six_rows, worked_table):
    for txn in six_rows:
        cover = cover_transaction(txn, worked_table)
        covered = [item for part in cover.parts for item in part]
        assert len(covered) == len(set(covered))
        assert set(covered) == frozenset(txn.items)


def test_cover_prefers_larger_patterns(six_rows, worked_table):
    assert cover_transaction(six_rows[0], worked_table).parts == (TRIPLE,)
    assert cover_transaction(six_rows[4], worked_table).parts == (PAIR, RB2)


@given(db=db_strategy(max_rows=12, max_cat=3), seed=st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_cover_matches_row_by_row_greedy_scan(db, seed):
    # a random half of all itemsets, with scrambled usages, so that
    # overlapping patterns compete in many different orders
    rng = random.Random(seed)
    table = init_pattern_table(distinct_rows(db))
    for itemset in frequent_itemsets(db, SupportThreshold(count=1)):
        if rng.random() < 0.5:
            table.usages[itemset] = 0
    table.usages = {pattern: rng.randint(0, 5) for pattern in table.usages}
    order = cover_order(table.usages)
    for cover in cover_database(db, table):
        assert cover.parts == greedy_cover_oracle(frozenset(cover.transaction.items), order)


@st.composite
def candidate_tables(draw):
    """A database and a random part of its itemsets, each with a drawn support."""
    db = draw(DATABASES)
    itemsets = list(frequent_itemsets(db, SupportThreshold(count=1)))
    chosen = draw(st.lists(st.sampled_from(itemsets), unique=True)) if itemsets else []
    return db, {items: draw(st.integers(0, len(db))) for items in chosen}


@given(drawn=candidate_tables())
@settings(max_examples=100, deadline=None)
def test_settled_usages_and_lengths_match_the_row_by_row_oracle(drawn):
    db, candidates = drawn
    table = init_pattern_table(distinct_rows(db))
    table.usages.update(candidates)
    expected = replace(table, usages=dict(table.usages))
    try:
        covers = settle_oracle(expected, db)
    except ValueError:
        with pytest.raises(ValueError, match="did not settle"):
            codec._settle(table, distinct_rows(db), "the drawn table")
        return
    assert codec._settle(table, distinct_rows(db), "the drawn table") == list(covers.values())
    assert list(table.usages.items()) == list(expected.usages.items())

    initial, trials, final = compress_oracle(db, candidates)
    result = compress(db, candidates)
    assert result.initial_length == initial
    assert [record.trial_length for record in result.log] == trials
    assert list(result.table.usages.items()) == list(final.usages.items())


def test_cover_rejects_unknown_item(worked_table):
    stranger = Transaction(
        timestamp=make_db([(1, 2, 1)])[0].timestamp,
        items=(("PB", 1), ("LQ", 2), ("ZZ", 9)),
    )
    with pytest.raises(ValueError, match="ZZ:9"):
        cover_transaction(stranger, worked_table)


def test_recompute_settles_worked_usages(worked_table):
    assert worked_table.usages == {
        TRIPLE: 4,
        PAIR: 2,
        RB2: 2,
        frozenset({("PB", 1)}): 0,
        frozenset({("LQ", 2)}): 0,
        frozenset({("RB", 1)}): 0,
    }


def test_recompute_is_idempotent(six_rows, worked_table):
    before = list(worked_table.usages.items())
    recompute_usages(worked_table, six_rows)
    assert list(worked_table.usages.items()) == before


# --- code lengths ---------------------------------------------------------------


def test_pattern_code_lengths_worked(worked_table):
    lengths = codec.code_lengths(worked_table)
    # in-use patterns only, keyed by the pattern, in table order
    assert list(lengths) == [RB2, TRIPLE, PAIR]
    assert lengths[TRIPLE] == pytest.approx(1.0, abs=1e-12)
    assert lengths[PAIR] == pytest.approx(2.0, abs=1e-12)
    assert lengths[RB2] == pytest.approx(2.0, abs=1e-12)


def test_zero_usage_pattern_has_no_code(worked_table):
    assert worked_table.usages[frozenset({("PB", 1)})] == 0
    # an hour holding PB:1 alone can only be covered by the unused singleton
    with pytest.raises(ValueError, match="pattern PB:1 has zero usage; it carries no code"):
        database_length(make_db([(1,)], attrs=("PB",)), worked_table)


def test_transaction_code_lengths_worked(six_rows, worked_table):
    scores = [transaction_code_length(t, worked_table) for t in six_rows]
    assert scores == pytest.approx([1.0, 1.0, 1.0, 1.0, 4.0, 4.0], abs=1e-12)


def test_database_length_worked(six_rows, worked_table):
    assert database_length(six_rows, worked_table) == pytest.approx(12.0, abs=1e-12)


def test_table_length_worked(worked_table):
    closed_form = 6 * log2(3) + 6 * log2(3) + 4 * log2(4.5) + 2 * log2(9)
    assert closed_form == pytest.approx(SINGLETON_TERM, abs=1e-9)
    assert table_length(worked_table) == pytest.approx(
        5.0 + SINGLETON_TERM, abs=1e-9
    )


def test_total_length_is_sum_of_parts(six_rows, worked_table):
    assert total_length(six_rows, worked_table) == pytest.approx(
        database_length(six_rows, worked_table) + table_length(worked_table),
        abs=1e-12,
    )


# --- greedy search ---------------------------------------------------------------


def test_compress_worked_example(six_rows):
    result = compress(six_rows, frequent_itemsets(six_rows, SupportThreshold(count=2)))
    assert result.initial_length == pytest.approx(INITIAL_LENGTH, abs=1e-9)
    assert result.final_length == pytest.approx(FINAL_LENGTH, abs=1e-9)
    assert result.compression_ratio == pytest.approx(
        FINAL_LENGTH / INITIAL_LENGTH, abs=1e-9
    )
    accepted = [r.items for r in result.log if r.accepted]
    assert accepted == [TRIPLE, TRIPLE_B]
    # four unused singletons in item order, then the accepted triples in acceptance order
    singletons = [frozenset([item]) for item in sorted(result.table.singleton_counts)]
    assert len(singletons) == 4
    assert list(result.table.usages.items()) == [(p, 0) for p in singletons] + [
        (TRIPLE, 4), (TRIPLE_B, 2),
    ]


def test_compress_rejects_exact_ties(six_rows):
    # every pair is interchangeable with existing codes here: the trial
    # length equals the current best exactly, and equality must not count
    result = compress(six_rows, frequent_itemsets(six_rows, SupportThreshold(count=2)))
    rejected = [r for r in result.log if not r.accepted]
    assert len(rejected) == 5
    assert all(len(r.items) == 2 for r in rejected)
    for record in rejected:
        assert record.trial_length == result.final_length


def test_unsettled_trial_raises_naming_the_candidate(six_rows, monkeypatch):
    # The first trial, the triple, takes rows 1-4 in its first pass; the
    # singletons' usages change order, so a second pass is needed to settle.
    monkeypatch.setattr(codec, "_MAX_RECOVER_PASSES", 1)
    with pytest.raises(ValueError, match=r"candidate LQ:2,PB:1,RB:1 did not settle in 1 passes"):
        compress(six_rows, frequent_itemsets(six_rows, SupportThreshold(count=2)))
    monkeypatch.setattr(codec, "_MAX_RECOVER_PASSES", 2)
    assert compress(six_rows, {TRIPLE: 4}).final_length < INITIAL_LENGTH


def test_compress_rejects_a_candidate_already_in_the_table(six_rows):
    # every item is already a singleton pattern; a second entry would overwrite its usage
    with pytest.raises(ValueError, match=r"^candidate PB:1 is already in the table$"):
        compress(six_rows, {TRIPLE: 4, frozenset({("PB", 1)}): 6})


def test_compress_rejects_empty_database():
    with pytest.raises(ValueError, match="empty"):
        compress([], [])


def test_accepted_lengths_strictly_decrease():
    rng = random.Random(905)
    for _ in range(25):
        db = random_db(rng, max_rows=12, max_cat=3)
        result = compress(db, frequent_itemsets(db, SupportThreshold(count=2)))
        lengths = [result.initial_length] + [
            r.trial_length for r in result.log if r.accepted
        ]
        for earlier, later in zip(lengths, lengths[1:]):
            assert later < earlier
        assert result.final_length == lengths[-1]


@given(db=db_strategy(max_rows=10, max_cat=3))
@settings(max_examples=100, deadline=None)
def test_compress_invariants(db):
    result = compress(db, frequent_itemsets(db, SupportThreshold(count=2)))
    table = result.table
    assert result.final_length <= result.initial_length + 1e-9

    # the final table still owns a singleton for every item in the database
    db_items = {item for txn in db for item in txn.items}
    singleton_items = {next(iter(p)) for p in table.usages if len(p) == 1}
    assert singleton_items == db_items

    # no dead weight: every multi-item pattern earns its keep
    assert all(usage > 0 for p, usage in table.usages.items() if len(p) > 1)

    covers = cover_database(db, table)
    for cover in covers:
        covered = [item for part in cover.parts for item in part]
        assert len(covered) == len(set(covered))
        assert set(covered) == frozenset(cover.transaction.items)

    # usages are exactly the cover participation counts
    tally = Counter(part for cover in covers for part in cover.parts)
    assert dict(tally) == {p: usage for p, usage in table.usages.items() if usage > 0}
    assert sum(table.usages.values()) == sum(len(c.parts) for c in covers)

    # code lengths of in-use patterns form a complete prefix-code budget
    share = fsum(
        2 ** -pattern_code_length(p, table)
        for p, usage in table.usages.items()
        if usage > 0
    )
    assert share == pytest.approx(1.0, abs=1e-9)


@given(db=db_strategy(max_rows=10, max_cat=3), seed=st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_compress_ignores_row_order(db, seed):
    shuffled = list(db)
    random.Random(seed).shuffle(shuffled)
    first = compress(db, frequent_itemsets(db, SupportThreshold(count=2)))
    second = compress(shuffled, frequent_itemsets(shuffled, SupportThreshold(count=2)))
    assert second.initial_length == pytest.approx(first.initial_length, abs=1e-9)
    assert second.final_length == pytest.approx(first.final_length, abs=1e-9)
    accepted_first = {r.items for r in first.log if r.accepted}
    accepted_second = {r.items for r in second.log if r.accepted}
    assert accepted_first == accepted_second


def test_compress_ignores_row_order_where_only_rounding_differs():
    # Summed hour by hour in row order, the trial of A:3,C:1 came out below
    # the best length by rounding alone, and only in the shuffled order.
    db = make_db(
        [(3, 1, 1), (3, 1, 3), (3, 1, 3), (3, 2, 1), (3, 2, 1),
         (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3)],
        attrs=("A", "B", "C"),
    )
    shuffled = list(db)
    random.Random(0).shuffle(shuffled)
    first = compress(db, frequent_itemsets(db, SupportThreshold(count=2)))
    second = compress(shuffled, frequent_itemsets(shuffled, SupportThreshold(count=2)))
    assert second.initial_length == first.initial_length
    assert second.final_length == first.final_length
    accepted_first = {r.items for r in first.log if r.accepted}
    assert {r.items for r in second.log if r.accepted} == accepted_first
    assert frozenset({("A", 3), ("C", 1)}) not in accepted_first


@given(db=db_strategy(max_rows=8, max_cat=3))
@settings(max_examples=100)
def test_doubling_database_doubles_encoded_bits(db):
    doubled = db + db
    table = init_pattern_table(distinct_rows(db))
    table_doubled = init_pattern_table(distinct_rows(doubled))
    # usage shares are unchanged, so every row costs exactly the same bits
    for txn in db:
        assert transaction_code_length(txn, table_doubled) == pytest.approx(
            transaction_code_length(txn, table), abs=1e-9
        )
    assert database_length(doubled, table_doubled) == pytest.approx(
        2 * database_length(db, table), abs=1e-9
    )


# --- file round trips --------------------------------------------------------------


def test_pattern_table_round_trip(tmp_path, six_rows):
    result = compress(six_rows, frequent_itemsets(six_rows, SupportThreshold(count=2)))
    path = tmp_path / "table.tsv"
    write_pattern_table(str(path), result.table)
    loaded = read_pattern_table(str(path))
    assert loaded.usages == result.table.usages
    assert loaded.singleton_counts == result.table.singleton_counts
    for txn in six_rows:
        assert transaction_code_length(txn, loaded) == transaction_code_length(
            txn, result.table
        )
    assert table_length(loaded) == table_length(result.table)


def test_read_pattern_table_rejects_empty(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_text("# pattern-table v1\n")
    with pytest.raises(ValueError, match="no patterns"):
        read_pattern_table(str(path))


@pytest.mark.parametrize("body, reason", [
    ("LQ:2,PB:1,RB:1\t-5\t1.000000000\n", "3: negative usage -5 for LQ:2,PB:1,RB:1"),
    # a mapping would keep only the second usage
    ("LQ:2,PB:1,RB:1\t4\t1.000000000\nPB:1,RB:1,LQ:2\t2\t2.000000000\n",
     "4: repeated pattern PB:1,RB:1,LQ:2"),
    # a mapping would keep only the second count
    ("# item_count\tPB:1\t3\n# item_count\tPB:1\t1\nPB:1\t3\t0.000000000\n",
     "4: repeated item count PB:1"),
    # kept, a count of 0 makes table_length fail with a bare math domain error
    ("# item_count\tPB:1\t0\nPB:1\t3\t0.000000000\n", "3: item count 0 for PB:1 is below 1"),
    ("# item_count\tPB:1\t-3\nPB:1\t3\t0.000000000\n", "3: item count -3 for PB:1 is below 1"),
], ids=["negative-usage", "repeated-pattern", "repeated-item-count", "zero-item-count",
        "negative-item-count"])
def test_read_pattern_table_rejects_bad_pattern_lines(tmp_path, body, reason):
    path = tmp_path / "table.tsv"
    path.write_text("# pattern-table v1\n# total_singleton_count\t18\n" + body)
    with pytest.raises(ValueError, match=re.escape(f"{path}:{reason}")):
        read_pattern_table(str(path))


def test_read_pattern_table_rejects_a_total_other_than_the_item_counts_sum(tmp_path):
    # kept, a wrong total would make table_length 37.518 bits instead of 5.660
    path = tmp_path / "table.tsv"
    path.write_text(
        "# pattern-table v1\n# total_singleton_count\t999\n"
        "# item_count\tPB:1\t3\n# item_count\tPB:2\t1\n"
        "PB:1\t3\t0.415037499\nPB:2\t1\t2.000000000\n"
    )
    reason = f"{path}:2: total_singleton_count 999, item counts sum to 4"
    with pytest.raises(ValueError, match=re.escape(reason)):
        read_pattern_table(str(path))
    path.write_text(path.read_text().replace("999", "4"))
    assert table_length(read_pattern_table(str(path))) == pytest.approx(5.660, abs=5e-4)


@pytest.mark.parametrize("line, reason", [
    ("PB:1,PB:2\t5000\t1.000000000", "two categories for site PB (PB:1,PB:2)"),
    ("LQ:2,PB:9\t4\t1.000000000", "category outside 1..4 (PB:9)"),
    ("# item_count\tPB:0\t3", "category outside 1..4 (PB:0)"),
    ("# item_count\tLQ:2,PB:1\t3", "too many values to unpack"),
], ids=["two-categories", "pattern-category", "item-count-category", "item-count-pair"])
def test_read_pattern_table_rejects_what_no_hour_can_hold(tmp_path, line, reason):
    # its usage or count would enter the totals and shift every code length
    path = tmp_path / "table.tsv"
    path.write_text(f"# pattern-table v1\n# item_count\tPB:1\t4\nPB:1\t4\t0.000000000\n{line}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:4: {reason}")):
        read_pattern_table(str(path))


def test_acceptance_log_format(tmp_path, six_rows):
    result = compress(six_rows, frequent_itemsets(six_rows, SupportThreshold(count=2)))
    path = tmp_path / "log.tsv"
    write_acceptance_log(str(path), result)
    lines = path.read_text().splitlines()
    assert lines[0] == "# acceptance-log v1"
    assert lines[1].startswith("# initial_length\t76.587975039")
    assert lines[2].startswith("# final_length\t41.718800023")
    assert lines[3] == "candidate\tsupport\ttrial_length\taccepted\tlength_after"
    body = lines[4:]
    assert len(body) == len(result.log)
    assert body[0].split("\t")[0] == "LQ:2,PB:1,RB:1"
    assert {row.split("\t")[3] for row in body} == {"yes", "no"}
