"""Pattern table, covering, code lengths, and the greedy search.

The six-row database is small enough to check every number by hand, so most
expectations here are exact hand-computed values. Frozen floats carry full
precision where the formula mixes irrational logs.
"""

import random
import re
from collections import Counter
from functools import reduce
from math import fsum, log2
from operator import and_, mul
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import PAIR, RB2, TRIPLE
from helpers import (
    DATABASES,
    NONCANONICAL_ONES,
    Hour,
    canonical_key,
    collapse,
    compress_oracle,
    cover_transaction,
    db_strategy,
    greedy_cover_oracle,
    left_to_right,
    make_db,
    mine_and_compress,
    pattern_code_length,
    random_db,
    settle_oracle,
    transaction_code_length,
)
from mdlpatterns import (
    codec,
    compress,
    frequent_itemsets,
    least_support,
    read_transactions,
    score_all,
)
from mdlpatterns.codec import (
    PatternTable,
    cover_database,
    cover_order,
    cover_ranks,
    database_length,
    init_pattern_table,
    read_pattern_table,
    recompute_usages,
    table_length,
    total_length,
    write_acceptance_log,
    write_pattern_table,
)
from mdlpatterns.mining import format_items, parse_items

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
    table = init_pattern_table(collapse(six_rows))
    usages = {next(iter(p)): usage for p, usage in table.usages.items()}
    assert usages == {("PB", 1): 6, ("LQ", 2): 6, ("RB", 1): 4, ("RB", 2): 2}
    assert sum(table.singleton_counts.values()) == 18
    assert table.singleton_counts[("PB", 1)] == 6
    # singletons only, in sorted item order: the table order lengths are summed in
    assert list(table.usages) == [frozenset([item]) for item in sorted(usages)]


def test_init_table_rejects_empty_database():
    with pytest.raises(ValueError, match="empty"):
        init_pattern_table(collapse([]))


# --- covering -----------------------------------------------------------------


def test_cover_is_exact_and_disjoint(six_rows, worked_table):
    for txn in six_rows:
        cover = cover_transaction(txn, worked_table)
        covered = [item for part in cover for item in part]
        assert len(covered) == len(set(covered))
        assert set(covered) == frozenset(txn.items)


def test_cover_prefers_larger_patterns(six_rows, worked_table):
    assert cover_transaction(six_rows[0], worked_table) == (TRIPLE,)
    assert cover_transaction(six_rows[4], worked_table) == (PAIR, RB2)


@given(db=db_strategy(max_rows=12, max_cat=3), seed=st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_cover_matches_row_by_row_greedy_scan(db, seed):
    # a random half of all itemsets, with scrambled usages, so that
    # overlapping patterns compete in many different orders
    rng = random.Random(seed)
    table = init_pattern_table(collapse(db))
    for itemset in frequent_itemsets(collapse(db), 1):
        if rng.random() < 0.5:
            table.usages[itemset] = 0
    table = table._replace(usages={pattern: rng.randint(0, 5) for pattern in table.usages})
    order = cover_order(table.usages)
    # the drawn hours ascend, so the database keeps their order
    for txn, cover in zip(db, cover_database(collapse(db), table)):
        assert cover == greedy_cover_oracle(frozenset(txn.items), order)


@given(db=DATABASES, seed=st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_cover_order_sorts_by_the_canonical_key_with_or_without_ranks(db, seed):
    # compress hands cover_order each pattern's static rank, built once over
    # more patterns than one order holds; the order must be the one
    # canonical_key gives, ties in usage and usages far apart included
    rng = random.Random(seed)
    itemsets = list(frequent_itemsets(collapse(db), 1))
    usages = {p: rng.choice([0, 1, 2, 3, 10**12]) for p in itemsets if rng.random() < 0.8}
    expected = sorted(usages, key=lambda pattern: canonical_key(pattern, usages[pattern]))
    assert cover_order(usages) == expected
    assert cover_order(usages, cover_ranks(itemsets)) == expected


@st.composite
def candidate_tables(draw):
    """A database and a random part of its itemsets, each with a drawn support."""
    db = draw(DATABASES)
    itemsets = list(frequent_itemsets(collapse(db), 1))
    chosen = draw(st.lists(st.sampled_from(itemsets), unique=True)) if itemsets else []
    return db, {items: draw(st.integers(0, len(db))) for items in chosen}


@given(drawn=candidate_tables())
@settings(max_examples=100, deadline=None)
def test_settled_usages_and_lengths_match_the_row_by_row_oracle(drawn):
    db, candidates = drawn
    table = init_pattern_table(collapse(db))
    table.usages.update(candidates)
    expected = table._replace(usages=dict(table.usages))
    try:
        covers = settle_oracle(expected, db)
    except ValueError:
        with pytest.raises(ValueError, match="did not settle"):
            codec._settle(table, collapse(db), "the drawn table")
        return
    rows = collapse(db)
    order, taken_rows, _ = codec._settle(table, rows, "the drawn table")
    assert codec._expand(rows, order, taken_rows) == list(covers.values())
    assert list(table.usages.items()) == list(expected.usages.items())

    initial, trials, final = compress_oracle(db, candidates)
    result = compress(collapse(db), candidates)
    assert result.initial_length == initial
    assert [record.trial_length for record in result.log] == trials
    assert list(result.table.usages.items()) == list(final.usages.items())


@st.composite
def databases_with_masks(draw):
    """A database and some masks over its distinct rows, with a repeat among them."""
    db = collapse(draw(DATABASES))
    masks = draw(st.lists(st.integers(0, (1 << len(db.weights)) - 1), min_size=1, max_size=8))
    return db, masks + [draw(st.sampled_from(masks))]


@given(drawn=databases_with_masks())
@settings(max_examples=100)
def test_each_taken_row_mask_is_split_once_into_its_weight_and_rows(drawn):
    # the database remembers each mask's weight and rows for every stage
    db, masks = drawn
    weight_misses, rows_misses = db.weight.cache_info().misses, db.rows.cache_info().misses
    for mask in masks:
        weight, rows = db.weight(mask), db.rows(mask)
        assert weight == sum((mask & plane).bit_count() << k for k, plane in enumerate(db.planes))
        assert list(rows) == [row for row in range(len(db.weights)) if mask >> row & 1]
        assert db.rows(mask) is rows
    assert db.weight.cache_info().misses - weight_misses == len(set(masks))
    assert db.rows.cache_info().misses - rows_misses == len(set(masks))


def compensated_sum(values, start=0):
    """Neumaier's compensated sum, as builtin ``sum`` adds floats from Python 3.12."""
    total, compensation = start, 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    return total + compensation if compensation else total


@st.composite
def singleton_tables(draw):
    """A database over a few sites, and a singleton table over its items with drawn usages."""
    width = draw(st.integers(2, 8))
    rows = draw(st.lists(st.tuples(*[st.integers(1, 2)] * width), min_size=1, max_size=6))
    db = collapse(make_db(rows, attrs=[f"S{k}" for k in range(width)]))
    usages = {frozenset([item]): draw(st.integers(1, 1000)) for item in sorted(db.holding)}
    return db, PatternTable(usages, {next(iter(p)): usage for p, usage in usages.items()})


@given(drawn=singleton_tables())
@settings(max_examples=100)
def test_row_bits_add_left_to_right_whatever_builtin_sum_does(drawn):
    # A compensated builtin sum, where the codec module would find it, must
    # not move any row's bits: each is its parts' lengths added in cover order
    db, table = drawn
    lengths = codec.code_lengths(table)
    order = cover_order(table.usages)
    covers = [greedy_cover_oracle(frozenset(items), order) for items in db.items]
    folds = [left_to_right(map(lengths.__getitem__, parts)) for parts in covers]
    assume(any(compensated_sum(map(lengths.__getitem__, parts)) != fold
               for parts, fold in zip(covers, folds)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "sum", compensated_sum, raising=False)
        assert codec.cover_rows(db, table) == (folds, covers)


def test_cover_rejects_unknown_item(worked_table):
    stranger = Hour(
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
    recompute_usages(worked_table, collapse(six_rows))
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
        database_length(collapse(make_db([(1,)], attrs=("PB",))), worked_table)


def test_transaction_code_lengths_worked(six_rows, worked_table):
    scores = [transaction_code_length(t, worked_table) for t in six_rows]
    assert scores == pytest.approx([1.0, 1.0, 1.0, 1.0, 4.0, 4.0], abs=1e-12)


def test_database_length_worked(six_rows, worked_table):
    assert database_length(collapse(six_rows), worked_table) == pytest.approx(12.0, abs=1e-12)


def test_table_length_worked(worked_table):
    closed_form = 6 * log2(3) + 6 * log2(3) + 4 * log2(4.5) + 2 * log2(9)
    assert closed_form == pytest.approx(SINGLETON_TERM, abs=1e-9)
    assert table_length(worked_table) == pytest.approx(
        5.0 + SINGLETON_TERM, abs=1e-9
    )


def test_total_length_is_sum_of_parts(six_rows, worked_table):
    db = collapse(six_rows)
    assert total_length(db, worked_table) == pytest.approx(
        database_length(db, worked_table) + table_length(worked_table),
        abs=1e-12,
    )


# --- greedy search ---------------------------------------------------------------


def assert_scores_and_table_make_the_final_length(db, result):
    # compress and scoring are one length: the hours' scores under the
    # chosen table, plus the table's own bits, are the length compress chose
    bits = score_all(db, result.table).bits
    assert fsum(map(mul, bits, db.weights)) + table_length(result.table) == result.final_length


@given(db=db_strategy(max_rows=10, max_cat=3))
@settings(max_examples=100, deadline=None)
def test_scores_and_table_make_the_final_length(db):
    assert_scores_and_table_make_the_final_length(collapse(db), mine_and_compress(db))


def wide_golden_rows():
    """The wide golden snapshot's database and the candidates ``run`` mines from it."""
    db, _ = read_transactions(str(Path(__file__).parent / "golden_wide" / "transactions.csv"))
    return db, frequent_itemsets(db, least_support("0.05", len(db), minimum=2))


def test_scores_and_table_make_the_final_length_on_the_wide_golden_rows():
    db, candidates = wide_golden_rows()
    result = compress(db, candidates)
    assert (len(db.weights), len(result.log)) == (322, 245)
    assert_scores_and_table_make_the_final_length(db, result)


@st.composite
def wide_drawn_rows(draw):
    """4 to 6 sites and up to 80 hours, each one of a few common rows with one
    site drifted now and then, and a part of the itemsets mined from them in a
    drawn order: trials resume, accept, prune (a larger pattern after one it
    holds) and make no pass."""
    attrs = [f"S{k}" for k in range(draw(st.integers(4, 6)))]
    common = draw(st.lists(st.tuples(*[st.integers(1, 3)] * len(attrs)), min_size=2, max_size=4))
    combos = []
    for _ in range(draw(st.integers(20, 80))):
        row = list(draw(st.sampled_from(common)))
        if draw(st.integers(0, 3)) == 0:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.integers(1, 4))
        combos.append(row)
    hours = make_db(combos, attrs=attrs)
    mined = list(frequent_itemsets(collapse(hours), draw(st.integers(2, 6))).items())
    if not mined:
        return hours, {}
    chosen = st.lists(st.sampled_from(mined), unique=True, min_size=min(len(mined), 8),
                      max_size=40)
    return hours, dict(draw(chosen.flatmap(st.permutations)))  # any order, as compress takes


@given(drawn=wide_drawn_rows())
@settings(max_examples=50, deadline=None)
def test_compress_matches_the_oracle_on_wider_draws(drawn):
    hours, candidates = drawn
    initial, trials, final = compress_oracle(hours, candidates)
    result = compress(collapse(hours), candidates)
    assert result.initial_length == initial
    assert [record.trial_length for record in result.log] == trials
    assert list(result.table.usages.items()) == list(final.usages.items())


def count_passes(monkeypatch):
    """Each cover pass, as the name of the trial whose settling made it (None
    outside one); and the names of the trials settled."""
    passes, settled, current = [], [], [None]
    sweep, settle = codec._sweep, codec._settle

    def counted_sweep(*args):
        passes.append(current[0])
        return sweep(*args)

    def counted_settle(table, db, trial, *args):
        settled.append(trial)
        current[0] = trial
        try:
            return settle(table, db, trial, *args)
        finally:
            current[0] = None

    monkeypatch.setattr(codec, "_sweep", counted_sweep)
    monkeypatch.setattr(codec, "_settle", counted_settle)
    return passes, settled


def test_a_candidate_that_takes_no_row_where_it_enters_costs_no_pass(monkeypatch):
    # Replay the greedy search from scratch, and find each candidate's rows
    # left uncovered where it enters the table's cover order: with none, its
    # trial would repeat the table's covers, so it is rejected at the table's
    # length without a cover pass
    db, candidates = wide_golden_rows()
    passes, settled = count_passes(monkeypatch)
    result = compress(db, candidates)
    assert None not in passes and len(passes) > len(settled)
    table, free = init_pattern_table(db), []
    for record in result.log:
        trial = table._replace(usages={**table.usages, record.items: record.support})
        order = cover_order(trial.usages)
        patterns = codec._Patterns(db, order)
        masks = codec._sweep(order, patterns).uncovered[order.index(record.items)]
        holding = [masks[patterns.numbered.index(item)] for item in record.items]
        name = f"candidate {format_items(record.items)}"
        if not reduce(and_, holding, -1):
            free.append(record.items)
            assert not record.accepted and record.trial_length == record.length_after
            assert name not in settled
        else:
            assert name in settled
        if record.accepted:
            recompute_usages(trial, db)
            table = trial._replace(usages={p: u for p, u in trial.usages.items()
                                           if u > 0 or len(p) == 1})
    assert len(free) == 9


def test_a_candidate_holding_an_item_no_row_holds_takes_no_pass(six_rows, monkeypatch):
    # no row holds RB:3, so the pair takes no row whatever the table
    stranger = frozenset({("PB", 1), ("RB", 3)})
    candidates = {stranger: 6, TRIPLE: 4, TRIPLE_B: 2, frozenset({("LQ", 2), ("RB", 3)}): 1}
    passes, settled = count_passes(monkeypatch)
    result = compress(collapse(six_rows), candidates)
    initial, trials, final = compress_oracle(six_rows, candidates)
    assert result.initial_length == initial
    assert [record.trial_length for record in result.log] == trials
    assert list(result.table.usages.items()) == list(final.usages.items())
    assert [record.accepted for record in result.log] == [False, True, True, False]
    assert result.log[0].trial_length == result.initial_length
    assert result.log[3].trial_length == result.final_length
    assert settled == ["the singleton table", "candidate LQ:2,PB:1,RB:1",
                       "candidate LQ:2,PB:1,RB:2"]


def test_a_pruned_pattern_leaves_the_table_sweep(monkeypatch):
    # S1:3,S2:2,S3:2,S4:3 takes both rows of S0:3,S1:3,S3:2,S4:3, which is
    # pruned. S0:3,S2:3,S3:3 then enters after a pattern that takes its one
    # row. Left in the table's sweep, the pruned pattern would shift the masks
    # read where the newcomer enters to before that pattern, and its trial
    # would make passes that repeat the table's covers.
    hours = make_db([(3, 2, 3, 3, 2), (1, 3, 2, 2, 3), (2, 3, 1, 1, 1), (3, 3, 2, 2, 3),
                     (3, 2, 2, 3, 1)], attrs=["S0", "S1", "S2", "S3", "S4"])
    candidates = {parse_items(text): support for text, support in [
        ("S1:3,S2:1,S4:1", 1), ("S1:2,S2:2,S3:3,S4:1", 1), ("S0:3,S1:3,S3:2,S4:3", 2),
        ("S2:3,S4:2", 2), ("S0:3,S1:2,S2:3", 2), ("S1:3,S2:2,S3:2,S4:3", 3),
        ("S0:3,S2:3,S3:3", 1), ("S0:1,S1:3,S3:2,S4:3", 0), ("S0:1,S1:3,S2:2,S3:2", 2),
    ]}
    passes, settled = count_passes(monkeypatch)
    result = compress(collapse(hours), candidates)
    initial, trials, final = compress_oracle(hours, candidates)
    assert result.initial_length == initial
    assert [record.trial_length for record in result.log] == trials
    assert list(result.table.usages.items()) == list(final.usages.items())
    assert [record.accepted for record in result.log] == [True] * 6 + [False] * 3
    assert parse_items("S0:3,S1:3,S3:2,S4:3") not in result.table.usages
    assert settled[-2:] == ["candidate S1:3,S2:2,S3:2,S4:3", "candidate S0:1,S1:3,S2:2,S3:2"]
    assert len(settled) == 8


def test_compress_resumes_its_sweeps_on_the_wide_golden_rows(monkeypatch):
    # A pass visits only the patterns after the prefix its order shares with
    # the table's settled sweep or the trial's last pass, and looks up each
    # one's items once. From scratch, every pass would visit its whole order.
    # The passes that remain are about half resumed: those of the candidates
    # that take no row are not made at all.
    visits, orders = [0], []

    class Counted(codec._Patterns):
        def __getitem__(self, pattern):
            visits[0] += orders[-1] is not None
            return super().__getitem__(pattern)

    sweep = codec._sweep

    def counted(order, *args):
        orders.append(len(order))
        try:
            return sweep(order, *args)
        finally:
            orders.append(None)

    monkeypatch.setattr(codec, "_Patterns", Counted)
    monkeypatch.setattr(codec, "_sweep", counted)
    orders.append(None)
    compress(*wide_golden_rows())
    from_scratch = sum(filter(None, orders))
    assert (orders.count(None) - 1, from_scratch, visits[0]) == (629, 46718, 23812)
    assert visits[0] < 0.51 * from_scratch


def test_compress_worked_example(six_rows):
    result = mine_and_compress(six_rows)
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
    result = mine_and_compress(six_rows)
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
        mine_and_compress(six_rows)
    monkeypatch.setattr(codec, "_MAX_RECOVER_PASSES", 2)
    assert compress(collapse(six_rows), {TRIPLE: 4}).final_length < INITIAL_LENGTH


def test_compress_rejects_a_candidate_already_in_the_table(six_rows):
    # every item is already a singleton pattern; a second entry would overwrite its usage
    with pytest.raises(ValueError, match=r"^candidate PB:1 is already in the table$"):
        compress(collapse(six_rows), {TRIPLE: 4, frozenset({("PB", 1)}): 6})


def test_compress_rejects_empty_database():
    with pytest.raises(ValueError, match="empty"):
        compress(collapse([]), {})


def test_accepted_lengths_strictly_decrease():
    rng = random.Random(905)
    for _ in range(25):
        db = random_db(rng, max_rows=12, max_cat=3)
        result = mine_and_compress(db)
        lengths = [result.initial_length] + [
            r.trial_length for r in result.log if r.accepted
        ]
        for earlier, later in zip(lengths, lengths[1:]):
            assert later < earlier
        assert result.final_length == lengths[-1]


@given(db=db_strategy(max_rows=10, max_cat=3))
@settings(max_examples=100, deadline=None)
def test_compress_invariants(db):
    result = mine_and_compress(db)
    table = result.table
    assert result.final_length <= result.initial_length + 1e-9

    # the final table still owns a singleton for every item in the database
    db_items = {item for txn in db for item in txn.items}
    singleton_items = {next(iter(p)) for p in table.usages if len(p) == 1}
    assert singleton_items == db_items

    # no dead weight: every multi-item pattern earns its keep
    assert all(usage > 0 for p, usage in table.usages.items() if len(p) > 1)

    covers = cover_database(collapse(db), table)  # the drawn hours ascend, as the database's do
    for txn, cover in zip(db, covers):
        covered = [item for part in cover for item in part]
        assert len(covered) == len(set(covered))
        assert set(covered) == frozenset(txn.items)

    # usages are exactly the cover participation counts
    tally = Counter(part for cover in covers for part in cover)
    assert dict(tally) == {p: usage for p, usage in table.usages.items() if usage > 0}
    assert sum(table.usages.values()) == sum(len(c) for c in covers)

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
    first = mine_and_compress(db)
    second = mine_and_compress(shuffled)
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
    first = mine_and_compress(db)
    second = mine_and_compress(shuffled)
    assert second.initial_length == first.initial_length
    assert second.final_length == first.final_length
    accepted_first = {r.items for r in first.log if r.accepted}
    assert {r.items for r in second.log if r.accepted} == accepted_first
    assert frozenset({("A", 3), ("C", 1)}) not in accepted_first


@given(db=db_strategy(max_rows=8, max_cat=3))
@settings(max_examples=100)
def test_doubling_database_doubles_encoded_bits(db):
    doubled = db + db
    table = init_pattern_table(collapse(db))
    table_doubled = init_pattern_table(collapse(doubled))
    # usage shares are unchanged, so every row costs exactly the same bits
    for txn in db:
        assert transaction_code_length(txn, table_doubled) == pytest.approx(
            transaction_code_length(txn, table), abs=1e-9
        )
    assert database_length(collapse(doubled), table_doubled) == pytest.approx(
        2 * database_length(collapse(db), table), abs=1e-9
    )


# --- file round trips --------------------------------------------------------------


def test_pattern_table_round_trip(tmp_path, six_rows):
    result = mine_and_compress(six_rows)
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
    # each read its missing field as "list index out of range" or "not enough values to unpack"
    ("# item_count\tPB:1\nPB:1\t3\t0.000000000\n", "3: expected 3 fields"),
    ("# total_singleton_count\nPB:1\t3\t0.000000000\n", "3: expected 2 fields"),
    ("PB:1\t3\n", "3: expected 3 fields"),
], ids=["negative-usage", "repeated-pattern", "repeated-item-count", "zero-item-count",
        "negative-item-count", "short-item-count", "short-total", "short-pattern"])
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
    ("# item_count\tLQ:2,PB:1\t3", "item count names 2 items (LQ:2,PB:1)"),
], ids=["two-categories", "pattern-category", "item-count-category", "item-count-pair"])
def test_read_pattern_table_rejects_what_no_hour_can_hold(tmp_path, line, reason):
    # its usage or count would enter the totals and shift every code length
    path = tmp_path / "table.tsv"
    path.write_text(f"# pattern-table v1\n# item_count\tPB:1\t4\nPB:1\t4\t0.000000000\n{line}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:4: {reason}")):
        read_pattern_table(str(path))


@pytest.mark.parametrize("count", NONCANONICAL_ONES)
def test_read_pattern_table_rejects_a_count_written_otherwise(tmp_path, count):
    # int() reads each as 1; write_pattern_table writes "1"
    path = tmp_path / "table.tsv"
    lines = ["# pattern-table v1", "# total_singleton_count\t1", "# item_count\tPB:1\t1",
             "PB:1\t1\t0.000000000"]
    for lineno, field in ((2, 1), (3, 2), (4, 1)):
        fields = lines[lineno - 1].split("\t")
        fields[field] = count
        path.write_text("\n".join(lines[:lineno - 1] + ["\t".join(fields)] + lines[lineno:]))
        reason = f"{path}:{lineno}: count {count!r} is not in canonical decimal"
        with pytest.raises(ValueError, match=re.escape(reason)):
            read_pattern_table(str(path))
    path.write_text("\n".join(lines))
    assert read_pattern_table(str(path)).usages == {frozenset({("PB", 1)}): 1}


def test_acceptance_log_format(tmp_path, six_rows):
    result = mine_and_compress(six_rows)
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
