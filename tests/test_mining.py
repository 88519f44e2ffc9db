"""Frequent-itemset mining against a brute-force enumeration oracle."""

import random
import re
from collections import Counter
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PAIR, TRIPLE
from helpers import DATABASES, brute_force_frequent, make_db, random_db, support
from mdlpatterns import SupportThreshold, frequent_itemsets
from mdlpatterns.mining import (
    DistinctRows,
    canonical_key,
    distinct_rows,
    exact_ceil,
    format_items,
    parse_items,
    read_itemsets,
    write_itemsets,
)


# --- support counting (the oracle brute_force_frequent counts with) -----------


def test_support_counts_containing_rows(six_rows):
    assert support(TRIPLE, six_rows) == 4
    assert support(PAIR, six_rows) == 6
    assert support(frozenset({("RB", 2)}), six_rows) == 2


def test_support_of_empty_set_is_database_size(six_rows):
    assert support(frozenset(), six_rows) == 6


def test_support_of_absent_item_is_zero(six_rows):
    assert support(frozenset({("PB", 9)}), six_rows) == 0


# --- distinct rows and their multiplicity bit planes ------------------------------


def bit_planes(weights):
    """Plane k holds bit r when bit k of row r's multiplicity is set, built bit by bit."""
    planes = [0] * max(weights, default=0).bit_length()
    for row, weight in enumerate(weights):
        for k in range(len(planes)):
            if weight >> k & 1:
                planes[k] |= 1 << row
    return planes


@st.composite
def weighted_masks(draw):
    weights = draw(st.lists(st.integers(1, 2**20), max_size=300))
    everything = (1 << len(weights)) - 1
    mask = draw(st.sampled_from([0, everything]) | st.integers(0, everything))
    return weights, mask


@given(drawn=weighted_masks())
@settings(max_examples=200)
def test_weight_is_the_summed_multiplicity_of_the_mask_rows(drawn):
    weights, mask = drawn
    db = DistinctRows(weights=weights, index=[], holding={}, planes=bit_planes(weights))
    assert db.weight(mask) == sum(w for row, w in enumerate(weights) if mask >> row & 1)


@given(db=DATABASES)
@settings(max_examples=100)
def test_distinct_rows_build_the_multiplicity_bit_planes(db):
    rows = distinct_rows(db)
    assert rows.weights == list(Counter(frozenset(txn.items) for txn in db).values())
    assert rows.planes == bit_planes(rows.weights)


def test_an_empty_database_has_no_planes():
    rows = distinct_rows([])
    assert rows.planes == [] and rows.weight(0) == 0


def test_matches_brute_force_where_a_row_repeats_past_the_sixteenth_plane():
    # 65,537 copies set the multiplicity's bit 16, a plane smaller draws never reach
    db = make_db([(1, 2, 1)] * 65_537 + [(1, 2, 2), (1, 3, 2), (1, 3, 2)])
    assert distinct_rows(db).weights == [65_537, 1, 2]
    threshold = SupportThreshold(count=2)
    mined = frequent_itemsets(db, threshold)
    assert set(mined.items()) == brute_force_frequent(db, threshold)
    assert mined[frozenset({("PB", 1), ("LQ", 2), ("RB", 1)})] == 65_537


# --- threshold semantics --------------------------------------------------------


def test_threshold_requires_exactly_one_form():
    with pytest.raises(ValueError, match="exactly one"):
        SupportThreshold()
    with pytest.raises(ValueError, match="exactly one"):
        SupportThreshold(count=2, fraction=0.1)


def test_threshold_validates_ranges():
    with pytest.raises(ValueError, match=">= 1"):
        SupportThreshold(count=0)
    with pytest.raises(ValueError, match="fraction"):
        SupportThreshold(fraction=0.0)
    with pytest.raises(ValueError, match="fraction"):
        SupportThreshold(fraction=1.5)
    with pytest.raises(ValueError, match="minimum"):
        SupportThreshold(count=2, minimum=0)


def test_threshold_resolution():
    assert SupportThreshold(count=3).resolve(100) == 3
    assert SupportThreshold(fraction=0.05).resolve(720) == 36
    # ceil, not round: 5% of 30 rows is 1.5 -> 2
    assert SupportThreshold(fraction=0.05).resolve(30) == 2
    # the floor wins when the fraction resolves too low
    assert SupportThreshold(fraction=0.01, minimum=2).resolve(10) == 2


def test_threshold_ceiling_is_exact():
    # 0.07 * 100 is 7.000000000000001 in floating point; the exact answer is 7
    assert SupportThreshold(fraction=0.07).resolve(100) == 7
    assert SupportThreshold(fraction=0.05).resolve(8748) == 438
    assert SupportThreshold(fraction=0.05).resolve(87600) == 4380


@given(
    fraction=st.floats(min_value=0, max_value=1, exclude_min=True),
    n=st.integers(0, 10**6),
)
def test_exact_ceil_matches_fraction_arithmetic(fraction, n):
    assert exact_ceil(fraction, n) == ceil(Fraction(repr(fraction)) * n)


def test_threshold_inclusive_versus_strict():
    inclusive = SupportThreshold(count=3)
    strict = SupportThreshold(count=3, inclusive=False)
    assert inclusive.meets(3, 3)
    assert not strict.meets(3, 3)
    assert strict.meets(4, 3)


def test_strict_threshold_excludes_boundary_supports(six_rows):
    at_least_4 = frequent_itemsets(six_rows, SupportThreshold(count=4))
    above_4 = frequent_itemsets(six_rows, SupportThreshold(count=4, inclusive=False))
    assert at_least_4.keys() >= above_4.keys()
    assert all(sup > 4 for sup in above_4.values())
    assert 4 in at_least_4.values()


# --- mining against the oracle ---------------------------------------------------


def test_worked_example_itemsets(six_rows):
    found = frequent_itemsets(six_rows, SupportThreshold(count=2))
    listed = [(format_items(items), sup) for items, sup in found.items()]
    assert listed == [
        ("LQ:2,PB:1,RB:1", 4),
        ("LQ:2,PB:1,RB:2", 2),
        ("LQ:2,PB:1", 6),
        ("LQ:2,RB:1", 4),
        ("PB:1,RB:1", 4),
        ("LQ:2,RB:2", 2),
        ("PB:1,RB:2", 2),
    ]


def test_no_singletons_in_output(six_rows):
    found = frequent_itemsets(six_rows, SupportThreshold(count=1))
    assert all(len(items) >= 2 for items in found)


def test_repeated_rows_count_once_each():
    db = make_db([(1, 1, 1)] * 5, attrs=("A", "B", "C"))
    found = frequent_itemsets(db, SupportThreshold(count=5))
    assert set(found.values()) == {5}
    assert len(found) == 4  # three pairs and the triple


def test_output_in_canonical_order(six_rows):
    found = frequent_itemsets(six_rows, SupportThreshold(count=2))
    keys = [canonical_key(items, sup) for items, sup in found.items()]
    assert keys == sorted(keys)


@given(db=DATABASES, count=st.integers(1, 4), inclusive=st.booleans())
@settings(max_examples=100)
def test_matches_brute_force(db, count, inclusive):
    threshold = SupportThreshold(count=count, inclusive=inclusive)
    mined = set(frequent_itemsets(db, threshold).items())
    assert mined == brute_force_frequent(db, threshold)


@given(db=DATABASES, fraction=st.sampled_from([0.2, 0.34, 0.5, 1.0]))
@settings(max_examples=100)
def test_matches_brute_force_fractional(db, fraction):
    threshold = SupportThreshold(fraction=fraction)
    mined = set(frequent_itemsets(db, threshold).items())
    assert mined == brute_force_frequent(db, threshold)


def test_every_sub_itemset_is_also_frequent():
    rng = random.Random(2101)
    for _ in range(40):
        db = random_db(rng)
        found = frequent_itemsets(db, SupportThreshold(count=2))
        for itemset in found:
            for item in itemset:
                smaller = itemset - {item}
                if len(smaller) >= 2:
                    assert smaller in found


def test_no_itemset_mixes_categories_for_one_attribute():
    rng = random.Random(2102)
    for _ in range(40):
        db = random_db(rng)
        for itemset in frequent_itemsets(db, SupportThreshold(count=1)):
            attrs = [attr for attr, _ in itemset]
            assert len(attrs) == len(set(attrs))


# --- item text format and files ---------------------------------------------------


def test_format_and_parse_items_round_trip():
    items = frozenset({("LQ", 2), ("PB", 1)})
    assert format_items(items) == "LQ:2,PB:1"
    assert parse_items("LQ:2,PB:1") == items


def test_parse_items_rejects_bad_tokens():
    with pytest.raises(ValueError, match="expected site:category"):
        parse_items("justasite")
    with pytest.raises(ValueError):
        parse_items("PB:notanumber")


@pytest.mark.parametrize("text, reason", [
    ("PB:1,PB:2", "two categories for site PB (PB:1,PB:2)"),
    ("LQ:2,PB:1,PB:1", "two categories for site PB (LQ:2,PB:1,PB:1)"),
    ("LQ:2,PB:9", "category outside 1..4 (PB:9)"),
    ("PB:0", "category outside 1..4 (PB:0)"),
])
def test_parse_items_rejects_items_no_hour_can_hold(text, reason):
    # an hour holds one category in 1..4 per site
    with pytest.raises(ValueError, match=re.escape(reason)):
        parse_items(text)


def test_itemsets_file_round_trip(tmp_path, six_rows):
    found = frequent_itemsets(six_rows, SupportThreshold(count=2))
    path = tmp_path / "itemsets.tsv"
    write_itemsets(str(path), found)
    assert list(read_itemsets(str(path)).items()) == list(found.items())


def test_read_itemsets_rejects_a_repeated_itemset(tmp_path):
    # a mapping would keep only the last support of the two
    path = tmp_path / "itemsets.tsv"
    path.write_text("LQ:2,PB:1\t6\nPB:1,RB:1\t4\nPB:1,LQ:2\t5\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}:3: repeated itemset PB:1,LQ:2"):
        read_itemsets(str(path))
