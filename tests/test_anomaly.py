"""Scoring, ranking, top-fraction extraction, histogram, and the report."""

import re
from math import fsum

import pytest
from hypothesis import given, settings

from helpers import db_strategy, make_db
from mdlpatterns import SupportThreshold, compress, frequent_itemsets, score_all, top_fraction
from mdlpatterns.anomaly import (
    REPORT_VERSION,
    hour_frequency,
    read_scores,
    report,
    write_scores,
)
from mdlpatterns.codec import database_length, init_pattern_table


def test_scores_rank_descending_with_time_tiebreak(six_rows, worked_table):
    scored = score_all(six_rows, worked_table)
    assert [s.rank for s in scored] == [1, 2, 3, 4, 5, 6]
    assert [s.score for s in scored] == pytest.approx(
        [4.0, 4.0, 1.0, 1.0, 1.0, 1.0], abs=1e-12
    )
    # the two 4-bit rows are hours 4 and 5; earlier hour ranks first
    assert scored[0].transaction.timestamp.hour == 4
    assert scored[1].transaction.timestamp.hour == 5
    stamps = [s.transaction.timestamp for s in scored[2:]]
    assert stamps == sorted(stamps)


def test_rare_rows_outscore_common_rows(six_rows, worked_table):
    scored = score_all(six_rows, worked_table)
    rare = {s.score for s in scored if s.transaction.items[2] == ("RB", 2)}
    common = {s.score for s in scored if s.transaction.items[2] == ("RB", 1)}
    assert min(rare) > max(common)


def test_scores_carry_covers(six_rows, worked_table):
    # cover text as scores.tsv holds it: the pair then RB:2, and the triple
    scored = score_all(six_rows, worked_table)
    assert scored[0].cover == "LQ:2,PB:1|RB:2"
    assert scored[-1].cover == "LQ:2,PB:1,RB:1"


def test_score_sum_equals_database_length(six_rows, worked_table):
    scored = score_all(six_rows, worked_table)
    assert fsum(s.score for s in scored) == pytest.approx(
        database_length(six_rows, worked_table), abs=1e-9
    )


@given(db=db_strategy(max_rows=10, max_cat=3))
@settings(max_examples=100, deadline=None)
def test_score_sum_matches_database_length_everywhere(db):
    result = compress(db, frequent_itemsets(db, SupportThreshold(count=2)))
    scored = score_all(db, result.table)
    assert fsum(s.score for s in scored) == pytest.approx(
        database_length(db, result.table), abs=1e-9
    )


# --- top-fraction selection ----------------------------------------------------


def test_top_fraction_rounds_up(six_rows, worked_table):
    scored = score_all(six_rows, worked_table)
    assert len(top_fraction(scored, 0.05)) == 1
    assert len(top_fraction(scored, 0.3)) == 2
    assert len(top_fraction(scored, 0.5)) == 3
    assert len(top_fraction(scored, 1.0)) == 6
    assert top_fraction(scored, 0.5) == scored[:3]


def test_top_fraction_ceiling_is_exact():
    # 0.07 * 100 is 7.000000000000001 in floating point; the exact answer is 7
    db = make_db([(1, 2, 1)] * 95 + [(1, 2, 2)] * 5)
    scored = score_all(db, init_pattern_table(db))
    assert len(top_fraction(scored, 0.07)) == 7
    assert len(top_fraction(scored, 0.05)) == 5


def test_top_fraction_validates(six_rows, worked_table):
    scored = score_all(six_rows, worked_table)
    with pytest.raises(ValueError, match="fraction"):
        top_fraction(scored, 0.0)
    with pytest.raises(ValueError, match="fraction"):
        top_fraction(scored, 1.5)
    with pytest.raises(ValueError, match="empty"):
        top_fraction([], 0.5)


# --- hour histogram -------------------------------------------------------------


def test_hour_frequency_buckets_by_hour_of_day(six_rows, worked_table):
    scored = score_all(six_rows, worked_table)
    histogram = hour_frequency(scored[:2])
    assert len(histogram) == 24
    assert histogram[4] == 1
    assert histogram[5] == 1
    assert sum(histogram) == 2


# --- report ----------------------------------------------------------------------


def test_report_structure(six_rows, worked_table):
    scored = score_all(six_rows, worked_table)
    selected = top_fraction(scored, 0.5)
    document = report(scored, selected, hour_frequency(selected), k=2)
    lines = document.splitlines()
    assert lines[0] == REPORT_VERSION
    assert lines[1] == "[summary]\tn=6\tselected=3\ttop_k=2"
    top_k_at = lines.index("[top-k]")
    top_fraction_at = lines.index("[top-fraction]")
    histogram_at = lines.index("[hour-histogram]")
    assert top_fraction_at - top_k_at == 2 + 2  # header row plus two entries
    assert histogram_at - top_fraction_at == 2 + 3
    assert len(lines) == histogram_at + 2 + 24
    first_entry = lines[top_k_at + 2].split("\t")
    assert first_entry[0] == "1"
    assert first_entry[2] == "PB:1,LQ:2,RB:2"
    assert first_entry[3] == "4.000000000"
    assert first_entry[4] == "LQ:2,PB:1|RB:2"


def test_report_rejects_oversized_k(six_rows, worked_table):
    scored = score_all(six_rows, worked_table)
    selected = top_fraction(scored, 0.5)
    with pytest.raises(ValueError, match="exceeds"):
        report(scored, selected, hour_frequency(selected), k=7)
    with pytest.raises(ValueError, match="negative"):
        report(scored, selected, hour_frequency(selected), k=-1)


# --- scored file round trip -------------------------------------------------------


def test_scores_file_round_trip(tmp_path, six_rows, worked_table):
    scored = score_all(six_rows, worked_table)
    path = tmp_path / "scores.tsv"
    write_scores(str(path), scored, ["PB", "LQ", "RB"])
    loaded, attributes = read_scores(str(path))
    assert attributes == ["PB", "LQ", "RB"]
    assert [s.rank for s in loaded] == [s.rank for s in scored]
    assert [s.transaction for s in loaded] == [s.transaction for s in scored]
    assert [s.cover for s in loaded] == [s.cover for s in scored]
    for got, expected in zip(loaded, scored):
        # scores travel as 9-decimal text
        assert got.score == pytest.approx(expected.score, abs=5e-10)


def test_read_scores_rejects_bad_header(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text("nope\n")
    with pytest.raises(ValueError, match="bad scores header"):
        read_scores(str(path))


@pytest.mark.parametrize("stamp, reason", [
    ("2016-08-22T11:00+02:00", "timestamp carries a UTC offset"),
    ("2016-08-22T12:30:45", "timestamp has seconds"),
])
def test_read_scores_rejects_stamps_it_cannot_write_back(tmp_path, stamp, reason):
    # an offset could not be compared with the naive hours; seconds would be dropped
    path = tmp_path / "scores.tsv"
    path.write_text(
        "timestamp\tPB\tscore_bits\trank\tcover\n"
        "2016-08-22T10:00\t1\t1.000000000\t1\tPB:1\n"
        f"{stamp}\t1\t1.000000000\t2\tPB:1\n"
    )
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: {reason} ('{stamp}')")):
        read_scores(str(path))
