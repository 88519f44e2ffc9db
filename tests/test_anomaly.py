"""Scoring, ranking, top-fraction extraction, histogram, and the report."""

import re
from datetime import datetime, timedelta
from math import fsum

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    LATE_CHANGES,
    LONG_ROWS,
    NONCANONICAL_ONES,
    artifact_rows,
    change_late_row,
    collapse,
    db_strategy,
    make_db,
    mine_and_compress,
    outcome,
    read_scores_oracle,
    scored_hours,
    write_scores_oracle,
)
from mdlpatterns import score_all, top_fraction
from mdlpatterns.anomaly import (
    REPORT_VERSION,
    SCORES_TAIL,
    Ranking,
    hour_frequency,
    read_scores,
    report,
    write_scores,
)
from mdlpatterns.codec import PatternTable, database_length, init_pattern_table
from mdlpatterns.ingest import DistinctRows, hour_text, write_transactions


def test_scores_rank_descending_with_time_tiebreak(six_rows, worked_table):
    scored = scored_hours(score_all(collapse(six_rows), worked_table))
    keys = [(-s.score, s.timestamp) for s in scored]
    assert keys == sorted(keys)
    assert [s.score for s in scored] == pytest.approx(
        [4.0, 4.0, 1.0, 1.0, 1.0, 1.0], abs=1e-12
    )
    # the two 4-bit rows are hours 4 and 5; earlier hour ranks first
    assert scored[0].timestamp == "2016-08-22T04:00"
    assert scored[1].timestamp == "2016-08-22T05:00"
    stamps = [s.timestamp for s in scored[2:]]
    assert stamps == sorted(stamps)


def test_rare_rows_outscore_common_rows(six_rows, worked_table):
    scored = scored_hours(score_all(collapse(six_rows), worked_table))
    rare = {s.score for s in scored if s.items[2] == ("RB", 2)}
    common = {s.score for s in scored if s.items[2] == ("RB", 1)}
    assert min(rare) > max(common)


def test_scores_carry_covers(six_rows, worked_table):
    # cover text as scores.tsv holds it: the pair then RB:2, and the triple
    scored = scored_hours(score_all(collapse(six_rows), worked_table))
    assert scored[0].cover == "LQ:2,PB:1|RB:2"
    assert scored[-1].cover == "LQ:2,PB:1,RB:1"


def test_score_sum_equals_database_length(six_rows, worked_table):
    scored = scored_hours(score_all(collapse(six_rows), worked_table))
    assert fsum(s.score for s in scored) == pytest.approx(
        database_length(collapse(six_rows), worked_table), abs=1e-9
    )


@given(db=db_strategy(max_rows=10, max_cat=3))
@settings(max_examples=100, deadline=None)
def test_score_sum_matches_database_length_everywhere(db):
    result = mine_and_compress(db)
    scored = scored_hours(score_all(collapse(db), result.table))
    assert fsum(s.score for s in scored) == pytest.approx(
        database_length(collapse(db), result.table), abs=1e-9
    )


@st.composite
def tied_databases(draw):
    """A database of two sites in any input order, and a singleton table whose
    usages are 1 or 2: a row's score is one of three sums, so distinct rows tie,
    and their hours interleave in time."""
    items = [(site, cat) for site in ("PB", "LQ") for cat in (1, 2, 3)]
    usages = {frozenset([item]): draw(st.integers(1, 2)) for item in items}
    table = PatternTable(usages=usages, singleton_counts=dict.fromkeys(items, 1))
    offsets = draw(st.lists(st.integers(0, 300), min_size=2, max_size=40, unique=True))
    rows = [draw(st.tuples(st.sampled_from(items[:3]), st.sampled_from(items[3:])))
            for _ in offsets]
    start = datetime(2016, 8, 22)
    return DistinctRows([hour_text(start + timedelta(hours=h)) for h in offsets], rows), table


@given(drawn=tied_databases())
@settings(max_examples=100, deadline=None)
def test_score_all_ranks_by_descending_score_then_ascending_hour(drawn):
    db, table = drawn
    ranking = score_all(db, table)
    scores = [ranking.bits[row] for row in db.index]
    assume(len(set(ranking.bits)) < len(ranking.bits))  # two distinct rows tie
    order = sorted(range(len(db)), key=lambda p: (-scores[p], db.hours[p]))
    assert ranking.hours == [db.hours[p] for p in order]
    assert ranking.index == [db.index[p] for p in order]


# --- top-fraction selection ----------------------------------------------------


def test_top_fraction_rounds_up(six_rows, worked_table):
    scored = score_all(collapse(six_rows), worked_table)
    assert len(top_fraction(scored, 0.05).hours) == 1
    assert len(top_fraction(scored, 0.3).hours) == 2
    assert len(top_fraction(scored, 0.5).hours) == 3
    assert len(top_fraction(scored, 1.0).hours) == 6
    assert scored_hours(top_fraction(scored, 0.5)) == scored_hours(scored)[:3]


def test_top_fraction_ceiling_is_exact():
    # 0.07 * 100 is 7.000000000000001 in floating point; the exact answer is 7
    db = collapse(make_db([(1, 2, 1)] * 95 + [(1, 2, 2)] * 5))
    scored = score_all(db, init_pattern_table(db))
    assert len(top_fraction(scored, 0.07).hours) == 7
    assert len(top_fraction(scored, 0.05).hours) == 5


def test_top_fraction_validates(six_rows, worked_table):
    scored = score_all(collapse(six_rows), worked_table)
    with pytest.raises(ValueError, match="fraction"):
        top_fraction(scored, 0.0)
    with pytest.raises(ValueError, match="fraction"):
        top_fraction(scored, 1.5)
    with pytest.raises(ValueError, match="empty"):
        top_fraction(Ranking(hours=[], index=[], items=[], bits=[], covers=[]), 0.5)


# --- hour histogram -------------------------------------------------------------


def test_hour_frequency_buckets_by_hour_of_day(six_rows, worked_table):
    scored = score_all(collapse(six_rows), worked_table)
    histogram = hour_frequency(scored._replace(hours=scored.hours[:2], index=scored.index[:2]))
    assert len(histogram) == 24
    assert histogram[4] == 1
    assert histogram[5] == 1
    assert sum(histogram) == 2


# --- report ----------------------------------------------------------------------


def test_report_structure(six_rows, worked_table):
    scored = score_all(collapse(six_rows), worked_table)
    document = report(scored, 0.5, k=2)
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
    # rows are numbered by place in each section; the histogram counts the selection
    assert [line.split("\t")[0] for line in lines[top_fraction_at + 2 : histogram_at]] == [
        "1", "2", "3"
    ]
    counts = [int(line.split("\t")[1]) for line in lines[histogram_at + 2 :]]
    assert tuple(counts) == hour_frequency(top_fraction(scored, 0.5))


def test_report_rejects_oversized_k(six_rows, worked_table):
    scored = score_all(collapse(six_rows), worked_table)
    with pytest.raises(ValueError, match="exceeds"):
        report(scored, 0.5, k=7)
    with pytest.raises(ValueError, match="negative"):
        report(scored, 0.5, k=-1)


# --- scored file round trip -------------------------------------------------------


def test_scores_file_round_trip(tmp_path, six_rows, worked_table):
    ranking = score_all(collapse(six_rows), worked_table)
    path = tmp_path / "scores.tsv"
    write_scores(str(path), ranking, ["PB", "LQ", "RB"])
    ranking_loaded, attributes = read_scores(str(path))
    assert attributes == ["PB", "LQ", "RB"]
    # the rank column is each row's place
    assert [line.split("\t")[-2] for line in path.read_text().splitlines()[1:]] == [
        "1", "2", "3", "4", "5", "6"
    ]
    loaded, scored = scored_hours(ranking_loaded), scored_hours(ranking)
    assert [s[:2] for s in loaded] == [s[:2] for s in scored]  # stamp and items
    assert [s.cover for s in loaded] == [s.cover for s in scored]
    for got, expected in zip(loaded, scored):
        # scores travel as 9-decimal text
        assert got.score == pytest.approx(expected.score, abs=5e-10)


def test_read_scores_rejects_bad_header(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text("nope\n")
    with pytest.raises(ValueError, match="bad scores header"):
        read_scores(str(path))


@pytest.mark.parametrize("stamp, form", [
    ("2016-08-22", "timestamp has no time of day"),
    ("2016-08-22T11:00+02:00", "timestamp carries a UTC offset"),
    ("2016-08-22T12:30:45", "timestamp has seconds"),
    ("2016-08-22T10:30", "timestamp is not on the hour"),
])
def test_read_scores_rejects_stamps_it_cannot_write_back(tmp_path, stamp, form):
    # only hour_text's form is read: a date alone would read as its 00:00
    # hour; an offset could not be compared with the naive hours; seconds
    # would be dropped; a minute would give the 10:00 row's hour a second row,
    # which the report's hour-of-day histogram would count twice
    path = tmp_path / "scores.tsv"
    path.write_text(
        "timestamp\tPB\tscore_bits\trank\tcover\n"
        "2016-08-22T10:00\t1\t1.000000000\t1\tPB:1\n"
        f"{stamp}\t1\t1.000000000\t2\tPB:1\n"
    )
    reason = f"{path}:3: bad hour '{stamp}' (expected YYYY-MM-DDTHH:00)"
    with pytest.raises(ValueError, match=re.escape(reason)):
        read_scores(str(path))


@pytest.mark.parametrize("category", ["0", "9"])
def test_read_scores_rejects_a_category_outside_1_to_4(tmp_path, category):
    path = tmp_path / "scores.tsv"
    path.write_text(
        "timestamp\tPB\tscore_bits\trank\tcover\n"
        "2016-08-22T10:00\t1\t1.000000000\t1\tPB:1\n"
        f"2016-08-22T11:00\t{category}\t1.000000000\t2\tPB:{category}\n"
    )
    reason = f"{path}:3: category outside 1..4 (PB:{category})"
    with pytest.raises(ValueError, match=re.escape(reason)):
        read_scores(str(path))


def test_read_scores_rejects_a_repeated_hour(tmp_path):
    # the report's hour-of-day histogram would count the hour twice
    path = tmp_path / "scores.tsv"
    path.write_text(
        "timestamp\tPB\tscore_bits\trank\tcover\n"
        "2016-08-22T10:00\t1\t1.000000000\t1\tPB:1\n"
        "2016-08-22T11:00\t1\t1.000000000\t2\tPB:1\n"
        "2016-08-22T10:00\t2\t3.000000000\t3\tPB:2\n"
    )
    with pytest.raises(ValueError, match=re.escape(f"{path}:4: repeated hour 2016-08-22T10:00")):
        read_scores(str(path))


def test_read_scores_rejects_a_header_naming_a_site_twice(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text(
        "timestamp\tPB\tPB\tscore_bits\trank\tcover\n"
        "2016-08-22T10:00\t1\t2\t1.000000000\t1\tPB:1|PB:2\n"
    )
    with pytest.raises(ValueError, match=re.escape(f"{path}: scores header names a site twice")):
        read_scores(str(path))


@pytest.mark.parametrize("sites", ["PB\t", "\tPB"])
def test_read_scores_rejects_a_header_naming_an_empty_site(sites, tmp_path):
    # without the check, the cover 'PB:1|:2' would fail as a bad item instead
    path = tmp_path / "scores.tsv"
    path.write_text(
        f"timestamp\t{sites}\tscore_bits\trank\tcover\n"
        "2016-08-22T10:00\t1\t2\t1.000000000\t1\tPB:1|:2\n"
    )
    reason = f"{path}: scores header names an empty site"
    with pytest.raises(ValueError, match=re.escape(reason)):
        read_scores(str(path))
    assert outcome(read_scores_oracle, str(path)) == (ValueError, reason)


def test_read_scores_rejects_a_rank_out_of_place(tmp_path):
    # top_fraction and the top-k take the first rows, so they must be the top ranks
    path = tmp_path / "scores.tsv"
    header = "timestamp\tPB\tscore_bits\trank\tcover\n"
    first = "2016-08-22T10:00\t1\t1.000000000\t2\tPB:1\n"
    second = "2016-08-22T11:00\t2\t4.000000000\t1\tPB:2\n"
    path.write_text(header + first + second)
    reason = f"{path}:2: rank '2' out of place (expected 1)"
    with pytest.raises(ValueError, match=re.escape(reason)):
        read_scores(str(path))
    # blank lines hold no place
    path.write_text(header + "\n" + second + "\n" + first)
    loaded, _ = read_scores(str(path))
    assert [(s.timestamp, s.score) for s in scored_hours(loaded)] == [
        ("2016-08-22T11:00", 4.0), ("2016-08-22T10:00", 1.0)
    ]


@pytest.mark.parametrize("rank", NONCANONICAL_ONES)
def test_read_scores_rejects_a_rank_written_otherwise(tmp_path, rank):
    # int() reads each as 1, the right place; write_scores writes "1"
    path = tmp_path / "scores.tsv"
    path.write_text(f"timestamp\tPB\tscore_bits\trank\tcover\n"
                    f"2016-08-22T10:00\t1\t1.000000000\t{rank}\tPB:1\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: rank {rank!r} out of place")):
        read_scores(str(path))


@pytest.mark.parametrize("header, row", [
    # a wrong tail: its last three columns would be read as score, rank and cover
    ("timestamp\tPB\tfoo\tbar\tbaz", "2016-08-22T10:00\t1\t1.000000000\t1\tPB:1"),
    # no site: the report would list each hour with empty categories
    ("timestamp\tscore_bits\trank\tcover", "2016-08-22T10:00\t1.000000000\t1\t"),
], ids=["tail", "no-site"])
def test_read_scores_rejects_a_header_without_sites_or_its_tail(tmp_path, header, row):
    path = tmp_path / "scores.tsv"
    path.write_text(f"{header}\n{row}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: bad scores header")):
        read_scores(str(path))


@pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
def test_read_scores_rejects_a_non_finite_score(tmp_path, score):
    # write_scores never writes one, and nan would pass every order check
    path = tmp_path / "scores.tsv"
    path.write_text(
        "timestamp\tPB\tscore_bits\trank\tcover\n"
        "2016-08-22T10:00\t2\t4.000000000\t1\tPB:2\n"
        f"2016-08-22T11:00\t1\t{score}\t2\tPB:1\n"
    )
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: non-finite score {score}")):
        read_scores(str(path))


def test_read_scores_rejects_a_score_above_the_row_before_it(tmp_path):
    # sorted by time with its ranks renumbered, the report's top hour would be the 1-bit one
    path = tmp_path / "scores.tsv"
    path.write_text(
        "timestamp\tPB\tscore_bits\trank\tcover\n"
        "2016-08-22T10:00\t1\t1.000000000\t1\tPB:1\n"
        "2016-08-22T11:00\t2\t4.000000000\t2\tPB:2\n"
    )
    reason = f"{path}:3: score 4.0 above the row before it (1.0)"
    with pytest.raises(ValueError, match=re.escape(reason)):
        read_scores(str(path))


def test_read_scores_rejects_one_rows_hours_out_of_time_order(tmp_path):
    # hours of one distinct row have one exact score, which score_all ranks by time
    path = tmp_path / "scores.tsv"
    path.write_text(
        "timestamp\tPB\tscore_bits\trank\tcover\n"
        "2016-08-22T11:00\t1\t1.000000000\t1\tPB:1\n"
        "2016-08-22T12:00\t2\t1.000000000\t2\tPB:2\n"
        "2016-08-22T10:00\t1\t1.000000000\t3\tPB:1\n"
    )
    reason = f"{path}:4: one row's hours out of order (2016-08-22T11:00 first)"
    with pytest.raises(ValueError, match=re.escape(reason)):
        read_scores(str(path))


def test_read_scores_takes_equal_scores_of_different_rows_in_any_time_order(tmp_path):
    # scores that differ below the ninth decimal print alike; score_all ranks
    # them by the exact score, so their hours need not ascend
    path = tmp_path / "scores.tsv"
    path.write_text(
        "timestamp\tPB\tscore_bits\trank\tcover\n"
        "2016-08-22T11:00\t1\t1.000000000\t1\tPB:1\n"
        "2016-08-22T10:00\t2\t1.000000000\t2\tPB:2\n"
    )
    loaded, _ = read_scores(str(path))
    assert loaded.hours == ["2016-08-22T11:00", "2016-08-22T10:00"]


@pytest.mark.parametrize("cover", [
    "PB:1",  # another hour's cover
    "PB:2",  # an item left out
    "PB:2|PB:2,LQ:1",  # an item covered twice
    "LQ:1,PB:2|RB:1",  # an item the row does not hold
])
def test_read_scores_rejects_a_cover_that_does_not_split_its_row(tmp_path, cover):
    path = tmp_path / "scores.tsv"
    path.write_text(
        "timestamp\tPB\tLQ\tscore_bits\trank\tcover\n"
        f"2016-08-22T10:00\t2\t1\t3.000000000\t1\t{cover}\n"
    )
    reason = f"{path}:2: cover {cover} does not split the row's items"
    with pytest.raises(ValueError, match=re.escape(reason)):
        read_scores(str(path))


def test_read_scores_shares_items_and_cover_per_distinct_row(tmp_path, six_rows, worked_table):
    path = tmp_path / "scores.tsv"
    write_scores(str(path), score_all(collapse(six_rows), worked_table), ["PB", "LQ", "RB"])
    loaded, _ = read_scores(str(path))
    first, last = loaded.index[2], loaded.index[-1]  # two hours of the dominant row
    assert first == last
    assert loaded.items[first] is loaded.items[last]
    assert loaded.covers[first] is loaded.covers[last]
    assert len(loaded.items) == 2  # one entry per distinct row


def test_scores_file_round_trips_a_year_before_1000(tmp_path):
    entry = Ranking(
        hours=[hour_text(datetime(999, 1, 1))], index=[0], items=[(("PB", 1),)], bits=[1.0], covers=["PB:1"]
    )
    path = tmp_path / "scores.tsv"
    write_scores(str(path), entry, ["PB"])
    assert path.read_text().splitlines()[1] == "0999-01-01T00:00\t1\t1.000000000\t1\tPB:1"
    assert read_scores(str(path)) == (entry, ["PB"])


SCORE_TEXTS = ["25.668123457", "7", "1.000000000", "0.000000000", "-0.000000000"]
COVER_TEXTS = ["PB:1", "LQ:2,PB:1|RB:2", "", "not a cover"]


@st.composite
def score_files(draw):
    """Scores files, mostly as write_scores writes them: a pool of distinct
    rows in descending score order, some scores equal, each cover a split of
    its row's items in any order. At most one of the header or a row of the
    pool is bad, and artifact_rows may make one row of the file bad."""
    attributes = draw(st.sampled_from([["PB"], ["PB", "LQ", "RB"]]))
    width = len(attributes)
    scores = draw(st.lists(st.sampled_from(SCORE_TEXTS), min_size=1, max_size=4))
    pool = []
    for score in sorted(scores, key=float, reverse=True):
        categories = draw(st.lists(st.sampled_from("1234"), min_size=width, max_size=width))
        items = [f"{attr}:{cat}" for attr, cat in zip(attributes, categories)]
        parts = draw(st.lists(st.integers(0, width - 1), min_size=width, max_size=width))
        cover = "|".join(
            ",".join(item for item, part in zip(items, parts) if part == at)
            for at in dict.fromkeys(parts)
        )
        pool.append([*categories, score, cover])
    header = ["timestamp", *attributes, *SCORES_TAIL]
    fault = draw(st.sampled_from([None] * 20 + ["category", "score", "cover", "header", "no site"]))
    row = pool[draw(st.integers(0, len(pool) - 1))]
    items = [f"{attr}:{cat}" for attr, cat in zip(attributes, row)]
    if fault == "category":
        bad = st.sampled_from([" 2", "+2", "\u0662", "0", "9", "x", ""])
        row[draw(st.integers(0, width - 1))] = draw(bad)
    elif fault == "score":
        row[-2] = draw(st.sampled_from(["inf", "-inf", "nan", "x", ""]))
    elif fault == "cover":  # an item left out, one covered twice, a wrong category
        other = f"{attributes[0]}:{int(row[0]) % 4 + 1}"
        row[-1] = draw(st.sampled_from([
            ",".join(items[1:]), f"{row[-1]}|{items[0]}", ",".join([other, *items[1:]]),
            *COVER_TEXTS,
        ]))
    elif fault == "header":
        header[draw(st.integers(-3, -1))] = "foo"
    elif fault == "no site":
        del header[1 : 1 + width]
    rows = draw(artifact_rows(st.just(pool), ranked=True))
    return "".join("\t".join(line) + "\n" for line in [header, *rows])


def comparable(result):
    """A reader's outcome with scores as repr, so that -0.0 and 0.0 differ."""
    if isinstance(result[0], type):
        return result
    scored, attributes = result
    if isinstance(scored, Ranking):
        scored = scored_hours(scored)
    return [(s.timestamp, s.items, s.cover, repr(s.score)) for s in scored], attributes


@given(text=score_files())
@settings(max_examples=300, deadline=None)
def test_read_scores_matches_the_per_row_oracle(text, tmp_path_factory):
    path = tmp_path_factory.mktemp("scores") / "scores.tsv"
    path.write_text(text)
    expected = comparable(outcome(read_scores_oracle, str(path)))
    assert comparable(outcome(read_scores, str(path))) == expected


ITEMS = [(("PB", 1), ("LQ", 2)), (("PB", 3), ("LQ", 2)), (("LQ", 2), ("PB", 1))]


@st.composite
def scored_lists(draw):
    """Rankings of hours in any order, drawn from a few items, scores and covers,
    so that some hours share all three and some share only part. Hours that
    share all three (the score by its repr, so 0.0 and -0.0 differ) share a row."""
    start = draw(st.sampled_from([datetime(2016, 8, 22), datetime(999, 12, 31, 21)]))
    entries = draw(st.lists(st.tuples(
        st.sampled_from(ITEMS),
        st.sampled_from([1.0, 25.668123456789, 0.0, -0.0, float("inf"), float("nan"), 1e-12]),
        st.sampled_from(COVER_TEXTS),
    ), max_size=12))
    rows, firsts = [], {}  # firsts: (items, the score's repr, cover) -> its row
    for items, score, cover in entries:
        rows.append(firsts.setdefault((items, repr(score), cover), len(firsts)))
    distinct = [entries[rows.index(row)] for row in range(len(firsts))]
    return Ranking(
        hours=[hour_text(start + timedelta(hours=i)) for i in range(len(entries))], index=rows,
        items=[items for items, _, _ in distinct], bits=[score for _, score, _ in distinct],
        covers=[cover for _, _, cover in distinct],
    )


@given(scored=scored_lists())
@settings(max_examples=200, deadline=None)
def test_write_scores_writes_the_per_row_oracles_bytes(scored, tmp_path_factory):
    folder = tmp_path_factory.mktemp("written")
    write_scores(str(folder / "scores.tsv"), scored, ["LQ", "PB"])
    write_scores_oracle(str(folder / "oracle.tsv"), scored_hours(scored), ["LQ", "PB"])
    assert (folder / "scores.tsv").read_bytes() == (folder / "oracle.tsv").read_bytes()


@given(db=db_strategy(max_rows=10, max_cat=3))
@settings(max_examples=50, deadline=None)
def test_write_scores_of_scored_hours_writes_the_per_row_oracles_bytes(db, tmp_path_factory):
    folder = tmp_path_factory.mktemp("written")
    result = mine_and_compress(db)
    scored = score_all(collapse(db), result.table)
    write_scores(str(folder / "scores.tsv"), scored, ["C", "A", "B"])
    write_scores_oracle(str(folder / "oracle.tsv"), scored_hours(scored), ["C", "A", "B"])
    assert (folder / "scores.tsv").read_bytes() == (folder / "oracle.tsv").read_bytes()


def test_writers_refuse_hours_held_as_datetimes(tmp_path):
    # an hour is held as its text; a datetime would be written as str() writes it
    hour, items = datetime(2016, 8, 22, 10), (("PB", 1),)
    with pytest.raises(TypeError):
        db = DistinctRows([hour], [items])
        write_transactions(str(tmp_path / "transactions.csv"), db, ["PB"])
    ranking = Ranking(hours=[hour], index=[0], items=[items], bits=[1.0], covers=["PB:1"])
    with pytest.raises(TypeError):
        write_scores(str(tmp_path / "scores.tsv"), ranking, ["PB"])
    with pytest.raises(TypeError):
        report(ranking, 1.0, k=1)


@pytest.mark.parametrize("change", LATE_CHANGES)
def test_read_scores_matches_the_per_row_oracle_on_a_long_file(change, tmp_path):
    # Even hours hold one row, odd hours another with a lower score.
    start = datetime(2016, 1, 1)
    stamps = [hour_text(start + timedelta(hours=i)) for i in range(LONG_ROWS)]
    rows = [[stamp, "1", "2", "5.000000000", "LQ:2|PB:1"] for stamp in stamps[0::2]]
    rows += [[stamp, "3", "2", "3.000000000", "LQ:2,PB:3"] for stamp in stamps[1::2]]
    for rank, row in enumerate(rows, start=1):
        row.insert(-1, str(rank))
    change_late_row(rows, change)
    path = tmp_path / "scores.tsv"
    header = ["timestamp", "PB", "LQ", *SCORES_TAIL]
    path.write_text("".join("\t".join(row) + "\n" for row in [header, *rows]))
    expected = comparable(outcome(read_scores_oracle, str(path)))
    assert isinstance(expected[0], type)  # every change is a fault
    assert comparable(outcome(read_scores, str(path))) == expected
