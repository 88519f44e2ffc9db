"""The benchmark's correctness checks pass on the program's output and fail
when one artifact is corrupted, so none of them is vacuous.

    python3 -m pytest perfbench/test_checks.py
"""

import shutil
import sys
from datetime import datetime
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from mdlpatterns import cli  # noqa: E402


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """A small wide-sites run, made once; each test corrupts its own copy."""
    work = tmp_path_factory.mktemp("clean")
    raw = gen.wide_sites(seed=3, days=6)
    prep = run._prepare_raw(raw, work, itemsets=True)
    for argv in prep.commands:
        assert cli.main(argv) == 0
    return work, raw


@pytest.fixture
def copy(clean, tmp_path):
    work, raw = clean
    shutil.copytree(work, tmp_path / "w")
    prep = run._prepare_raw(raw, tmp_path / "w", itemsets=True)
    return tmp_path / "w" / "out", prep


def _failing(prep) -> set[str]:
    problems, _ = prep.verify()
    return {name for name, found in problems.items() if found}


def _edit(path: Path, line_no: int, edit) -> None:
    lines = path.read_text().split("\n")
    lines[line_no] = edit(lines[line_no])
    path.write_text("\n".join(lines))


def _set_field(index: int, value):
    def edit(line: str) -> str:
        fields = line.split("\t")
        fields[index] = value(fields[index])
        return "\t".join(fields)
    return edit


def test_clean_output_passes(copy):
    _, prep = copy
    assert _failing(prep) == set()


def test_corrupt_score_fails_score_check(copy):
    out, prep = copy
    last = len((out / "scores.tsv").read_text().splitlines()) - 1
    _edit(out / "scores.tsv", last, _set_field(-3, lambda s: f"{float(s) + 0.001:.9f}"))
    assert "scores" in _failing(prep)


def test_corrupt_usage_fails_usage_check(copy):
    out, prep = copy
    lines = (out / "pattern_table.tsv").read_text().splitlines()
    first_pattern = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    _edit(out / "pattern_table.tsv", first_pattern, _set_field(1, lambda u: str(int(u) + 1)))
    assert "usages" in _failing(prep)


def test_corrupt_itemset_support_fails_itemset_check(copy):
    out, prep = copy
    _edit(out / "itemsets.tsv", 0, _set_field(1, lambda s: str(int(s) - 1)))
    assert "itemsets" in _failing(prep)


def test_dropped_itemset_fails_itemset_check(copy):
    out, prep = copy
    lines = (out / "itemsets.tsv").read_text().splitlines(keepends=True)
    (out / "itemsets.tsv").write_text("".join(lines[1:]))
    assert "itemsets" in _failing(prep)


def test_corrupt_category_fails_category_check(copy):
    out, prep = copy
    _edit(out / "transactions.csv", 1, lambda line: line[:-1] + str(int(line[-1]) % 4 + 1))
    assert "categories" in _failing(prep)


def test_non_greedy_cover_fails_cover_check(copy):
    out, prep = copy
    lines = (out / "scores.tsv").read_text().splitlines()
    row = next(i for i, line in enumerate(lines[1:], start=1)
               if any("," in part for part in line.split("\t")[-1].split("|")))
    # Split every multi-item pattern into singletons: still a partition,
    # no longer the greedy cover.
    _edit(out / "scores.tsv", row, _set_field(
        -1, lambda cover: "|".join(cover.replace("|", ",").split(","))))
    assert "covers" in _failing(prep)


def test_swapped_ranks_fail_ranking_check(copy):
    out, prep = copy
    lines = (out / "scores.tsv").read_text().split("\n")
    low = len(lines) - 2
    lines[1], lines[low] = lines[low], lines[1]
    (out / "scores.tsv").write_text("\n".join(lines))
    assert "ranking" in _failing(prep)


def test_short_selection_fails_report_check(copy):
    out, prep = copy
    text = (out / "report.txt").read_text()
    head, sep, rest = text.partition("[hour-histogram]")
    head_lines = head.rstrip("\n").split("\n")
    (out / "report.txt").write_text("\n".join(head_lines[:-1]) + "\n" + sep + rest)
    assert "report" in _failing(prep)


def test_missing_injected_hour_fails_recall_check(copy):
    out, _ = copy
    _, scores = checks.read_scores(str(out / "scores.tsv"))
    bottom = scores[-1].timestamp
    assert checks.check_recall(scores, [scores[0].timestamp], run.TOP_FRACTION) == []
    assert checks.check_recall(scores, [bottom], run.TOP_FRACTION) != []


def test_unseen_item_fails_table_check():
    table = checks.Table(usages={frozenset([("PB", 1)]): 3}, bits={})
    hours = {datetime(2020, 1, 1): (1,), datetime(2020, 1, 1, 1): (4,)}
    assert checks.check_table_items(table, hours, ("PB",)) == ["item PB:4 has no singleton in the table"]


def test_exact_ceil_is_exact():
    assert checks.exact_ceil("0.07", 100) == 7
    assert checks.exact_ceil("0.05", 8748) == 438
