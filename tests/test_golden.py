"""Golden snapshot: `run` on `synth --seed 7 --days 30` against committed output.

The files under ``tests/golden/`` are the seven artifacts and the stdout
summary of that run, made with relative paths from the run's own directory
so that ``config.json`` is stable too. The rerun tests elsewhere compare one
run with another; this one compares with fixed bytes, so a change that moves
a single printed digit fails here. Regenerate the files only on purpose, and
say why in CHANGES.md.

The files under ``tests/golden_wide/`` pin the codec where the first
snapshot cannot: six sites, 720 hours over about 320 distinct rows, and 245
candidate trials. ``transactions.csv`` is what ``run`` writes for
``perfbench/gen.py``'s ``wide_sites(1)`` feed; the other four files are what
the staged ``compress``, ``score`` and ``report`` write from it, with their
default options.
"""

from pathlib import Path

from mdlpatterns import cli

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_WIDE = Path(__file__).parent / "golden_wide"
ARTIFACTS = [
    "config.json",
    "transactions.csv",
    "itemsets.tsv",
    "pattern_table.tsv",
    "acceptance_log.tsv",
    "scores.tsv",
    "report.txt",
]


def test_run_matches_golden_snapshot(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    synth_args = ["synth", "--seed", "7", "--days", "30"]
    assert cli.main(synth_args + ["--output", "raw.csv", "--manifest", "manifest.txt"]) == 0
    capsys.readouterr()
    assert cli.main(["run", "--input", "raw.csv", "--output-dir", "out"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "stdout.txt").read_text(encoding="utf-8")
    for name in ARTIFACTS:
        assert (tmp_path / "out" / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_staged_chain_matches_wide_golden_snapshot(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "transactions.csv").write_bytes((GOLDEN_WIDE / "transactions.csv").read_bytes())
    for args in (
        ["compress", "--transactions", "transactions.csv", "--table-out", "pattern_table.tsv",
         "--log-out", "acceptance_log.tsv"],
        ["score", "--transactions", "transactions.csv", "--table", "pattern_table.tsv",
         "--output", "scores.tsv"],
        ["report", "--scores", "scores.tsv", "--output", "report.txt"],
    ):
        assert cli.main(args) == 0, args[0]
    for name in ["pattern_table.tsv", "acceptance_log.tsv", "scores.tsv", "report.txt"]:
        assert (tmp_path / name).read_bytes() == (GOLDEN_WIDE / name).read_bytes(), name
