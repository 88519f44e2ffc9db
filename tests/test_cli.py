"""Command-line interface: config handling, staged runs, exit codes, determinism."""

import csv
import functools
import io
import json
import logging
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import SITE_NAMES, site_fault_oracle
from mdlpatterns import cli, codec, ingest, mining
from mdlpatterns.cli import RunConfig, run_pipeline

ARTIFACTS = [
    "config.json",
    "transactions.csv",
    "itemsets.tsv",
    "pattern_table.tsv",
    "acceptance_log.tsv",
    "scores.tsv",
    "report.txt",
]


def make_raw(tmp_path, seed=11, days=3):
    raw = tmp_path / "raw.csv"
    manifest = tmp_path / "manifest.txt"
    code = cli.main(
        [
            "synth",
            "--seed",
            str(seed),
            "--days",
            str(days),
            "--output",
            str(raw),
            "--manifest",
            str(manifest),
        ]
    )
    assert code == 0
    return raw


# --- threshold parsing ----------------------------------------------------------


def mine_least(argv, n):
    """The least support the `mine` subcommand resolves from its arguments for n hours."""
    args = cli.build_parser().parse_args(["mine", "--transactions", "t", "--output", "o", *argv])
    config = cli._config(args)
    return mining.least_support(config.threshold, n, config.threshold_minimum)


def test_parse_threshold_absolute():
    # integer text is a count, whatever the number of hours
    assert mine_least(["--threshold", "12"], 1000) == 12
    assert mine_least(["--threshold", "12"], 50) == 12


def test_parse_threshold_fractional():
    assert mine_least(["--threshold", "0.05"], 100) == 5
    assert mine_least(["--threshold", "1e-2"], 1000) == 10


def test_parse_threshold_carries_options():
    assert mine_least(["--threshold", "3", "--threshold-minimum", "4"], 100) == 4
    config = RunConfig(input="x", threshold="3", threshold_minimum=2, threshold_inclusive=False)
    config.validate()
    least = mining.least_support(
        config.threshold, 100, config.threshold_minimum, config.threshold_inclusive
    )
    assert least == 4


def test_parse_threshold_rejects_garbage():
    with pytest.raises(ValueError, match="bad threshold 'five'"):
        RunConfig(input="x", threshold="five").validate()
    with pytest.raises(ValueError, match="bad threshold 'five'"):
        mine_least(["--threshold", "five"], 100)


# --- config ----------------------------------------------------------------------


def test_config_from_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"input": "raw.csv", "top_k": 7}))
    config = RunConfig.from_file(str(path))
    assert config.input == "raw.csv"
    assert config.top_k == 7
    assert config.attributes == ["PB", "LQ", "RB"]


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"input": "raw.csv", "tpo_k": 7}))
    with pytest.raises(ValueError, match="tpo_k"):
        RunConfig.from_file(str(path))


def test_config_validation(tmp_path, capsys):
    with pytest.raises(ValueError, match=re.escape("attribute list [] names no site")):
        RunConfig(input="x", attributes=[]).validate()
    with pytest.raises(ValueError, match="top_fraction"):
        RunConfig(input="x", top_fraction=0.0).validate()
    with pytest.raises(ValueError, match="top_k"):
        RunConfig(input="x", top_k=-1).validate()
    with pytest.raises(ValueError, match="bad threshold"):
        RunConfig(input="x", threshold="soon").validate()
    # A value of the wrong JSON type is named, not left to fail deep inside.
    with pytest.raises(ValueError, match="top_k must be int"):
        RunConfig(input="x", top_k="3").validate()
    with pytest.raises(ValueError, match="top_k must be int"):
        RunConfig(input="x", top_k=True).validate()
    with pytest.raises(ValueError, match="threshold_inclusive must be bool"):
        RunConfig(input="x", threshold_inclusive=1).validate()
    with pytest.raises(ValueError, match="attributes must be list"):
        RunConfig(input="x", attributes="PB,LQ").validate()
    RunConfig(input="x", threshold=0.05, top_fraction=1).validate()
    RunConfig(input="x", threshold=3).validate()
    # Through `run --config`, both are usage errors (exit 1), not tracebacks.
    path = tmp_path / "config.json"
    for data, message in [
        ({"input": "raw.csv", "top_k": "3"}, "top_k must be int"),
        ({"input": "raw.csv", "log_level": 10}, "log_level must be str"),
        ({"input": "raw.csv", "log_level": "LOUD"}, "Unknown level: 'LOUD'"),
        ({"input": "raw.csv", "attributes": [1, 2]}, "attributes must be site names"),
        ({"input": "raw.csv", "attributes": ["PB", ["LQ"]]}, "attributes must be site names"),
        ({"input": "raw.csv", "attributes": ["PB", "PB"]},
         "attribute list ['PB', 'PB'] names a site twice"),
        ({"input": "raw.csv", "attributes": [""]}, "attribute list [''] names an empty site"),
        (["raw.csv"], "JSON object"),
        ({"top_k": 3}, "'input' key"),
    ]:
        path.write_text(json.dumps(data))
        assert cli.main(["run", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err
    # run_pipeline checks the level before it writes a config.json that could not be replayed.
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="Unknown level: 'LOUD'"):
        run_pipeline(RunConfig(input="raw.csv", output_dir=str(out), log_level="loud"))
    assert not out.exists()
    # A delimiter the feed reader cannot take is an option error, not an ingest failure.
    raw = make_raw(tmp_path, days=1)
    for delimiter in ["", ";;"]:
        with pytest.raises(ValueError, match="delimiter must be one character"):
            RunConfig(input="x", delimiter=delimiter).validate()
        argv = ["run", "--input", str(raw), "--output-dir", str(out), "--delimiter", delimiter]
        assert cli.main(argv) == 1
        assert f"delimiter must be one character, got {delimiter!r}" in capsys.readouterr().err
        assert not out.exists()


# --- full pipeline ------------------------------------------------------------------


def test_run_writes_all_artifacts(tmp_path, capsys):
    raw = make_raw(tmp_path)
    out = tmp_path / "out"
    code = cli.main(
        ["run", "--input", str(raw), "--output-dir", str(out), "--top-k", "2"]
    )
    assert code == 0
    for name in ARTIFACTS:
        assert (out / name).is_file(), name
    summary = capsys.readouterr().out
    assert "transactions: 72" in summary
    assert "initial_length_bits:" in summary
    assert "compression_ratio:" in summary
    assert "top_anomaly:" in summary
    config = json.loads((out / "config.json").read_text())
    assert config["top_k"] == 2
    assert config["input"] == str(raw)


def test_rerun_is_byte_identical(tmp_path):
    raw = make_raw(tmp_path)
    out = tmp_path / "out"
    config = RunConfig(input=str(raw), output_dir=str(out))
    run_pipeline(config)
    before = {name: (out / name).read_bytes() for name in ARTIFACTS}
    run_pipeline(config)
    after = {name: (out / name).read_bytes() for name in ARTIFACTS}
    assert before == after


def test_run_on_interleaved_slices_matches_a_run_on_each_slices_own_feed(tmp_path, capsys):
    # Four feeds, one per direction and vehicle class, mixed line by line
    # under one header: each slice keeps its own rows, so a run of one slice
    # on the mixed feed writes, prints and warns exactly what a run on that
    # slice's own feed does.
    slices = [(d, c) for d in ("ToUS", "ToCanada") for c in ("Car", "Truck")]
    feeds = []
    for direction, vehicle_class in slices:
        raw = tmp_path / f"{direction}-{vehicle_class}.csv"
        assert cli.main(["synth", "--seed", "7", "--days", "3", "--direction", direction,
                         "--vehicle-class", vehicle_class, "--output", str(raw),
                         "--manifest", str(tmp_path / "manifest.txt")]) == 0
        feeds.append(raw.read_text().splitlines(keepends=True))
    mixed = tmp_path / "mixed.csv"
    mixed.write_text(feeds[0][0] + "".join(
        line for lines in zip(*(lines[1:] for lines in feeds)) for line in lines
    ))
    capsys.readouterr()
    for direction, vehicle_class in slices:
        runs = []
        for raw in (tmp_path / f"{direction}-{vehicle_class}.csv", mixed):
            out = tmp_path / "out" / f"{raw.stem}-{direction}-{vehicle_class}"
            assert cli.main(["run", "--input", str(raw), "--output-dir", str(out),
                             "--direction", direction, "--vehicle-class", vehicle_class]) == 0
            # config.json names the input, so it is the one artifact that differs
            runs.append(({name: (out / name).read_bytes() for name in ARTIFACTS[1:]},
                         capsys.readouterr()))
        assert runs[0] == runs[1], (direction, vehicle_class)


# Flags of `run` that each staged subcommand also takes, by RunConfig field.
STAGED_FLAGS = {
    "discretize": ["attributes"],
    "mine": ["threshold"],
    "compress": ["threshold"],
    "report": ["top_k", "top_fraction"],
}


def flags(options, command=None):
    """Flags for `options` ({field: value}); only those `command` takes, if given."""
    names = STAGED_FLAGS[command] if command else options
    return [
        arg
        for name in names
        if name in options
        for arg in ("--" + name.replace("_", "-"), options[name])
    ]


@pytest.mark.parametrize(
    "options",
    [
        {},
        {"attributes": "RB,PB,LQ", "threshold": "3", "top_k": "5", "top_fraction": "0.1"},
    ],
    ids=["defaults", "reordered-absolute"],
)
def test_staged_subcommands_match_run(tmp_path, options):
    raw = make_raw(tmp_path)
    out = tmp_path / "out"
    run_args = ["run", "--input", str(raw), "--output-dir", str(out)]
    assert cli.main(run_args + flags(options)) == 0

    stage = tmp_path / "stage"
    stage.mkdir()
    txns = stage / "transactions.csv"
    itemsets = stage / "itemsets.tsv"
    table = stage / "pattern_table.tsv"
    log = stage / "acceptance_log.tsv"
    scores = stage / "scores.tsv"
    rep = stage / "report.txt"
    assert cli.main(
        ["discretize", "--input", str(raw), "--output", str(txns)]
        + flags(options, "discretize")
    ) == 0
    assert cli.main(
        ["mine", "--transactions", str(txns), "--output", str(itemsets)]
        + flags(options, "mine")
    ) == 0
    assert cli.main(
        [
            "compress",
            "--transactions",
            str(txns),
            "--table-out",
            str(table),
            "--log-out",
            str(log),
        ]
        + flags(options, "compress")
    ) == 0
    assert cli.main(
        [
            "score",
            "--transactions",
            str(txns),
            "--table",
            str(table),
            "--output",
            str(scores),
        ]
    ) == 0
    assert cli.main(
        ["report", "--scores", str(scores), "--output", str(rep)] + flags(options, "report")
    ) == 0

    for staged, combined in [
        (txns, "transactions.csv"),
        (itemsets, "itemsets.tsv"),
        (table, "pattern_table.tsv"),
        (log, "acceptance_log.tsv"),
        (scores, "scores.tsv"),
        (rep, "report.txt"),
    ]:
        assert staged.read_bytes() == (out / combined).read_bytes(), combined


def test_delimiter_flag_reads_a_feed_split_by_another_character(tmp_path):
    # The same feed with `;` between fields, read with `--delimiter ';'`, gives
    # the comma feed's artifacts; only config.json, naming input and delimiter, differs.
    raw = make_raw(tmp_path, seed=3, days=2)
    semicolons = tmp_path / "semicolons.csv"
    semicolons.write_text(raw.read_text().replace(",", ";"))
    written = []
    for feed, flag in [(raw, []), (semicolons, ["--delimiter", ";"])]:
        out = tmp_path / f"out-{feed.stem}"
        assert cli.main(["run", "--input", str(feed), "--output-dir", str(out)] + flag) == 0
        staged = tmp_path / f"staged-{feed.stem}.csv"
        assert cli.main(["discretize", "--input", str(feed), "--output", str(staged)] + flag) == 0
        assert staged.read_bytes() == (out / "transactions.csv").read_bytes()
        written.append({name: (out / name).read_bytes() for name in ARTIFACTS[1:]})
    assert written[0] == written[1]
    assert len(written[0]["transactions.csv"].splitlines()) == 1 + 48


def test_run_accepts_config_file_with_overrides(tmp_path, capsys):
    raw = make_raw(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"input": str(raw), "top_k": 1, "threshold": 0.05}))
    out = tmp_path / "out"
    code = cli.main(
        ["run", "--config", str(config_path), "--output-dir", str(out)]
    )
    assert code == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["top_k"] == 1
    assert echoed["output_dir"] == str(out)


# --- failure modes -------------------------------------------------------------------


def test_run_without_input_is_usage_error(capsys):
    assert cli.main(["run"]) == 2
    assert "required" in capsys.readouterr().err


def test_exit_code_ingest_failure(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(
        ["run", "--input", str(tmp_path / "missing.csv"), "--output-dir", str(out)]
    )
    assert code == 10
    assert "ingest stage failed" in capsys.readouterr().err


def test_run_warns_of_incomplete_hours_and_fails_when_no_hour_is_complete(tmp_path, capsys):
    # RB, the hourly site, misses three hours of a one-day feed: those hours
    # are excluded with one warning; a site the feed never names leaves none
    raw = make_raw(tmp_path, days=1)
    lines = raw.read_text().splitlines(keepends=True)
    gaps = ("T03:00,RB,", "T04:00,RB,", "T10:00,RB,")
    raw.write_text("".join(line for line in lines if not any(gap in line for gap in gaps)))
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main(["run", "--input", str(raw), "--output-dir", str(out)]) == 0
    assert capsys.readouterr().err == "WARNING:mdlpatterns:ingest: excluded 3 incomplete hour(s)\n"
    hours = [line.partition(",")[0] for line in (out / "transactions.csv").read_text().splitlines()]
    assert len(hours) == 1 + 21 and "2016-08-22T03:00" not in hours
    assert cli.main(["run", "--input", str(raw), "--output-dir", str(tmp_path / "xx"),
                     "--attributes", "PB,LQ,XX"]) == 10
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: ingest stage failed: no complete hours for the configured attributes "
        "(24 hour(s) excluded)"
    )


@pytest.mark.parametrize("direction", ["ToUS", "Sideways"])
def test_discretize_fails_where_run_ingest_fails(tmp_path, capsys, direction):
    """No complete hour (a ToCanada feed read as ToUS) or an unknown direction."""
    raw = make_raw(tmp_path, days=1)
    out = tmp_path / "out"
    run_args = ["run", "--input", str(raw), "--output-dir", str(out)]
    assert cli.main(run_args + ["--direction", direction]) == 10
    run_error = capsys.readouterr().err.splitlines()[-1]
    disc_args = ["discretize", "--input", str(raw), "--output", str(tmp_path / "t.csv")]
    assert cli.main(disc_args + ["--direction", direction]) == 10
    assert capsys.readouterr().err.splitlines()[-1] == run_error
    assert "ingest stage failed" in run_error


def test_discretize_rejects_empty_attributes(tmp_path, capsys):
    raw = make_raw(tmp_path, days=1)
    args = ["discretize", "--input", str(raw), "--output", str(tmp_path / "t.csv")]
    assert cli.main(args + ["--attributes", ""]) == 1
    assert "attribute list [] names no site" in capsys.readouterr().err


def test_an_empty_site_name_fails_alike_from_the_flag_and_the_config(tmp_path, capsys):
    raw, out = str(make_raw(tmp_path, days=1)), str(tmp_path / "out")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"input": raw, "attributes": ["PB", "", "LQ"], "output_dir": out}))
    outcomes = []
    for args in (["--input", raw, "--attributes", "PB,,LQ", "--output-dir", out],
                 ["--config", str(config)]):
        outcomes.append((cli.main(["run", *args]), capsys.readouterr().err))
    message = "error: attribute list ['PB', '', 'LQ'] names an empty site\n"
    assert outcomes == [(1, message)] * 2
    assert not os.path.exists(out)


def quiet_main(argv: list[str]) -> tuple[int, str]:
    """cli.main's exit code and stderr, its stdout dropped."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=30, deadline=None)
@example(sites=["P,B", "LQ"])
@example(sites=["P|B", "LQ"])
@example(sites=["P\tB", "LQ"])
@example(sites=["#A", "LQ"])
@example(sites=["RB ", "LQ"])
@example(sites=["Peace Bridge", "A:B"])
@given(sites=st.lists(SITE_NAMES, min_size=2, max_size=2))
def test_run_takes_only_sites_its_staged_chain_reads_back(sites):
    # A site list run accepts gives artifacts that the staged chain reproduces
    # byte for byte; one it refuses exits 1 before any stage, names the site
    # list and writes nothing.
    with tempfile.TemporaryDirectory() as tmp:
        raw, out = os.path.join(tmp, "raw.csv"), os.path.join(tmp, "out")
        with open(raw, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "site", "direction", "vehicle_class", "wait_minutes"])
            for hour in range(48):
                stamp = f"2016-08-{22 + hour // 24}T{hour % 24:02}:00"
                for i, site in enumerate(sites):  # the second site's category changes faster
                    wait = (0, 10, 20, 40)[hour * (i + 1) % 4]
                    writer.writerow([stamp, site, "ToCanada", "Car", wait])
        config = os.path.join(tmp, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"input": raw, "attributes": sites, "output_dir": out}, fh)
        fault = site_fault_oracle(sites)
        code, err = quiet_main(["run", "--config", config])
        if fault is not None:
            assert (code, err) == (1, f"error: attribute list {sites!r} {fault}\n")
            assert not os.path.exists(out)
            return
        assert (code, err) == (0, "")
        stage = functools.partial(os.path.join, tmp)
        txns, table, scores = (stage(name) for name in
                               ("transactions.csv", "pattern_table.tsv", "scores.tsv"))
        for argv in (
            ["discretize", "--input", raw, "--output", txns, "--attributes=" + ",".join(sites)],
            ["mine", "--transactions", txns, "--output", stage("itemsets.tsv")],
            ["compress", "--transactions", txns, "--table-out", table,
             "--log-out", stage("acceptance_log.tsv")],
            ["score", "--transactions", txns, "--table", table, "--output", scores],
            ["report", "--scores", scores, "--output", stage("report.txt")],
        ):
            assert quiet_main(argv) == (0, ""), argv
        for name in ARTIFACTS[1:]:
            with open(stage(name), "rb") as staged, open(os.path.join(out, name), "rb") as ran:
                assert staged.read() == ran.read(), name


def test_exit_code_mine_failure(tmp_path):
    code = cli.main(
        [
            "mine",
            "--transactions",
            str(tmp_path / "missing.csv"),
            "--output",
            str(tmp_path / "itemsets.tsv"),
        ]
    )
    assert code == 20


def test_exit_code_compress_failure(tmp_path):
    txns = tmp_path / "transactions.csv"
    # category x: read_transactions rejects the file
    txns.write_text("timestamp,PB,LQ\n2016-08-22T10:00,1,x\n")
    code = cli.main(
        [
            "compress",
            "--transactions",
            str(txns),
            "--table-out",
            str(tmp_path / "t.tsv"),
            "--log-out",
            str(tmp_path / "l.tsv"),
        ]
    )
    assert code == 30


def test_staged_commands_refuse_a_transaction_header_naming_an_empty_site(tmp_path, capsys):
    # mine and compress would exit 0 and write items such as ':2'
    txns = tmp_path / "transactions.csv"
    txns.write_text("timestamp,PB,\n2016-08-22T10:00,1,2\n2016-08-22T11:00,1,2\n")
    table = tmp_path / "t.tsv"
    table.write_text("# pattern-table v1\nPB:1\t2\t0.000000000\n")
    given = ["--transactions", str(txns)]
    outcomes = [
        cli.main(["mine", *given, "--output", str(tmp_path / "i.tsv")]),
        cli.main(["compress", *given, "--table-out", str(tmp_path / "out.tsv"),
                  "--log-out", str(tmp_path / "l.tsv")]),
        cli.main(["score", *given, "--table", str(table), "--output", str(tmp_path / "s.tsv")]),
    ]
    assert outcomes == [20, 30, 40]
    reason = f"{txns}: transaction header names an empty site ('timestamp,PB,')"
    assert capsys.readouterr().err.count(reason) == 3
    assert not {"i.tsv", "out.tsv", "l.tsv", "s.tsv"} & set(os.listdir(tmp_path))


def test_unsettled_cover_order_is_a_compress_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.codec, "_MAX_RECOVER_PASSES", 1)
    raw = make_raw(tmp_path)
    code = cli.main(["run", "--input", str(raw), "--output-dir", str(tmp_path / "out")])
    assert code == 30
    assert "did not settle in 1 passes" in capsys.readouterr().err


def test_exit_code_score_failure(tmp_path):
    raw = make_raw(tmp_path, days=1)
    txns = tmp_path / "transactions.csv"
    assert cli.main(["discretize", "--input", str(raw), "--output", str(txns)]) == 0
    code = cli.main(
        [
            "score",
            "--transactions",
            str(txns),
            "--table",
            str(tmp_path / "missing.tsv"),
            "--output",
            str(tmp_path / "scores.tsv"),
        ]
    )
    assert code == 40


def test_exit_code_report_failure(tmp_path):
    code = cli.main(
        [
            "report",
            "--scores",
            str(tmp_path / "missing.tsv"),
            "--output",
            str(tmp_path / "report.txt"),
        ]
    )
    assert code == 50


@pytest.mark.parametrize(
    "command, option, message",
    [
        ("discretize", ["--attributes", ","], "attribute list ['', ''] names a site twice"),
        ("mine", ["--threshold", "0"], "bad threshold '0': absolute threshold must be >= 1"),
        ("mine", ["--threshold-minimum", "0"], "bad threshold '0.05': minimum must be >= 1"),
        ("compress", ["--threshold", "zero"], "bad threshold 'zero'"),
        ("report", ["--top-fraction", "0"], "top_fraction must be in (0, 1], got 0.0"),
        ("report", ["--top-k", "-1"], "top_k must be >= 0, got -1"),
    ],
    ids=["discretize-attributes", "mine-threshold", "mine-threshold-minimum",
         "compress-threshold", "report-top-fraction", "report-top-k"],
)
def test_a_bad_option_exits_1_before_any_stage(tmp_path, capsys, command, option, message):
    # Every command checks its options as `run` does, on inputs its stage would take.
    golden = os.path.join(os.path.dirname(__file__), "golden")
    transactions, out = os.path.join(golden, "transactions.csv"), str(tmp_path / "out")
    files = {
        "mine": ["--transactions", transactions, "--output", out],
        "compress": ["--transactions", transactions, "--table-out", out, "--log-out", out],
        "report": ["--scores", os.path.join(golden, "scores.tsv"), "--output", out],
    }
    if command == "discretize":
        files[command] = ["--input", str(make_raw(tmp_path, days=1)), "--output", out]
    before = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    assert cli.main([command, *files[command], *option]) == 1
    stdout, stderr = capsys.readouterr()
    assert (stdout, stderr.startswith(f"error: {message}"), stderr.count("\n")) == ("", True, 1)
    assert sorted(os.listdir(tmp_path)) == before  # no output written


def test_synth_rejects_an_unknown_regime_with_exit_1(tmp_path, capsys):
    # generate_synthetic checks the name, as validate checks every other option
    files = ["--output", str(tmp_path / "raw.csv"), "--manifest", str(tmp_path / "manifest.txt")]
    capsys.readouterr()
    assert cli.main(["synth", "--seed", "1", *files, "--regime", "lunar"]) == 1
    assert capsys.readouterr() == ("", "error: unknown regime 'lunar' (have: constant, daily)\n")
    assert os.listdir(tmp_path) == []  # no output written
    assert cli.main(["synth", "--seed", "1", "--days", "1", *files, "--regime", "constant"]) == 0
    assert sorted(os.listdir(tmp_path)) == ["manifest.txt", "raw.csv"]


def test_score_names_the_bad_table_line(tmp_path, capsys):
    raw = make_raw(tmp_path, days=1)
    out = tmp_path / "out"
    assert cli.main(["run", "--input", str(raw), "--output-dir", str(out)]) == 0
    table = out / "pattern_table.tsv"
    lines = table.read_text().splitlines(keepends=True)
    assert lines[2].startswith("# item_count\t")
    lines[2] = "# item_count\tPB:x\t5\n"
    table.write_text("".join(lines))
    capsys.readouterr()
    args = ["score", "--transactions", str(out / "transactions.csv"), "--table", str(table)]
    assert cli.main(args + ["--output", str(tmp_path / "scores.tsv")]) == 40
    err = capsys.readouterr().err
    assert f"score stage failed: {table}:3: invalid literal for int()" in err


def test_report_names_the_bad_scores_line(tmp_path, capsys):
    raw = make_raw(tmp_path, days=1)
    out = tmp_path / "out"
    assert cli.main(["run", "--input", str(raw), "--output-dir", str(out)]) == 0
    scores = out / "scores.tsv"
    lines = scores.read_text().splitlines(keepends=True)
    lines[2] = "notadate" + lines[2][lines[2].index("\t"):]
    scores.write_text("".join(lines))
    capsys.readouterr()
    assert cli.main(["report", "--scores", str(scores), "--output", str(tmp_path / "r")]) == 50
    err = capsys.readouterr().err
    assert (f"report stage failed: {scores}:3: bad hour 'notadate' "
            "(expected YYYY-MM-DDTHH:00)") in err


def test_report_rejects_scores_sorted_by_time(tmp_path, capsys):
    # the report would list the first rows as its top-k, whatever their rank
    raw = make_raw(tmp_path, days=1)
    out = tmp_path / "out"
    assert cli.main(["run", "--input", str(raw), "--output-dir", str(out)]) == 0
    scores = out / "scores.tsv"
    header, *rows = scores.read_text().splitlines(keepends=True)
    assert sorted(rows) != rows
    scores.write_text(header + "".join(sorted(rows)))
    capsys.readouterr()
    assert cli.main(["report", "--scores", str(scores), "--output", str(tmp_path / "r")]) == 50
    assert f"report stage failed: {scores}:2: rank " in capsys.readouterr().err


def test_report_rejects_scores_sorted_by_time_with_ranks_renumbered(tmp_path, capsys):
    # ranks in place, but the report would name the 1-bit hour as the top anomaly
    scores = tmp_path / "scores.tsv"
    scores.write_text(
        "timestamp\tPB\tscore_bits\trank\tcover\n"
        "2016-08-22T10:00\t1\t1.000000000\t1\tPB:1\n"
        "2016-08-22T11:00\t2\t4.000000000\t2\tPB:2\n"
    )
    report_args = ["report", "--scores", str(scores), "--output", str(tmp_path / "r")]
    assert cli.main(report_args + ["--top-k", "1"]) == 50
    assert f"report stage failed: {scores}:3: score 4.0 above" in capsys.readouterr().err


def test_staged_compress_names_a_stamp_with_a_utc_offset(tmp_path, capsys):
    # such a row used to pass compress, then fail score with a TypeError naming no line
    raw = make_raw(tmp_path, days=1)
    txns = tmp_path / "transactions.csv"
    assert cli.main(["discretize", "--input", str(raw), "--output", str(txns)]) == 0
    lines = txns.read_text().splitlines(keepends=True)
    lines[3] = lines[3].replace(",", "+02:00,", 1)
    txns.write_text("".join(lines))
    capsys.readouterr()
    table, log = str(tmp_path / "table.tsv"), str(tmp_path / "log.tsv")
    assert cli.main(
        ["compress", "--transactions", str(txns), "--table-out", table, "--log-out", log]
    ) == 30
    err = capsys.readouterr().err
    stamp = lines[3].partition(",")[0]
    reason = f"{txns}:4: bad hour '{stamp}' (expected YYYY-MM-DDTHH:00)"
    assert f"compress stage failed: {reason}" in err


def test_each_database_is_collapsed_once(tmp_path, monkeypatch):
    # mine, compress and score are handed one collapsed database, not the
    # hours: ingest collapses them where it builds or reads the database
    collapses = []

    class Counted(ingest.DistinctRows):
        def __init__(self, hours, items):
            collapses.append(len(hours))
            super().__init__(hours, items)

    monkeypatch.setattr(ingest, "DistinctRows", Counted)
    raw, out = make_raw(tmp_path), tmp_path / "out"
    txns = str(out / "transactions.csv")
    commands = {
        "run": ["run", "--input", str(raw), "--output-dir", str(out)],
        "mine": ["mine", "--transactions", txns, "--output", str(tmp_path / "itemsets.tsv")],
        "compress": ["compress", "--transactions", txns, "--table-out", str(tmp_path / "table"),
                     "--log-out", str(tmp_path / "log.tsv")],
        "score": ["score", "--transactions", txns, "--table", str(out / "pattern_table.tsv"),
                  "--output", str(tmp_path / "scores.tsv")],
    }
    counts = {}
    for name, argv in commands.items():
        collapses.clear()
        assert cli.main(argv) == 0
        counts[name] = len(collapses)
    assert counts == dict.fromkeys(commands, 1)


def test_only_scoring_spreads_a_sweep_into_per_row_covers(tmp_path, monkeypatch):
    # compress settles and measures every trial on taken-row masks; score_all
    # spreads its one cover pass into per-row parts, to write them out
    expansions = []
    expand = codec._expand

    def counted(*args):
        expansions.append(args)
        return expand(*args)

    monkeypatch.setattr(codec, "_expand", counted)
    raw, out = make_raw(tmp_path), tmp_path / "out"
    txns = str(out / "transactions.csv")
    commands = {
        "run": ["run", "--input", str(raw), "--output-dir", str(out)],
        "compress": ["compress", "--transactions", txns, "--table-out", str(tmp_path / "table"),
                     "--log-out", str(tmp_path / "log.tsv")],
        "score": ["score", "--transactions", txns, "--table", str(out / "pattern_table.tsv"),
                  "--output", str(tmp_path / "scores.tsv")],
    }
    counts = {}
    for name, argv in commands.items():
        expansions.clear()
        assert cli.main(argv) == 0
        counts[name] = len(expansions)
    assert counts == {"run": 1, "compress": 0, "score": 1}


def test_staged_score_ranks_equal_scores_by_time_on_a_file_out_of_time_order(tmp_path):
    # The database sorts its hours, and score_all ranks them by one stable
    # sort on their row's score, so equal scores keep time order: 03:00
    # (PB:1,LQ:2) and 04:00 (PB:2,LQ:1) tie across two rows, and the 1,1
    # row's hours come as 05:00, 02:00, 01:00.
    txns = tmp_path / "transactions.csv"
    txns.write_text(
        "timestamp,PB,LQ\n2016-08-22T05:00,1,1\n2016-08-22T02:00,1,1\n"
        "2016-08-22T04:00,2,1\n2016-08-22T03:00,1,2\n2016-08-22T01:00,1,1\n"
    )
    table, scores = str(tmp_path / "table.tsv"), tmp_path / "scores.tsv"
    compress = ["compress", "--transactions", str(txns), "--table-out", table,
                "--log-out", str(tmp_path / "log.tsv"), "--threshold", "5"]  # singletons only
    assert cli.main(compress) == 0
    score = ["score", "--transactions", str(txns), "--table", table, "--output", str(scores)]
    assert cli.main(score) == 0
    rows = [line.split("\t") for line in scores.read_text().splitlines()[1:]]
    assert [(row[0][-5:], row[-3], row[-2]) for row in rows] == [
        ("03:00", "4.643856190", "1"), ("04:00", "4.643856190", "2"),
        ("01:00", "2.643856190", "3"), ("02:00", "2.643856190", "4"),
        ("05:00", "2.643856190", "5"),
    ]


def test_staged_subcommands_read_what_run_writes_for_a_year_before_1000(tmp_path):
    # strftime("%Y") wrote the year as 999, and fromisoformat rejected it
    waits = {"PB": [0, 0, 20, 0, 0, 45], "LQ": [10, 10, 20, 10, 10, 45], "RB": [0] * 6}
    rows = [
        f"0999-01-01T{hour:02d}:10,{site},ToCanada,Car,{minutes[hour]}\n"
        for hour in range(6) for site, minutes in waits.items()
    ]
    raw = tmp_path / "raw.csv"
    raw.write_text("timestamp,site,direction,vehicle_class,wait_minutes\n" + "".join(rows))
    out, staged = tmp_path / "out", tmp_path / "staged"
    run = ["run", "--input", str(raw), "--output-dir", str(out)]
    assert cli.main(run + ["--threshold", "2"]) == 0
    txns, table = str(out / "transactions.csv"), str(out / "pattern_table.tsv")
    assert (out / "transactions.csv").read_text().splitlines()[1] == "0999-01-01T00:00,1,2,1"
    staged.mkdir()
    mine = ["mine", "--transactions", txns, "--output", str(staged / "itemsets.tsv")]
    assert cli.main(mine + ["--threshold", "2"]) == 0
    score = ["score", "--transactions", txns, "--table", table]
    assert cli.main(score + ["--output", str(staged / "scores.tsv")]) == 0
    report = ["report", "--scores", str(staged / "scores.tsv")]
    assert cli.main(report + ["--output", str(staged / "report.txt")]) == 0
    for name in ("itemsets.tsv", "scores.tsv", "report.txt"):
        assert (staged / name).read_bytes() == (out / name).read_bytes()


# --- logging ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "config_level, flags, warned",
    [
        (None, [], True),
        (None, ["--log-level", "ERROR"], False),
        ("ERROR", [], False),
        ("ERROR", ["--log-level", "warning"], True),  # the flag overrides the file
    ],
    ids=["default", "flag", "config", "flag-over-config"],
)
def test_run_log_level_filters_ingest_warnings(tmp_path, config_level, flags, warned):
    raw = make_raw(tmp_path, days=1)
    with open(raw, "a", encoding="utf-8") as fh:
        fh.write("garbage,PB,ToCanada,Car,5\n")
    config = {"input": str(raw), "output_dir": str(tmp_path / "out")}
    if config_level is not None:
        config["log_level"] = config_level
    (tmp_path / "run.json").write_text(json.dumps(config))
    proc = subprocess.run(
        [sys.executable, "-m", "mdlpatterns.cli", "run", "--config", str(tmp_path / "run.json")]
        + flags,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    warning = "WARNING:mdlpatterns:ingest: row 602: bad timestamp 'garbage'"
    assert (warning in proc.stderr) is warned, proc.stderr


BAD_ROW_WARNING = "WARNING:mdlpatterns:ingest: row 602: bad timestamp 'garbage'\n"


def raw_with_bad_row(tmp_path):
    """A one-day feed whose last row ingest rejects with BAD_ROW_WARNING."""
    raw = make_raw(tmp_path, days=1)
    with open(raw, "a", encoding="utf-8") as fh:
        fh.write("garbage,PB,ToCanada,Car,5\n")
    return raw


@pytest.mark.parametrize(
    "level, warned",
    [("notset", True), ("Debug", True), ("iNFO", True), ("warn", True), ("Warning", True),
     ("error", False), ("Critical", False), ("FATAL", False)],
)
def test_ingest_warnings_show_below_error(tmp_path, capsys, level, warned):
    raw = raw_with_bad_row(tmp_path)
    handlers = list(logging.getLogger().handlers)
    capsys.readouterr()
    argv = ["run", "--input", str(raw), "--output-dir", str(tmp_path / "out")]
    assert cli.main(argv + ["--log-level", level]) == 0
    assert capsys.readouterr().err == (BAD_ROW_WARNING if warned else "")
    # The CLI prints its warnings itself: a host process's root logger is left alone.
    assert logging.getLogger().handlers == handlers


def test_discretize_shows_ingest_warnings(tmp_path, capsys):
    raw = raw_with_bad_row(tmp_path)
    capsys.readouterr()
    assert cli.main(["discretize", "--input", str(raw), "--output", str(tmp_path / "t.csv")]) == 0
    assert capsys.readouterr().err == BAD_ROW_WARNING


# --- determinism across interpreter processes ------------------------------------------


def test_pipeline_is_stable_across_hash_seeds(tmp_path):
    """Artifacts must not depend on set or dict iteration order."""
    raw = make_raw(tmp_path, days=2)
    outputs = []
    for hash_seed, out_name in (("1", "out_a"), ("271828", "out_b")):
        out = tmp_path / out_name
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "mdlpatterns.cli",
                "run",
                "--input",
                str(raw),
                "--output-dir",
                str(out),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(
            {
                name: (out / name).read_bytes()
                for name in ARTIFACTS
                if name != "config.json"  # embeds the differing output path
            }
        )
    assert outputs[0] == outputs[1]
