"""Command-line interface: config handling, staged runs, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

from mdlpatterns import cli
from mdlpatterns.cli import RunConfig, parse_threshold, run_pipeline

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


def test_parse_threshold_absolute():
    threshold = parse_threshold("12")
    assert threshold.count == 12
    assert threshold.fraction is None


def test_parse_threshold_fractional():
    assert parse_threshold("0.05").fraction == 0.05
    assert parse_threshold("1e-2").fraction == 0.01


def test_parse_threshold_carries_options():
    threshold = parse_threshold("3", minimum=2, inclusive=False)
    assert threshold.minimum == 2
    assert not threshold.inclusive


def test_parse_threshold_rejects_garbage():
    with pytest.raises(ValueError, match="bad threshold"):
        parse_threshold("five")


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
    with pytest.raises(ValueError, match="attributes"):
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
        (["raw.csv"], "JSON object"),
        ({"top_k": 3}, "'input' key"),
    ]:
        path.write_text(json.dumps(data))
        assert cli.main(["run", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err


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
    assert cli.main(args + ["--attributes", ""]) == 10
    assert "attribute list must be nonempty" in capsys.readouterr().err


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
    raw = make_raw(tmp_path, days=1)
    txns = tmp_path / "transactions.csv"
    assert cli.main(["discretize", "--input", str(raw), "--output", str(txns)]) == 0
    code = cli.main(
        [
            "compress",
            "--transactions",
            str(txns),
            "--table-out",
            str(tmp_path / "t.tsv"),
            "--log-out",
            str(tmp_path / "l.tsv"),
            "--threshold",
            "zero",
        ]
    )
    assert code == 30


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
    # A negative top-k is a report failure too, as `run` rejects it.
    raw = make_raw(tmp_path, days=1)
    out = tmp_path / "out"
    assert cli.main(["run", "--input", str(raw), "--output-dir", str(out)]) == 0
    report_args = ["report", "--scores", str(out / "scores.tsv"), "--output", str(tmp_path / "r")]
    assert cli.main(report_args + ["--top-k", "-1"]) == 50


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
    assert f"report stage failed: {scores}:3: Invalid isoformat string: 'notadate'" in err


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
