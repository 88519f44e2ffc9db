"""The benchmark's tracer finds program functions by (module, attribute) name.

``perfbench/tracer.py`` wraps each name in ``TARGETS`` when a run is traced.
Some are bindings the pipeline itself no longer calls, such as
``codec.frequent_itemsets``; deleting one as unused would break
``perfbench/run.py --trace 1``, so each must still resolve. Its count hooks
read fields of what the wrapped functions return, so one traced ``run``
checks that those fields still hold the counts, and a traced staged score
and report check that the rescore chain's layers are timed.
"""

import importlib
import importlib.util
from pathlib import Path

from feed_oracle import parse_records_oracle
from mdlpatterns import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _install(monkeypatch):
    """Install the tracer, its wrappers undone after the test."""
    tracer = _load_tracer()
    for module, attr, _ in tracer.TARGETS:
        # re-setting the current value makes monkeypatch restore it after the test
        target = importlib.import_module(f"mdlpatterns.{module}")
        monkeypatch.setattr(target, attr, getattr(target, attr))
    return tracer.install()


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"mdlpatterns.{module}"), attr, None))
    ]
    assert tracer.TARGETS and not missing


def test_traced_run_counts_each_stage(tmp_path, monkeypatch):
    raw, manifest = tmp_path / "raw.csv", tmp_path / "manifest.tsv"
    synth_args = ["--seed", "7", "--days", "3", "--output", str(raw), "--manifest", str(manifest)]
    assert cli.main(["synth", *synth_args]) == 0
    traced = _install(monkeypatch)
    assert cli.main(["run", "--input", str(raw), "--output-dir", str(tmp_path / "out")]) == 0
    metrics = traced.metrics()
    with open(raw, encoding="utf-8") as fh:
        oracle = parse_records_oracle(fh)
    assert metrics["ingest.records"] == len(oracle.records)
    assert metrics["ingest.rows_rejected"] == oracle.rejected_rows
    assert metrics["ingest.hours_excluded"] == 0
    assert metrics["ingest.hours"] == 72
    assert metrics["mining.calls"] == 1
    assert metrics["mining.itemsets"] > 0
    assert metrics["codec.trials"] == metrics["mining.itemsets"]
    # build_transactions calls aggregate_hourly, and both stay timed
    for name in ("ingest.aggregate_s", "ingest.build_s"):
        assert metrics[name] > 0, name


def test_traced_staged_score_and_report_time_each_layer(tmp_path, monkeypatch):
    # the rescore chain: the staged score, then report, on what run wrote
    raw, manifest = tmp_path / "raw.csv", tmp_path / "manifest.tsv"
    synth_args = ["--seed", "7", "--days", "3", "--output", str(raw), "--manifest", str(manifest)]
    assert cli.main(["synth", *synth_args]) == 0
    out = tmp_path / "out"
    assert cli.main(["run", "--input", str(raw), "--output-dir", str(out)]) == 0
    traced = _install(monkeypatch)
    scores = str(tmp_path / "scores.tsv")
    assert cli.main(["score", "--transactions", str(out / "transactions.csv"),
                     "--table", str(out / "pattern_table.tsv"), "--output", scores]) == 0
    assert cli.main(["report", "--scores", scores, "--output", str(tmp_path / "report.txt")]) == 0
    metrics = traced.metrics()
    for name in ("anomaly.score_s", "anomaly.io_s", "anomaly.report_s", "ingest.io_s"):
        assert metrics[name] > 0, name
