"""Command-line front end wiring the pipeline end to end.

Subcommands mirror the pipeline stages (discretize, mine, compress, score,
report), plus `run` for the whole chain and `synth` for the seeded test-data
generator. Each stage is one function here, called both by `run` and by its
staged subcommand, so chaining the stages reproduces `run`. `run` writes every
stage artifact into the output directory along with the resolved
configuration, so a run can be reproduced exactly: identical config and input
produce byte-identical artifacts.

Stage failures exit with a distinct code: ingest 10, mine 20, compress 30,
score 40, report 50.

Ingest's diagnostics go to stderr as `WARNING:mdlpatterns:ingest: ...` lines
unless `log_level` is ERROR, CRITICAL or FATAL. No command's start-up imports
`logging` or `pathlib`; `json` is imported where `run` reads or writes a config.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import contextmanager
from typing import Iterator, NamedTuple

from . import anomaly, codec, ingest, mining, synth

STAGE_EXIT_CODES = {"ingest": 10, "mine": 20, "compress": 30, "score": 40, "report": 50}
# The logging module's level names; ingest warnings show below ERROR.
LOG_LEVELS = ("NOTSET", "DEBUG", "INFO", "WARN", "WARNING", "ERROR", "CRITICAL", "FATAL")


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage} stage failed: {cause}")
        self.stage = stage
        self.exit_code = STAGE_EXIT_CODES.get(stage, 1)


class RunConfig(NamedTuple):
    """Everything a full pipeline run depends on."""

    input: str
    attributes: list[str] = ["PB", "LQ", "RB"]  # shared by every config; never mutated
    direction: str = "ToCanada"
    vehicle_class: str = "Car"
    threshold: str = "0.05"  # integer string = absolute count, else fraction
    threshold_minimum: int = 2
    threshold_inclusive: bool = True
    top_fraction: float = 0.05
    top_k: int = 3
    output_dir: str = "out"
    log_level: str = "INFO"
    delimiter: str = ","

    def validate(self) -> None:
        # A value must have its default's exact type (so true is no int) or one listed here.
        numeric = {"threshold": (str, int, float), "top_fraction": (int, float)}
        for name, default in RunConfig(input="")._asdict().items():
            kinds, value = numeric.get(name, (type(default),)), getattr(self, name)
            if type(value) not in kinds:
                expected = " or ".join(kind.__name__ for kind in kinds)
                raise ValueError(f"{name} must be {expected}, got {value!r}")
        if not all(type(name) is str for name in self.attributes):
            raise ValueError(f"attributes must be site names (str), got {self.attributes!r}")
        if not self.attributes or len(set(self.attributes) - {""}) < len(self.attributes):
            raise ValueError(f"attributes must be distinct nonempty names, got {self.attributes!r}")
        if self.log_level.upper() not in LOG_LEVELS:
            raise ValueError(f"Unknown level: {self.log_level.upper()!r}")
        if not 0 < self.top_fraction <= 1:
            raise ValueError(f"top_fraction must be in (0, 1], got {self.top_fraction}")
        if self.top_k < 0:
            raise ValueError(f"top_k must be >= 0, got {self.top_k}")
        # raises on a bad threshold, whatever the number of hours
        mining.least_support(self.threshold, 0, self.threshold_minimum, self.threshold_inclusive)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        import json

        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or "input" not in data:
            raise ValueError(f"config {path} must be a JSON object with an 'input' key")
        unknown = set(data) - set(cls._fields)
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        return cls(**data)


def run_pipeline(config: RunConfig) -> int:
    """Execute ingest -> mine -> compress -> score -> report, writing artifacts.

    Returns 0 on success. Raises StageError naming the failed stage.
    """
    import json

    config.validate()
    os.makedirs(config.output_dir or os.curdir, exist_ok=True)  # "" is the working directory
    out = functools.partial(os.path.join, config.output_dir)
    with open(out("config.json"), "w", encoding="utf-8", newline="") as fh:
        json.dump(config._asdict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    db = _ingest(config, out("transactions.csv"))
    least = mining.least_support(
        config.threshold, len(db), config.threshold_minimum, config.threshold_inclusive
    )
    itemsets = _mine(db, least, out("itemsets.tsv"))
    result = _compress(db, itemsets, out("pattern_table.tsv"), out("acceptance_log.tsv"))
    ranking = _score(db, result.table, config.attributes, out("scores.tsv"))
    _report(ranking, config.top_fraction, config.top_k, out("report.txt"))

    print(f"transactions: {len(db)}")
    print(f"initial_length_bits: {result.initial_length:.9f}")
    print(f"final_length_bits: {result.final_length:.9f}")
    print(f"compression_ratio: {result.compression_ratio:.9f}")
    stamp, top = ingest.hour_text(ranking.hours[0]), ranking.bits[ranking.index[0]]
    print(f"top_anomaly: {stamp} score_bits={top:.9f}")
    return 0


# --- stages: one function each, shared by `run` and the staged subcommands ------


@contextmanager
def _stage(name: str) -> Iterator[None]:
    """Turn any failure inside into stage `name`'s StageError; also a decorator."""
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc)


@_stage("ingest")
def _ingest(config: RunConfig, output: str) -> ingest.DistinctRows:
    """Raw records -> the database of categorized complete hours."""
    direction = ingest.canonical(config.direction, ingest.DIRECTIONS, "direction")
    vehicle_class = ingest.canonical(config.vehicle_class, ingest.VEHICLE_CLASSES, "vehicle class")
    warn = LOG_LEVELS.index(config.log_level.upper()) < LOG_LEVELS.index("ERROR")
    with open(config.input, "r", encoding="utf-8") as fh:
        parsed = ingest.parse_records(fh, delimiter=config.delimiter)
    for diag in parsed.diagnostics if warn else ():
        print(f"WARNING:mdlpatterns:ingest: {diag}", file=sys.stderr)
    hourly = ingest.aggregate_hourly(parsed)
    build = ingest.build_transactions(hourly, config.attributes, direction, vehicle_class)
    if not build.transactions:
        raise ingest.IngestError(
            f"no complete hours for the configured attributes "
            f"({len(build.excluded_hours)} hour(s) excluded)"
        )
    if warn and build.excluded_hours:
        print(f"WARNING:mdlpatterns:ingest: excluded {len(build.excluded_hours)} incomplete "
              "hour(s)", file=sys.stderr)
    ingest.write_transactions(output, build.transactions, config.attributes)
    return build.transactions


@_stage("mine")
def _mine(db: ingest.DistinctRows, least: int, output: str) -> dict[frozenset[ingest.Item], int]:
    itemsets = mining.frequent_itemsets(db, least)
    mining.write_itemsets(output, itemsets)
    return itemsets


@_stage("compress")
def _compress(
    db: ingest.DistinctRows, candidates: dict[frozenset[ingest.Item], int],
    table_out: str, log_out: str,
) -> codec.CompressionResult:
    result = codec.compress(db, candidates)
    codec.write_pattern_table(table_out, result.table)
    codec.write_acceptance_log(log_out, result)
    return result


@_stage("score")
def _score(
    db: ingest.DistinctRows, table: codec.PatternTable, attributes: list[str], output: str
) -> anomaly.Ranking:
    ranking = anomaly.score_all(db, table)
    anomaly.write_scores(output, ranking, attributes)
    return ranking


@_stage("report")
def _report(ranking: anomaly.Ranking, fraction: float, top_k: int, output: str) -> None:
    document = anomaly.report(ranking, fraction, min(top_k, len(ranking.hours)))
    with open(output, "w", encoding="utf-8", newline="") as fh:
        fh.write(document)


# --- subcommand handlers -----------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    if args.config:
        config = RunConfig.from_file(args.config)
    elif args.input:
        config = RunConfig(input=args.input)
    else:
        print("run: --input is required when no --config is given", file=sys.stderr)
        return 2
    flags = {name: getattr(args, name, None) for name in config._fields}
    config = config._replace(**{name: value for name, value in flags.items() if value is not None})
    return run_pipeline(config)


def _cmd_discretize(args: argparse.Namespace) -> int:
    config = RunConfig(
        input=args.input, attributes=args.attributes, direction=args.direction,
        vehicle_class=args.vehicle_class, delimiter=args.delimiter,
    )
    db = _ingest(config, args.output)
    print(f"wrote {len(db)} transaction(s) to {args.output}")
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    with _stage("mine"):
        db, _ = ingest.read_transactions(args.transactions)
        least = mining.least_support(args.threshold, len(db), args.threshold_minimum)
    itemsets = _mine(db, least, args.output)
    print(f"wrote {len(itemsets)} itemset(s) to {args.output}")
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    with _stage("compress"):
        db, _ = ingest.read_transactions(args.transactions)
        least = mining.least_support(args.threshold, len(db), args.threshold_minimum)
        candidates = mining.frequent_itemsets(db, least)
    result = _compress(db, candidates, args.table_out, args.log_out)
    print(
        f"initial {result.initial_length:.3f} bits, final {result.final_length:.3f} "
        f"bits ({len([r for r in result.log if r.accepted])} pattern(s) accepted)"
    )
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    with _stage("score"):
        db, attributes = ingest.read_transactions(args.transactions)
        table = codec.read_pattern_table(args.table)
    ranking = _score(db, table, attributes, args.output)
    print(f"wrote {len(ranking.hours)} score(s) to {args.output}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    with _stage("report"):
        ranking, _ = anomaly.read_scores(args.scores)
    _report(ranking, args.top_fraction, args.top_k, args.output)
    print(f"wrote report to {args.output}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    dataset = synth.generate_synthetic(
        seed=args.seed,
        days=args.days,
        dominance=args.dominance,
        anomalies=args.anomalies,
        regime=args.regime,
        direction=args.direction,
        vehicle_class=args.vehicle_class,
    )
    synth.write_records_csv(args.output, dataset.records)
    synth.write_manifest(args.manifest, dataset.injected_hours)
    print(
        f"wrote {len(dataset.records)} record(s) to {args.output}, "
        f"{len(dataset.injected_hours)} injected hour(s) to {args.manifest}"
    )
    return 0


def _split_attrs(text: str) -> list[str]:
    return [a.strip() for a in text.split(",") if a.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdlpatterns",
        description=(
            "Detect abnormal multi-site wait-time patterns by dictionary "
            "compression: categorize hourly means, mine frequent itemsets, "
            "build a minimal pattern table, and rank hours by code length."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = RunConfig(input="")  # what an unset staged option means

    run = sub.add_parser("run", help="full pipeline: ingest through report")
    run.add_argument("--config", help="JSON config file (flags override it)")
    run.add_argument("--input", help="raw records file")
    run.add_argument(
        "--attributes", type=_split_attrs, help="comma-separated site order, e.g. PB,LQ,RB"
    )
    run.add_argument("--direction", help="ToUS or ToCanada")
    run.add_argument("--vehicle-class", dest="vehicle_class", help="Car or Truck")
    run.add_argument("--threshold", help="absolute count or fraction, e.g. 2 or 0.05")
    run.add_argument("--top-fraction", dest="top_fraction", type=float)
    run.add_argument("--top-k", dest="top_k", type=int)
    run.add_argument("--output-dir", dest="output_dir")
    run.add_argument("--log-level", dest="log_level")
    run.add_argument("--delimiter")
    run.set_defaults(handler=_cmd_run)

    disc = sub.add_parser("discretize", help="raw records -> hourly transaction file")
    disc.add_argument("--input", required=True)
    disc.add_argument("--output", required=True)
    disc.add_argument("--attributes", type=_split_attrs, default=defaults.attributes)
    disc.add_argument("--direction", default=defaults.direction)
    disc.add_argument("--vehicle-class", dest="vehicle_class", default=defaults.vehicle_class)
    disc.add_argument("--delimiter", default=defaults.delimiter)
    disc.set_defaults(handler=_cmd_discretize)

    mine = sub.add_parser("mine", help="transaction file -> frequent itemsets")
    mine.add_argument("--transactions", required=True)
    mine.add_argument("--output", required=True)
    mine.add_argument("--threshold", default=defaults.threshold)
    mine.add_argument("--threshold-minimum", type=int, default=defaults.threshold_minimum)
    mine.set_defaults(handler=_cmd_mine)

    comp = sub.add_parser("compress", help="transaction file -> pattern table + log")
    comp.add_argument("--transactions", required=True)
    comp.add_argument("--table-out", dest="table_out", required=True)
    comp.add_argument("--log-out", dest="log_out", required=True)
    comp.add_argument("--threshold", default=defaults.threshold)
    comp.add_argument("--threshold-minimum", type=int, default=defaults.threshold_minimum)
    comp.set_defaults(handler=_cmd_compress)

    score = sub.add_parser("score", help="transactions + pattern table -> scores")
    score.add_argument("--transactions", required=True)
    score.add_argument("--table", required=True)
    score.add_argument("--output", required=True)
    score.set_defaults(handler=_cmd_score)

    rep = sub.add_parser("report", help="scores -> structured-text report")
    rep.add_argument("--scores", required=True)
    rep.add_argument("--output", required=True)
    rep.add_argument("--top-k", type=int, default=defaults.top_k)
    rep.add_argument("--top-fraction", type=float, default=defaults.top_fraction)
    rep.set_defaults(handler=_cmd_report)

    syn = sub.add_parser("synth", help="seeded synthetic records + injection manifest")
    syn.add_argument("--seed", type=int, required=True)
    syn.add_argument("--days", type=int, default=30)
    syn.add_argument("--output", required=True, help="records CSV path")
    syn.add_argument("--manifest", required=True, help="injected-hours manifest path")
    syn.add_argument("--dominance", type=float, default=0.95)
    syn.add_argument("--anomalies", type=int, default=20)
    syn.add_argument("--regime", default="daily", choices=sorted(synth.REGIMES))
    syn.add_argument("--direction", default=defaults.direction)
    syn.add_argument("--vehicle-class", dest="vehicle_class", default=defaults.vehicle_class)
    syn.set_defaults(handler=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (StageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)


if __name__ == "__main__":
    sys.exit(main())
