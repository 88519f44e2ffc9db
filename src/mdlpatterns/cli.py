"""Command-line front end wiring the pipeline end to end.

Subcommands mirror the pipeline stages (discretize, mine, compress, score,
report), plus `run` for the whole chain and `synth` for the seeded test-data
generator. `run` writes every stage artifact into the output directory along
with the resolved configuration, so a run can be reproduced exactly:
identical config and input produce byte-identical artifacts.

Stage failures exit with a distinct code: ingest 10, mine 20, compress 30,
score 40, report 50.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import anomaly, codec, ingest, mining, synth

log = logging.getLogger("mdlpatterns")

STAGE_EXIT_CODES = {
    "ingest": 10,
    "mine": 20,
    "compress": 30,
    "score": 40,
    "report": 50,
}


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage} stage failed: {cause}")
        self.stage = stage
        self.exit_code = STAGE_EXIT_CODES.get(stage, 1)


@dataclass
class RunConfig:
    """Everything a full pipeline run depends on."""

    input: str
    attributes: list[str] = field(default_factory=lambda: ["PB", "LQ", "RB"])
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
        if not self.attributes:
            raise ValueError("attributes must be nonempty")
        if not 0 < self.top_fraction <= 1:
            raise ValueError(f"top_fraction must be in (0, 1], got {self.top_fraction}")
        if self.top_k < 0:
            raise ValueError(f"top_k must be >= 0, got {self.top_k}")
        self.support_threshold()  # raises on a bad threshold string

    def support_threshold(self) -> mining.SupportThreshold:
        return parse_threshold(
            self.threshold,
            minimum=self.threshold_minimum,
            inclusive=self.threshold_inclusive,
        )

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        unknown = set(data) - {f.name for f in cls.__dataclass_fields__.values()}
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        return cls(**data)


def parse_threshold(
    text: str, minimum: int = 1, inclusive: bool = True
) -> mining.SupportThreshold:
    """"12" is an absolute count; "0.05" is a fraction of the database size."""
    text = str(text).strip()
    try:
        if "." in text or "e" in text.lower():
            return mining.SupportThreshold(
                fraction=float(text), minimum=minimum, inclusive=inclusive
            )
        return mining.SupportThreshold(
            count=int(text), minimum=minimum, inclusive=inclusive
        )
    except ValueError as exc:
        raise ValueError(f"bad threshold {text!r}: {exc}")


def run_pipeline(config: RunConfig) -> int:
    """Execute ingest -> mine -> compress -> score -> report, writing artifacts.

    Returns 0 on success. Raises StageError naming the failed stage.
    """
    config.validate()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.json", "w", encoding="utf-8", newline="") as fh:
        json.dump(asdict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")

    direction = ingest.Direction.parse(config.direction)
    vehicle_class = ingest.VehicleClass.parse(config.vehicle_class)

    # ingest
    try:
        with open(config.input, "r", encoding="utf-8") as fh:
            parsed = ingest.parse_records(fh, delimiter=config.delimiter)
        for diag in parsed.diagnostics:
            log.warning("ingest: %s", diag)
        hourly = ingest.aggregate_hourly(parsed.records)
        build = ingest.build_transactions(
            hourly, config.attributes, direction, vehicle_class
        )
        if not build.transactions:
            raise ingest.IngestError(
                f"no complete hours for the configured attributes "
                f"({len(build.excluded_hours)} hour(s) excluded)"
            )
        if build.excluded_hours:
            log.warning(
                "ingest: excluded %d incomplete hour(s)", len(build.excluded_hours)
            )
        transactions = build.transactions
        ingest.write_transactions(
            str(out / "transactions.csv"), transactions, config.attributes
        )
    except StageError:
        raise
    except Exception as exc:
        raise StageError("ingest", exc)

    threshold = config.support_threshold()

    # mine
    try:
        itemsets = mining.frequent_itemsets(transactions, threshold)
        mining.write_itemsets(str(out / "itemsets.tsv"), itemsets)
    except Exception as exc:
        raise StageError("mine", exc)

    # compress
    try:
        result = codec.compress(transactions, itemsets)
        codec.write_pattern_table(str(out / "pattern_table.tsv"), result.table)
        codec.write_acceptance_log(str(out / "acceptance_log.tsv"), result)
    except Exception as exc:
        raise StageError("compress", exc)

    # score
    try:
        scored = anomaly.score_all(transactions, result.table)
        anomaly.write_scores(str(out / "scores.tsv"), scored, config.attributes)
    except Exception as exc:
        raise StageError("score", exc)

    # report
    try:
        selected = anomaly.top_fraction(scored, config.top_fraction)
        histogram = anomaly.hour_frequency(selected)
        k = min(config.top_k, len(scored))
        document = anomaly.report(scored, selected, histogram, k)
        with open(out / "report.txt", "w", encoding="utf-8", newline="") as fh:
            fh.write(document)
    except Exception as exc:
        raise StageError("report", exc)

    top = scored[0]
    print(f"transactions: {len(transactions)}")
    print(f"initial_length_bits: {result.initial_length:.9f}")
    print(f"final_length_bits: {result.final_length:.9f}")
    print(f"compression_ratio: {result.compression_ratio:.9f}")
    print(
        "top_anomaly: "
        f"{top.transaction.timestamp.strftime('%Y-%m-%dT%H:%M')} "
        f"score_bits={top.score:.9f}"
    )
    return 0


# --- subcommand handlers -----------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    if args.config:
        config = RunConfig.from_file(args.config)
    else:
        if not args.input:
            print("run: --input is required when no --config is given", file=sys.stderr)
            return 2
        config = RunConfig(input=args.input)
    overrides = {
        "input": args.input,
        "attributes": _split_attrs(args.attributes),
        "direction": args.direction,
        "vehicle_class": args.vehicle_class,
        "threshold": args.threshold,
        "top_fraction": args.top_fraction,
        "top_k": args.top_k,
        "output_dir": args.output_dir,
        "log_level": args.log_level,
        "delimiter": args.delimiter,
    }
    for name, value in overrides.items():
        if value is not None:
            setattr(config, name, value)
    logging.basicConfig(level=config.log_level.upper(), stream=sys.stderr)
    return run_pipeline(config)


def _cmd_discretize(args: argparse.Namespace) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            parsed = ingest.parse_records(fh, delimiter=args.delimiter)
        for diag in parsed.diagnostics:
            log.warning("ingest: %s", diag)
        hourly = ingest.aggregate_hourly(parsed.records)
        build = ingest.build_transactions(
            hourly,
            _split_attrs(args.attributes) or ["PB", "LQ", "RB"],
            ingest.Direction.parse(args.direction),
            ingest.VehicleClass.parse(args.vehicle_class),
        )
        if build.excluded_hours:
            log.warning("excluded %d incomplete hour(s)", len(build.excluded_hours))
        ingest.write_transactions(
            args.output,
            build.transactions,
            _split_attrs(args.attributes) or ["PB", "LQ", "RB"],
        )
    except Exception as exc:
        raise StageError("ingest", exc)
    print(f"wrote {len(build.transactions)} transaction(s) to {args.output}")
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    try:
        transactions, _ = ingest.read_transactions(args.transactions)
        threshold = parse_threshold(
            args.threshold, minimum=args.threshold_minimum
        )
        itemsets = mining.frequent_itemsets(transactions, threshold)
        mining.write_itemsets(args.output, itemsets)
    except Exception as exc:
        raise StageError("mine", exc)
    print(f"wrote {len(itemsets)} itemset(s) to {args.output}")
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    try:
        transactions, _ = ingest.read_transactions(args.transactions)
        threshold = parse_threshold(
            args.threshold, minimum=args.threshold_minimum
        )
        candidates = mining.frequent_itemsets(transactions, threshold)
        result = codec.compress(transactions, candidates)
        codec.write_pattern_table(args.table_out, result.table)
        codec.write_acceptance_log(args.log_out, result)
    except Exception as exc:
        raise StageError("compress", exc)
    print(
        f"initial {result.initial_length:.3f} bits, final {result.final_length:.3f} "
        f"bits ({len([r for r in result.log if r.accepted])} pattern(s) accepted)"
    )
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    try:
        transactions, attributes = ingest.read_transactions(args.transactions)
        table = codec.read_pattern_table(args.table)
        scored = anomaly.score_all(transactions, table)
        anomaly.write_scores(args.output, scored, attributes)
    except Exception as exc:
        raise StageError("score", exc)
    print(f"wrote {len(scored)} score(s) to {args.output}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        scored, _ = anomaly.read_scores(args.scores)
        selected = anomaly.top_fraction(scored, args.top_fraction)
        histogram = anomaly.hour_frequency(selected)
        k = min(args.top_k, len(scored))
        document = anomaly.report(scored, selected, histogram, k)
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(document)
    except Exception as exc:
        raise StageError("report", exc)
    print(f"wrote report to {args.output}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    dataset = synth.generate_synthetic(
        seed=args.seed,
        days=args.days,
        dominance=args.dominance,
        anomalies=args.anomalies,
        regime=args.regime,
        direction=ingest.Direction.parse(args.direction),
        vehicle_class=ingest.VehicleClass.parse(args.vehicle_class),
    )
    synth.write_records_csv(args.output, dataset.records)
    synth.write_manifest(args.manifest, dataset.injected_hours)
    print(
        f"wrote {len(dataset.records)} record(s) to {args.output}, "
        f"{len(dataset.injected_hours)} injected hour(s) to {args.manifest}"
    )
    return 0


def _split_attrs(text: str | None) -> list[str] | None:
    if text is None:
        return None
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

    run = sub.add_parser("run", help="full pipeline: ingest through report")
    run.add_argument("--config", help="JSON config file (flags override it)")
    run.add_argument("--input", help="raw records file")
    run.add_argument("--attributes", help="comma-separated site order, e.g. PB,LQ,RB")
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
    disc.add_argument("--attributes", help="comma-separated site order")
    disc.add_argument("--direction", default="ToCanada")
    disc.add_argument("--vehicle-class", dest="vehicle_class", default="Car")
    disc.add_argument("--delimiter", default=",")
    disc.set_defaults(handler=_cmd_discretize)

    mine = sub.add_parser("mine", help="transaction file -> frequent itemsets")
    mine.add_argument("--transactions", required=True)
    mine.add_argument("--output", required=True)
    mine.add_argument("--threshold", default="0.05")
    mine.add_argument("--threshold-minimum", dest="threshold_minimum", type=int, default=2)
    mine.set_defaults(handler=_cmd_mine)

    comp = sub.add_parser("compress", help="transaction file -> pattern table + log")
    comp.add_argument("--transactions", required=True)
    comp.add_argument("--table-out", dest="table_out", required=True)
    comp.add_argument("--log-out", dest="log_out", required=True)
    comp.add_argument("--threshold", default="0.05")
    comp.add_argument("--threshold-minimum", dest="threshold_minimum", type=int, default=2)
    comp.set_defaults(handler=_cmd_compress)

    score = sub.add_parser("score", help="transactions + pattern table -> scores")
    score.add_argument("--transactions", required=True)
    score.add_argument("--table", required=True)
    score.add_argument("--output", required=True)
    score.set_defaults(handler=_cmd_score)

    rep = sub.add_parser("report", help="scores -> structured-text report")
    rep.add_argument("--scores", required=True)
    rep.add_argument("--output", required=True)
    rep.add_argument("--top-k", dest="top_k", type=int, default=3)
    rep.add_argument("--top-fraction", dest="top_fraction", type=float, default=0.05)
    rep.set_defaults(handler=_cmd_report)

    syn = sub.add_parser("synth", help="seeded synthetic records + injection manifest")
    syn.add_argument("--seed", type=int, required=True)
    syn.add_argument("--days", type=int, default=30)
    syn.add_argument("--output", required=True, help="records CSV path")
    syn.add_argument("--manifest", required=True, help="injected-hours manifest path")
    syn.add_argument("--dominance", type=float, default=0.95)
    syn.add_argument("--anomalies", type=int, default=20)
    syn.add_argument("--regime", default="daily", choices=sorted(synth.REGIMES))
    syn.add_argument("--direction", default="ToCanada")
    syn.add_argument("--vehicle-class", dest="vehicle_class", default="Car")
    syn.set_defaults(handler=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.INFO, stream=sys.stderr)
    try:
        return args.handler(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
