"""Per-layer spans and counts, recorded by wrapping the program's public functions.

Nothing in the program is edited: ``install`` replaces module attributes with
timing wrappers. A name bound with ``from ... import`` is a second binding of
the same function, so it is wrapped where it is looked up (for example
``anomaly.cover_database`` beside ``codec.cover_database``).

Spans (name, start, end, parent) are kept in memory and written out after the
operation. A span's self time is its duration minus the time its child spans
cover; every ``*_s`` metric is a sum of self times, so together they add up
to the time spent inside ``cli.main``.
"""

from __future__ import annotations

import json
from time import perf_counter

# (module, attribute, span name); each span name becomes the metric <name>_s.
TARGETS = (
    ("cli", "main", "cli.self"),
    ("ingest", "parse_records", "ingest.parse"),
    ("ingest", "aggregate_hourly", "ingest.aggregate"),
    ("ingest", "build_transactions", "ingest.build"),
    ("ingest", "write_transactions", "ingest.io"),
    ("ingest", "read_transactions", "ingest.io"),
    ("mining", "frequent_itemsets", "mining.mine"),
    ("codec", "frequent_itemsets", "mining.mine"),
    ("mining", "write_itemsets", "mining.io"),
    ("mining", "read_itemsets", "mining.io"),
    ("codec", "compress", "codec.compress"),
    ("codec", "cover_database", "codec.cover"),
    ("anomaly", "cover_database", "codec.cover"),
    ("codec", "recompute_usages", "codec.usage"),
    ("codec", "total_length", "codec.length"),
    ("codec", "database_length", "codec.length"),
    ("codec", "table_length", "codec.length"),
    ("codec", "write_pattern_table", "codec.io"),
    ("codec", "write_acceptance_log", "codec.io"),
    ("codec", "read_pattern_table", "codec.io"),
    ("anomaly", "score_all", "anomaly.score"),
    ("anomaly", "top_fraction", "anomaly.report"),
    ("anomaly", "hour_frequency", "anomaly.report"),
    ("anomaly", "report", "anomaly.report"),
    ("anomaly", "write_scores", "anomaly.io"),
    ("anomaly", "read_scores", "anomaly.io"),
)

COUNTS = (
    "ingest.records",
    "ingest.rows_rejected",
    "ingest.hours",
    "ingest.hours_excluded",
    "mining.calls",
    "mining.itemsets",
    "codec.cover_passes",
    "codec.rows_covered",
    "codec.distinct_rows",
    "codec.trials",
    "codec.accepted",
    "codec.accept_ratio",
)

TIMES = tuple(sorted({f"{name}_s" for _, _, name in TARGETS}))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._covered: dict[int, list] = {}

    def wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)
        after = getattr(self, "_after_" + attr, None)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if after is not None:
                after(args, result)
            return result

        setattr(module, attr, traced)

    # Count hooks run after the span has closed, so they add to the parent's
    # self time only the few operations they perform.
    def _after_parse_records(self, args, result) -> None:
        self.counts["ingest.records"] += len(result.records)
        self.counts["ingest.rows_rejected"] += result.rejected_rows

    def _after_build_transactions(self, args, result) -> None:
        self.counts["ingest.hours"] += len(result.transactions)
        self.counts["ingest.hours_excluded"] += len(result.excluded_hours)

    def _after_frequent_itemsets(self, args, result) -> None:
        self.counts["mining.calls"] += 1
        self.counts["mining.itemsets"] = max(self.counts["mining.itemsets"], len(result))

    def _after_cover_database(self, args, result) -> None:
        self.counts["codec.cover_passes"] += 1
        self.counts["codec.rows_covered"] += len(args[0])
        self._covered.setdefault(id(args[0]), args[0])

    def _after_compress(self, args, result) -> None:
        self.counts["codec.trials"] += len(result.log)
        self.counts["codec.accepted"] += sum(1 for r in result.log if r.accepted)

    def metrics(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(TIMES, 0.0)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[f"{name}_s"] += end - start - inner
        out.update(self.counts)
        out["codec.distinct_rows"] = max(
            (len({frozenset(t.items) for t in txns}) for txns in self._covered.values()),
            default=0,
        )
        trials = self.counts["codec.trials"]
        out["codec.accept_ratio"] = self.counts["codec.accepted"] / trials if trials else 0.0
        return out

    def write(self, path: str, op: int) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps(
                    {"op": op, "name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")


def install() -> Tracer:
    from mdlpatterns import anomaly, cli, codec, ingest, mining

    modules = {"anomaly": anomaly, "cli": cli, "codec": codec,
               "ingest": ingest, "mining": mining}
    tracer = Tracer()
    for module, attr, name in TARGETS:
        tracer.wrap(modules[module], attr, name)
    return tracer
