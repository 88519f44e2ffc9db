"""Runs inside a fresh interpreter for each measurement.

    child.py setup           print the seconds it takes to import
                             mdlpatterns.cli and build its parser, and the
                             time of a fixed reference task run just before
    child.py op SPEC.json    import mdlpatterns.cli, optionally install the
                             tracer, then time cli.main over each argv in
                             SPEC["commands"]; the result goes to
                             SPEC["result"] as JSON

Only ``sys`` and ``time`` are imported before the setup timer starts, so
the modules the program itself pulls in are charged to it. The reference
task runs first, in the same fresh interpreter, so the program's state
cannot affect it.
"""

import sys
import time


def reference_task() -> int:
    """A fixed pure-Python task of the pipeline's kind (split text, parse
    integers, build frozensets, count in a dict, sort) using none of its
    code. Its time tracks the machine's current speed."""
    counts: dict = {}
    rows = []
    for i in range(6000):
        stamp, site, cat = f"2017-01-{i % 28 + 1:02d}T{i % 24:02d}:00,PB,{i % 4 + 1}".split(",")
        key = frozenset(((site, int(cat)), ("LQ", i % 3), ("RB", i % 5)))
        counts[key] = counts.get(key, 0) + 1
        rows.append((stamp, i % 7, key in counts))
    rows.sort()
    return len(counts)


def reference_seconds(rounds: int = 3) -> float:
    """Median time of ``rounds`` runs of the reference task."""
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        reference_task()
        samples.append(time.perf_counter() - start)
    return sorted(samples)[rounds // 2]


def setup() -> None:
    reference = reference_seconds()
    start = time.perf_counter()
    import mdlpatterns.cli

    mdlpatterns.cli.build_parser()
    print(repr(time.perf_counter() - start), repr(reference))


def op(spec_path: str) -> None:
    import json
    import resource

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    from mdlpatterns import cli

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.install()
    start = time.perf_counter()
    codes = [cli.main(list(argv)) for argv in spec["commands"]]
    run_s = time.perf_counter() - start
    result = {
        "codes": codes,
        "run_s": run_s,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(spec["trace_out"], spec["op"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"]:
        setup()
    elif sys.argv[1:2] == ["op"] and len(sys.argv) == 3:
        op(sys.argv[2])
    else:
        sys.exit("usage: child.py setup | child.py op SPEC.json")
