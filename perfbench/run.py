"""End-to-end and per-layer benchmark for mdlpatterns.

    python3 perfbench/run.py --workload feed_year --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere inside a checkout; the program is imported from its
``src`` directory, nothing is installed. Each workload's inputs are made from
``--seed`` by ``gen.py``. The workload's timed operation runs in a fresh
interpreter (``child.py``) per repetition, so each repetition's peak memory is
its own. The artifacts of the first repetition are checked by ``checks.py``
between repetitions, untimed; every later repetition must write
byte-identical artifacts. Repetitions continue until ``--seconds`` have
passed, with at least MIN_TIMED_OPS timed ones. Between repetitions,
SETUP_LAUNCHES fresh interpreters each time importing the CLI give the
set-up time, so its samples spread over the whole run.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` each round runs the operation once
untraced and once traced (``tracer.py``), and the JSON holds the per-layer
metrics plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from math import fsum
from pathlib import Path
from typing import Callable

import checks
import gen
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

THRESHOLD = "0.05"
THRESHOLD_MINIMUM = 2  # the program's default for `run` and `compress`
TOP_FRACTION = "0.05"
TOP_K = 10
MIN_TIMED_OPS = 3
MAX_FAILED = 6  # stop repeating an operation that keeps failing
SETUP_LAUNCHES = 7  # after every repetition, so they sample the whole run
OP_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30

# setup_s is given at the machine speed where child.reference_task takes
# this long; see measure_setup.
REFERENCE_S = 0.03
UNITS = {
    "run_s": "s",
    "hours_per_s": "hours/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "bits_per_hour": "bits/hour",
}
ARTIFACTS = ("config.json", "transactions.csv", "itemsets.tsv", "pattern_table.tsv",
             "acceptance_log.tsv", "scores.tsv", "report.txt")


class BenchError(RuntimeError):
    pass


@dataclass
class Prepared:
    commands: list[list[str]]
    hours: int  # input hours the operation handles
    outputs: list[Path]  # artifacts every repetition must reproduce
    verify: Callable[[], tuple[dict[str, list[str]], float]]


def _env(work: Path) -> dict[str, str]:
    """Child environment. Bytecode is cached under the run's own directory,
    whatever the caller's PYTHONDONTWRITEBYTECODE, so set-up time measures
    imports from bytecode in every environment and the checkout's source
    directories stay untouched. A fixed hash seed keeps set and dict layouts,
    and so timings, alike from run to run; the program's output does not
    depend on it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(work / "pycache"))
    return env


def _verify_scored(out: Path, table_path: Path, hours, sites, frozen: bool,
                   injected=()) -> tuple[dict[str, list[str]], float]:
    """Check scores.tsv and report.txt in ``out``; returns the problems found
    and the mean score in bits per hour."""
    got_sites, scores = checks.read_scores(str(out / "scores.tsv"))
    table = checks.read_table(str(table_path))
    problems = {
        "sites": [] if got_sites == tuple(sites) else [f"scores list sites {got_sites}"],
        "covers": checks.check_covers(got_sites, scores, table),
        "scores": checks.check_scores(scores, table),
        "ranking": checks.check_ranking(scores, hours),
        "report": checks.check_report(str(out / "report.txt"), got_sites, scores,
                                      TOP_FRACTION, TOP_K),
        "recall": checks.check_recall(scores, injected, TOP_FRACTION),
    }
    if not frozen:
        problems["usages"] = checks.check_usages(scores, table)
    bits = fsum(row.score for row in scores) / len(scores) if scores else 0.0
    return problems, bits


def _prepare_raw(raw: gen.RawInput, work: Path, itemsets: bool) -> Prepared:
    raw_path = work / "raw.csv"
    with open(raw_path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(raw.lines)
    out = work / "out"

    def verify():
        problems, bits = _verify_scored(out, out / "pattern_table.tsv", raw.categories,
                                        raw.sites, frozen=False, injected=raw.injected)
        problems["categories"] = checks.check_categories(
            str(out / "transactions.csv"), raw.categories)
        if itemsets:
            problems["itemsets"] = checks.check_itemsets(
                str(out / "itemsets.tsv"), raw.sites, raw.categories,
                THRESHOLD, THRESHOLD_MINIMUM)
        return problems, bits

    return Prepared(
        commands=[["run", "--input", str(raw_path), "--output-dir", str(out),
                   "--attributes", ",".join(raw.sites), "--direction", gen.DIRECTION,
                   "--vehicle-class", gen.VEHICLE_CLASS, "--threshold", THRESHOLD,
                   "--top-fraction", TOP_FRACTION, "--top-k", str(TOP_K)]],
        hours=raw.hours,
        outputs=[out / name for name in ARTIFACTS],
        verify=verify,
    )


def prepare_feed_year(seed: int, work: Path) -> Prepared:
    return _prepare_raw(gen.feed_year(seed), work, itemsets=False)


def prepare_wide_sites(seed: int, work: Path) -> Prepared:
    return _prepare_raw(gen.wide_sites(seed), work, itemsets=True)


def prepare_rescore_decade(seed: int, work: Path) -> Prepared:
    data = gen.rescore_decade(seed)
    decade, year, table = work / "decade.csv", work / "year1.csv", work / "table.tsv"
    gen.write_transactions(str(decade), data.sites, data.rows)
    gen.write_transactions(str(year), data.sites, data.table_rows)
    # The frozen table is compressed once, untimed, through the CLI.
    result = run_child(work, [["compress", "--transactions", str(year),
                               "--table-out", str(table), "--log-out", str(work / "log.tsv"),
                               "--threshold", THRESHOLD,
                               "--threshold-minimum", str(THRESHOLD_MINIMUM)]], trace=False)
    if result is None:
        raise BenchError("compressing the frozen table failed")
    hours = dict(data.rows)
    missing = checks.check_table_items(checks.read_table(str(table)), hours, data.sites)
    if missing:
        raise BenchError("the frozen table cannot score the decade: " + "; ".join(missing))
    out = work / "out"
    out.mkdir()
    scores, report = out / "scores.tsv", out / "report.txt"
    return Prepared(
        commands=[
            ["score", "--transactions", str(decade), "--table", str(table),
             "--output", str(scores)],
            ["report", "--scores", str(scores), "--output", str(report),
             "--top-k", str(TOP_K), "--top-fraction", TOP_FRACTION],
        ],
        hours=len(data.rows),
        outputs=[scores, report],
        verify=lambda: _verify_scored(out, table, hours, data.sites, frozen=True),
    )


WORKLOADS = {
    "feed_year": prepare_feed_year,
    "wide_sites": prepare_wide_sites,
    "rescore_decade": prepare_rescore_decade,
}


def run_child(work: Path, commands: list[list[str]], trace: bool,
              trace_out: Path | None = None, op: int = 0) -> dict | None:
    """Run the commands in a fresh interpreter; None if any of them failed."""
    spec, result = work / "op.json", work / "result.json"
    result.unlink(missing_ok=True)
    spec.write_text(json.dumps({"commands": commands, "trace": trace, "op": op,
                                "trace_out": str(trace_out), "result": str(result)}))
    log = work / "child.log"
    with open(log, "w", encoding="utf-8") as fh:
        proc = subprocess.Popen([sys.executable, str(CHILD), "op", str(spec)],
                                cwd=ROOT, env=_env(work), stdout=fh, stderr=fh)
        try:
            code = proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code == 0 and result.exists():
        data = json.loads(result.read_text())
        if all(c == 0 for c in data["codes"]):
            return data
    tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-5:]
    print(f"operation failed (exit {code}): " + " | ".join(tail), file=sys.stderr)
    return None


def measure_setup(work: Path, launches: int) -> list[tuple[float, float]]:
    """(seconds to import mdlpatterns.cli and build its parser, seconds of the
    reference task just before), one pair per fresh interpreter.

    This machine's speed drifts by tens of percent over tens of seconds, and
    a 50 ms import sees whatever speed holds at that moment. The reference
    task, run in the same interpreter just before, sees the same speed, so
    the import time scaled by REFERENCE_S / reference cancels the drift. A
    repetition of several seconds does not track a reference measured beside
    it, so run_s is left unscaled."""
    samples = []
    for _ in range(launches):
        done = subprocess.run([sys.executable, str(CHILD), "setup"], cwd=ROOT, env=_env(work),
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchError(f"setup probe failed: {done.stderr.strip()[-300:]}")
        elapsed, reference = done.stdout.split()
        samples.append((float(elapsed), float(reference)))
    return samples


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = HERE / "work" / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace_out = HERE / "traces" / f"{workload}-s{seed}.jsonl"
    if trace:
        trace_out.parent.mkdir(exist_ok=True)
        trace_out.unlink(missing_ok=True)
    try:
        prep = WORKLOADS[workload](seed, work)
        measure_setup(work, 1)  # untimed: the first launch may compile bytecode
        setup: list[tuple[float, float]] = []
        timed, traced = [], []
        attempted = failed = 0
        problems: dict[str, list[str]] = {}
        checked = bits_per_hour = None
        deadline = time.perf_counter() + seconds
        while ((len(timed) < MIN_TIMED_OPS or time.perf_counter() < deadline)
               and failed < MAX_FAILED):
            for traced_op in ((False, True) if trace else (False,)):
                attempted += 1
                result = run_child(work, prep.commands, trace=traced_op,
                                   trace_out=trace_out, op=len(traced))
                if result is None:
                    failed += 1
                    continue
                (traced if traced_op else timed).append(result)
                if checked is None:
                    problems, bits_per_hour = prep.verify()
                    checked = _digest(prep.outputs)
                elif _digest(prep.outputs) != checked:
                    problems.setdefault("repeat", []).append(
                        f"repetition {attempted} wrote different artifacts")
            setup += measure_setup(work, SETUP_LAUNCHES)
        if not timed or (trace and not traced):
            raise BenchError("no repetition succeeded")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    run_s = statistics.median(r["run_s"] for r in timed)
    if trace:
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in traced),
                   "unit": "s" if name.endswith("_s") else "count"}
            for name in tracer.TIMES + tracer.COUNTS
        }
        metrics["codec.accept_ratio"]["unit"] = "ratio"
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r["run_s"] for r in traced) - run_s, "unit": "s"}
    else:
        values = {
            "run_s": run_s,
            "hours_per_s": prep.hours / run_s,
            "peak_rss_mb": statistics.median(r["peak_rss_kib"] for r in timed) / 1024,
            "setup_s": statistics.median(t * REFERENCE_S / ref for t, ref in setup),
            "bits_per_hour": bits_per_hour,
        }
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    problems = {name: found for name, found in problems.items() if found}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "op_seconds": [r["run_s"] for r in timed],
        "raw_setup_s": statistics.median(t for t, _ in setup),
    }


def _print_summary(workload: str, result: dict) -> None:
    ops = ", ".join(f"{t:.3f}" for t in result["op_seconds"])
    print(f"{workload}: {result['attempted']} attempted, {result['failed']} failed, "
          f"correct={result['correct']}; untraced repetitions took {ops} s; "
          f"unscaled set-up median {result['raw_setup_s']:.4f} s")
    for name, metric in result["metrics"].items():
        print(f"  {name:24s} {metric['value']:.6g} {metric['unit']}")
    for check, found in result["problems"].items():
        for line in found:
            print(f"  CHECK FAILED {check}: {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so every child is stopped and the work
    # directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "mdlpatterns" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'mdlpatterns'} is missing",
              file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        _print_summary(name, results[name])

    if len(names) == 1:
        final = results[names[0]]
        metrics = final["metrics"]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values())}
        metrics = {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()}
    print(json.dumps({"correct": final["correct"], "attempted": final["attempted"],
                      "failed": final["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
