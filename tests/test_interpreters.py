"""The golden snapshots on the other supported interpreters found on PATH.

``datetime.fromisoformat``, which checks the digits of every stamp the feed
parser and the staged readers take, reads a narrower grammar on 3.10 than on
3.11 and later, and ``csv`` reads NUL only from 3.11. So each of python3.10,
python3.12 and python3.13, other than the interpreter running the tests,
runs the CLI from this checkout's ``src`` on the two snapshot checks of
``test_golden.py`` and must write the same bytes. The staged ``compress``
must reject the wide snapshot with its stamps in another form as the running
interpreter does, and the feed parser must read the edge stamps of
``feed_oracle.py`` as the running interpreter does, and its edge feeds as
the oracle and csv do there. Where the name on PATH does not start, the same
minor version installed beside the running interpreter is tried (pyenv's
layout). An interpreter found neither way is skipped, and the skip reason
names it.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import ARTIFACTS, GOLDEN, GOLDEN_WIDE

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
RUNNING = f"python{sys.version_info.major}.{sys.version_info.minor}"
OTHERS = [name for name in ("python3.10", "python3.12", "python3.13") if name != RUNNING]
TIMEOUT_S = 120


def run_cli(python: str, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    """`python -m mdlpatterns.cli ARGS` in cwd, importing this checkout's source
    and writing no bytecode into it."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([python, "-m", "mdlpatterns.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def start_failure(python: str, wanted: str) -> str | None:
    """None when ``python`` starts as version ``wanted``, else why it does not."""
    try:
        started = subprocess.run([python, "-c", "import sys; print(sys.version_info[:2])"],
                                 capture_output=True, text=True, timeout=TIMEOUT_S)
    except OSError as exc:
        return f"{python} does not start: {exc}"
    if started.returncode != 0 or started.stdout.strip() != wanted:
        why = (started.stderr.strip().splitlines() or [started.stdout.strip()])[0]
        return f"{python} does not start as {python} (exit {started.returncode}): {why}"
    return None


@pytest.fixture(params=OTHERS)
def python(request) -> str:
    """An interpreter other than the running one: the name on PATH, else that
    minor version installed beside the running interpreter (pyenv's layout,
    whose shims start a version only when PYENV_VERSION names it); skipped
    when neither starts."""
    name = request.param
    minor = name.removeprefix("python")
    wanted = str(tuple(map(int, minor.split("."))))
    why = start_failure(name, wanted)
    if why is None:
        return name
    for path in sorted(Path(sys.base_prefix).parent.glob(f"{minor}.*/bin/{name}")):
        if start_failure(str(path), wanted) is None:
            return str(path)
    pytest.skip(why)


def test_run_matches_golden_snapshot(python, tmp_path):
    synth = run_cli(python, tmp_path, "synth", "--seed", "7", "--days", "30",
                    "--output", "raw.csv", "--manifest", "manifest.txt")
    assert synth.returncode == 0, synth.stderr
    done = run_cli(python, tmp_path, "run", "--input", "raw.csv", "--output-dir", "out")
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / "stdout.txt").read_text(encoding="utf-8")
    for name in ARTIFACTS:
        assert (tmp_path / "out" / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def check_staged_chain(python: str, cwd: Path, transactions: str) -> None:
    """compress, score and report on ``transactions`` write the wide snapshot's bytes."""
    (cwd / "transactions.csv").write_text(transactions, encoding="utf-8")
    for args in (
        ["compress", "--transactions", "transactions.csv", "--table-out", "pattern_table.tsv",
         "--log-out", "acceptance_log.tsv"],
        ["score", "--transactions", "transactions.csv", "--table", "pattern_table.tsv",
         "--output", "scores.tsv"],
        ["report", "--scores", "scores.tsv", "--output", "report.txt"],
    ):
        done = run_cli(python, cwd, *args)
        assert done.returncode == 0, (args[0], done.stderr)
    for name in ["pattern_table.tsv", "acceptance_log.tsv", "scores.tsv", "report.txt"]:
        assert (cwd / name).read_bytes() == (GOLDEN_WIDE / name).read_bytes(), name


def test_staged_chain_matches_wide_golden_snapshot(python, tmp_path):
    check_staged_chain(python, tmp_path, (GOLDEN_WIDE / "transactions.csv").read_text("utf-8"))


def test_staged_compress_rejects_the_wide_snapshot_with_spaces(python, tmp_path):
    # "2018-03-01 00:00:00" is not as hour_text writes an hour, which is the
    # one form the staged readers take, whatever fromisoformat reads
    text = (GOLDEN_WIDE / "transactions.csv").read_text(encoding="utf-8")
    text, rows = re.subn(r"^(\d{4}-\d\d-\d\d)T(\d\d:\d\d),", r"\1 \2:00,", text, flags=re.M)
    assert rows == 720
    (tmp_path / "transactions.csv").write_text(text, encoding="utf-8")
    args = ["compress", "--transactions", "transactions.csv", "--table-out", "pattern_table.tsv",
            "--log-out", "acceptance_log.tsv"]
    here = run_cli(sys.executable, tmp_path, *args)
    assert here.returncode == 30
    assert here.stderr == ("error: compress stage failed: transactions.csv:2: "
                           "bad hour '2018-03-01 00:00:00' (expected YYYY-MM-DDTHH:00)\n")
    done = run_cli(python, tmp_path, *args)
    assert (done.returncode, done.stderr) == (here.returncode, here.stderr)


def run_check(python: str, code: str) -> str:
    """What ``python -c code`` prints, importing this checkout's source and feed_oracle."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([python, "-c", code], env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_parse_records_matches_the_oracle_on_edge_feeds(python):
    mismatches = run_check(python, "import feed_oracle; print(feed_oracle.edge_feed_mismatches())")
    assert mismatches == "[]\n"


def test_parse_records_reads_the_edge_stamps_as_the_running_interpreter(python):
    # the kept rows and the diagnostics, each stamp checked by its characters'
    # positions before fromisoformat reads its digits; the feed's repeated
    # hours are read as a cached hour plus a minute text, which must agree
    check = ("import feed_oracle as f; "
             "print(ascii(f.parse_outcome(f.parse_records, f.EDGE_STAMP_FEED, ',')))")
    assert run_check(python, check) == run_check(sys.executable, check)
