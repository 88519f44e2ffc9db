"""Every name a module under ``src/mdlpatterns`` imports or defines is used.

No linter ships with the toolchain, so this stands in for the unused-import
rule (F401). A name counts as used when the module reads it, lists it in
``__all__``, or imports it on a ``# noqa: F401`` line: a binding kept for
code outside the module, such as the benchmark tracer's wrapped functions.

It also stands in for a dead-code check: every top-level def, class or
assignment must be read by some source module (as a name or an attribute),
listed in ``__all__``, or named by the benchmark tracer's ``TARGETS``.

And it guards start-up, in interpreters started with ``-S`` so that no
``.pth`` file preloads a module: importing the CLI and building its parser
loads none of ``json``, ``csv``, ``array``, ``pathlib``, ``dataclasses``,
``inspect`` and ``logging``, which every command would pay for; and the
staged ``score`` and ``report`` load none of ``json``, ``csv`` and ``array``
while they run.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mdlpatterns"
TRACER = ROOT / "perfbench" / "tracer.py"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}  # bound name -> line
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{name} (line {lineno})"
        for name, lineno in sorted(imported.items())
        if name not in read | exported(tree)
    ]


def exported(tree: ast.Module) -> set[str]:
    """The names a module's ``__all__`` lists."""
    return {
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
        for name in ast.literal_eval(node.value)
    }


def unread_definitions(sources: dict[str, str], tracer_targets) -> list[str]:
    """Top-level defs, classes and assignments of the modules (name -> source)
    that no module reads, no ``__all__`` lists and ``tracer_targets`` (the
    tracer's (module, attribute, span) triples) does not name. Dunder names
    are exempt. Reads are matched by name alone, whichever module they are in."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(exported, trees.values()))
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    named = {(module, attr) for module, attr, _ in tracer_targets}
    unread = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                bound = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in bound if isinstance(target, ast.Name)]
            else:
                continue
            unread += [
                f"{module}.{name} (line {node.lineno})"
                for name in names
                if name not in read and (module, name) not in named
                and not (name.startswith("__") and name.endswith("__"))
            ]
    return unread


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .codec import cover_database  # noqa: F401\n"
        "from .mining import distinct_rows, exact_ceil\n"
        "from .ingest import Item\n"
        "__all__ = ['Item']\n"
        "print(exact_ceil)\n"
    )
    assert unused_imports(source) == ["distinct_rows (line 4)", "os (line 2)"]


def test_every_definition_is_read():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert unread_definitions(sources, tracer.TARGETS) == []


def test_the_check_finds_an_unread_definition():
    sources = {
        "ingest": (
            "RecordKey = tuple[str, int]\n"
            "Item = tuple[str, int]\n"
            "__version__ = '0.1.0'\n"
            "def parse(): return Item\n"
            "def orphan(): pass\n"
            "class Build: pass\n"
        ),
        "codec": (
            "from .ingest import parse\n"
            "__all__ = ['compress']\n"
            "def compress(): return parse()\n"
            "def total_length(): pass\n"
        ),
        "cli": "from . import ingest\nprint(ingest.Build)\n",
    }
    targets = [("codec", "total_length", "codec.length"), ("ingest", "total_length", "x")]
    assert unread_definitions(sources, targets) == [
        "ingest.RecordKey (line 1)", "ingest.orphan (line 5)",
    ]


PYTHONPATH = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))


def loaded(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``, printed on
    the last line of its output. It runs with ``-S``: no ``.pth`` file in
    site-packages can load a module first."""
    script = f"{code}\nimport sys\nprint(*sys.modules)"
    output = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": PYTHONPATH}).stdout
    return set(output.splitlines()[-1].split())


def test_the_cli_starts_without_json_csv_array_pathlib_dataclasses_inspect_or_logging():
    # dataclasses loads inspect, and with it ast and dis: about a third of
    # the CLI's start-up, paid by every staged command. logging loads
    # traceback, linecache, tokenize, textwrap and string: over a quarter.
    # json (config files), csv and array (raw feeds) are imported where used.
    added = loaded("import mdlpatterns.cli\nmdlpatterns.cli.build_parser()") - loaded("pass")
    assert "mdlpatterns.cli" in added
    unwanted = {"json", "csv", "array", "pathlib", "dataclasses", "inspect", "logging"}
    assert added.isdisjoint(unwanted), sorted(added)


def test_staged_score_and_report_load_neither_json_csv_nor_array(tmp_path):
    # The commands that rescore new hours against a frozen table: the saving
    # must be real for them, not moved from start-up into their run.
    golden = ROOT / "tests" / "golden"
    commands = [
        ["score", "--transactions", str(golden / "transactions.csv"),
         "--table", str(golden / "pattern_table.tsv"), "--output", str(tmp_path / "scores.tsv")],
        ["report", "--scores", str(tmp_path / "scores.tsv"),
         "--output", str(tmp_path / "report.txt")],
    ]
    added = loaded(f"from mdlpatterns import cli\nassert [cli.main(argv) for argv in {commands!r}]"
                   " == [0, 0]") - loaded("pass")
    assert "mdlpatterns.anomaly" in added
    assert added.isdisjoint({"json", "csv", "array"}), sorted(added)
    assert (tmp_path / "report.txt").read_bytes() == (golden / "report.txt").read_bytes()
