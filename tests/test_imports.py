"""Every name a module under ``src/mdlpatterns`` imports is used there.

No linter ships with the toolchain, so this stands in for the unused-import
rule (F401). A name counts as used when the module reads it, lists it in
``__all__``, or imports it on a ``# noqa: F401`` line: a binding kept for
code outside the module, such as the benchmark tracer's wrapped functions.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mdlpatterns"


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
    exported = {
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
        for name in ast.literal_eval(node.value)
    }
    return [
        f"{name} (line {lineno})"
        for name, lineno in sorted(imported.items())
        if name not in read | exported
    ]


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
