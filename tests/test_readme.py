"""The README's Library example runs as written, on the golden transactions.

It must import only names in ``mdlpatterns.__all__``, and all of them, so the
README and the package's exports cannot drift apart. Its "Command line"
section names exactly the flags the parser declares.
"""

import ast
import re
import shutil
from pathlib import Path

import mdlpatterns
from mdlpatterns.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"


def readme_section(title: str) -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def library_example() -> str:
    (block,) = re.findall(r"```python\n(.*?)```", readme_section("Library"), flags=re.DOTALL)
    return block


def test_readme_command_line_names_every_declared_flag():
    # each subcommand's parser is the choice of the one subparsers action
    (subcommands,) = [a for a in build_parser()._actions if a.choices]
    declared = {
        flag
        for command in subcommands.choices.values()
        for action in command._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    assert set(re.findall(r"--[a-z][a-z-]*", readme_section("Command line"))) == declared


def test_readme_imports_exactly_the_public_api():
    imported = [
        alias.name
        for node in ast.walk(ast.parse(library_example()))
        if isinstance(node, ast.ImportFrom) and node.module == "mdlpatterns"
        for alias in node.names
    ]
    assert sorted(imported) == sorted(mdlpatterns.__all__)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # The golden run used the same threshold and fraction as the example, so
    # the example's worst hours are the top rows of the golden scores.tsv.
    shutil.copy(GOLDEN / "transactions.csv", tmp_path / "transactions.csv")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(library_example(), namespace)
    worst = namespace["worst_hours"]
    golden = (GOLDEN / "scores.tsv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(worst.hours) == 36  # ceil(0.05 * 720 hours)
    assert [
        (hour, f"{worst.bits[row]:.9f}", worst.covers[row])
        for hour, row in zip(worst.hours, worst.index)
    ] == [
        (fields[0], fields[-3], fields[-1])
        for fields in (line.split("\t") for line in golden[: len(worst.hours)])
    ]
