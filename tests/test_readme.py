"""The README's Library example runs as written, on the golden transactions.

It must import only names in ``mdlpatterns.__all__``, and all of them, so the
README and the package's exports cannot drift apart.
"""

import ast
import re
import shutil
from pathlib import Path

import mdlpatterns

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"


def library_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    return block


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
