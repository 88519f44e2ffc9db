"""The benchmark's tracer finds program functions by (module, attribute) name.

``perfbench/tracer.py`` wraps each name in ``TARGETS`` when a run is traced.
Some are bindings the pipeline itself no longer calls, such as
``codec.frequent_itemsets``; deleting one as unused would break
``perfbench/run.py --trace 1``, so each must still resolve.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"mdlpatterns.{module}"), attr, None))
    ]
    assert tracer.TARGETS and not missing
