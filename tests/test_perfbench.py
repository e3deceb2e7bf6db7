"""The benchmark's traced names still exist in the netsel package.

``perfbench/spans.py`` wraps every name in its ``WRAPPED`` list by
``getattr`` on the imported modules, so a removed or renamed function
would fail only a traced benchmark run. This reads that list and resolves
each name the way ``spans.install`` does, installing no wrapper.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    spans = _spans()
    assert spans.WRAPPED
    for name in spans.WRAPPED:
        mod_name, _, attr_path = name.partition(".")
        obj = importlib.import_module(f"netsel.{mod_name}")
        for attr in attr_path.split("."):
            assert hasattr(obj, attr), f"{name}: no {attr!r}"
            obj = getattr(obj, attr)
        assert callable(obj), name
    for name, _, _ in spans.RETURN_COUNTS:
        assert name in spans.WRAPPED, name
