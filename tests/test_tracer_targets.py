"""Every name the benchmark tracer wraps exists in the package.

`benchmarks/tracer.py` replaces the module attributes in its TARGETS with
timing wrappers; a missing one breaks traced benchmark runs. TARGETS is read
from the checkout, not copied, so a benchmark change that drops a target
needs no edit here.
"""

import importlib
import importlib.util
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_tracer_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))  # tracer imports corpusgen
    spec = importlib.util.spec_from_file_location("tracer", BENCHMARKS / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [
        f"dclex.{module}.{attribute}"
        for module, attribute, *_ in tracer.TARGETS
        if not hasattr(importlib.import_module(f"dclex.{module}"), attribute)
    ]
    assert missing == []
