"""The benchmark's span targets name functions that exist.

`perfbench/spans.py` wraps `cpesim` functions by module and attribute path
when a traced benchmark run starts, and fails there if one is missing. The
module is loaded read-only here, so a rename or deletion that would break
every traced run fails in the test suite first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    # no bytecode cache is written next to the benchmark's files
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves(monkeypatch):
    spans = _load_spans(monkeypatch)
    assert spans.TARGETS
    for name, module_name, path in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), f"{name}: {module_name}.{path} is missing"
            owner = getattr(owner, part)
        assert callable(owner), f"{name}: {module_name}.{path} is not callable"
