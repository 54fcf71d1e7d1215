"""The benchmark's span targets name functions that exist.

`perfbench/spans.py` wraps `cpesim` functions by module and attribute path
when a traced benchmark run starts, and fails there if one is missing; its
per-cell figures read each call's arguments. The module is loaded read-only
here, so a rename, deletion or call-form change that would break every
traced run fails in the test suite first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from cpesim import solver
from cpesim.grid import GridSpec
from cpesim.initial import InitialSpec, build_initial

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


def test_cell_sizers_read_real_calls(monkeypatch):
    spans = _load_spans(monkeypatch)
    tracer = spans.Tracer()
    for name in ("solver.step", "solver.rhs_momentum"):
        attr = name.split(".")[1]
        monkeypatch.setattr(solver, attr, tracer.wrap(name, getattr(solver, attr)))
    g = GridSpec(8, 8, 4)
    p = solver.Params(nu=0.01, r=0.5)
    spec = InitialSpec(profile="smooth-flow", amplitude=0.15, u_amplitude=0.25)
    cfg = solver.SolverConfig(t_end=2e-3, dt_fixed=1e-3)
    *_, last = solver.dump_states(build_initial(g, spec, p), p, cfg)
    steps, cells = last.step_index, 8 * 8 * 4
    assert steps == 2
    assert tracer.cells["solver.step"] == steps * cells
    assert tracer.cells["solver.rhs_momentum"] == 2 * steps * cells
