"""The benchmark's span targets name functions that exist.

`perfbench/spans.py` wraps `cpesim` functions by module and attribute path
when a traced benchmark run starts, and fails there if one is missing; its
per-cell figures read each call's arguments. The module is loaded read-only
here, so a rename, deletion or call-form change that would break every
traced run fails in the test suite first.
"""

import functools
import importlib
import importlib.util
import sys
import threading
from pathlib import Path

from cpesim import solver
from cpesim.grid import GridSpec
from cpesim.initial import InitialSpec, build_initial
from cpesim.mms import ManufacturedSolution

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


def test_a_split_run_calls_traced_functions_on_the_callers_thread_only(monkeypatch):
    # the tracer keeps one span stack, so the helper thread of a split step
    # may run no traced function: each is spied on at every binding the
    # tracer would wrap, through a split manufactured-solution run
    spans = _load_spans(monkeypatch)
    seen = {}

    def spy(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            seen.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)

        return wrapper

    loaded = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "cpesim"]
    for name, module_name, path in spans.TARGETS:
        owner = importlib.import_module(module_name)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        if cls_path:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                monkeypatch.setattr(owner, attr, classmethod(spy(name, raw.__func__)))
            else:
                monkeypatch.setattr(owner, attr, spy(name, raw))
            continue
        original = getattr(owner, attr)
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, spy(name, original))
    monkeypatch.setattr(solver, "SPLIT_CELLS", 0)
    monkeypatch.setattr(
        solver.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
    )
    g = GridSpec(12, 8, 5)
    p = solver.Params(nu=0.01, r=0.5)
    ms = ManufacturedSolution(g, p)
    cfg = solver.SolverConfig(t_end=0.02, cfl=0.3)
    baseline = threading.active_count()
    instants = solver.dump_states(ms.state_at(0.0), p, cfg, ms.source)
    alive = [threading.active_count() for _ in instants]
    assert max(alive) == baseline + 1  # the run did split
    ran = {"solver.step", "solver.rhs_momentum", "solver._assemble", "mms.source"}
    assert ran <= set(seen)
    assert all(ids == {threading.get_ident()} for ids in seen.values()), seen
