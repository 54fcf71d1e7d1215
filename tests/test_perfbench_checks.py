"""The program's outputs pass the benchmark's own property checks.

`perfbench/checks.py` reads a `simulate` output directory and a solver run
with formulas of its own, and every benchmark round is judged by it. Its
modules are loaded read-only here, so a change to the outputs or to what the
checker reads from a run fails in the test suite before it fails a round.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from cpesim.cli import main
from cpesim.grid import GridSpec
from cpesim.initial import InitialSpec, build_initial
from cpesim.solver import Params, SolverConfig, run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def perfbench(monkeypatch):
    """The benchmark's `checks`, `workloads` and `selftest` modules."""
    # no bytecode cache is written next to the benchmark's files
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    modules = {}
    for name in ("checks", "workloads", "selftest"):
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        # selftest imports the other two by their plain names
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        modules[name] = module
    return modules


def test_simulate_output_passes_check_simulate(tmp_path, perfbench):
    checks, workloads = perfbench["checks"], perfbench["workloads"]
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(perfbench["selftest"].TINY_CONFIG)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--output.dir", str(out)])
    consts = (
        workloads.QUICKSTART_LX,
        workloads.QUICKSTART_LX,
        workloads.QUICKSTART_H,
        workloads.QUICKSTART_KAPPA,
    )
    assert checks.check_simulate(code, out, *consts) == [[]]


def test_snapshot_masses_of_a_run(perfbench):
    checks = perfbench["checks"]
    p = Params(nu=0.01, r=0.5)
    spec = InitialSpec(profile="smooth-flow", amplitude=0.1, u_amplitude=0.25)
    initial = build_initial(GridSpec(8, 8, 4), spec, p)
    res = run(initial, p, SolverConfig(t_end=0.02, dump_every=2))
    masses = checks.snapshot_masses(res)
    assert len(masses) == len(res.snapshots) >= 2
    assert checks.mass_drift(masses) <= 1e-12


def test_checker_self_tests_pass(tmp_path, perfbench):
    # the benchmark's own self-test: each checker accepts a good output and
    # rejects a broken one, through the call forms the benchmark makes
    selftest = perfbench["selftest"]
    results = [
        *selftest.simulate_cases(tmp_path),
        *selftest.mms_cases(),
        *selftest.study_cases(),
    ]
    assert len(results) == 11
    assert all(results)
