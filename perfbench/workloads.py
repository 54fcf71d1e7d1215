"""The three benchmark workloads.

Each workload has fixed inputs and no random part. `setup` imports the
workload's entry module and builds its inputs; it is what `setup_s` times,
so it must be the first thing to import `cpesim` (and with it numpy) in a
fresh process. `run` makes the timed calls into `cpesim` and returns their
results. `finish` runs outside the timed region: it checks the results and
returns the round's solver cell-steps and one failure list per operation.
"""

from __future__ import annotations

import math
import shutil
from pathlib import Path
from time import perf_counter

# The README quick-start config, verbatim; outputs go to a per-round
# directory passed with `--output.dir`.
QUICKSTART_CONFIG = """\
grid.nx1 = 64
grid.nx2 = 64
grid.nz = 16
params.nu = 0.01
params.r = 0.5
solver.t_end = 0.5
initial.profile = smooth-flow
initial.amplitude = 0.15
initial.u_amplitude = 0.25
output.dir = out
"""
# Values the quick-start config leaves at their documented defaults.
QUICKSTART_LX = 1.0
QUICKSTART_H = 1.0 - math.exp(-1.0)
QUICKSTART_KAPPA = 1.0

MMS_BASE = (24, 24, 12)
MMS_LEVELS = 3

STUDY_GRID = (32, 32, 8)
STUDY_AMPLITUDES = tuple(2.0**-n for n in range(1, 6))


def _cells(grid) -> int:
    return grid.nx1 * grid.nx2 * grid.nz


class SimulateQuickstart:
    name = "simulate-quickstart"
    ops_per_round = 1

    def setup(self, workdir: Path):
        import cpesim.cli
        from cpesim.config import parse_config

        path = workdir / "quickstart.cfg"
        path.write_text(QUICKSTART_CONFIG)
        cfg = parse_config(path.read_text())
        return {"cli": cpesim.cli, "path": path, "cells": _cells(cfg.grid), "round": 0}

    def run(self, inp, workdir: Path):
        inp["round"] += 1
        outdir = workdir / f"out{inp['round']}"
        argv = ["simulate", "--config", str(inp["path"]), "--output.dir", str(outdir)]
        t0 = perf_counter()
        code = inp["cli"].main(argv)
        return perf_counter() - t0, (code, outdir)

    def finish(self, inp, result):
        from checks import check_simulate

        code, outdir = result
        try:
            fails = check_simulate(
                code, outdir, QUICKSTART_LX, QUICKSTART_LX, QUICKSTART_H, QUICKSTART_KAPPA
            )
            dumps = sorted(outdir.glob("fields_*.cpe"))
            steps = int(dumps[-1].stem.split("_")[1]) if dumps else 0
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        return inp["cells"] * steps, fails


class MmsHierarchy:
    name = "mms-hierarchy"
    ops_per_round = MMS_LEVELS

    def setup(self, workdir: Path):
        import cpesim.verify
        from cpesim.grid import GridSpec
        from cpesim.solver import Params

        return {
            "verify": cpesim.verify,
            "base": GridSpec(*MMS_BASE),
            "params": Params(nu=0.01, r=0.5),
        }

    def run(self, inp, workdir: Path):
        t0 = perf_counter()
        report = inp["verify"].mms_convergence(
            inp["base"], inp["params"], t_end=0.02, levels=MMS_LEVELS, cfl=0.3
        )
        return perf_counter() - t0, report

    def finish(self, inp, report):
        from checks import check_mms

        cell_steps = sum(_cells(lvl.grid) * lvl.steps for lvl in report.levels)
        return cell_steps, check_mms(report, MMS_BASE)


class StudyPerturbation:
    name = "study-perturbation"
    ops_per_round = 1 + len(STUDY_AMPLITUDES)

    def setup(self, workdir: Path):
        import cpesim.verify
        from cpesim.grid import GridSpec
        from cpesim.initial import InitialSpec, build_initial
        from cpesim.solver import Params, SolverConfig

        verify = cpesim.verify
        p = Params(nu=0.01, r=0.5)
        spec = InitialSpec(profile="smooth-flow", amplitude=0.1, u_amplitude=0.25)
        reference = build_initial(GridSpec(*STUDY_GRID), spec, p)
        perturbed = [verify.perturbed_density(reference, a) for a in STUDY_AMPLITUDES]
        return {
            "verify": verify,
            "reference": reference,
            "perturbed": perturbed,
            "params": p,
            "cfg": SolverConfig(t_end=0.2, dump_every=2),
        }

    def run(self, inp, workdir: Path):
        t0 = perf_counter()
        table = inp["verify"].stability_study(
            inp["reference"], inp["perturbed"], STUDY_AMPLITUDES, inp["params"], inp["cfg"]
        )
        return perf_counter() - t0, table

    def finish(self, inp, table):
        """Check the table; the first round's trajectories are re-run for mass.

        Rounds repeat identical inputs, so every later round must reproduce
        the first round's table exactly; the first round's re-run on the
        study's shared dt then stands for the trajectories of every round.
        """
        from dataclasses import replace

        from checks import check_study, snapshot_masses
        from cpesim.solver import run

        if "first" not in inp:
            g = inp["reference"].grid
            shared = replace(inp["cfg"], dt_fixed=table.dt)
            masses, cell_steps = [], 0
            if table.dt > 0.0:
                for state in (inp["reference"], *inp["perturbed"]):
                    res = run(state, inp["params"], shared)
                    cell_steps += _cells(g) * res.snapshots[-1].step_index
                    masses.append(snapshot_masses(res))
            inp["first"] = (table, cell_steps, masses)
        first, cell_steps, masses = inp["first"]
        fails = check_study(table, STUDY_AMPLITUDES, masses)
        if table != first:
            for f in fails:
                f.append("table differs from the first round's")
        return cell_steps, fails


WORKLOADS = {w.name: w for w in (SimulateQuickstart(), MmsHierarchy(), StudyPerturbation())}
