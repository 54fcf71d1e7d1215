"""Per-layer timings of the stepping path, the snapshot pass and the MMS.

    python3 tools/step_profile.py [--record N] [SRC]

Imports `cpesim` from SRC (default: the `src/` beside this directory) and
prints, at 32x32x16, 64x64x16 (the README quick-start grid) and 64x64x32,
the fastest of 5 timed rounds in ms per call and in ns per cell, for
`step`, `rhs_xi`, `rhs_momentum`, `diagnostic_w`, `_assemble`, `cfl_dt`
and `snapshot_reports`. State construction follows: `ModelState.from_values`
on fresh read-only arrays, the form `_assemble` passes, so the state
adopts them without a copy, at 64x64x16 and on a batch of six 32x32x8
runs. Then it times whole `verify.stability_study` calls
on the `study-perturbation` inputs (six runs) at 16x16x4, 32x32x8 (the
workload's grid) and 64x64x16, in two forms: all runs as one batch, and
every run as a batch of one; `verify.BATCH_CELLS` is chosen from these
rows, and the last column gives the runs per batch under its committed
value. For the manufactured solution it prints a warm sympy `Derivation`
build (once the first one has filled sympy's caches) and, at 96x96x48,
the finest grid of the `mms-hierarchy` benchmark workload, on that warm
derivation: the per-grid set-up `ManufacturedSolution(grid, params,
derivation=...)`, which evaluates the plan coefficients and the
z-profiles and forms the drag |U| U from the assembled velocity, and
`source` and `state_at`, each one assembly of plan coefficients weighted
by powers of (cos t, sin t) against the z-profiles.
Point it at two checkouts to compare them on one host, in alternating runs:
a shared host's speed can move by up to half between minutes, more than
the best of 5 rounds in one process absorbs. A checkout whose `rhs_xi`
still takes (grid, xi, u1, u2) is timed with that checkout's own copy of
this tool. It needs numpy and sympy, runs in one process and is not part
of the test suite.

With `--record N` it also times three end-to-end runs in process, each
with its step counts: the README quick-start `simulate` (its outputs go to
a temporary directory), acceptance criterion 02's `mms_convergence`, and
`stability_study` on the `study-perturbation` inputs. It then writes
`BENCH_N.json` beside this directory: the machine facts (cores, platform,
the Python, numpy and sympy versions), the time of
`perfbench/calibrate.kernel_s()` before and after the rows, and every
printed row and end-to-end run with its best and median, raw and scaled
by the kernel (times REFERENCE_S over the mean kernel time). Without it
the tool writes no files.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

GRIDS = ((32, 32, 16), (64, 64, 16), (64, 64, 32))
ROUNDS = 5
# calls per round; each call gets fresh arguments made before the round
CALLS = {(32, 32, 16): 20, (64, 64, 16): 10, (64, 64, 32): 5}
MMS_GRID = (96, 96, 48)
MMS_CALLS = 10
# (grid, t_end) of the whole-study rows
STUDY_GRIDS = (((16, 16, 4), 0.2), ((32, 32, 8), 0.2), ((64, 64, 16), 0.05))
STUDY_GRID = (32, 32, 8)  # the study-perturbation workload's grid
STUDY_AMPLITUDES = tuple(2.0**-n for n in range(1, 6))
PAIRED = 3
KERNEL_RUNS = 3  # calibration kernel runs before and after the rows
E2E_ROUNDS = 3  # timed rounds of each end-to-end run, after one warm-up
# criterion 02's hierarchy: (base grid, levels, t_end, cfl)
CRITERION_02 = ((32, 32, 16), 3, 0.02, 0.3)
# Every printed row, for --record: grid, call, cells, seconds per round.
ROWS: list = []
# (members, grid) of the state-construction rows; None is a single run
CONSTRUCTION = ((None, (64, 64, 16)), (6, (32, 32, 8)))
CONSTRUCTION_CALLS = 20


def _state(grid, p, initial):
    # a smooth, sheared, z-varying flow over a density wave
    x1, x2 = grid.meshgrid_2d()
    zc = grid.z_centers()
    xi = 1.0 + 0.3 * np.sin(2.0 * np.pi * x1) * np.cos(2.0 * np.pi * x2)
    prof = 1.0 + 0.5 * np.cos(np.pi * zc / grid.h)
    u1 = 0.3 * np.cos(2.0 * np.pi * x2)[:, :, None] * prof
    u2 = 0.2 * np.sin(2.0 * np.pi * x1)[:, :, None] * (2.0 - prof)
    return initial.diagnosed_state(grid, 0.0, xi, u1, u2, p.xi_floor)


def _rounds(fn, make_args, calls: int) -> list:
    """Mean seconds per call in each of ROUNDS rounds of `calls` calls."""
    fn(*make_args())  # warm-up
    secs = []
    for _ in range(ROUNDS):
        args = [make_args() for _ in range(calls)]
        t0 = perf_counter()
        for a in args:
            fn(*a)
        secs.append((perf_counter() - t0) / calls)
    return secs


def _row(label: str, name: str, secs: list, cells) -> None:
    """Print the fastest round in ms and ns/cell, and keep every round."""
    sec = min(secs)
    per_cell = f"{sec * 1e9 / cells:8.1f}" if cells else f"{'-':>8}"
    print(f"{label:>10} {name:>20} {sec * 1e3:9.3f} {per_cell}")
    ROWS.append({"grid": label, "call": name, "cells": cells, "seconds": secs})


def _construction_rows(states, solver, initial, GridSpec, header: str) -> None:
    """`ModelState.from_values` on fresh read-only arrays that own their data.

    A batch is the state of one run with a member axis of the given length
    before each field; ns/cell counts the cells of every member.
    """
    print()
    print("state construction: ModelState.from_values on fresh read-only arrays")
    print(header)
    p = solver.Params(nu=0.01, r=0.5)
    for members, dims in CONSTRUCTION:
        g = GridSpec(*dims)
        s = _state(g, p, initial)
        fields = [getattr(s, name).values for name in ("xi", "u1", "u2", "w")]
        if members is not None:
            fields = [np.stack([f] * members) for f in fields]
            dims = (members, *dims)

        def fresh():
            arrays = [f.copy() for f in fields]
            for a in arrays:
                a.setflags(write=False)
            return (g, s.t, *arrays)

        secs = _rounds(states.ModelState.from_values, fresh, CONSTRUCTION_CALLS)
        _row("x".join(map(str, dims)), "from_values", secs, math.prod(dims))


def _study_rows(verify, solver, initial, GridSpec) -> None:
    """Whole stability studies: one batch of all runs against batches of one.

    The inputs are those of the `study-perturbation` workload (a reference
    and five perturbed runs, t_end 0.2 on the two small grids, 0.05 on
    64x64x16 to keep the row short). `verify.BATCH_CELLS` is set for each
    form and restored. After a warm-up of each, the two forms are timed in
    turn, PAIRED times each, and each keeps its fastest, so the heap state
    and the host load weigh on both alike.
    """
    print()
    print("one stability study: all runs as one batch against batches of one")
    print(
        f"{'grid':>10} {'runs':>4} {'batch ms':>9} {'singles ms':>10}"
        f" {'ratio':>6} {'committed batch':>15}"
    )
    p = solver.Params(nu=0.01, r=0.5)
    spec = initial.InitialSpec(profile="smooth-flow", amplitude=0.1, u_amplitude=0.25)
    committed = verify.BATCH_CELLS
    try:
        for dims, t_end in STUDY_GRIDS:
            g = GridSpec(*dims)
            ref = initial.build_initial(g, spec, p)
            pert = [verify.perturbed_density(ref, a) for a in STUDY_AMPLITUDES]
            cfg = solver.SolverConfig(t_end=t_end, dump_every=2)
            cells = g.nx1 * g.nx2 * g.nz
            runs = 1 + len(pert)

            def study(batch_cells) -> float:
                verify.BATCH_CELLS = batch_cells
                t0 = perf_counter()
                verify.stability_study(ref, pert, STUDY_AMPLITUDES, p, cfg)
                return perf_counter() - t0

            for batch_cells in (runs * cells, 1):  # warm-up
                study(batch_cells)
            batch, singles = [], []
            for _ in range(PAIRED):
                batch.append(study(runs * cells))
                singles.append(study(1))
            sec, seq = min(batch), min(singles)
            size = min(runs, max(1, committed // cells))
            label = "x".join(map(str, dims))
            print(
                f"{label:>10} {runs:4d} {sec * 1e3:9.1f} {seq * 1e3:10.1f}"
                f" {sec / seq:6.2f} {size:15d}"
                + ("  study-perturbation" if dims == STUDY_GRID else "")
            )
            # ns/cell of a whole study counts the cells of every run
            ROWS.append({"grid": label, "call": "study batch", "cells": runs * cells,
                         "seconds": batch})
            ROWS.append({"grid": label, "call": "study singles", "cells": runs * cells,
                         "seconds": singles})
    finally:
        verify.BATCH_CELLS = committed


def _end_to_end(cli, verify, solver, initial, GridSpec, workloads) -> list:
    """In-process end-to-end runs: seconds per round and step counts.

    Each run is warmed up once, then timed E2E_ROUNDS times; `steps` reads
    each round's result outside the timed region.
    """
    runs = []

    def timed(name, fn, steps):
        steps(fn())  # warm-up
        secs = []
        for _ in range(E2E_ROUNDS):
            t0 = perf_counter()
            out = fn()
            secs.append(perf_counter() - t0)
            count = steps(out)
        runs.append({"name": name, "steps": count, "seconds": secs})
        print(f"{name:>31} {min(secs):9.3f} {statistics.median(secs):9.3f}  {count}")

    print()
    print(f"{'end to end':>31} {'best s':>9} {'median s':>9}  steps")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "quickstart.cfg"
        cfg.write_text(workloads.QUICKSTART_CONFIG)

        out = Path(tmp) / "out"

        def simulate():
            argv = ["simulate", "--config", str(cfg), "--output.dir", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"simulate exited {code}")
            return out

        def simulate_steps(out):
            # the last dump is named for the last step; the round's dumps go
            dumps = sorted(out.glob("fields_*.cpe"))
            shutil.rmtree(out)
            return int(dumps[-1].stem.split("_")[1])

        timed("quick-start simulate", simulate, simulate_steps)

    dims, levels, t_end, cfl = CRITERION_02
    p = solver.Params(nu=0.01, r=0.5)
    timed(
        "criterion 02 mms_convergence",
        lambda: verify.mms_convergence(GridSpec(*dims), p, t_end=t_end, levels=levels, cfl=cfl),
        lambda report: [lvl.steps for lvl in report.levels],
    )

    spec = initial.InitialSpec(profile="smooth-flow", amplitude=0.1, u_amplitude=0.25)
    ref = initial.build_initial(GridSpec(*STUDY_GRID), spec, p)
    pert = [verify.perturbed_density(ref, a) for a in STUDY_AMPLITUDES]
    cfg = solver.SolverConfig(t_end=0.2, dump_every=2)

    def study_steps(table):
        # the steps of each run on the shared dt, as `dump_states` takes them
        t = steps = 0
        while t < cfg.t_end - cfg.t_tol:
            t += min(table.dt, cfg.t_end - t)
            steps += 1
        return steps

    timed(
        "study-perturbation study",
        lambda: verify.stability_study(ref, pert, STUDY_AMPLITUDES, p, cfg),
        study_steps,
    )
    return runs


def _record(path: Path, kernels: dict, reference_s: float, runs: list) -> None:
    """Write the BENCH file: machine facts, kernel times, rows and runs."""
    import sympy

    scale = reference_s / statistics.mean(kernels["before"] + kernels["after"])

    def summary(secs, unit, per):
        best, median = min(secs), statistics.median(secs)
        return {
            f"best_{unit}": best * per,
            f"median_{unit}": median * per,
            f"best_{unit}_scaled": best * per * scale,
            f"median_{unit}_scaled": median * per * scale,
        }

    rows = []
    for row in ROWS:
        entry = {"grid": row["grid"], "call": row["call"], "cells": row["cells"]}
        entry.update(summary(row["seconds"], "ms", 1e3))
        if row["cells"]:
            entry.update(summary(row["seconds"], "ns_per_cell", 1e9 / row["cells"]))
        entry["seconds"] = row["seconds"]
        rows.append(entry)
    end_to_end = []
    for run in runs:
        entry = {"name": run["name"], "steps": run["steps"]}
        entry.update(summary(run["seconds"], "s", 1.0))
        entry["seconds"] = run["seconds"]
        end_to_end.append(entry)
    bench = {
        "machine": {
            "cores": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "sympy": sympy.__version__,
        },
        "kernel_s": {"reference_s": reference_s, **kernels, "scale": scale},
        "rows": rows,
        "end_to_end": end_to_end,
    }
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {path.name}")


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="?", default=str(here.parent / "src"))
    ap.add_argument("--record", type=int, metavar="N", help="write BENCH_N.json")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from cpesim import cli, diagnostics, initial, mms, solver, states, verify
    from cpesim.grid import GridSpec

    sys.path.insert(0, str(here.parent / "perfbench"))
    import calibrate
    import workloads

    kernels = {"before": [calibrate.kernel_s() for _ in range(KERNEL_RUNS)]}
    where = Path(solver.__file__).resolve().parent
    print(f"cpesim from {where}, numpy {np.__version__}")
    header = f"{'grid':>10} {'call':>20} {'ms/call':>9} {'ns/cell':>8}"
    print(header)
    for dims in GRIDS:
        g = GridSpec(*dims)
        p = solver.Params(nu=0.01, r=0.5)
        s = _state(g, p, initial)
        xi = s.xi.values
        m = solver.momentum(s)
        dt = 0.5 * solver.cfl_dt(s, p, 1.0)

        def fresh_stage():
            return (g, s.t, xi.copy(), m[0].copy(), m[1].copy(), p)

        cases = (
            ("step", solver.step, lambda: (s, p, dt)),
            ("rhs_xi", solver.rhs_xi, lambda: (g, *m)),
            ("rhs_momentum", solver.rhs_momentum, lambda: (g, s, p, m)),
            ("diagnostic_w", solver.diagnostic_w, lambda: (g, xi, *m, p.xi_floor)),
            ("_assemble", solver._assemble, fresh_stage),
            ("cfl_dt", solver.cfl_dt, lambda: (s, p, 1.0)),
            ("snapshot_reports", diagnostics.snapshot_reports, lambda: (s, p)),
        )
        cells = g.nx1 * g.nx2 * g.nz
        label = "x".join(map(str, dims))
        for name, fn, make_args in cases:
            _row(label, name, _rounds(fn, make_args, CALLS[dims]), cells)

    _construction_rows(states, solver, initial, GridSpec, header)

    _study_rows(verify, solver, initial, GridSpec)

    print()
    print(header)
    g = GridSpec(*MMS_GRID)
    p = solver.Params(nu=0.01, r=0.5)
    key = (g.lx1, g.lx2, g.h, p)
    _row("-", "Derivation", _rounds(mms.Derivation, lambda: key, 1), None)
    d = mms.Derivation(*key)
    ms = mms.ManufacturedSolution(g, p, derivation=d)
    cells = g.nx1 * g.nx2 * g.nz
    label = "x".join(map(str, MMS_GRID))
    for name, fn, make_args, calls in (
        ("ManufacturedSolution", mms.ManufacturedSolution, lambda: (g, p, d), 1),
        ("source", ms.source, lambda: (0.01,), MMS_CALLS),
        ("state_at", ms.state_at, lambda: (0.01,), MMS_CALLS),
    ):
        _row(label, name, _rounds(fn, make_args, calls), cells)

    if args.record is not None:
        runs = _end_to_end(cli, verify, solver, initial, GridSpec, workloads)
        kernels["after"] = [calibrate.kernel_s() for _ in range(KERNEL_RUNS)]
        path = here.parent / f"BENCH_{args.record}.json"
        _record(path, kernels, calibrate.REFERENCE_S, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
