"""Per-layer timings of the stepping path, the snapshot pass and the MMS.

    python3 tools/step_profile.py [SRC]

Imports `cpesim` from SRC (default: the `src/` beside this directory) and
prints, at 32x32x16, 64x64x16 (the README quick-start grid) and 64x64x32,
the fastest of 5 timed rounds in ms per call and in ns per cell, for
`step`, `rhs_momentum`, `diagnostic_w`, `_assemble`, `cfl_dt` and
`snapshot_reports`. State construction follows: `ModelState.from_values`
on fresh read-only arrays, the form `_assemble` passes, so the state
adopts them without a copy, at 64x64x16 and on a batch of six 32x32x8
runs. Then it times whole `verify.stability_study` calls
on the `study-perturbation` inputs (six runs) at 16x16x4, 32x32x8 (the
workload's grid) and 64x64x16, in two forms: all runs as one batch, and
every run as a batch of one; `verify.BATCH_CELLS` is chosen from these
rows, and the last column gives the runs per batch under its committed
value. A checkout without batched studies skips these rows. For the
manufactured solution it prints a warm sympy `Derivation` build (once the
first one has filled sympy's caches) and `ManufacturedSolution.source` at
96x96x48, the finest grid of the `mms-hierarchy` benchmark workload.
Point it at two checkouts to compare them on one host. It needs numpy and
sympy, writes no files, runs in one process and is not part of the test
suite.
"""

from __future__ import annotations

import argparse
import math
import sys
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


def _best(fn, make_args, calls: int) -> float:
    """Fastest mean seconds per call over ROUNDS rounds of `calls` calls."""
    fn(*make_args())  # warm-up
    best = float("inf")
    for _ in range(ROUNDS):
        args = [make_args() for _ in range(calls)]
        t0 = perf_counter()
        for a in args:
            fn(*a)
        best = min(best, (perf_counter() - t0) / calls)
    return best


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

        sec = _best(states.ModelState.from_values, fresh, CONSTRUCTION_CALLS)
        cells = math.prod(dims)
        label = "x".join(map(str, dims))
        print(f"{label:>10} {'from_values':>18} {sec * 1e3:9.3f} {sec * 1e9 / cells:8.1f}")


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
            sec = seq = float("inf")
            for _ in range(PAIRED):
                sec = min(sec, study(runs * cells))
                seq = min(seq, study(1))
            size = min(runs, max(1, committed // cells))
            label = "x".join(map(str, dims))
            print(
                f"{label:>10} {runs:4d} {sec * 1e3:9.1f} {seq * 1e3:10.1f}"
                f" {sec / seq:6.2f} {size:15d}"
                + ("  study-perturbation" if dims == STUDY_GRID else "")
            )
    finally:
        verify.BATCH_CELLS = committed


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="?", default=str(here.parent / "src"))
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from cpesim import diagnostics, initial, mms, solver, states, verify
    from cpesim.grid import GridSpec

    where = Path(solver.__file__).resolve().parent
    print(f"cpesim from {where}, numpy {np.__version__}")
    header = f"{'grid':>10} {'call':>18} {'ms/call':>9} {'ns/cell':>8}"
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
            ("rhs_momentum", solver.rhs_momentum, lambda: (g, s, p, m)),
            ("diagnostic_w", solver.diagnostic_w, lambda: (g, xi, *m, p.xi_floor)),
            ("_assemble", solver._assemble, fresh_stage),
            ("cfl_dt", solver.cfl_dt, lambda: (s, p, 1.0)),
            ("snapshot_reports", diagnostics.snapshot_reports, lambda: (s, p)),
        )
        cells = g.nx1 * g.nx2 * g.nz
        label = "x".join(map(str, dims))
        for name, fn, make_args in cases:
            sec = _best(fn, make_args, CALLS[dims])
            print(f"{label:>10} {name:>18} {sec * 1e3:9.3f} {sec * 1e9 / cells:8.1f}")

    _construction_rows(states, solver, initial, GridSpec, header)

    if hasattr(verify, "BATCH_CELLS"):
        _study_rows(verify, solver, initial, GridSpec)
    else:
        print("no batched studies in this checkout: study rows skipped")

    print()
    print(header)
    g = GridSpec(*MMS_GRID)
    p = solver.Params(nu=0.01, r=0.5)
    key = (g.lx1, g.lx2, g.h, p)
    sec = _best(mms.Derivation, lambda: key, 1)
    print(f"{'-':>10} {'Derivation':>18} {sec * 1e3:9.3f} {'-':>8}")
    ms = mms.ManufacturedSolution(g, p)
    sec = _best(ms.source, lambda: (0.01,), MMS_CALLS)
    cells = g.nx1 * g.nx2 * g.nz
    label = "x".join(map(str, MMS_GRID))
    print(f"{label:>10} {'source':>18} {sec * 1e3:9.3f} {sec * 1e9 / cells:8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
