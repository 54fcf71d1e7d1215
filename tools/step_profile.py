"""Per-layer timings of the stepping path, the snapshot pass and the MMS.

    python3 tools/step_profile.py [SRC]

Imports `cpesim` from SRC (default: the `src/` beside this directory) and
prints, at 32x32x16, 64x64x16 (the README quick-start grid) and 64x64x32,
the fastest of 5 timed rounds in ms per call and in ns per cell, for
`step`, `rhs_momentum`, `diagnostic_w`, `_assemble`, `cfl_dt` and
`snapshot_reports`. Then it times batched steps (one `step` of a state
with a member axis, as the stability study takes them) against as many
runs stepped in turn, in ms per call and in ns per cell, for 1 to 32
members at 16x16x4, 32x32x8 and 64x64x16; `verify.BATCH_CELLS` is chosen
from them.
The 6-member 32x32x8 row is the `study-perturbation` workload's batch; a
checkout without batches skips these rows. For the manufactured solution
it prints a warm sympy `Derivation` build (once the first one has filled
sympy's caches) and `ManufacturedSolution.source` at 96x96x48, the finest
grid of the `mms-hierarchy` benchmark workload. Point it at two checkouts
to compare them on one host. It needs numpy and sympy, writes no
files, runs in one process and is not part of the test suite.
"""

from __future__ import annotations

import argparse
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
BATCH_GRIDS = ((16, 16, 4), (32, 32, 8), (64, 64, 16))
MEMBERS = (1, 2, 4, 6, 8, 16, 32)
BATCH_MAX_CELLS = 2**18  # larger batches are not timed
PAIRED = 3
STUDY_BATCH = ((32, 32, 8), 6)  # the study-perturbation workload's batch


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


def _batched_rows(solver, initial, GridSpec, ModelState) -> None:
    """One step of an n-member batch against one step of n runs in turn.

    The n runs are distinct copies of one state, each kept until all have
    stepped, as the stability study keeps its runs. Batch and runs are
    timed in turn, PAIRED times each, and each keeps its fastest, so the
    heap state and the host load weigh on both alike.
    """
    print()
    print("one step of an n-member batch against one step of n runs")
    print(
        f"{'grid':>10} {'members':>7} {'batch ms':>9} {'singles ms':>10}"
        f" {'batch ns/cell':>13} {'single ns/cell':>14}"
    )
    p = solver.Params(nu=0.01, r=0.5)

    def singles(*runs):
        return [solver.step(run, p, dt) for run in runs]

    for dims in BATCH_GRIDS:
        g = GridSpec(*dims)
        s = _state(g, p, initial)
        dt = 0.5 * solver.cfl_dt(s, p, 1.0)
        cells = g.nx1 * g.nx2 * g.nz
        label = "x".join(map(str, dims))
        for n in MEMBERS:
            if n * cells > BATCH_MAX_CELLS:
                break
            batch = ModelState.stack([s] * n)
            fields = [getattr(s, f).values for f in ("xi", "u1", "u2", "w")]
            runs = [
                ModelState.from_values(g, s.t, *(a.copy() for a in fields))
                for _ in range(n)
            ]
            calls = max(1, 2**16 // (n * cells))
            sec = seq = float("inf")
            for _ in range(PAIRED):
                sec = min(sec, _best(solver.step, lambda: (batch, p, dt), calls))
                seq = min(seq, _best(singles, lambda: runs, calls))
            print(
                f"{label:>10} {n:7d} {sec * 1e3:9.3f} {seq * 1e3:10.3f}"
                f" {sec * 1e9 / (n * cells):13.1f} {seq * 1e9 / (n * cells):14.1f}"
                + ("  study-perturbation" if (dims, n) == STUDY_BATCH else "")
            )


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="?", default=str(here.parent / "src"))
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from cpesim import diagnostics, initial, mms, solver
    from cpesim.grid import GridSpec
    from cpesim.states import ModelState

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

    if hasattr(ModelState, "stack"):
        _batched_rows(solver, initial, GridSpec, ModelState)
    else:
        print("no batched states in this checkout: batched rows skipped")

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
