"""The linearised spectrum of the stepped scheme, probe by probe.

    python3 tools/spectrum.py [SRC]

Imports `cpesim` from SRC (default: the `src/` beside this directory). For
each probe it forms the dense Jacobian of the stage right-hand side by
central differences (eps = 1e-6) in the unknowns (xi, xi u1, xi u2) that
`step` advances: `_assemble` recovers u and diagnoses w and hands back the
mass tendency, and `rhs_momentum` gives the momentum tendency. Then it
prints, from `np.linalg.eigvals`:

- the cell Reynolds number sqrt(kappa) dx / nu;
- the count of null modes, |lambda| <= 1e-8 max|lambda| (3 are physical:
  mass and the two mean momenta);
- max Re lambda, relative to max|lambda|;
- the `cfl_dt` bound that binds at cfl 0.4 (the default) and at cfl 1
  (`StepBounds.binding` of `solver.step_bounds`; in an older checkout the
  Courant caps scaled by cfl and Heun's limits by `solver.HEUN_FRACTION`,
  or by cfl without it; "-" in a checkout without `step_bounds`);
- the largest multiple, in steps of 0.001 up to 4, of the step
  `cfl_dt(state, p, 1.0)` that keeps Heun's |1 + z + z^2/2| <= 1 + 1e-12
  at z = dt lambda over the decaying modes (Re lambda <= 0). A value of 1
  or more means the step is stable at every cfl the solver accepts; about
  2 where a Heun limit binds at cfl 1, which `cfl_dt` takes at its half.

"rest" is xi = 1, u = 0 and r = 0. "flow" is
xi = 1 + 0.15 sin(2 pi x1) cos(2 pi x2), u1 = 0.25 sin(2 pi x2) cos(pi z/h),
u2 = 0.25 sin(2 pi x1) and r = 0.5; it is not a steady state, so its
linearisation may grow. kappa = 1 throughout. The probes take 8x8x4 (576
unknowns, under a second each) and 16x16x4 (2,304 unknowns, several
seconds each and a 42 MB Jacobian); the table takes about 26 s on 2 cores.
It writes no files and is not part of the test suite.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

EPS = 1e-6
# (kind, grid, nu)
PROBES = (
    ("rest", (8, 8, 4), 0.01),
    ("flow", (8, 8, 4), 0.01),
    ("rest", (8, 8, 4), 0.002),
    ("flow", (8, 8, 4), 0.002),
    ("rest", (16, 16, 4), 0.01),
    ("rest", (16, 16, 4), 0.002),
    ("flow", (16, 16, 4), 0.002),
    ("rest", (16, 16, 4), 0.0005),
    ("rest", (16, 16, 4), 0.0001),
)
MULTIPLES = np.arange(1, 4001) / 1000.0


def _probe(solver, ModelState, GridSpec, kind, dims, nu):
    g = GridSpec(*dims)
    if kind == "rest":
        p = solver.Params(nu=nu, r=0.0, kappa=1.0)
        xi = np.ones((g.nx1, g.nx2))
        u1 = u2 = np.zeros((g.nx1, g.nx2, g.nz))
    else:
        p = solver.Params(nu=nu, r=0.5, kappa=1.0)
        x1, x2 = g.meshgrid_2d()
        xi = 1.0 + 0.15 * np.sin(2.0 * np.pi * x1) * np.cos(2.0 * np.pi * x2)
        prof = np.cos(np.pi * g.z_centers() / g.h)
        u1 = 0.25 * np.sin(2.0 * np.pi * x2)[:, :, None] * prof
        u2 = np.repeat(0.25 * np.sin(2.0 * np.pi * x1)[:, :, None], g.nz, -1)
    m = solver.momentum_density(xi, u1, u2)
    w = solver.diagnostic_w(g, xi, *m, p.xi_floor)
    return g, p, ModelState.from_values(g, 0.0, xi, u1, u2, w)


def _rhs(solver, g, p, y):
    n = g.nx1 * g.nx2
    xi = y[:n].reshape(g.nx1, g.nx2).copy()
    m1, m2 = (part.reshape(g.nx1, g.nx2, g.nz).copy() for part in np.split(y[n:], 2))
    state, m, dxi, _ = solver._assemble(g, 0.0, xi, m1, m2, p)
    dm1, dm2 = solver.rhs_momentum(g, state, p, m)
    return np.concatenate([dxi.ravel(), dm1.ravel(), dm2.ravel()])


def _spectrum(solver, g, p, s):
    y = np.concatenate([s.xi.values.ravel(), *(a.ravel() for a in solver.momentum(s))])
    jac = np.empty((y.size, y.size))
    for k in range(y.size):
        e = np.zeros(y.size)
        e[k] = EPS
        diff = _rhs(solver, g, p, y + e) - _rhs(solver, g, p, y - e)
        jac[:, k] = diff / (2.0 * EPS)
    return np.linalg.eigvals(jac)


def _stable_multiple(solver, s, p, lam):
    # the last multiple of the cfl-1 step before the first that leaves
    # Heun's region
    decaying = lam[lam.real <= 0.0]
    dt1 = solver.cfl_dt(s, p, 1.0)
    for k in MULTIPLES:
        z = k * dt1 * decaying
        if np.max(np.abs(1.0 + z + z**2 / 2.0)) > 1.0 + 1e-12:
            return f"{k - MULTIPLES[0]:.3f}"
    return f">= {MULTIPLES[-1]:.3f}"


def _binds(solver, s, p, cfl):
    # the bound whose share of the step is least at this cfl
    if not hasattr(solver, "step_bounds"):
        return "-"
    bounds = solver.step_bounds(s, p)
    if hasattr(bounds, "binding"):
        return bounds.binding(cfl)[1]
    # a checkout whose bounds do not name their binding field
    heun = getattr(solver, "HEUN_FRACTION", cfl)
    steps = [cfl * b for b in bounds[:2]] + [heun * b for b in bounds[2:]]
    return bounds._fields[int(np.argmin(steps))]


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="?", default=str(here.parent / "src"))
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from cpesim import solver
    from cpesim.grid import GridSpec
    from cpesim.states import ModelState

    where = Path(solver.__file__).resolve().parent
    print(f"cpesim from {where}, numpy {np.__version__}")
    print(
        f"{'probe':>5} {'grid':>8} {'nu':>7} {'Re_cell':>7} {'null':>4} "
        f"{'maxRe/max|l|':>12} {'binds@0.4':>10} {'binds@1':>10} {'stable x dt1':>12}"
    )
    for kind, dims, nu in PROBES:
        g, p, s = _probe(solver, ModelState, GridSpec, kind, dims, nu)
        lam = _spectrum(solver, g, p, s)
        scale = np.max(np.abs(lam))
        null = np.count_nonzero(np.abs(lam) <= 1e-8 * scale)
        re_cell = math.sqrt(p.kappa) * min(g.dx1, g.dx2) / p.nu
        label = "x".join(map(str, dims))
        print(
            f"{kind:>5} {label:>8} {nu:>7g} {re_cell:7.1f} {null:4d} "
            f"{np.max(lam.real) / scale:12.3e} {_binds(solver, s, p, 0.4):>10} "
            f"{_binds(solver, s, p, 1.0):>10} {_stable_multiple(solver, s, p, lam):>12}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
