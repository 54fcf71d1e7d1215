"""Verification studies built on top of the solver.

Three harnesses:

* stability_study: twin runs from perturbed initial data on a shared time
  grid, stepped in lockstep, measuring how solution distances shrink with
  the perturbation amplitude (the desk-scale realization of the stability
  half of the well-posedness theory). Runs are stacked into states with a
  leading member axis and stepped as batches, a large run as a batch of
  one; a state may carry such an axis on the stepping path only, and each
  run's distances come from its own slice.
* transform_check: maps a model trajectory to the physical stratified
  variables as it streams and evaluates the residuals that vanish there.
* mms_convergence: manufactured-solution runs over a grid hierarchy,
  reporting observed orders.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .grid import GridSpec, lp_norm
from .initial import diagnosed_state
from .mms import ManufacturedSolution
from .solver import Params, SolverConfig, cfl_dt, dump_states, momentum
from .states import (
    ModelState,
    hydrostatic_residual,
    model_to_physical,
    physical_mass_residual,
    stratification_residual,
    y_levels,
)


@dataclass
class StabilityRow:
    """Distances of one perturbed run to the reference run.

    xi_sup_l32        sup over snapshots of the L^(3/2) distance of xi
    velocity_l2_l32   L^2-in-time of the L^(3/2) distance of sqrt(xi) u
    momentum_l1_l1    L^1-in-time of the L^1 distance of xi u
    monotone          row-wise flag: every metric decreased from the
                      previous row (flagged, not enforced)
    """

    amplitude: float
    xi_sup_l32: float
    velocity_l2_l32: float
    momentum_l1_l1: float
    monotone: bool = True


@dataclass
class StabilityTable:
    dt: float
    rows: List[StabilityRow]

    def non_monotone_rows(self) -> List[int]:
        return [i for i, row in enumerate(self.rows) if not row.monotone]


# Runs are stepped in batches (`ModelState.stack`) of up to this many cells
# in all; a run of this many cells or more is a batch of one. Per-call
# costs dominate a step on a small grid, and a batch pays them once; a
# batch's passes over a large grid leave the cache. The whole-study rows
# of tools/step_profile.py (the `study-perturbation` inputs, six runs;
# six runs on 2 cores) time one batch of all six at 0.29-0.39 times the
# cost of six batches of one at 16x16x4, 0.69-0.89 at 32x32x8, and
# 1.29-1.49 at 64x64x16, where this constant makes each run a batch of one.
BATCH_CELLS = 2**16


def _observables(state: ModelState) -> List[tuple]:
    # (xi, sqrt(xi) u1, sqrt(xi) u2, xi u1, xi u2) of each member, as views:
    # elementwise, so a member's bits are those of its own run
    sq = np.sqrt(state.xi.values)[..., None]
    fields = (
        state.xi.values,
        sq * state.u1.values,
        sq * state.u2.values,
        *momentum(state),
    )
    return list(zip(*fields))


def _distances(grid: GridSpec, run: tuple, ref: tuple) -> Tuple[float, float, float]:
    # one run's three distances to the reference, from `_observables`
    xi, v1, v2, m1, m2 = run
    rxi, rv1, rv2, rm1, rm2 = ref
    return (
        grid.h ** (2.0 / 3.0) * lp_norm(grid, xi - rxi, 1.5),
        lp_norm(grid, np.sqrt((v1 - rv1) ** 2 + (v2 - rv2) ** 2), 1.5),
        lp_norm(grid, np.abs(m1 - rm1) + np.abs(m2 - rm2), 1),
    )


def stability_study(
    reference: ModelState,
    perturbed: Sequence[ModelState],
    amplitudes: Sequence[float],
    p: Params,
    cfg: SolverConfig,
) -> StabilityTable:
    """Run the reference and each perturbed initial state to t_end.

    All runs share one fixed time step (the tightest initial CFL bound
    among them, with margin) and are stepped in lockstep, so states are
    compared at identical times as they arrive and each run holds only its
    current state. Runs are stepped as batches of up to BATCH_CELLS cells
    (a larger run as a batch of one), each member with its own run's
    arithmetic, so the table does not depend on the batching. Every state
    must be a single run on the reference's grid at the reference's time.
    Amplitudes must be strictly decreasing; rows where a distance fails to
    decrease are flagged rather than rejected.
    """
    if len(perturbed) != len(amplitudes):
        raise ValueError("one amplitude per perturbed state required")
    if len(perturbed) < 2:
        raise ValueError("need at least two perturbed states")
    if any(b >= a for a, b in zip(amplitudes, amplitudes[1:])):
        raise ValueError("amplitudes must be strictly decreasing")
    grid = reference.grid
    runs = (reference, *perturbed)
    for s in runs:
        s.require_single("stability_study")
        if s.grid != grid or s.t != reference.t:
            raise ValueError("perturbed states must share the reference's grid and t")

    size = max(1, BATCH_CELLS // (grid.nx1 * grid.nx2 * grid.nz))
    batches = [runs[i : i + size] for i in range(0, len(runs), size)]
    starts = [ModelState.stack(b) for b in batches]
    if cfg.dt_fixed is not None:
        dt = cfg.dt_fixed
    else:
        # a batch's bound is the minimum over its members, to the bit
        dt = 0.8 * min(cfl_dt(s, p, cfg.cfl) for s in starts)
    shared = replace(cfg, dt_fixed=dt)
    streams = [dump_states(s, p, shared) for s in starts]
    del starts  # the streams let each go after its first step

    times: List[float] = []
    dists: List[list] = [[] for _ in perturbed]  # per run: one triple per instant
    for instants in zip(*streams, strict=True):
        t = instants[0].state.t
        times.append(t)
        found = []  # the perturbed runs' triples, in batch order
        for k, instant in enumerate(instants):
            s = instant.state
            if abs(s.t - t) > cfg.t_tol:
                raise RuntimeError("perturbed run lost time alignment")
            members = _observables(s)
            if k == 0:  # the reference leads the first batch
                ref = members.pop(0)
            found += [_distances(grid, run, ref) for run in members]
            del members  # before the next batch's fields are formed
        for d, triple in zip(dists, found, strict=True):
            d.append(triple)
    rows = []
    for amp, d in zip(amplitudes, dists):
        xi_d, vel_d, mom_d = np.asarray(d).T
        vel_l2 = math.sqrt(np.trapezoid(vel_d**2, times))
        mom_l1 = float(np.trapezoid(mom_d, times))
        rows.append(StabilityRow(amp, float(np.max(xi_d)), vel_l2, mom_l1))
    for prev, row in zip(rows, rows[1:]):
        row.monotone = (
            row.xi_sup_l32 < prev.xi_sup_l32
            and row.velocity_l2_l32 < prev.velocity_l2_l32
            and row.momentum_l1_l1 < prev.momentum_l1_l1
        )
    return StabilityTable(dt=dt, rows=rows)


def perturbed_density(
    reference: ModelState,
    amplitude: float,
    xi_floor: float = Params.xi_floor,
) -> ModelState:
    """Reference state with a (1, 1) plan-density wave of the amplitude added.

    w is re-diagnosed from the perturbed density so the initial state
    satisfies the discrete compatibility relation.
    """
    grid = reference.grid
    x1, x2 = grid.meshgrid_2d()
    bump = amplitude * np.sin(2.0 * np.pi * x1 / grid.lx1) * np.cos(
        2.0 * np.pi * x2 / grid.lx2
    )
    xi = reference.xi.values + bump
    if np.any(xi <= 0.0):
        raise ValueError("perturbation drives xi nonpositive")
    return diagnosed_state(
        grid, reference.t, xi, reference.u1.values, reference.u2.values, xi_floor
    )


@dataclass
class TransformCheck:
    """Residuals of a trajectory mapped to physical coordinates."""

    stratification_residual: float
    hydrostatic_residual: float
    mass_residual_l2: float
    snapshots: int


def _mass_residual_norm(grid: GridSpec, residual: np.ndarray) -> float:
    _, yf = y_levels(grid)
    dy = (yf[1:] - yf[:-1])[None, None, :]
    return float(np.sqrt(np.sum(residual**2 * grid.cell_area * dy)))


def transform_check(stream: Iterable) -> TransformCheck:
    """Map each state of a stream to (rho, u, v) and evaluate the residuals.

    Takes any iterable of items with a `.state` (`dump_states`,
    `trajectory`, a `RunResult`). Stratification and hydrostatic residuals
    are maxima over the states; the mass-equation residual is the max over
    interior states of its volume-weighted L2 norm, by three-point time
    differences over a window of the last three physical states.
    """
    strat = hydro = mass = 0.0
    window = deque(maxlen=3)  # the last three physical states
    count = 0
    for count, item in enumerate(stream, start=1):
        ps = model_to_physical(item.state)
        strat = max(strat, stratification_residual(ps))
        hydro = max(hydro, hydrostatic_residual(ps))
        window.append(ps)
        if len(window) == 3:
            field = physical_mass_residual(*window)
            mass = max(mass, _mass_residual_norm(ps.grid, field))
    return TransformCheck(strat, hydro, mass, count)


@dataclass
class MmsLevel:
    grid: GridSpec
    err_xi: float
    err_u: float
    steps: int


@dataclass
class MmsReport:
    levels: List[MmsLevel]
    orders_xi: List[float]
    orders_u: List[float]


def refine(grid: GridSpec) -> GridSpec:
    return replace(grid, nx1=2 * grid.nx1, nx2=2 * grid.nx2, nz=2 * grid.nz)


def mms_convergence(
    base: GridSpec,
    p: Params,
    t_end: float,
    levels: int = 2,
    cfl: float = 0.4,
) -> MmsReport:
    """Manufactured-solution errors across a factor-2 grid hierarchy."""
    if levels < 2:
        raise ValueError("need at least two levels to observe an order")
    grids = [base]
    for _ in range(levels - 1):
        grids.append(refine(grids[-1]))
    cfg = SolverConfig(t_end=t_end, cfl=cfl, dump_every=10**9)
    if cfg.t_end <= cfg.t_tol:
        raise ValueError(f"t_end = {t_end} takes no step")
    out: List[MmsLevel] = []
    # the symbolic derivation depends on the box, not the cell counts: the
    # first level builds it and every finer level reuses it
    derivation = None
    for g in grids:
        ms = ManufacturedSolution(g, p, derivation=derivation)
        derivation = ms.derivation
        instants = dump_states(ms.state_at(0.0), p, cfg, source=ms.source)
        next(instants)  # the initial state: nothing holds it past the first step
        for last in instants:
            pass
        err_xi, err_u = ms.errors(last.state)
        out.append(MmsLevel(grid=g, err_xi=err_xi, err_u=err_u, steps=last.step_index))
    orders_xi = [
        math.log2(a.err_xi / b.err_xi) for a, b in zip(out, out[1:])
    ]
    orders_u = [math.log2(a.err_u / b.err_u) for a, b in zip(out, out[1:])]
    return MmsReport(levels=out, orders_xi=orders_xi, orders_u=orders_u)
