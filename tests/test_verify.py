"""Verification harnesses: perturbation studies, transform checks, refinement."""

import dataclasses
import math
import weakref

import numpy as np
import pytest

from cpesim import verify
from cpesim.grid import GridSpec, lp_norm
from cpesim.initial import InitialSpec, build_initial
from cpesim.solver import (
    Params,
    SolverConfig,
    cfl_dt,
    diagnostic_w,
    dump_states,
    momentum,
    run,
    trajectory,
)
from cpesim.states import ModelState
from cpesim.verify import (
    StabilityRow,
    StabilityTable,
    mms_convergence,
    perturbed_density,
    refine,
    stability_study,
    transform_check,
)

P = Params(nu=0.01, r=0.5)


def _reference(grid):
    spec = InitialSpec(profile="smooth-flow", amplitude=0.1, u_amplitude=0.25)
    return build_initial(grid, spec, P)


def test_perturbed_density_adds_wave_and_rediagnoses_w():
    g = GridSpec(8, 8, 4)
    ref = _reference(g)
    s = perturbed_density(ref, 0.05)

    x1, x2 = g.meshgrid_2d()
    bump = 0.05 * np.sin(2.0 * np.pi * x1) * np.cos(2.0 * np.pi * x2)
    assert np.array_equal(s.xi.values, ref.xi.values + bump)
    assert np.array_equal(s.u1.values, ref.u1.values)
    assert np.array_equal(s.u2.values, ref.u2.values)
    assert s.t == ref.t

    # w must satisfy the discrete compatibility relation for the new xi,
    # not carry over the reference column integral
    w = diagnostic_w(g, s.xi.values, *momentum(s), P.xi_floor)
    assert np.array_equal(s.w.values, w)
    assert not np.array_equal(s.w.values, ref.w.values)


def test_perturbed_density_rejects_vacuum():
    g = GridSpec(8, 8, 4)
    with pytest.raises(ValueError, match="nonpositive"):
        perturbed_density(_reference(g), 1.5)


def test_stability_study_input_validation():
    g = GridSpec(8, 8, 4)
    ref = _reference(g)
    pert = [perturbed_density(ref, a) for a in (0.2, 0.1)]
    cfg = SolverConfig(t_end=0.01)
    with pytest.raises(ValueError, match="one amplitude per"):
        stability_study(ref, pert, [0.2], P, cfg)
    with pytest.raises(ValueError, match="at least two"):
        stability_study(ref, pert[:1], [0.2], P, cfg)
    with pytest.raises(ValueError, match="strictly decreasing"):
        stability_study(ref, pert, [0.1, 0.2], P, cfg)


def test_stability_study_distances_shrink_with_amplitude():
    g = GridSpec(8, 8, 4)
    ref = _reference(g)
    amps = [0.1, 0.05, 0.025]
    pert = [perturbed_density(ref, a) for a in amps]
    cfg = SolverConfig(t_end=0.05, dt_fixed=0.01)
    table = stability_study(ref, pert, amps, P, cfg)

    assert table.dt == 0.01
    assert [row.amplitude for row in table.rows] == amps
    for row in table.rows:
        assert row.xi_sup_l32 > 0.0
        assert row.velocity_l2_l32 > 0.0
        assert row.momentum_l1_l1 > 0.0
    assert table.non_monotone_rows() == []


def test_stability_study_shared_dt_from_cfl():
    g = GridSpec(8, 8, 4)
    ref = _reference(g)
    amps = [0.1, 0.05]
    pert = [perturbed_density(ref, a) for a in amps]
    cfg = SolverConfig(t_end=0.01, cfl=0.3)
    table = stability_study(ref, pert, amps, P, cfg)
    expected = 0.8 * min(cfl_dt(s, P, 0.3) for s in (ref, *pert))
    assert table.dt == expected


def _per_run_rows(ref, pert, amps, cfg):
    # reference: every run to the end on its own, then the distances to the
    # reference run snapshot by snapshot
    runs = [run(s, P, cfg) for s in (ref, *pert)]
    g = ref.grid
    times = np.asarray([snap.t for snap in runs[0].snapshots])
    rows = []
    for amp, res in zip(amps, runs[1:]):
        xi_d, vel_d, mom_d = [], [], []
        for snap, ref_snap in zip(res.snapshots, runs[0].snapshots, strict=True):
            a, b = snap.state, ref_snap.state
            xi_d.append(g.h ** (2.0 / 3.0) * lp_norm(g, a.xi.values - b.xi.values, 1.5))
            sa = np.sqrt(a.xi.values)[:, :, None]
            sb = np.sqrt(b.xi.values)[:, :, None]
            dv = np.sqrt(
                (sa * a.u1.values - sb * b.u1.values) ** 2
                + (sa * a.u2.values - sb * b.u2.values) ** 2
            )
            vel_d.append(lp_norm(g, dv, 1.5))
            xa, xb = a.xi.values[:, :, None], b.xi.values[:, :, None]
            dm = np.abs(xa * a.u1.values - xb * b.u1.values) + np.abs(
                xa * a.u2.values - xb * b.u2.values
            )
            mom_d.append(lp_norm(g, dm, 1))
        rows.append(
            StabilityRow(
                amplitude=amp,
                xi_sup_l32=float(np.max(xi_d)),
                velocity_l2_l32=float(
                    math.sqrt(np.trapezoid(np.asarray(vel_d) ** 2, times))
                ),
                momentum_l1_l1=float(np.trapezoid(np.asarray(mom_d), times)),
            )
        )
    for prev, row in zip(rows, rows[1:]):
        row.monotone = (
            row.xi_sup_l32 < prev.xi_sup_l32
            and row.velocity_l2_l32 < prev.velocity_l2_l32
            and row.momentum_l1_l1 < prev.momentum_l1_l1
        )
    return rows


def _study_inputs():
    g = GridSpec(8, 8, 4)
    ref = _reference(g)
    amps = [0.1, 0.05, 0.025]
    return ref, [perturbed_density(ref, a) for a in amps], amps


@pytest.mark.parametrize("batch_cells", [1, verify.BATCH_CELLS])
def test_lockstep_study_matches_per_run_distances(monkeypatch, batch_cells):
    # every run as a batch of one, and all runs as one batch
    monkeypatch.setattr(verify, "BATCH_CELLS", batch_cells)
    ref, pert, amps = _study_inputs()
    cfg = SolverConfig(t_end=0.05, dump_every=2)  # shared dt from the CFL bound
    table = stability_study(ref, pert, amps, P, cfg)
    shared = dataclasses.replace(cfg, dt_fixed=table.dt)
    assert table.rows == _per_run_rows(ref, pert, amps, shared)


def test_lockstep_study_holds_two_states_per_run(monkeypatch):
    # at each instant a run holds its initial state and its current one;
    # running the reference to the end first would keep all its snapshots
    ref, pert, amps = _study_inputs()
    runs = 1 + len(pert)
    created, live = [], []
    real_post_init = ModelState.__post_init__

    def tracked(self):
        real_post_init(self)
        created.append(weakref.ref(self))

    def spy(*args):
        live.append(runs + sum(r() is not None for r in created))
        return lp_norm(*args)

    monkeypatch.setattr(ModelState, "__post_init__", tracked)
    monkeypatch.setattr(verify, "lp_norm", spy)
    stability_study(ref, pert, amps, P, SolverConfig(t_end=0.05, dt_fixed=0.005))
    assert len(live) == 3 * len(pert) * 11  # three distances, 11 instants
    assert max(live) <= 2 * runs


def test_lockstep_study_detects_lost_alignment(monkeypatch):
    monkeypatch.setattr(verify, "BATCH_CELLS", 1)  # one stream per run
    ref, pert, amps = _study_inputs()
    real = verify.dump_states
    cfg = SolverConfig(t_end=0.02, dt_fixed=0.005)

    def late(initial, p, c):
        for i in real(initial, p, c):
            yield i._replace(state=dataclasses.replace(i.state, t=i.state.t + 1.0))

    def short(initial, p, c):
        yield from list(real(initial, p, c))[:-1]

    for broken, error in ((late, RuntimeError), (short, ValueError)):
        streams = iter((real, broken, real))
        monkeypatch.setattr(verify, "dump_states", lambda *a: next(streams)(*a))
        with pytest.raises(error):
            stability_study(ref, pert[:2], amps[:2], P, cfg)


def test_stability_study_refuses_states_off_the_reference_grid_or_time(monkeypatch):
    # a batch has one time: a perturbed state at another time must not be
    # stepped as if it were at the reference's, nor on another grid
    ref, pert, amps = _study_inputs()
    late = dataclasses.replace(pert[1], t=ref.t + 0.01)
    coarse = perturbed_density(_reference(GridSpec(8, 8, 2)), amps[1])
    steps = []
    monkeypatch.setattr(verify, "dump_states", lambda *a: steps.append(a))
    for bad in (late, coarse):
        with pytest.raises(ValueError, match="reference's grid and t"):
            stability_study(ref, [pert[0], bad], amps[:2], P, SolverConfig(t_end=0.02))
    assert steps == []


def test_non_monotone_rows_reports_indices():
    rows = [
        StabilityRow(0.2, 1.0, 1.0, 1.0),
        StabilityRow(0.1, 0.5, 0.5, 0.5, monotone=True),
        StabilityRow(0.05, 0.7, 0.2, 0.2, monotone=False),
    ]
    assert StabilityTable(dt=0.1, rows=rows).non_monotone_rows() == [2]


def test_refine_doubles_every_dimension():
    g = GridSpec(8, 10, 4, lx1=2.0, h=0.5)
    f = refine(g)
    assert (f.nx1, f.nx2, f.nz) == (16, 20, 8)
    assert f.lx1 == 2.0 and f.lx2 == 1.0 and f.h == 0.5


def test_mms_convergence_needs_two_levels():
    with pytest.raises(ValueError, match="two levels"):
        mms_convergence(GridSpec(8, 8, 4), P, t_end=0.01, levels=1)


def test_mms_convergence_needs_a_step():
    with pytest.raises(ValueError, match="takes no step"):
        mms_convergence(GridSpec(4, 4, 2), P, t_end=0.0, levels=2)


def test_transform_check_on_short_trajectory():
    g = GridSpec(8, 8, 4)
    ref = _reference(g)
    cfg = SolverConfig(t_end=0.03, dt_fixed=0.005)
    result = run(ref, P, cfg)
    chk = transform_check(result)
    # the snapshot stream and the bare state stream give the same report,
    # field for field
    assert transform_check(trajectory(ref, P, cfg)) == chk
    assert transform_check(dump_states(ref, P, cfg)) == chk

    assert chk.snapshots == len(result.snapshots) >= 3
    # the physical density is constructed stratified, so the residual is
    # rounding noise
    assert chk.stratification_residual <= 1e-13 * np.max(ref.xi.values)
    assert 0.0 < chk.hydrostatic_residual < 1.0
    assert chk.mass_residual_l2 > 0.0
