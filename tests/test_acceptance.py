"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v`; each test prints a
`criterion NN: PASS/FAIL` line with the measured quantities (visible with
-rA or on failure). Expensive trajectories are shared through
module-scoped fixtures; criterion 9 consumes the norm series of every
retained run.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from cpesim.grid import GridSpec
from cpesim.initial import InitialSpec, build_initial
from cpesim.scaling import reduce_system, scale_terms
from cpesim.solver import Params, SolverConfig, diagnostic_w, momentum_density, run
from cpesim.states import ModelState
from cpesim.verify import (
    mms_convergence,
    perturbed_density,
    stability_study,
    transform_check,
)

# summary printed per criterion; assertion failures still carry the data
def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _smooth_flow(grid: GridSpec, p: Params, amp=0.15, uamp=0.25) -> ModelState:
    spec = InitialSpec(profile="smooth-flow", amplitude=amp, u_amplitude=uamp)
    return build_initial(grid, spec, p)


def _max_interior_residual(snapshots, which: str) -> float:
    # the final snapshot has no forward difference and carries nan
    return max(abs(getattr(s, which).balance_residual) for s in snapshots[:-1])


def _orders(series) -> list:
    return [math.log2(a / b) for a, b in zip(series, series[1:])]


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def energy_runs():
    """Fixed 32x32x8 grid, dt halved twice; dissipative, source-free."""
    p = Params(nu=0.005, r=0.5)
    g = GridSpec(32, 32, 8)
    return [
        run(_smooth_flow(g, p), p, SolverConfig(t_end=0.04, dt_fixed=dt))
        for dt in (8e-3, 4e-3, 2e-3)
    ]


@pytest.fixture(scope="module")
def bd_runs():
    """Simultaneous (dt, dx) halving across three levels."""
    p = Params(nu=0.005, r=0.5)
    out = []
    for n, nz, dt in ((16, 4, 8e-3), (32, 8, 4e-3), (64, 16, 2e-3)):
        g = GridSpec(n, n, nz)
        out.append(run(_smooth_flow(g, p), p, SolverConfig(t_end=0.04, dt_fixed=dt)))
    return out


@pytest.fixture(scope="module")
def transform_runs():
    p = Params(nu=0.01, r=0.5)
    out = []
    for n, nz, dt in ((16, 8, 8e-3), (32, 16, 4e-3), (64, 32, 2e-3)):
        g = GridSpec(n, n, nz)
        out.append(run(_smooth_flow(g, p), p, SolverConfig(t_end=0.04, dt_fixed=dt)))
    return out


@pytest.fixture(scope="module")
def random_walk():
    """1000 fixed steps from seeded random smooth data, snapshot every step."""
    g = GridSpec(16, 16, 4)
    p = Params(nu=0.01, r=0.5)
    rng = np.random.default_rng(2024)
    x1, x2 = g.meshgrid_2d()

    def plan():
        f = np.zeros((g.nx1, g.nx2))
        for k1 in range(3):
            for k2 in range(3):
                a, b, c, d = rng.uniform(-1.0, 1.0, 4)
                s1, c1 = np.sin(2 * np.pi * k1 * x1), np.cos(2 * np.pi * k1 * x1)
                s2, c2 = np.sin(2 * np.pi * k2 * x2), np.cos(2 * np.pi * k2 * x2)
                f += a * s1 * s2 + b * s1 * c2 + c * c1 * s2 + d * c1 * c2
        return f / np.max(np.abs(f))

    xi = 1.0 + 0.5 * plan()
    zprof = 1.0 + 0.5 * np.cos(np.pi * g.z_centers() / g.h)
    u1 = 0.5 * plan()[:, :, None] * zprof[None, None, :]
    u2 = 0.5 * plan()[:, :, None] * (2.0 - zprof)[None, None, :]
    w = diagnostic_w(g, xi, *momentum_density(xi, u1, u2), p.xi_floor)
    init = ModelState.from_values(g, 0.0, xi, u1, u2, w)
    return run(init, p, SolverConfig(t_end=1.0, dt_fixed=1e-3))


@pytest.fixture(scope="module")
def norm_pool(energy_runs, bd_runs, transform_runs, random_walk):
    """Every retained trajectory, for run-wide bound checks."""
    return energy_runs + bd_runs + transform_runs + [random_walk]


# ---------------------------------------------------------------- criteria


def test_criterion_01_scale_audit_golden():
    canonical = [
        "mass.time-derivative",
        "mass.horizontal-transport",
        "mass.vertical-transport",
        "horizontal-momentum.time-derivative",
        "horizontal-momentum.horizontal-advection",
        "horizontal-momentum.vertical-advection",
        "horizontal-momentum.pressure-gradient",
        "horizontal-momentum.strain-viscosity",
        "horizontal-momentum.vertical-shear-viscosity",
        "vertical-momentum.pressure-gradient",
        "vertical-momentum.gravity",
    ]
    t0 = time.perf_counter()
    kept = reduce_system(scale_terms(apply_regime=True))
    elapsed = time.perf_counter() - t0
    ok = kept == canonical and elapsed < 1.0
    _report(1, ok, f"{len(kept)} terms, string match={kept == canonical}, {elapsed:.3f}s")
    assert kept == canonical
    assert elapsed < 1.0


def test_criterion_02_mms_spatial_convergence():
    t0 = time.perf_counter()
    report = mms_convergence(
        GridSpec(32, 32, 16), Params(nu=0.01, r=0.5), t_end=0.02, levels=3, cfl=0.3
    )
    elapsed = time.perf_counter() - t0
    orders = report.orders_xi + report.orders_u
    ok = all(1.8 <= o <= 2.2 for o in orders) and elapsed < 300.0
    _report(
        2,
        ok,
        "orders xi=" + "/".join(f"{o:.3f}" for o in report.orders_xi)
        + " u=" + "/".join(f"{o:.3f}" for o in report.orders_u)
        + f", {elapsed:.0f}s",
    )
    for o in orders:
        assert 1.8 <= o <= 2.2
    assert elapsed < 300.0


def test_criterion_03_mass_conservation(random_walk):
    m0 = random_walk.snapshots[0].mass
    drift = max(abs(s.mass - m0) for s in random_walk.snapshots) / m0
    steps = random_walk.snapshots[-1].step_index
    ok = drift <= 1e-12 and steps == 1000
    _report(3, ok, f"relative drift {drift:.3e} over {steps} steps")
    assert steps == 1000
    assert drift <= 1e-12


def test_criterion_04_energy_inequality(energy_runs):
    decreasing = all(
        r.snapshots[-1].energy.E <= r.snapshots[0].energy.E for r in energy_runs
    )
    residuals = [_max_interior_residual(r.snapshots, "energy") for r in energy_runs]
    orders = _orders(residuals)
    ok = decreasing and all(o >= 0.9 for o in orders)
    _report(
        4,
        ok,
        f"E(t_end)<=E(0)={decreasing}, residual orders in dt "
        + "/".join(f"{o:.2f}" for o in orders),
    )
    assert decreasing
    for o in orders:
        assert o >= 0.9


def test_criterion_05_bd_entropy_equality(bd_runs):
    residuals = [_max_interior_residual(r.snapshots, "entropy") for r in bd_runs]
    orders = _orders(residuals)

    worst = math.inf
    for res in bd_runs:
        for snap in res.snapshots:
            b = snap.entropy
            nonneg = (
                b.dzw_term,
                b.vorticity_term,
                b.dzu_term,
                b.friction_term,
                b.grad_sqrt_term,
            )
            scale = max(1.0, abs(b.B), max(abs(t) for t in b.terms))
            worst = min(worst, min(nonneg) / scale)

    ok = all(o >= 0.9 for o in orders) and worst >= -1e-13
    _report(
        5,
        ok,
        "residual orders " + "/".join(f"{o:.2f}" for o in orders)
        + f", min signed term {worst:.2e}*scale",
    )
    for o in orders:
        assert o >= 0.9
    assert worst >= -1e-13


def test_criterion_06_formulation_equivalence(transform_runs):
    checks = [transform_check(r) for r in transform_runs]
    strat_ok = True
    for res, chk in zip(transform_runs, checks):
        xi_max = max(float(np.max(s.state.xi.values)) for s in res.snapshots)
        strat_ok &= chk.stratification_residual <= 1e-13 * xi_max
    hydro_orders = _orders([c.hydrostatic_residual for c in checks])
    mass_orders = _orders([c.mass_residual_l2 for c in checks])
    hydro_ok = all(1.7 <= o <= 2.3 for o in hydro_orders)
    mass_ok = all(o >= 1.8 for o in mass_orders)
    ok = strat_ok and hydro_ok and mass_ok
    _report(
        6,
        ok,
        f"stratification<=1e-13*max_xi={strat_ok}, hydrostatic orders "
        + "/".join(f"{o:.2f}" for o in hydro_orders)
        + ", mass orders "
        + "/".join(f"{o:.2f}" for o in mass_orders),
    )
    assert strat_ok
    for o in hydro_orders:
        assert 1.7 <= o <= 2.3
    for o in mass_orders:
        assert o >= 1.8


def test_criterion_07_diagnostic_w_compatibility(random_walk):
    ratio = max(
        np.max(np.abs(s.state.w.values[:, :, -1])) / max(1e-300, s.state.max_speed())
        for s in random_walk.snapshots
    )
    ok = ratio <= 1e-13
    _report(7, ok, f"max |w_top|/max|u| = {ratio:.3e} over every step")
    assert ratio <= 1e-13


def test_criterion_08_stability_study():
    t0 = time.perf_counter()
    p = Params(nu=0.01, r=0.5)
    g = GridSpec(32, 32, 8)
    reference = _smooth_flow(g, p, amp=0.1, uamp=0.25)
    amplitudes = [2.0**-n for n in range(1, 6)]
    perturbed = [perturbed_density(reference, a) for a in amplitudes]
    table = stability_study(
        reference, perturbed, amplitudes, p, SolverConfig(t_end=0.2, dump_every=2)
    )
    elapsed = time.perf_counter() - t0

    xi_mono = all(
        b.xi_sup_l32 < a.xi_sup_l32 for a, b in zip(table.rows, table.rows[1:])
    )
    vel_mono = all(
        b.velocity_l2_l32 < a.velocity_l2_l32
        for a, b in zip(table.rows, table.rows[1:])
    )
    ok = xi_mono and vel_mono and elapsed < 600.0
    _report(
        8,
        ok,
        f"xi distances monotone={xi_mono}, velocity distances monotone={vel_mono}, "
        f"{elapsed:.0f}s",
    )
    assert xi_mono
    assert vel_mono
    assert table.non_monotone_rows() == []
    assert elapsed < 600.0


def test_criterion_09_poincare_bound(norm_pool):
    worst = 0.0
    for res in norm_pool:
        h = res.grid.h
        for snap in res.snapshots:
            nm = snap.norms
            if nm.sqrt_xi_dzw_l2 > 0.0:
                worst = max(worst, nm.sqrt_xi_w_l2 / (h * nm.sqrt_xi_dzw_l2))
    ok = worst <= 1.0
    _report(9, ok, f"max ||sqrt_xi w|| / (h ||sqrt_xi dz w||) = {worst:.4f} <= 1")
    assert worst <= 1.0


def test_criterion_10_determinism(tmp_path, cli_env):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "grid.nx1 = 16\ngrid.nx2 = 16\ngrid.nz = 4\n"
        "params.nu = 0.01\nparams.r = 0.5\n"
        "solver.t_end = 0.05\nsolver.dt_fixed = 0.005\n"
        "initial.profile = smooth-flow\ninitial.amplitude = 0.15\n"
        "initial.u_amplitude = 0.25\n"
    )
    outputs = []
    for name in ("a", "b"):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "cpesim.cli",
                "simulate",
                "--config",
                str(cfg),
                f"--output.dir={tmp_path / name}",
            ],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=cli_env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((tmp_path / name / "diagnostics.csv").read_bytes())
    ok = outputs[0] == outputs[1]
    _report(10, ok, f"identical diagnostics bytes={ok} ({len(outputs[0])} bytes)")
    assert outputs[0] == outputs[1]
