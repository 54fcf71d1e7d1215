"""Stepper oracles: tendencies, the diagnosed vertical velocity, CFL,
conservation, and failure signaling."""

import dataclasses
import itertools
import math
import re
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from cpesim import grid as grid_module
from cpesim import solver
from cpesim.diagnostics import snapshot_reports
from cpesim.grid import GridSpec, div_x, grad_x
from cpesim.initial import InitialSpec, build_initial
from cpesim.mms import ManufacturedSolution
from cpesim.solver import (
    NumericalError,
    Params,
    SolverConfig,
    cfl_dt,
    diagnostic_w,
    dump_states,
    momentum,
    momentum_density,
    rhs_momentum,
    rhs_xi,
    run,
    step,
    trajectory,
)
from cpesim.states import ModelState


def _smooth_state(g, p, xi_amp=0.2, u_amp=0.3):
    x1, x2 = g.meshgrid_2d()
    zc = g.z_centers()
    xi = 1.0 + xi_amp * np.sin(2.0 * np.pi * x1) * np.cos(2.0 * np.pi * x2)
    prof = 1.0 + 0.5 * np.cos(np.pi * zc / g.h)
    u1 = u_amp * np.cos(2.0 * np.pi * x2)[:, :, None] * prof
    u2 = 0.2 * np.sin(2.0 * np.pi * x1)[:, :, None] * (2.0 - prof)
    w = diagnostic_w(g, xi, *momentum_density(xi, u1, u2), p.xi_floor)
    return ModelState.from_values(g, 0.0, xi, u1, u2, w)


# -------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(nu=0.0),
        dict(nu=-0.1),
        dict(nu=math.nan),
        dict(nu=0.1, r=-1.0),
        dict(nu=0.1, kappa=0.0),
        dict(nu=0.1, xi_floor=0.0),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        Params(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(t_end=-1.0),
        dict(t_end=1.0, cfl=0.0),
        dict(t_end=1.0, cfl=1.5),
        dict(t_end=math.inf),
        dict(t_end=1.0, dump_every=0),
        dict(t_end=1.0, dt_fixed=0.0),
        dict(t_end=1.0, dt_fixed=math.inf),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_dump_every_error_shows_the_value():
    with pytest.raises(ValueError, match="dump_every must be a positive integer, got 0"):
        SolverConfig(t_end=1.0, dump_every=0)


# -------------------------------------------------------------- tendencies


def test_rhs_xi_telescopes():
    g = GridSpec(16, 16, 4)
    p = Params(nu=0.01)
    s = _smooth_state(g, p)
    d = rhs_xi(g, *momentum(s))
    assert abs(float(np.sum(d))) <= 1e-13


def test_rhs_xi_matches_centered_divergence():
    # dual route: flux form against the centered stencil written out here
    g = GridSpec(16, 16, 4)
    p = Params(nu=0.01)
    s = _smooth_state(g, p)
    xi = s.xi.values
    f1 = xi * np.mean(s.u1.values, axis=-1)
    f2 = xi * np.mean(s.u2.values, axis=-1)
    expected = -(
        (np.roll(f1, -1, axis=0) - np.roll(f1, 1, axis=0)) / (2.0 * g.dx1)
        + (np.roll(f2, -1, axis=1) - np.roll(f2, 1, axis=1)) / (2.0 * g.dx2)
    )
    assert np.allclose(rhs_xi(g, *momentum(s)), expected, atol=1e-13)


def test_diagnostic_w_closed_form():
    # u1 = sin(2 pi x1)(z - h/2): zero column mean, so
    # w = -D(x1) (z^2 - h z)/2 with D the discrete derivative of the sine
    g = GridSpec(16, 16, 8)
    zc = g.z_centers()
    zf = g.z_faces()
    x1 = g.x1_centers()
    s = np.sin(2.0 * np.pi * x1)
    u1 = s[:, None, None] * (zc - g.h / 2.0) * np.ones((16, 16, 8))
    u2 = np.zeros_like(u1)
    xi = np.ones((16, 16))
    w = diagnostic_w(g, xi, *momentum_density(xi, u1, u2), 1e-10)
    D = (np.roll(s, -1) - np.roll(s, 1)) / (2.0 * g.dx1)
    expected = -D[:, None, None] * (zf**2 - g.h * zf) / 2.0 * np.ones((16, 16, 9))
    assert np.allclose(w, expected, atol=1e-14)
    assert np.all(w[:, :, 0] == 0.0)
    assert np.max(np.abs(w[:, :, -1])) <= 1e-15


def test_diagnostic_w_is_finite_below_the_floor():
    g = GridSpec(8, 8, 4)
    xi = np.full((8, 8), 5e-11)  # below the floor everywhere
    u1 = np.ones((8, 8, 4))
    w = diagnostic_w(g, xi, *momentum_density(xi, u1, np.zeros_like(u1)), 1e-10)
    assert np.all(np.isfinite(w))


def test_rhs_momentum_pressure_only():
    # with u = 0 every flux vanishes and the tendency is exactly -kappa grad xi
    g = GridSpec(16, 16, 4)
    p = Params(nu=0.7, kappa=1.3)  # nu irrelevant at zero velocity
    x1, x2 = g.meshgrid_2d()
    xi = 1.0 + 0.1 * np.sin(2.0 * np.pi * x1)
    zeros = np.zeros((16, 16, 4))
    s = ModelState.from_values(g, 0.0, xi, zeros, zeros, np.zeros((16, 16, 5)))
    out1, out2 = rhs_momentum(g, s, p, momentum(s))
    g1, g2 = grad_x(g, xi)
    assert np.allclose(out1, -1.3 * g1[:, :, None], atol=1e-15)
    assert np.allclose(out2, -1.3 * g2[:, :, None], atol=1e-15)


def test_rhs_momentum_pressure_second_order():
    errs = []
    for n in (16, 32, 64):
        g = GridSpec(n, n, 2)
        x1, _ = g.meshgrid_2d()
        xi = 1.0 + 0.1 * np.sin(2.0 * np.pi * x1)
        zeros = np.zeros((n, n, 2))
        s = ModelState.from_values(g, 0.0, xi, zeros, zeros, np.zeros((n, n, 3)))
        out1, _ = rhs_momentum(g, s, Params(nu=0.01), momentum(s))
        exact = -0.2 * np.pi * np.cos(2.0 * np.pi * x1)
        errs.append(np.max(np.abs(out1 - exact[:, :, None])))
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.6 <= coarse / fine <= 4.4


def test_rhs_momentum_friction_sign():
    g = GridSpec(8, 8, 2)
    p = Params(nu=1e-12, r=2.0)
    xi = np.ones((8, 8))
    u1 = np.full((8, 8, 2), 3.0)
    w = np.zeros((8, 8, 3))
    s = ModelState.from_values(g, 0.0, xi, u1, np.zeros_like(u1), w)
    out1, out2 = rhs_momentum(g, s, p, momentum(s))
    # uniform u: every gradient vanishes, only friction -r |u| u remains
    assert np.allclose(out1, -2.0 * 3.0 * 3.0, atol=1e-9)
    assert np.allclose(out2, 0.0, atol=1e-12)


def _roll_centered(g, a):
    return (
        (np.roll(a, -1, axis=0) - np.roll(a, 1, axis=0)) / (2.0 * g.dx1),
        (np.roll(a, -1, axis=1) - np.roll(a, 1, axis=1)) / (2.0 * g.dx2),
    )


def _unfused_rhs_momentum(g, s, p):
    # four horizontal divergences: advective and viscous flux per component
    xi3 = s.xi.values[:, :, None]
    u1, u2, w = s.u1.values, s.u2.values, s.w.values

    def div(a1, a2):
        return _roll_centered(g, a1)[0] + _roll_centered(g, a2)[1]

    def vertical(m):
        flux = np.zeros(w.shape)
        flux[..., 1:-1] = w[..., 1:-1] * 0.5 * (m[..., 1:] + m[..., :-1])
        return (flux[..., 1:] - flux[..., :-1]) / g.dz

    def d2z(u):
        padded = np.concatenate([u[..., :1], u, u[..., -1:]], axis=-1)
        return (padded[..., 2:] - 2.0 * u + padded[..., :-2]) / g.dz**2

    (d1u1, d2u1), (d1u2, d2u2) = _roll_centered(g, u1), _roll_centered(g, u2)
    d12 = 0.5 * (d2u1 + d1u2)
    gxi = _roll_centered(g, s.xi.values)
    drag = p.r * xi3 * np.sqrt(u1**2 + u2**2)
    m1, m2 = xi3 * u1, xi3 * u2
    out1 = (
        -div(m1 * u1, m1 * u2) - vertical(m1) - p.kappa * gxi[0][:, :, None]
        + 2.0 * p.nu * div(xi3 * d1u1, xi3 * d12)
        + p.nu * xi3 * d2z(u1) - drag * u1
    )
    out2 = (
        -div(m2 * u1, m2 * u2) - vertical(m2) - p.kappa * gxi[1][:, :, None]
        + 2.0 * p.nu * div(xi3 * d12, xi3 * d2u2)
        + p.nu * xi3 * d2z(u2) - drag * u2
    )
    return out1, out2


def _random_state(g, p, seed=7):
    rng = np.random.default_rng(seed)
    xi = 1.0 + 0.3 * rng.random((g.nx1, g.nx2))
    u1 = rng.normal(size=(g.nx1, g.nx2, g.nz))
    u2 = rng.normal(size=(g.nx1, g.nx2, g.nz))
    w = diagnostic_w(g, xi, *momentum_density(xi, u1, u2), p.xi_floor)
    return ModelState.from_values(g, 0.0, xi, u1, u2, w)


def test_rhs_momentum_matches_unfused_divergences():
    g = GridSpec(12, 8, 5, lx1=1.3, lx2=0.7, h=0.6)
    p = Params(nu=0.03, r=0.8, kappa=1.7)
    s = _random_state(g, p)
    for got, want in zip(rhs_momentum(g, s, p, momentum(s)), _unfused_rhs_momentum(g, s, p)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_rhs_momentum_matches_unfused_divergences_member_by_member():
    g = GridSpec(12, 8, 5, lx1=1.3, lx2=0.7, h=0.6)
    p = Params(nu=0.03, r=0.8, kappa=1.7)
    members = [_random_state(g, p, 1), _random_state(g, p, 2)]
    batch = ModelState.stack(members)
    got = rhs_momentum(g, batch, p, momentum(batch))
    for k, s in enumerate(members):
        for out, want in zip(got, _unfused_rhs_momentum(g, s, p)):
            assert np.max(np.abs(out[k] - want)) <= 1e-13 * np.max(np.abs(want)), k


def test_rhs_momentum_matches_unfused_divergences_on_a_floored_cell():
    # one cell at the floor, as a stage leaves it: its momentum is tiny
    # beside its neighbours', and the vertical flux takes it from m alone
    g = GridSpec(12, 8, 5, lx1=1.3, lx2=0.7, h=0.6)
    p = Params(nu=0.03, r=0.8, kappa=1.7, xi_floor=1e-3)
    s = _random_state(g, p)
    xi = s.xi.values.copy()
    xi[5, 2] = p.xi_floor
    m = momentum_density(xi, s.u1.values, s.u2.values)
    w = diagnostic_w(g, xi, *m, p.xi_floor)
    s = ModelState.from_values(g, s.t, xi, s.u1.values, s.u2.values, w)
    for got, want in zip(rhs_momentum(g, s, p, momentum(s)), _unfused_rhs_momentum(g, s, p)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_rhs_momentum_takes_two_divergences(monkeypatch):
    g = GridSpec(8, 8, 3)
    p = Params(nu=0.01, r=0.5)
    s = _smooth_state(g, p)
    calls = []

    def counted(real):
        def wrapper(*args):
            calls.append(None)
            return real(*args)

        return wrapper

    monkeypatch.setattr(solver, "_div_k1", counted(solver._div_k1))
    rhs_momentum(g, s, p, momentum(s))
    assert len(calls) == 2


def _defect_w(g, xi, u1, u2, xi_floor):
    # reference: the compatibility integral taken directly, div_x of
    # xi (ubar - u) summed up the column, times dz / xi
    xi3 = xi[:, :, None]
    a1 = xi3 * (u1.mean(axis=-1, keepdims=True) - u1)
    a2 = xi3 * (u2.mean(axis=-1, keepdims=True) - u2)
    defect = _roll_centered(g, a1)[0] + _roll_centered(g, a2)[1]
    w = np.zeros(xi.shape + (g.nz + 1,))
    w[..., 1:] = np.cumsum(defect, axis=-1) * g.dz / np.maximum(xi, xi_floor)[:, :, None]
    return w


@pytest.mark.parametrize("floored", [False, True])
def test_diagnostic_w_by_linearity_matches_the_defect_integral(floored):
    g = GridSpec(12, 8, 5, lx1=1.3, lx2=0.7, h=0.6)
    p = Params(nu=0.03)
    s = _random_state(g, p)
    xi, u1, u2 = s.xi.values.copy(), s.u1.values, s.u2.values
    if floored:
        xi[4, 3] = 0.1 * p.xi_floor
    got = diagnostic_w(g, xi, *momentum_density(xi, u1, u2), p.xi_floor)
    want = _defect_w(g, xi, u1, u2, p.xi_floor)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.all(got[:, :, 0] == 0.0)
    u_max = max(np.max(np.abs(u1)), np.max(np.abs(u2)))
    assert np.max(np.abs(got[:, :, -1])) <= 1e-13 * u_max


def _cumsum_w(g, xi, m1, m2, xi_floor):
    # reference: w and -mean_z(D) in the arithmetic diagnostic_w was first
    # written in, np.cumsum down the columns and xi broadcast along z, with
    # D / k1 from np.roll and the x2 difference taken over dx2 / dx1
    k1 = 0.5 / g.dx1
    d = np.roll(m1, -1, 0) - np.roll(m1, 1, 0)
    d2 = np.roll(m2, -1, 1) - np.roll(m2, 1, 1)
    if g.dx1 != g.dx2:
        d2 *= g.dx1 / g.dx2
    d += d2
    cum = np.cumsum(d, axis=-1)
    dxi = cum[..., -1] * (-k1 / g.nz)
    scale = (k1 * g.dz) / np.maximum(xi, xi_floor)[:, :, None]
    w = np.zeros(xi.shape + (g.nz + 1,))
    w[..., 1:] = cum[..., -1:] * scale * (np.arange(1, g.nz + 1) / g.nz) - cum * scale
    return w, dxi


def test_diagnostic_w_and_momentum_density_keep_their_bits():
    g = GridSpec(12, 8, 5, lx1=1.3, lx2=0.7, h=0.6)
    p = Params(nu=0.03)
    s = _random_state(g, p)
    xi, u1, u2 = s.xi.values.copy(), s.u1.values, s.u2.values
    xi[4, 3] = 0.1 * p.xi_floor
    m = momentum_density(xi, u1, u2)
    for got, u in zip(m, (u1, u2)):
        assert np.array_equal(got, xi[:, :, None] * u)
    dxi = np.empty(xi.shape)
    w = diagnostic_w(g, xi, *m, p.xi_floor, dxi)
    want_w, want_dxi = _cumsum_w(g, xi, *m, p.xi_floor)
    assert np.array_equal(w, want_w)
    assert np.array_equal(dxi, want_dxi)
    # a stage's momentum takes its xi column from _assemble
    stage, m_stage, _, _ = solver._assemble(g, 0.25, xi.copy(), *m, p)
    xi3 = stage.xi.values[:, :, None]
    assert np.array_equal(m_stage[0], xi3 * stage.u1.values)
    assert np.array_equal(m_stage[1], xi3 * stage.u2.values)


def _continuity_defect(g, xi, m, w, dxi):
    # d_t xi + div_x(xi u)_k + xi (w_{k+1} - w_k) / dz on every cell, over max |D|
    d = div_x(g, *m)
    res = dxi[:, :, None] + d + xi[:, :, None] * np.diff(w, axis=-1) / g.dz
    return float(np.max(np.abs(res)) / np.max(np.abs(d)))


def test_discrete_continuity_holds_on_every_cell():
    # the 3-D mass balance ties w to the mass tendency cell by cell: on a
    # state with the tendency of rhs_xi, and on a stage built by _assemble,
    # one cell floored, with the tendency handed back from w's divergence,
    # which is rhs_xi of the stage's momentum to the bit
    g = GridSpec(12, 8, 5, lx1=1.3, lx2=0.7, h=0.6)
    p = Params(nu=0.03)
    s = _random_state(g, p)
    xi, u1, u2 = s.xi.values, s.u1.values, s.u2.values
    dxi = rhs_xi(g, *momentum(s))
    assert _continuity_defect(g, xi, momentum(s), s.w.values, dxi) <= 1e-13
    # the check resolves a defect of one face in a thousand
    w = s.w.values.copy()
    w[:, :, 2] *= 1.001
    assert _continuity_defect(g, xi, momentum(s), w, dxi) >= 1e-5

    xi_stage = xi.copy()
    xi_stage[4, 3] = 0.1 * p.xi_floor
    stage, m, dxi_stage, hits = solver._assemble(
        g, 0.25, xi_stage, *momentum_density(xi_stage, u1, u2), p
    )
    assert hits == 1
    assert _continuity_defect(g, stage.xi.values, m, stage.w.values, dxi_stage) <= 1e-13
    assert np.array_equal(dxi_stage, rhs_xi(g, *m))


def test_step_stage_budget(monkeypatch):
    # the vertical viscosity rides in the vertical face flux, and each of
    # the three stage states takes the column sums of div_x(xi u) once, for
    # its mass tendency and its w, without forming ubar
    g = GridSpec(8, 8, 4)
    p = Params(nu=0.01, r=0.5)
    s = _smooth_state(g, p)
    calls = {"d2dz2": 0, "_column_sums": 0, "diagnostic_w": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    spy = counted("d2dz2", grid_module.d2dz2)
    monkeypatch.setattr(grid_module, "d2dz2", spy)
    monkeypatch.setattr(solver, "d2dz2", spy, raising=False)
    for name in ("_column_sums", "diagnostic_w"):
        monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
    step(s, p, 2e-3)
    assert calls["d2dz2"] == 0
    assert calls["_column_sums"] == 3
    assert calls["diagnostic_w"] == 2


def _peak_fields(g, fn):
    # the peak of the memory fn allocates, in column fields of 8 nx1 nx2 nz bytes
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / (8 * g.nx1 * g.nx2 * g.nz)
    finally:
        tracemalloc.stop()


def test_step_and_snapshot_keep_their_peak_memory():
    # the in-place stage buffers and the one-pass snapshot hold the peak: a
    # warm step reads 14.6 fields (its new state among them) and a snapshot,
    # which frees each 3-D temporary once its column sums are taken, 3.3 on
    # the quick-start flow. The snapshot runs beside the next step, so the
    # two peaks add up in a run
    g = GridSpec(48, 48, 24)
    p = Params(nu=0.01, r=0.5)
    spec = InitialSpec(profile="smooth-flow", amplitude=0.15, u_amplitude=0.25)
    s = build_initial(g, spec, p)
    dt = cfl_dt(s, p, 0.4)
    s, _ = step(s, p, dt)
    assert _peak_fields(g, lambda: step(s, p, dt)) <= 15.0
    assert _peak_fields(g, lambda: snapshot_reports(s, p)) <= 3.5


def test_step_forms_each_stage_momentum_once(monkeypatch):
    # the mid stage's momentum density, formed as its w is diagnosed, is the
    # one its tendency reads: xi u is formed once per stage state, 3 times a step
    g = GridSpec(8, 8, 4)
    p = Params(nu=0.01, r=0.5)
    s = _smooth_state(g, p)
    seen = {"diagnostic_w": [], "rhs_momentum": [], "momentum": [], "momentum_density": []}

    def spy(name, fn):
        def wrapper(*args):
            seen[name].append(args)
            return fn(*args)

        return wrapper

    for name in seen:
        monkeypatch.setattr(solver, name, spy(name, getattr(solver, name)))
    step(s, p, 2e-3)
    assert len(seen["momentum"]) == 1
    assert len(seen["momentum_density"]) == 3
    mid_w, _ = seen["diagnostic_w"]
    mid_m = seen["rhs_momentum"][1][3]
    assert mid_m[0] is mid_w[2] and mid_m[1] is mid_w[3]


@pytest.mark.parametrize("forced", [False, True])
def test_dump_states_carries_each_states_momentum_into_its_step(monkeypatch, forced):
    # the final _assemble of a step forms the new state's momentum and mass
    # tendency, and dump_states hands both to the next step: over n steps
    # each is formed 2 n + 1 times, not 3 n, and the states are those of a
    # step-by-step loop to the bit (a source adds into the carried tendency)
    g = GridSpec(8, 8, 4)
    p = Params(nu=0.01, r=0.5)
    zero_m = np.zeros((8, 8, 4))

    def source(t):
        return np.full((8, 8), 0.03 * (1.0 + t)), (zero_m, zero_m + 0.01)

    src = source if forced else None
    cfg = SolverConfig(t_end=0.2)  # 7 adaptive steps, the last shortened
    calls = {"_column_sums": 0, "momentum_density": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    initial = _smooth_state(g, p)
    with monkeypatch.context() as m:
        for name in calls:
            m.setattr(solver, name, counted(name, getattr(solver, name)))
        instants = list(dump_states(initial, p, cfg, src))
    n = instants[-1].step_index
    assert n == 7
    assert calls == {"_column_sums": 2 * n + 1, "momentum_density": 2 * n + 1}
    state = _smooth_state(g, p)
    for i in instants[1:]:
        state, _ = step(state, p, i.dt, src)
        assert state.t == i.state.t
        for name in ("xi", "u1", "u2", "w"):
            assert np.array_equal(getattr(state, name).values, getattr(i.state, name).values)


def test_step_takes_a_carry_only_for_its_own_state():
    # a carry formed for another state is not used: the step forms its own
    g = GridSpec(8, 8, 4)
    p = Params(nu=0.01, r=0.5)
    s = _smooth_state(g, p)
    carry = solver.Carry()
    other, _ = step(_smooth_state(g, p, xi_amp=0.1), p, 2e-3, carry=carry)
    assert carry.state is other
    got, _ = step(s, p, 2e-3, carry=carry)
    want, _ = step(s, p, 2e-3)
    assert carry.state is got
    assert np.array_equal(got.u1.values, want.u1.values)
    assert np.array_equal(carry.dxi, rhs_xi(g, *momentum(got)))
    assert all(np.array_equal(a, b) for a, b in zip(carry.m, momentum(got)))


def test_rhs_momentum_conserves_momentum_without_drag():
    # every term but the drag is a flux difference that telescopes
    g = GridSpec(16, 12, 6, lx1=1.5)
    p = Params(nu=0.05, r=0.0, kappa=1.3)
    s = _random_state(g, p)
    for out in rhs_momentum(g, s, p, momentum(s)):
        assert abs(float(np.sum(out))) <= 1e-13 * float(np.sum(np.abs(out)))


# --------------------------------------------------------------------- cfl


def _at_rest(g, xi):
    zeros = np.zeros((g.nx1, g.nx2, g.nz))
    return ModelState.from_values(
        g, 0.0, xi, zeros, zeros, np.zeros((g.nx1, g.nx2, g.nz + 1))
    )


def test_cfl_dt_advective_bound():
    g = GridSpec(16, 16, 4)
    p = Params(nu=0.01, kappa=1.0)
    # quiescent unit density: dx/sqrt(kappa) = 1/16 binds
    s = _at_rest(g, np.ones((16, 16)))
    assert np.isclose(cfl_dt(s, p, 0.4), 0.4 / 16.0, rtol=1e-14)


def test_cfl_dt_diffusive_bound():
    g = GridSpec(16, 16, 4)
    p = Params(nu=0.5, kappa=1.0)
    s = _at_rest(g, np.ones((16, 16)))
    # at rest the viscous modes are real, and Heun's interval [-2, 0] gives
    # 2 / (rho_h + rho_v) with rho_h = 4 nu / dx^2 and rho_v = 4 nu / dz^2;
    # taken at its fixed half, it undercuts the advective bound at every cfl
    rho = 4.0 * p.nu * (16.0**2 + 1.0 / g.dz**2)
    assert np.isclose(cfl_dt(s, p, 0.4), 0.5 * 2.0 / rho, rtol=1e-14)


def test_cfl_scales_only_the_courant_caps():
    g = GridSpec(16, 16, 4)
    s = _at_rest(g, np.ones((16, 16)))
    # nu = 0.5: the viscous limit binds, taken at its half whatever cfl
    p = Params(nu=0.5, kappa=1.0)
    half = 0.5 * solver.step_bounds(s, p).viscous
    assert [cfl_dt(s, p, cfl) for cfl in (0.2, 0.4, 1.0)] == [half] * 3
    # nu = 0.01: the advective cap dx / sqrt(kappa) binds, scaled by cfl
    p = Params(nu=0.01, kappa=1.0)
    for cfl in (0.1, 0.2, 0.4):
        assert np.isclose(cfl_dt(s, p, cfl), cfl / 16.0, rtol=1e-14), cfl


@pytest.mark.parametrize("kind", ["rest", "flow", "wave"])
@pytest.mark.parametrize("nu", [0.01, 0.5])
def test_cfl_dt_is_no_smaller_than_cfl_times_every_bound(kind, nu, density):
    # at cfl <= 1/2 the fixed half of Heun's limits never cuts the step
    # below cfl times the least of the four bounds
    g = GridSpec(16, 16, 4)
    p = Params(nu=nu, r=0.5)
    if kind == "flow":
        s = _smooth_state(g, p)
    else:
        s = _at_rest(g, density(g, "uniform" if kind == "rest" else "wave"))
    for cfl in (0.1, 0.4, 0.5):
        assert cfl_dt(s, p, cfl) >= cfl * min(solver.step_bounds(s, p)), cfl


def test_cfl_dt_and_the_collapse_guard_read_one_binding_bound():
    # random states, parameters and cfl: cfl_dt is the least weighted bound,
    # and the collapse guard names the field that sets it
    # (w is drawn on its own, so that the vertical cap binds too)
    rng = np.random.default_rng(11)
    g = GridSpec(8, 8, 6)
    names = set()
    for _ in range(60):
        p = Params(nu=10.0 ** rng.uniform(-4.0, 0.0), kappa=10.0 ** rng.uniform(-1.0, 1.0))
        s = _random_state(g, p, int(rng.integers(1000)))
        u1, u2 = (10.0 ** rng.uniform(-2.0, 1.0) * u for u in (s.u1.values, s.u2.values))
        w = np.zeros(s.w.values.shape)
        w[..., 1:-1] = 10.0 ** rng.uniform(-2.0, 2.0) * rng.normal(size=w[..., 1:-1].shape)
        s = ModelState.from_values(g, 0.0, s.xi.values, u1, u2, w)
        cfl = rng.uniform(0.05, 1.0)
        b = solver.step_bounds(s, p)
        dt, name = b.binding(cfl)
        weighted = [cfl * b.advective, cfl * b.vertical]
        weighted += [solver.HEUN_FRACTION * b.viscous, solver.HEUN_FRACTION * b.acoustic]
        assert dt == min(weighted) == weighted[b._fields.index(name)]
        assert cfl_dt(s, p, cfl) == dt
        message = solver._collapse(s, p, cfl, 1e-9, 1.0)
        assert message.endswith(f" (bound by {name})"), message
        names.add(name)
    assert names == set(solver.StepBounds._fields)


def test_heun_limit_puts_the_family_end_on_the_unit_circle():
    d = 3.7
    assert solver.heun_limit(d, 0.0) == 2.0 / d
    s = np.linspace(0.0, 1.0, 1001)
    steps = []
    for ratio in (1e-3, 0.3, 1.0, 10.0, 1e4):
        dt = solver.heun_limit(d, ratio * d)
        # the end of the family -D s^2 + i W s sits on |R| = 1, and no
        # mode before it leaves the unit disc
        z = dt * (-d * s**2 + 1j * ratio * d * s)
        r = np.abs(1.0 + z + z**2 / 2.0)
        assert abs(r[-1] - 1.0) <= 1e-12, ratio
        assert np.max(r) <= 1.0 + 1e-12, ratio
        steps.append(dt)
    assert all(a > b for a, b in zip(steps, steps[1:]))
    # W^2 / D overflows: no stable step, 0 and not NaN (min() with a NaN
    # depends on the order of its arguments)
    assert solver.heun_limit(1.0, 1e200) == 0.0
    assert solver.heun_limit(1e-10, 1e160) == 0.0


def test_cfl_dt_shrinks_with_density_contrast():
    g = GridSpec(16, 16, 4)
    p = Params(nu=0.05)
    xi = np.ones((16, 16))
    xi[0, 0] = 0.05
    flat = cfl_dt(_at_rest(g, np.ones((16, 16))), p, 0.4)
    assert cfl_dt(_at_rest(g, xi), p, 0.4) < flat


def _viscous_radius(g, xi, nu, iters=500):
    """Spectral radius of u -> xi^-1 div_w(2 nu xi D_w(u)) by power iteration.

    The operator is self-adjoint in the xi-weighted product, so its
    Rayleigh quotient in that product converges to the radius from below.
    """
    xi3 = xi[:, :, None]
    a = 2.0 * nu * xi3

    def apply(u1, u2):
        d1u1, d2u1 = grad_x(g, u1)
        d1u2, d2u2 = grad_x(g, u2)
        d12 = 0.5 * (d2u1 + d1u2)
        return div_x(g, a * d1u1, a * d12) / xi3, div_x(g, a * d12, a * d2u2) / xi3

    u = np.random.default_rng(0).normal(size=(2, g.nx1, g.nx2, g.nz))
    weight = xi[None, :, :, None]
    for _ in range(iters):
        v = np.array(apply(*u))
        u = v / np.sqrt(np.sum(weight * v * v))
    return -float(np.sum(weight * u * np.array(apply(*u))) / np.sum(weight * u * u))


@pytest.mark.parametrize("kind", ["uniform", "random", "near-vacuum", "wave"])
def test_cfl_dt_bounds_the_horizontal_viscous_spectrum(kind, density):
    g = GridSpec(8, 8, 2)
    p = Params(nu=1.0)
    xi = density(g, kind)
    dt = cfl_dt(_at_rest(g, xi), p, 1.0)
    # the viscous bound binds, below the advective dx / sqrt(kappa): at rest
    # its modes are real, and dt = 2 / (rho_h + rho_v), taken at its half,
    # keeps the horizontal and vertical viscous operators together in the
    # middle of Heun's interval [-2, 0]
    assert dt < g.dx1 / math.sqrt(p.kappa)
    r_loc = 0.5 * max(
        np.max((np.roll(xi, 1, axis) + np.roll(xi, -1, axis)) / xi) for axis in (0, 1)
    )
    rho_h = 4.0 * p.nu * r_loc / g.dx1**2
    rho_v = 4.0 * p.nu / g.dz**2
    share = 2.0 * rho_h / (rho_h + rho_v)
    product = _viscous_radius(g, xi, p.nu) * dt
    assert product <= share / 2.0 + 1e-12
    if kind == "uniform":
        # uniform xi attains the bound: the iteration has converged, a
        # Gershgorin factor below 4 fails the assertion above, and a margin
        # below the half fails the one below
        assert product >= share / 2.0 - 1e-9


def test_cfl_dt_keeps_both_viscous_operators_stable_at_cfl_one():
    # dz just above dx / sqrt(2): the vertical radius 4 nu / dz^2 is almost
    # twice the horizontal one, so the horizontal bound alone would put
    # rho dt near 3 at cfl = 1, outside Heun's interval, and the noise
    # would grow until it overflows
    h = 1.001 * 8 * (1.0 / 16.0) / math.sqrt(2.0)
    g = GridSpec(16, 16, 8, h=h)
    p = Params(nu=1.0)
    xi = np.ones((16, 16))
    rng = np.random.default_rng(7)
    u1, u2 = 1e-8 * rng.standard_normal((2, 16, 16, 8))
    w = diagnostic_w(g, xi, *momentum_density(xi, u1, u2), p.xi_floor)
    s = ModelState.from_values(g, 0.0, xi, u1, u2, w)
    u0 = s.max_speed()
    for _ in range(60):
        s, _ = step(s, p, cfl_dt(s, p, 1.0))
    assert s.max_speed() < u0


def test_overflowing_speed_is_a_numerical_error_at_its_step():
    # |u| is finite but |u|^2 overflows, so no positive step is stable; the
    # run ends with a NumericalError naming the step, and no numpy warning
    g = GridSpec(8, 8, 2)
    p = Params(nu=0.01)
    xi = np.ones((8, 8))
    u1 = np.full((8, 8, 2), 1e200)
    u2 = np.zeros_like(u1)
    w = diagnostic_w(g, xi, *momentum_density(xi, u1, u2), p.xi_floor)
    s = ModelState.from_values(g, 0.0, xi, u1, u2, w)
    with pytest.raises(NumericalError, match="step 1: no stable step"):
        for _ in dump_states(s, p, SolverConfig(t_end=1.0)):
            pass


def test_cfl_dt_is_local_on_a_smooth_near_vacuum_wave(density):
    # min xi is about 0.01 on this grid: the global ratio max/min, about
    # 190, would cut dt by that much, the local neighbour ratio by under 3
    g = GridSpec(32, 32, 8)
    p = Params(nu=0.01)
    flat = cfl_dt(_at_rest(g, np.ones((32, 32))), p, 0.4)
    assert cfl_dt(_at_rest(g, density(g, "wave")), p, 0.4) >= flat / 3.0


def test_near_vacuum_wave_runs_in_few_steps(density):
    g = GridSpec(32, 32, 8)
    p = Params(nu=0.01)
    s = _at_rest(g, density(g, "wave"))
    *_, last = dump_states(s, p, SolverConfig(t_end=0.5, dump_every=10**9))
    m0 = float(np.sum(s.xi.values))
    assert abs(last.state.t - 0.5) <= 1e-12
    assert last.step_index <= 80
    assert last.floor_total == 0
    assert abs(float(np.sum(last.state.xi.values)) - m0) <= 1e-12 * m0


# --------------------------------------------------------------- collapse


def _supersonic_probe():
    # the README quick-start flow at u_amplitude 2.0 (max |u| about 2.9,
    # Mach 3) on 16x16x4: under-resolved, it blows up near t = 0.39
    g = GridSpec(16, 16, 4, h=1.0 - math.exp(-1.0))
    p = Params(nu=0.01, r=0.5)
    spec = InitialSpec(profile="smooth-flow", amplitude=0.15, u_amplitude=2.0)
    return build_initial(g, spec, p), p, SolverConfig(t_end=0.5)


@pytest.mark.xfail(
    strict=True,
    raises=(AssertionError, NumericalError),
    reason="the semi-discrete scheme gains energy on this under-resolved flow",
)
def test_supersonic_probe_reaches_t_end_without_gaining_energy():
    initial, p, cfg = _supersonic_probe()
    snaps = list(itertools.islice(trajectory(initial, p, cfg), 401))
    assert snaps[-1].t >= cfg.t_end - cfg.t_tol
    assert all(snap.energy.E <= snaps[0].energy.E for snap in snaps)


def test_a_collapsing_step_is_a_numerical_error():
    # the probe's step follows its growth down and would never reach t_end;
    # the run stops once the bound falls below COLLAPSE_FRACTION of the first
    initial, p, cfg = _supersonic_probe()
    instants = itertools.islice(dump_states(initial, p, cfg), 400)
    last = None
    with pytest.raises(NumericalError) as err:
        for last in instants:
            pass
    assert solver.COLLAPSE_FRACTION == 1e-4
    pattern = (
        rf"step {last.step_index + 1}: stable step \S+ at t = \S+ fell below "
        r"0.0001 of the run's first, \S+ "
        r"\(bound by (advective|vertical|viscous|acoustic)\)$"
    )
    assert re.match(pattern, str(err.value)), str(err.value)
    assert last.state.t < 0.4


def test_the_collapse_guard_reads_the_bound_not_the_shortened_step(monkeypatch):
    # the last step is shortened to land on t_end, here to 5e-7, far below
    # 1e-4 of the bound 0.1: the run still ends there
    g = GridSpec(8, 8, 2)
    p = Params(nu=0.01)
    monkeypatch.setattr(solver, "cfl_dt", lambda state, p, cfl: 0.1)
    s = _at_rest(g, np.ones((8, 8)))
    instants = list(dump_states(s, p, SolverConfig(t_end=0.3 + 5e-7)))
    assert [i.step_index for i in instants] == [0, 1, 2, 3, 4]
    assert instants[-1].dt == pytest.approx(5e-7)


@pytest.mark.parametrize("members", [None, 2])
def test_the_collapse_guard_names_the_binding_bound_of_a_single_run(monkeypatch, members):
    g = GridSpec(8, 8, 2)
    p = Params(nu=0.01)
    s = _at_rest(g, np.ones((8, 8)))
    if members:
        s = ModelState.stack([s] * members)
    bounds = iter([1e-2, 1e-2, 0.99e-6])
    monkeypatch.setattr(solver, "cfl_dt", lambda state, p, cfl: next(bounds))
    with pytest.raises(NumericalError) as err:
        for _ in dump_states(s, p, SolverConfig(t_end=1.0)):
            pass
    message = "step 3: stable step 9.9e-07 at t = 0.02 fell below 0.0001 of the run's first, 0.01"
    if members:
        assert str(err.value) == message
    else:
        assert re.match(re.escape(message) + r" \(bound by \w+\)$", str(err.value))


# ------------------------------------------------------------------- steps


def test_rest_state_is_a_fixed_point():
    g = GridSpec(8, 8, 3)
    p = Params(nu=0.05, r=1.0)
    zeros = np.zeros((8, 8, 3))
    s = ModelState.from_values(
        g, 0.0, np.full((8, 8), 1.7), zeros, zeros, np.zeros((8, 8, 4))
    )
    cur = s
    for _ in range(10):
        cur, hits = step(cur, p, 0.01)
        assert hits == 0
    assert np.array_equal(cur.xi.values, s.xi.values)
    assert np.array_equal(cur.u1.values, s.u1.values)
    assert np.all(cur.w.values == 0.0)


def _max_difference(a, b):
    # max|a - b| over (xi, u1, u2)
    return max(
        np.max(np.abs(a.xi.values - b.xi.values)),
        np.max(np.abs(a.u1.values - b.u1.values)),
        np.max(np.abs(a.u2.values - b.u2.values)),
    )


def test_step_is_second_order():
    g = GridSpec(16, 16, 4)
    p = Params(nu=0.01, r=0.5)
    s0 = _smooth_state(g, p)

    def advance(s, dt, n):
        for _ in range(n):
            s, _ = step(s, p, dt)
        return s

    dt = 4e-3
    d1 = _max_difference(advance(s0, dt, 1), advance(s0, dt / 2, 2))
    d2 = _max_difference(advance(s0, dt / 2, 2), advance(s0, dt / 4, 4))
    assert 3.5 <= d1 / d2 <= 4.5


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
def test_runs_converge_at_second_order_in_time(forced):
    # self-convergence over a fixed horizon with dt = T/N, N = 10 .. 80;
    # the forced case also sees the time at which each stage takes its source
    g = GridSpec(16, 16, 4)
    p = Params(nu=0.01, r=0.5)
    if forced:
        ms = ManufacturedSolution(g, p)
        initial, source, t_end = ms.state_at(0.0), ms.source, 0.5
    else:
        spec = InitialSpec(profile="smooth-flow", amplitude=0.15, u_amplitude=0.25)
        initial, source, t_end = build_initial(g, spec, p), None, 0.2
    finals = []
    for n in (10, 20, 40, 80):
        cfg = SolverConfig(t_end=t_end, dt_fixed=t_end / n, dump_every=n)
        *_, last = dump_states(initial, p, cfg, source)
        assert last.step_index == n
        finals.append(last.state)
    diffs = [_max_difference(a, b) for a, b in zip(finals, finals[1:])]
    orders = [math.log2(a / b) for a, b in zip(diffs, diffs[1:])]
    assert all(1.8 <= o <= 2.2 for o in orders), orders


def test_step_rejects_bad_dt():
    g = GridSpec(8, 8, 2)
    p = Params(nu=0.01)
    s = _smooth_state(g, p)
    with pytest.raises(ValueError):
        step(s, p, 0.0)
    with pytest.raises(ValueError):
        step(s, p, math.inf)


def test_step_rediagnoses_w():
    g = GridSpec(16, 16, 4)
    p = Params(nu=0.01, r=0.5)
    s, _ = step(_smooth_state(g, p), p, 2e-3)
    w = diagnostic_w(g, s.xi.values, *momentum(s), p.xi_floor)
    assert np.array_equal(s.w.values, w)


def test_step_returns_read_only_arrays():
    g = GridSpec(8, 8, 3)
    p = Params(nu=0.01, r=0.5)
    s, _ = step(_smooth_state(g, p), p, 1e-3)
    for name in ("xi", "u1", "u2", "w"):
        values = getattr(s, name).values
        assert not values.flags.writeable, name
        with pytest.raises(ValueError):
            values.flat[0] = 1.0


# The wide 2dx stencils cannot see the (-1)^(i+j) modes: the density
# checkerboard has no discrete gradient and the velocity checkerboard no
# discrete strain, so each is an exact steady state that the BD entropy and
# the dissipation miss. The change that closes a mode drops its marker.
_NULL_MODE = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="wide-stencil null mode"
)


@pytest.mark.parametrize(
    "mode", [pytest.param("xi", marks=_NULL_MODE), pytest.param("u1", marks=_NULL_MODE)]
)
def test_checkerboard_mode_is_seen_and_damped(mode):
    g = GridSpec(16, 16, 4)
    p = Params(nu=0.05, r=0.0)
    i, j = np.indices((g.nx1, g.nx2))
    board = (-1.0) ** (i + j)
    zeros = np.zeros((g.nx1, g.nx2, g.nz))
    if mode == "xi":
        xi, u1 = 1.0 + 0.1 * board, zeros
    else:
        xi, u1 = np.ones((g.nx1, g.nx2)), 0.1 * np.repeat(board[:, :, None], g.nz, -1)
    w = diagnostic_w(g, xi, *momentum_density(xi, u1, zeros), p.xi_floor)
    s = ModelState.from_values(g, 0.0, xi, u1, zeros, w)
    energy, _, norms = snapshot_reports(s, p)
    new, _ = step(s, p, cfl_dt(s, p, 0.5))
    assert (norms.grad_sqrt_xi_l2 if mode == "xi" else energy.D_visc) > 0.0
    assert np.ptp(getattr(new, mode).values) < np.ptp(getattr(s, mode).values)


# ------------------------------------------------------------------ batches


def _floor_member(g, p, seed):
    # a random run with one cell below the floor: each stage floors it
    s = _random_state(g, p, seed)
    xi = s.xi.values.copy()
    xi[5, 2] = 0.5 * p.xi_floor
    m = momentum_density(xi, s.u1.values, s.u2.values)
    w = diagnostic_w(g, xi, *m, p.xi_floor)
    return ModelState.from_values(g, s.t, xi, s.u1.values, s.u2.values, w)


def test_a_batched_step_is_each_members_step_bit_for_bit():
    g = GridSpec(12, 8, 5, lx1=1.3, lx2=0.7, h=0.6)
    p = Params(nu=0.03, r=0.8, kappa=1.7, xi_floor=1e-3)
    members = [_random_state(g, p, 1), _floor_member(g, p, 3), _smooth_state(g, p)]
    batch = ModelState.stack(members)
    # cfl_dt of a batch is the least of its members', to the bit
    bounds = [cfl_dt(s, p, 0.7) for s in members]
    assert len(set(bounds)) == 3
    assert cfl_dt(batch, p, 0.7) == min(bounds)
    dt = 0.5 * min(bounds)
    new, hits = step(batch, p, dt)
    singles = [step(s, p, dt) for s in members]
    assert [h for _, h in singles] == [0, 2, 0]
    assert hits == 2
    assert new.members == 3 and new.t == singles[0][0].t
    for k, (single, _) in enumerate(singles):
        for name in ("xi", "u1", "u2", "w"):
            got, want = getattr(new, name).values[k], getattr(single, name).values
            assert np.array_equal(got, want), (k, name)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (k, name)


def test_a_batch_with_one_failing_member_names_the_field():
    g = GridSpec(8, 8, 2)
    p = Params(nu=0.01)
    xi = np.ones((8, 8))
    u1 = np.full((8, 8, 2), 1e160)  # finite but doomed under advection
    w = diagnostic_w(g, xi, *momentum_density(xi, u1, np.zeros_like(u1)), p.xi_floor)
    doomed = ModelState.from_values(g, 0.0, xi, u1, np.zeros_like(u1), w)
    with pytest.raises(NumericalError) as own:
        step(doomed, p, 0.1)
    assert re.match(r"non-finite (xi|u1|u2|w) at t = 0.1$", str(own.value))
    with pytest.raises(NumericalError) as batched:
        step(ModelState.stack([_smooth_state(g, p), doomed]), p, 0.1)
    assert str(batched.value) == str(own.value)


# -------------------------------------------------------------------- runs


def test_run_mass_conservation():
    g = GridSpec(16, 16, 4)
    p = Params(nu=0.01, r=0.5)
    s = _smooth_state(g, p)
    res = run(s, p, SolverConfig(t_end=0.1, dt_fixed=2e-3, dump_every=5))
    m0 = res.snapshots[0].mass
    for snap in res.snapshots:
        assert abs(snap.mass - m0) <= 1e-14 * abs(m0)


def test_run_snapshot_cadence():
    g = GridSpec(8, 8, 2)
    p = Params(nu=0.01)
    s = _smooth_state(g, p, xi_amp=0.05, u_amp=0.05)
    res = run(s, p, SolverConfig(t_end=0.1, dt_fixed=0.01, dump_every=3))
    assert [snap.step_index for snap in res.snapshots] == [0, 3, 6, 9, 10]
    assert np.isclose(res.snapshots[-1].t, 0.1, atol=1e-12)


def test_run_shortens_final_step():
    g = GridSpec(8, 8, 2)
    p = Params(nu=0.01)
    s = _smooth_state(g, p, xi_amp=0.05, u_amp=0.05)
    res = run(s, p, SolverConfig(t_end=0.095, dt_fixed=0.01, dump_every=100))
    assert np.isclose(res.snapshots[-1].t, 0.095, atol=1e-12)
    assert res.snapshots[-1].dt < 0.01


def test_run_zero_horizon_returns_initial_only():
    g = GridSpec(8, 8, 2)
    p = Params(nu=0.01)
    s = _smooth_state(g, p)
    res = run(s, p, SolverConfig(t_end=0.0))
    assert len(res.snapshots) == 1
    assert math.isnan(res.snapshots[0].energy.balance_residual)


def test_run_signals_numerical_failure():
    g = GridSpec(8, 8, 2)
    p = Params(nu=0.01)
    x1, _ = g.meshgrid_2d()
    xi = np.ones((8, 8))
    u1 = np.full((8, 8, 2), 1e160)  # finite but doomed under advection
    w = diagnostic_w(g, xi, *momentum_density(xi, u1, np.zeros_like(u1)), p.xi_floor)
    s = ModelState.from_values(g, 0.0, xi, u1, np.zeros_like(u1), w)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="step"):
            run(s, p, SolverConfig(t_end=1.0, dt_fixed=0.1))


def _report(snap):
    # every reported number of a snapshot, balance residuals last
    energy = dataclasses.replace(snap.energy, balance_residual=0.0)
    entropy = dataclasses.replace(snap.entropy, balance_residual=0.0)
    head = (snap.step_index, snap.t, snap.dt, snap.mass, snap.xi_min)
    tail = (snap.floor_activations,)
    residuals = (snap.energy.balance_residual, snap.entropy.balance_residual)
    return head + (energy, entropy, snap.norms) + tail, residuals


def test_trajectory_matches_run():
    g = GridSpec(8, 8, 4)
    p = Params(nu=0.01, r=0.5)
    # snapshots at the initial state, adaptive steps 2, 4, 6 and the last,
    # 7, shortened to land on t_end
    cfg = SolverConfig(t_end=0.2, dump_every=2)
    streamed = [_report(snap) for snap in trajectory(_smooth_state(g, p), p, cfg)]
    collected = [_report(snap) for snap in run(_smooth_state(g, p), p, cfg).snapshots]
    assert len(streamed) == len(collected) == 5
    assert [fields for fields, _ in streamed] == [fields for fields, _ in collected]
    assert [res for _, res in streamed[:-1]] == [res for _, res in collected[:-1]]
    assert all(math.isfinite(r) for _, res in streamed[:-1] for r in res)
    assert all(math.isnan(r) for r in streamed[-1][1] + collected[-1][1])


def test_trajectory_yields_snapshots_before_the_failing_step():
    g = GridSpec(8, 8, 2)
    p = Params(nu=0.01)
    xi = np.ones((8, 8))
    u1 = np.full((8, 8, 2), 1e160)  # finite but doomed under advection
    w = diagnostic_w(g, xi, *momentum_density(xi, u1, np.zeros_like(u1)), p.xi_floor)
    s = ModelState.from_values(g, 0.0, xi, u1, np.zeros_like(u1), w)
    got = []
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="step") as exc:
            for snap in trajectory(s, p, SolverConfig(t_end=1.0, dt_fixed=0.1)):
                got.append(snap)
    failing = int(re.match(r"step (\d+):", str(exc.value)).group(1))
    assert [snap.step_index for snap in got] == list(range(failing))
    assert math.isnan(got[-1].energy.balance_residual)


def test_trajectory_steps_on_the_callers_thread_and_snapshots_on_one_helper(monkeypatch):
    g = GridSpec(8, 8, 4)
    p = Params(nu=0.01, r=0.5)
    threads = {"step": set(), "_snapshot": set()}

    def on_thread(name, fn):
        def wrapper(*args):
            threads[name].add(threading.get_ident())
            return fn(*args)

        return wrapper

    for name in threads:
        monkeypatch.setattr(solver, name, on_thread(name, getattr(solver, name)))
    snaps = list(trajectory(_smooth_state(g, p), p, SolverConfig(t_end=0.03, dt_fixed=0.005)))
    assert len(snaps) == 7
    assert threads["step"] == {threading.get_ident()}
    assert len(threads["_snapshot"]) == 1
    assert threading.get_ident() not in threads["_snapshot"]


@pytest.mark.parametrize("end", ["closed", "finished", "failed"])
def test_no_thread_outlives_trajectory(end):
    g = GridSpec(8, 8, 2)
    p = Params(nu=0.01)
    baseline = threading.active_count()
    if end == "failed":
        xi = np.ones((8, 8))
        u1 = np.full((8, 8, 2), 1e160)  # finite but doomed under advection
        w = diagnostic_w(g, xi, *momentum_density(xi, u1, np.zeros_like(u1)), p.xi_floor)
        s = ModelState.from_values(g, 0.0, xi, u1, np.zeros_like(u1), w)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError):
                list(trajectory(s, p, SolverConfig(t_end=1.0, dt_fixed=0.1)))
    else:
        snaps = trajectory(_smooth_state(g, p), p, SolverConfig(t_end=0.05, dt_fixed=0.005))
        if end == "closed":
            for _ in range(3):
                next(snaps)
            assert threading.active_count() == baseline + 1
            snaps.close()
        else:
            assert len(list(snaps)) == 11
    assert threading.active_count() == baseline


def test_a_failing_snapshot_is_raised_after_the_snapshots_before_it(monkeypatch):
    # the third snapshot raises on the helper thread, and the error surfaces
    # where that snapshot is paired with the second: only the first, paired
    # with the second, has been yielded, and it is that of a plain run
    g = GridSpec(8, 8, 4)
    p = Params(nu=0.01, r=0.5)
    cfg = SolverConfig(t_end=0.05, dt_fixed=0.005)
    real = solver._snapshot
    calls = []

    def third_fails(*args):
        calls.append(args[0])
        if len(calls) == 3:
            raise RuntimeError("snapshot failed")
        return real(*args)

    baseline = threading.active_count()
    got = []
    with monkeypatch.context() as m:
        m.setattr(solver, "_snapshot", third_fails)
        with pytest.raises(RuntimeError, match="snapshot failed"):
            for snap in trajectory(_smooth_state(g, p), p, cfg):
                got.append(_report(snap))
    assert calls == [0, 1, 2]
    assert threading.active_count() == baseline
    want = [_report(snap) for snap in run(_smooth_state(g, p), p, cfg).snapshots]
    assert got == want[: len(got)]
    assert len(got) == 1


@pytest.mark.parametrize("stream", [dump_states, trajectory])
def test_streams_release_the_initial_state(stream):
    # once yielded, the initial state is kept alive only by the caller
    g = GridSpec(8, 8, 4)
    p = Params(nu=0.01, r=0.5)
    refs = []

    def initial():
        s = _smooth_state(g, p)
        refs.append(weakref.ref(s))
        return s

    items = stream(initial(), p, SolverConfig(t_end=0.1, dt_fixed=0.005))
    assert next(items).state is refs[0]()
    for _ in range(3):
        next(items)
    assert refs[0]() is None


@pytest.mark.parametrize("name", ["xi", "u1", "u2"])
def test_assemble_names_the_non_finite_field(name):
    # the stage is checked once, by the state; the error names the first
    # non-finite field and the stage time
    g = GridSpec(8, 8, 2)
    xi, m1, m2 = np.ones((8, 8)), np.zeros((8, 8, 2)), np.zeros((8, 8, 2))
    {"xi": xi, "u1": m1, "u2": m2}[name][1, 2] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalError, match=f"non-finite {name} at t = 0.25"):
            solver._assemble(g, 0.25, xi, m1, m2, Params(nu=0.01))


def test_run_balance_residuals_are_filled():
    g = GridSpec(16, 16, 4)
    p = Params(nu=0.005, r=0.5)
    s = _smooth_state(g, p)
    res = run(s, p, SolverConfig(t_end=0.02, dt_fixed=4e-3, dump_every=1))
    interior = res.snapshots[:-1]
    assert all(np.isfinite(snap.energy.balance_residual) for snap in interior)
    assert all(np.isfinite(snap.entropy.balance_residual) for snap in interior)
    assert math.isnan(res.snapshots[-1].energy.balance_residual)


# -------------------------------------------------------------- split runs


def _two_cores(m):
    # the host seen by the split gate has two cores, whatever this one has
    m.setattr(solver.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def split(monkeypatch):
    """Every single run steps on two threads, whatever its size and host."""
    monkeypatch.setattr(solver, "SPLIT_CELLS", 0)
    _two_cores(monkeypatch)


def _doomed_state(g, p):
    xi = np.ones((g.nx1, g.nx2))
    u1 = np.full((g.nx1, g.nx2, g.nz), 1e160)  # finite but doomed under advection
    w = diagnostic_w(g, xi, *momentum_density(xi, u1, np.zeros_like(u1)), p.xi_floor)
    return ModelState.from_values(g, 0.0, xi, u1, np.zeros_like(u1), w)


def _stream_bits(instants, threads):
    # every instant to the bit, and the threads alive as each is yielded
    out = []
    for i in instants:
        threads.append(threading.active_count())
        fields = (getattr(i.state, n).values.tobytes() for n in ("xi", "u1", "u2", "w"))
        out.append((i.step_index, i.dt, i.floor_total, i.state.t, *fields))
    return out


@pytest.mark.parametrize("case", ["source", "floored"])
def test_a_split_run_is_the_unsplit_run_to_the_bit(monkeypatch, case):
    # cells that are not square (dx1 != dx2) and friction; the rows split
    # 6 + 6, and each half's stencils read the other's edge rows
    g = GridSpec(12, 8, 5)
    if case == "source":
        p = Params(nu=0.01, r=0.5)
        ms = ManufacturedSolution(g, p)
        initial, source = ms.state_at(0.0), ms.source
        cfg = SolverConfig(t_end=0.05, cfl=0.3)
    else:
        p = Params(nu=0.03, r=0.8, kappa=1.7, xi_floor=1e-3)
        initial, source, cfg = _floor_member(g, p, 3), None, SolverConfig(t_end=0.01)
    baseline, threads = threading.active_count(), []
    unsplit = _stream_bits(dump_states(initial, p, cfg, source), [])
    with monkeypatch.context() as m:
        m.setattr(solver, "SPLIT_CELLS", 0)
        _two_cores(m)
        got = _stream_bits(dump_states(initial, p, cfg, source), threads)
    assert len(got) >= 4
    assert max(threads) == baseline + 1  # the run did split
    assert got == unsplit
    if case == "floored":
        assert got[-1][2] > 0


def test_an_overflowing_split_run_is_one_numerical_error(split):
    # the helper's half runs under the step's np.errstate: an overflow there
    # is no RuntimeWarning (the suite makes one an error), and the run ends
    # in the state's NumericalError
    g = GridSpec(8, 8, 2)
    p = Params(nu=0.01)
    cfg = SolverConfig(t_end=1.0, dt_fixed=0.1)
    with pytest.raises(NumericalError, match=r"^step 1: non-finite"):
        list(dump_states(_doomed_state(g, p), p, cfg))


@pytest.mark.parametrize("end", ["closed", "finished", "failed"])
def test_no_thread_outlives_a_split_run(split, end):
    g = GridSpec(8, 8, 2)
    p = Params(nu=0.01)
    baseline = threading.active_count()
    if end == "failed":
        with pytest.raises(NumericalError):
            list(dump_states(_doomed_state(g, p), p, SolverConfig(t_end=1.0, dt_fixed=0.1)))
    else:
        cfg = SolverConfig(t_end=0.05, dt_fixed=0.005)
        instants = dump_states(_smooth_state(g, p), p, cfg)
        if end == "closed":
            for _ in range(3):
                next(instants)
            assert threading.active_count() == baseline + 1
            instants.close()
        else:
            assert len(list(instants)) == 11
    assert threading.active_count() == baseline


@pytest.mark.parametrize("run_kind", ["quick-start", "study batch", "one core"])
def test_runs_below_the_gate_or_on_one_core_start_no_thread(monkeypatch, run_kind):
    # the README quick-start grid and the stability study's batch of six
    # 32x32x8 runs stay on the caller's thread; so does any run where only
    # one core is free
    p = Params(nu=0.01, r=0.5)
    spec = InitialSpec(profile="smooth-flow", amplitude=0.15, u_amplitude=0.25)
    dims = {"quick-start": (64, 64, 16), "study batch": (32, 32, 8)}.get(run_kind, (8, 8, 4))
    s = build_initial(GridSpec(*dims), spec, p)
    if run_kind == "study batch":
        s = ModelState.stack([s] * 6)
    if run_kind == "one core":
        monkeypatch.setattr(solver, "SPLIT_CELLS", 0)
        monkeypatch.setattr(
            solver.os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
    else:
        _two_cores(monkeypatch)
    baseline = threading.active_count()
    instants = dump_states(s, p, SolverConfig(t_end=1.0))
    for _ in range(3):
        next(instants)
    assert threading.active_count() == baseline
    instants.close()


def test_a_standalone_step_stays_on_the_callers_thread(split):
    g = GridSpec(8, 8, 4)
    p = Params(nu=0.01, r=0.5)
    baseline = threading.active_count()
    step(_smooth_state(g, p), p, 2e-3)
    assert threading.active_count() == baseline


# ------------------------------------------------------------------ sources


def test_constant_mass_source_adds_exact_mass():
    g = GridSpec(8, 8, 3)
    p = Params(nu=0.01)
    s = _smooth_state(g, p, xi_amp=0.1, u_amp=0.1)
    c = 0.04
    zero_m = np.zeros((8, 8, 3))

    def source(t):
        return np.full((8, 8), c), (zero_m, zero_m)

    n_steps, dt = 5, 0.01
    cfg = SolverConfig(t_end=n_steps * dt, dt_fixed=dt)
    *_, last = dump_states(s, p, cfg, source)
    m0, m1 = (solver._mass(g, state.xi.values) for state in (s, last.state))
    expected = m0 + n_steps * dt * c * g.h * g.lx1 * g.lx2
    assert np.isclose(m1, expected, rtol=1e-13)


def test_linear_time_source_integrated_exactly():
    # Heun is the trapezoid rule on pure time dependence, exact for linear
    g = GridSpec(8, 8, 3)
    p = Params(nu=0.01)
    zeros = np.zeros((8, 8, 3))
    s = ModelState.from_values(
        g, 0.0, np.ones((8, 8)), zeros, zeros, np.zeros((8, 8, 4))
    )
    alpha = 0.3
    zero_m = np.zeros((8, 8, 3))

    def source(t):
        return np.full((8, 8), alpha * t), (zero_m, zero_m)

    *_, last = dump_states(s, p, SolverConfig(t_end=0.2, dt_fixed=0.02), source)
    xi_final = last.state.xi.values
    assert np.allclose(xi_final, 1.0 + alpha * 0.2**2 / 2.0, atol=1e-14)
