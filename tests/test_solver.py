"""Stepper oracles: tendencies, the diagnosed vertical velocity, CFL,
conservation, and failure signaling."""

import dataclasses
import math
import re
import weakref

import numpy as np
import pytest

from cpesim import grid as grid_module
from cpesim import solver
from cpesim.grid import GridSpec, div_x, grad_x
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
    vertical_mean,
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


def test_vertical_mean():
    g = GridSpec(4, 4, 3)
    f = np.zeros((4, 4, 3))
    f[..., 0], f[..., 1], f[..., 2] = 1.0, 2.0, 6.0
    assert np.allclose(vertical_mean(g, f), 3.0)
    with pytest.raises(ValueError):
        vertical_mean(g, np.zeros((4, 4, 4)))


# -------------------------------------------------------------- tendencies


def test_rhs_xi_telescopes():
    g = GridSpec(16, 16, 4)
    p = Params(nu=0.01)
    s = _smooth_state(g, p)
    d = rhs_xi(g, s.xi.values, s.u1.values, s.u2.values)
    assert abs(float(np.sum(d))) <= 1e-13


def test_rhs_xi_matches_centered_divergence():
    # dual route: flux form against the centered stencil written out here
    g = GridSpec(16, 16, 4)
    p = Params(nu=0.01)
    s = _smooth_state(g, p)
    xi = s.xi.values
    f1 = xi * vertical_mean(g, s.u1.values)
    f2 = xi * vertical_mean(g, s.u2.values)
    expected = -(
        (np.roll(f1, -1, axis=0) - np.roll(f1, 1, axis=0)) / (2.0 * g.dx1)
        + (np.roll(f2, -1, axis=1) - np.roll(f2, 1, axis=1)) / (2.0 * g.dx2)
    )
    assert np.allclose(
        rhs_xi(g, s.xi.values, s.u1.values, s.u2.values), expected, atol=1e-13
    )


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

    for name in ("_div_k1", "div_x"):
        monkeypatch.setattr(solver, name, counted(getattr(solver, name)))
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
    # one cell floored, with the tendency handed back from w's divergence
    g = GridSpec(12, 8, 5, lx1=1.3, lx2=0.7, h=0.6)
    p = Params(nu=0.03)
    s = _random_state(g, p)
    xi, u1, u2 = s.xi.values, s.u1.values, s.u2.values
    dxi = rhs_xi(g, xi, u1, u2)
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
    want = rhs_xi(g, stage.xi.values, stage.u1.values, stage.u2.values)
    assert np.max(np.abs(dxi_stage - want)) <= 1e-13 * np.max(np.abs(want))


def test_step_stage_budget(monkeypatch):
    # the vertical viscosity rides in the vertical face flux, and w is
    # diagnosed from div_x(xi u) without forming ubar
    g = GridSpec(8, 8, 4)
    p = Params(nu=0.01, r=0.5)
    s = _smooth_state(g, p)
    calls = {"d2dz2": 0, "vertical_mean": 0, "diagnostic_w": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    spy = counted("d2dz2", grid_module.d2dz2)
    monkeypatch.setattr(grid_module, "d2dz2", spy)
    monkeypatch.setattr(solver, "d2dz2", spy, raising=False)
    for name in ("vertical_mean", "diagnostic_w"):
        monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
    step(s, p, 2e-3)
    assert calls["d2dz2"] == 0
    assert calls["vertical_mean"] <= 4
    assert calls["diagnostic_w"] == 2


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


def test_rhs_momentum_conserves_momentum_without_drag():
    # every term but the drag is a flux difference that telescopes
    g = GridSpec(16, 12, 6, lx1=1.5)
    p = Params(nu=0.05, r=0.0, kappa=1.3)
    s = _random_state(g, p)
    for out in rhs_momentum(g, s, p, momentum(s)):
        assert abs(float(np.sum(out))) <= 1e-13 * float(np.sum(np.abs(out)))


# --------------------------------------------------------------------- cfl


def _wave(g, a):
    x1, x2 = g.meshgrid_2d()
    return 1.0 + a * np.sin(2.0 * np.pi * x1) * np.cos(2.0 * np.pi * x2)


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
    # dx^2/(4 nu) = (1/16)^2 / 2 now undercuts the advective bound
    assert np.isclose(cfl_dt(s, p, 0.4), 0.4 * (1.0 / 16.0) ** 2 / 2.0, rtol=1e-14)


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


def _density(g, kind):
    rng = np.random.default_rng(3)
    if kind == "uniform":
        return np.ones((g.nx1, g.nx2))
    if kind == "random":
        return rng.uniform(0.1, 2.0, (g.nx1, g.nx2))
    if kind == "near-vacuum":
        xi = np.ones((g.nx1, g.nx2))
        xi[rng.random(xi.shape) < 0.3] = 1e-3
        return xi
    return _wave(g, 0.999)


@pytest.mark.parametrize("kind", ["uniform", "random", "near-vacuum", "wave"])
def test_cfl_dt_bounds_the_horizontal_viscous_spectrum(kind):
    g = GridSpec(8, 8, 2)
    p = Params(nu=1.0)
    xi = _density(g, kind)
    dt = cfl_dt(_at_rest(g, xi), p, 1.0)
    # the horizontal viscous bound binds: the advective dx / sqrt(kappa)
    # (the state is at rest) lies above it, and so does the joint viscous
    # bound 2 / (rho_h + rho_v), since dz > dx makes rho_v < rho_h
    assert g.dz > g.dx1
    assert dt < g.dx1 / math.sqrt(p.kappa)
    product = _viscous_radius(g, xi, p.nu) * dt
    assert product <= 1.0 + 1e-12
    if kind == "uniform":
        # uniform xi attains the bound: the iteration has converged, and a
        # bound with a factor below 4 fails the assertion above
        assert product >= 1.0 - 1e-9


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


def test_cfl_dt_is_local_on_a_smooth_near_vacuum_wave():
    # min xi is about 0.01 on this grid: the global ratio max/min, about
    # 190, would cut dt by that much, the local neighbour ratio by under 3
    g = GridSpec(32, 32, 8)
    p = Params(nu=0.01)
    flat = cfl_dt(_at_rest(g, np.ones((32, 32))), p, 0.4)
    assert cfl_dt(_at_rest(g, _wave(g, 0.999)), p, 0.4) >= flat / 3.0


def test_near_vacuum_wave_runs_in_few_steps():
    g = GridSpec(32, 32, 8)
    p = Params(nu=0.01)
    s = _at_rest(g, _wave(g, 0.999))
    *_, last = dump_states(s, p, SolverConfig(t_end=0.5, dump_every=10**9))
    m0 = float(np.sum(s.xi.values))
    assert abs(last.state.t - 0.5) <= 1e-12
    assert last.step_index <= 80
    assert last.floor_total == 0
    assert abs(float(np.sum(last.state.xi.values)) - m0) <= 1e-12 * m0


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


def test_step_is_second_order():
    g = GridSpec(16, 16, 4)
    p = Params(nu=0.01, r=0.5)
    s0 = _smooth_state(g, p)

    def advance(s, dt, n):
        for _ in range(n):
            s, _ = step(s, p, dt)
        return s

    def dist(a, b):
        return max(
            np.max(np.abs(a.xi.values - b.xi.values)),
            np.max(np.abs(a.u1.values - b.u1.values)),
            np.max(np.abs(a.u2.values - b.u2.values)),
        )

    dt = 4e-3
    d1 = dist(advance(s0, dt, 1), advance(s0, dt / 2, 2))
    d2 = dist(advance(s0, dt / 2, 2), advance(s0, dt / 4, 4))
    assert 3.5 <= d1 / d2 <= 4.5


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
    tail = (snap.floor_activations, snap.w_top_defect)
    residuals = (snap.energy.balance_residual, snap.entropy.balance_residual)
    return head + (energy, entropy, snap.norms) + tail, residuals


def test_trajectory_matches_run():
    g = GridSpec(8, 8, 4)
    p = Params(nu=0.01, r=0.5)
    cfg = SolverConfig(t_end=0.2, dump_every=2)  # adaptive steps 2, 4, 6
    streamed = [_report(snap) for snap in trajectory(_smooth_state(g, p), p, cfg)]
    collected = [_report(snap) for snap in run(_smooth_state(g, p), p, cfg).snapshots]
    assert len(streamed) == len(collected) == 4
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
