"""Functional oracles: energy, entropy, and the a priori norms.

Closed-form states freeze exact values; random states get compensated
summation as the independent route.
"""

import math

import numpy as np
import pytest

from cpesim import diagnostics, grid, solver
from cpesim.grid import GridSpec, grad_x
from cpesim.diagnostics import (
    EnergyReport,
    EntropyReport,
    NormReport,
    bd_entropy,
    energy,
    estimate_norms,
    fill_balance_residuals,
    strain_tensor,
)
from cpesim.solver import Params, diagnostic_w, momentum_density
from cpesim.states import ModelState


def _grid(nz=4):
    return GridSpec(16, 16, nz)


def _state(g, xi, u1, u2, p):
    w = diagnostic_w(g, xi, *momentum_density(xi, u1, u2), p.xi_floor)
    return ModelState.from_values(g, 0.0, xi, u1, u2, w)


def _random_state(g, p, seed, xi_amp=0.4, u_amp=0.5):
    rng = np.random.default_rng(seed)
    x1, x2 = g.meshgrid_2d()
    xi = 1.0 + xi_amp * np.sin(2.0 * np.pi * x1) * np.cos(2.0 * np.pi * x2)
    zc = g.z_centers()
    prof = 1.0 + 0.5 * np.cos(np.pi * zc / g.h)
    u1 = u_amp * rng.standard_normal() * np.cos(2.0 * np.pi * x2)[:, :, None] * prof
    u2 = u_amp * rng.standard_normal() * np.sin(2.0 * np.pi * x1)[:, :, None] * (2.0 - prof)
    return _state(g, xi, u1, u2, p)


# ----------------------------------------------------------------- energy


def test_energy_of_quiescent_exponential_density():
    # xi = e makes the entropy density exactly one per unit area
    g = _grid()
    p = Params(nu=0.01)
    xi = np.full((16, 16), math.e)
    zeros = np.zeros((16, 16, 4))
    s = _state(g, xi, zeros, zeros, p)
    rep = energy(s, p)
    assert np.isclose(rep.E, g.h, rtol=1e-14)
    assert rep.D_visc == 0.0
    assert rep.D_fric == 0.0
    rep2 = energy(s, Params(nu=0.01, kappa=2.0))
    assert np.isclose(rep2.E, 2.0 * g.h, rtol=1e-14)


def test_energy_matches_fsum_oracle():
    g = _grid()
    p = Params(nu=0.02, r=0.3, kappa=1.5)
    s = _random_state(g, p, seed=42)
    rep = energy(s, p)

    xi = s.xi.values
    u1, u2 = s.u1.values, s.u2.values
    kinetic = 0.5 * xi[:, :, None] * (u1**2 + u2**2)
    ent = xi * np.log(xi) - xi + 1.0
    expected = math.fsum(kinetic.ravel() * g.cell_volume) + g.h * math.fsum(
        p.kappa * ent.ravel() * g.cell_area
    )
    assert np.isclose(rep.E, expected, rtol=1e-12)


def test_energy_is_nonnegative():
    g = _grid()
    p = Params(nu=0.01, r=0.1)
    for seed in (1, 2, 3):
        rep = energy(_random_state(g, p, seed), p)
        assert rep.E >= 0.0
        assert rep.D_visc >= 0.0
        assert rep.D_fric >= 0.0


def test_friction_dissipation_closed_form():
    # uniform speed 2 with unit density: D_fric = r * 8 * volume, D_visc = 0
    g = _grid()
    p = Params(nu=0.01, r=0.5)
    xi = np.ones((16, 16))
    u1 = np.full((16, 16, 4), 2.0)
    u2 = np.zeros((16, 16, 4))
    s = _state(g, xi, u1, u2, p)
    rep = energy(s, p)
    assert np.isclose(rep.D_fric, 0.5 * 8.0 * g.h, rtol=1e-13)
    assert abs(rep.D_visc) <= 1e-14


def test_viscous_dissipation_pure_shear():
    # u1(z) only: D_visc = nu int xi |d_z u1|^2, strain part absent
    g = GridSpec(8, 8, 16)
    p = Params(nu=0.05)
    xi = np.ones((8, 8))
    zc = g.z_centers()
    u1 = np.broadcast_to(np.cos(np.pi * zc / g.h), (8, 8, 16)).copy()
    s = _state(g, xi, u1, np.zeros_like(u1), p)
    rep = energy(s, p)
    from cpesim.grid import ddz

    expected = p.nu * float(np.sum(ddz(g, u1) ** 2)) * g.cell_volume
    assert np.isclose(rep.D_visc, expected, rtol=1e-13)


# ------------------------------------------------------- strain / vorticity


def test_strain_tensor_matches_gradients():
    g = _grid()
    rng = np.random.default_rng(5)
    u1 = rng.normal(size=(16, 16, 4))
    u2 = rng.normal(size=(16, 16, 4))
    d11, d12, d22 = strain_tensor(g, u1, u2)
    g1u1 = grad_x(g, u1)
    g1u2 = grad_x(g, u2)
    assert np.array_equal(d11, g1u1[0])
    assert np.array_equal(d22, g1u2[1])
    assert np.allclose(d12, 0.5 * (g1u1[1] + g1u2[0]), atol=1e-15)


def test_bd_entropy_vorticity_term_is_half_curl_squared():
    # vorticity_term = 4 nu int xi (curl / 2)^2 with curl = d_1 u2 - d_2 u1
    g = _grid()
    p = Params(nu=0.02, r=0.4)
    s = _random_state(g, p, seed=6)
    xi, u1, u2 = s.xi.values, s.u1.values, s.u2.values
    curl = grad_x(g, u2)[0] - grad_x(g, u1)[1]
    expected = 4.0 * p.nu * math.fsum(
        (xi[:, :, None] * (0.5 * curl) ** 2).ravel() * g.cell_volume
    )
    assert np.isclose(bd_entropy(s, p).vorticity_term, expected, rtol=1e-13)


# ---------------------------------------------------------------- entropy


def test_bd_entropy_reduces_to_energy_when_density_is_flat():
    # flat xi kills the log gradient: psi = u and the entropy parts agree
    g = _grid()
    p = Params(nu=0.03, r=0.2)
    xi = np.full((16, 16), 1.3)
    zc = g.z_centers()
    prof = 1.0 + 0.5 * np.cos(np.pi * zc / g.h)
    x1, x2 = g.meshgrid_2d()
    u1 = 0.3 * np.sin(2.0 * np.pi * x1)[:, :, None] * prof
    s = _state(g, xi, u1, np.zeros_like(u1), p)
    e_rep = energy(s, p)
    b_rep = bd_entropy(s, p)
    assert np.isclose(b_rep.B, e_rep.E, rtol=1e-13)
    assert b_rep.friction_cross_term == 0.0
    assert b_rep.grad_sqrt_term == 0.0
    # u1 depends on x1 and z only, so the antisymmetric part vanishes
    assert b_rep.vorticity_term == 0.0
    from cpesim.grid import ddz

    expected_dzu = p.nu * float(
        np.sum(s.xi.values[:, :, None] * ddz(g, s.u1.values) ** 2) * g.cell_volume
    )
    assert np.isclose(b_rep.dzu_term, expected_dzu, rtol=1e-12)
    assert np.isclose(b_rep.friction_term, e_rep.D_fric, rtol=1e-13)


def test_bd_entropy_terms_signature():
    g = _grid()
    p = Params(nu=0.02, r=0.4)
    for seed in (11, 12, 13):
        rep = bd_entropy(_random_state(g, p, seed), p)
        assert rep.B >= 0.0
        assert rep.dzw_term >= 0.0
        assert rep.vorticity_term >= 0.0
        assert rep.dzu_term >= 0.0
        assert rep.friction_term >= 0.0
        assert rep.grad_sqrt_term >= 0.0
        assert rep.terms == (
            rep.dzw_term,
            rep.vorticity_term,
            rep.dzu_term,
            rep.friction_term,
            rep.friction_cross_term,
            rep.grad_sqrt_term,
        )


def test_bd_entropy_matches_direct_evaluation():
    g = _grid()
    p = Params(nu=0.02, r=0.4, kappa=1.2)
    s = _random_state(g, p, seed=21)
    rep = bd_entropy(s, p)

    xi = s.xi.values
    u1, u2 = s.u1.values, s.u2.values
    gl1, gl2 = grad_x(g, np.log(xi))
    psi1 = u1 + 2.0 * p.nu * gl1[:, :, None]
    psi2 = u2 + 2.0 * p.nu * gl2[:, :, None]
    ent = xi * np.log(xi) - xi + 1.0
    expected = math.fsum(
        (0.5 * xi[:, :, None] * (psi1**2 + psi2**2)).ravel() * g.cell_volume
    ) + g.h * math.fsum(p.kappa * ent.ravel() * g.cell_area)
    assert np.isclose(rep.B, expected, rtol=1e-12)

    gs1, gs2 = grad_x(g, np.sqrt(xi))
    expected_gs = 8.0 * p.nu * p.kappa * g.h * float(
        np.sum((gs1**2 + gs2**2) * g.cell_area)
    )
    assert np.isclose(rep.grad_sqrt_term, expected_gs, rtol=1e-12)

    gxi1, gxi2 = grad_x(g, xi)
    speed = np.sqrt(u1**2 + u2**2)
    expected_cross = 2.0 * p.nu * p.r * float(
        np.sum(speed * (u1 * gxi1[:, :, None] + u2 * gxi2[:, :, None])) * g.cell_volume
    )
    assert np.isclose(rep.friction_cross_term, expected_cross, rtol=1e-10)


# ------------------------------------------------------------------- norms


def test_norms_of_quiescent_state():
    g = _grid()
    p = Params(nu=0.01)
    x1, x2 = g.meshgrid_2d()
    xi = 1.0 + 0.4 * np.sin(2.0 * np.pi * x1)
    zeros = np.zeros((16, 16, 4))
    s = _state(g, xi, zeros, zeros, p)
    n = estimate_norms(s)
    for name in NormReport.ORDER:
        if name in ("entropy_l1", "grad_sqrt_xi_l2"):
            continue
        assert getattr(n, name) == 0.0
    ent = xi * np.log(xi) - xi + 1.0
    assert np.isclose(n.entropy_l1, g.h * float(np.sum(ent * g.cell_area)), rtol=1e-12)
    gs1, gs2 = grad_x(g, np.sqrt(xi))
    expected = math.sqrt(g.h) * math.sqrt(float(np.sum((gs1**2 + gs2**2) * g.cell_area)))
    assert np.isclose(n.grad_sqrt_xi_l2, expected, rtol=1e-12)


def test_norms_order_and_tuple_agree():
    g = _grid()
    p = Params(nu=0.01)
    n = estimate_norms(_random_state(g, p, seed=31))
    assert len(NormReport.ORDER) == 9
    assert n.as_tuple() == tuple(getattr(n, name) for name in NormReport.ORDER)


def test_poincare_ratio_bounded_by_column_height():
    # w integrates d_z w from a zero bottom face, so |sqrt(xi) w| <= h |sqrt(xi) d_z w|
    g = GridSpec(16, 16, 8)
    p = Params(nu=0.01)
    for seed in (41, 42, 43):
        n = estimate_norms(_random_state(g, p, seed))
        if n.sqrt_xi_dzw_l2 == 0.0:
            continue
        assert n.sqrt_xi_w_l2 <= g.h * n.sqrt_xi_dzw_l2 * (1.0 + 1e-12)


# -------------------------------------------------------------- residuals


def test_fill_balance_residuals_forward_difference():
    e = [
        EnergyReport(t=0.0, E=3.0, D_visc=0.5, D_fric=0.25),
        EnergyReport(t=0.5, E=2.0, D_visc=0.1, D_fric=0.1),
    ]
    b = [
        EntropyReport(
            t=0.0, B=4.0, dzw_term=0.1, vorticity_term=0.2, dzu_term=0.3,
            friction_term=0.4, friction_cross_term=-0.5, grad_sqrt_term=0.6,
        ),
        EntropyReport(
            t=0.5, B=3.5, dzw_term=0.0, vorticity_term=0.0, dzu_term=0.0,
            friction_term=0.0, friction_cross_term=0.0, grad_sqrt_term=0.0,
        ),
    ]
    fill_balance_residuals(e, b)
    # |(2-3)/0.5 + 0.75| and |(3.5-4)/0.5 + 1.1|
    assert np.isclose(e[0].balance_residual, 1.25, atol=1e-15)
    assert np.isclose(b[0].balance_residual, 0.1, atol=1e-14)
    assert math.isnan(e[1].balance_residual)
    assert math.isnan(b[1].balance_residual)


def test_fill_balance_residuals_validates_series():
    e = [EnergyReport(t=0.0, E=1.0, D_visc=0.0, D_fric=0.0)]
    b = []
    with pytest.raises(ValueError):
        fill_balance_residuals(e, b)
    e2 = [
        EnergyReport(t=0.5, E=1.0, D_visc=0.0, D_fric=0.0),
        EnergyReport(t=0.5, E=1.0, D_visc=0.0, D_fric=0.0),
    ]
    b2 = [
        EntropyReport(t=0.5, B=1.0, dzw_term=0.0, vorticity_term=0.0, dzu_term=0.0,
                      friction_term=0.0, friction_cross_term=0.0, grad_sqrt_term=0.0),
        EntropyReport(t=0.6, B=1.0, dzw_term=0.0, vorticity_term=0.0, dzu_term=0.0,
                      friction_term=0.0, friction_cross_term=0.0, grad_sqrt_term=0.0),
    ]
    with pytest.raises(ValueError):
        fill_balance_residuals(e2, b2)


# ------------------------------------------------------- one snapshot pass


def test_snapshot_derives_each_field_once(monkeypatch):
    # distinct fields: grad of u1, u2 (unscaled differences) and of the plan
    # fields xi, sqrt(xi), ln(xi); d_z of u1, u2; d_z w. The counts are exact,
    # so a derivation moved to a name not counted here fails the test
    g = _grid()
    p = Params(nu=0.01, r=0.5)
    s = _random_state(g, p, seed=41)
    calls = {"grad_x": 0, "_grad_k1": 0, "_diff_z": 0, "_diff_faces": 0}

    def counted(name):
        original = getattr(diagnostics, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(diagnostics, name, counted(name))
    # every reported number is a plan sum of column sums: no norm pass
    lp_norm_calls = []
    original_lp_norm = grid.lp_norm

    def counted_lp_norm(*args, **kwargs):
        lp_norm_calls.append(args)
        return original_lp_norm(*args, **kwargs)

    monkeypatch.setattr(grid, "lp_norm", counted_lp_norm)
    monkeypatch.setattr(diagnostics, "lp_norm", counted_lp_norm, raising=False)
    snap = solver._snapshot(0, s, 0.0, p, 0)
    assert calls == {"grad_x": 3, "_grad_k1": 2, "_diff_z": 2, "_diff_faces": 1}
    assert len(lp_norm_calls) == 0
    monkeypatch.undo()
    assert snap.energy == energy(s, p)
    assert snap.entropy == bd_entropy(s, p)
    assert snap.norms == estimate_norms(s)


# ------------------------------------------------- per-field reference forms


def _roll_grad(g, a):
    return (
        (np.roll(a, -1, axis=0) - np.roll(a, 1, axis=0)) / (2.0 * g.dx1),
        (np.roll(a, -1, axis=1) - np.roll(a, 1, axis=1)) / (2.0 * g.dx2),
    )


def _mirror_ddz(g, a):
    padded = np.concatenate([a[..., :1], a, a[..., -1:]], axis=-1)
    return (padded[..., 2:] - padded[..., :-2]) / (2.0 * g.dz)


def _reference_quantities(g, s, p):
    """The 19 reported numbers, each from its own 3-D field, summed by fsum."""
    xi, u1, u2, w = s.xi.values, s.u1.values, s.u2.values, s.w.values
    xi3 = xi[:, :, None]

    def vol(x):
        return math.fsum(np.broadcast_to(x, u1.shape).ravel() * g.cell_volume)

    def area(x):
        return math.fsum(x.ravel() * g.cell_area)

    (d1u1, d2u1), (d1u2, d2u2) = _roll_grad(g, u1), _roll_grad(g, u2)
    d12 = 0.5 * (d2u1 + d1u2)
    strain_sq = d1u1**2 + 2.0 * d12**2 + d2u2**2
    spin = 0.5 * (d1u2 - d2u1)
    dzu_sq = _mirror_ddz(g, u1) ** 2 + _mirror_ddz(g, u2) ** 2
    dzw = np.diff(w, axis=-1) / g.dz
    speed = np.sqrt(u1**2 + u2**2)
    ent = xi * np.log(xi) - xi + 1.0
    gl1, gl2 = _roll_grad(g, np.log(xi))
    psi_sq = (u1 + 2.0 * p.nu * gl1[:, :, None]) ** 2 + (
        u2 + 2.0 * p.nu * gl2[:, :, None]
    ) ** 2
    gxi1, gxi2 = _roll_grad(g, xi)
    cross = speed * (u1 * gxi1[:, :, None] + u2 * gxi2[:, :, None])
    gs1, gs2 = _roll_grad(g, np.sqrt(xi))
    face_weights = np.full(g.nz + 1, g.dz)
    face_weights[[0, -1]] = 0.5 * g.dz
    xi_w_sq = math.fsum((xi3 * w**2 * face_weights * g.cell_area).ravel())
    potential = g.h * area(p.kappa * ent)
    return {
        "E": vol(0.5 * xi3 * speed**2) + potential,
        "D_visc": vol(xi3 * (2.0 * p.nu * strain_sq + p.nu * dzu_sq)),
        "D_fric": p.r * vol(xi3 * speed**3),
        "B": vol(0.5 * xi3 * psi_sq) + potential,
        "dzw_term": 2.0 * p.nu * vol(xi3 * dzw**2),
        "vorticity_term": 2.0 * p.nu * vol(xi3 * 2.0 * spin**2),
        "dzu_term": p.nu * vol(xi3 * dzu_sq),
        "friction_term": p.r * vol(xi3 * speed**3),
        "friction_cross_term": 2.0 * p.nu * p.r * vol(cross),
        "grad_sqrt_term": 8.0 * p.nu * p.kappa * g.h * area(gs1**2 + gs2**2),
        "sqrt_xi_u_l2": math.sqrt(vol(xi3 * speed**2)),
        "cbrt_xi_u_l3": vol(xi3 * speed**3) ** (1.0 / 3.0),
        "sqrt_xi_dzu_l2": math.sqrt(vol(xi3 * dzu_sq)),
        "sqrt_xi_strain_l2": math.sqrt(vol(xi3 * strain_sq)),
        "entropy_l1": g.h * area(np.abs(ent)),
        "grad_sqrt_xi_l2": math.sqrt(g.h * area(gs1**2 + gs2**2)),
        "sqrt_xi_dzw_l2": math.sqrt(vol(xi3 * dzw**2)),
        "sqrt_xi_vorticity_l2": math.sqrt(vol(xi3 * 2.0 * spin**2)),
        "sqrt_xi_w_l2": math.sqrt(xi_w_sq),
    }, 2.0 * p.nu * p.r * vol(
        np.abs(speed * u1 * gxi1[:, :, None]) + np.abs(speed * u2 * gxi2[:, :, None])
    )


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_reports_match_per_field_formulas(seed):
    # a random state with no symmetry on a box with lx1 != lx2
    g = GridSpec(12, 8, 5, lx1=1.3, lx2=0.7)
    p = Params(nu=0.03, r=0.8, kappa=1.7)
    rng = np.random.default_rng(seed)
    xi = 0.6 + rng.random((12, 8))
    u1 = rng.standard_normal((12, 8, 5))
    u2 = rng.standard_normal((12, 8, 5))
    s = _state(g, xi, u1, u2, p)
    e, b, n = diagnostics.snapshot_reports(s, p)
    reported = {"E": e.E, "D_visc": e.D_visc, "D_fric": e.D_fric, "B": b.B}
    for name in ("dzw_term", "vorticity_term", "dzu_term", "friction_term",
                 "friction_cross_term", "grad_sqrt_term"):
        reported[name] = getattr(b, name)
    reported.update(zip(NormReport.ORDER, n.as_tuple()))
    expected, cross_scale = _reference_quantities(g, s, p)
    assert reported.keys() == expected.keys() and len(expected) == 19
    for name, value in expected.items():
        if name == "friction_cross_term":
            # sign-indefinite: rounding scales with the sum of |summands|
            assert abs(reported[name] - value) <= 1e-13 * cross_scale, name
        else:
            assert reported[name] == pytest.approx(value, rel=1e-13, abs=0.0), name
    assert n.max_speed == s.max_speed()
