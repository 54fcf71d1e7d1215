"""Manufactured-solution plumbing.

The deep check is the cross-route consistency test: the sympy-derived
sources must cancel the discrete operators applied to the manufactured
fields up to the spatial truncation error, which halves twice per grid
doubling.
"""

import numpy as np
import pytest

from cpesim import mms as mms_module
from cpesim.grid import GridSpec
from cpesim.mms import ManufacturedSolution
from cpesim.solver import Params, momentum, rhs_momentum, rhs_xi
from cpesim.verify import mms_convergence


def _mms(n=16, nz=None, nu=0.01, r=0.5):
    g = GridSpec(n, n, nz if nz is not None else n // 2)
    return ManufacturedSolution(g, Params(nu=nu, r=r))


def test_state_is_admissible():
    mms = _mms()
    s = mms.state_at(0.3)
    assert np.all(s.xi.values > 0.0)
    assert np.all(s.w.values[:, :, 0] == 0.0)
    # the compatibility integral vanishes analytically at the top face
    assert np.max(np.abs(s.w.values[:, :, -1])) <= 1e-12
    assert s.t == 0.3


def test_errors_vanish_on_manufactured_fields():
    mms = _mms(n=8, nz=4)
    s = mms.state_at(0.15)
    err_xi, err_u = mms.errors(s)
    assert err_xi == 0.0
    assert err_u == 0.0


def test_source_layout():
    mms = _mms(n=8, nz=4)
    s_xi, (s_m1, s_m2) = mms.source(0.1)
    assert s_xi.shape == (8, 8)
    assert s_m1.shape == (8, 8, 4)
    assert s_m2.shape == (8, 8, 4)
    assert np.all(np.isfinite(s_xi))
    assert np.all(np.isfinite(s_m1))
    assert np.all(np.isfinite(s_m2))


def test_rejects_density_amplitude_reaching_vacuum():
    g = GridSpec(8, 8, 4)
    for amplitude in (1.0, -1.0):
        with pytest.raises(ValueError):
            ManufacturedSolution(g, Params(nu=0.01), xi_amplitude=amplitude)


@pytest.mark.parametrize(
    "grid, params",
    [
        (GridSpec(16, 16, 8), Params(nu=0.01, r=0.5)),
        (GridSpec(8, 12, 6, lx1=2.0, lx2=0.5, h=0.4), Params(nu=0.05, r=1.0, kappa=2.0)),
        # no friction: no source term carries |U|
        (GridSpec(8, 8, 4), Params(nu=0.01)),
    ],
    ids=["default-box", "stretched-box", "no-friction"],
)
def test_separated_sources_match_unsplit_expressions(grid, params):
    # the sources are evaluated as plan fields x z-profiles x |U|; the unsplit
    # sympy expressions they were expanded from are the reference. cos(t)
    # takes both signs over these times, so the |cos| factor is exercised.
    import sympy as sp

    mms = ManufacturedSolution(grid, params)
    d = mms.derivation
    reference = [
        sp.lambdify(d.reference_args, e, modules="numpy") for e in d.reference_sources()
    ]
    x1 = grid.x1_centers()[:, None, None]
    x2 = grid.x2_centers()[None, :, None]
    z = grid.z_centers()[None, None, :]
    for t in (0.1, 2.0, 4.0):
        s_xi, (s_m1, s_m2) = mms.source(t)
        got = (s_xi[:, :, None], s_m1, s_m2)
        for fn, value in zip(reference, got):
            ref = np.broadcast_to(fn(x1, x2, z, t), (grid.nx1, grid.nx2, grid.nz))
            assert np.max(np.abs(value - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_hierarchy_derives_once(monkeypatch):
    built = []

    class CountingDerivation(mms_module.Derivation):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(mms_module, "Derivation", CountingDerivation)
    rep = mms_convergence(
        GridSpec(4, 4, 2), Params(nu=0.01, r=0.5), t_end=0.002, levels=3, cfl=0.3
    )
    assert len(rep.levels) == 3
    assert len(built) == 1


def test_rejects_derivation_of_another_box():
    p = Params(nu=0.01, r=0.5)
    coarse = ManufacturedSolution(GridSpec(4, 4, 2), p)
    # another cell count on the same box may share the derivation
    ManufacturedSolution(GridSpec(8, 8, 4), p, derivation=coarse.derivation)
    for grid, params, kwargs in (
        (GridSpec(8, 8, 4, lx1=2.0), p, {}),
        (GridSpec(8, 8, 4), Params(nu=0.02, r=0.5), {}),
        (GridSpec(8, 8, 4), p, {"u_amplitude": 0.1}),
    ):
        with pytest.raises(ValueError):
            ManufacturedSolution(grid, params, derivation=coarse.derivation, **kwargs)


def _consistency_defects(n, t=0.1):
    p = Params(nu=0.01, r=0.5)
    g = GridSpec(n, n, n // 2)
    mms = ManufacturedSolution(g, p)
    s = mms.state_at(t)
    s_xi, (s_m1, _) = mms.source(t)

    delta = 1e-5
    plus, minus = mms.state_at(t + delta), mms.state_at(t - delta)
    dxi_dt = (plus.xi.values - minus.xi.values) / (2.0 * delta)
    dxi = rhs_xi(g, s.xi.values, s.u1.values, s.u2.values)
    defect_xi = np.max(np.abs(dxi_dt - dxi - s_xi))

    dm1_dt = (
        plus.xi.values[:, :, None] * plus.u1.values
        - minus.xi.values[:, :, None] * minus.u1.values
    ) / (2.0 * delta)
    r1, _ = rhs_momentum(g, s, p, momentum(s))
    defect_m1 = np.max(np.abs(dm1_dt - r1 - s_m1))
    return defect_xi, defect_m1


def test_sources_cancel_discrete_operators_to_truncation():
    # residual of (manufactured fields, symbolic sources) under the discrete
    # operators is pure truncation error: it must shrink near second order
    coarse = _consistency_defects(16)
    fine = _consistency_defects(32)
    assert fine[0] < coarse[0] / 3.2
    assert fine[1] < coarse[1] / 3.2


def test_solver_converges_to_manufactured_solution():
    # two-level sanity run; the tight three-level order window is part of
    # the acceptance suite
    g = GridSpec(8, 8, 4)
    rep = mms_convergence(g, Params(nu=0.01, r=0.5), t_end=0.02, levels=2, cfl=0.3)
    assert len(rep.levels) == 2
    assert rep.levels[0].err_xi > rep.levels[1].err_xi
    assert 1.5 <= rep.orders_xi[0] <= 2.5
    assert 1.5 <= rep.orders_u[0] <= 2.5
