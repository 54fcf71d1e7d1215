"""Manufactured-solution plumbing.

The deep check is the cross-route consistency test: the sympy-derived
sources must cancel the discrete operators applied to the manufactured
fields up to the spatial truncation error, which halves twice per grid
doubling.
"""

import weakref

import numpy as np
import pytest

from cpesim import mms as mms_module
from cpesim.grid import GridSpec
from cpesim.mms import ManufacturedSolution
from cpesim.solver import Params, diagnostic_w, momentum, rhs_momentum, rhs_xi
from cpesim.verify import mms_convergence


CASES = [
    (GridSpec(16, 16, 8), Params(nu=0.01, r=0.5)),
    (GridSpec(8, 12, 6, lx1=2.0, lx2=0.5, h=0.4), Params(nu=0.05, r=1.0, kappa=2.0)),
    # no friction: no source term carries |U|
    (GridSpec(8, 8, 4), Params(nu=0.01)),
]
CASE_IDS = ["default-box", "stretched-box", "no-friction"]


def _mms(n=16, nz=None, nu=0.01, r=0.5):
    g = GridSpec(n, n, nz if nz is not None else n // 2)
    return ManufacturedSolution(g, Params(nu=nu, r=r))


def test_state_is_admissible():
    mms = _mms()
    s = mms.state_at(0.3)
    assert np.all(s.xi.values > 0.0)
    assert np.all(s.w.values[:, :, 0] == 0.0)
    # the compatibility integral vanishes analytically at the top face
    assert np.all(s.w.values[:, :, -1] == 0.0)
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


@pytest.mark.parametrize("grid, params", CASES, ids=CASE_IDS)
def test_separated_sources_match_unsplit_expressions(grid, params):
    # the sources are evaluated as plan fields x z-profiles x |U|; the unsplit
    # sympy expressions they were expanded from are the reference. cos(t)
    # takes both signs over these times, so the |cos| factor is exercised.
    import sympy as sp

    mms = ManufacturedSolution(grid, params)
    d = mms.derivation
    reference = [
        sp.lambdify(d.reference_args, d.reference(name), modules="numpy")
        for name in ("s_xi", "s_m1", "s_m2")
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


@pytest.mark.parametrize("grid, params", CASES, ids=CASE_IDS)
def test_state_matches_unsplit_fields(grid, params):
    # the fields are assembled from plan coefficients x z-profiles, like the
    # sources; the unsplit sympy fields, w = xi w / xi on the faces, are the
    # reference
    import sympy as sp

    mms = ManufacturedSolution(grid, params)
    d = mms.derivation
    xi, u1, u2, xi_w = (
        sp.lambdify(d.reference_args, d.reference(name), modules="numpy")
        for name in ("xi", "u1", "u2", "xi_w")
    )
    x1 = grid.x1_centers()[:, None, None]
    x2 = grid.x2_centers()[None, :, None]
    zc = grid.z_centers()[None, None, :]
    zf = grid.z_faces()[None, None, :]
    for t in (0.0, 0.1, 2.0, 4.0):
        s = mms.state_at(t)
        plan = np.broadcast_to(xi(x1, x2, 0.0, t), (grid.nx1, grid.nx2, 1))[:, :, 0]
        faces = (grid.nx1, grid.nx2, grid.nz + 1)
        for got, ref in (
            (s.xi.values, plan),
            (s.u1.values, u1(x1, x2, zc, t)),
            (s.u2.values, u2(x1, x2, zc, t)),
            (s.w.values, np.broadcast_to(xi_w(x1, x2, zf, t), faces) / plan[:, :, None]),
        ):
            ref = np.broadcast_to(ref, got.shape)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_nothing_is_lambdified_over_the_3d_grid(monkeypatch):
    # every lambdified function takes the plan (x1, x2) or the column z, never
    # both: the grid fields are assembled from their products
    args = []
    lambdify = mms_module._lambdify

    def spy(sp, symbols, expr):
        args.append(tuple(str(s) for s in symbols))
        return lambdify(sp, symbols, expr)

    monkeypatch.setattr(mms_module, "_lambdify", spy)
    mms_module.Derivation(1.0, 1.0, 0.5, Params(nu=0.01, r=0.5))
    assert sorted(args) == [("x1", "x2"), ("z",)]


def test_diagnosed_w_converges_to_the_manufactured_w():
    # the solver's column integral of the manufactured (xi, u) against the
    # symbolic one, on a box with dx1 != dx2
    p = Params(nu=0.01, r=0.5)
    derivation, errors = None, []
    for n in (16, 32, 64):
        g = GridSpec(n, n, n // 2, lx1=2.0, lx2=0.5, h=0.4)
        mms = ManufacturedSolution(g, p, derivation=derivation)
        derivation = mms.derivation
        s = mms.state_at(0.3)
        w = diagnostic_w(g, s.xi.values, *momentum(s), p.xi_floor)
        errors.append(np.max(np.abs(w - s.w.values)))
    orders = [np.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
    assert all(1.9 <= order <= 2.1 for order in orders), orders


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


def test_coefficients_are_evaluated_once_per_grid():
    # the plan coefficients are fixed per grid; a source call only weights
    # them by powers of cos t and sin t
    p = Params(nu=0.01, r=0.5)
    d = ManufacturedSolution(GridSpec(4, 4, 2), p).derivation
    calls = []
    coefficients = d.coefficients

    def counting(*args):
        calls.append(args)
        return coefficients(*args)

    d.coefficients = counting
    for grid in (GridSpec(8, 8, 4), GridSpec(16, 16, 8)):
        mms = ManufacturedSolution(grid, p, derivation=d)
        for t in (0.0, 0.1, 2.0):
            mms.source(t)
    assert len(calls) == 2


@pytest.mark.parametrize(
    "grid, params",
    [
        (GridSpec(16, 16, 8), Params(nu=0.01, r=0.5)),
        (GridSpec(8, 12, 6, lx1=2.0, lx2=0.5, h=0.4), Params(nu=0.05, r=1.0, kappa=2.0)),
    ],
    ids=["default-box", "stretched-box"],
)
def test_derived_w_vanishes_at_both_column_ends(grid, params):
    # the symbolic column integral xi w itself, before state_at writes the
    # faces
    import sympy as sp

    d = ManufacturedSolution(grid, params).derivation
    x1, x2, z, t = d.reference_args
    xi_w = d.reference("xi_w")
    inner = sp.lambdify((x1, x2, z, t), xi_w, modules="numpy")
    ends = [
        sp.lambdify((x1, x2, t), xi_w.subs(z, end), modules="numpy")
        for end in (0, grid.h)
    ]
    px1 = grid.x1_centers()[:, None]
    px2 = grid.x2_centers()[None, :]
    pz = grid.z_faces()[None, None, 1:-1]
    for c in (1.0, 0.3, -0.7):
        clock = np.arccos(c)
        faces = inner(px1[:, :, None], px2[:, :, None], pz, clock)
        assert np.max(np.abs(faces)) > 1e-3 * abs(c)
        for end in ends:
            assert np.max(np.abs(end(px1, px2, clock))) <= 1e-14


@pytest.mark.parametrize(
    "term, message",
    [
        ("x1 * sqrt(C)", "not polynomial"),
        ("x1 * S / (2 + C)", "not polynomial"),
        ("C * cos(x1 * z)", "does not separate in z"),
    ],
)
def test_separation_names_the_term_it_cannot_split(term, message):
    import sympy as sp

    x1, z, C, S, A = sp.symbols("x1 z C S A", real=True)
    expr = sp.sympify(term, locals={"x1": x1, "z": z, "C": C, "S": S})
    with pytest.raises(ValueError, match=message) as exc:
        mms_module._separate(sp, 1 + expr, z, (C, S, A))
    assert f"term {sp.expand(expr)} " in str(exc.value)


def test_column_integral_matches_definite_integration():
    # each z-factor takes one antiderivative, evaluated at both ends; sympy's
    # definite integral is the reference, over the column and up to z. The
    # manufactured solution's factors are 1 and cos(kz z); the others are
    # continuous polynomials in z and its trigonometric functions too
    import sympy as sp

    x1, z, s = sp.symbols("x1 z s", real=True)
    h = GridSpec(8, 8, 4).h
    kz = sp.pi / h
    factors = [
        sp.Integer(1),
        sp.cos(kz * z),
        sp.cos(kz * z) ** 2,
        sp.sin(kz * z) * sp.cos(kz * z),
        z**2,
    ]
    for factor in factors:
        for upper in (h, z):
            got = mms_module._column_integral(sp, (1 + x1) * factor, z, 0, upper)
            want = (1 + x1) * sp.integrate(factor.subs(z, s), (s, 0, upper))
            for zv in (0.0, 0.3 * h, h):
                at = {x1: 0.7, z: zv}
                assert abs(float(got.subs(at)) - float(want.subs(at))) <= 1e-14, (factor, upper)


def test_column_integral_rejects_a_factor_without_closed_form():
    import sympy as sp

    x1, z = sp.symbols("x1 z", real=True)
    with pytest.raises(ValueError, match="no closed-form antiderivative"):
        mms_module._column_integral(sp, x1 * sp.cos(sp.cos(z)), z, 0, 1)


def test_hierarchy_releases_each_initial_state(monkeypatch):
    # like the solver streams, the hierarchy keeps no level's initial state
    # past that level's first step
    initial, alive = [], []
    state_at = ManufacturedSolution.state_at
    source = ManufacturedSolution.source
    errors = ManufacturedSolution.errors

    def spy_state_at(self, t):
        state = state_at(self, t)
        if t == 0.0:
            initial.append(weakref.ref(state))
        return state

    def spy_source(self, t):
        alive.append(("source", initial[-1]() is not None))
        return source(self, t)

    def spy_errors(self, state):
        alive.append(("errors", initial[-1]() is not None))
        return errors(self, state)

    monkeypatch.setattr(ManufacturedSolution, "state_at", spy_state_at)
    monkeypatch.setattr(ManufacturedSolution, "source", spy_source)
    monkeypatch.setattr(ManufacturedSolution, "errors", spy_errors)
    rep = mms_convergence(
        GridSpec(8, 8, 4), Params(nu=0.01, r=0.5), t_end=0.05, levels=2, cfl=0.3
    )
    assert len(initial) == 2
    assert all(lvl.steps >= 2 for lvl in rep.levels)
    # Heun calls the source twice per step: only the first step sees it alive
    held = [where for where, is_alive in alive if is_alive]
    assert held == ["source"] * 4


def test_rejects_derivation_of_another_box():
    p = Params(nu=0.01, r=0.5)
    coarse = ManufacturedSolution(GridSpec(4, 4, 2), p)
    # another cell count on the same box may share the derivation
    ManufacturedSolution(GridSpec(8, 8, 4), p, derivation=coarse.derivation)
    for grid, params in (
        (GridSpec(8, 8, 4, lx1=2.0), p),
        (GridSpec(8, 8, 4), Params(nu=0.02, r=0.5)),
    ):
        with pytest.raises(ValueError, match="another box or parameter set"):
            ManufacturedSolution(grid, params, derivation=coarse.derivation)


def _consistency_defects(n, t=0.1):
    p = Params(nu=0.01, r=0.5)
    g = GridSpec(n, n, n // 2)
    mms = ManufacturedSolution(g, p)
    s = mms.state_at(t)
    s_xi, (s_m1, _) = mms.source(t)

    delta = 1e-5
    plus, minus = mms.state_at(t + delta), mms.state_at(t - delta)
    dxi_dt = (plus.xi.values - minus.xi.values) / (2.0 * delta)
    dxi = rhs_xi(g, *momentum(s))
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


@pytest.mark.parametrize(
    "g, params",
    [
        (GridSpec(8, 8, 4), Params(nu=0.01, r=0.5)),
        # dx1 != dx2: the per-axis stencil scales, cfl_dt's smallest dx and
        # the friction at r = 1
        (GridSpec(8, 12, 6, lx1=2.0, lx2=0.5, h=0.4), Params(nu=0.05, r=1.0, kappa=2.0)),
    ],
    ids=["default-box", "stretched-box"],
)
def test_solver_converges_to_manufactured_solution(g, params):
    # two-level sanity run; the tight three-level order window is part of
    # the acceptance suite
    rep = mms_convergence(g, params, t_end=0.02, levels=2, cfl=0.3)
    assert len(rep.levels) == 2
    assert rep.levels[0].err_xi > rep.levels[1].err_xi
    assert 1.5 <= rep.orders_xi[0] <= 2.5
    assert 1.5 <= rep.orders_u[0] <= 2.5
