"""States of the two formulations and the bridge between them."""

import numpy as np
import pytest

from cpesim.grid import GridSpec
from cpesim.states import (
    Field,
    ModelState,
    PhysicalState,
    hydrostatic_residual,
    model_to_physical,
    physical_mass_residual,
    stratification_residual,
    y_levels,
    z_to_y,
)


def _grid(nz=4):
    return GridSpec(8, 8, nz)


def _physical(g, t, rho):
    # at rest: u = 0 and v = 0
    zeros = np.zeros((g.nx1, g.nx2, g.nz))
    return PhysicalState(g, t, rho, zeros, zeros, np.zeros((g.nx1, g.nx2, g.nz + 1)))


def _stratified_physical(g, xi_fn=None):
    yc, yf = y_levels(g)
    x1, x2 = g.meshgrid_2d()
    xi = 1.0 + 0.2 * np.sin(2.0 * np.pi * x1) * np.cos(2.0 * np.pi * x2)
    if xi_fn is not None:
        xi = xi_fn(x1, x2)
    rho = xi[:, :, None] * np.exp(-yc)[None, None, :]
    return _physical(g, 0.0, rho)


# ------------------------------------------------------------ vertical map


def test_vertical_map_round_trip():
    z = np.linspace(0.0, 0.99, 200)
    y = z_to_y(z)
    assert np.array_equal(y, -np.log1p(-z))
    assert np.allclose(-np.expm1(-y), z, atol=1e-15)


def test_vertical_map_scalars_and_endpoints():
    assert z_to_y(0.0) == 0.0
    assert isinstance(z_to_y(0.5), float)
    assert z_to_y(0.5) == -np.log1p(-0.5)
    assert np.isclose(z_to_y(1.0 - np.exp(-1.0)), 1.0, atol=1e-15)


@pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, np.nan])
def test_z_to_y_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        z_to_y(bad)


def test_y_levels_image_uniform_grid():
    g = _grid(nz=6)
    yc, yf = y_levels(g)
    assert np.allclose(yc, -np.log1p(-g.z_centers()), atol=1e-15)
    assert np.allclose(yf, -np.log1p(-g.z_faces()), atol=1e-15)
    assert np.all(np.diff(yc) > 0.0)
    # grading stretches upward: gaps grow with height
    assert np.all(np.diff(np.diff(yf)) > 0.0)


def test_y_levels_requires_h_below_one():
    with pytest.raises(ValueError):
        y_levels(GridSpec(4, 4, 2, h=1.0))


# ------------------------------------------------------------ model state


def test_model_state_from_values_and_max_speed():
    g = _grid()
    u1 = np.zeros((8, 8, 4))
    u2 = np.zeros((8, 8, 4))
    u1[2, 3, 1] = 3.0
    u2[2, 3, 1] = 4.0
    s = ModelState.from_values(g, 0.5, np.ones((8, 8)), u1, u2, np.zeros((8, 8, 5)))
    assert s.t == 0.5
    assert s.grid == g
    assert s.max_speed() == 5.0


def test_model_state_rejects_nonpositive_xi():
    g = _grid()
    xi = np.ones((8, 8))
    xi[0, 0] = 0.0
    with pytest.raises(ValueError):
        ModelState.from_values(
            g, 0.0, xi, np.zeros((8, 8, 4)), np.zeros((8, 8, 4)), np.zeros((8, 8, 5))
        )


def test_model_state_rejects_boundary_w():
    g = _grid()
    w = np.zeros((8, 8, 5))
    w[:, :, -1] = 1e-3
    with pytest.raises(ValueError):
        ModelState.from_values(
            g, 0.0, np.ones((8, 8)), np.zeros((8, 8, 4)), np.zeros((8, 8, 4)), w
        )


def test_model_state_rejects_any_nonzero_face():
    # no round-off allowance: the faces of w are exact zeros, at any speed
    g = _grid()
    u1 = 10.0 * np.ones((8, 8, 4))
    for face in (0, -1):
        w = np.zeros((8, 8, 5))
        w[3, 2, face] = 1e-300
        with pytest.raises(ValueError, match="w must vanish"):
            ModelState.from_values(g, 0.0, np.ones((8, 8)), u1, u1, w)


def _at_rest(g, **fields):
    # the arrays of a state at rest on g, any of them replaced
    c = (g.nx1, g.nx2, g.nz)
    w = np.zeros((g.nx1, g.nx2, g.nz + 1))
    arrays = dict(xi=np.ones(c[:2]), u1=np.zeros(c), u2=np.zeros(c), w=w)
    arrays.update(fields)
    return arrays


def test_model_state_rejects_grid_mismatch():
    # fields shaped for another grid: the error names the first that fails
    g = _grid()
    for other, first in ((GridSpec(8, 8, 5), "u1"), (GridSpec(8, 4, 4), "xi")):
        fields = [Field(a) for a in _at_rest(other).values()]
        with pytest.raises(ValueError, match=f"^{first} expects shape"):
            ModelState(g, 0.0, *fields)


@pytest.mark.parametrize("role", ["xi", "u1", "u2", "w"])
def test_model_state_errors_name_the_field(role):
    g = GridSpec(4, 6, 3)
    good = _at_rest(g)
    wrong = np.zeros(good[role].shape[:-1] + (good[role].shape[-1] + 1,))
    with pytest.raises(ValueError, match=f"^{role} expects shape"):
        ModelState.from_values(g, 0.0, **_at_rest(g, **{role: wrong}))
    bad = good[role].copy()
    bad[1, 2, ...] = np.nan
    with pytest.raises(ValueError, match=f"^non-finite {role}$"):
        ModelState.from_values(g, 0.0, **_at_rest(g, **{role: bad}))


def test_state_validates_field_shapes():
    g = GridSpec(4, 6, 3)
    with pytest.raises(ValueError):
        ModelState.from_values(g, 0.0, **_at_rest(g, xi=np.ones((6, 4))))
    with pytest.raises(ValueError):
        ModelState.from_values(g, 0.0, **_at_rest(g, u1=np.zeros((4, 6, 4))))


def test_field_rejects_non_finite():
    g = GridSpec(4, 4, 2)
    bad = np.ones((4, 4))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        ModelState.from_values(g, 0.0, **_at_rest(g, xi=bad))


def test_field_values_are_read_only_copies():
    g = GridSpec(4, 4, 2)
    src = np.ones((4, 4))
    s = ModelState.from_values(g, 0.0, **_at_rest(g, xi=src))
    src[0, 0] = 7.0  # mutating the source must not touch the state
    assert s.xi.values[0, 0] == 1.0
    with pytest.raises(ValueError):
        s.xi.values[0, 0] = 3.0


def test_field_copies_read_only_view_of_writeable_base():
    g = GridSpec(4, 4, 2)
    base = np.ones((4, 4))
    view = base[:]
    view.setflags(write=False)
    s = ModelState.from_values(g, 0.0, **_at_rest(g, xi=view))
    base[0, 0] = 7.0  # the view is read-only, but its base is not
    assert s.xi.values[0, 0] == 1.0
    assert s.xi.values is not view


def test_field_adopts_read_only_array_owning_its_data():
    g = GridSpec(4, 4, 2)
    arr = np.zeros((4, 4, 3))
    arr.setflags(write=False)
    assert ModelState.from_values(g, 0.0, **_at_rest(g, w=arr)).w.values is arr
    rest, held = _at_rest(g), Field(arr)
    s = ModelState(g, 0.0, Field(rest["xi"]), Field(rest["u1"]), Field(rest["u2"]), held)
    assert s.w is held  # an adopted array keeps its holder
    # adoption keeps every check
    bad = np.zeros((4, 4, 3))
    bad[1, 2, 1] = np.inf
    bad.setflags(write=False)
    with pytest.raises(ValueError, match="non-finite w"):
        ModelState.from_values(g, 0.0, **_at_rest(g, w=bad))
    with pytest.raises(ValueError, match="u1 expects shape"):
        ModelState.from_values(g, 0.0, **_at_rest(g, u1=arr))


# ------------------------------------------------------------ member axis


def _members(g, n=2):
    # n single runs at rest on one grid, each with its own density
    xi = [np.full((g.nx1, g.nx2), 1.0 + k) for k in range(n)]
    zeros = np.zeros((g.nx1, g.nx2, g.nz))
    w = np.zeros((g.nx1, g.nx2, g.nz + 1))
    return [ModelState.from_values(g, 0.25, x, zeros, zeros, w) for x in xi]


def test_stack_puts_a_member_axis_before_every_field():
    g = GridSpec(8, 6, 3)
    runs = _members(g, 3)
    batch = ModelState.stack(runs)
    assert batch.members == 3 and runs[0].members is None
    assert (batch.grid, batch.t) == (g, 0.25)
    for name in ("xi", "u1", "u2", "w"):
        values = getattr(batch, name).values
        assert not values.flags.writeable
        for k, run in enumerate(runs):
            assert np.array_equal(values[k], getattr(run, name).values)


def test_stack_takes_single_runs_of_one_grid_and_time():
    g = _grid()
    a, b = _members(g)
    with pytest.raises(ValueError, match="one grid and one time"):
        ModelState.stack([a, ModelState(g, 0.5, b.xi, b.u1, b.u2, b.w)])
    with pytest.raises(ValueError, match="one grid and one time"):
        ModelState.stack([a, _members(GridSpec(8, 8, 5))[0]])
    with pytest.raises(ValueError, match="single run"):
        ModelState.stack([a, ModelState.stack([a, b])])


def test_a_batch_keeps_every_check_of_its_members():
    # finite values, xi > 0 and exact zero faces, in any member
    g = _grid()
    a, b = _members(g)
    batched = ModelState.stack([a, b])
    xi, u1, w = batched.xi.values, batched.u1.values, batched.w.values

    def batch(xi=xi, u1=u1, w=w):
        return ModelState.from_values(g, 0.0, xi, u1, u1, w)

    assert batch().members == 2
    bad_xi = xi.copy()
    bad_xi[1, 3, 2] = 0.0
    with pytest.raises(ValueError, match="xi must be strictly positive"):
        batch(xi=bad_xi)
    bad_u = u1.copy()
    bad_u[1, 0, 0, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        batch(u1=bad_u)
    for face in (0, -1):
        bad_w = w.copy()
        bad_w[1, 3, 2, face] = 1e-300
        with pytest.raises(ValueError, match="w must vanish"):
            batch(w=bad_w)
    # one member axis, of one length in every field
    with pytest.raises(ValueError, match="member axis"):
        batch(u1=u1[:1])
    with pytest.raises(ValueError, match="member axis"):
        batch(xi=xi[0])
    with pytest.raises(ValueError, match="expects shape"):
        batch(xi=xi[None])
    with pytest.raises(ValueError, match="expects shape"):
        batch(xi=xi[:0], u1=u1[:0], w=w[:0])


def test_single_run_consumers_refuse_a_batch(tmp_path):
    # they would sum over the members: each raises rather than reports
    from cpesim.diagnostics import snapshot_reports
    from cpesim.io import write_state_dump
    from cpesim.solver import Params, SolverConfig, run, trajectory

    g = _grid()
    batch = ModelState.stack(_members(g))
    p = Params()
    cfg = SolverConfig(t_end=0.0)
    consumers = {
        "snapshot_reports": lambda: snapshot_reports(batch, p),
        "write_state_dump": lambda: write_state_dump(tmp_path / "dump.cpe", batch),
        "model_to_physical": lambda: model_to_physical(batch),
        "trajectory": lambda: next(trajectory(batch, p, cfg)),
        "run": lambda: run(batch, p, cfg),
    }
    for name, call in consumers.items():
        with pytest.raises(ValueError, match="single run, not a batch of 2"):
            call()
        assert not (tmp_path / "dump.cpe").exists(), name


def test_physical_state_rejects_boundary_v():
    g = _grid()
    v = np.zeros((8, 8, 5))
    v[:, :, 0] = 0.1
    zeros = np.zeros((8, 8, 4))
    with pytest.raises(ValueError, match="v must vanish"):
        PhysicalState(g, 0.0, np.ones((8, 8, 4)), zeros, zeros, v)


@pytest.mark.parametrize("face", [0, -1], ids=["ground", "top"])
def test_physical_state_rejects_any_nonzero_face(face):
    g = _grid()
    v = np.zeros((8, 8, 5))
    v[1, 6, face] = -1e-300
    u = 10.0 * np.ones((8, 8, 4))
    with pytest.raises(ValueError, match="v must vanish"):
        PhysicalState(g, 0.0, np.ones((8, 8, 4)), u, u, v)


# ------------------------------------------------------------- the bridge


def test_model_to_physical_is_exactly_stratified():
    g = _grid(nz=6)
    x1, x2 = g.meshgrid_2d()
    xi = 1.0 + 0.3 * np.cos(2.0 * np.pi * x1)
    u1 = 0.1 * np.ones((8, 8, 6))
    s = ModelState.from_values(g, 0.0, xi, u1, np.zeros_like(u1), np.zeros((8, 8, 7)))
    phys = model_to_physical(s)
    yc, _ = y_levels(g)
    lifted = phys.rho * np.exp(yc)[None, None, :]
    assert np.max(np.abs(lifted - xi[:, :, None])) <= 1e-15 * np.max(xi)
    assert phys.grid is s.grid and phys.t == s.t


def test_model_to_physical_shares_u_without_a_copy():
    g = _grid()
    u1 = 0.1 * np.ones((8, 8, 4))
    s = ModelState.from_values(g, 0.0, np.ones((8, 8)), u1, -u1, np.zeros((8, 8, 5)))
    phys = model_to_physical(s)
    assert phys.u1 is s.u1.values
    assert phys.u2 is s.u2.values
    for arr in (phys.rho, phys.u1, phys.u2, phys.v):
        assert not arr.flags.writeable


def test_model_to_physical_scales_w_pointwise():
    g = _grid(nz=6)
    w = np.zeros((8, 8, 7))
    w[:, :, 3] = 0.25
    s = ModelState.from_values(
        g, 0.0, np.ones((8, 8)), np.zeros((8, 8, 6)), np.zeros((8, 8, 6)), w
    )
    phys = model_to_physical(s)
    _, yf = y_levels(g)
    assert np.allclose(phys.v[:, :, 3], 0.25 * np.exp(yf[3]), atol=1e-15)
    assert np.all(phys.v[:, :, 0] == 0.0)
    assert np.all(phys.v[:, :, -1] == 0.0)


def test_stratified_state_has_no_stratification_residual():
    g = _grid(nz=6)
    assert stratification_residual(_stratified_physical(g)) <= 1e-14


def test_stratification_residual_reads_a_one_level_bump():
    g = _grid(nz=4)
    phys = _stratified_physical(g, xi_fn=lambda x1, x2: np.ones_like(x1))
    rho = phys.rho.copy()
    yc, _ = y_levels(g)
    delta = 1e-3
    rho[:, :, 2] += delta * np.exp(-yc[2])  # push one level off the profile
    residual = stratification_residual(_physical(g, 0.0, rho))
    # the lifted profile deviates from its own mean by delta (nz-1)/nz
    assert np.isclose(residual, delta * (g.nz - 1) / g.nz, rtol=1e-10)


# -------------------------------------------------------------- residuals


def test_hydrostatic_residual_unit_density():
    g = _grid(nz=4)
    s = _physical(g, 0.0, np.ones((8, 8, 4)))
    # flat density: the derivative term vanishes and rho itself remains
    assert hydrostatic_residual(s) == 1.0


def test_hydrostatic_residual_second_order_on_exact_profile():
    vals = []
    for nz in (16, 32, 64, 128):
        g = GridSpec(4, 4, nz)
        yc, _ = y_levels(g)
        rho = np.broadcast_to(np.exp(-yc), (4, 4, nz))
        vals.append(hydrostatic_residual(_physical(g, 0.0, rho)))
    for coarse, fine in zip(vals, vals[1:]):
        assert 3.5 <= coarse / fine <= 4.4


def test_hydrostatic_residual_needs_three_levels():
    g = GridSpec(4, 4, 2)
    with pytest.raises(ValueError):
        hydrostatic_residual(_physical(g, 0.0, np.ones((4, 4, 2))))


def test_physical_mass_residual_static_state_is_zero():
    g = _grid(nz=5)
    rho = _stratified_physical(g).rho
    prev, mid, nxt = (_physical(g, t, rho) for t in (0.0, 0.1, 0.2))
    res = physical_mass_residual(prev, mid, nxt)
    assert np.max(np.abs(res)) == 0.0


def test_physical_mass_residual_centered_time_difference_is_exact():
    g = _grid(nz=5)
    yc, _ = y_levels(g)
    x1, x2 = g.meshgrid_2d()
    f = 1.0 + 0.1 * np.sin(2.0 * np.pi * x1)
    alpha = 0.37

    def at(t):
        rho = (1.0 + alpha * t) * f[:, :, None] * np.exp(-yc)[None, None, :]
        return _physical(g, t, rho)

    res = physical_mass_residual(at(0.0), at(0.1), at(0.2))
    expected = alpha * f[:, :, None] * np.exp(-yc)[None, None, :]
    assert np.allclose(res, expected, atol=1e-13)


def test_physical_mass_residual_exact_on_quadratic_at_uneven_times():
    # a run's last step is shortened to land on t_end: the time derivative
    # at mid must stay exact on a quadratic in t for unequal steps
    g = _grid(nz=5)
    yc, _ = y_levels(g)
    x1, x2 = g.meshgrid_2d()
    f = (1.0 + 0.1 * np.sin(2.0 * np.pi * x1))[:, :, None] * np.exp(-yc)[None, None, :]

    def at(t):
        return _physical(g, t, (1.0 + 0.37 * t + 2.5 * t**2) * f)

    res = physical_mass_residual(at(0.0), at(0.1), at(0.13))
    assert np.allclose(res, (0.37 + 5.0 * 0.1) * f, rtol=0.0, atol=1e-12)


def test_physical_mass_residual_validates_inputs():
    g = _grid(nz=5)
    s = _stratified_physical(g)
    s1 = _physical(g, 1.0, s.rho)
    with pytest.raises(ValueError):
        physical_mass_residual(s1, s, s1)  # not time ordered
    o = _physical(GridSpec(8, 8, 6), 2.0, np.ones((8, 8, 6)))
    with pytest.raises(ValueError):
        physical_mass_residual(s, s1, o)
