"""State containers and the bridge between the two formulations."""

import numpy as np
import pytest

from cpesim.grid import FaceFieldZ, Field2D, Field3D, GridSpec
from cpesim.states import (
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


# ------------------------------------------------------------- containers


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


def test_model_state_rejects_grid_mismatch():
    g = _grid()
    other = GridSpec(8, 8, 5)
    with pytest.raises(ValueError):
        ModelState(
            0.0,
            Field2D(g, np.ones((8, 8))),
            Field3D(other, np.zeros((8, 8, 5))),
            Field3D(other, np.zeros((8, 8, 5))),
            FaceFieldZ(other, np.zeros((8, 8, 6))),
        )


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


def test_physical_mass_residual_validates_inputs():
    g = _grid(nz=5)
    s = _stratified_physical(g)
    s1 = _physical(g, 1.0, s.rho)
    with pytest.raises(ValueError):
        physical_mass_residual(s1, s, s1)  # not time ordered
    o = _physical(GridSpec(8, 8, 6), 2.0, np.ones((8, 8, 6)))
    with pytest.raises(ValueError):
        physical_mass_residual(s, s1, o)
