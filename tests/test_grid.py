"""Oracles for the difference operators and quadrature helpers.

Richardson windows [3.6, 4.4] freeze the second-order claim; exactness
oracles (linear profiles, telescoping sums) get roundoff-level bounds.
"""

import math

import numpy as np
import pytest

from cpesim import grid as grid_module
from cpesim.grid import (
    DEFAULT_HEIGHT,
    GridSpec,
    d2dz2,
    ddz,
    div_x,
    grad_x,
    lp_norm,
    quadrature_weights,
)


def _rng():
    return np.random.default_rng(1234)


# ---------------------------------------------------------------- GridSpec


def test_default_height_is_transform_image():
    assert DEFAULT_HEIGHT == 1.0 - math.exp(-1.0)


def test_spacing_properties():
    g = GridSpec(8, 16, 4, lx1=2.0, lx2=1.0, h=0.5)
    assert g.dx1 == 0.25
    assert g.dx2 == 0.0625
    assert g.dz == 0.125
    assert g.cell_area == 0.25 * 0.0625
    assert g.cell_volume == 0.25 * 0.0625 * 0.125


def test_centers_and_faces():
    g = GridSpec(4, 4, 5, h=1.0)
    assert np.allclose(g.z_faces(), [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    assert np.allclose(g.z_centers(), [0.1, 0.3, 0.5, 0.7, 0.9])
    assert np.allclose(g.x1_centers(), [0.125, 0.375, 0.625, 0.875])


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(nx1=3, nx2=4, nz=2),  # odd
        dict(nx1=2, nx2=4, nz=2),  # too small
        dict(nx1=4, nx2=5, nz=2),
        dict(nx1=4, nx2=4, nz=1),
        dict(nx1=4, nx2=4, nz=2, lx1=0.0),
        dict(nx1=4, nx2=4, nz=2, h=-1.0),
        dict(nx1=4, nx2=4, nz=2, h=math.inf),
    ],
)
def test_spec_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError):
        GridSpec(**kwargs)


# ------------------------------------------------------- horizontal stencils


def _grad_max_err(n):
    g = GridSpec(n, n, 2)
    x1, x2 = g.meshgrid_2d()
    f = np.sin(2.0 * np.pi * x1) * np.cos(2.0 * np.pi * x2)
    d1, d2 = grad_x(g, f)
    e1 = d1 - 2.0 * np.pi * np.cos(2.0 * np.pi * x1) * np.cos(2.0 * np.pi * x2)
    e2 = d2 + 2.0 * np.pi * np.sin(2.0 * np.pi * x1) * np.sin(2.0 * np.pi * x2)
    return max(np.max(np.abs(e1)), np.max(np.abs(e2)))


def test_grad_x_second_order():
    errs = [_grad_max_err(n) for n in (16, 32, 64)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.6 <= coarse / fine <= 4.4


def test_grad_x_translation_equivariance():
    g = GridSpec(8, 8, 2)
    f = _rng().normal(size=(8, 8))
    d1, d2 = grad_x(g, f)
    r1, r2 = grad_x(g, np.roll(f, 3, axis=0))
    # periodic stencil commutes with the shift bit for bit
    assert np.array_equal(r1, np.roll(d1, 3, axis=0))
    assert np.array_equal(r2, np.roll(d2, 3, axis=0))


def test_grad_x_linearity():
    g = GridSpec(8, 8, 2)
    rng = _rng()
    f, h = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
    left = grad_x(g, 2.0 * f - 0.5 * h)
    right1, right2 = grad_x(g, f), grad_x(g, h)
    assert np.allclose(left[0], 2.0 * right1[0] - 0.5 * right2[0], atol=1e-13)
    assert np.allclose(left[1], 2.0 * right1[1] - 0.5 * right2[1], atol=1e-13)


def test_div_x_telescopes_on_random_data():
    g = GridSpec(64, 64, 2)
    rng = _rng()
    a1 = rng.normal(size=(64, 64))
    a2 = rng.normal(size=(64, 64))
    total = float(np.sum(div_x(g, a1, a2))) * g.cell_area
    scale = max(np.max(np.abs(a1)), np.max(np.abs(a2)))
    assert abs(total) <= 1e-13 * scale


def test_div_x_equals_centered_differences():
    # div_x is the sum of the centered differences grad_x takes
    g = GridSpec(32, 32, 2)
    rng = _rng()
    a1 = rng.normal(size=(32, 32))
    a2 = rng.normal(size=(32, 32))
    d = div_x(g, a1, a2)
    c = grad_x(g, a1)[0] + grad_x(g, a2)[1]
    assert np.allclose(d, c, atol=1e-12)


def test_div_x_applies_per_level():
    g = GridSpec(8, 8, 3)
    rng = _rng()
    a1 = rng.normal(size=(8, 8, 3))
    a2 = rng.normal(size=(8, 8, 3))
    d = div_x(g, a1, a2)
    for k in range(3):
        assert np.allclose(d[..., k], div_x(g, a1[..., k], a2[..., k]))


# ----------------------------------------------------- reference stencils

# The np.roll / np.concatenate formulas of the operators. The slice-based
# operators keep their arithmetic order, so they must agree bit for bit;
# div_x is the sum of the two centered differences of grad_x.


def _roll_grad_x(g, a):
    d1 = (np.roll(a, -1, axis=0) - np.roll(a, 1, axis=0)) / (2.0 * g.dx1)
    d2 = (np.roll(a, -1, axis=1) - np.roll(a, 1, axis=1)) / (2.0 * g.dx2)
    return d1, d2


def _roll_div_x(g, a1, a2):
    return _roll_grad_x(g, a1)[0] + _roll_grad_x(g, a2)[1]


def _roll_flux_div_x(g, a1, a2):
    # the face-mean flux difference div_x was first written as; it equals
    # the centered difference in exact arithmetic
    flux1 = 0.5 * (a1 + np.roll(a1, -1, axis=0))
    flux2 = 0.5 * (a2 + np.roll(a2, -1, axis=1))
    out = (flux1 - np.roll(flux1, 1, axis=0)) / g.dx1
    out += (flux2 - np.roll(flux2, 1, axis=1)) / g.dx2
    return out


def _padded(a):
    return np.concatenate([a[..., :1], a, a[..., -1:]], axis=-1)


def _concat_ddz(g, a):
    padded = _padded(a)
    return (padded[..., 2:] - padded[..., :-2]) / (2.0 * g.dz)


def _concat_d2dz2(g, a):
    padded = _padded(a)
    return (padded[..., 2:] - 2.0 * padded[..., 1:-1] + padded[..., :-2]) / g.dz**2


def _stencil_input(shape, seed):
    a = np.random.default_rng(seed).normal(size=shape)
    a.flat[:3] = (0.0, -0.0, 1e-310)  # signed zeros and a subnormal
    return a


def _stencil_shapes(g):
    return {
        "plan": (g.nx1, g.nx2),
        "column": (g.nx1, g.nx2, g.nz),
        "face": (g.nx1, g.nx2, g.nz + 1),
    }


def _assert_same_bits(got, want, label):
    assert np.array_equal(got, want), label
    assert np.array_equal(np.signbit(got), np.signbit(want)), label


# the minimum cell count on either axis, with cells that are not square and
# an odd column, where a flat shift meets a wrap row in every row it crosses
_STENCIL_GRIDS = pytest.mark.parametrize(
    "g",
    [
        GridSpec(8, 6, 5, lx1=1.3, lx2=0.7, h=0.6),
        GridSpec(4, 6, 2),
        GridSpec(6, 4, 3),
        GridSpec(4, 6, 3, lx1=0.9, lx2=1.7),
        GridSpec(6, 4, 5, lx1=1.7, lx2=0.9, h=0.4),
    ],
    ids=["non-square", "nz-2", "nz-3", "nx1-4-odd-nz", "nx2-4-odd-nz"],
)


@_STENCIL_GRIDS
def test_stencils_match_reference_bit_for_bit(g):
    shapes = _stencil_shapes(g)
    for seed, (kind, shape) in enumerate(shapes.items()):
        a1 = _stencil_input(shape, seed)
        a2 = _stencil_input(shape, seed + 10)
        for got, want in zip(grad_x(g, a1), _roll_grad_x(g, a1)):
            assert np.array_equal(got, want), kind
            assert np.array_equal(np.signbit(got), np.signbit(want)), kind
        got, want = div_x(g, a1, a2), _roll_div_x(g, a1, a2)
        assert np.array_equal(got, want), kind
        assert np.array_equal(np.signbit(got), np.signbit(want)), kind
        # the flux form rounds differently: a few ulps of the face values
        scale = np.max(np.abs(a1)) / g.dx1 + np.max(np.abs(a2)) / g.dx2
        flux_form = _roll_flux_div_x(g, a1, a2)
        assert np.max(np.abs(got - flux_form)) <= 4.0 * np.finfo(float).eps * scale, kind
        if kind == "column":
            for op, ref_op in ((ddz, _concat_ddz), (d2dz2, _concat_d2dz2)):
                got, want = op(g, a1), ref_op(g, a1)
                assert np.array_equal(got, want), op.__name__
                assert np.array_equal(np.signbit(got), np.signbit(want)), op.__name__
                # a strided view of the same values gives the same bits
                strided = np.asfortranarray(a1)
                assert np.array_equal(op(g, strided), want), op.__name__


def _layouts(a):
    # the same values in C order, in Fortran order and as a swapaxes view
    yield "C", a
    yield "Fortran", np.asfortranarray(a)
    yield "swapaxes", np.ascontiguousarray(a.swapaxes(0, -1)).swapaxes(0, -1)


@_STENCIL_GRIDS
def test_horizontal_stencils_match_roll_on_any_layout(g):
    # the flat shift of _diff_x gives the np.roll bits on every shape and
    # memory layout, through each operator built on it
    for seed, (kind, shape) in enumerate(_stencil_shapes(g).items()):
        a1 = _stencil_input(shape, seed)
        a2 = _stencil_input(shape, seed + 10)
        diffs = [np.roll(a1, -1, axis) - np.roll(a1, 1, axis) for axis in (0, 1)]
        grads = _roll_grad_x(g, a1)
        div = _roll_div_x(g, a1, a2)
        for layout, b1 in _layouts(a1):
            b2 = dict(_layouts(a2))[layout]
            assert b1.flags.c_contiguous == (layout == "C")
            label = f"{kind} {layout}"
            for axis in (0, 1):
                _assert_same_bits(grid_module._diff_x(b1, axis), diffs[axis], label)
            for got, want in zip(grad_x(g, b1), grads):
                _assert_same_bits(got, want, label)
            _assert_same_bits(div_x(g, b1, b2), div, label)


# --------------------------------------------------------- vertical stencils


def _column(g, values_1d):
    return np.broadcast_to(values_1d, (g.nx1, g.nx2, values_1d.size)).copy()


def test_ddz_linear_profile():
    g = GridSpec(4, 4, 8, h=1.0)
    f = _column(g, 2.0 * g.z_centers())
    d = ddz(g, f)
    # interior cells see the exact slope; the end cells halve it because the
    # mirror ghost asserts a flat extension
    assert np.allclose(d[..., 1:-1], 2.0, atol=1e-13)
    assert np.allclose(d[..., 0], 1.0, atol=1e-13)
    assert np.allclose(d[..., -1], 1.0, atol=1e-13)


def _neumann_profile_errs(op, exact_fn):
    errs = []
    for nz in (8, 16, 32):
        g = GridSpec(4, 4, nz)
        zc = g.z_centers()
        f = _column(g, np.cos(np.pi * zc / g.h))
        errs.append(np.max(np.abs(op(g, f) - exact_fn(g, zc))))
    return errs


def test_ddz_second_order_on_neumann_profile():
    errs = _neumann_profile_errs(
        ddz, lambda g, zc: -(np.pi / g.h) * np.sin(np.pi * zc / g.h)
    )
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.6 <= coarse / fine <= 4.4


def test_d2dz2_second_order_on_neumann_profile():
    errs = _neumann_profile_errs(
        d2dz2, lambda g, zc: -((np.pi / g.h) ** 2) * np.cos(np.pi * zc / g.h)
    )
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.6 <= coarse / fine <= 4.4


def test_d2dz2_annihilates_constants():
    g = GridSpec(4, 4, 6)
    f = np.full((4, 4, 6), 3.7)
    assert np.array_equal(d2dz2(g, f), np.zeros((4, 4, 6)))


def test_diff_faces_exact_on_quadratics():
    g = GridSpec(4, 4, 7, h=1.0)
    zf = g.z_faces()
    f = _column(g, zf**2 - 0.3 * zf + 1.0)
    d = grid_module._diff_faces(g, f) / g.dz
    assert np.allclose(d, 2.0 * g.z_centers() - 0.3, atol=1e-13)


def test_vertical_ops_reject_wrong_level_count():
    g = GridSpec(4, 4, 5)
    face_data = np.zeros((4, 4, 6))
    center_data = np.zeros((4, 4, 5))
    with pytest.raises(ValueError):
        ddz(g, face_data)
    with pytest.raises(ValueError):
        d2dz2(g, face_data)
    with pytest.raises(ValueError):
        grid_module._diff_faces(g, center_data)


# ------------------------------------------------------------- quadrature


def test_quadrature_weights_totals():
    g = GridSpec(8, 4, 5, lx1=2.0, lx2=3.0, h=0.7)

    def total(shape):
        return np.sum(np.broadcast_to(quadrature_weights(g, shape), shape))

    assert np.isclose(total((8, 4)), 6.0)
    assert np.isclose(total((8, 4, 5)), 6.0 * 0.7)
    # trapezoid weights over faces integrate the column to the same volume
    assert np.isclose(total((8, 4, 6)), 6.0 * 0.7)
    with pytest.raises(ValueError):
        quadrature_weights(g, (8, 4, 7))
    with pytest.raises(ValueError):
        quadrature_weights(g, (8,))


def test_lp_norm_of_unit_field():
    g = GridSpec(8, 8, 4, lx1=2.0, h=0.5)
    vol = 2.0 * 1.0 * 0.5
    ones3 = np.ones((8, 8, 4))
    assert np.isclose(lp_norm(g, ones3, 1), vol)
    assert np.isclose(lp_norm(g, ones3, 2), math.sqrt(vol))
    assert np.isclose(lp_norm(g, ones3, 1.5), vol ** (2.0 / 3.0))
    assert lp_norm(g, ones3, np.inf) == 1.0
    ones2 = np.ones((8, 8))
    assert np.isclose(lp_norm(g, ones2, 2), math.sqrt(2.0))


def test_lp_norm_matches_fsum_oracle():
    g = GridSpec(8, 8, 4)
    f = _rng().normal(size=(8, 8, 4))
    expected = math.sqrt(math.fsum(v * v * g.cell_volume for v in f.ravel()))
    assert np.isclose(lp_norm(g, f, 2), expected, rtol=1e-12)


def test_lp_norm_integer_powers_match_power_formula_bit_for_bit():
    g = GridSpec(8, 8, 4)
    for shape in ((8, 8), (8, 8, 4), (8, 8, 5)):
        f = _rng().normal(size=shape)
        w = quadrature_weights(g, shape)
        for p in (1, 2):
            expected = float(np.sum(np.abs(f) ** float(p) * w) ** (1.0 / p))
            assert lp_norm(g, f, p) == expected, (shape, p)


def test_lp_norm_hoelder_embedding():
    # |f|_p <= |f|_q vol^(1/p - 1/q) for p < q on a finite domain
    g = GridSpec(8, 8, 4, h=0.5)
    f = _rng().normal(size=(8, 8, 4))
    vol = 0.5
    lhs = lp_norm(g, f, 1.5)
    rhs = lp_norm(g, f, 2.0) * vol ** (1.0 / 1.5 - 1.0 / 2.0)
    assert lhs <= rhs * (1.0 + 1e-12)


def test_lp_norm_rejects_p_below_one():
    g = GridSpec(4, 4, 2)
    with pytest.raises(ValueError):
        lp_norm(g, np.ones((4, 4)), 0.5)
