"""Discrete geometry and difference operators.

The horizontal domain is a periodic rectangle discretized with collocated
cell centers; the vertical column is bounded, with scalars and horizontal
velocity at cell centers and vertical velocity on the nz+1 horizontal cell
faces. Array axes are ordered (x1, x2) for plan fields and (x1, x2, z) for
column fields; a batch of runs on one grid puts a member axis before them,
which the stepping path's stencils pass through. All derivatives are
second-order centered differences. The horizontal one equals a difference
of face-mean fluxes, so the grid sums of divergences telescope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

# Height of the transformed vertical column, 1 - 1/e. This is the image of
# a unit physical column under the vertical change of variables z = 1 - e^(-y).
DEFAULT_HEIGHT = 1.0 - math.exp(-1.0)


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid for the periodic slab.

    nx1, nx2   number of cells in the periodic horizontal directions
               (at least 4, even, so centered stencils and mirror symmetry
               tests are well posed)
    nz         number of vertical cells (at least 2)
    lx1, lx2   horizontal periods
    h          vertical extent of the column
    """

    nx1: int
    nx2: int
    nz: int
    lx1: float = 1.0
    lx2: float = 1.0
    h: float = DEFAULT_HEIGHT

    def __post_init__(self):
        for name, n in (("nx1", self.nx1), ("nx2", self.nx2)):
            if not isinstance(n, int) or n < 4 or n % 2 != 0:
                raise ValueError(f"{name} must be an even integer >= 4, got {n!r}")
        if not isinstance(self.nz, int) or self.nz < 2:
            raise ValueError(f"nz must be an integer >= 2, got {self.nz!r}")
        for name, l in (("lx1", self.lx1), ("lx2", self.lx2), ("h", self.h)):
            if not (l > 0.0) or not math.isfinite(l):
                raise ValueError(f"{name} must be positive and finite, got {l!r}")

    @property
    def dx1(self) -> float:
        return self.lx1 / self.nx1

    @property
    def dx2(self) -> float:
        return self.lx2 / self.nx2

    @property
    def dz(self) -> float:
        return self.h / self.nz

    @property
    def cell_area(self) -> float:
        return self.dx1 * self.dx2

    @property
    def cell_volume(self) -> float:
        return self.dx1 * self.dx2 * self.dz

    def x1_centers(self) -> np.ndarray:
        return (np.arange(self.nx1) + 0.5) * self.dx1

    def x2_centers(self) -> np.ndarray:
        return (np.arange(self.nx2) + 0.5) * self.dx2

    def z_centers(self) -> np.ndarray:
        return (np.arange(self.nz) + 0.5) * self.dz

    def z_faces(self) -> np.ndarray:
        return np.arange(self.nz + 1) * self.dz

    def meshgrid_2d(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cell-center coordinates broadcast to (nx1, nx2)."""
        return np.meshgrid(self.x1_centers(), self.x2_centers(), indexing="ij")


# The x1 axis of a plan field and of a column field, counted from the end:
# the stepping path reaches its fields along these, so that a leading
# member axis passes through its stencils.
_PLAN, _COLUMN = -2, -3


# Every row of a field's leading axis: a whole field, a batch's too.
_ALL = slice(None)


def _diff_x(
    a: np.ndarray, axis: int, rows: slice = _ALL, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """a[i+1] - a[i-1] along a horizontal axis, periodic, unscaled.

    axis 0 or 1 is x1 or x2 of a single-run field; a negative axis counts
    from the end, as the stepping path's do (`_COLUMN`). `rows`, a slice of
    the leading axis (x1 of a single-run field), limits the result to those
    rows, of shape a[rows].shape: along x1 they read the rows either side,
    along x2 only their own. `out`, of that shape, receives it. Each
    caller applies the scale 1 / (2 dx) where it costs least:
    - `grad_x` and `div_x` divide each difference by 2 dx, and keep the
      division (not k1 times the forms below) so their results stay the
      same to the bit;
    - the stepping path and the snapshot pass take the column differences
      over k1 = 1 / (2 dx1) (`_grad_k1`, `_div_k1`); along x2 they are
      multiplied by dx1 / dx2, on non-square cells only;
    - `rhs_momentum` folds k1 into its coefficient 2 nu xi and takes k1
      once on each divergence output;
    - `diagnostic_w` folds k1 into its factor dz / xi, and it and `rhs_xi`
      into the mass tendency;
    - the snapshot pass applies k1^2 to its reduced sums.

    The neighbours along `axis` lie s = prod(shape[axis + 1:]) apart in the
    flat buffer, so the whole buffer is differenced at offset 2 s in one
    contiguous pass (a strided slice along x2 costs about twice as much);
    the two wrap rows, whose flat neighbours belong to the adjacent rows of
    the axis before, are then rewritten, as `_diff_z` does for its ends.
    Rows of the leading axis take the part of that pass which falls in
    them, and the wrap rows among them, so each element of a part is the
    same subtraction as in the whole.
    """
    a = np.ascontiguousarray(a)
    axis %= a.ndim
    if axis and rows != _ALL:
        a, rows = a[rows], _ALL
    n = len(a)
    lo, hi, _ = rows.indices(n)
    if out is None:
        out = np.empty((hi - lo,) + a.shape[1:])
    flat, out_flat = a.reshape(-1), out.reshape(-1)
    row = flat.size // n  # one row of the leading axis; out begins at row lo
    s = flat.size // math.prod(a.shape[: axis + 1])
    # the flat pass stops s short of either end of the buffer, the wrap rows
    # of axis 0, or at the rows' own ends
    start, stop = max(lo, 1) * s, (hi * row if hi < n else flat.size - s)
    base = lo * row
    np.subtract(
        flat[start + s : stop + s],
        flat[start - s : stop - s],
        out=out_flat[start - base : stop - base],
    )
    src, dst = a.swapaxes(0, axis), out.swapaxes(0, axis)
    if lo == 0:
        np.subtract(src[1:2], src[-1:], out=dst[:1])
    if hi == n:
        np.subtract(src[:1], src[-2:-1], out=dst[-1:])
    return out


def _grad_k1(
    grid: GridSpec,
    a: np.ndarray,
    rows: slice = _ALL,
    out: Tuple[Optional[np.ndarray], Optional[np.ndarray]] = (None, None),
) -> Tuple[np.ndarray, np.ndarray]:
    # the horizontal gradient of a column field over k1 = 1 / (2 dx1), on
    # the rows `rows` as `_diff_x` takes them, into `out` where given
    d1 = _diff_x(a, _COLUMN, rows, out[0])
    d2 = _diff_x(a, _COLUMN + 1, rows, out[1])
    if grid.dx1 != grid.dx2:
        d2 *= grid.dx1 / grid.dx2
    return d1, d2


def _div_k1(
    grid: GridSpec,
    a1: np.ndarray,
    a2: np.ndarray,
    rows: slice = _ALL,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    # the horizontal divergence of a column field over k1 = 1 / (2 dx1), on
    # the rows `rows` as `_diff_x` takes them
    out = _diff_x(a1, _COLUMN, rows, out)
    d2 = _diff_x(a2, _COLUMN + 1, rows)
    if grid.dx1 != grid.dx2:
        d2 *= grid.dx1 / grid.dx2
    out += d2
    return out


def grad_x(grid: GridSpec, a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Horizontal gradient, centered differences, periodic wrap.

    Differences along x1 = axis 0 and x2 = axis 1 of a single-run plan
    field, and per level on a column field. Returns the two components
    with the input's shape.
    """
    d1, d2 = _diff_x(a, 0), _diff_x(a, 1)
    d1 /= 2.0 * grid.dx1
    d2 /= 2.0 * grid.dx2
    return d1, d2


def div_x(grid: GridSpec, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Horizontal divergence of a 2-vector field, centered differences.

    Differences a1 along x1 = axis 0 and a2 along x2 = axis 1 of a
    single-run plan field, and per level on a column field. The centered
    difference of a1 equals the difference of face fluxes taken as
    arithmetic means of the adjacent cell values, so the grid sum of the
    result telescopes to zero over the periodic directions.
    """
    d1, d2 = _diff_x(a1, 0), _diff_x(a2, 1)
    d1 /= 2.0 * grid.dx1
    d2 /= 2.0 * grid.dx2
    d1 += d2
    return d1


def _diff_z(grid: GridSpec, a: np.ndarray) -> np.ndarray:
    # a[k+1] - a[k-1] at cell centers with mirrored ghost cells, unscaled
    if a.shape[-1] != grid.nz:
        raise ValueError(f"ddz expects {grid.nz} vertical levels, got {a.shape[-1]}")
    # difference the flat buffer, then rewrite the two end cells, whose flat
    # neighbours belong to the adjacent columns
    a = np.ascontiguousarray(a)
    out = np.empty(a.shape)
    np.subtract(a.reshape(-1)[2:], a.reshape(-1)[:-2], out=out.reshape(-1)[1:-1])
    np.subtract(a[..., 1], a[..., 0], out=out[..., 0])
    np.subtract(a[..., -1], a[..., -2], out=out[..., -1])
    return out


def ddz(grid: GridSpec, a: np.ndarray) -> np.ndarray:
    """Vertical derivative at cell centers with mirrored ghost cells.

    The mirror (ghost equals the boundary-adjacent cell) realizes a
    homogeneous Neumann condition at both ends of the column.
    """
    out = _diff_z(grid, a)
    out /= 2.0 * grid.dz
    return out


def _diff_faces(grid: GridSpec, a: np.ndarray) -> np.ndarray:
    # a[k+1] - a[k] of face data onto the cell between, unscaled
    if a.shape[-1] != grid.nz + 1:
        raise ValueError(
            f"_diff_faces expects {grid.nz + 1} vertical faces, got {a.shape[-1]}"
        )
    return np.subtract(a[..., 1:], a[..., :-1])


def d2dz2(grid: GridSpec, a: np.ndarray) -> np.ndarray:
    """Second vertical derivative at cell centers, mirrored ghost cells."""
    if a.shape[-1] != grid.nz:
        raise ValueError(f"d2dz2 expects {grid.nz} vertical levels, got {a.shape[-1]}")
    # not on the stepping path, so the plain padded stencil
    padded = np.concatenate([a[..., :1], a, a[..., -1:]], axis=-1)
    return (padded[..., 2:] - 2.0 * a + padded[..., :-2]) / grid.dz**2


def _face_weights(grid: GridSpec) -> np.ndarray:
    # trapezoid weights across the column faces
    w = np.full(grid.nz + 1, grid.dz)
    w[0] = 0.5 * grid.dz
    w[-1] = 0.5 * grid.dz
    return w


def quadrature_weights(grid: GridSpec, shape: tuple) -> Union[float, np.ndarray]:
    """Quadrature weight per grid point, in the least shape that broadcasts.

    Plan fields integrate over the horizontal area and center column
    fields over the full volume, each with one scalar weight; face fields
    use trapezoid weights in z, a vector over the nz+1 faces.
    """
    if len(shape) == 2:
        return grid.cell_area
    if len(shape) == 3 and shape[-1] == grid.nz:
        return grid.cell_volume
    if len(shape) == 3 and shape[-1] == grid.nz + 1:
        return grid.cell_area * _face_weights(grid)
    raise ValueError(f"no quadrature rule for field shape {shape}")


def lp_norm(grid: GridSpec, a: np.ndarray, p: float) -> float:
    """Discrete L^p norm with the cell quadrature weights.

    For p = inf the plain maximum of |a| is returned.
    """
    if p == np.inf or p == math.inf:
        return float(np.max(np.abs(a)))
    if not (p >= 1.0):
        raise ValueError(f"lp_norm requires p >= 1, got {p!r}")
    a = np.asarray(a, dtype=float)
    if p == 1:
        contrib = np.abs(a)
    elif p == 2:
        contrib = np.square(a)
    else:
        contrib = np.abs(a) ** p
    contrib *= quadrature_weights(grid, a.shape)
    return float(np.sum(contrib) ** (1.0 / p))
