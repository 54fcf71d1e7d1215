"""Discrete geometry and difference operators.

The horizontal domain is a periodic rectangle discretized with collocated
cell centers; the vertical column is bounded, with scalars and horizontal
velocity at cell centers and vertical velocity on the nz+1 horizontal cell
faces. Array axes are ordered (x1, x2) for plan fields and (x1, x2, z) for
column fields. All derivatives are second-order centered differences. The
horizontal one equals a difference of face-mean fluxes, so the grid sums
of divergences telescope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

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


def _validated(grid: GridSpec, values, shape: tuple, kind: str) -> np.ndarray:
    # A read-only float array that owns its buffer is adopted as is: neither
    # it nor a view of it can be written unless its own write flag is set
    # again. Writeable arrays and views of other buffers are copied.
    if (
        type(values) is np.ndarray
        and values.dtype == np.float64
        and values.flags.owndata
        and not values.flags.writeable
    ):
        arr = values
    else:
        arr = np.array(values, dtype=float, copy=True)
    if arr.shape != shape:
        raise ValueError(f"{kind} expects shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite values in {kind}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Field2D:
    """Plan field on horizontal cell centers, shape (nx1, nx2)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        g = self.grid
        object.__setattr__(
            self, "values", _validated(g, self.values, (g.nx1, g.nx2), "Field2D")
        )

    @classmethod
    def zeros(cls, grid: GridSpec) -> "Field2D":
        return cls(grid, np.zeros((grid.nx1, grid.nx2)))

    @classmethod
    def full(cls, grid: GridSpec, value: float) -> "Field2D":
        return cls(grid, np.full((grid.nx1, grid.nx2), float(value)))


@dataclass(frozen=True, eq=False)
class Field3D:
    """Column field on cell centers, shape (nx1, nx2, nz)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        g = self.grid
        object.__setattr__(
            self, "values", _validated(g, self.values, (g.nx1, g.nx2, g.nz), "Field3D")
        )

    @classmethod
    def zeros(cls, grid: GridSpec) -> "Field3D":
        return cls(grid, np.zeros((grid.nx1, grid.nx2, grid.nz)))


@dataclass(frozen=True, eq=False)
class FaceFieldZ:
    """Column field on the nz+1 vertical faces, shape (nx1, nx2, nz+1).

    When the field holds a vertical velocity, faces 0 and nz carry the
    impermeable boundary values; that condition is enforced by the state
    containers, not here, so generic face data can use this type too.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        g = self.grid
        object.__setattr__(
            self,
            "values",
            _validated(g, self.values, (g.nx1, g.nx2, g.nz + 1), "FaceFieldZ"),
        )

    @classmethod
    def zeros(cls, grid: GridSpec) -> "FaceFieldZ":
        return cls(grid, np.zeros((grid.nx1, grid.nx2, grid.nz + 1)))


def _centered_x(grid: GridSpec, a: np.ndarray, axis: int) -> np.ndarray:
    # (a[i+1] - a[i-1]) / (2 dx) along horizontal axis 0 or 1, periodic
    out = np.empty(a.shape)
    src, dst = a.swapaxes(0, axis), out.swapaxes(0, axis)
    np.subtract(src[2:], src[:-2], out=dst[1:-1])
    np.subtract(src[1:2], src[-1:], out=dst[:1])
    np.subtract(src[:1], src[-2:-1], out=dst[-1:])
    out /= 2.0 * (grid.dx1, grid.dx2)[axis]
    return out


def grad_x(grid: GridSpec, a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Horizontal gradient, centered differences, periodic wrap.

    Works on plan fields and per-level on column fields. Returns the two
    components with the input's shape.
    """
    return _centered_x(grid, a, 0), _centered_x(grid, a, 1)


def div_x(grid: GridSpec, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Horizontal divergence of a 2-vector field, centered differences.

    The centered difference of a1 equals the difference of face fluxes
    taken as arithmetic means of the adjacent cell values, so the grid sum
    of the result telescopes to zero over the periodic directions.
    """
    out = _centered_x(grid, a1, 0)
    out += _centered_x(grid, a2, 1)
    return out


def ddz(grid: GridSpec, a: np.ndarray) -> np.ndarray:
    """Vertical derivative at cell centers with mirrored ghost cells.

    The mirror (ghost equals the boundary-adjacent cell) realizes a
    homogeneous Neumann condition at both ends of the column.
    """
    if a.shape[-1] != grid.nz:
        raise ValueError(f"ddz expects {grid.nz} vertical levels, got {a.shape[-1]}")
    # difference the flat buffer, then rewrite the two end cells, whose flat
    # neighbours belong to the adjacent columns
    a = np.ascontiguousarray(a)
    out = np.empty(a.shape)
    np.subtract(a.reshape(-1)[2:], a.reshape(-1)[:-2], out=out.reshape(-1)[1:-1])
    np.subtract(a[..., 1], a[..., 0], out=out[..., 0])
    np.subtract(a[..., -1], a[..., -2], out=out[..., -1])
    out /= 2.0 * grid.dz
    return out


def ddz_faces(grid: GridSpec, a: np.ndarray) -> np.ndarray:
    """Vertical derivative of face data, evaluated at cell centers.

    Exact differencing of the nz+1 face values onto the nz cells between
    them; no ghost values are involved.
    """
    if a.shape[-1] != grid.nz + 1:
        raise ValueError(
            f"ddz_faces expects {grid.nz + 1} vertical faces, got {a.shape[-1]}"
        )
    out = np.subtract(a[..., 1:], a[..., :-1])
    out /= grid.dz
    return out


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
