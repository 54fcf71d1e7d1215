"""States of the two formulations and the bridge between them.

The model problem evolves a plan density xi(t, x) that is constant in the
transformed vertical coordinate z, a horizontal velocity u(t, x, z), and a
diagnostic vertical velocity w on cell faces. The physical formulation
carries the stratified density rho(t, x, y) = xi(t, x) e^(-y) on the
nonuniform y-grid that is the image of the uniform z-grid under

    z = 1 - e^(-y),      y = -ln(1 - z),

together with the physical vertical velocity v = e^(+y) w.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .grid import GridSpec, div_x


def z_to_y(z: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Physical height y = -ln(1 - z) of z in [0, 1); rejects z outside it."""
    arr = np.asarray(z, dtype=float)
    if np.any(arr < 0.0) or np.any(arr >= 1.0) or not np.all(np.isfinite(arr)):
        raise ValueError("z_to_y requires 0 <= z < 1")
    out = -np.log1p(-arr)
    return float(out) if np.isscalar(z) or arr.ndim == 0 else out


def y_levels(grid: GridSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Physical heights (centers, faces) imaging the uniform z-grid.

    Requires h < 1 so the whole column stays inside the range of the map.
    """
    if grid.h >= 1.0:
        raise ValueError(f"vertical extent h must be < 1 for the map, got {grid.h}")
    return z_to_y(grid.z_centers()), z_to_y(grid.z_faces())


def _validated(
    values, shape: tuple, role: str, member_axis: bool = False
) -> np.ndarray:
    # A read-only float array that owns its buffer is adopted as is: neither
    # it nor a view of it can be written unless its own write flag is set
    # again. Writeable arrays and views of other buffers are copied. With
    # member_axis, one leading axis of positive length may stand before shape.
    if (
        type(values) is np.ndarray
        and values.dtype == np.float64
        and values.flags.owndata
        and not values.flags.writeable
    ):
        arr = values
    else:
        arr = np.array(values, dtype=float, copy=True)
    if arr.shape != shape and not (
        member_axis and arr.shape[1:] == shape and arr.shape[0] > 0
    ):
        members = " with an optional leading member axis" if member_axis else ""
        raise ValueError(f"{role} expects shape {shape}{members}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite {role}")
    arr.setflags(write=False)
    return arr


def _check_w_faces(kind: str, w: np.ndarray) -> None:
    # every w is the compatibility integral, exactly 0 on both faces
    bottom, top = np.max(np.abs(w[..., [0, -1]]).reshape(-1, 2), axis=0)
    if bottom or top:
        raise ValueError(
            f"{kind} must vanish on the column boundary faces; "
            f"got |bottom| = {bottom:.3e}, |top| = {top:.3e}"
        )


@dataclass(frozen=True, eq=False)
class Field:
    """One array of a `ModelState`, as `state.xi.values`.

    It holds no grid and checks nothing; the state checks its arrays. It
    stays because perfbench/checks.py reads `state.xi.values`.
    """

    values: np.ndarray


@dataclass(frozen=True, eq=False)
class ModelState:
    """Transformed variables (xi, u, w) at one instant on one grid.

    Each array is checked against its role on construction: xi on the plan
    cells (nx1, nx2), u = (u1, u2) at the cell centers (nx1, nx2, nz), and
    the diagnostic vertical velocity w on the faces (nx1, nx2, nz+1), all
    finite and read-only (`_validated`); xi is strictly positive and w is
    exactly 0 at both column ends.

    The fields may share one leading member axis: a batch of runs on one
    grid at one time (`stack`), which only the stepping path takes. Every
    other consumer calls `require_single` first.
    """

    grid: GridSpec
    t: float
    xi: Field
    u1: Field
    u2: Field
    w: Field

    def __post_init__(self):
        g = self.grid
        c = (g.nx1, g.nx2, g.nz)
        shapes = {"xi": c[:2], "u1": c, "u2": c, "w": (g.nx1, g.nx2, g.nz + 1)}
        lead = None
        for name, shape in shapes.items():
            held = getattr(self, name)
            arr = _validated(held.values, shape, name, member_axis=True)
            if lead is None:
                lead = arr.shape[: -len(shape)]
            elif arr.shape[: -len(shape)] != lead:
                raise ValueError(f"{name} member axis does not match xi's")
            if arr is not held.values:
                object.__setattr__(self, name, Field(arr))
        if not np.all(self.xi.values > 0.0):
            raise ValueError("xi must be strictly positive")
        _check_w_faces("w", self.w.values)

    @property
    def members(self) -> Optional[int]:
        """Length of the member axis; None for a single run."""
        shape = self.xi.values.shape
        return shape[0] if len(shape) == 3 else None

    def require_single(self, consumer: str) -> None:
        """Refuse a batch where one run is meant, so no sum spans members."""
        if self.members is not None:
            raise ValueError(
                f"{consumer} takes a single run, not a batch of {self.members}"
            )

    @classmethod
    def from_values(cls, grid: GridSpec, t, xi, u1, u2, w) -> "ModelState":
        return cls(grid, float(t), Field(xi), Field(u1), Field(u2), Field(w))

    @classmethod
    def stack(cls, states: Sequence["ModelState"]) -> "ModelState":
        """Single-run states of one grid and one time as one batch."""
        first = states[0]
        for s in states:
            s.require_single("ModelState.stack")
            if s.grid != first.grid or s.t != first.t:
                raise ValueError("a batch takes states of one grid and one time")
        fields = []
        for name in ("xi", "u1", "u2", "w"):
            arr = np.stack([getattr(s, name).values for s in states])
            arr.setflags(write=False)  # fresh, so adopted without a copy
            fields.append(arr)
        return cls.from_values(first.grid, first.t, *fields)

    def max_speed(self) -> float:
        return float(np.sqrt(np.max(self.u1.values**2 + self.u2.values**2)))


@dataclass(frozen=True, eq=False)
class PhysicalState:
    """Physical variables (rho, u, v) on the nonuniform y-grid.

    Plain read-only arrays: rho, u1 and u2 at the cell centers, shape
    (nx1, nx2, nz), and v on the faces, shape (nx1, nx2, nz+1); the
    y-levels are `y_levels(grid)`. rho is strictly positive and v is
    exactly 0 at the ground and the column top.
    """

    grid: GridSpec
    t: float
    rho: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        g = self.grid
        c = (g.nx1, g.nx2, g.nz)
        shapes = {"rho": c, "u1": c, "u2": c, "v": (g.nx1, g.nx2, g.nz + 1)}
        for name, shape in shapes.items():
            object.__setattr__(self, name, _validated(getattr(self, name), shape, name))
        if not np.all(self.rho > 0.0):
            raise ValueError("rho must be strictly positive")
        _check_w_faces("v", self.v)


def model_to_physical(s: ModelState) -> PhysicalState:
    """Expand a model state into the stratified physical variables.

    rho(x, y) = xi(x) e^(-y) on the mapped y-centers and v = e^(+y) w on
    the mapped y-faces; u carries over unchanged, its arrays shared.
    Boundary zeros of w are preserved exactly by the pointwise scaling.
    """
    s.require_single("model_to_physical")
    yc, yf = y_levels(s.grid)
    rho = s.xi.values[:, :, None] * np.exp(-yc)[None, None, :]
    v = s.w.values * np.exp(yf)[None, None, :]
    for fresh in (rho, v):
        fresh.setflags(write=False)  # adopted without a copy
    return PhysicalState(s.grid, s.t, rho, s.u1.values, s.u2.values, v)


def stratification_residual(s: PhysicalState) -> float:
    """Max-norm deviation of rho e^(+y) from its vertical mean.

    Zero exactly when the state is stratified, rho = xi e^(-y) with xi
    constant in the column.
    """
    yc, _ = y_levels(s.grid)
    lifted = s.rho * np.exp(yc)[None, None, :]
    return float(np.max(np.abs(lifted - np.mean(lifted, axis=2)[:, :, None])))


def hydrostatic_residual(s: PhysicalState) -> float:
    """Max-norm of d(rho)/dy + rho over interior levels.

    The derivative is a centered difference on the nonuniform y-centers,
    second order because the levels image a uniform grid under a smooth
    map. With the unit decay rate the exact stratified state makes the
    residual vanish to truncation.
    """
    yc, _ = y_levels(s.grid)
    rho = s.rho
    if s.grid.nz < 3:
        raise ValueError("hydrostatic_residual needs at least 3 vertical levels")
    drho = (rho[:, :, 2:] - rho[:, :, :-2]) / (yc[2:] - yc[:-2])[None, None, :]
    return float(np.max(np.abs(drho + rho[:, :, 1:-1])))


def physical_mass_residual(
    prev: PhysicalState, mid: PhysicalState, nxt: PhysicalState
) -> np.ndarray:
    """Mass-equation residual field in physical coordinates at `mid`.

    Evaluates d(rho)/dt + div_x(rho u) + d(rho v)/dy with flux-form space
    differences on the nonuniform column. The time derivative is the
    three-point one for uneven steps h- and h+ (a run shortens its last
    step to land on t_end), second order for any pair and exact on
    quadratics in t. Returned on interior cells (all plan cells, all
    levels; the boundary faces carry v = 0 exactly).
    """
    grid = mid.grid
    if prev.grid != grid or nxt.grid != grid:
        raise ValueError("states must share one grid")
    if not (prev.t < mid.t < nxt.t):
        raise ValueError("states must be time ordered")
    yc, yf = y_levels(grid)
    hm, hp = mid.t - prev.t, nxt.t - mid.t
    drho_dt = hm**2 * (nxt.rho - mid.rho) + hp**2 * (mid.rho - prev.rho)
    drho_dt /= hm * hp * (hm + hp)

    rho = mid.rho
    horiz = div_x(grid, rho * mid.u1, rho * mid.u2)

    # rho at interior faces by arithmetic average of adjacent centers
    flux = np.zeros_like(mid.v)
    flux[:, :, 1:-1] = 0.5 * (rho[:, :, 1:] + rho[:, :, :-1]) * mid.v[:, :, 1:-1]
    dy = (yf[1:] - yf[:-1])[None, None, :]
    vert = (flux[:, :, 1:] - flux[:, :, :-1]) / dy

    return drho_dt + horiz + vert
