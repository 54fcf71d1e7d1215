"""State containers for the two formulations and the bridge between them.

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
from typing import Tuple, Union

import numpy as np

from .grid import FaceFieldZ, Field2D, Field3D, GridSpec, div_x

# Validation slack for the top face of a diagnosed vertical velocity, which
# vanishes only through discrete telescoping and so carries round-off.
_W_FACE_TOL = 1e-10


def y_to_z(y: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Map physical height y >= 0 to the transformed coordinate z in [0, 1)."""
    arr = np.asarray(y, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("y_to_z requires finite y >= 0")
    out = -np.expm1(-arr)
    return float(out) if np.isscalar(y) or arr.ndim == 0 else out


def z_to_y(z: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Inverse vertical map; rejects z outside [0, 1)."""
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


def _check_w_faces(kind: str, w: FaceFieldZ, u_scale: float) -> None:
    bottom = float(np.max(np.abs(w.values[:, :, 0])))
    top = float(np.max(np.abs(w.values[:, :, -1])))
    tol = _W_FACE_TOL * max(1.0, u_scale)
    if bottom > tol or top > tol:
        raise ValueError(
            f"{kind} must vanish on the column boundary faces; "
            f"got |bottom| = {bottom:.3e}, |top| = {top:.3e}"
        )


@dataclass(frozen=True, eq=False)
class ModelState:
    """Transformed variables (xi, u, w) at one instant.

    xi is strictly positive, u = (u1, u2) lives at cell centers, and w is
    the diagnostic vertical velocity on faces, vanishing at the column
    boundary (the top face only up to the round-off of the discrete
    compatibility sum).
    """

    t: float
    xi: Field2D
    u1: Field3D
    u2: Field3D
    w: FaceFieldZ

    def __post_init__(self):
        g = self.grid
        for name, f in (("u1", self.u1), ("u2", self.u2), ("w", self.w)):
            if f.grid != g:
                raise ValueError(f"{name} grid does not match xi grid")
        if not np.all(self.xi.values > 0.0):
            raise ValueError("xi must be strictly positive")
        u_scale = max(
            float(np.max(np.abs(self.u1.values))),
            float(np.max(np.abs(self.u2.values))),
        )
        _check_w_faces("w", self.w, u_scale)

    @property
    def grid(self) -> GridSpec:
        return self.xi.grid

    @classmethod
    def from_values(cls, grid: GridSpec, t, xi, u1, u2, w) -> "ModelState":
        return cls(
            float(t),
            Field2D(grid, xi),
            Field3D(grid, u1),
            Field3D(grid, u2),
            FaceFieldZ(grid, w),
        )

    def max_speed(self) -> float:
        return float(np.sqrt(np.max(self.u1.values**2 + self.u2.values**2)))


@dataclass(frozen=True, eq=False)
class PhysicalState:
    """Physical variables (rho, u, v) on the nonuniform y-grid.

    The y-levels are derived from the grid via the vertical map; rho is
    strictly positive and v vanishes at the ground and the column top.
    """

    t: float
    rho: Field3D
    u1: Field3D
    u2: Field3D
    v: FaceFieldZ

    def __post_init__(self):
        g = self.grid
        for name, f in (("u1", self.u1), ("u2", self.u2), ("v", self.v)):
            if f.grid != g:
                raise ValueError(f"{name} grid does not match rho grid")
        if not np.all(self.rho.values > 0.0):
            raise ValueError("rho must be strictly positive")
        u_scale = max(
            float(np.max(np.abs(self.u1.values))),
            float(np.max(np.abs(self.u2.values))),
        )
        _check_w_faces("v", self.v, u_scale)

    @property
    def grid(self) -> GridSpec:
        return self.rho.grid

    def y_centers(self) -> np.ndarray:
        return y_levels(self.grid)[0]

    def y_faces(self) -> np.ndarray:
        return y_levels(self.grid)[1]


def model_to_physical(s: ModelState, grid: GridSpec) -> PhysicalState:
    """Expand a model state into the stratified physical variables.

    rho(x, y) = xi(x) e^(-y) on the mapped y-centers and v = e^(+y) w on
    the mapped y-faces; u carries over unchanged. Boundary zeros of w are
    preserved exactly by the pointwise scaling.
    """
    if s.grid != grid:
        raise ValueError("state grid does not match the requested grid")
    yc, yf = y_levels(grid)
    rho = s.xi.values[:, :, None] * np.exp(-yc)[None, None, :]
    v = s.w.values * np.exp(yf)[None, None, :]
    return PhysicalState(s.t, Field3D(grid, rho), s.u1, s.u2, FaceFieldZ(grid, v))


def physical_to_model(s: PhysicalState) -> Tuple[ModelState, float]:
    """Collapse a physical state onto the model variables.

    xi is the vertical mean of rho e^(+y); the returned residual is the
    max-norm deviation of rho e^(+y) from that mean, zero exactly when the
    state is stratified. w = e^(-y) v.
    """
    grid = s.grid
    yc, yf = y_levels(grid)
    lifted = s.rho.values * np.exp(yc)[None, None, :]
    xi = np.mean(lifted, axis=2)
    residual = float(np.max(np.abs(lifted - xi[:, :, None])))
    w = s.v.values * np.exp(-yf)[None, None, :]
    state = ModelState(s.t, Field2D(grid, xi), s.u1, s.u2, FaceFieldZ(grid, w))
    return state, residual


def hydrostatic_residual(s: PhysicalState) -> float:
    """Max-norm of d(rho)/dy + rho over interior levels.

    The derivative is a centered difference on the nonuniform y-centers,
    second order because the levels image a uniform grid under a smooth
    map. With the unit decay rate the exact stratified state makes the
    residual vanish to truncation.
    """
    yc = s.y_centers()
    rho = s.rho.values
    if s.grid.nz < 3:
        raise ValueError("hydrostatic_residual needs at least 3 vertical levels")
    drho = (rho[:, :, 2:] - rho[:, :, :-2]) / (yc[2:] - yc[:-2])[None, None, :]
    return float(np.max(np.abs(drho + rho[:, :, 1:-1])))


def physical_mass_residual(
    prev: PhysicalState, mid: PhysicalState, nxt: PhysicalState
) -> np.ndarray:
    """Mass-equation residual field in physical coordinates at `mid`.

    Evaluates d(rho)/dt + div_x(rho u) + d(rho v)/dy with a centered time
    difference across the neighbors and flux-form space differences on the
    nonuniform column. Returned on interior cells (all plan cells, all
    levels; the boundary faces carry v = 0 exactly).
    """
    grid = mid.grid
    if prev.grid != grid or nxt.grid != grid:
        raise ValueError("states must share one grid")
    if not (prev.t < mid.t < nxt.t):
        raise ValueError("states must be time ordered")
    yc, yf = y_levels(grid)
    dt2 = nxt.t - prev.t
    drho_dt = (nxt.rho.values - prev.rho.values) / dt2

    horiz = div_x(grid, mid.rho.values * mid.u1.values, mid.rho.values * mid.u2.values)

    # rho at interior faces by arithmetic average of adjacent centers
    rho = mid.rho.values
    flux = np.zeros_like(mid.v.values)
    flux[:, :, 1:-1] = 0.5 * (rho[:, :, 1:] + rho[:, :, :-1]) * mid.v.values[:, :, 1:-1]
    dy = (yf[1:] - yf[:-1])[None, None, :]
    vert = (flux[:, :, 1:] - flux[:, :, :-1]) / dy

    return drho_dt + horiz + vert
