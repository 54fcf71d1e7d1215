"""Initial data: named analytic profiles or a field dump, with w diagnosed."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .grid import GridSpec
from .io import DumpFormatError, read_state_dump
from .solver import Params, diagnostic_w, momentum_density
from .states import ModelState

PROFILES = ("rest", "density-wave", "smooth-flow")


@dataclass(frozen=True)
class InitialSpec:
    """Initial data selector: a named profile or a field-dump path.

    amplitude    plan-density wave amplitude (must keep xi positive)
    u_amplitude  velocity amplitude for profiles that set the flow moving
    k1, k2       integer wavenumbers of the horizontal pattern
    dump         path to a binary field dump, overriding the profile;
                 it seeds xi, u1 and u2, and w is diagnosed
    """

    profile: str = "rest"
    amplitude: float = 0.1
    u_amplitude: float = 0.0
    k1: int = 1
    k2: int = 1
    dump: Optional[str] = None

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ValueError(
                f"unknown profile {self.profile!r}; choose from {', '.join(PROFILES)}"
            )
        if not (0.0 <= self.amplitude < 1.0):
            raise ValueError(
                f"amplitude must lie in [0, 1) to keep xi positive, got {self.amplitude!r}"
            )
        if not math.isfinite(self.u_amplitude):
            raise ValueError(f"u_amplitude must be finite, got {self.u_amplitude!r}")
        for name, k in (("k1", self.k1), ("k2", self.k2)):
            if not isinstance(k, int) or k < 1:
                raise ValueError(f"{name} must be a positive integer, got {k!r}")


def diagnosed_state(
    grid: GridSpec,
    t: float,
    xi: np.ndarray,
    u1: np.ndarray,
    u2: np.ndarray,
    xi_floor: float,
) -> ModelState:
    """The state (xi, u) with w diagnosed from the column compatibility integral."""
    w = diagnostic_w(grid, xi, *momentum_density(xi, u1, u2), xi_floor)
    return ModelState.from_values(grid, t, xi, u1, u2, w)


def _dump_fields(path: str, grid: GridSpec) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    dims, fields = read_state_dump(path)
    if dims != (grid.nx1, grid.nx2, grid.nz):
        raise DumpFormatError(f"dump dims {dims} do not match grid")
    missing = {"xi", "u1", "u2"} - set(fields)
    if missing:
        raise DumpFormatError(f"dump is missing fields: {', '.join(sorted(missing))}")
    return fields["xi"][:, :, 0], fields["u1"], fields["u2"]


def build_initial(grid: GridSpec, spec: InitialSpec, p: Params) -> ModelState:
    """Construct the t = 0 state from a field dump or a named profile.

    A dump seeds xi, u1 and u2; any w it holds is ignored. Every profile
    and every dump gets its w from `diagnostic_w`.
    """
    if spec.dump is not None:
        try:
            return diagnosed_state(grid, 0.0, *_dump_fields(spec.dump, grid), p.xi_floor)
        except ValueError as err:  # values that fail validation: name the dump
            raise ValueError(f"initial.dump {spec.dump}: {err}") from err
    x1, x2 = grid.meshgrid_2d()
    wave = np.sin(2.0 * np.pi * spec.k1 * x1 / grid.lx1) * np.cos(
        2.0 * np.pi * spec.k2 * x2 / grid.lx2
    )

    if spec.profile == "rest":
        xi = np.ones((grid.nx1, grid.nx2))
    else:
        xi = 1.0 + spec.amplitude * wave

    if spec.profile in ("rest", "density-wave") or spec.u_amplitude == 0.0:
        u1 = u2 = np.zeros((grid.nx1, grid.nx2, grid.nz))
    else:
        # smooth-flow: sheared horizontal flow with zero-stress column ends
        zprof = 1.0 + 0.5 * np.cos(np.pi * grid.z_centers() / grid.h)
        s1 = np.sin(2.0 * np.pi * spec.k1 * x1 / grid.lx1)
        s2 = np.sin(2.0 * np.pi * spec.k2 * x2 / grid.lx2)
        c1 = np.cos(2.0 * np.pi * spec.k1 * x1 / grid.lx1)
        u1 = spec.u_amplitude * (s1 * s2)[:, :, None] * zprof[None, None, :]
        u2 = spec.u_amplitude * (c1 * s2)[:, :, None] * (2.0 - zprof)[None, None, :]
    return diagnosed_state(grid, 0.0, xi, u1, u2, p.xi_floor)
