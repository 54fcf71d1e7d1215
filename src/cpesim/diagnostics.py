"""Energy and entropy functionals tracked along simulations.

The model dissipates

    E = int  xi |u|^2 / 2  +  kappa (xi ln xi - xi + 1)

at the rate  2 nu int xi |D_x(u)|^2 + nu int xi |d_z u|^2 + r int xi |u|^3,
and the entropy functional built on the effective velocity
psi = u + 2 nu grad_x(ln xi),

    B = int  xi |psi|^2 / 2  +  kappa (xi ln xi - xi + 1),

satisfies an exact balance whose dissipation splits into six tracked
terms. Both balances are monitored as residuals: the time derivative is a
finite difference of the functional across one output step with the
dissipation evaluated at the left snapshot, so the residuals shrink at
first order in dt (and with the spatial truncation of the operators).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from .grid import (
    GridSpec,
    ddz,
    ddz_faces,
    grad_x,
    lp_norm,
    quadrature_weights,
)
from .states import ModelState

# Clip applied under logs and square roots; states keep xi positive but the
# guard makes the functionals total on raw arrays as well.
_XI_TINY = 1e-300


def _entropy_density(xi: np.ndarray) -> np.ndarray:
    x = np.maximum(xi, _XI_TINY)
    return x * np.log(x) - x + 1.0


def _strain(gu1, gu2) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (D11, D12, D22) from the gradients (d_1, d_2) of u1 and of u2
    return gu1[0], 0.5 * (gu1[1] + gu2[0]), gu2[1]


def _spin(gu1, gu2) -> np.ndarray:
    # half the scalar curl d_1 u2 - d_2 u1
    return 0.5 * (gu2[0] - gu1[1])


def strain_tensor(
    grid: GridSpec, u1: np.ndarray, u2: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric horizontal gradient (D11, D12, D22) per level."""
    return _strain(grad_x(grid, u1), grad_x(grid, u2))


def vorticity(grid: GridSpec, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Antisymmetric part of the horizontal gradient, shape (..., 2, 2).

    Entry [0, 1] is half the scalar curl d_1 u2 - d_2 u1; the diagonal is
    exactly zero and the tensor is exactly antisymmetric.
    """
    a12 = _spin(grad_x(grid, u1), grad_x(grid, u2))
    out = np.zeros(a12.shape + (2, 2))
    out[..., 0, 1] = a12
    out[..., 1, 0] = -a12
    return out


class SnapshotFields:
    """The fields the snapshot diagnostics share, each derived once.

    Every attribute is computed on first use and kept, so building all
    three reports from one instance takes one pass of difference
    operators. `xi_floor` clips xi under the log of the entropy's
    effective velocity and is only read by `grad_log_xi`.
    """

    def __init__(self, state: ModelState, xi_floor: Optional[float] = None):
        self.grid = state.grid
        self.t = state.t
        self.xi = state.xi.values
        self.u1 = state.u1.values
        self.u2 = state.u2.values
        self.w = state.w.values
        self.xi3 = self.xi[:, :, None]
        self.xi_floor = xi_floor

    @cached_property
    def speed(self) -> np.ndarray:
        return np.sqrt(self.u1**2 + self.u2**2)

    @cached_property
    def grad_u(self) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
        return grad_x(self.grid, self.u1), grad_x(self.grid, self.u2)

    @cached_property
    def strain_sq(self) -> np.ndarray:
        d11, d12, d22 = _strain(*self.grad_u)
        return d11**2 + 2.0 * d12**2 + d22**2

    @cached_property
    def spin(self) -> np.ndarray:
        return _spin(*self.grad_u)

    @cached_property
    def dzu_sq(self) -> np.ndarray:
        return ddz(self.grid, self.u1) ** 2 + ddz(self.grid, self.u2) ** 2

    @cached_property
    def dzw(self) -> np.ndarray:
        return ddz_faces(self.grid, self.w)

    @cached_property
    def grad_xi(self) -> Tuple[np.ndarray, np.ndarray]:
        return grad_x(self.grid, self.xi)

    @cached_property
    def grad_sqrt_xi(self) -> Tuple[np.ndarray, np.ndarray]:
        # states keep xi > 0, so this is also grad sqrt(max(xi, 0))
        return grad_x(self.grid, np.sqrt(self.xi))

    @cached_property
    def grad_log_xi(self) -> Tuple[np.ndarray, np.ndarray]:
        return grad_x(self.grid, np.log(np.maximum(self.xi, self.xi_floor)))


def _integral(grid: GridSpec, contrib: np.ndarray) -> float:
    return float(np.sum(contrib * quadrature_weights(grid, contrib.shape)))


@dataclass
class EnergyReport:
    """Energy functional, its dissipation channels, and the balance defect.

    balance_residual is |dE/dt + D_visc + D_fric| with dE/dt the finite
    difference of E to the next snapshot; it is NaN on the last snapshot
    of a series.
    """

    t: float
    E: float
    D_visc: float
    D_fric: float
    balance_residual: float = math.nan


@dataclass
class EntropyReport:
    """Entropy functional B and the six terms of its balance.

    All terms are signed as they appear added to dB/dt, so the first four
    and the last are nonnegative by construction while the friction cross
    term is sign-indefinite and reported raw. balance_residual is
    |dB/dt + sum(terms)| with the same differencing as EnergyReport.
    """

    t: float
    B: float
    dzw_term: float
    vorticity_term: float
    dzu_term: float
    friction_term: float
    friction_cross_term: float
    grad_sqrt_term: float
    balance_residual: float = math.nan

    @property
    def terms(self) -> Tuple[float, ...]:
        return (
            self.dzw_term,
            self.vorticity_term,
            self.dzu_term,
            self.friction_term,
            self.friction_cross_term,
            self.grad_sqrt_term,
        )


@dataclass
class NormReport:
    """The norms controlled by the a priori estimates, one snapshot."""

    t: float
    sqrt_xi_u_l2: float
    cbrt_xi_u_l3: float
    sqrt_xi_dzu_l2: float
    sqrt_xi_strain_l2: float
    entropy_l1: float
    grad_sqrt_xi_l2: float
    sqrt_xi_dzw_l2: float
    sqrt_xi_vorticity_l2: float
    sqrt_xi_w_l2: float

    ORDER = (
        "sqrt_xi_u_l2",
        "cbrt_xi_u_l3",
        "sqrt_xi_dzu_l2",
        "sqrt_xi_strain_l2",
        "entropy_l1",
        "grad_sqrt_xi_l2",
        "sqrt_xi_dzw_l2",
        "sqrt_xi_vorticity_l2",
        "sqrt_xi_w_l2",
    )

    def as_tuple(self) -> Tuple[float, ...]:
        return tuple(getattr(self, name) for name in self.ORDER)


def snapshot_reports(
    state: ModelState, p
) -> Tuple[EnergyReport, EntropyReport, NormReport]:
    """Energy, entropy and norm reports of one state from one derivative pass."""
    f = SnapshotFields(state, p.xi_floor)
    return _energy_report(f, p), _entropy_report(f, p), _norm_report(f)


def energy(state: ModelState, p) -> EnergyReport:
    """Evaluate E and its dissipation channels at one instant."""
    return _energy_report(SnapshotFields(state, p.xi_floor), p)


def bd_entropy(state: ModelState, p) -> EntropyReport:
    """Evaluate B and the six terms of its balance at one instant."""
    return _entropy_report(SnapshotFields(state, p.xi_floor), p)


def estimate_norms(state: ModelState) -> NormReport:
    """Evaluate the a priori estimate norms at one instant."""
    return _norm_report(SnapshotFields(state))


def _energy_report(f: SnapshotFields, p) -> EnergyReport:
    g, xi3 = f.grid, f.xi3
    kinetic = 0.5 * xi3 * (f.u1**2 + f.u2**2)
    potential = p.kappa * _entropy_density(f.xi)
    total = _integral(g, kinetic) + g.h * _integral(g, potential)
    d_visc = _integral(g, xi3 * (2.0 * p.nu * f.strain_sq + p.nu * f.dzu_sq))
    d_fric = p.r * _integral(g, xi3 * f.speed**3)
    return EnergyReport(t=f.t, E=total, D_visc=d_visc, D_fric=d_fric)


def _entropy_report(f: SnapshotFields, p) -> EntropyReport:
    g, xi3 = f.grid, f.xi3
    glog1, glog2 = f.grad_log_xi
    psi1 = f.u1 + 2.0 * p.nu * glog1[:, :, None]
    psi2 = f.u2 + 2.0 * p.nu * glog2[:, :, None]
    total = _integral(g, 0.5 * xi3 * (psi1**2 + psi2**2)) + g.h * _integral(
        g, p.kappa * _entropy_density(f.xi)
    )
    gxi1, gxi2 = f.grad_xi
    cross = f.speed * (f.u1 * gxi1[:, :, None] + f.u2 * gxi2[:, :, None])
    gs1, gs2 = f.grad_sqrt_xi
    return EntropyReport(
        t=f.t,
        B=total,
        dzw_term=2.0 * p.nu * _integral(g, xi3 * f.dzw**2),
        vorticity_term=2.0 * p.nu * _integral(g, xi3 * 2.0 * f.spin**2),
        dzu_term=p.nu * _integral(g, xi3 * f.dzu_sq),
        friction_term=p.r * _integral(g, xi3 * f.speed**3),
        friction_cross_term=2.0 * p.nu * p.r * _integral(g, cross),
        grad_sqrt_term=8.0 * p.nu * p.kappa * g.h * _integral(g, gs1**2 + gs2**2),
    )


def _norm_report(f: SnapshotFields) -> NormReport:
    g = f.grid
    sqrt_xi = np.sqrt(f.xi)
    sqrt_xi3 = sqrt_xi[:, :, None]
    # face fields weight xi by the plan value of their column
    sqrt_xi_faces = np.broadcast_to(sqrt_xi3, f.w.shape)
    gs1, gs2 = f.grad_sqrt_xi
    return NormReport(
        t=f.t,
        sqrt_xi_u_l2=lp_norm(g, sqrt_xi3 * f.speed, 2),
        cbrt_xi_u_l3=lp_norm(g, np.cbrt(f.xi3) * f.speed, 3),
        sqrt_xi_dzu_l2=lp_norm(g, sqrt_xi3 * np.sqrt(f.dzu_sq), 2),
        sqrt_xi_strain_l2=lp_norm(g, sqrt_xi3 * np.sqrt(f.strain_sq), 2),
        entropy_l1=g.h * lp_norm(g, _entropy_density(f.xi), 1),
        grad_sqrt_xi_l2=math.sqrt(g.h) * lp_norm(g, np.sqrt(gs1**2 + gs2**2), 2),
        sqrt_xi_dzw_l2=lp_norm(g, sqrt_xi3 * f.dzw, 2),
        sqrt_xi_vorticity_l2=lp_norm(g, sqrt_xi3 * (np.sqrt(2.0) * np.abs(f.spin)), 2),
        sqrt_xi_w_l2=lp_norm(g, sqrt_xi_faces * f.w, 2),
    )


def fill_balance_residuals(
    energies: Sequence[EnergyReport], entropies: Sequence[EntropyReport]
) -> None:
    """Attach forward-difference balance residuals to snapshot series.

    Each snapshot but the last receives |dF/dt + dissipation(t_n)| where
    dF/dt spans [t_n, t_{n+1}]; the final snapshot keeps NaN.
    """
    if len(energies) != len(entropies):
        raise ValueError("series lengths differ")
    for a, b in zip(energies[:-1], energies[1:]):
        dt = b.t - a.t
        if dt <= 0.0:
            raise ValueError("snapshots must be strictly time ordered")
        a.balance_residual = abs((b.E - a.E) / dt + a.D_visc + a.D_fric)
    for a, b in zip(entropies[:-1], entropies[1:]):
        dt = b.t - a.t
        a.balance_residual = abs((b.B - a.B) / dt + sum(a.terms))
