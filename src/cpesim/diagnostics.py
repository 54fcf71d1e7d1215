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

Every reported volume integral weights a 3-D quantity X by a plan field a
(xi, or a component of grad xi), and plan fields do not depend on z, so

    int a X = cell_volume * sum_ij a_ij (sum_k X_ijk)

exactly (a face field sums its column with the trapezoid weights). A
snapshot therefore forms each 3-D quantity once, reduces it at once to its
column sum, and takes every reported number as a weighted plan sum of
those column sums. The effective velocity needs no 3-D field of its own:
grad ln xi is a plan field too, so

    int xi |psi|^2 = int xi |u|^2 + 4 nu int xi u . grad ln xi
                     + 4 nu^2 int xi |grad ln xi|^2

takes only the column sums of |u|^2, u1 and u2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .grid import (
    GridSpec,
    _diff_faces,
    _diff_z,
    _grad_k1,
    grad_x,
    quadrature_weights,
)
from .states import ModelState


def strain_tensor(
    grid: GridSpec, u1: np.ndarray, u2: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric horizontal gradient (D11, D12, D22) per level."""
    (d11, d2u1), (d1u2, d22) = grad_x(grid, u1), grad_x(grid, u2)
    return d11, 0.5 * (d2u1 + d1u2), d22


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
    """The norms controlled by the a priori estimates, one snapshot.

    max_speed, the sup of |u| that the CFL bound and the CSV read, is not
    one of them and stays out of ORDER.
    """

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
    max_speed: float

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


class _Integrals:
    """Every integral the snapshot reports read, from one pass over a state.

    Each 3-D quantity is formed once and reduced at once to its column sum
    (a product of two fields by a column dot product, which stores no
    product); each attribute is then a plan sum of column sums weighted by
    xi or by grad xi. The entropy's log-density gradient depends on the
    floor in the parameters, so the pass keeps xi times the column sums of
    u1 and u2 for `entropy` to weight with it.
    """

    def __init__(self, state: ModelState):
        state.require_single("the snapshot diagnostics")
        g = self.grid = state.grid
        self.t = state.t
        xi = self.xi = state.xi.values
        u1, u2, w = state.u1.values, state.u2.values, state.w.values
        dot = np.vecdot  # column sum of a product, sum_k x[..., k] y[..., k]

        def integral(column_sum: np.ndarray, weight: np.ndarray = xi) -> float:
            return g.cell_volume * float(np.sum(weight * column_sum))

        speed_sq = np.square(u1)
        speed_sq += np.square(u2)
        self.max_speed = float(np.sqrt(np.max(speed_sq)))
        self.xi_speed_sq = integral(speed_sq.sum(axis=-1))
        speed = np.sqrt(speed_sq)
        self.xi_speed_cubed = integral(dot(speed_sq, speed))
        gxi1, gxi2 = grad_x(g, xi)
        # int |u| u . grad xi, the integral of the friction cross term
        self.speed_u_grad_xi = integral(dot(speed, u1), gxi1) + integral(
            dot(speed, u2), gxi2
        )
        del speed_sq, speed
        self.xi_col_u = (xi * u1.sum(axis=-1), xi * u2.sum(axis=-1))

        # |D|^2 = d11^2 + 2 d12^2 + d22^2 with 2 d12 = d2u1 + d1u2, and the
        # spin is half the scalar curl d1u2 - d2u1. The differences are
        # unscaled: each squared scale, k1^2 = (2 dx1)^-2 horizontally and
        # (2 dz)^-2 or dz^-2 vertically, is applied once to the reduced sum.
        # Each difference is freed once its column sums are taken, so the
        # pass holds at most three 3-D temporaries
        d11, d2u1 = _grad_k1(g, u1)
        d11_sq = dot(d11, d11)
        del d11
        d1u2, d22 = _grad_k1(g, u2)
        d22_sq = dot(d22, d22)
        del d22
        shear = np.add(d2u1, d1u2)
        curl = np.subtract(d1u2, d2u1, out=d1u2)
        del d2u1, d1u2
        k1_sq = (0.5 / g.dx1) ** 2
        self.xi_strain_sq = k1_sq * integral(d11_sq + 0.5 * dot(shear, shear) + d22_sq)
        del shear
        self.xi_spin_sq = 0.25 * k1_sq * integral(dot(curl, curl))
        del curl
        dzu1 = _diff_z(g, u1)
        dzu1_sq = dot(dzu1, dzu1)
        del dzu1
        dzu2 = _diff_z(g, u2)
        self.xi_dzu_sq = integral(dzu1_sq + dot(dzu2, dzu2)) / (2.0 * g.dz) ** 2
        del dzu2
        dzw = _diff_faces(g, w)
        self.xi_dzw_sq = integral(dot(dzw, dzw)) / g.dz**2
        del dzw
        # face fields integrate with the trapezoid weights of their column
        face_sums = dot(np.square(w), quadrature_weights(g, w.shape))
        self.xi_w_sq = float(np.sum(xi * face_sums))

        ent = xi * np.log(xi) - xi + 1.0  # states keep xi > 0
        self.entropy_integral = g.h * g.cell_area * float(np.sum(ent))
        # the density is >= 0 only up to round-off near xi = 1
        self.abs_entropy = g.h * g.cell_area * float(np.sum(np.abs(ent)))
        gs1, gs2 = grad_x(g, np.sqrt(xi))
        self.grad_sqrt_xi_sq = g.cell_area * float(np.sum(gs1**2 + gs2**2))

    def energy(self, p) -> EnergyReport:
        return EnergyReport(
            t=self.t,
            E=0.5 * self.xi_speed_sq + p.kappa * self.entropy_integral,
            D_visc=2.0 * p.nu * self.xi_strain_sq + p.nu * self.xi_dzu_sq,
            D_fric=p.r * self.xi_speed_cubed,
        )

    def entropy(self, p) -> EntropyReport:
        g, nu = self.grid, p.nu
        gl1, gl2 = grad_x(g, np.log(np.maximum(self.xi, p.xi_floor)))
        xi_u_grad_log = float(np.sum(self.xi_col_u[0] * gl1 + self.xi_col_u[1] * gl2))
        # a plan field's column sum is nz times its value
        xi_grad_log_sq = g.nz * float(np.sum(self.xi * (gl1**2 + gl2**2)))
        xi_psi_sq = self.xi_speed_sq + g.cell_volume * (
            4.0 * nu * xi_u_grad_log + 4.0 * nu**2 * xi_grad_log_sq
        )
        return EntropyReport(
            t=self.t,
            B=0.5 * xi_psi_sq + p.kappa * self.entropy_integral,
            dzw_term=2.0 * nu * self.xi_dzw_sq,
            vorticity_term=4.0 * nu * self.xi_spin_sq,
            dzu_term=nu * self.xi_dzu_sq,
            friction_term=p.r * self.xi_speed_cubed,
            friction_cross_term=2.0 * nu * p.r * self.speed_u_grad_xi,
            grad_sqrt_term=8.0 * nu * p.kappa * g.h * self.grad_sqrt_xi_sq,
        )

    def norms(self) -> NormReport:
        return NormReport(
            t=self.t,
            sqrt_xi_u_l2=math.sqrt(self.xi_speed_sq),
            cbrt_xi_u_l3=self.xi_speed_cubed ** (1.0 / 3.0),
            sqrt_xi_dzu_l2=math.sqrt(self.xi_dzu_sq),
            sqrt_xi_strain_l2=math.sqrt(self.xi_strain_sq),
            entropy_l1=self.abs_entropy,
            grad_sqrt_xi_l2=math.sqrt(self.grid.h * self.grad_sqrt_xi_sq),
            sqrt_xi_dzw_l2=math.sqrt(self.xi_dzw_sq),
            sqrt_xi_vorticity_l2=math.sqrt(2.0 * self.xi_spin_sq),
            sqrt_xi_w_l2=math.sqrt(self.xi_w_sq),
            max_speed=self.max_speed,
        )


def snapshot_reports(
    state: ModelState, p
) -> Tuple[EnergyReport, EntropyReport, NormReport]:
    """Energy, entropy and norm reports of one state from one reduction pass."""
    i = _Integrals(state)
    return i.energy(p), i.entropy(p), i.norms()


def energy(state: ModelState, p) -> EnergyReport:
    """Evaluate E and its dissipation channels at one instant."""
    return _Integrals(state).energy(p)


def bd_entropy(state: ModelState, p) -> EntropyReport:
    """Evaluate B and the six terms of its balance at one instant."""
    return _Integrals(state).entropy(p)


def estimate_norms(state: ModelState) -> NormReport:
    """Evaluate the a priori estimate norms at one instant."""
    return _Integrals(state).norms()


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
