"""Manufactured solutions for convergence verification.

A smooth time-dependent (xi*, u*) is chosen in closed form; the matching
vertical velocity w* is obtained symbolically from the same column
compatibility integral the solver diagnoses, so w* vanishes on both
boundary faces and the manufactured triple satisfies the model equations
up to residual source terms. Those sources are derived with sympy,
independently of the discrete operators, and handed to the solver as
forcing; the discrete solution then converges to the manufactured fields
at the order of the scheme.

The sympy derivation (`Derivation`) depends on the box (lx1, lx2, h), the
parameters and the amplitudes, never on the cell counts, so one derivation
per box and parameter set serves every grid of a hierarchy. Time enters
only through C = cos(omega t), S = sin(omega t) and A = |C|: u = C U(x, z),
|u| = A |U| and d/dt = -omega S d/dC. Each momentum source is expanded and
its terms grouped by their z-only factor and by whether they carry the one
mixed x-z factor |U| = sqrt(U1^2 + U2^2). A `source` call evaluates only the
groups' plan fields in (x1, x2, C, S, A); the z-profiles and the 3-D |U|
are evaluated once per grid, and each source is assembled as plan fields x
z-profiles (+ |U| x plan fields x z-profiles). sympy is imported only when
a derivation is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .grid import GridSpec, lp_norm
from .solver import Params
from .states import ModelState


def _lambdify(sp, args, expr) -> Callable:
    exprs = expr if isinstance(expr, list) else [expr]
    if any(e.has(sp.Integral) for e in exprs):
        raise ValueError("manufactured expression left an unevaluated integral")
    return sp.lambdify(args, expr, modules="numpy", cse=True)


@dataclass(frozen=True)
class SeparatedSum:
    """sum_g plan_g(x1, x2, C, S, A) * profile_g(z) over one set of groups.

    plan_index  positions of the plan_g among the outputs of Derivation.plan
    profiles    z -> [profile_g(z)], one entry per group
    """

    plan_index: Tuple[int, ...]
    profiles: Callable


class Derivation:
    """Sympy-derived manufactured fields and their separated sources.

    fields             name -> f(x1, x2, z, C) for "xi", "u1", "u2", "w"
    speed              |U|(x1, x2, z), the mixed factor of the friction terms
    plan               (x1, x2, C, S, A) -> [density source, momentum plan parts]
    momentum           per momentum source: (plain, times |U|) SeparatedSums
    reference_args     (x1, x2, z, t), the arguments of reference_sources()
    key                (lx1, lx2, h, params, amplitudes, omega) it was built for
    """

    def __init__(
        self,
        lx1: float,
        lx2: float,
        h: float,
        params: Params,
        xi_amplitude: float,
        u_amplitude: float,
        z_amplitude: float,
        omega: float,
    ):
        import sympy as sp

        self.key = (lx1, lx2, h, params, xi_amplitude, u_amplitude, z_amplitude, omega)
        p = params
        x1, x2, z, s, t = sp.symbols("x1 x2 z s t", real=True)
        C, S, A, Um = sp.symbols("C S A Um", real=True)

        k1 = 2 * sp.pi / lx1
        k2 = 2 * sp.pi / lx2
        kz = sp.pi / h

        xi = 1 + xi_amplitude * sp.sin(k1 * x1) * sp.cos(k2 * x2) * C
        # the z-profile has zero slope at both column ends and unit mean
        zprof = 1 + z_amplitude * sp.cos(kz * z)
        U1 = (
            u_amplitude
            * (sp.sin(k1 * x1) * sp.sin(k2 * x2) + sp.Rational(1, 2) * sp.cos(k2 * x2))
            * zprof
        )
        U2 = (
            u_amplitude
            * (sp.cos(k1 * x1) * sp.sin(k2 * x2) + sp.Rational(1, 2) * sp.sin(k1 * x1))
            * (2 - zprof)
        )
        u1, u2 = C * U1, C * U2

        ub1 = sp.integrate(u1, (z, 0, h)) / h
        ub2 = sp.integrate(u2, (z, 0, h)) / h
        column_defect = sp.diff(xi * (ub1 - u1), x1) + sp.diff(xi * (ub2 - u2), x2)
        # xi w is polynomial in C; w itself carries 1/xi. Integrating the
        # expanded defect term by term keeps sympy off its heuristic integrator.
        xi_w = sp.integrate(sp.expand(column_defect).subs(z, s), (s, 0, z))

        def ddt(f):
            return -omega * S * sp.diff(f, C)

        s_xi = ddt(xi) + sp.diff(xi * ub1, x1) + sp.diff(xi * ub2, x2)

        d11 = sp.diff(u1, x1)
        d22 = sp.diff(u2, x2)
        d12 = (sp.diff(u1, x2) + sp.diff(u2, x1)) / 2

        def momentum_source(uc, dc1, dc2, grad_dir):
            return (
                ddt(xi * uc)
                + sp.diff(xi * uc * u1, x1)
                + sp.diff(xi * uc * u2, x2)
                + sp.diff(uc * xi_w, z)
                + p.kappa * sp.diff(xi, grad_dir)
                - 2 * p.nu * (sp.diff(xi * dc1, x1) + sp.diff(xi * dc2, x2))
                - p.nu * xi * sp.diff(uc, z, 2)
                + p.r * xi * A * Um * uc
            )

        s_m1 = momentum_source(u1, d11, d12, x1)
        s_m2 = momentum_source(u2, d12, d22, x2)

        clock = omega * t
        self.reference_args = (x1, x2, z, t)
        self._in_time = {
            C: sp.cos(clock), S: sp.sin(clock), A: sp.Abs(sp.cos(clock)),
            Um: sp.sqrt(U1**2 + U2**2),
        }
        self._unsplit = (s_xi, s_m1, s_m2)

        field_args = (x1, x2, z, C)
        self.fields = {
            name: _lambdify(sp, field_args, expr)
            for name, expr in (("xi", xi), ("u1", u1), ("u2", u2), ("w", xi_w / xi))
        }
        self.speed = _lambdify(sp, (x1, x2, z), sp.sqrt(U1**2 + U2**2))

        plan_parts = [s_xi]
        self.momentum: List[Tuple[SeparatedSum, SeparatedSum]] = []
        for src in (s_m1, s_m2):
            groups = {}
            for term in sp.Add.make_args(sp.expand(src)):
                z_part, plan, mixed = [], [], False
                for factor in sp.Mul.make_args(term):
                    symbols = factor.free_symbols
                    if factor == Um:
                        mixed = True
                    elif symbols and symbols <= {z}:
                        z_part.append(factor)
                    elif z in symbols or Um in symbols:
                        raise ValueError(f"source term {term} does not separate in z")
                    else:
                        plan.append(factor)
                group = (mixed, sp.Mul(*z_part))
                groups[group] = groups.get(group, 0) + sp.Mul(*plan)
            sums = []
            for mixed in (False, True):
                chosen = [(zp, pp) for (m, zp), pp in groups.items() if m == mixed]
                index = tuple(range(len(plan_parts), len(plan_parts) + len(chosen)))
                plan_parts.extend(pp for _, pp in chosen)
                profiles = _lambdify(sp, (z,), [zp for zp, _ in chosen])
                sums.append(SeparatedSum(index, profiles))
            self.momentum.append((sums[0], sums[1]))
        self.plan = _lambdify(sp, (x1, x2, C, S, A), plan_parts)

    def reference_sources(self):
        """The unsplit (s_xi, s_m1, s_m2) as sympy expressions of reference_args."""
        return tuple(e.subs(self._in_time) for e in self._unsplit)


def _profile_matrix(sep: SeparatedSum, z: np.ndarray) -> np.ndarray:
    """The z-profiles of one SeparatedSum as rows of a (groups, nz) matrix."""
    rows = [np.broadcast_to(np.asarray(v, dtype=float), z.shape) for v in sep.profiles(z)]
    return np.array(rows).reshape(len(rows), z.size)


@dataclass
class ManufacturedSolution:
    """Closed-form reference fields and the source terms they induce.

    `derivation` may be shared between grids of one box; by default it is
    built here. A derivation built for another box, parameter set or set of
    amplitudes is rejected.
    """

    grid: GridSpec
    params: Params
    xi_amplitude: float = 0.2
    u_amplitude: float = 0.3
    z_amplitude: float = 0.5
    omega: float = 1.0
    derivation: Optional[Derivation] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if abs(self.xi_amplitude) >= 1.0:
            raise ValueError("xi amplitude must stay below 1 in magnitude to keep xi positive")
        g = self.grid
        key = (
            g.lx1, g.lx2, g.h, self.params,
            self.xi_amplitude, self.u_amplitude, self.z_amplitude, self.omega,
        )
        if self.derivation is None:
            self.derivation = Derivation(*key)
        elif self.derivation.key != key:
            raise ValueError("derivation was built for another box, parameter set or amplitudes")
        d = self.derivation

        self._x1 = g.x1_centers()[:, None]
        self._x2 = g.x2_centers()[None, :]
        zc = g.z_centers()
        self._sums = [
            [(sep.plan_index, _profile_matrix(sep, zc)) for sep in pair]
            for pair in d.momentum
        ]
        self._speed = self._eval_3d(d.speed, zc)

    def _eval_3d(self, fn: Callable, z: np.ndarray, *args) -> np.ndarray:
        g = self.grid
        out = fn(self._x1[:, :, None], self._x2[:, :, None], z[None, None, :], *args)
        return np.broadcast_to(np.asarray(out, dtype=float), (g.nx1, g.nx2, z.size)).copy()

    def state_at(self, t: float) -> ModelState:
        """Evaluate the manufactured fields on the grid at time t."""
        g = self.grid
        fns = self.derivation.fields
        c = np.cos(self.omega * t)
        xi = np.broadcast_to(
            np.asarray(fns["xi"](self._x1, self._x2, 0.0, c), dtype=float), (g.nx1, g.nx2)
        ).copy()
        u1 = self._eval_3d(fns["u1"], g.z_centers(), c)
        u2 = self._eval_3d(fns["u2"], g.z_centers(), c)
        w = self._eval_3d(fns["w"], g.z_faces(), c)
        w[:, :, 0] = 0.0  # analytic zero of the compatibility integral
        return ModelState.from_values(g, t, xi, u1, u2, w)

    def source(self, t: float) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        """Forcing terms at stage time t, in solver tendency layout."""
        g = self.grid
        plan_shape = (g.nx1, g.nx2)
        c = np.cos(self.omega * t)
        parts = self.derivation.plan(self._x1, self._x2, c, np.sin(self.omega * t), abs(c))
        parts = [np.broadcast_to(np.asarray(v, dtype=float), plan_shape) for v in parts]

        def outer_sum(index, zmat):
            plan = np.array([parts[i] for i in index]).reshape(len(index), -1)
            return (plan.T @ zmat).reshape(g.nx1, g.nx2, g.nz)

        momentum = []
        for (plain_index, plain_z), (mixed_index, mixed_z) in self._sums:
            out = outer_sum(plain_index, plain_z)
            if mixed_index:
                friction = outer_sum(mixed_index, mixed_z)
                friction *= self._speed
                out += friction
            momentum.append(out)
        return parts[0].copy(), (momentum[0], momentum[1])

    def errors(self, state: ModelState) -> Tuple[float, float]:
        """Discrete L2 errors of (xi, u) against the manufactured fields."""
        g = self.grid
        ref = self.state_at(state.t)
        err_xi = lp_norm(g, state.xi.values - ref.xi.values, 2)
        diff = np.sqrt(
            (state.u1.values - ref.u1.values) ** 2
            + (state.u2.values - ref.u2.values) ** 2
        )
        return err_xi, lp_norm(g, diff, 2)
