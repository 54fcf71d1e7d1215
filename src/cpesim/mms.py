"""Manufactured solutions for convergence verification.

A smooth time-dependent (xi*, u*) is chosen in closed form; the matching
vertical velocity w* is obtained symbolically from the same column
compatibility integral the solver diagnoses, so w* vanishes on both
boundary faces and the manufactured triple satisfies the model equations
up to residual source terms. Those sources are derived with sympy,
independently of the discrete operators, and handed to the solver as
forcing; the discrete solution then converges to the manufactured fields
at the order of the scheme.

The sympy derivation (`Derivation`) depends on the box (lx1, lx2, h) and
the parameters, never on the cell counts, so one derivation per box and
parameter set serves every grid of a hierarchy. Time enters only through
C = cos(OMEGA t), S = sin(OMEGA t) and A = |C|: u = C U(x, z), |u| = A |U|
and d/dt = -OMEGA S d/dC. Every expression is expanded and its terms
grouped by their z-only factor. The column integrals (the mean u and xi w)
integrate each distinct z-only factor once. Each source is further split
by whether a term carries the one mixed x-z factor |U| = sqrt(U1^2 + U2^2),
and each group's plan part by the powers of (C, S, A) of its terms, which
leaves a plan coefficient in (x1, x2) per power. The plan coefficients,
the z-profiles and the 3-D |U| are evaluated once per grid. A `source`
call only weights each plan part's coefficients by C^a S^b A^c and
assembles each source as plan parts x z-profiles (+ |U| x plan parts x
z-profiles). sympy is imported only when a derivation is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .grid import GridSpec, lp_norm
from .solver import Params
from .states import ModelState

# amplitudes and frequency of the one manufactured solution (xi* >= 0.8)
XI_AMPLITUDE = 0.2
U_AMPLITUDE = 0.3
Z_AMPLITUDE = 0.5
OMEGA = 1.0


def _lambdify(sp, args, expr) -> Callable:
    exprs = expr if isinstance(expr, list) else [expr]
    if any(e.has(sp.Integral) for e in exprs):
        raise ValueError("manufactured expression left an unevaluated integral")
    # no docstring: rendering the expressions costs a quarter of a warm
    # `Derivation`; common subexpressions: their search costs more than the
    # evaluation it saves on the grids of a convergence study
    return sp.lambdify(args, expr, modules="numpy", docstring_limit=0)


def _separate(sp, expr, z, time=(), mixed=None) -> dict:
    """The expanded terms of expr, grouped by their z-only factor.

    Each term is split into a factor of z alone, a power of each `time`
    symbol, at most one `mixed` factor and a plan coefficient of the rest.
    Returns {(carries mixed, z factor): {time powers: plan coefficient}}.
    """
    groups = {}
    for term in sp.Add.make_args(sp.expand(expr)):
        z_part, plan, powers, mixed_here = [], [], [0] * len(time), False
        for factor in sp.Mul.make_args(term):
            base, exp = factor.as_base_exp()
            symbols = factor.free_symbols
            if factor == mixed:
                mixed_here = True
            elif base in time and exp.is_Integer and exp > 0:
                powers[time.index(base)] += int(exp)
            elif symbols.intersection(time):
                raise ValueError(f"term {term} is not polynomial in {time}")
            elif symbols and symbols <= {z}:
                z_part.append(factor)
            elif z in symbols or mixed in symbols:
                raise ValueError(f"term {term} does not separate in z")
            else:
                plan.append(factor)
        by_power = groups.setdefault((mixed_here, sp.Mul(*z_part)), {})
        by_power[tuple(powers)] = by_power.get(tuple(powers), 0) + sp.Mul(*plan)
    return groups


def _column_integral(sp, expr, z, lower, upper):
    """The integral of expr over z in [lower, upper], by linearity: each
    distinct z-only factor of its expanded terms is integrated once."""
    s = sp.Dummy("s")
    return sp.Add(*(
        sp.integrate(z_part.subs(z, s), (s, lower, upper)) * by_power[()]
        for (_, z_part), by_power in _separate(sp, expr, z).items()
    ))


@dataclass(frozen=True)
class SeparatedSum:
    """sum_g plan_g(x1, x2, C, S, A) * profile_g(z) over one set of groups.

    plan_index  positions of the plan_g among the plan parts of a Derivation
    profiles    z -> [profile_g(z)], one entry per group
    """

    plan_index: Tuple[int, ...]
    profiles: Callable


class Derivation:
    """Sympy-derived manufactured fields and their separated sources.

    fields             name -> f(x1, x2, z, C) for "xi", "u1", "u2", "w"
    speed              |U|(x1, x2, z), the mixed factor of the friction terms
    coefficients       (x1, x2) -> every plan coefficient, plan part by plan part
    powers             (coefficients, 3) exponents of (C, S, A), one row each
    parts              per plan part, the slice of its coefficients: the part
                       is the sum of coeff * C^a S^b A^c over the slice. Part
                       0 is the density source, the others the momentum
                       plan parts
    momentum           per momentum source: (plain, times |U|) SeparatedSums
    reference_args     (x1, x2, z, t), the arguments of reference_sources()
    key                (lx1, lx2, h, params) it was built for
    """

    def __init__(self, lx1: float, lx2: float, h: float, params: Params):
        import sympy as sp

        self.key = (lx1, lx2, h, params)
        p = params
        x1, x2, z, t = sp.symbols("x1 x2 z t", real=True)
        C, S, A, Um = sp.symbols("C S A Um", real=True)
        time = (C, S, A)

        k1 = 2 * sp.pi / lx1
        k2 = 2 * sp.pi / lx2
        kz = sp.pi / h

        xi = 1 + XI_AMPLITUDE * sp.sin(k1 * x1) * sp.cos(k2 * x2) * C
        # the z-profile has zero slope at both column ends and unit mean
        zprof = 1 + Z_AMPLITUDE * sp.cos(kz * z)
        U1 = (
            U_AMPLITUDE
            * (sp.sin(k1 * x1) * sp.sin(k2 * x2) + sp.Rational(1, 2) * sp.cos(k2 * x2))
            * zprof
        )
        U2 = (
            U_AMPLITUDE
            * (sp.cos(k1 * x1) * sp.sin(k2 * x2) + sp.Rational(1, 2) * sp.sin(k1 * x1))
            * (2 - zprof)
        )
        u1, u2 = C * U1, C * U2

        ub1 = _column_integral(sp, u1, z, 0, h) / h
        ub2 = _column_integral(sp, u2, z, 0, h) / h
        column_defect = sp.diff(xi * (ub1 - u1), x1) + sp.diff(xi * (ub2 - u2), x2)
        # xi w is polynomial in C; w itself carries 1/xi
        xi_w = _column_integral(sp, column_defect, z, 0, z)

        def ddt(f):
            return -OMEGA * S * sp.diff(f, C)

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

        clock = OMEGA * t
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

        # each plan part is {time powers: plan coefficient}
        (mass_part,) = _separate(sp, s_xi, z, time).values()
        plan_parts = [mass_part]
        self.momentum: List[Tuple[SeparatedSum, SeparatedSum]] = []
        for src in (s_m1, s_m2):
            groups = _separate(sp, src, z, time, Um)
            sums = []
            for mixed in (False, True):
                chosen = [(zp, part) for (m, zp), part in groups.items() if m == mixed]
                index = tuple(range(len(plan_parts), len(plan_parts) + len(chosen)))
                plan_parts.extend(part for _, part in chosen)
                profiles = _lambdify(sp, (z,), [zp for zp, _ in chosen])
                sums.append(SeparatedSum(index, profiles))
            self.momentum.append((sums[0], sums[1]))
        ends = np.cumsum([len(part) for part in plan_parts])
        self.parts = tuple(slice(e - len(part), e) for e, part in zip(ends, plan_parts))
        self.powers = np.array([powers for part in plan_parts for powers in part])
        self.coefficients = _lambdify(
            sp, (x1, x2), [coeff for part in plan_parts for coeff in part.values()]
        )

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
    built here. A derivation built for another box or parameter set is
    rejected.
    """

    grid: GridSpec
    params: Params
    derivation: Optional[Derivation] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        g = self.grid
        key = (g.lx1, g.lx2, g.h, self.params)
        if self.derivation is None:
            self.derivation = Derivation(*key)
        elif self.derivation.key != key:
            raise ValueError("derivation was built for another box or parameter set")
        d = self.derivation

        self._x1 = g.x1_centers()[:, None]
        self._x2 = g.x2_centers()[None, :]
        zc = g.z_centers()
        self._sums = [
            [(sep.plan_index, _profile_matrix(sep, zc)) for sep in pair]
            for pair in d.momentum
        ]
        self._speed = self._eval_3d(d.speed, zc)
        plan_shape = (g.nx1, g.nx2)
        coefficients = d.coefficients(self._x1, self._x2)
        self._coefficients = np.array([
            np.broadcast_to(np.asarray(v, dtype=float), plan_shape) for v in coefficients
        ]).reshape(len(coefficients), -1)

    def _eval_3d(self, fn: Callable, z: np.ndarray, *args) -> np.ndarray:
        g = self.grid
        out = fn(self._x1[:, :, None], self._x2[:, :, None], z[None, None, :], *args)
        return np.broadcast_to(np.asarray(out, dtype=float), (g.nx1, g.nx2, z.size)).copy()

    def state_at(self, t: float) -> ModelState:
        """Evaluate the manufactured fields on the grid at time t."""
        g = self.grid
        fns = self.derivation.fields
        c = np.cos(OMEGA * t)
        xi = fns["xi"](self._x1, self._x2, 0.0, c)  # varies in x1 and x2: (nx1, nx2)
        u1 = self._eval_3d(fns["u1"], g.z_centers(), c)
        u2 = self._eval_3d(fns["u2"], g.z_centers(), c)
        w = self._eval_3d(fns["w"], g.z_faces(), c)
        w[:, :, 0] = w[:, :, -1] = 0.0  # analytic zeros of the integral
        return ModelState.from_values(g, t, xi, u1, u2, w)

    def source(self, t: float) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        """Forcing terms at stage time t, in solver tendency layout."""
        g = self.grid
        d = self.derivation
        c = np.cos(OMEGA * t)
        monomials = np.prod(np.array([c, np.sin(OMEGA * t), abs(c)]) ** d.powers, axis=1)
        parts = [monomials[k] @ self._coefficients[k] for k in d.parts]

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
        return parts[0].reshape(g.nx1, g.nx2), (momentum[0], momentum[1])

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
