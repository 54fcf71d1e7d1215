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
C = cos(OMEGA t) and S = sin(OMEGA t): u = C U(x, z) and d/dt = -OMEGA S
d/dC. Every expression but the friction is expanded and its terms grouped
by their z-only factor. The column integrals (the mean u and xi w)
integrate each distinct z-only factor once. Each source's plan parts are
split by the powers of (C, S) of their terms, which leaves a plan
coefficient in (x1, x2) per power. The friction r xi |u| u = r xi |C| C
|U| U does not separate in z; it is formed on the grid from xi(t) and the
drag |U| U. The plan coefficients, the z-profiles and the 3-D drag are
evaluated once per grid. A `source` call only weights each plan part's
coefficients by C^a S^b, assembles each source as plan parts x z-profiles
and adds r xi(t) |C| C times the drag. sympy is imported only when a
derivation is built.
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


def _separate(sp, expr, z, time=()) -> dict:
    """The expanded terms of expr, grouped by their z-only factor.

    Each term is split into a factor of z alone, a power of each `time`
    symbol and a plan coefficient of the rest.
    Returns {z factor: {time powers: plan coefficient}}.
    """
    groups = {}
    for term in sp.Add.make_args(sp.expand(expr)):
        z_part, plan, powers = [], [], [0] * len(time)
        for factor in sp.Mul.make_args(term):
            base, exp = factor.as_base_exp()
            symbols = factor.free_symbols
            if base in time and exp.is_Integer and exp > 0:
                powers[time.index(base)] += int(exp)
            elif symbols.intersection(time):
                raise ValueError(f"term {term} is not polynomial in {time}")
            elif symbols and symbols <= {z}:
                z_part.append(factor)
            elif z in symbols:
                raise ValueError(f"term {term} does not separate in z")
            else:
                plan.append(factor)
        by_power = groups.setdefault(sp.Mul(*z_part), {})
        by_power[tuple(powers)] = by_power.get(tuple(powers), 0) + sp.Mul(*plan)
    return groups


def _column_integral(sp, expr, z, lower, upper):
    """The integral of expr over z in [lower, upper], by linearity: each
    distinct z-only factor of its expanded terms is integrated once."""
    s = sp.Dummy("s")
    return sp.Add(*(
        sp.integrate(z_part.subs(z, s), (s, lower, upper)) * by_power[()]
        for z_part, by_power in _separate(sp, expr, z).items()
    ))


class Derivation:
    """Sympy-derived manufactured fields and their separated sources.

    fields             name -> f(x1, x2, z, C) for "xi", "u1", "u2", "w"
    drag               (x1, x2, z) -> [|U| U1, |U| U2]: the friction of each
                       momentum source is r xi |C| C times its entry
    coefficients       (x1, x2) -> every plan coefficient, plan part by plan part
    powers             (coefficients, 2) exponents of (C, S), one row each
    parts              per plan part, the slice of its coefficients: the part
                       is the sum of coeff * C^a S^b over the slice. Part 0
                       is the density source, the others the momentum plan
                       parts
    momentum           per momentum source without its friction: (positions
                       of its plan parts, z -> [z-profile of each part])
    reference_args     (x1, x2, z, t), the arguments of reference_sources()
    key                (lx1, lx2, h, params) it was built for
    """

    def __init__(self, lx1: float, lx2: float, h: float, params: Params):
        import sympy as sp

        self.key = (lx1, lx2, h, params)
        p = params
        x1, x2, z, t = sp.symbols("x1 x2 z t", real=True)
        C, S = sp.symbols("C S", real=True)
        time = (C, S)

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
            )

        s_m1 = momentum_source(u1, d11, d12, x1)
        s_m2 = momentum_source(u2, d12, d22, x2)

        clock = OMEGA * t
        self.reference_args = (x1, x2, z, t)
        self._in_time = {C: sp.cos(clock), S: sp.sin(clock)}
        speed = sp.sqrt(U1**2 + U2**2)  # |U|, so |u| = |C| |U|
        friction = p.r * xi * sp.Abs(C) * speed
        self._unsplit = (s_xi, s_m1 + friction * u1, s_m2 + friction * u2)

        field_args = (x1, x2, z, C)
        self.fields = {
            name: _lambdify(sp, field_args, expr)
            for name, expr in (("xi", xi), ("u1", u1), ("u2", u2), ("w", xi_w / xi))
        }
        self.drag = _lambdify(sp, (x1, x2, z), [speed * U1, speed * U2])

        # each plan part is {time powers: plan coefficient}
        (mass_part,) = _separate(sp, s_xi, z, time).values()
        plan_parts = [mass_part]
        self.momentum: List[Tuple[range, Callable]] = []
        for src in (s_m1, s_m2):
            groups = _separate(sp, src, z, time)
            index = range(len(plan_parts), len(plan_parts) + len(groups))
            plan_parts.extend(groups.values())
            self.momentum.append((index, _lambdify(sp, (z,), list(groups))))
        ends = np.cumsum([len(part) for part in plan_parts])
        self.parts = tuple(slice(e - len(part), e) for e, part in zip(ends, plan_parts))
        self.powers = np.array([powers for part in plan_parts for powers in part])
        self.coefficients = _lambdify(
            sp, (x1, x2), [coeff for part in plan_parts for coeff in part.values()]
        )

    def reference_sources(self):
        """The unsplit (s_xi, s_m1, s_m2) as sympy expressions of reference_args."""
        return tuple(e.subs(self._in_time) for e in self._unsplit)


def _on_grid(values, shape) -> np.ndarray:
    """Lambdified values, each broadcast to shape, stacked along a first axis."""
    return np.array([np.broadcast_to(np.asarray(v, dtype=float), shape) for v in values])


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
        self._sums = [(index, _on_grid(fn(zc), zc.shape)) for index, fn in d.momentum]
        drag = d.drag(self._x1[:, :, None], self._x2[:, :, None], zc[None, None, :])
        self._drag = _on_grid(drag, (g.nx1, g.nx2, g.nz))
        coefficients = _on_grid(d.coefficients(self._x1, self._x2), (g.nx1, g.nx2))
        self._coefficients = coefficients.reshape(len(coefficients), -1)

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
        monomials = np.prod(np.array([c, np.sin(OMEGA * t)]) ** d.powers, axis=1)
        parts = [monomials[k] @ self._coefficients[k] for k in d.parts]

        momentum = []
        for index, zmat in self._sums:
            plan = np.array([parts[i] for i in index]).reshape(len(index), -1)
            # einsum, not the BLAS product plan.T @ zmat, whose thread pool
            # would then spin on the other cores for the rest of the run
            summed = np.einsum("pi,pk->ik", plan, zmat)
            momentum.append(summed.reshape(g.nx1, g.nx2, g.nz))
        if self.params.r > 0:
            xi = d.fields["xi"](self._x1, self._x2, 0.0, c)
            weight = (self.params.r * xi * abs(c) * c)[..., None]
            for out, drag in zip(momentum, self._drag):
                out += weight * drag
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
