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
d/dC. Fields and sources take one route. Each quantity (the fields xi,
u1, u2 and xi w, the last on the faces, and the sources without the
friction) is expanded and its terms grouped by their z-only factor, the
z-profile of a plan part. The column integrals (the mean u and xi w)
integrate each distinct z-only factor once. Each plan part is split by
the powers of (C, S) of its terms, which leaves a plan coefficient in
(x1, x2) per power. The plan coefficients and the z-profiles are
evaluated once per grid; at a time t a quantity is its coefficients
weighted by C^a S^b and summed against the z-profiles. w is xi w / xi,
with its analytic zeros on both boundary faces written exactly. The
friction r xi |u| u = r xi |C| C |U| U does not separate in z: the drag
|U| U is formed once per grid from the assembled velocity at C = 1, and
a source call adds r xi(t) |C| C times it. Nothing is evaluated over the
3-D grid but products of plan and column factors. sympy is imported only
when a derivation is built.
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
    from sympy.printing.numpy import NumPyPrinter

    exprs = expr if isinstance(expr, list) else [expr]
    if any(e.has(sp.Integral) for e in exprs):
        raise ValueError("manufactured expression left an unevaluated integral")
    # no docstring: rendering the expressions costs a quarter of a warm
    # `Derivation`; common subexpressions: their search costs more than the
    # evaluation it saves on the grids of a convergence study. The printer
    # keeps each expression's own order of terms rather than sorting them,
    # which costs more than the rest of the printing
    printer = NumPyPrinter({"order": "none"})
    return sp.lambdify(
        args, expr, modules="numpy", printer=printer, docstring_limit=0
    )


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
    distinct z-only factor of its expanded terms is integrated once.

    Each factor takes one antiderivative F, evaluated as
    F(upper) - F(lower). The z-factors of the manufactured solution are
    continuous trigonometric polynomials, so F is one closed form on the
    whole column; a factor whose F is not is rejected.
    """
    s = sp.Dummy("s")
    total = []
    for z_part, by_power in _separate(sp, expr, z).items():
        F = sp.integrate(z_part.subs(z, s), s)
        if F.has(sp.Piecewise, sp.Integral):
            raise ValueError(f"z-factor {z_part} has no closed-form antiderivative")
        total.append((F.subs(s, upper) - F.subs(s, lower)) * by_power[()])
    return sp.Add(*total)


class Derivation:
    """Sympy-derived manufactured solution, split for evaluation on grids.

    Every quantity, fields and sources alike, is a sum of plan parts times
    their z-profiles, and each plan part a sum of plan coefficients in
    (x1, x2) weighted by powers of (C, S).

    quantities         name -> (slice of its plan parts, whether it varies
                       in z), for the sources "s_xi", "s_m1", "s_m2" (the
                       momentum sources without their friction) and the
                       fields "xi", "u1", "u2" and "xi_w" (xi w, taken on
                       the faces)
    parts              per plan part, the slice of its coefficients: the part
                       is the sum of coeff * C^a S^b over the slice
    coefficients       (x1, x2) -> every plan coefficient, plan part by plan part
    powers             (coefficients, 2) exponents of (C, S), one row each
    profiles           z -> the z-profile of every plan part
    reference_args     (x1, x2, z, t), the arguments of reference()
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
        quantities = dict(s_xi=s_xi, s_m1=s_m1, s_m2=s_m2, xi=xi, u1=u1, u2=u2, xi_w=xi_w)

        clock = OMEGA * t
        self.reference_args = (x1, x2, z, t)
        self._in_time = {C: sp.cos(clock), S: sp.sin(clock)}
        # |u| = |C| |U|: the friction r xi |u| u does not separate in z
        friction = p.r * xi * sp.Abs(C) * sp.sqrt(U1**2 + U2**2)
        self._unsplit = dict(
            quantities, s_m1=s_m1 + friction * u1, s_m2=s_m2 + friction * u2
        )

        # each plan part is {time powers: plan coefficient}
        plan_parts, z_parts = [], []
        self.quantities = {}
        for name, expr in quantities.items():
            groups = _separate(sp, expr, z, time)
            n = len(plan_parts)
            self.quantities[name] = (slice(n, n + len(groups)), expr.has(z))
            plan_parts.extend(groups.values())
            z_parts.extend(groups)
        ends = np.cumsum([len(part) for part in plan_parts])
        self.parts = tuple(slice(e - len(part), e) for e, part in zip(ends, plan_parts))
        self.powers = np.array([powers for part in plan_parts for powers in part])
        self.coefficients = _lambdify(
            sp, (x1, x2), [coeff for part in plan_parts for coeff in part.values()]
        )
        self.profiles = _lambdify(sp, (z,), z_parts)

    def reference(self, name: str):
        """The unsplit quantity `name`, the momentum sources with their
        friction, as a sympy expression of reference_args."""
        return self._unsplit[name].subs(self._in_time)


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

        x1, x2 = g.x1_centers()[:, None], g.x2_centers()[None, :]
        coefficients = _on_grid(d.coefficients(x1, x2), (g.nx1, g.nx2))
        self._coefficients = coefficients.reshape(len(coefficients), -1)
        zc, zf = g.z_centers(), g.z_faces()
        centres, faces = (_on_grid(d.profiles(z), z.shape) for z in (zc, zf))
        # per quantity, its plan parts and their z-profiles, none on the plan
        self._profiles = {
            name: (parts, (faces if name == "xi_w" else centres)[parts] if in_z else None)
            for name, (parts, in_z) in d.quantities.items()
        }
        u1, u2 = self._assemble(0.0, "u1", "u2")  # U at C = 1
        speed = np.sqrt(u1 * u1 + u2 * u2)
        self._drag = (speed * u1, speed * u2)  # |U| U

    def _assemble(self, t: float, *names: str) -> List[np.ndarray]:
        """The quantities `names` on the grid at time t: each plan part's
        coefficients weighted by C^a S^b, then summed against its z-profile."""
        g = self.grid
        d = self.derivation
        clock = OMEGA * t
        monomials = np.prod(np.array([np.cos(clock), np.sin(clock)]) ** d.powers, axis=1)
        out = []
        for name in names:
            parts, zmat = self._profiles[name]
            plan = np.array([monomials[k] @ self._coefficients[k] for k in d.parts[parts]])
            if zmat is None:  # a plan field, its one plan part with the z-profile 1
                out.append(plan[0].reshape(g.nx1, g.nx2))
                continue
            # einsum, not the BLAS product plan.T @ zmat, whose thread pool
            # would then spin on the other cores for the rest of the run
            out.append(np.einsum("pi,pk->ik", plan, zmat).reshape(g.nx1, g.nx2, -1))
        return out

    def state_at(self, t: float) -> ModelState:
        """Evaluate the manufactured fields on the grid at time t."""
        xi, u1, u2, xi_w = self._assemble(t, "xi", "u1", "u2", "xi_w")
        w = xi_w / xi[:, :, None]
        w[:, :, 0] = w[:, :, -1] = 0.0  # analytic zeros of the integral
        return ModelState.from_values(self.grid, t, xi, u1, u2, w)

    def source(self, t: float) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        """Forcing terms at stage time t, in solver tendency layout."""
        s_xi, s_m1, s_m2, xi = self._assemble(t, "s_xi", "s_m1", "s_m2", "xi")
        if self.params.r > 0:
            c = np.cos(OMEGA * t)
            weight = (self.params.r * xi * abs(c) * c)[..., None]
            for out, drag in zip((s_m1, s_m2), self._drag):
                out += weight * drag
        return s_xi, (s_m1, s_m2)

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
