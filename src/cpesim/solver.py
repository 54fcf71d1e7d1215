"""Explicit integrator for the transformed column model.

Prognostic equations, with xi constant in z and kappa the pressure
stiffness:

    d_t xi + div_x(xi ubar) = 0
    d_t(xi u) + div_x(F) + d_z(G) + kappa grad_x(xi) = - r xi |u| u

with the symmetric horizontal flux F = xi u x u - 2 nu xi D_x(u), D_x(u)
the horizontal strain, and the vertical face flux G = w xi u - nu xi d_z u
(advection and viscosity in one), zero on the column's boundary faces.

The vertical velocity is not prognostic: it is diagnosed from the column
compatibility integral

    xi w(z) = int_0^z div_x( xi (ubar - u) ) dz'

taken by linearity, as int_0^z (mean_z(D) - D) dz' with D = div_x(xi u),
so it vanishes exactly on the bottom and top faces. The mass tendency
-div_x(xi ubar) is -mean_z(D) too: every stage takes it from the column
sums of D (`_column_sums`), and a stage state's w comes from the same
sums, so `diagnostic_w` hands the tendency back with it. Both read the
momentum density xi u, which each stage state forms once and shares with
its momentum tendency and the Heun combination. Time stepping is
two-stage strong-stability-preserving Runge-Kutta (Heun), under a step
bound read from Heun's stability region (`cfl_dt`). A step's final stage
forms the new state's momentum density and mass tendency, and
`dump_states` carries both into the next step (`Carry`), so over a run
each state forms them once.

`trajectory` takes each output state's snapshot (`_snapshot`) on one
helper thread while the caller's thread steps to the next state, so on a
second core the snapshot pass leaves the critical path; stepping itself
stays on the caller's thread.

The stepping path (`step` and what it calls, `cfl_dt`, `dump_states`) also
takes a batch: a state whose fields carry a leading member axis, runs on
one grid at one time stepped with one dt (`ModelState.stack`). It reaches
plan and column fields by axes counted from the end, so each member's
arithmetic is that of its own run, to the bit, and `cfl_dt` of a batch is
the minimum over its members. Small grids gain most: there each numpy pass
is short, and per-call costs dominate. The snapshot diagnostics, and so
`trajectory` and `run`, take single runs only.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from . import diagnostics
from .grid import _PLAN, GridSpec, _div_k1, _grad_k1, grad_x
from .states import ModelState

Pair = Tuple[np.ndarray, np.ndarray]  # the two components of a momentum
# Source term provider for manufactured-solution runs: maps the stage time
# to (mass tendency (nx1, nx2), momentum tendencies (nx1, nx2, nz) pair);
# a batch takes the same source for every member.
SourceFn = Callable[[float], Tuple[np.ndarray, Pair]]


class NumericalError(RuntimeError):
    """Raised when the state degenerates (NaN/Inf) during a run."""


@dataclass(frozen=True)
class Params:
    """Physical parameters of the model problem.

    nu        viscosity scale (> 0); the default is a desk-scale value
    r         quadratic friction coefficient (>= 0)
    kappa     pressure stiffness in front of grad_x(xi) (> 0)
    xi_floor  positivity floor applied after each stage
    """

    nu: float = 0.01
    r: float = 0.0
    kappa: float = 1.0
    xi_floor: float = 1e-10

    def __post_init__(self):
        if not (self.nu > 0.0 and math.isfinite(self.nu)):
            raise ValueError(f"nu must be positive, got {self.nu!r}")
        if not (self.r >= 0.0 and math.isfinite(self.r)):
            raise ValueError(f"r must be nonnegative, got {self.r!r}")
        if not (self.kappa > 0.0 and math.isfinite(self.kappa)):
            raise ValueError(f"kappa must be positive, got {self.kappa!r}")
        if not (self.xi_floor > 0.0 and math.isfinite(self.xi_floor)):
            raise ValueError(f"xi_floor must be positive, got {self.xi_floor!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Run controls.

    cfl         Courant number in (0, 1]: it scales the two Courant caps of
                `cfl_dt`; Heun's limits are taken at 1/2 whatever cfl
    t_end       final time (>= 0)
    dump_every  snapshot cadence in steps (the initial and final states
                are always captured)
    dt_fixed    optional fixed step overriding the adaptive bound, used by
                convergence and twin-run studies that need a shared time
                grid
    """

    t_end: float
    cfl: float = 0.4
    dump_every: int = 1
    dt_fixed: Optional[float] = None

    def __post_init__(self):
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl!r}")
        if not (self.t_end >= 0.0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be nonnegative, got {self.t_end!r}")
        if not isinstance(self.dump_every, int) or self.dump_every < 1:
            raise ValueError(
                f"dump_every must be a positive integer, got {self.dump_every!r}"
            )
        if self.dt_fixed is not None and not (
            self.dt_fixed > 0.0 and math.isfinite(self.dt_fixed)
        ):
            raise ValueError(f"dt_fixed must be positive, got {self.dt_fixed!r}")

    @property
    def t_tol(self) -> float:
        """Times this close are one instant; a run stops within it of t_end."""
        return 1e-12 * max(1.0, self.t_end)


def _column_sums(grid: GridSpec, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    # C / k1, k1 = 1 / (2 dx1), with C the column cumulative sum of
    # D = div_x(m), in place, one plan add per level: the same sequential
    # sums as np.cumsum, which runs one short loop per column and so takes
    # longer on columns of a few dozen cells
    d = _div_k1(grid, m1, m2)
    for k in range(1, grid.nz):
        d[..., k] += d[..., k - 1]
    return d


def rhs_xi(grid: GridSpec, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Plan-density tendency -div_x(xi ubar) of the momentum density m = xi u.

    It is -mean_z(D) = -C_nz / nz, from the column sums C of
    D = div_x(xi u) that `diagnostic_w` integrates, and equals the tendency
    `diagnostic_w` hands back to the bit. The centered difference in div_x
    is a difference of face-mean fluxes, so the grid sum of the tendency
    telescopes to zero and the discrete mass integral is conserved to
    round-off.
    """
    k1 = 0.5 / grid.dx1
    return _column_sums(grid, m1, m2)[..., -1] * (-k1 / grid.nz)


def _column(a: np.ndarray, nz: int) -> np.ndarray:
    # a plan field repeated down nz levels, as a contiguous column field: a
    # product with it runs about twice as fast as with the broadcast
    # a[..., None], and the copy costs less than the difference
    return np.repeat(a, nz).reshape(a.shape + (nz,))


def diagnostic_w(
    grid: GridSpec,
    xi: np.ndarray,
    m1: np.ndarray,
    m2: np.ndarray,
    xi_floor: float,
    dxi: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vertical velocity from the column compatibility integral.

    Takes the momentum density (m1, m2) = xi u. By linearity
    div_x(xi (ubar - u)) = mean_z(D) - D with D = div_x(xi u), so
    xi w_k / dz = (k / nz) C_nz - C_k on face k, with C the column
    cumulative sum of D: zero on the bottom and top faces exactly. Where
    xi dips below the floor, the floor is used in the division so w is
    still defined. If a plan array dxi is given, it receives the mass
    tendency of the same D, -mean_z(D) = -C_nz / nz, as `rhs_xi` gives it.
    """
    # C is taken before w is allocated: the other order costs several times
    # more page faults per step on large grids (the heap reuses freed
    # blocks less well). d holds C / k1, k1 = 1 / (2 dx1).
    k1 = 0.5 / grid.dx1
    d = _column_sums(grid, m1, m2)
    w = np.zeros(xi.shape + (grid.nz + 1,))
    if dxi is not None:
        np.multiply(d[..., -1], -k1 / grid.nz, out=dxi)
    scale = (k1 * grid.dz) / np.maximum(xi, xi_floor)
    top = d[..., -1] * scale
    scale = _column(scale, grid.nz)
    d *= scale
    # the column of scale, spent, takes (k / nz) C_nz; on the top face
    # x - x is exactly 0
    np.multiply(top[..., None], np.arange(1, grid.nz + 1) / grid.nz, out=scale)
    np.subtract(scale, d, out=w[..., 1:])
    return w


def momentum_density(xi: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> Pair:
    """The momentum density (xi u1, xi u2), as fresh arrays.

    xi is the plan density, or its column as `_assemble` already holds it
    (told apart by shape: a batch's plan field has three axes too).
    """
    xi3 = xi if xi.shape == u1.shape else _column(xi, u1.shape[-1])
    return xi3 * u1, xi3 * u2


def momentum(state: ModelState) -> Pair:
    """The momentum density of a state, as fresh arrays."""
    return momentum_density(state.xi.values, state.u1.values, state.u2.values)


def rhs_momentum(grid: GridSpec, state: ModelState, p: Params, m: Pair) -> Pair:
    """Tendency of the momentum density xi u.

    The horizontal flux is the symmetric tensor F = xi u x u - 2 nu xi D_x(u),
    and each component takes one flux-form divergence of its row of F. The
    vertical advection and the vertical viscosity of each component share
    one face flux, G = w (xi u)_face - nu xi d_z u (xi does not depend on
    z), which is zero on both boundary faces: w vanishes there, and the
    mirrored ghost cells of the no-stress ends give d_z u = 0. m is the
    state's momentum density; it is only read.
    """
    g = grid
    xi = state.xi.values
    u1 = state.u1.values
    u2 = state.u2.values
    m1, m2 = m
    nz = g.nz
    # every horizontal derivative is k1 = 1 / (2 dx1) times a difference:
    # the strain's k1 rides in a = 2 nu xi k1, and each divergence output
    # takes k1 once. Each coefficient is formed on the plan field and
    # expanded to a contiguous column. b is scratch throughout, and c from
    # the vertical flux on: on large grids a fresh array costs more in page
    # faults than the arithmetic that fills it
    k1 = 0.5 / g.dx1
    a = _column(xi * (2.0 * p.nu * k1), nz)
    b = np.empty(u1.shape)

    # -F is built in the buffers of the velocity differences (a carries the
    # strain's k1), so that the divergences come out with the tendency's
    # sign; each _div_k1 output is over k1 and takes k1 once. The three
    # fluxes are scaled before the first divergence, so a is freed before
    # the divergences allocate, and each flux is freed once it is spent
    f11, d2u1 = _grad_k1(g, u1)
    d1u2, f22 = _grad_k1(g, u2)
    f12 = np.add(d2u1, d1u2, out=d2u1)  # 2 D12 / k1
    del d1u2, d2u1
    f12 *= a
    f12 *= 0.5
    f12 -= np.multiply(m1, u2, out=b)
    f11 *= a
    f11 -= np.multiply(m1, u1, out=b)
    f22 *= a
    del a
    f22 -= np.multiply(m2, u2, out=b)
    out1 = _div_k1(g, f11, f12)
    del f11
    out2 = _div_k1(g, f12, f22)
    del f12, f22
    out1 *= k1
    out2 *= k1

    gxi1, gxi2 = grad_x(g, xi, _PLAN)
    out1 -= p.kappa * gxi1[..., None]
    out2 -= p.kappa * gxi2[..., None]

    # c[..., k] takes G / dz through the upper face of cell k, so each column
    # ends in its zero top flux, and on the flat buffer c[j] - c[j-1] is the
    # flux difference of every cell, a column's bottom cell included
    w_up = (state.w.values[..., 1:] * (0.5 / g.dz)).reshape(-1)[:-1]
    visc = _column(xi * (p.nu / g.dz**2), nz).reshape(-1)[:-1]
    c = np.empty(u1.shape)
    b_flat, c_flat = b.reshape(-1), c.reshape(-1)
    for mom, u, out in ((m1, u1, out1), (m2, u2, out2)):
        m_flat, u_flat, out_flat = mom.reshape(-1), u.reshape(-1), out.reshape(-1)
        np.add(m_flat[1:], m_flat[:-1], out=c_flat[:-1])
        c_flat[:-1] *= w_up
        np.subtract(u_flat[1:], u_flat[:-1], out=b_flat[:-1])
        b_flat[:-1] *= visc
        c_flat[:-1] -= b_flat[:-1]
        c[..., -1] = 0.0
        out_flat -= c_flat
        out_flat[1:] += c_flat[:-1]
    del w_up, visc

    if p.r > 0.0:
        drag = _column(xi * p.r, nz)
        speed = np.square(u1, out=b)
        speed += np.square(u2, out=c)
        drag *= np.sqrt(speed, out=speed)
        out1 -= np.multiply(drag, u1, out=b)
        out2 -= np.multiply(drag, u2, out=b)

    return out1, out2


def heun_limit(damping: float, frequency: float) -> float:
    """Largest step Heun keeps stable on the modes -D s^2 + i W s, 0 <= s <= 1.

    D = damping > 0 is the family's largest damping and W = frequency >= 0
    its largest frequency. The step is tau / (D + W^2 / D), with tau the
    real root of tau^3 - 4 tau^2 + 8 tau = 8 (1 + W^2 / D^2) (`cfl_dt`
    derives it): exactly 2 / D when W = 0, and 0, not NaN, when W^2 / D
    overflows.
    """
    if frequency == 0.0:
        return 2.0 / damping
    ratio = frequency / damping
    # Cardano on tau = 4/3 + t, which leaves t^3 + (8/3) t = 2 b with
    # b = 4 (W/D)^2 + 28/27; both terms of tau below are positive, so
    # nothing cancels
    b = 4.0 * ratio * ratio + 28.0 / 27.0
    a = (b + math.hypot(b, 16.0 * math.sqrt(2.0) / 27.0)) ** (1.0 / 3.0)
    if not math.isfinite(a):
        return 0.0
    return (4.0 / 3.0 + a - 8.0 / (9.0 * a)) / (damping + frequency * ratio)


# The fraction of Heun's two stability limits a step takes (`cfl_dt`).
HEUN_FRACTION = 0.5


class StepBounds(NamedTuple):
    """One run's two Courant caps at cfl 1 and Heun's two limits (`cfl_dt`)."""

    advective: float
    vertical: float
    viscous: float
    acoustic: float


def step_bounds(state: ModelState, p: Params) -> StepBounds:
    """The bounds `cfl_dt` takes the least of, for a single run."""
    state.require_single("step_bounds")
    grid = state.grid
    dx = min(grid.dx1, grid.dx2)
    q = 1.0 / grid.dx1**2 + 1.0 / grid.dx2**2
    umax = state.max_speed()
    w = state.w.values
    wmax = float(max(w.max(), -w.min()))
    xi = np.maximum(state.xi.values, p.xi_floor)
    r_loc = 0.5 * max(
        float(np.max((np.roll(xi, 1, axis) + np.roll(xi, -1, axis)) / xi))
        for axis in (_PLAN, _PLAN + 1)
    )
    rho_h = 4.0 * p.nu * r_loc / dx**2
    rho_v = 4.0 * p.nu / grid.dz**2
    sound = umax + math.sqrt(p.kappa)
    return StepBounds(
        advective=dx / sound,
        vertical=grid.dz / (wmax + 1e-300),
        viscous=heun_limit(rho_h + rho_v, umax * math.sqrt(q)),
        acoustic=heun_limit(p.nu * q, sound * math.sqrt(q)),
    )


@np.errstate(over="ignore")  # an overflowing |u|^2 ends in the NumericalError below
def cfl_dt(state: ModelState, p: Params, cfl: float) -> float:
    """Stable step from two Courant caps and Heun's stability region.

    dt = min( cfl * min( dx / (max|u| + sqrt(kappa)),
                         dz / (max|w| + tiny) ),
              HEUN_FRACTION * min( heun_limit(rho_h + rho_v, max|u| sqrt(q)),
                                   heun_limit(nu q, (max|u| + sqrt(kappa)) sqrt(q)) ) )

    with dx = min(dx1, dx2), q = 1/dx1^2 + 1/dx2^2, rho_v = 4 nu / dz^2 and
    rho_h = 4 nu r_loc / dx^2; r_loc is the largest local neighbour ratio
    (xi[i+1] + xi[i-1]) / (2 xi[i]) over cells and both horizontal axes,
    xi floored at xi_floor. r_loc >= 1, and on a smooth density it is
    1 + O(dx^2 xi'' / xi): a smooth wave near vacuum pays far less than
    its global ratio max(xi) / min(xi).

    Heun's amplification factor is R(z) = 1 + z + z^2/2, and for z = x + iy

        |R|^2 - 1 = 2x + 2x^2 + x^3 + x^4/4 + x y^2 + x^2 y^2/2 + y^4/4.

    A centred difference has a symbol proportional to sin(theta), and a
    viscous operator one proportional to sin^2(theta), so on a uniform
    state a mode family with largest damping D and largest frequency W
    lies on the parabola lambda(s) = -D s^2 + i W s, 0 <= s <= 1. With
    z = dt lambda(s), v = -x = dt D s^2 and c = dt W^2 / D, y^2 = c v and

        |R|^2 - 1 = -v (2 - v - v (1 - c/2 - v/2)^2),

    whose bracket falls as v grows for every c >= 0. So the family is
    stable up to the step that puts its end s = 1 on |R| = 1: with
    tau = dt (D + W^2 / D) that is tau (2 - tau + tau^2/4) = 2 (1 + W^2/D^2),
    the cubic `heun_limit` solves. W = 0 gives tau = 2, Heun's real
    interval [-2, 0]; the step falls as W grows, roughly as W^(-4/3).

    Two families bound the spectrum:
    - The viscous-advective modes. The horizontal viscous operator stepped
      in `rhs_momentum`, A u = div_w(2 nu xi D_w(u)) on the wide stencil w,
      is symmetric and negative semi-definite, since
      <u, A u> = -sum 2 nu xi |D_w u|^2; so xi^-1 A, the operator acting
      on u, is self-adjoint in the xi-weighted product, with a real,
      nonpositive spectrum. Gershgorin on the rows of xi^-1 A (the
      entries of d1(2 nu xi d1 u1), d2(nu xi d2 u1) and the cross term
      d2(nu xi d1 u2) sum to 2, 1 and 1 times nu r_loc / dx^2) bounds its
      radius by rho_h; uniform xi with dx1 = dx2 attains it. nu d_zz is
      also self-adjoint and nonpositive in that product, with radius
      rho_v. So D = rho_h + rho_v, and advection adds a frequency
      |u . k| <= max|u| sqrt(q).
    - The centred acoustic modes, damped by the viscosity at nu |k|^2 and
      turning at (|u| + sqrt(kappa)) |k|, with |k|^2 <= q for the wide
      stencil: D = nu q and W = (max|u| + sqrt(kappa)) sqrt(q). At high
      cell Reynolds number they lie close to the imaginary axis, which
      Heun's region does not contain, and this bound binds.
    The Courant caps keep each step's transport within a cell: across it
    at the sound speed, and up a level at max|w|. `cfl` is their Courant
    number, and it scales them only.

    The two Heun limits are exact edges of the region, so they are taken
    at the fixed fraction HEUN_FRACTION = 1/2 whatever `cfl`. At a
    fraction f of the limit the stiffest real viscous mode sits at
    z = -2 f, where |R(-2 f)| = 1 - 2 f + 2 f^2: least at f = 1/2, where it
    is 1/2, so that mode is damped fastest. The same fraction leaves every
    family inside the region (the bracket above falls as v grows), with
    room for the nonlinear terms, which the linearised families do not
    see. At cfl <= 1/2 no step is smaller than cfl times the least bound.

    The state is finite by construction: it rejects non-finite values
    when it is built. A finite u whose |u|^2 overflows has no stable
    step: that raises NumericalError. A batch takes each member's step
    from its own fields, then the least of them (the Heun limits are not
    monotone in D, so maxima over the batch would not give it).
    """
    runs = [state]
    if state.members is not None:
        fields = zip(state.xi.values, state.u1.values, state.u2.values, state.w.values)
        runs = [ModelState.from_values(state.grid, state.t, *f) for f in fields]
    dt = min(
        min(cfl * min(b.advective, b.vertical), HEUN_FRACTION * min(b.viscous, b.acoustic))
        for b in (step_bounds(run, p) for run in runs)
    )
    if not dt > 0.0:
        raise NumericalError(f"no stable step at t = {state.t:.6g} (bound {dt!r})")
    return dt


def _assemble(
    grid: GridSpec,
    t: float,
    xi: np.ndarray,
    m1: np.ndarray,
    m2: np.ndarray,
    p: Params,
) -> Tuple[ModelState, Pair, np.ndarray, int]:
    """Floor xi, recover velocities from momentum, re-diagnose w.

    Takes the caller's fresh stage arrays: the velocities are divided out
    of m1 and m2 in place, and the state adopts them. Returns the state,
    its momentum density (formed once, from the floored xi; the caller may
    write to it), its mass tendency (taken with w from one divergence; the
    caller may write to it) and the number of floored cells. The mid
    stage's pair feeds its tendency; the final stage's is the new state's,
    which `dump_states` carries into the next step. A batch's floor hits
    are summed over its members.
    """
    hits = int(np.count_nonzero(xi < p.xi_floor))
    if hits:
        xi = np.maximum(xi, p.xi_floor)
    xi3 = _column(xi, grid.nz)
    u1 = np.divide(m1, xi3, out=m1)
    u2 = np.divide(m2, xi3, out=m2)
    m = momentum_density(xi3, u1, u2)
    del xi3
    dxi = np.empty(xi.shape)
    w = diagnostic_w(grid, xi, *m, p.xi_floor, dxi)
    for arr in (xi, u1, u2, w):
        # the stage arrays are fresh, so the state adopts them without a copy
        arr.setflags(write=False)
    try:
        return ModelState.from_values(grid, t, xi, u1, u2, w), m, dxi, hits
    except ValueError as err:  # the state's checks name the failing field
        raise NumericalError(f"{err} at t = {t:.6g}") from err


@dataclass
class Carry:
    """A state's momentum density and mass tendency, handed to its step.

    `dump_states` threads one through its steps. `step` takes the pair
    from it when it was formed for the state being stepped, and leaves the
    new state's pair there: its final `_assemble` forms them, equal to
    `momentum(new)` and `rhs_xi(grid, *momentum(new))` to the bit. The
    step writes to the arrays it takes, so nothing else may hold them.
    """

    state: Optional[ModelState] = None
    m: Optional[Pair] = None
    dxi: Optional[np.ndarray] = None


# Overflow and NaN in a failing step are reported once, by the state
# that rejects the stage, rather than as numpy warnings.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def step(
    state: ModelState,
    p: Params,
    dt: float,
    source: Optional[SourceFn] = None,
    carry: Optional[Carry] = None,
) -> Tuple[ModelState, int]:
    """Advance one SSP-RK2 (Heun) step of size dt.

    Each Euler stage floors xi, recovers u = (xi u)/xi, and re-diagnoses
    w; the final state is the usual convex combination of the first stage
    and an Euler step from it. Returns the new state and the number of
    cells floored over both stages (over all members of a batch). Raises
    NumericalError when NaN or Inf appear, naming the offending field.
    Without a `Carry` for the state, the step forms the state's momentum
    and mass tendency itself.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    g = state.grid
    xi0 = state.xi.values
    if carry is not None and carry.state is state:
        (m1_0, m2_0), dxi = carry.m, carry.dxi
    else:
        m1_0, m2_0 = momentum(state)
        dxi = rhs_xi(g, m1_0, m2_0)
    if carry is not None:
        # the step writes to the carried arrays, so they are spent even if it fails
        carry.state = carry.m = carry.dxi = None

    def tendency(s: ModelState, m: Pair, dxi: np.ndarray):
        dm1, dm2 = rhs_momentum(g, s, p, m)
        if source is not None:
            s_xi, (s_m1, s_m2) = source(s.t)
            dxi += s_xi
            dm1 += s_m1
            dm2 += s_m2
        return dxi, dm1, dm2

    # each stage state's momentum is formed once; the tendencies and the
    # stage momenta are fresh arrays, so each combination is built in them
    # in the order of xi0 + dt * dxi and 0.5 * (xi0 + xi_mid + dt * dxi);
    # each stage's mass tendency comes with its w, from one divergence
    dxi, dm1, dm2 = tendency(state, (m1_0, m2_0), dxi)
    for d, base in ((dxi, xi0), (dm1, m1_0), (dm2, m2_0)):
        d *= dt
        d += base
    mid, m_mid, dxi_mid, hits_mid = _assemble(g, state.t + dt, dxi, dm1, dm2, p)

    dxi, dm1, dm2 = tendency(mid, m_mid, dxi_mid)
    xi2 = xi0 + mid.xi.values
    m1_2, m2_2 = m_mid
    m1_2 += m1_0
    m2_2 += m2_0
    for acc, d in ((xi2, dxi), (m1_2, dm1), (m2_2, dm2)):
        d *= dt
        acc += d
        acc *= 0.5
    new, m_new, dxi_new, hits_new = _assemble(g, state.t + dt, xi2, m1_2, m2_2, p)
    if carry is not None:
        carry.state, carry.m, carry.dxi = new, m_new, dxi_new
    return new, hits_mid + hits_new


@dataclass
class Snapshot:
    """State plus diagnostics captured at one output instant."""

    step_index: int
    state: ModelState
    dt: float
    mass: float
    xi_min: float
    energy: diagnostics.EnergyReport
    entropy: diagnostics.EntropyReport
    norms: diagnostics.NormReport
    floor_activations: int

    @property
    def t(self) -> float:
        return self.state.t


@dataclass
class RunResult:
    """Snapshot series of one run, iterable as a stream; residuals filled in."""

    grid: GridSpec
    snapshots: List[Snapshot]

    def __iter__(self) -> Iterator[Snapshot]:
        return iter(self.snapshots)


def _mass(grid: GridSpec, xi: np.ndarray) -> float:
    return grid.h * grid.cell_area * float(np.sum(xi))


class Instant(NamedTuple):
    """An output state and the floor hits so far."""

    step_index: int
    state: ModelState
    dt: float
    floor_total: int


# a state's |u|^2 may overflow before the step that fails; that step's
# NumericalError is the one report
@np.errstate(over="ignore")
def _snapshot(
    step_index: int, state: ModelState, dt: float, p: Params, floor_total: int
) -> Snapshot:
    energy, entropy, norms = diagnostics.snapshot_reports(state, p)
    return Snapshot(
        step_index=step_index,
        state=state,
        dt=dt,
        mass=_mass(state.grid, state.xi.values),
        xi_min=float(np.min(state.xi.values)),
        energy=energy,
        entropy=entropy,
        norms=norms,
        floor_activations=floor_total,
    )


# A run whose stable step (`cfl_dt`) falls below this fraction of its
# first is stopped (`dump_states`): its step follows a growing state down
# and would never reach t_end. The test suite's, the README quick-start's
# and the benchmark's runs keep at least 0.83 of their first bound.
COLLAPSE_FRACTION = 1e-4


def _collapse(state: ModelState, p: Params, cfl: float, dt: float, first: float) -> str:
    message = (
        f"stable step {dt:.3g} at t = {state.t:.6g} fell below "
        f"{COLLAPSE_FRACTION:g} of the run's first, {first:.3g}"
    )
    if state.members is not None:
        return message
    b = step_bounds(state, p)
    shares = [cfl * b.advective, cfl * b.vertical]
    shares += [HEUN_FRACTION * b.viscous, HEUN_FRACTION * b.acoustic]
    return f"{message} (bound by {b._fields[int(np.argmin(shares))]})"


def dump_states(
    initial: ModelState,
    p: Params,
    cfg: SolverConfig,
    source: Optional[SourceFn] = None,
) -> Iterator[Instant]:
    """Integrate to t_end with adaptive (or fixed) steps, yielding states.

    Yields the initial state, every `dump_every`-th state and the final
    one (the last step is shortened to land on t_end), with no diagnostics
    and holding only the current state, with its momentum and mass
    tendency for the next step. An error names the failing step. A run
    whose stable step falls below COLLAPSE_FRACTION of its first has
    collapsed: that is a NumericalError too, which names, for a single
    run, the `step_bounds` field that binds.
    """
    state = initial
    del initial  # after the first step only the caller can keep it alive
    yield Instant(0, state, 0.0, 0)
    step_index = floor_total = 0
    carry = Carry()  # the current state's momentum and mass tendency
    first = None  # the run's first step, before any shortening
    while state.t < cfg.t_end - cfg.t_tol:
        try:
            dt = cfg.dt_fixed or cfl_dt(state, p, cfg.cfl)
            first = first or dt
            if dt < COLLAPSE_FRACTION * first:
                raise NumericalError(_collapse(state, p, cfg.cfl, dt, first))
            dt = min(dt, cfg.t_end - state.t)
            state, hits = step(state, p, dt, source, carry)
        except NumericalError as err:
            raise NumericalError(f"step {step_index + 1}: {err}") from err
        step_index += 1
        floor_total += hits
        if state.t >= cfg.t_end - cfg.t_tol or step_index % cfg.dump_every == 0:
            yield Instant(step_index, state, dt, floor_total)


def trajectory(initial: ModelState, p: Params, cfg: SolverConfig) -> Iterator[Snapshot]:
    """Snapshots with full diagnostics at the instants of `dump_states`.

    Each snapshot is yielded once the next one is taken, with the
    forward-difference balance residuals of that pair filled in; the last
    keeps NaN. On numerical failure the snapshots taken are yielded before
    the error is raised. The run is unforced: under a source the residuals
    would report the forcing's work, so forced runs take `dump_states`.

    Each snapshot is taken on one helper thread while the caller's thread
    steps to the next instant, at most one in flight; an error raised in
    a snapshot is raised here, where that snapshot is paired. A snapshot
    runs in a copy of the caller's context, so a caller's `np.errstate`
    holds there too. The helper is shut down, the snapshot in flight
    finished, when the stream ends, fails or is closed.
    """
    # imported here: concurrent.futures loads logging, a few ms that every
    # import of cpesim, and so every command's start-up, would pay
    from concurrent.futures import ThreadPoolExecutor

    instants = dump_states(initial, p, cfg)
    del initial  # the stream yields it once and then lets it go
    with ThreadPoolExecutor(max_workers=1) as helper:

        def submit(i: Instant):
            args = i.step_index, i.state, i.dt, p, i.floor_total
            return helper.submit(contextvars.copy_context().run, _snapshot, *args)

        in_flight = submit(next(instants))
        pending = failure = None  # pending: the snapshot before the one in flight
        while in_flight is not None:
            try:
                i = next(instants, None)  # steps while the helper works
            except NumericalError as err:
                failure, i = err, None
            snap = in_flight.result()
            in_flight = None if i is None else submit(i)
            if pending is not None:
                diagnostics.fill_balance_residuals(
                    [pending.energy, snap.energy], [pending.entropy, snap.entropy]
                )
                yield pending
            pending = snap
        yield pending
        if failure is not None:
            raise failure


def run(initial: ModelState, p: Params, cfg: SolverConfig) -> RunResult:
    """Collect the whole `trajectory` of a run."""
    return RunResult(initial.grid, list(trajectory(initial, p, cfg)))
