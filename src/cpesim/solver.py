"""Explicit integrator for the transformed column model.

Prognostic equations, with xi constant in z and kappa the pressure
stiffness:

    d_t xi + div_x(xi ubar) = 0
    d_t m + div_x(F) + d_z(G) = - r |u| m,    m = xi u

with the symmetric horizontal flux F = m x u - 2 nu xi D_x(u) + kappa xi I,
D_x(u) the horizontal strain (the pressure kappa grad_x(xi) is the
divergence of F's diagonal part), and the vertical face flux
G = w m - nu d_z m (advection and viscosity in one; nu xi d_z u = nu d_z m,
xi being constant in z), zero on the column's boundary faces. The
friction r xi |u| u is r |u| m. Only the strain's coefficient 2 nu xi and
the pressure's kappa xi are expanded to columns; the other terms are
formed from m.

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
second core the snapshot pass leaves the critical path.

Each column pass of a step runs through `Halves`. A single run of at
least SPLIT_CELLS cells (64x64x32), in a process that may run on two
cores (`os.sched_getaffinity`), splits each pass into two halves of the
x1 rows: `dump_states` (and so `trajectory`) starts one helper thread
per run, which takes the second half while the caller's thread takes the
first, and shuts it down when the stream ends, fails or is closed. The
gain needs a free second core; on a busy one the split only adds the
cost of handing the interpreter between the threads. Smaller runs,
batches and a stand-alone `step` run every pass over all rows on the
caller's thread. Either way each element takes the same operations, so
a run's results are the same to the bit whether it splits or not.

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

import contextlib
import contextvars
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from . import diagnostics
from .grid import _ALL, _PLAN, GridSpec, _div_k1, _grad_k1
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


# A single run of at least this many cells (64x64x32) steps on two threads
# where it may run on two cores (`Halves`). Below it the halves' passes are
# short, and handing the interpreter between the threads at each numpy
# call costs about what they save: on two free cores a step took 0.65 of
# its one-thread time at 64x64x32 and 0.70 at 96x96x48, but 0.77-1.1 at
# 64x64x24 and 0.76-1.12 at 64x64x16, the README quick-start grid.
SPLIT_CELLS = 131_072


class Halves:
    """Runs each column pass of a step over the x1 rows of its fields.

    A pass is a kernel of a slice of rows that writes those rows of arrays
    its caller allocates. Without a helper the kernel takes every row
    (`_ALL`, a batch's member axis included) on the caller's thread. With
    one, it takes rows [0, nx1/2) there and [nx1/2, nx1) on the helper, in
    a copy of the caller's context, so that a caller's `np.errstate` holds
    there too; the call returns once both are done, and raises, the
    caller's error first, only then. A stencil that reads another half's
    rows runs in the next pass. Every element takes the same operations
    either way, so the results are the same to the bit.
    """

    def __init__(self, nx1: int = 0, helper=None):
        self.helper = helper
        half = nx1 // 2
        self.parts = (slice(0, half), slice(half, nx1)) if helper else (_ALL,)

    def __call__(self, kernel: Callable[[slice], object]) -> None:
        if self.helper is None:
            kernel(_ALL)
            return
        first, second = self.parts
        later = self.helper.submit(contextvars.copy_context().run, kernel, second)
        try:
            kernel(first)
        finally:
            later.exception()  # waits for the helper's half, whatever this one did
        later.result()


_ONE = Halves()  # every pass over every row, on the caller's thread


@contextlib.contextmanager
def _halves(g: GridSpec, members: Optional[int]) -> Iterator[Halves]:
    """The `Halves` a run steps through, its helper shut down on exit.

    A single run (`members` None) of at least SPLIT_CELLS cells, in a
    process that may run on two cores, takes one helper thread; any other
    run takes none.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if members is not None or g.nx1 * g.nx2 * g.nz < SPLIT_CELLS or cores < 2:
        yield _ONE
        return
    # imported here, as in `trajectory`
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as helper:
        yield Halves(g.nx1, helper)


def _column_sums(
    grid: GridSpec,
    m1: np.ndarray,
    m2: np.ndarray,
    rows: slice = _ALL,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    # C / k1, k1 = 1 / (2 dx1), with C the column cumulative sum of
    # D = div_x(m), in place, one plan add per level: the same sequential
    # sums as np.cumsum, which runs one short loop per column and so takes
    # longer on columns of a few dozen cells. `rows` and `out` as `_div_k1`
    d = _div_k1(grid, m1, m2, rows, out)
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
    halves: Halves = _ONE,
) -> np.ndarray:
    """Vertical velocity from the column compatibility integral.

    Takes the momentum density (m1, m2) = xi u. By linearity
    div_x(xi (ubar - u)) = mean_z(D) - D with D = div_x(xi u), so
    xi w_k / dz = (k / nz) C_nz - C_k on face k, with C the column
    cumulative sum of D: zero on the bottom and top faces exactly. Where
    xi dips below the floor, the floor is used in the division so w is
    still defined. If a plan array dxi is given, it receives the mass
    tendency of the same D, -mean_z(D) = -C_nz / nz, as `rhs_xi` gives it.
    Each of its two passes runs through `halves`.
    """
    # C is taken before w is allocated: the other order costs several times
    # more page faults per step on large grids (the heap reuses freed
    # blocks less well). d holds C / k1, k1 = 1 / (2 dx1).
    k1 = 0.5 / grid.dx1
    d = np.empty(m1.shape)
    halves(lambda rows: _column_sums(grid, m1, m2, rows, d[rows]))
    w = np.empty(xi.shape + (grid.nz + 1,))

    def faces(rows: slice) -> None:
        c, wr = d[rows], w[rows]
        wr[..., 0] = 0.0
        if dxi is not None:
            np.multiply(c[..., -1], -k1 / grid.nz, out=dxi[rows])
        scale = (k1 * grid.dz) / np.maximum(xi[rows], xi_floor)
        top = c[..., -1] * scale
        scale = _column(scale, grid.nz)
        c *= scale
        # the column of scale, spent, takes (k / nz) C_nz; on the top face
        # x - x is exactly 0
        np.multiply(top[..., None], np.arange(1, grid.nz + 1) / grid.nz, out=scale)
        np.subtract(scale, c, out=wr[..., 1:])

    halves(faces)
    return w


def momentum_density(
    xi: np.ndarray, u1: np.ndarray, u2: np.ndarray, out: Optional[Pair] = None
) -> Pair:
    """The momentum density (xi u1, xi u2), as fresh arrays or in `out`.

    xi is the plan density, or its column as `_assemble` already holds it
    (told apart by shape: a batch's plan field has three axes too).
    """
    xi3 = xi if xi.shape == u1.shape else _column(xi, u1.shape[-1])
    if out is None:
        return xi3 * u1, xi3 * u2
    return np.multiply(xi3, u1, out=out[0]), np.multiply(xi3, u2, out=out[1])


def momentum(state: ModelState) -> Pair:
    """The momentum density of a state, as fresh arrays."""
    return momentum_density(state.xi.values, state.u1.values, state.u2.values)


def rhs_momentum(
    grid: GridSpec, state: ModelState, p: Params, m: Pair, halves: Halves = _ONE
) -> Pair:
    """Tendency of the momentum density m = xi u.

    The horizontal flux is the symmetric tensor
    F = xi u x u - 2 nu xi D_x(u) + kappa xi I, the pressure taken as the
    divergence of its diagonal, and each component takes one flux-form
    divergence of its row of F. The vertical advection and the vertical
    viscosity of each component share one face flux, G = w m_face - nu d_z m
    (nu xi d_z u = nu d_z m, as xi does not depend on z): through the upper
    face of cell k, G / dz = alpha m[k+1] + beta m[k] with
    alpha, beta = w / (2 dz) -/+ nu / dz^2. G is zero on both boundary
    faces: w vanishes there, and the mirrored ghost cells of the no-stress
    ends give d_z m = 0. The friction r xi |u| u is r |u| m. m is the
    state's momentum density; it is only read. Each of its four passes
    runs through `halves`: the fluxes, each divergence (they read the rows
    either side of their own), then the vertical flux and the friction.
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
    # faults than the arithmetic that fills it, and the buffers are taken
    # and freed in the order that faults least
    k1 = 0.5 / g.dx1
    a = _column(xi * (2.0 * p.nu * k1), nz)
    b, f11, f12, d1u2, f22 = (np.empty(u1.shape) for _ in range(5))

    def fluxes(rows: slice) -> None:
        # -F is built in the buffers of the velocity differences (a carries
        # the strain's k1), so that the divergences come out with the
        # tendency's sign
        ar, br = a[rows], b[rows]
        f11r, f12r = _grad_k1(g, u1, rows, (f11[rows], f12[rows]))
        d1u2r, f22r = _grad_k1(g, u2, rows, (d1u2[rows], f22[rows]))
        f12r += d1u2r  # 2 D12 / k1
        f12r *= ar
        f12r *= 0.5
        f12r -= np.multiply(m1[rows], u2[rows], out=br)
        f11r *= ar
        f11r -= np.multiply(m1[rows], u1[rows], out=br)
        f22r *= ar
        f22r -= np.multiply(m2[rows], u2[rows], out=br)
        ar[...] = (xi[rows] * p.kappa)[..., None]  # a, spent, takes the pressure
        f11r -= ar
        f22r -= ar

    def divergence(a1: np.ndarray, a2: np.ndarray, out: np.ndarray) -> None:
        # each _div_k1 output is over k1 and takes k1 once
        def kernel(rows: slice) -> None:
            d = _div_k1(g, a1, a2, rows, out[rows])
            d *= k1

        halves(kernel)

    # the three fluxes are complete before the first divergence, so a and
    # d1u2 are freed before the divergences allocate, and each flux is
    # freed once it is spent
    halves(fluxes)
    del d1u2, a
    out1 = np.empty(u1.shape)
    divergence(f11, f12, out1)
    del f11
    out2 = np.empty(u1.shape)
    divergence(f12, f22, out2)
    del f12, f22
    beta, alpha, c = (np.empty(u1.shape) for _ in range(3))
    row = u1[0].size

    def vertical(rows: slice) -> None:
        # c[..., k] takes G / dz through the upper face of cell k. alpha and
        # beta are zero on the top face, so each column ends in its zero top
        # flux, and on the flat buffer c[j] - c[j-1] is the flux difference
        # of every cell, a column's bottom cell included. The rows are the
        # flat cells [j0, j1); the last cell of the buffer has no cell above
        br = np.multiply(state.w.values[rows][..., 1:], 0.5 / g.dz, out=beta[rows])
        ar = np.subtract(br, p.nu / g.dz**2, out=alpha[rows])
        br += p.nu / g.dz**2
        ar[..., -1] = br[..., -1] = 0.0
        lo, hi, _ = rows.indices(len(u1))
        j0, j1 = lo * row, hi * row
        n = j1 - j0 - (j1 == u1.size)
        alpha_flat, beta_flat = ar.reshape(-1)[:n], br.reshape(-1)[:n]
        b_flat, c_flat = b.reshape(-1)[j0 : j0 + n], c.reshape(-1)[j0:j1]
        c_flat[n:] = 0.0
        for mom, out in ((m1, out1), (m2, out2)):
            m_flat, out_flat = mom.reshape(-1), out.reshape(-1)[j0:j1]
            np.multiply(alpha_flat, m_flat[j0 + 1 : j0 + 1 + n], out=c_flat[:n])
            c_flat[:n] += np.multiply(beta_flat, m_flat[j0 : j0 + n], out=b_flat)
            out_flat -= c_flat
            out_flat[1:] += c_flat[:-1]
            if j0:
                # the flux through the top face of the cell before j0, where
                # alpha = beta = 0, formed as c forms it
                edge = np.multiply(0.0, m_flat[j0 : j0 + 1])
                edge += np.multiply(0.0, m_flat[j0 - 1 : j0])
                out_flat[:1] += edge
        if p.r > 0.0:
            cr = c[rows]
            drag = np.square(u1[rows], out=b[rows])
            drag += np.square(u2[rows], out=cr)
            np.sqrt(drag, out=drag)
            drag *= p.r  # r |u|
            for mom, out in ((m1, out1), (m2, out2)):
                o = out[rows]
                o -= np.multiply(drag, mom[rows], out=cr)

    halves(vertical)
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

    def binding(self, cfl: float) -> Tuple[float, str]:
        """The step these bounds allow at this cfl, and the field that sets it.

        The Courant caps are scaled by cfl and Heun's limits taken at
        HEUN_FRACTION; the step is the least of the four, and a tie names
        the first field.
        """
        weights = (cfl, cfl, HEUN_FRACTION, HEUN_FRACTION)
        steps = [w * b for w, b in zip(weights, self)]
        i = min(range(len(steps)), key=steps.__getitem__)
        return steps[i], self._fields[i]


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
    dt = min(step_bounds(run, p).binding(cfl)[0] for run in runs)
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
    halves: Halves = _ONE,
) -> Tuple[ModelState, Pair, np.ndarray, int]:
    """Floor xi, recover velocities from momentum, re-diagnose w.

    Takes the caller's fresh stage arrays: the velocities are divided out
    of m1 and m2 in place, and the state adopts them. Returns the state,
    its momentum density (formed once, from the floored xi; the caller may
    write to it), its mass tendency (taken with w from one divergence; the
    caller may write to it) and the number of floored cells. The mid
    stage's pair feeds its tendency; the final stage's is the new state's,
    which `dump_states` carries into the next step. A batch's floor hits
    are summed over its members. The velocities with the momentum, and
    the two passes of `diagnostic_w`, run through `halves`.
    """
    hits = int(np.count_nonzero(xi < p.xi_floor))
    if hits:
        xi = np.maximum(xi, p.xi_floor)
    xi3 = _column(xi, grid.nz)
    u1, u2 = m1, m2
    m = np.empty(u1.shape), np.empty(u2.shape)

    def velocities(rows: slice) -> None:
        u = [np.divide(mom[rows], xi3[rows], out=mom[rows]) for mom in (m1, m2)]
        momentum_density(xi3[rows], *u, (m[0][rows], m[1][rows]))

    halves(velocities)
    del xi3
    dxi = np.empty(xi.shape)
    w = diagnostic_w(grid, xi, *m, p.xi_floor, dxi, halves)
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
    halves: Halves = _ONE,
) -> Tuple[ModelState, int]:
    """Advance one SSP-RK2 (Heun) step of size dt.

    Each Euler stage floors xi, recovers u = (xi u)/xi, and re-diagnoses
    w; the final state is the usual convex combination of the first stage
    and an Euler step from it. Returns the new state and the number of
    cells floored over both stages (over all members of a batch). Raises
    NumericalError when NaN or Inf appear, naming the offending field.
    Without a `Carry` for the state, the step forms the state's momentum
    and mass tendency itself. Its column passes run through `halves`, on
    the caller's thread unless `dump_states` hands it a helper.
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
        # the tendencies, and the source's terms (added by the combination)
        dm1, dm2 = rhs_momentum(g, s, p, m, halves)
        if source is None:
            return (dxi, dm1, dm2), ()
        s_xi, (s_m1, s_m2) = source(s.t)
        return (dxi, dm1, dm2), (s_xi, s_m1, s_m2)

    # each stage state's momentum is formed once; the tendencies and the
    # stage momenta are fresh arrays, so each combination is built in them
    # in the order of xi0 + dt * dxi and 0.5 * (xi0 + xi_mid + dt * dxi);
    # each stage's mass tendency comes with its w, from one divergence
    d, forcing = tendency(state, (m1_0, m2_0), dxi)

    def euler(rows: slice) -> None:
        for i, base in enumerate((xi0, m1_0, m2_0)):
            dr = d[i][rows]
            if forcing:
                dr += forcing[i][rows]
            dr *= dt
            dr += base[rows]

    halves(euler)
    del forcing  # the source's arrays, added, go before the next stage allocates
    mid, m_mid, dxi_mid, hits_mid = _assemble(g, state.t + dt, *d, p, halves)

    d, forcing = tendency(mid, m_mid, dxi_mid)
    xi2 = xi0 + mid.xi.values
    acc = (xi2, *m_mid)

    def heun(rows: slice) -> None:
        for i, m0 in enumerate((m1_0, m2_0)):
            am = acc[i + 1][rows]
            am += m0[rows]
        for i in range(3):
            ar, dr = acc[i][rows], d[i][rows]
            if forcing:
                dr += forcing[i][rows]
            dr *= dt
            ar += dr
            ar *= 0.5

    halves(heun)
    del forcing
    new, m_new, dxi_new, hits_new = _assemble(g, state.t + dt, *acc, p, halves)
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
    return f"{message} (bound by {step_bounds(state, p).binding(cfl)[1]})"


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
    with _halves(state.grid, state.members) as halves:
        while state.t < cfg.t_end - cfg.t_tol:
            try:
                dt = cfg.dt_fixed or cfl_dt(state, p, cfg.cfl)
                first = first or dt
                if dt < COLLAPSE_FRACTION * first:
                    raise NumericalError(_collapse(state, p, cfg.cfl, dt, first))
                dt = min(dt, cfg.t_end - state.t)
                state, hits = step(state, p, dt, source, carry, halves)
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
