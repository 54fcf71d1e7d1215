"""Independent output checks for the benchmark workloads.

Every checker takes a workload's output and returns one list of failure
messages per operation (an empty list means the operation passed). None of
them compares against a stored copy of earlier output: each check is a
property the model must have (mass conservation, energy decay, second-order
convergence, linear response) or a recomputation from the raw fields with
formulas written here, not taken from `cpesim`.

The field-dump reader follows the documented `CPE1` layout: magic `CPE1`,
four little-endian u64 `nx1, nx2, nz, field_count`, then per field a 32-byte
zero-padded ASCII name and little-endian f64 values in x1-major order. `xi`
has 1 level, `u1` and `u2` have `nz`, `w` has `nz + 1`.
"""

from __future__ import annotations

import csv
import math
import struct
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

CSV_COLUMN_COUNT = 21
MASS_RTOL = 1e-12
DUMP_RTOL = 1e-12
W_TOP_RTOL = 1e-13
ORDER_RANGE = (1.8, 2.2)
RATIO_RANGE = (1.8, 2.2)

_HEADER = struct.Struct("<4sQQQQ")
_NAME_BYTES = 32


def read_cpe1(path: Path) -> Dict[str, np.ndarray]:
    """Read a `CPE1` field dump into name -> (nx1, nx2, levels) arrays."""
    blob = Path(path).read_bytes()
    magic, nx1, nx2, nz, count = _HEADER.unpack_from(blob, 0)
    if magic != b"CPE1":
        raise ValueError(f"{path}: bad magic {magic!r}")
    levels = {"xi": 1, "u1": nz, "u2": nz, "w": nz + 1}
    offset = _HEADER.size
    fields = {}
    for _ in range(count):
        name = blob[offset : offset + _NAME_BYTES].rstrip(b"\0").decode("ascii")
        offset += _NAME_BYTES
        n = nx1 * nx2 * levels[name]
        values = np.frombuffer(blob, dtype="<f8", count=n, offset=offset)
        fields[name] = values.reshape(nx1, nx2, levels[name])
        offset += 8 * n
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes")
    return fields


def read_csv(path: Path) -> List[List[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def dump_mass_energy(
    fields: Dict[str, np.ndarray], lx1: float, lx2: float, h: float, kappa: float
) -> tuple:
    """Mass h dA sum(xi) and energy of kinetic plus kappa (xi ln xi - xi + 1)."""
    xi = fields["xi"][:, :, 0]
    u1 = fields["u1"]
    u2 = fields["u2"]
    nx1, nx2, nz = u1.shape
    d_area = (lx1 / nx1) * (lx2 / nx2)
    dz = h / nz
    mass = h * d_area * float(np.sum(xi))
    kinetic = 0.5 * float(np.sum(xi[:, :, None] * (u1 * u1 + u2 * u2))) * d_area * dz
    potential = kappa * float(np.sum(xi * np.log(xi) - xi + 1.0)) * d_area * h
    return mass, kinetic + potential


def check_simulate(
    exit_code: int, outdir: Path, lx1: float, lx2: float, h: float, kappa: float
) -> List[List[str]]:
    """Checks of one `simulate` run; returns the failures of its one operation."""
    fails: List[str] = []
    if exit_code != 0:
        return [[f"exit code {exit_code}"]]
    rows = read_csv(outdir / "diagnostics.csv")
    header, body = rows[0], rows[1:]
    if len(header) != CSV_COLUMN_COUNT or any(len(r) != CSV_COLUMN_COUNT for r in body):
        fails.append(f"CSV rows do not all have {CSV_COLUMN_COUNT} columns")
        return [fails]
    dumps = sorted(outdir.glob("fields_*.cpe"))
    if len(dumps) != len(body) or not body:
        fails.append(f"{len(dumps)} dumps for {len(body)} CSV rows")
        return [fails]
    col = {name: i for i, name in enumerate(header)}
    mass = [float(r[col["mass"]]) for r in body]
    energy = [float(r[col["E"]]) for r in body]
    xi_min = [float(r[col["xi_min"]]) for r in body]
    drift = max(_rel(m, mass[0]) for m in mass)
    if drift > MASS_RTOL:
        fails.append(f"relative mass drift {drift:.3e} > {MASS_RTOL:g}")
    rises = [i for i, (a, b) in enumerate(zip(energy, energy[1:])) if b > a]
    if rises:
        fails.append(f"E increases after rows {rises[:5]}")
    if min(xi_min) <= 0.0:
        fails.append(f"xi_min reaches {min(xi_min)!r}")

    fields = read_cpe1(dumps[-1])
    dump_mass, dump_energy = dump_mass_energy(fields, lx1, lx2, h, kappa)
    for name, ours, theirs in (("mass", dump_mass, mass[-1]), ("E", dump_energy, energy[-1])):
        if _rel(ours, theirs) > DUMP_RTOL:
            fails.append(f"final dump {name} {ours!r} != CSV {theirs!r}")
    w = fields["w"]
    if np.any(w[:, :, 0] != 0.0):
        fails.append("w is not exactly 0 on the bottom face")
    umax = max(float(np.max(np.abs(fields["u1"]))), float(np.max(np.abs(fields["u2"]))))
    wtop = float(np.max(np.abs(w[:, :, -1])))
    if wtop > W_TOP_RTOL * umax:
        fails.append(f"|w_top| {wtop:.3e} > {W_TOP_RTOL:g} max|u| ({umax:.3e})")
    return [fails]


def check_mms(report, base_cells: Sequence[int]) -> List[List[str]]:
    """One operation per grid level: errors fall and orders lie in range."""
    out = []
    lo, hi = ORDER_RANGE
    for k, lvl in enumerate(report.levels):
        fails = []
        g = lvl.grid
        expect = tuple(n * 2**k for n in base_cells)
        if (g.nx1, g.nx2, g.nz) != expect:
            fails.append(f"level {k} grid {(g.nx1, g.nx2, g.nz)} != {expect}")
        if not (lvl.steps > 0):
            fails.append(f"level {k} took {lvl.steps} steps")
        for name in ("err_xi", "err_u"):
            err = getattr(lvl, name)
            if not (math.isfinite(err) and err > 0.0):
                fails.append(f"level {k} {name} = {err!r}")
            elif k and not err < getattr(report.levels[k - 1], name):
                fails.append(f"level {k} {name} did not fall")
        if k:
            for name in ("orders_xi", "orders_u"):
                order = getattr(report, name)[k - 1]
                if not lo <= order <= hi:
                    fails.append(f"{name}[{k - 1}] = {order:.3f} outside [{lo}, {hi}]")
        out.append(fails)
    return out


def snapshot_masses(result) -> List[float]:
    """Plan mass h dA sum(xi) at each snapshot of a solver run."""
    g = result.grid
    d_area = (g.lx1 / g.nx1) * (g.lx2 / g.nx2)
    return [g.h * d_area * float(np.sum(s.state.xi.values)) for s in result.snapshots]


def mass_drift(masses: Sequence[float]) -> float:
    return max(_rel(m, masses[0]) for m in masses)


def check_study(table, amplitudes: Sequence[float], trajectory_masses) -> List[List[str]]:
    """One operation per trajectory: the reference run, then each row.

    `trajectory_masses` holds, per trajectory in the same order, the plan
    masses h dA sum(xi) at its snapshots.
    """
    lo, hi = RATIO_RANGE
    ref = []
    if not (table.dt > 0.0):
        ref.append(f"shared dt {table.dt!r}")
    out = [ref]
    if len(table.rows) != len(amplitudes):
        ref.append(f"{len(table.rows)} rows for {len(amplitudes)} amplitudes")
        return out
    for k, row in enumerate(table.rows):
        fails = []
        if row.amplitude != amplitudes[k]:
            fails.append(f"row {k} amplitude {row.amplitude!r}")
        if not row.monotone:
            fails.append(f"row {k} is flagged non-monotone")
        if k:
            prev = table.rows[k - 1]
            for name in ("xi_sup_l32", "velocity_l2_l32", "momentum_l1_l1"):
                ratio = getattr(prev, name) / getattr(row, name)
                if not lo <= ratio <= hi:
                    fails.append(f"row {k} {name} ratio {ratio:.3f} outside [{lo}, {hi}]")
        out.append(fails)
    for fails, masses in zip(out, trajectory_masses):
        drift = mass_drift(masses)
        if drift > MASS_RTOL:
            fails.append(f"trajectory mass drift {drift:.3e} > {MASS_RTOL:g}")
    return out
