"""On-disk formats: binary field dumps and the diagnostics CSV.

Dump layout: magic "CPE1", then four little-endian u64 (nx1, nx2, nz,
field count), then per field a 32-byte zero-padded ASCII name followed by
the values as little-endian f64 in x1-major order (x1 slowest, then x2,
then the vertical index). The field name fixes the vertical extent: xi is
a plan field, u1 and u2 carry nz levels, w carries nz+1 faces.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, Tuple, Union

import numpy as np

from .diagnostics import NormReport
from .states import ModelState

if TYPE_CHECKING:
    from .solver import Snapshot

MAGIC = b"CPE1"
_NAME_BYTES = 32
_HEADER = struct.Struct("<4sQQQQ")


class DumpFormatError(Exception):
    """Raised when a dump file does not match the format."""


def _field_levels(name: str, nz: int) -> int:
    levels = {"xi": 1, "u1": nz, "u2": nz, "w": nz + 1}
    if name not in levels:
        raise DumpFormatError(f"unknown field name {name!r}")
    return levels[name]


def write_state_dump(path: Union[str, Path], state: ModelState) -> None:
    """Write the state fields in the fixed order xi, u1, u2, w."""
    state.require_single("write_state_dump")
    g = state.grid
    fields = (
        ("xi", state.xi.values[:, :, None]),
        ("u1", state.u1.values),
        ("u2", state.u2.values),
        ("w", state.w.values),
    )
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, g.nx1, g.nx2, g.nz, len(fields)))
        for name, values in fields:
            fh.write(name.encode("ascii").ljust(_NAME_BYTES, b"\0"))
            fh.write(np.ascontiguousarray(values, dtype="<f8"))


def read_state_dump(path: Union[str, Path]) -> Tuple[Tuple[int, int, int], Dict[str, np.ndarray]]:
    """Read a dump back into (dims, name -> array)."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise DumpFormatError("truncated header")
    magic, nx1, nx2, nz, count = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise DumpFormatError(f"bad magic {magic!r}")
    offset = _HEADER.size
    fields: Dict[str, np.ndarray] = {}
    for _ in range(count):
        if len(blob) < offset + _NAME_BYTES:
            raise DumpFormatError("truncated field name")
        # a non-ASCII byte decodes to U+FFFD, which no field name holds
        name = blob[offset : offset + _NAME_BYTES].rstrip(b"\0").decode("ascii", "replace")
        offset += _NAME_BYTES
        if name in fields:
            raise DumpFormatError(f"repeated field {name!r}")
        levels = _field_levels(name, nz)
        n = nx1 * nx2 * levels
        if len(blob) < offset + 8 * n:
            raise DumpFormatError(f"truncated values for field {name!r}")
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=offset)
        fields[name] = arr.reshape(nx1, nx2, levels).astype(float)
        offset += 8 * n
    if offset != len(blob):
        raise DumpFormatError("trailing bytes after the last field")
    return (int(nx1), int(nx2), int(nz)), fields


# the norm columns are the report's own ORDER, the order of `as_tuple`
CSV_COLUMNS = (
    ("t", "dt", "E", "D_visc", "D_fric", "E_residual", "B", "B_residual", "mass")
    + NormReport.ORDER
    + ("xi_min", "max_speed", "floor_activations")
)


def _fmt(x) -> str:
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def write_diagnostics_csv(path: Union[str, Path], snapshots: Iterable["Snapshot"]) -> None:
    """Write one row per snapshot as it arrives; byte-deterministic for a given run.

    No snapshot is held past its row, so a stream's next one is taken
    without it.
    """
    with open(path, "w", buffering=1) as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for snap in snapshots:
            e = snap.energy
            b = snap.entropy
            row = (
                [snap.t, snap.dt, e.E, e.D_visc, e.D_fric, e.balance_residual]
                + [b.B, b.balance_residual, snap.mass]
                + list(snap.norms.as_tuple())
                + [snap.xi_min, snap.norms.max_speed, snap.floor_activations]
            )
            del snap, e, b
            fh.write(",".join(_fmt(v) for v in row) + "\n")
