"""Binary dump format and diagnostics CSV."""

import math
import struct

import numpy as np
import pytest

from cpesim.grid import GridSpec
from cpesim.initial import InitialSpec, build_initial
from cpesim.io import (
    CSV_COLUMNS,
    MAGIC,
    DumpFormatError,
    read_state_dump,
    write_diagnostics_csv,
    write_state_dump,
)
from cpesim.solver import Params, SolverConfig, diagnostic_w, momentum, run, trajectory
from cpesim.states import ModelState


def _random_state(grid, seed=7):
    rng = np.random.default_rng(seed)
    xi = 1.0 + 0.4 * rng.standard_normal((grid.nx1, grid.nx2)) / 3.0
    xi = np.clip(xi, 0.3, None)
    u1 = rng.standard_normal((grid.nx1, grid.nx2, grid.nz))
    u2 = rng.standard_normal((grid.nx1, grid.nx2, grid.nz))
    w = rng.standard_normal((grid.nx1, grid.nx2, grid.nz + 1))
    w[:, :, 0] = 0.0
    w[:, :, -1] = 0.0
    return ModelState.from_values(grid, 0.25, xi, u1, u2, w)


def test_dump_round_trip_is_bitwise(tmp_path):
    g = GridSpec(6, 4, 3)
    s = _random_state(g)
    path = tmp_path / "fields.cpe"
    write_state_dump(path, s)

    dims, fields = read_state_dump(path)
    assert dims == (6, 4, 3)
    assert set(fields) == {"xi", "u1", "u2", "w"}
    assert np.array_equal(fields["xi"][:, :, 0], s.xi.values)
    assert np.array_equal(fields["u1"], s.u1.values)
    assert np.array_equal(fields["u2"], s.u2.values)
    assert np.array_equal(fields["w"], s.w.values)


def test_header_layout_unpacked_independently(tmp_path):
    # the header contract, checked against struct directly rather than the
    # reader under test
    g = GridSpec(6, 4, 3)
    path = tmp_path / "fields.cpe"
    write_state_dump(path, _random_state(g))
    blob = path.read_bytes()

    magic, nx1, nx2, nz, count = struct.unpack_from("<4sQQQQ", blob, 0)
    assert magic == b"CPE1" == MAGIC
    assert (nx1, nx2, nz, count) == (6, 4, 3, 4)
    assert blob[36:68] == b"xi".ljust(32, b"\0")
    # xi payload: nx1*nx2 doubles follow the first name record
    first = struct.unpack_from("<d", blob, 68)[0]
    assert first == _random_state(g).xi.values[0, 0]
    levels = {"xi": 1, "u1": 3, "u2": 3, "w": 4}
    expected = 36 + sum(32 + 8 * 6 * 4 * lv for lv in levels.values())
    assert len(blob) == expected


def test_field_name_fixes_vertical_extent(tmp_path):
    g = GridSpec(6, 4, 3)
    path = tmp_path / "fields.cpe"
    write_state_dump(path, _random_state(g))
    _, fields = read_state_dump(path)
    assert fields["xi"].shape == (6, 4, 1)
    assert fields["u1"].shape == (6, 4, 3)
    assert fields["u2"].shape == (6, 4, 3)
    assert fields["w"].shape == (6, 4, 4)


@pytest.fixture()
def dump_blob(tmp_path):
    path = tmp_path / "fields.cpe"
    write_state_dump(path, _random_state(GridSpec(6, 4, 3)))
    return path.read_bytes(), tmp_path


def _write(tmp_path, blob):
    p = tmp_path / "corrupt.cpe"
    p.write_bytes(blob)
    return p


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda b: b[:20], "truncated header"),
        (lambda b: b"XXXX" + b[4:], "bad magic"),
        (lambda b: b[:50], "truncated field name"),
        (lambda b: b[:100], "truncated values"),
        (lambda b: b + b"\0" * 8, "trailing bytes"),
        (lambda b: b[:36] + b"zz".ljust(32, b"\0") + b[68:], "unknown field"),
        # a format error, not a UnicodeDecodeError (a ValueError, so exit 2)
        (lambda b: b[:36] + b"x\xef".ljust(32, b"\0") + b[68:], "unknown field name 'x"),
        # a whole dump and then a second xi record: the later copy must not win
        (
            lambda b: struct.pack("<4sQQQQ", MAGIC, 6, 4, 3, 5) + b[36:] + b[36:68]
            + np.full(6 * 4, 2.0, dtype="<f8").tobytes(),
            "repeated field 'xi'",
        ),
    ],
)
def test_malformed_dumps_rejected(dump_blob, mangle, fragment):
    blob, tmp_path = dump_blob
    path = _write(tmp_path, mangle(blob))
    with pytest.raises(DumpFormatError, match=fragment):
        read_state_dump(path)


def test_build_initial_rejects_dump_grid_mismatch(dump_blob):
    blob, tmp_path = dump_blob
    path = _write(tmp_path, blob)
    with pytest.raises(DumpFormatError, match="do not match"):
        build_initial(GridSpec(8, 8, 3), InitialSpec(dump=str(path)), Params(nu=0.01))


def test_build_initial_rejects_dump_missing_field(dump_blob):
    blob, tmp_path = dump_blob
    # keep the header plus only the xi record, fixing the declared count
    header = struct.pack("<4sQQQQ", MAGIC, 6, 4, 3, 1)
    xi_record = blob[36 : 36 + 32 + 8 * 6 * 4]
    path = _write(tmp_path, header + xi_record)
    with pytest.raises(DumpFormatError, match="missing fields: u1, u2"):
        build_initial(GridSpec(6, 4, 3), InitialSpec(dump=str(path)), Params(nu=0.01))


def test_dump_seeds_xi_and_u_and_w_is_diagnosed(tmp_path):
    # a dump at rest whose interior w is 1: the file's w is not read
    g = GridSpec(16, 16, 8)
    p = Params(nu=0.01, r=0.5)
    zeros = np.zeros((16, 16, 8))
    w = np.ones((16, 16, 9))
    w[:, :, 0] = w[:, :, -1] = 0.0
    path = tmp_path / "rest.cpe"
    write_state_dump(path, ModelState.from_values(g, 0.0, np.ones((16, 16)), zeros, zeros, w))
    s = build_initial(g, InitialSpec(dump=str(path)), p)
    assert np.all(s.w.values == 0.0)
    first = next(trajectory(s, p, SolverConfig(t_end=0.01)))
    assert first.norms.sqrt_xi_w_l2 == 0.0
    assert first.norms.sqrt_xi_dzw_l2 == 0.0


def test_dump_without_w_loads(dump_blob):
    blob, tmp_path = dump_blob
    # the header plus the xi, u1 and u2 records, fixing the declared count
    header = struct.pack("<4sQQQQ", MAGIC, 6, 4, 3, 3)
    records = blob[36 : 36 + 3 * 32 + 8 * 6 * 4 * (1 + 3 + 3)]
    path = _write(tmp_path, header + records)
    g, p = GridSpec(6, 4, 3), Params(nu=0.01)
    s = build_initial(g, InitialSpec(dump=str(path)), p)
    ref = _random_state(g)
    assert np.array_equal(s.xi.values, ref.xi.values)
    assert np.array_equal(s.u2.values, ref.u2.values)
    assert np.array_equal(s.w.values, diagnostic_w(g, s.xi.values, *momentum(s), p.xi_floor))


@pytest.fixture(scope="module")
def short_run():
    g = GridSpec(8, 8, 4)
    p = Params(nu=0.01, r=0.5)
    init = build_initial(
        g, InitialSpec(profile="smooth-flow", amplitude=0.15, u_amplitude=0.25), p
    )
    return run(init, p, SolverConfig(t_end=0.02, dt_fixed=0.005))


def test_csv_header_and_shape(tmp_path, short_run):
    path = tmp_path / "diagnostics.csv"
    write_diagnostics_csv(path, short_run.snapshots)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[0] == (
        "t,dt,E,D_visc,D_fric,E_residual,B,B_residual,mass,sqrt_xi_u_l2,cbrt_xi_u_l3,"
        "sqrt_xi_dzu_l2,sqrt_xi_strain_l2,entropy_l1,grad_sqrt_xi_l2,sqrt_xi_dzw_l2,"
        "sqrt_xi_vorticity_l2,sqrt_xi_w_l2,xi_min,max_speed,floor_activations"
    )
    assert len(CSV_COLUMNS) == 21
    for line in lines[1:]:
        assert len(line.split(",")) == 21
    assert len(lines) == 1 + len(short_run.snapshots)


def test_csv_writes_are_byte_identical(tmp_path, short_run):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_diagnostics_csv(a, short_run.snapshots)
    write_diagnostics_csv(b, short_run.snapshots)
    assert a.read_bytes() == b.read_bytes()


def test_csv_floats_round_trip_exactly(tmp_path, short_run):
    path = tmp_path / "diagnostics.csv"
    write_diagnostics_csv(path, short_run.snapshots)
    lines = path.read_text().splitlines()
    cols = {name: i for i, name in enumerate(CSV_COLUMNS)}
    for line, snap in zip(lines[1:], short_run.snapshots):
        cells = line.split(",")
        # repr-based formatting restores each double bit for bit
        assert float(cells[cols["t"]]) == snap.t
        assert float(cells[cols["E"]]) == snap.energy.E
        assert float(cells[cols["mass"]]) == snap.mass
        assert int(cells[cols["floor_activations"]]) == snap.floor_activations

    last = lines[-1].split(",")
    assert last[cols["E_residual"]] == "nan"
    assert last[cols["B_residual"]] == "nan"
    assert math.isnan(float(last[cols["B_residual"]]))
    first = lines[1].split(",")
    assert first[cols["E_residual"]] != "nan"


def test_csv_state_columns_equal_the_state_values(tmp_path, short_run):
    # the writer reads the snapshot's records; they match the state bit for bit
    path = tmp_path / "diagnostics.csv"
    write_diagnostics_csv(path, short_run.snapshots)
    cols = {name: i for i, name in enumerate(CSV_COLUMNS)}
    for line, snap in zip(path.read_text().splitlines()[1:], short_run.snapshots):
        cells = line.split(",")
        assert float(cells[cols["xi_min"]]) == float(np.min(snap.state.xi.values))
        assert float(cells[cols["max_speed"]]) == snap.state.max_speed()
