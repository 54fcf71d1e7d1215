"""Config parsing, serialization round trip, and initial-data profiles."""

import numpy as np
import pytest

from cpesim.config import (
    ConfigError,
    RunConfig,
    StudySpec,
    parse_config,
    serialize_config,
)
from cpesim.grid import DEFAULT_HEIGHT, GridSpec
from cpesim.initial import InitialSpec, build_initial
from cpesim.io import write_state_dump
from cpesim.solver import Params, SolverConfig, diagnostic_w, momentum

MINIMAL = """
grid.nx1 = 8
grid.nx2 = 8
grid.nz = 4
solver.t_end = 0.5
"""


def test_minimal_config_and_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.grid == GridSpec(8, 8, 4)
    assert cfg.grid.h == DEFAULT_HEIGHT
    assert cfg.params.nu == 0.01
    assert cfg.params.r == 0.0
    assert cfg.params.kappa == 1.0
    assert cfg.params.xi_floor == 1e-10
    assert cfg.solver.t_end == 0.5
    assert cfg.solver.cfl == 0.4
    assert cfg.solver.dump_every == 1
    assert cfg.solver.dt_fixed is None
    assert cfg.initial.profile == "rest"
    assert cfg.study.count == 5
    assert cfg.output.dir == "out"


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\ngrid.nx1 = 8  # trailing\ngrid.nx2 = 8\ngrid.nz = 4\nsolver.t_end = 1.0\n"
    cfg = parse_config(text)
    assert cfg.grid.nx1 == 8
    assert cfg.solver.t_end == 1.0


def test_serialize_round_trip():
    cfg = parse_config(
        MINIMAL
        + "params.nu = 0.003\nparams.r = 1.5\nsolver.dt_fixed = 0.0025\n"
        + "initial.profile = smooth-flow\ninitial.amplitude = 0.2\n"
        + "initial.u_amplitude = 0.3\ninitial.k2 = 2\noutput.dir = scratch\n"
    )
    again = parse_config(serialize_config(cfg))
    assert again == cfg


def test_round_trip_without_optional_keys():
    cfg = parse_config(MINIMAL)
    assert parse_config(serialize_config(cfg)) == cfg


@pytest.mark.parametrize(
    "text, lineno, fragment",
    [
        ("grid.nx1 = 8\nbogus line\n", 2, "expected"),
        ("grid.nx1 = 8\ngrid.nx1 = 16\n", 2, "duplicate"),
        ("grid.typo = 8\n", 1, "unknown key"),
        ("grid.nx1 = eight\n", 1, "expected an integer"),
        ("solver.t_end = soon\n", 1, "expected a number"),
        ("grid.nx1 =\n", 1, "expected"),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno, fragment):
    with pytest.raises(ConfigError, match=fragment) as exc:
        parse_config(text)
    assert exc.value.line == lineno
    assert f"line {lineno}:" in str(exc.value)


def test_missing_required_keys_listed():
    with pytest.raises(ConfigError, match="grid.nz"):
        parse_config("grid.nx1 = 8\ngrid.nx2 = 8\nsolver.t_end = 1.0\n")
    with pytest.raises(ConfigError, match="solver.t_end"):
        parse_config("grid.nx1 = 8\ngrid.nx2 = 8\ngrid.nz = 4\n")


def test_overrides_replace_file_values():
    cfg = parse_config(MINIMAL, overrides={"params.nu": "0.05", "grid.nz": "6"})
    assert cfg.params.nu == 0.05
    assert cfg.grid.nz == 6


def test_override_unknown_key_rejected_without_line():
    with pytest.raises(ConfigError, match="unknown key") as exc:
        parse_config(MINIMAL, overrides={"params.typo": "1"})
    assert exc.value.line is None


def test_dataclass_validation_wrapped_as_config_error():
    # odd horizontal extent is rejected by GridSpec, surfaced as ConfigError
    with pytest.raises(ConfigError, match="even"):
        parse_config("grid.nx1 = 7\ngrid.nx2 = 8\ngrid.nz = 4\nsolver.t_end = 1.0\n")
    with pytest.raises(ConfigError, match="profile"):
        parse_config(MINIMAL + "initial.profile = vortex\n")


def test_study_spec_validation():
    with pytest.raises(ValueError, match="count"):
        StudySpec(count=1)
    with pytest.raises(ValueError, match="amplitude"):
        StudySpec(base_amplitude=0.0)


def test_initial_spec_validation():
    with pytest.raises(ValueError, match="amplitude"):
        InitialSpec(amplitude=1.0)
    with pytest.raises(ValueError, match="k1"):
        InitialSpec(k1=0)
    with pytest.raises(ValueError, match="u_amplitude"):
        InitialSpec(u_amplitude=float("nan"))


def test_rest_profile_is_quiescent():
    g = GridSpec(8, 8, 4)
    s = build_initial(g, InitialSpec(), Params(nu=0.01))
    assert np.all(s.xi.values == 1.0)
    assert np.all(s.u1.values == 0.0)
    assert np.all(s.u2.values == 0.0)
    assert np.all(s.w.values == 0.0)


def test_density_wave_profile_matches_formula():
    g = GridSpec(8, 8, 4)
    spec = InitialSpec(profile="density-wave", amplitude=0.25, k1=2, k2=1)
    s = build_initial(g, spec, Params(nu=0.01))
    x1, x2 = g.meshgrid_2d()
    expected = 1.0 + 0.25 * np.sin(4.0 * np.pi * x1) * np.cos(2.0 * np.pi * x2)
    assert np.array_equal(s.xi.values, expected)
    assert np.all(s.u1.values == 0.0)


def test_smooth_flow_profile_satisfies_compatibility():
    g = GridSpec(8, 8, 4)
    p = Params(nu=0.01)
    spec = InitialSpec(profile="smooth-flow", amplitude=0.15, u_amplitude=0.25)
    s = build_initial(g, spec, p)
    assert np.max(np.abs(s.u1.values)) > 0.0
    w = diagnostic_w(g, s.xi.values, *momentum(s), p.xi_floor)
    assert np.array_equal(s.w.values, w)


def test_builder_loads_a_dump(tmp_path):
    # a dump overrides the profile; re-diagnosing w reproduces the saved state
    g = GridSpec(8, 8, 4)
    p = Params(nu=0.01)
    spec = InitialSpec(profile="smooth-flow", amplitude=0.15, u_amplitude=0.25)
    saved = build_initial(g, spec, p)
    path = tmp_path / "fields.cpe"
    write_state_dump(path, saved)
    s = build_initial(g, InitialSpec(dump=str(path)), p)
    assert s.t == 0.0
    for name in ("xi", "u1", "u2", "w"):
        assert np.array_equal(getattr(s, name).values, getattr(saved, name).values)
