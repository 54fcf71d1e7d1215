"""End-to-end CLI behavior through subprocesses: outputs and exit codes."""

import subprocess
import sys
import weakref

import numpy as np
import pytest

from cpesim import solver
from cpesim.cli import main
from cpesim.grid import GridSpec
from cpesim.io import read_state_dump, write_state_dump
from cpesim.states import ModelState, model_to_physical
from cpesim.verify import stability_study

BASE = """
grid.nx1 = 8
grid.nx2 = 8
grid.nz = 4
params.nu = 0.01
params.r = 0.5
solver.t_end = 0.02
solver.dt_fixed = 0.005
initial.profile = smooth-flow
initial.amplitude = 0.15
initial.u_amplitude = 0.25
"""

BLOWUP = """
grid.nx1 = 8
grid.nx2 = 8
grid.nz = 4
params.nu = 0.05
solver.t_end = 50.0
solver.dt_fixed = 5.0
initial.profile = smooth-flow
initial.amplitude = 0.15
initial.u_amplitude = 0.25
"""


@pytest.fixture()
def cli(cli_env):
    def run(*argv, cwd):
        return subprocess.run(
            [sys.executable, "-m", "cpesim.cli", *argv],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=cli_env,
        )

    return run


@pytest.fixture()
def base_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE)
    return path


def test_simulate_writes_outputs(cli, tmp_path, base_config):
    proc = cli("simulate", "--config", str(base_config), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "simulate: t = 0.02" in proc.stdout
    assert "outputs in out" in proc.stdout

    csv = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    assert csv[0].startswith("t,dt,E,")
    assert len(csv) == 1 + 5  # initial snapshot + 4 steps at dump_every 1

    dims, fields = read_state_dump(tmp_path / "out" / "fields_000000.cpe")
    assert dims == (8, 8, 4)
    assert set(fields) == {"xi", "u1", "u2", "w"}
    assert (tmp_path / "out" / "fields_000004.cpe").exists()


def test_override_flags_both_forms(cli, tmp_path, base_config):
    proc = cli(
        "simulate",
        "--config",
        str(base_config),
        "--grid.nz=6",
        "--output.dir",
        "alt",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    dims, _ = read_state_dump(tmp_path / "alt" / "fields_000000.cpe")
    assert dims == (8, 8, 6)


def test_config_errors_exit_2(cli, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("grid.typo = 8\n")
    proc = cli("simulate", "--config", str(bad), cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "error: config: line 1: unknown key" in proc.stderr

    proc = cli("simulate", "--config", str(tmp_path / "absent.cfg"), cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "cannot read config" in proc.stderr

    proc = cli("simulate", "stray", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "unexpected argument" in proc.stderr


def test_numerical_failure_exits_3_with_partial_outputs(cli, tmp_path):
    cfg = tmp_path / "blowup.cfg"
    cfg.write_text(BLOWUP)
    proc = cli("simulate", "--config", str(cfg), cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert "numerical failure" in proc.stderr
    # diagnostics collected before the failure are preserved
    csv = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    assert len(csv) > 1
    assert (tmp_path / "out" / "fields_000000.cpe").exists()


@pytest.mark.parametrize("command", ["simulate", "transform-check"])
def test_numerical_failure_reports_one_error_line(cli, tmp_path, command):
    # the overflow on the way to the failure raises no numpy warnings; the
    # rejected state is reported once, last
    cfg = tmp_path / "blowup.cfg"
    cfg.write_text(BLOWUP)
    proc = cli(command, "--config", str(cfg), cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert lines[-1] == "error: numerical failure: step 3: non-finite u1 at t = 15"


def test_invalid_state_mid_run_exits_3_with_partial_outputs(tmp_path, monkeypatch, capsys):
    # the fifth stage (first stage of step 3) diagnoses a w whose top face
    # fails the state check; steps 1 and 2 completed and must be written
    real = solver.diagnostic_w
    stages = []

    def spoiled(*args):
        w = real(*args)
        stages.append(None)
        if len(stages) == 5:
            w[:, :, -1] = 1.0
        return w

    monkeypatch.setattr(solver, "diagnostic_w", spoiled)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE)
    code = main(["simulate", "--config", str(cfg), f"--output.dir={tmp_path / 'out'}"])
    err = capsys.readouterr().err
    assert code == 3, err
    assert "error: numerical failure: step 3:" in err
    assert "must vanish on the column boundary faces" in err
    csv = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    assert len(csv) == 1 + 3  # initial snapshot + steps 1 and 2
    assert (tmp_path / "out" / "fields_000002.cpe").exists()
    assert not (tmp_path / "out" / "fields_000003.cpe").exists()


def test_simulate_holds_a_bounded_number_of_states(tmp_path, base_config, monkeypatch):
    # each dump is written while the run goes on, so only the states around
    # the snapshot being written are alive; holding the run would keep all 21
    written, live = [], []

    def spy(path, state):
        written.append(weakref.ref(state))
        live.append(sum(ref() is not None for ref in written))
        write_state_dump(path, state)

    monkeypatch.setattr("cpesim.cli.write_state_dump", spy)
    argv = ["simulate", "--config", str(base_config), "--solver.t_end=0.1"]
    assert main([*argv, f"--output.dir={tmp_path / 'out'}"]) == 0
    assert len(live) == 21  # 20 steps of dt_fixed = 0.005
    assert max(live) <= 4


def test_transform_check_holds_a_bounded_number_of_states(base_config, monkeypatch, capsys):
    # the check maps each state as the run streams it and keeps a window
    # of three physical states; holding the run would keep all 21
    mapped, live = [], []

    def spy(state):
        phys = model_to_physical(state)
        mapped.extend((weakref.ref(state), weakref.ref(phys)))
        live.append(sum(ref() is not None for ref in mapped[0::2]))
        live.append(sum(ref() is not None for ref in mapped[1::2]))
        return phys

    monkeypatch.setattr("cpesim.verify.model_to_physical", spy)
    argv = ["transform-check", "--config", str(base_config), "--solver.t_end=0.1"]
    assert main(argv) == 0
    assert "snapshots checked:        21" in capsys.readouterr().out
    assert len(live) == 2 * 21
    assert max(live) <= 4


def test_setup_value_errors_exit_2(tmp_path, base_config, capsys):
    # bad inputs found while building a run's inputs stay config errors
    for argv in (
        ["study", "--config", str(base_config), "--study.base_amplitude=4.0"],
        ["mms", "--config", str(base_config), "--levels", "1"],
        ["mms", "--config", str(base_config), "--solver.t_end=0"],
        ["study", "--config", str(base_config), "--solver.t_end=0"],
        ["transform-check", "--config", str(base_config), "--grid.nz=2"],
    ):
        assert main(argv) == 2, argv
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: config:"), argv


def test_dump_io_failures_exit_4(cli, tmp_path, base_config):
    proc = cli(
        "simulate",
        "--config",
        str(base_config),
        "--initial.dump=missing.cpe",
        cwd=tmp_path,
    )
    assert proc.returncode == 4, proc.stderr
    assert "error: i/o:" in proc.stderr

    junk = tmp_path / "junk.cpe"
    junk.write_bytes(b"XXXX" + bytes(64))
    proc = cli(
        "simulate",
        "--config",
        str(base_config),
        f"--initial.dump={junk}",
        cwd=tmp_path,
    )
    assert proc.returncode == 4, proc.stderr
    assert "bad magic" in proc.stderr


def _rest_dump(path, patch_at, patch):
    # a valid 8x8x4 dump at rest, then `patch` written over bytes from `patch_at`
    g = GridSpec(8, 8, 4)
    zeros = np.zeros((8, 8, 4))
    write_state_dump(
        path, ModelState.from_values(g, 0.0, np.ones((8, 8)), zeros, zeros, np.zeros((8, 8, 5)))
    )
    blob = bytearray(path.read_bytes())
    blob[patch_at : patch_at + len(patch)] = patch
    path.write_bytes(bytes(blob))
    return path


def test_dump_with_non_ascii_field_name_exits_4(tmp_path, base_config, capsys):
    # the xi record's name (bytes 36..67) becomes "x\xef"
    dump = _rest_dump(tmp_path / "latin.cpe", 36, "xï".encode("latin-1"))
    argv = ["simulate", "--config", str(base_config), f"--initial.dump={dump}"]
    assert main(argv + [f"--output.dir={tmp_path / 'out'}"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: i/o: unknown field name"), err
    assert not (tmp_path / "out").exists()


def test_dump_failing_validation_names_the_dump(tmp_path, base_config, capsys):
    # the first xi value (bytes 68..75) becomes -1
    dump = _rest_dump(tmp_path / "neg_xi.cpe", 68, np.float64(-1.0).astype("<f8").tobytes())
    argv = ["simulate", "--config", str(base_config), f"--initial.dump={dump}"]
    assert main(argv + [f"--output.dir={tmp_path / 'out'}"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: config: initial.dump {dump}: xi must be strictly positive\n"
    assert not (tmp_path / "out").exists()


def test_simulate_from_dump_round_trip(cli, tmp_path, base_config):
    first = cli("simulate", "--config", str(base_config), cwd=tmp_path)
    assert first.returncode == 0, first.stderr
    dump = tmp_path / "out" / "fields_000004.cpe"
    proc = cli(
        "simulate",
        "--config",
        str(base_config),
        f"--initial.dump={dump}",
        "--output.dir=resumed",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    # the resumed run starts from the dumped state: its w is diagnosed anew
    # and reproduces the source's, so every state column matches step 4
    header, *source = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    resumed = (tmp_path / "resumed" / "diagnostics.csv").read_text().splitlines()
    assert resumed[0] == header
    # the clock restarts at 0, and step 4 ends the source run (NaN residuals)
    differ = {"t", "dt", "E_residual", "B_residual"}
    for name, a, b in zip(header.split(","), source[4].split(","), resumed[1].split(",")):
        if name not in differ:
            assert a == b, name


def test_simulate_warns_when_xi_is_floored(cli, tmp_path, base_config):
    # one cell starts below the positivity floor, so the first stage floors it
    g = GridSpec(8, 8, 4)
    xi = np.ones((8, 8))
    xi[3, 5] = 1e-12
    zeros = np.zeros((8, 8, 4))
    dump = tmp_path / "thin.cpe"
    write_state_dump(
        dump, ModelState.from_values(g, 0.0, xi, zeros, zeros, np.zeros((8, 8, 5)))
    )
    proc = cli(
        "simulate", "--config", str(base_config), f"--initial.dump={dump}", cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert "warning: vacuum contact (xi at floor) occurred" in proc.stderr
    rows = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    assert rows[-1].split(",")[-1] != "0"


def test_simulate_without_floor_hits_does_not_warn(cli, tmp_path, base_config):
    proc = cli("simulate", "--config", str(base_config), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "vacuum contact" not in proc.stderr


def test_scale_audit_reduced_terms(cli, tmp_path):
    proc = cli("scale-audit", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "reduced system (11 terms):" in proc.stdout
    assert "mass.time-derivative" in proc.stdout
    assert "vertical-momentum.pressure-gradient" in proc.stdout
    assert "kept" in proc.stdout and "dropped" in proc.stdout


def test_scale_audit_no_regime(cli, tmp_path):
    proc = cli("scale-audit", "--no-regime", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "regime not applied; reduction refused by construction" in proc.stdout
    assert "reduced system" not in proc.stdout


def test_mms_subcommand_reports_orders(cli, tmp_path, base_config):
    proc = cli(
        "mms",
        "--config",
        str(base_config),
        "--levels",
        "2",
        "--solver.t_end=0.005",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "observed order (level 0 -> 1):" in proc.stdout


def test_study_subcommand(cli, tmp_path, base_config):
    proc = cli(
        "study",
        "--config",
        str(base_config),
        "--study.count=2",
        "--study.base_amplitude=0.2",
        "--solver.t_end=0.01",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "shared dt = 5.000000e-03" in proc.stdout
    assert proc.stdout.count("yes") >= 1


def test_study_perturbs_with_the_configured_floor(base_config, monkeypatch, capsys):
    # the largest perturbation takes some cells below a floor of 0.5, where
    # the floor enters w: each perturbed state must carry the w the solver
    # itself diagnoses at the configured floor
    seen = []

    def spy(reference, perturbed, *rest):
        seen.extend(perturbed)
        return stability_study(reference, perturbed, *rest)

    monkeypatch.setattr("cpesim.cli.stability_study", spy)
    argv = [
        "study",
        "--config",
        str(base_config),
        "--grid.nx1=16",
        "--grid.nx2=16",
        "--initial.amplitude=0.1",
        "--params.xi_floor=0.5",
        "--study.count=2",
        "--study.base_amplitude=1.0",
    ]
    assert main(argv) == 0
    assert len(seen) == 2
    assert np.count_nonzero(seen[0].xi.values < 0.5) > 0
    for s in seen:
        want = solver.diagnostic_w(s.grid, s.xi.values, *solver.momentum(s), 0.5)
        assert np.array_equal(s.w.values, want)


def test_transform_check_subcommand(cli, tmp_path, base_config):
    proc = cli(
        "transform-check",
        "--config",
        str(base_config),
        "--solver.t_end=0.01",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "stratification residual:" in proc.stdout
    assert "hydrostatic residual:" in proc.stdout
    assert "mass-equation residual:" in proc.stdout

    strat = float(proc.stdout.split("stratification residual:")[1].split()[0])
    assert strat <= 1e-12


def test_determinism_of_diagnostics(cli, tmp_path, base_config):
    a = cli("simulate", "--config", str(base_config), "--output.dir=a", cwd=tmp_path)
    b = cli("simulate", "--config", str(base_config), "--output.dir=b", cwd=tmp_path)
    assert a.returncode == 0 and b.returncode == 0, a.stderr + b.stderr
    bytes_a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
    assert bytes_a == bytes_b
    assert np.frombuffer(
        (tmp_path / "a" / "fields_000004.cpe").read_bytes()[36:], dtype=np.uint8
    ).size > 0


def test_cli_import_leaves_sympy_unloaded(cli_env, tmp_path):
    # sympy is needed only to derive a manufactured solution; importing the
    # entry point for simulate or study must not pay for it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cpesim.cli; print('sympy' in sys.modules)"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=cli_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
