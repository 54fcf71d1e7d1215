"""Command line entry points.

Every run-oriented subcommand takes `--config PATH` plus one
`--section.key VALUE` flag per configuration key (`config.KEYS`); a value
that begins with `-` takes the `--section.key=VALUE` form. Exit codes: 0
success, 2 configuration error or malformed command line, 3 numerical
failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import List, NamedTuple, Optional

from .config import KEYS, ConfigError, RunConfig, parse_config
from .initial import build_initial
from .io import DumpFormatError, write_diagnostics_csv, write_state_dump
from .scaling import audit_table, reduce_system, scale_terms
from .solver import NumericalError, dump_states, trajectory
from .states import y_levels
from .verify import (
    mms_convergence,
    perturbed_density,
    stability_study,
    transform_check,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


@contextmanager
def _setup_stage():
    """Report a ValueError raised while building a run's inputs as a config error.

    Errors raised once a run has started are not config errors: the solver
    reports a state that fails validation as a NumericalError.
    """
    try:
        yield
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _load_config(args) -> RunConfig:
    given = vars(args)
    overrides = {key: given[key] for key in KEYS if given[key] is not None}
    text = ""
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as err:
            raise ConfigError(f"cannot read config {args.config}: {err}")
    return parse_config(text, overrides)


class _Last(NamedTuple):
    """The figures `simulate` reports of its last snapshot."""

    t: float
    steps: int
    E: float
    mass: float
    floor_activations: int


def _write_outputs(cfg: RunConfig, stream) -> _Last:
    """Write each snapshot's dump and CSV row as it arrives; report the last.

    No snapshot is held past its row: only the last one's reported figures
    are kept.
    """
    outdir = Path(cfg.output.dir)
    outdir.mkdir(parents=True, exist_ok=True)
    last = None

    def dumped():
        nonlocal last
        for snap in stream:
            write_state_dump(outdir / f"fields_{snap.step_index:06d}.cpe", snap.state)
            last = _Last(
                snap.t, snap.step_index, snap.energy.E, snap.mass, snap.floor_activations
            )
            yield snap
            del snap

    write_diagnostics_csv(outdir / "diagnostics.csv", dumped())
    return last


def _cmd_simulate(args) -> int:
    with _setup_stage():
        cfg = _load_config(args)
        # built inline, so the stream is the initial state's only holder
        stream = trajectory(
            build_initial(cfg.grid, cfg.initial, cfg.params), cfg.params, cfg.solver
        )
    last = _write_outputs(cfg, stream)
    print(
        f"simulate: t = {last.t:.6g} in {last.steps} steps, "
        f"E = {last.E:.6g}, mass = {last.mass:.12g}, "
        f"outputs in {Path(cfg.output.dir)}"
    )
    if last.floor_activations > 0:
        print("warning: vacuum contact (xi at floor) occurred", file=sys.stderr)
    return EXIT_OK


def _cmd_mms(args) -> int:
    with _setup_stage():
        cfg = _load_config(args)
        if args.levels < 2:
            raise ConfigError(f"--levels must be at least 2, got {args.levels}")
        if cfg.solver.t_end <= cfg.solver.t_tol:
            raise ConfigError(f"solver.t_end = {cfg.solver.t_end} takes no step")
    report = mms_convergence(
        cfg.grid,
        cfg.params,
        t_end=cfg.solver.t_end,
        levels=args.levels,
        cfl=cfg.solver.cfl,
    )
    print("grid                 err_xi        err_u        steps")
    for lvl in report.levels:
        g = lvl.grid
        print(
            f"{g.nx1}x{g.nx2}x{g.nz:<10d} {lvl.err_xi:.6e} {lvl.err_u:.6e} {lvl.steps}"
        )
    for i, (oxi, ou) in enumerate(zip(report.orders_xi, report.orders_u)):
        print(f"observed order (level {i} -> {i + 1}): xi {oxi:.3f}, u {ou:.3f}")
    return EXIT_OK


def _cmd_study(args) -> int:
    with _setup_stage():
        cfg = _load_config(args)
        if cfg.solver.t_end <= cfg.solver.t_tol:
            raise ConfigError(f"solver.t_end = {cfg.solver.t_end} takes no step")
        reference = build_initial(cfg.grid, cfg.initial, cfg.params)
        amplitudes = [
            cfg.study.base_amplitude * 2.0 ** (-n)
            for n in range(1, cfg.study.count + 1)
        ]
        perturbed = [
            perturbed_density(reference, a, xi_floor=cfg.params.xi_floor)
            for a in amplitudes
        ]
    table = stability_study(reference, perturbed, amplitudes, cfg.params, cfg.solver)
    print(f"shared dt = {table.dt:.6e}")
    print("amplitude     sup_t |dxi|_3/2   l2_t |d(sqrt(xi)u)|_3/2   l1_t |d(xi u)|_1   monotone")
    for row in table.rows:
        print(
            f"{row.amplitude:.6e}  {row.xi_sup_l32:.6e}     {row.velocity_l2_l32:.6e}"
            f"          {row.momentum_l1_l1:.6e}    {'yes' if row.monotone else 'NO'}"
        )
    bad = table.non_monotone_rows()
    if bad:
        print(f"warning: non-monotone rows: {bad}", file=sys.stderr)
    return EXIT_OK


def _cmd_scale_audit(args) -> int:
    terms = scale_terms(apply_regime=not args.no_regime)
    print(audit_table(terms))
    if args.no_regime:
        print("regime not applied; reduction refused by construction")
        return EXIT_OK
    kept = reduce_system(terms)
    print(f"reduced system ({len(kept)} terms):")
    for key in kept:
        print(f"  {key}")
    return EXIT_OK


def _cmd_transform_check(args) -> int:
    with _setup_stage():
        cfg = _load_config(args)
        # the residuals need the vertical map (h < 1) and three levels
        y_levels(cfg.grid)
        if cfg.grid.nz < 3:
            raise ConfigError(f"transform-check needs grid.nz >= 3, got {cfg.grid.nz}")
        stream = dump_states(
            build_initial(cfg.grid, cfg.initial, cfg.params), cfg.params, cfg.solver
        )
    report = transform_check(stream)
    print(f"snapshots checked:        {report.snapshots}")
    print(f"stratification residual:  {report.stratification_residual:.6e}")
    print(f"hydrostatic residual:     {report.hydrostatic_residual:.6e}")
    print(f"mass-equation residual:   {report.mass_residual_l2:.6e}")
    return EXIT_OK


def _build_parser(argv: List[str]) -> argparse.ArgumentParser:
    """The parser of one command line.

    Only the subcommand that `argv` names, its first token that is not an
    option, takes the config flags: the top-level parser has no option
    but help, so no other subcommand can run, and its help lists none of
    their flags.
    """
    parser = argparse.ArgumentParser(
        prog="cpesim",
        description="column model simulator and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    chosen = next((a for a in argv if not a.startswith("-")), None)

    def command(name, fn, help, config=True):
        # no abbreviations: --solver.t is an unknown flag, not --solver.t_end
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        sp.set_defaults(fn=fn)
        if config and name == chosen:
            sp.add_argument("--config", help="path to a section.key = value config file")
            # one flag per config key; parse_config converts and checks the value
            for key in KEYS:
                sp.add_argument(f"--{key}", dest=key, metavar="VALUE")
        return sp

    command("simulate", _cmd_simulate, "integrate and write diagnostics + dumps")
    command("mms", _cmd_mms, "manufactured-solution convergence study").add_argument(
        "--levels", type=int, default=2, help="grid levels (factor 2)"
    )
    command("study", _cmd_study, "perturbation-decay stability study")
    command(
        "scale-audit",
        _cmd_scale_audit,
        "print the thin-layer term bookkeeping",
        config=False,
    ).add_argument(
        "--no-regime",
        action="store_true",
        help="show raw coefficients without the viscosity regime",
    )
    command(
        "transform-check",
        _cmd_transform_check,
        "residuals of the trajectory in physical variables",
    )

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"error: config: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as err:
        print(f"error: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DumpFormatError, OSError) as err:
        print(f"error: i/o: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
