"""Self-tests of the benchmark's checkers, on tiny grids (a few seconds).

    PYTHONPATH=src python3 perfbench/selftest.py

Each checker must accept a good output and reject one broken on purpose:
a CSV row with shifted mass, a dump with one altered value, MMS orders
outside [1.8, 2.2], and a study table that is not monotone. Exits 1 if any
checker does not behave.
"""

from __future__ import annotations

import csv
import dataclasses
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
from workloads import QUICKSTART_H, QUICKSTART_KAPPA, QUICKSTART_LX

TINY_CONFIG = """\
grid.nx1 = 8
grid.nx2 = 8
grid.nz = 4
params.nu = 0.01
params.r = 0.5
solver.t_end = 0.2
initial.profile = smooth-flow
initial.amplitude = 0.15
initial.u_amplitude = 0.25
"""


def expect(label: str, fails, should_pass: bool) -> bool:
    """Report one case; `fails` is a checker's per-operation failure lists."""
    failed_ops = [f for f in fails if f]
    ok = (not failed_ops) if should_pass else bool(failed_ops)
    verdict = "accepts" if should_pass else "rejects"
    detail = f" ({failed_ops[0][0]})" if failed_ops and not should_pass else ""
    print(f"{'ok  ' if ok else 'FAIL'} checker {verdict} {label}{detail}")
    return ok


def simulate_cases(tmp: Path):
    from cpesim.cli import main

    cfg = tmp / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    out = tmp / "out"
    code = main(["simulate", "--config", str(cfg), "--output.dir", str(out)])
    consts = (QUICKSTART_LX, QUICKSTART_LX, QUICKSTART_H, QUICKSTART_KAPPA)
    yield expect("a tiny simulate run", checks.check_simulate(code, out, *consts), True)
    yield expect("a nonzero exit code", checks.check_simulate(3, out, *consts), False)

    csv_path = out / "diagnostics.csv"
    good_csv = csv_path.read_text()
    rows = checks.read_csv(csv_path)
    col = rows[0].index("mass")
    rows[len(rows) // 2][col] = repr(float(rows[len(rows) // 2][col]) * (1 + 1e-9))
    with open(csv_path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    yield expect("a CSV row with shifted mass", checks.check_simulate(code, out, *consts), False)
    csv_path.write_text(good_csv)

    final = sorted(out.glob("fields_*.cpe"))[-1]
    blob = bytearray(final.read_bytes())
    offset = 4 + 4 * 8 + 32  # header, then the name of the first field (xi)
    value = np.frombuffer(blob, "<f8", count=1, offset=offset) * (1 + 1e-6)
    blob[offset:offset + 8] = value.tobytes()
    final.write_bytes(bytes(blob))
    yield expect("a dump with one altered xi value", checks.check_simulate(code, out, *consts), False)


def mms_cases():
    from cpesim.grid import GridSpec
    from cpesim.solver import Params
    from cpesim.verify import mms_convergence

    base = (8, 8, 4)
    report = mms_convergence(GridSpec(*base), Params(nu=0.01, r=0.5), t_end=0.002, levels=2, cfl=0.3)
    yield expect("a tiny MMS hierarchy", checks.check_mms(report, base), True)
    low = dataclasses.replace(report, orders_xi=[1.5], orders_u=report.orders_u)
    yield expect("MMS orders outside [1.8, 2.2]", checks.check_mms(low, base), False)
    flat = dataclasses.replace(
        report, levels=[report.levels[0], dataclasses.replace(report.levels[1], err_u=report.levels[0].err_u)]
    )
    yield expect("MMS errors that do not fall", checks.check_mms(flat, base), False)


def study_cases():
    from cpesim.grid import GridSpec
    from cpesim.initial import InitialSpec, build_initial
    from cpesim.solver import Params, SolverConfig, run
    from cpesim.verify import perturbed_density, stability_study

    p = Params(nu=0.01, r=0.5)
    ref = build_initial(GridSpec(8, 8, 4), InitialSpec(profile="smooth-flow", amplitude=0.1, u_amplitude=0.25), p)
    amps = [0.5, 0.25, 0.125]
    perturbed = [perturbed_density(ref, a) for a in amps]
    cfg = SolverConfig(t_end=0.02, dump_every=2)
    table = stability_study(ref, perturbed, amps, p, cfg)
    shared = dataclasses.replace(cfg, dt_fixed=table.dt)
    masses = [checks.snapshot_masses(run(s, p, shared)) for s in (ref, *perturbed)]
    yield expect("a tiny stability study", checks.check_study(table, amps, masses), True)

    # the last distance grows while the program's own flag still says monotone
    rows = list(table.rows)
    rows[2] = dataclasses.replace(rows[2], xi_sup_l32=1.1 * rows[1].xi_sup_l32)
    bumped = dataclasses.replace(table, rows=rows)
    yield expect("a study table that is not monotone", checks.check_study(bumped, amps, masses), False)
    # the distances are untouched, so only the program's own flag can reject it
    rows = list(table.rows)
    rows[1] = dataclasses.replace(rows[1], monotone=False)
    flagged = dataclasses.replace(table, rows=rows)
    yield expect("a study row flagged non-monotone", checks.check_study(flagged, amps, masses), False)
    drifted = [m[:-1] + [m[-1] * (1 + 1e-9)] for m in masses]
    yield expect("a trajectory that loses mass", checks.check_study(table, amps, drifted), False)


def main() -> int:
    scratch = Path(__file__).resolve().parent.parent / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        results = [*simulate_cases(tmp), *mms_cases(), *study_cases()]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{sum(results)}/{len(results)} checker self-tests passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
