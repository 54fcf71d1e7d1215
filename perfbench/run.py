"""Benchmark entry point for cpesim: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; `cpesim` is imported from `src/`, so nothing
has to be installed. Every workload runs in fresh child processes started
one at a time from this process (no threads, no pool). With `--trace 0` the
last line of standard output is the end-to-end result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with `wall_s`, `setup_s`, `cell_steps_per_s` and `peak_rss_mib`. The three
timings are scaled to the reference host speed with the calibration kernel
of `calibrate.py`; the line before the result holds them unscaled, under
"unscaled". With `--trace 1` the metrics are the per-layer figures of one
traced round (spans saved under `.perfbench_out/`), plus `trace.overhead_s`:
its wall time minus the mean of the untraced rounds run just before and
just after it in the same child, all scaled like `wall_s`. The
workloads have fixed inputs; `--seed` is accepted and does not change them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

from calibrate import REFERENCE_S  # noqa: E402  (this directory is on sys.path)
from spans import metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up-only children started before and again after the workload child;
# set-up time is the median over them and the workload child's own set-up,
# each scaled by the calibration run right after it in the same child.
SETUP_SAMPLES_EACH_SIDE = 6
# Whole run, all children included, must end within this many seconds.
RUN_BUDGET_S = 170.0


class ChildError(RuntimeError):
    pass


def _child(workload: str, deadline: float, *extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--workdir", str(OUT), *extra]
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise ChildError("time budget spent before the child started")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildError(f"child {extra} exceeded the time budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"child {extra} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _scales(child: dict) -> list:
    """Per-round factor to the reference host speed.

    Round k ran between calibrations k and k + 1 of the same child.
    """
    cal = child["calibration_s"]
    return [REFERENCE_S / (0.5 * (cal[k] + cal[k + 1])) for k in range(len(child["rounds"]))]


def _end_to_end(workload: str, seconds: float, deadline: float) -> dict:
    setups = [_child(workload, deadline, "--setup-only")
              for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    main = _child(workload, deadline, "--seconds", str(seconds))
    setups += [main] + [_child(workload, deadline, "--setup-only")
                        for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    rounds, cal = main["rounds"], main["calibration_s"]
    if not rounds:
        raise ChildError("no round of the workload completed")
    scales = _scales(main)
    walls = [r["wall_s"] for r in rounds]
    rates = [r["cell_steps"] / r["wall_s"] for r in rounds]
    setup_s = [c["setup_s"] for c in setups]
    main["unscaled"] = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_s),
        "cell_steps_per_s": statistics.median(rates),
        "calibration_s": statistics.median(cal),
        "samples": {"round_wall_s": walls, "calibration_s": cal, "setup_s": setup_s,
                    "setup_calibration_s": [c["calibration_s"][0] for c in setups]},
    }
    scaled_setup_s = [c["setup_s"] * REFERENCE_S / c["calibration_s"][0] for c in setups]
    main["metrics"] = {
        "wall_s": {"value": statistics.median(w * k for w, k in zip(walls, scales)),
                   "unit": "s"},
        "setup_s": {"value": statistics.median(scaled_setup_s), "unit": "s"},
        "cell_steps_per_s": {"value": statistics.median(r / k for r, k in zip(rates, scales)),
                             "unit": "cell-steps/s"},
        "peak_rss_mib": {"value": main["peak_rss_mib"], "unit": "MiB"},
    }
    return main


def _traced(workload: str, seed: int, deadline: float) -> dict:
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"
    traced = _child(workload, deadline, "--trace-file", str(trace_file))
    if len(traced["rounds"]) != 3:
        raise ChildError("the untraced and traced rounds did not all complete")
    before, with_trace, after = (r["wall_s"] * k for r, k in zip(traced["rounds"], _scales(traced)))
    layers = traced["layers"]
    layers["trace.overhead_s"] = with_trace - 0.5 * (before + after)
    traced["metrics"] = {
        name: {"value": layers[name], "unit": unit} for name, unit in metric_names()
    }
    return traced


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = perf_counter() + RUN_BUDGET_S
    if not (ROOT / "src" / "cpesim" / "__init__.py").is_file():
        # never fall back to another installed copy of the package
        print(f"perfbench: no cpesim package under {ROOT / 'src'}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            res = _traced(args.workload, args.seed, deadline)
        else:
            res = _end_to_end(args.workload, args.seconds, deadline)
    except ChildError as err:
        print(f"perfbench: {args.workload}: {err}", file=sys.stderr)
        return 1
    if "unscaled" in res:
        print(json.dumps({"unscaled": res["unscaled"]}))
    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
