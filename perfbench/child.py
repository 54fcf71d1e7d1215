"""One benchmark process: set up one workload, run rounds, check them.

Started by `run.py` with `cpesim`'s `src` on PYTHONPATH. Prints one JSON
object as its last line of standard output:

    {"setup_s": ..., "peak_rss_mib": ..., "calibration_s": [...],
     "rounds": [{"wall_s", "cell_steps"}], "attempted": n, "failed": n,
     "wrong": n, "layers": {...}}

`wrong` counts operations that ran but failed a check; `failed` counts
those plus operations that raised. `calibration_s` holds the calibration
kernel's time after set-up and after each round, so round k ran between
entries k and k + 1. With `--setup-only` it stops after set-up and one
calibration. With `--trace-file` it traces set-up and runs three rounds:
untraced, traced, untraced; `layers` then holds the per-layer figures of
set-up and the traced round.
"""

import argparse
import json
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=args.workdir))
    try:
        return _run(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(wl, args, workdir: Path) -> int:
    tracer = None
    if args.trace_file:
        import cpesim.cli  # noqa: F401  (loads every traced module)
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = perf_counter()
    inputs = wl.setup(workdir)
    setup_s = perf_counter() - t0
    out = {"setup_s": setup_s}
    from calibrate import calibrate  # imports numpy, so only after set-up

    if args.setup_only:
        # one kernel run, right after set-up, gauges the speed it ran at
        out["calibration_s"] = [calibrate(repeats=1)]
        print(json.dumps(out))
        return 0

    calibration = [calibrate()]
    rounds, attempted, failed, wrong = [], 0, 0, 0
    t_rounds = perf_counter()
    while True:
        if tracer is not None:
            # the traced round sits between two untraced ones
            tracer.enabled = len(rounds) == 1
        attempted += wl.ops_per_round
        try:
            wall, result = wl.run(inputs, workdir)
            if tracer is not None:
                tracer.enabled = False
            calibration.append(calibrate())
            cell_steps, fails = wl.finish(inputs, result)
        except Exception:
            traceback.print_exc()
            failed += wl.ops_per_round
            break
        bad = sum(1 for f in fails if f)
        for f in fails:
            for msg in f:
                print(f"check failed: {wl.name}: {msg}", file=sys.stderr)
        # a checker that stops early returns fewer lists; the rest failed
        failed += bad + wl.ops_per_round - len(fails)
        wrong += bad
        rounds.append({"wall_s": wall, "cell_steps": cell_steps})
        if tracer is not None:
            if len(rounds) == 3:
                break
        elif perf_counter() - t_rounds >= args.seconds:
            break
    out.update(rounds=rounds, calibration_s=calibration,
               attempted=attempted, failed=failed, wrong=wrong)
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.write(args.trace_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
