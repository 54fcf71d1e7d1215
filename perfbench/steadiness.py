"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py [--runs 10] [--workload NAME ...] [--against FILE]

Runs `perfbench/run.py --trace 0` once per seed (1..runs) for each workload,
one run at a time, with `run_seconds` from BENCHMARK.json. For every
end-to-end metric it prints the median and the quartile spread
(Q3 - Q1) / median from `statistics.quantiles(values, n=4)`, and marks a
spread of a third of the metric's bound or more. The unscaled timings (before
the calibration scaling of `calibrate.py`) are printed beside them, for
comparison; they are not checked. `--against` compares each median with a
set saved earlier, each taken once as the baseline, and marks a change
beyond the bound in either direction. Each set is saved
to `.perfbench_out/steadiness-<time>.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _worse(new: float, base: float, better: str) -> float:
    """Share by which `new` is worse than `base` (negative when better)."""
    return (new - base) / base if better == "lower" else (base - new) / base


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--against")
    args = ap.parse_args()
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}

    results = {}
    ok = True
    for wl in args.workload or names:
        runs = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, "perfbench/run.py", "--workload", wl, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}")
                return 1
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            res["unscaled"] = json.loads(lines[-2])["unscaled"]
            res["run_s"] = time.perf_counter() - t0
            runs.append(res)
        results[wl] = runs
        shares = {(r["failed"], r["attempted"]) for r in runs}
        longest = max(r["run_s"] for r in runs)
        print(f"{wl}: failed/attempted {sorted(shares)}, correct "
              f"{all(r['correct'] for r in runs)}, longest run {longest:.1f} s, "
              f"calibration kernel {[round(r['unscaled']['calibration_s'], 4) for r in runs]} s")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread >= m["bound"] / 3:
                flag, ok = " SPREAD", False
            if wl in earlier:
                old = statistics.median(r["metrics"][m["name"]]["value"] for r in earlier[wl])
                worse, back = _worse(med, old, m["better"]), _worse(old, med, m["better"])
                flag += f" worse than earlier by {worse:+.3f} (earlier worse by {back:+.3f})"
                if max(worse, back) > m["bound"]:
                    flag, ok = flag + " WORSE", False
            print(f"  {m['name']:18s} median {med:.6g} {m['unit']:13s} "
                  f"spread {spread:.4f} (bound {m['bound']}){flag}")
            if m["name"] in runs[0]["unscaled"]:
                raw = [r["unscaled"][m["name"]] for r in runs]
                q1, med, q3 = statistics.quantiles(raw, n=4)
                line = f"    unscaled         median {med:.6g} spread {(q3 - q1) / med:.4f}"
                if wl in earlier:
                    old = statistics.median(r["unscaled"][m["name"]] for r in earlier[wl])
                    line += (f" worse than earlier by {_worse(med, old, m['better']):+.3f}"
                             f" (earlier worse by {_worse(old, med, m['better']):+.3f})")
                print(line)
    out = ROOT / ".perfbench_out" / f"steadiness-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results))
    print(f"saved {out.relative_to(ROOT)}; {'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
