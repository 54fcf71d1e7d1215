"""A fixed calibration kernel that gauges how fast the host runs right now.

The host this benchmark was tuned on is shared: its speed drifts by 10 to
50 percent over minutes, for the same process doing the same work. The
kernel below does a fixed mix of the work `cpesim` does (numpy stencils on
arrays of the workloads' sizes, a streamed pass over a large array, plain
Python calls) and never touches `cpesim`, so no change to the program can
move it. Timings are scaled by `REFERENCE_S / kernel time` measured next to
them: a host running at half speed doubles both, and the scaled figure stays.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Kernel time the scaled figures refer to (about its time on the reference
# host; see README.md). Scaled seconds are seconds on a host where one
# kernel run takes exactly this long.
REFERENCE_S = 0.1


def _python_part(n: int) -> float:
    acc = 0.0
    table = {}
    for i in range(n):
        table[i & 255] = acc
        acc += (i * 0.5) % 3.0
    return acc


def kernel_s() -> float:
    """Time one run of the kernel (about 0.1 s on the reference host)."""
    small = np.linspace(0.0, 1.0, 32 * 32 * 8).reshape(32, 32, 8)
    mid = np.linspace(0.0, 1.0, 64 * 64 * 16).reshape(64, 64, 16)
    big = np.linspace(0.0, 1.0, 2**20)  # 8 MiB, updated in place
    t0 = perf_counter()
    for _ in range(300):
        small = small + 1e-3 * (np.roll(small, 1, axis=0) - np.roll(small, -1, axis=1))
        float(np.sum(small * small))
    for _ in range(60):
        mid = mid + 1e-3 * (np.roll(mid, 1, axis=0) - np.roll(mid, -1, axis=1))
        float(np.sum(mid * mid))
    for _ in range(40):
        big *= 0.999
        big += 1e-3
    _python_part(150000)
    return perf_counter() - t0


def calibrate(repeats: int = 10) -> float:
    """Mean kernel time over `repeats` back-to-back runs."""
    return sum(kernel_s() for _ in range(repeats)) / repeats
