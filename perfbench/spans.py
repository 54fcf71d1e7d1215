"""Span tracing of `cpesim` functions, installed from outside the program.

`Tracer.install` replaces each target function at every binding the program
calls it through: a module-level function is swapped in every loaded
`cpesim.*` module that holds it (so `div_x` is wrapped both as
`cpesim.grid.div_x` and as `cpesim.solver.div_x`), and a method or
constructor is swapped once on its class. Each call records a span
`(name, parent span, start, end)` in memory; `write` saves them as JSON
when the run ends, and `metrics` folds them into the per-layer figures.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# (metric name, module, attribute path), in the order they are reported.
TARGETS = (
    ("solver.run", "cpesim.solver", "run"),
    ("solver.step", "cpesim.solver", "step"),
    ("solver.rhs_momentum", "cpesim.solver", "rhs_momentum"),
    ("solver.rhs_xi", "cpesim.solver", "rhs_xi"),
    ("solver.diagnostic_w", "cpesim.solver", "diagnostic_w"),
    ("solver._assemble", "cpesim.solver", "_assemble"),
    ("solver.cfl_dt", "cpesim.solver", "cfl_dt"),
    ("solver._snapshot", "cpesim.solver", "_snapshot"),
    ("grid.div_x", "cpesim.grid", "div_x"),
    ("grid.grad_x", "cpesim.grid", "grad_x"),
    ("grid.ddz", "cpesim.grid", "ddz"),
    ("grid.d2dz2", "cpesim.grid", "d2dz2"),
    ("grid.lp_norm", "cpesim.grid", "lp_norm"),
    ("states.ModelState.from_values", "cpesim.states", "ModelState.from_values"),
    ("diagnostics.energy", "cpesim.diagnostics", "energy"),
    ("diagnostics.bd_entropy", "cpesim.diagnostics", "bd_entropy"),
    ("diagnostics.estimate_norms", "cpesim.diagnostics", "estimate_norms"),
    ("diagnostics.strain_tensor", "cpesim.diagnostics", "strain_tensor"),
    ("diagnostics.fill_balance_residuals", "cpesim.diagnostics", "fill_balance_residuals"),
    ("mms.ManufacturedSolution", "cpesim.mms", "ManufacturedSolution.__init__"),
    ("mms.source", "cpesim.mms", "ManufacturedSolution.source"),
    ("mms.state_at", "cpesim.mms", "ManufacturedSolution.state_at"),
    ("mms.errors", "cpesim.mms", "ManufacturedSolution.errors"),
    ("io.write_state_dump", "cpesim.io", "write_state_dump"),
    ("io.write_diagnostics_csv", "cpesim.io", "write_diagnostics_csv"),
    ("verify.stability_study", "cpesim.verify", "stability_study"),
    ("verify.perturbed_density", "cpesim.verify", "perturbed_density"),
    ("verify.mms_convergence", "cpesim.verify", "mms_convergence"),
    ("cli._write_outputs", "cpesim.cli", "_write_outputs"),
    ("config.parse_config", "cpesim.config", "parse_config"),
)

# Functions whose self time (span minus child spans) is reported.
SELF_TIMED = (
    "solver.step",
    "solver.rhs_momentum",
    "solver._assemble",
    "solver._snapshot",
    "verify.stability_study",
    "verify.mms_convergence",
)


def _cells(grid) -> int:
    return grid.nx1 * grid.nx2 * grid.nz


# Cells one call works on, for the ns-per-cell figures.
_SIZERS = {
    "solver.step": lambda args, kwargs: _cells(args[0].grid),
    "solver.rhs_momentum": lambda args, kwargs: _cells(args[0]),
}


_UNITS = {
    "calls": "count",
    "s": "s",
    "self_s": "s",
    "ns_per_cell": "ns",
    "snapshots_held": "count",
    "mib": "MiB",
    "overhead_s": "s",
}


def metric_names():
    """Every per-layer metric, with its unit, in report order."""
    names = [*Tracer().metrics(), "trace.overhead_s"]
    return [(n, _UNITS[n.rsplit(".", 1)[1]]) for n in names]


class Tracer:
    """Records one span per call of each installed target."""

    def __init__(self):
        self.enabled = True
        self.spans = []  # [name, parent index, start, end]
        self._stack = []
        self.cells = defaultdict(int)
        self.snapshots_held = 0
        self.dump_bytes = 0

    def _after(self, name, args, kwargs, out):
        if name in _SIZERS:
            self.cells[name] += _SIZERS[name](args, kwargs)
        elif name == "solver.run":
            self.snapshots_held = max(self.snapshots_held, len(out.snapshots))
        elif name == "io.write_state_dump":
            self.dump_bytes += os.path.getsize(args[0])

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = [name, tracer._stack[-1] if tracer._stack else -1, perf_counter(), 0.0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                tracer._stack.pop()
            tracer._after(name, args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap every target; the `cpesim` modules must already be imported."""
        loaded = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "cpesim"]
        for name, module, path in TARGETS:
            owner = sys.modules[module]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, self.wrap(name, raw))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def metrics(self):
        """Per-layer figures over every span recorded."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        for i, (name, parent, start, end) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
        out = {}
        for name, _, _ in TARGETS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            if name in SELF_TIMED:
                out[f"{name}.self_s"] = own[name]
            if name in _SIZERS:
                cells = self.cells[name]
                out[f"{name}.ns_per_cell"] = 1e9 * total[name] / cells if cells else 0.0
        out["solver.run.snapshots_held"] = self.snapshots_held
        out["io.write_state_dump.mib"] = self.dump_bytes / 2**20
        return out

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "parent", "start_s", "end_s"],
                    "names": names,
                    "spans": [[index[n], p, s, e] for n, p, s, e in self.spans],
                },
                fh,
            )
