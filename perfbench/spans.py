"""In-memory span tracing at declqg's layer boundaries.

The tracer wraps the module-level names one layer uses to call another (for
example ``declqg.solver.build`` is how the solver reaches the coordination
layer) and records one span per call: name, start, end and parent span.  No
file of the library is edited; :meth:`Tracer.uninstall` puts every original
back.  A span is named after the function's defining module, so a function
reached through several call sites reports under one name.

Self time is a span's duration minus the time its child spans cover.  Spans
live in flat arrays until :meth:`Tracer.write` stores them at the end.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter

# (module the call goes through, attribute, layer name reported)
TARGETS = (
    # benchmark -> public API (looked up on the package at call time)
    ("declqg", "tune", "tune.tune"),
    ("declqg", "solve", "solver.solve"),
    ("declqg", "simulate", "sim.simulate"),
    ("declqg", "exact_cost", "sim.exact_cost"),
    ("declqg", "closed_loop_cost_exact", "coordination.closed_loop_cost_exact"),
    ("declqg", "delayed_stat_gains", "estimator.delayed_stat_gains"),
    ("declqg", "build_symmetric_delay", "infostructure.build_symmetric_delay"),
    ("declqg.cli", "load_scenario", "cli.load_scenario"),
    # cli -> infostructure
    ("declqg.cli", "build_symmetric_delay", "infostructure.build_symmetric_delay"),
    ("declqg.cli", "build_asymmetric_delay", "infostructure.build_asymmetric_delay"),
    ("declqg.cli", "build_control_sharing", "infostructure.build_control_sharing"),
    ("declqg.cli", "build_one_sided", "infostructure.build_one_sided"),
    # tune -> solver, core
    ("declqg.tune", "solve", "solver.solve"),
    ("declqg.tune", "seeded_stream", "core.seeded_stream"),
    # solver -> coordination, core, and its own stages
    ("declqg.solver", "build", "coordination.build"),
    ("declqg.solver", "forward_riccati", "solver.forward_riccati"),
    ("declqg.solver", "backward_riccati", "solver.backward_riccati"),
    ("declqg.solver", "performance", "solver.performance"),
    ("declqg.solver", "reduce_gains", "solver.reduce_gains"),
    ("declqg.solver", "pinv", "core.pinv"),
    ("declqg.solver", "solve_pd", "core.solve_pd"),
    ("declqg.solver", "check_psd", "core.check_psd"),
    # sim -> core, coordination, and its own stages
    ("declqg.sim", "draw_primitives", "sim.draw_primitives"),
    ("declqg.sim", "rollout_plant", "sim.rollout_plant"),
    ("declqg.sim", "seeded_stream", "core.seeded_stream"),
    ("declqg.sim", "build", "coordination.build"),
    ("declqg.coordination", "closed_loop_cost_exact",
     "coordination.closed_loop_cost_exact"),
    # estimator -> infostructure, core, and its own stages
    ("declqg.estimator", "delayed_stat_map", "estimator.delayed_stat_map"),
    ("declqg.estimator", "token_trace", "infostructure.token_trace"),
    ("declqg.estimator", "pinv", "core.pinv"),
)

#: Layers reported as ``<layer>.calls`` and ``<layer>.self_ms``.
LAYERS = tuple(dict.fromkeys(name for _, _, name in TARGETS))


class Tracer:
    """Collects spans while installed; the benchmark owns one per run."""

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self._stack: list[list] = []     # [span id, time covered by children]
        self._patches: list[tuple] = []
        self.missing: list[str] = []

    @property
    def active(self) -> bool:
        return bool(self._patches)

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def _begin(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append([sid, 0.0])
        self.start.append(perf_counter())
        return sid

    def _finish(self, sid: int) -> None:
        now = perf_counter()
        self.end[sid] = now
        _, covered = self._stack.pop()
        dur = now - self.start[sid]
        nid = self.name[sid]
        self.calls[nid] += 1
        self.self_s[nid] += dur - covered
        if self._stack:
            self._stack[-1][1] += dur

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a root, when at top level)."""
        sid = self._begin(self._name_id(name))
        try:
            yield
        finally:
            self._finish(sid)

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        begin, finish = self._begin, self._finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(sid)
        return traced

    def install(self) -> None:
        for modname, attr, name in TARGETS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                if f"{modname}.{attr}" not in self.missing:
                    self.missing.append(f"{modname}.{attr}")
                continue
            self._patches.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, fn = self._patches.pop()
            setattr(mod, attr, fn)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def rollup(self, scale: float = 1.0) -> dict:
        """``<layer>.calls`` and ``<layer>.self_ms`` (times ``scale``)."""
        out = {}
        for layer in LAYERS:
            nid = self._ids.get(layer)
            out[f"{layer}.calls"] = self.calls[nid] if nid is not None else 0
            out[f"{layer}.self_ms"] = (1e3 * scale * self.self_s[nid]
                                       if nid is not None else 0.0)
        return out

    def count(self, layer: str) -> int:
        nid = self._ids.get(layer)
        return self.calls[nid] if nid is not None else 0

    def write(self, path) -> None:
        """Every span as gzip-compressed CSV, times in seconds from the first."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start_s", "end_s", "parent",
                          "workload", "run_id"])
            names = self.names
            for sid in range(len(self.start)):
                out.writerow([sid, names[self.name[sid]],
                              f"{self.start[sid] - t0:.9f}",
                              f"{self.end[sid] - t0:.9f}",
                              self.parent[sid], self.workload, self.run_id])
