"""In-memory span tracer installed from outside the program.

Each trace point replaces one module attribute (the name a caller looks
up at call time, e.g. ``gfmswing.dynamics.solve_limited_current``) with a
wrapper that records a span: name, parent span, start and end. Spans live
in flat arrays while the run lasts; ``aggregate`` derives per-name call
counts, total and self times, and ``write`` dumps the raw spans at the end.
"""

from __future__ import annotations

import importlib
import json
from array import array
from pathlib import Path
from time import perf_counter

# (module, attribute looked up by the caller, span name). The same function
# reached through two modules shares one span name.
TRACE_POINTS = (
    ("gfmswing.cli", "main", "cli.main"),
    ("gfmswing.cli", "load_scenario", "scenario.load_scenario"),
    ("gfmswing.dynamics", "run_scenario", "dynamics.run_scenario"),
    ("gfmswing.dynamics", "initial_state", "dynamics.initial_state"),
    ("gfmswing.dynamics", "electrical_power", "dynamics.electrical_power"),
    ("gfmswing.dynamics", "solve_limited_current", "limiter.solve_limited_current"),
    ("gfmswing.limiter", "solve_limited_current", "limiter.solve_limited_current"),
    ("gfmswing.dynamics", "adaptive_vi_step", "limiter.adaptive_vi_step"),
    ("gfmswing.trajectory", "solve_variable_vi_current", "limiter.solve_variable_vi_current"),
    ("gfmswing.analysis", "solve_variable_vi_current", "limiter.solve_variable_vi_current"),
    ("gfmswing.dynamics", "solve_network", "network.solve_network"),
    ("gfmswing.limiter", "solve_network", "network.solve_network"),
    ("gfmswing.dynamics", "solve_faulted", "network.solve_faulted"),
    ("gfmswing.dynamics", "relay_step", "relay.relay_step"),
    ("gfmswing.trajectory", "full_cycle", "trajectory.full_cycle"),
    ("gfmswing.analysis", "p_delta_curve", "analysis.p_delta_curve"),
    ("gfmswing.analysis", "classify_stability", "analysis.classify_stability"),
)


def _vi_active(result) -> bool:
    """Whether a limited-current solve returned a nonzero virtual impedance."""
    return result[1].active


# Span names whose results are also classified; the count of true outcomes
# is kept under ``<name>.active``.
PROBES = {"limiter.solve_limited_current": _vi_active}


class Tracer:
    """Span recorder for one traced run.

    Spans are appended in call order, so a parent always has a lower index
    than its children; ``parent`` is -1 for a span opened by the benchmark.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outcomes: dict[str, int] = {}
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        probe = PROBES.get(name)
        outcomes = self.outcomes
        if probe is not None:
            outcomes.setdefault(name + ".active", 0)

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                start[i] = t0
                stack.pop()
            if probe is not None and probe(result):
                outcomes[name + ".active"] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every trace point that exists in the loaded program."""
        for mod_name, attr, span in TRACE_POINTS:
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def __len__(self) -> int:
        return len(self.start)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s``, ``self_s`` and ``under_init``.

        Self time is the span's duration minus the durations of its direct
        children. ``under_init`` counts calls nested (at any depth) inside
        ``dynamics.initial_state``.
        """
        n = len(self.start)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        init_id = self.names.index("dynamics.initial_state") if "dynamics.initial_state" in self.names else -1
        child = array("d", bytes(8 * n))
        under = bytearray(n)
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
                if under[p] or name_id[p] == init_id:
                    under[i] = 1
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "under_init": 0} for name in self.names}
        by_id = [stats[name] for name in self.names]
        for i in range(n):
            entry = by_id[name_id[i]]
            dur = end[i] - start[i]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child[i]
            entry["under_init"] += under[i]
        return stats

    def write(self, path: Path) -> None:
        """Dump the spans: one JSON header line, then the four raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "layout": ["name_id:int32", "parent:int32", "start:float64", "end:float64"],
            "clock": "time.perf_counter seconds",
        }
        with path.open("wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
