"""Benchmark of the gfmswing simulator, run from the root of a checkout.

    python3 perfbench/run.py --workload fault_variable --seed 1 --seconds 30 --trace 0

Imports the program from ``src/`` of the checkout, sets it up several times
(the median is ``setup_s``), then repeats whole cycles of the workload's
operations until ``--seconds`` have passed, checking every output against
``reference.json``. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``). The
line before it is a report with the work counts, sample counts and machine.

A traced run first times one untraced cycle, then installs the span tracer
of ``trace.py`` and measures traced cycles; spans are written to
``.bench_out/trace_<workload>.spans``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import SCALES, WORKLOADS, compare  # noqa: E402

SETUP_REPEATS = 7
MAX_PROBLEMS = 20  # problems kept for the report
MODULES = ("network", "limiter", "dynamics", "relay", "trajectory", "analysis", "scenario", "cases", "cli")


class Program:
    """The freshly imported gfmswing modules, by short name."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "gfmswing" or m.startswith("gfmswing.")]:
            del sys.modules[name]
        self.package = importlib.import_module("gfmswing")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"gfmswing.{name}"))


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class Run:
    """Operations of one workload plus the tally of their outcomes."""

    def __init__(self, workload, gfm, ops, specs, reference, workdir):
        self.workload, self.gfm, self.ops, self.specs = workload, gfm, ops, specs
        self.reference, self.workdir = reference, workdir
        self.attempted = self.failed = 0
        self.work: dict[str, int] | None = None
        self.problems: list[str] = []
        self.tracer: Tracer | None = None  # when set, wraps the timed calls only, not the checks

    def cycle(self, times: list[list[float]]) -> float:
        """Run every operation once, timing each; returns the summed op time."""
        total = 0.0
        work: dict[str, int] = {}
        for i, (key, op) in enumerate(self.ops):
            error = None
            if self.tracer is not None:
                self.tracer.install()
            t0 = perf_counter()
            try:
                output = op()
            except Exception as exc:  # a failed operation is counted, not fatal
                error = exc
            finally:
                elapsed = perf_counter() - t0
                if self.tracer is not None:
                    self.tracer.uninstall()
            times[i].append(elapsed)
            total += elapsed
            self.attempted += 1
            problems = [f"raised {error!r}"] if error is not None else self._check(key, output, work)
            output = None  # free this output before the next operation runs
            if problems:
                self.failed += 1
                self.problems.extend(f"{key}: {p}" for p in problems[: MAX_PROBLEMS - len(self.problems)])
        if self.work is None:
            self.work = work
        return total

    def _check(self, key, output, work) -> list[str]:
        try:
            digest, op_work, problems = self.workload.inspect(self.gfm, self.specs[key], output, self.workdir)
        except Exception as exc:  # malformed output is a failed check
            return [f"output could not be inspected: {exc!r}"]
        for name, value in op_work.items():
            work[name] = work.get(name, 0) + value
        ref = self.reference.get(key)
        if ref is None:
            return problems + ["no frozen reference for this input"]
        return problems + compare(digest, ref)

    def measure(self, seconds: float) -> tuple[list[list[float]], list[float]]:
        """Repeat whole cycles; stop at the cycle boundary nearest ``seconds``."""
        times: list[list[float]] = [[] for _ in self.ops]
        cycles: list[float] = []
        start = perf_counter()
        while True:
            loop_start = perf_counter()
            cycles.append(self.cycle(times))
            now = perf_counter()
            if seconds - (now - start) < 0.5 * (now - loop_start):
                return times, cycles


def setup(workload, specs, workdir) -> tuple[float, object, list]:
    """Import the program and build the operations; returns the median time."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        gfm = Program()
        ops = [(key, workload.build(gfm, spec, workdir)) for key, spec in specs.items()]
        samples.append(perf_counter() - t0)
    return statistics.median(samples), gfm, ops


def end_to_end(run: Run, setup_s: float, wall_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "work_per_s": (run.work.get(run.workload.unit, 0) / wall_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ops_ratio": (1.0 - run.failed / run.attempted, "ratio"),
    }


def per_layer(stats: dict, outcomes: dict, n_cycles: int, work: dict, overhead: float) -> dict:
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "under_init": 0}

    def get(name):
        return stats.get(name, empty)

    def calls(name):
        total = get(name)["calls"]
        return total // n_cycles if total % n_cycles == 0 else total / n_cycles

    def per_call(name, key="total_s", scale=1e6):
        entry = get(name)
        return scale * entry[key] / entry["calls"] if entry["calls"] else 0.0

    steps = work.get("steps", 0)
    ep = get("dynamics.electrical_power")
    limited = get("limiter.solve_limited_current")["calls"]
    io_s = get("cli.main")["self_s"] / n_cycles
    csv_bytes = work.get("csv_bytes", 0)
    locus_samples = work.get("locus_samples", 0) * n_cycles
    return {
        "limiter.solve_limited_current.calls": (calls("limiter.solve_limited_current"), "count"),
        "limiter.solve_limited_current.us_per_call": (per_call("limiter.solve_limited_current"), "us"),
        "limiter.solve_limited_current.active_ratio": (
            outcomes.get("limiter.solve_limited_current.active", 0) / limited if limited else 0.0,
            "ratio",
        ),
        "limiter.adaptive_vi_step.calls": (calls("limiter.adaptive_vi_step"), "count"),
        "limiter.adaptive_vi_step.us_per_call": (per_call("limiter.adaptive_vi_step"), "us"),
        "limiter.solve_variable_vi_current.calls": (calls("limiter.solve_variable_vi_current"), "count"),
        "limiter.solve_variable_vi_current.us_per_call": (per_call("limiter.solve_variable_vi_current"), "us"),
        "dynamics.electrical_power.calls": (calls("dynamics.electrical_power"), "count"),
        "dynamics.electrical_power.us_per_call": (per_call("dynamics.electrical_power"), "us"),
        "dynamics.electrical_power.self_us_per_call": (per_call("dynamics.electrical_power", "self_s"), "us"),
        "dynamics.evals_per_step": (
            (ep["calls"] - ep["under_init"]) / (steps * n_cycles) if steps else 0.0,
            "evals/step",
        ),
        "dynamics.run_scenario.self_us_per_step": (
            1e6 * get("dynamics.run_scenario")["self_s"] / (steps * n_cycles) if steps else 0.0,
            "us",
        ),
        "dynamics.initial_state.ms": (per_call("dynamics.initial_state", scale=1e3), "ms"),
        "network.solve_network.calls": (calls("network.solve_network"), "count"),
        "network.solve_network.us_per_call": (per_call("network.solve_network"), "us"),
        "network.solve_faulted.calls": (calls("network.solve_faulted"), "count"),
        "network.solve_faulted.us_per_call": (per_call("network.solve_faulted"), "us"),
        "relay.relay_step.calls": (calls("relay.relay_step"), "count"),
        "relay.relay_step.us_per_call": (per_call("relay.relay_step"), "us"),
        "relay.events": (work.get("relay_events", 0), "count"),
        "trajectory.full_cycle.us_per_sample": (
            1e6 * get("trajectory.full_cycle")["total_s"] / locus_samples if locus_samples else 0.0,
            "us",
        ),
        "analysis.p_delta_curve.ms": (per_call("analysis.p_delta_curve", scale=1e3), "ms"),
        "analysis.classify_stability.ms": (per_call("analysis.classify_stability", scale=1e3), "ms"),
        "scenario.load_scenario.ms": (per_call("scenario.load_scenario", scale=1e3), "ms"),
        "cli.io_s": (io_s, "s"),
        "cli.bytes_written": (csv_bytes, "B"),
        "cli.io_mb_per_s": (csv_bytes / io_s / 1e6 if io_s else 0.0, "MB/s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full", help="'tiny' is for the smoke test")
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "gfmswing" / "__init__.py").is_file():
        print(f"error: no program to benchmark at {src / 'gfmswing'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]
    specs = workload.specs(args.seed, args.scale)
    reference = json.loads(args.reference.read_text())[args.scale][workload.name]
    workdir = ROOT / ".bench_out" / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, gfm, ops = setup(workload, specs, workdir)
        if Path(gfm.package.__file__).resolve().parent != (src / "gfmswing").resolve():
            print(f"error: imported gfmswing from {gfm.package.__file__}, not {src}", file=sys.stderr)
            return 2
        run = Run(workload, gfm, ops, specs, reference, workdir)
        if args.trace:
            untraced = run.cycle([[] for _ in ops])
            run.tracer = tracer = Tracer()
        times, cycles = run.measure(args.seconds)
        wall_s = sum(statistics.median(t) for t in times)
        extra = {}
        if args.trace:
            overhead = statistics.median(cycles) / untraced
            metrics = per_layer(tracer.aggregate(), tracer.outcomes, len(cycles), run.work, overhead)
            tracer.write(ROOT / ".bench_out" / f"trace_{workload.name}.spans")
            extra = {
                "spans": len(tracer),
                "evaluations": metrics["dynamics.electrical_power.calls"][0],
                "limited_solves": metrics["limiter.solve_limited_current.calls"][0],
            }
        else:
            metrics = end_to_end(run, setup_s, wall_s)
        named = {
            f"{workload.unit}_per_s": {"value": run.work.get(workload.unit, 0) / wall_s, "unit": f"{workload.unit}/s"},
            "failed_ops_ratio": {"value": run.failed / run.attempted, "unit": "ratio"},
        }
        report = {
            "workload": workload.name,
            "seed": args.seed,
            "scale": args.scale,
            "trace": args.trace,
            "inputs": sorted(specs),
            "cycles": len(cycles),
            "op_samples": [len(t) for t in times],
            "cycle_s": {"median": statistics.median(cycles), "min": min(cycles), "max": max(cycles)},
            "work_per_cycle": {**run.work, **extra},
            "named": named,
            "problems": run.problems,
            "machine": machine(),
        }
        print(json.dumps({"report": report}))
        print(
            json.dumps(
                {
                    "correct": run.failed == 0,
                    "attempted": run.attempted,
                    "failed": run.failed,
                    "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
