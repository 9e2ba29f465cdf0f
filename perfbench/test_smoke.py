"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric of ``BENCHMARK.json`` (and every end-to-end name
of the notes) is printed with its unit, that traced call counts repeat
exactly and are nonzero for the layers each workload calls, that a
perturbed reference makes operations fail, and that the benchmark refuses
to run where there is no program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out" / "smoke"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

NAMED = {
    "fault_variable": {"steps_per_s": "steps/s", "failed_ops_ratio": "ratio"},
    "cli_swing": {"steps_per_s": "steps/s", "failed_ops_ratio": "ratio"},
    "loci_study": {"loci_samples_per_s": "loci_samples/s", "failed_ops_ratio": "ratio"},
}

# Layers each workload must reach, by their call-count or time metric.
CALLED = {
    "fault_variable": (
        "limiter.solve_limited_current.calls",
        "dynamics.electrical_power.calls",
        "dynamics.initial_state.ms",
        "network.solve_network.calls",
        "network.solve_faulted.calls",
        "relay.relay_step.calls",
        "relay.events",
    ),
    "cli_swing": (
        "limiter.solve_limited_current.calls",
        "limiter.adaptive_vi_step.calls",
        "dynamics.electrical_power.calls",
        "network.solve_network.calls",
        "network.solve_faulted.calls",
        "relay.relay_step.calls",
        "analysis.classify_stability.ms",
        "scenario.load_scenario.ms",
        "cli.io_s",
        "cli.bytes_written",
    ),
    "loci_study": (
        "limiter.solve_limited_current.calls",
        "limiter.solve_variable_vi_current.calls",
        "network.solve_network.calls",
        "trajectory.full_cycle.us_per_sample",
        "analysis.p_delta_curve.ms",
    ),
}


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT, seed: int = 7):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", "0.1", "--trace", str(trace), "--scale", "tiny", *extra]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def results(proc):
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.splitlines()
    return json.loads(report_line)["report"], json.loads(result_line)


def expected_units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_every_metric_printed_with_unit():
    for workload in (w["name"] for w in SPEC["workloads"]):
        report, result = results(bench(workload, 0))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        metrics = result["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == expected_units("end_to_end")
        assert all(v["value"] > 0 for v in metrics.values()), metrics
        assert {k: v["unit"] for k, v in report["named"].items()} == NAMED[workload]
        assert report["named"]["failed_ops_ratio"]["value"] == 0.0
        assert {"nproc", "cpu", "python", "numpy"} <= set(report["machine"])


def test_traced_layers_and_exact_counts():
    for workload, called in CALLED.items():
        first = results(bench(workload, 1))[1]["metrics"]
        second = results(bench(workload, 1))[1]["metrics"]
        assert {k: v["unit"] for k, v in first.items()} == expected_units("per_layer")
        for name in called:
            assert first[name]["value"] > 0, (workload, name)
        counts = [k for k in first if k.endswith(".calls") or k in ("relay.events", "cli.bytes_written")]
        assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
        assert first["trace.overhead_ratio"]["value"] > 0


def test_perturbed_reference_fails_operations():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    reference = json.loads((HERE / "reference.json").read_text())
    for digest in reference["tiny"]["fault_variable"].values():
        digest["final_delta"] += 1e-3
    perturbed = SCRATCH / "perturbed.json"
    perturbed.write_text(json.dumps(reference))
    report, result = results(bench("fault_variable", 0, "--reference", str(perturbed)))
    assert report["named"]["failed_ops_ratio"]["value"] > 0
    assert result["failed"] > 0 and not result["correct"]
    assert result["metrics"]["ok_ops_ratio"]["value"] < 1


def test_refuses_without_program():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("fault_variable", 0, cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    shutil.rmtree(bare)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
