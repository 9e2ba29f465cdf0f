"""The benchmark's workloads: inputs from a seed, operations, output checks.

Every workload draws its inputs from a small frozen grid, so any seed maps
to inputs whose outputs ``freeze.py`` recorded from the reference code in
``reference.json``. One *cycle* runs every operation of the workload once;
the timed loop repeats whole cycles, so call counts per cycle are exact.

- ``fault_variable``: the 20 s variable-VI mid-line fault (40 000 RK4 steps,
  relay on) through ``dynamics.run_scenario``. The VI is active on about
  three quarters of the steps, so the implicit limited-current solve
  dominates.
- ``cli_swing``: ``gfmswing simulate --scenario`` in-process on two
  generated files, an unlimited caseA1-like phase jump and a caseD-like
  adaptive fault with 2/3-scaled relay settings (57 000 steps each). The
  limiter is bypassed or nearly idle; dynamics, network, relay, scenario
  loading and CSV output dominate.
- ``loci_study``: ``full_cycle`` and ``p_delta_curve`` for all three
  strategies over seeded system variants. No RK4 and no relay; the
  closed-form loci and the warm-started variable-VI sweep dominate.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import random
from pathlib import Path

FULL = "full"
TINY = "tiny"  # tenfold step size and few samples, for the smoke test only
SCALES = (FULL, TINY)

DT = {FULL: 5e-4, TINY: 5e-3}

# Absolute tolerances per digest field; any field not listed must match
# exactly. 1e-6 rad on the final angle admits solver changes of 1e-9 per
# solve; relay events may move by one step.
TOLERANCES = {
    "final_delta": 1e-6,
    "max_delta_excursion": 1e-6,
    "relay_event_steps": 1,
    "active_sum": 1e-6,
    "p_peak": 1e-8,
    "p_sum": 1e-6,
}
ARC_TOL = 1e-9


def compare(got, ref, field: str = "") -> list[str]:
    """Differences between a digest and its frozen reference."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{field}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(ref)}"]
        return [p for key in ref for p in compare(got[key], ref[key], key)]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{field}: {got!r} != {ref!r}"]
        return [p for g, r in zip(got, ref) for p in compare(g, r, field)]
    tol = TOLERANCES.get(field)
    if tol is not None and isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        if abs(got - ref) <= tol:
            return []
        return [f"{field}: {got!r} differs from {ref!r} by more than {tol}"]
    return [] if got == ref else [f"{field}: {got!r} != {ref!r}"]


def _event_digest(relay_events, dt: float) -> dict:
    return {
        "relay_events": [[ev, el] for _, ev, el in relay_events],
        "relay_event_steps": [round(t / dt) for t, _, _ in relay_events],
    }


class FaultVariable:
    """Criterion-11 scenario with the fault location and clearing time drawn from a grid."""

    name = "fault_variable"
    unit = "steps"
    FRACTIONS = (0.45, 0.5, 0.55)
    CLEAR_DELAYS = (0.23, 0.25, 0.27)
    MIN_POST_EVENT = 15.0  # the scenario ends 18.7 s after clearing, short of the default 20 s

    def grid(self, scale: str) -> dict[str, dict]:
        return {
            f"frac{f}/clear{c}": {"fraction": f, "clear": c, "dt": DT[scale]}
            for f in self.FRACTIONS
            for c in self.CLEAR_DELAYS
        }

    def specs(self, seed: int, scale: str) -> dict[str, dict]:
        rng = random.Random(seed)
        f, c = rng.choice(self.FRACTIONS), rng.choice(self.CLEAR_DELAYS)
        key = f"frac{f}/clear{c}"
        return {key: self.grid(scale)[key]}

    def build(self, gfm, spec: dict, workdir: Path):
        ev = gfm.dynamics.Event
        kind = gfm.dynamics.EventKind
        lim = gfm.limiter
        scn = gfm.scenario.Scenario(
            name=self.name,
            system=gfm.network.SystemParams(),
            apcl=gfm.dynamics.ApclParams(h=7.0, d_p=0.05, p0=0.7),
            limiter=lim.LimiterConfig(strategy=lim.Strategy.VARIABLE_VI),
            events=(
                ev(1.0, kind.FAULT_APPLY, spec["fraction"]),
                ev(1.0 + spec["clear"], kind.FAULT_CLEAR),
            ),
            horizon=20.0,
            dt=spec["dt"],
            relay=gfm.relay.RelaySettings.table1(),
        )
        dynamics = gfm.dynamics
        return lambda: dynamics.run_scenario(scn)

    def inspect(self, gfm, spec: dict, record, workdir: Path):
        verdict = gfm.analysis.classify_stability(record, min_post_event=self.MIN_POST_EVENT)
        digest = {
            "length": len(record),
            "verdict": verdict.classification.value,
            "pole_slips": verdict.pole_slips,
            "final_delta": float(record.delta[-1]),
            **_event_digest(record.relay_events, spec["dt"]),
        }
        work = {"steps": len(record) - 1, "relay_events": len(record.relay_events)}
        return digest, work, []


def _count_rows(path: Path) -> tuple[int, bytes]:
    """Data rows of a CSV file (header excluded) and its last line, read in chunks."""
    lines, tail = 0, b""
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            lines += chunk.count(b"\n")
            tail = (tail + chunk)[-4096:]
    return lines - 1, tail.rstrip(b"\r\n").rsplit(b"\n", 1)[-1]


class CliSwing:
    """``gfmswing simulate --scenario`` on a phase-jump file and a caseD-like file."""

    name = "cli_swing"
    unit = "steps"
    JUMPS = (-1.5, -1.53, -1.56, -1.59, -1.62, -1.65)

    def grid(self, scale: str) -> dict[str, dict]:
        specs = {f"jump{j}": {"case": "caseA1", "jump": j, "dt": DT[scale]} for j in self.JUMPS}
        specs["caseD"] = {"case": "caseD", "jump": None, "dt": DT[scale]}
        return specs

    def specs(self, seed: int, scale: str) -> dict[str, dict]:
        key = f"jump{random.Random(seed).choice(self.JUMPS)}"
        grid = self.grid(scale)
        return {key: grid[key], "caseD": grid["caseD"]}

    def build(self, gfm, spec: dict, workdir: Path):
        scn = gfm.cases.build_case(spec["case"])
        changes = {"name": f"{self.name}-{spec['case']}", "dt": spec["dt"]}
        if spec["jump"] is not None:
            changes["events"] = (gfm.dynamics.Event(8.0, gfm.dynamics.EventKind.PHASE_JUMP, spec["jump"]),)
        scn = dataclasses.replace(scn, **changes)
        path = workdir / f"{spec['case']}.json"
        gfm.scenario.save_scenario(scn, path)
        argv = ["simulate", "--scenario", str(path), "--out", str(self._out(spec, workdir))]
        cli = gfm.cli

        def op():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        return op

    @staticmethod
    def _out(spec: dict, workdir: Path) -> Path:
        return workdir / f"out-{spec['case']}"

    def inspect(self, gfm, spec: dict, exit_code, workdir: Path):
        out = self._out(spec, workdir)
        files = [p for p in out.iterdir() if p.is_file()] if out.is_dir() else []
        work = {"csv_bytes": sum(p.stat().st_size for p in files)}
        digest = {"exit_code": exit_code}
        summary_path = out / "summary.json"
        if summary_path.is_file():
            summary = json.loads(summary_path.read_text())
            digest.update(
                verdict=summary["verdict"],
                pole_slips=summary["pole_slips"],
                max_delta_excursion=summary["max_delta_excursion"],
                psb_ever=summary["psb_ever"],
                ost_ever=summary["ost_ever"],
                **_event_digest(summary["relay_events"], spec["dt"]),
            )
            work["relay_events"] = len(summary["relay_events"])
        record_path = out / "record.csv"
        if record_path.is_file():
            rows, last = _count_rows(record_path)
            digest["rows"] = rows
            digest["final_delta"] = float(last.split(b",")[1]) if rows else math.nan
            work["steps"] = max(rows - 1, 0)
        for p in files:
            p.unlink()  # the next operation must not read these
        return digest, work, []


class LociStudy:
    """Full-cycle loci and power-angle curves of all strategies over system variants."""

    name = "loci_study"
    unit = "loci_samples"
    Z_G = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    Z_L = (0.15, 0.2, 0.25, 0.3, 0.35, 0.4)
    ANGLE_DEG = 84.29
    VARIANTS = {FULL: 20, TINY: 2}
    N_LOCUS = {FULL: 1999, TINY: 199}
    N_CURVE = {FULL: 2048, TINY: 205}

    def grid(self, scale: str) -> dict[str, dict]:
        return {
            f"zg{zg}/zl{zl}": {"z_g": zg, "z_l": zl, "n_locus": self.N_LOCUS[scale], "n_curve": self.N_CURVE[scale]}
            for zg in self.Z_G
            for zl in self.Z_L
        }

    def specs(self, seed: int, scale: str) -> dict[str, dict]:
        grid = self.grid(scale)
        keys = random.Random(seed).sample(sorted(grid), self.VARIANTS[scale])
        return {key: grid[key] for key in keys}

    def build(self, gfm, spec: dict, workdir: Path):
        phasor = gfm.network.Phasor
        params = gfm.network.SystemParams(
            z_g=phasor.from_polar_deg(spec["z_g"], self.ANGLE_DEG),
            z_l=phasor.from_polar_deg(spec["z_l"], self.ANGLE_DEG),
        )
        strategies = tuple(gfm.limiter.Strategy)
        trajectory, analysis = gfm.trajectory, gfm.analysis
        n_locus, n_curve = spec["n_locus"], spec["n_curve"]

        def op():
            return params, {
                s.value: (
                    trajectory.full_cycle(s, params, n_samples=n_locus),
                    analysis.p_delta_curve(s, params, n=n_curve),
                )
                for s in strategies
            }

        return op

    def inspect(self, gfm, spec: dict, output, workdir: Path):
        params, by_strategy = output
        center = complex(params.z_relay_to_grid)
        radius = params.v_g_mag / params.i_max
        digest, problems = {}, []
        locus_samples = curve_samples = 0
        for strategy, (samples, curve) in by_strategy.items():
            segments: dict[str, int] = {}
            active_sum = 0j
            for s in samples:
                seg = s.segment.value
                segments[seg] = segments.get(seg, 0) + 1
                if seg != "inactive":
                    active_sum += complex(s.z_app)
                if seg == "active_adaptive" and abs(abs(complex(s.z_app) - center) - radius) > ARC_TOL:
                    problems.append(f"{strategy}: adaptive sample at delta={s.delta!r} is off the arc")
            digest[strategy] = {
                "segments": segments,
                "active_sum": [active_sum.real, active_sum.imag],
                "n_curve": len(curve.p),
                "p_peak": float(curve.peak),
                "p_sum": float(sum(curve.p)),
            }
            locus_samples += len(samples)
            curve_samples += len(curve.p)
        work = {"loci_samples": locus_samples + curve_samples, "locus_samples": locus_samples}
        return digest, work, problems


WORKLOADS = {w.name: w for w in (FaultVariable(), CliSwing(), LociStudy())}
