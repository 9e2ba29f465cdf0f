"""Scenario-driven command line front end.

Subcommands: ``simulate`` (time-domain record plus relay log),
``trajectory`` (closed-form full-cycle locus), ``pdelta`` (power-angle
curves), ``sweep`` (inertia/damping/step grid with verdicts). Every command
writes CSV files plus a ``summary.json`` into the output directory.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import analysis, cases, dynamics
from .errors import GfmSwingError, InsufficientHorizon
from .limiter import Strategy, critical_angle
from .scenario import Scenario, load_scenario, scenario_to_dict
from .trajectory import full_cycle


def _load(args) -> Scenario:
    if args.scenario is not None:
        scn = load_scenario(args.scenario)
    elif args.case is not None:
        scn = cases.build_case(args.case, _strategy_or_none(args))
        return scn
    else:
        raise GfmSwingError("one of --scenario or --case is required")
    if _strategy_or_none(args) is not None:
        scn = replace(scn, limiter=replace(scn.limiter, strategy=_strategy_or_none(args)))
    return scn


def _strategy_or_none(args) -> Strategy | None:
    return Strategy(args.strategy) if getattr(args, "strategy", None) else None


def _apply_overrides(scn: Scenario, args) -> Scenario:
    if getattr(args, "dt", None):
        scn = replace(scn, dt=args.dt)
    return scn


def _out_dir(args, scn: Scenario) -> Path:
    out = args.out or scn.outputs or f"out/{scn.name}"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _fmt(v):
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, float):
        return repr(float(v))  # normalizes numpy scalars
    return v


def _boundary_angles(scn: Scenario) -> dict:
    out = {}
    for label, level in (("delta_th", scn.system.i_th), ("delta_lim", scn.system.i_max)):
        try:
            out[label] = critical_angle(scn.system, level)
        except GfmSwingError:
            out[label] = None
    return out


def _write_summary(path: Path, payload: dict) -> None:
    (path / "summary.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_simulate(args) -> int:
    scn = _apply_overrides(_load(args), args)
    out = _out_dir(args, scn)
    record = dynamics.run_scenario(scn)
    _write_csv(
        out / "record.csv",
        ["t", "delta", "omega_dev", "i_mag", "zapp_re", "zapp_im", "p_e", "vi_r", "vi_x", "psb", "ost"],
        (
            (
                record.t[k],
                record.delta[k],
                record.omega_dev[k],
                record.i_mag[k],
                record.zapp_re[k],
                record.zapp_im[k],
                record.p_e[k],
                record.vi_r[k],
                record.vi_x[k],
                bool(record.psb[k]),
                bool(record.ost[k]),
            )
            for k in range(len(record))
        ),
    )
    _write_csv(out / "relay_events.csv", ["t", "event", "element"], record.relay_events)
    try:
        verdict = analysis.classify_stability(record) if record.events else None
    except InsufficientHorizon as exc:
        print(f"no verdict: {exc}")
        verdict = None
    summary = {
        "scenario": scenario_to_dict(scn),
        "boundaries": _boundary_angles(scn),
        "verdict": None if verdict is None else verdict.classification.value,
        "max_delta_excursion": None if verdict is None else verdict.max_delta_excursion,
        "pole_slips": None if verdict is None else verdict.pole_slips,
        "relay_events": [list(entry) for entry in record.relay_events],
        "psb_ever": bool(record.psb.any()),
        "ost_ever": bool(record.ost.any()),
    }
    _write_summary(out, summary)
    print(f"simulate {scn.name}: wrote {out / 'record.csv'}")
    if verdict is not None:
        print(f"verdict: {verdict.classification.value} (pole slips: {verdict.pole_slips})")
    return 0


def cmd_trajectory(args) -> int:
    scn = _load(args)
    out = _out_dir(args, scn)
    strategy = _strategy_or_none(args) or scn.limiter.strategy
    samples = full_cycle(strategy, scn.system, n_samples=args.samples)
    _write_csv(
        out / "trajectory.csv",
        ["delta", "re", "im", "segment"],
        ((s.delta, s.z_app.real, s.z_app.imag, s.segment.value) for s in samples),
    )
    summary = {
        "scenario": scenario_to_dict(scn),
        "strategy": strategy.value,
        "boundaries": _boundary_angles(scn),
        "n_samples": args.samples,
    }
    _write_summary(out, summary)
    print(f"trajectory {scn.name} [{strategy.value}]: wrote {out / 'trajectory.csv'}")
    return 0


def cmd_pdelta(args) -> int:
    scn = _load(args)
    out = _out_dir(args, scn)
    curves = {s: analysis.p_delta_curve(s, scn.system, n=args.samples) for s in Strategy}
    ref = curves[Strategy.NONE]
    _write_csv(
        out / "pdelta.csv",
        ["delta", "p_none", "p_variable", "p_adaptive", "variable_active", "adaptive_active"],
        (
            (
                ref.delta[k],
                curves[Strategy.NONE].p[k],
                curves[Strategy.VARIABLE_VI].p[k],
                curves[Strategy.ADAPTIVE_VI].p[k],
                bool(curves[Strategy.VARIABLE_VI].vi_active[k]),
                bool(curves[Strategy.ADAPTIVE_VI].vi_active[k]),
            )
            for k in range(len(ref.delta))
        ),
    )
    summary = {
        "scenario": scenario_to_dict(scn),
        "boundaries": _boundary_angles(scn),
        "peaks": {s.value: curves[s].peak for s in Strategy},
    }
    _write_summary(out, summary)
    print(f"pdelta {scn.name}: wrote {out / 'pdelta.csv'}")
    return 0


def cmd_sweep(args) -> int:
    scn = _load(args)
    out = _out_dir(args, scn)
    h_values = _parse_grid(args.h) or [scn.apcl.h]
    dp_values = _parse_grid(args.dp) or [scn.apcl.d_p]
    rows = []
    for h, d_p in itertools.product(h_values, dp_values):
        variant = replace(scn, apcl=replace(scn.apcl, h=h, d_p=d_p))
        record = dynamics.run_scenario(variant)
        verdict = analysis.classify_stability(record)
        first_swing = _first_swing_period(record)
        rows.append(
            (
                h,
                d_p,
                verdict.classification.value,
                verdict.pole_slips,
                verdict.max_delta_excursion,
                first_swing if first_swing is not None else math.nan,
            )
        )
    _write_csv(
        out / "sweep.csv",
        ["h", "d_p", "verdict", "pole_slips", "max_delta_excursion", "first_swing_period"],
        rows,
    )
    _write_summary(
        out,
        {
            "scenario": scenario_to_dict(scn),
            "boundaries": _boundary_angles(scn),
            "sweep": [
                {
                    "h": r[0],
                    "d_p": r[1],
                    "verdict": r[2],
                    "pole_slips": r[3],
                    "max_delta_excursion": r[4],
                    "first_swing_period": None if math.isnan(r[5]) else r[5],
                }
                for r in rows
            ],
        },
    )
    print(f"sweep {scn.name}: wrote {out / 'sweep.csv'}")
    return 0


def _first_swing_period(record) -> float | None:
    """Time between the first post-event crossing of the baseline angle and the next."""
    if not record.events:
        return None
    t0 = min(ev.time for ev in record.events)
    base = record.delta[0]
    mask = record.t >= t0
    delta = record.delta[mask] - base
    t = record.t[mask]
    crossings = []
    for k in range(1, len(delta)):
        if delta[k - 1] * delta[k] <= 0.0 and delta[k - 1] != delta[k]:
            crossings.append(t[k])
            if len(crossings) == 3:
                break
    if len(crossings) >= 3:
        return float(crossings[2] - crossings[0])
    return None


def _parse_grid(text: str | None) -> list[float] | None:
    if not text:
        return None
    return [float(x) for x in text.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfmswing",
        description="Power-swing simulator and relay analysis for a grid-forming inverter "
        "under virtual-impedance current limiting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, samples_default=None):
        p.add_argument("--scenario", type=Path, help="path to a scenario JSON file")
        p.add_argument("--case", choices=cases.CASE_IDS, help="built-in case id")
        p.add_argument(
            "--strategy",
            choices=[s.value for s in Strategy],
            help="override the scenario's current-limiting strategy",
        )
        p.add_argument("--out", type=Path, help="output directory")
        if samples_default is not None:
            p.add_argument("--samples", type=int, default=samples_default)

    p_sim = sub.add_parser("simulate", help="run the time-domain simulation")
    add_common(p_sim)
    p_sim.add_argument("--dt", type=float, help="integration step in seconds")
    p_sim.set_defaults(func=cmd_simulate)

    p_traj = sub.add_parser("trajectory", help="closed-form full-cycle impedance locus")
    add_common(p_traj, samples_default=1999)
    p_traj.set_defaults(func=cmd_trajectory)

    p_pd = sub.add_parser("pdelta", help="power-angle curves for all strategies")
    add_common(p_pd, samples_default=2048)
    p_pd.set_defaults(func=cmd_pdelta)

    p_sweep = sub.add_parser("sweep", help="grid sweep over control parameters")
    add_common(p_sweep)
    p_sweep.add_argument("--h", help="comma-separated inertia constants")
    p_sweep.add_argument("--dp", help="comma-separated damping coefficients")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GfmSwingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
