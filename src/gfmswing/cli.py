"""Scenario-driven command line front end.

Subcommands: ``simulate`` (time-domain record plus relay log),
``trajectory`` (closed-form full-cycle locus), ``pdelta`` (power-angle
curves), ``sweep`` (inertia/damping/step grid with verdicts). Every command
writes CSV files plus a ``summary.json`` into the output directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import analysis, cases, dynamics
from .errors import GfmSwingError, ValidationError
from .limiter import Strategy, critical_angle
from .scenario import Scenario, _float, _shown, load_scenario, scenario_to_dict
from .trajectory import Segment, _cycle_loci

MAX_SAMPLES = 1_000_000  # --samples cap: trajectory and pdelta hold every sample in memory
CSV_CHUNK_ROWS = 4096  # rows converted to Python values at a time; whole columns would double peak memory


def _load(args) -> Scenario:
    """The scenario of ``--scenario`` or ``--case``, never both; a ``--strategy`` other than its own
    replaces its strategy and renames the run ``<name>-<strategy>``."""
    if args.scenario is not None and args.case is not None:
        raise GfmSwingError("--scenario and --case name two runs; give one of them")
    if args.scenario is not None:
        scn = load_scenario(args.scenario)
    elif args.case is not None:
        scn = cases.build_case(args.case)
    else:
        raise GfmSwingError("one of --scenario or --case is required")
    if args.strategy in (None, scn.limiter.strategy.value):
        return scn
    limiter = replace(scn.limiter, strategy=Strategy(args.strategy))
    return replace(scn, name=f"{scn.name}-{args.strategy}", limiter=limiter)


def _samples(args) -> int:
    if not 3 <= args.samples <= MAX_SAMPLES:
        raise ValidationError(f"--samples: expected 3 to {MAX_SAMPLES}, got {args.samples}")
    return args.samples


def _out_dir(args, scn: Scenario) -> Path:
    path = Path(args.out or f"out/{scn.name}")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # a file in the way, a bad name, no permission
        reason = getattr(exc, "strerror", exc)  # an OSError's text repeats the whole path
        raise ValidationError(f"output directory {_shown(str(path))}: {reason}") from exc
    return path


def _write_csv(path: Path, columns: dict) -> None:
    """A CSV file from a header -> column mapping, in the bytes ``csv.writer`` writes.

    Array columns become Python values chunk by chunk, bool arrays as 0/1;
    sequence columns hold Python values already (``None`` is an empty cell).
    Cells are joined as they are: no header or string value a command writes
    holds a comma, a quote or a line break, so none needs quoting.
    """
    cols = [c.view(np.uint8) if isinstance(c, np.ndarray) and c.dtype == bool else c for c in columns.values()]
    with path.open("w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        for start in range(0, len(cols[0]), CSV_CHUNK_ROWS):
            chunks = (c[start : start + CSV_CHUNK_ROWS] for c in cols)
            cells = (
                map(repr, c.tolist()) if isinstance(c, np.ndarray) else ("" if v is None else str(v) for v in c)
                for c in chunks
            )
            # the chunk's lists live only inside this call, so they are freed before the next chunk's
            fh.writelines(",".join(row) + "\r\n" for row in zip(*cells))


def _finish(out: Path, scn: Scenario, label: str, files: dict, **summary) -> None:
    """Write each ``file name -> columns`` CSV file, then ``summary.json`` with the
    scenario, its boundary angles and ``summary``, and report the first file."""
    for name, columns in files.items():
        _write_csv(out / name, columns)
    levels = {"delta_th": scn.system.i_th, "delta_lim": scn.system.i_max}
    boundaries = {name: critical_angle(scn.system, level) for name, level in levels.items()}
    payload = {"scenario": scenario_to_dict(scn), "boundaries": boundaries, **summary}
    (out / "summary.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"{label}: wrote {out / next(iter(files))}")


def _verdict(record) -> dict:
    """Verdict fields of a summary; all ``None`` where ``classify_stability`` gives no verdict."""
    verdict = analysis.classify_stability(record)
    if verdict is None:
        return {"verdict": None, "max_delta_excursion": None, "pole_slips": None}
    return {
        "verdict": verdict.classification.value,
        "max_delta_excursion": verdict.max_delta_excursion,
        "pole_slips": verdict.pole_slips,
    }


def cmd_simulate(args) -> int:
    scn = _load(args)
    if args.dt is not None:
        scn = replace(scn, dt=args.dt)
    out = _out_dir(args, scn)
    record = dynamics.run_scenario(scn)
    channels = [f.name for f in fields(record) if isinstance(getattr(record, f.name), np.ndarray)]
    log = {h: [entry[k] for entry in record.relay_events] for k, h in enumerate(("t", "event", "element"))}
    verdict = _verdict(record)
    _finish(
        out,
        scn,
        f"simulate {scn.name}",
        {"record.csv": {name: getattr(record, name) for name in channels}, "relay_events.csv": log},
        **verdict,
        relay_events=[list(entry) for entry in record.relay_events],
        psb_ever=bool(record.psb.any()),
        ost_ever=bool(record.ost.any()),
    )
    if verdict["verdict"] is not None:
        print(f"verdict: {verdict['verdict']} (pole slips: {verdict['pole_slips']})")
    return 0


def cmd_trajectory(args) -> int:
    scn, n = _load(args), _samples(args)
    out = _out_dir(args, scn)
    strategy = scn.limiter.strategy
    delta, z_app, active, limited = _cycle_loci(strategy, scn.system, n, scn.limiter.k_vi)
    segment = [limited.value if on else Segment.INACTIVE.value for on in active.tolist()]
    columns = {"delta": delta, "re": z_app.real, "im": z_app.imag, "segment": segment}
    label = f"trajectory {scn.name} [{strategy.value}]"
    _finish(out, scn, label, {"trajectory.csv": columns}, strategy=strategy.value, n_samples=n)
    return 0


def cmd_pdelta(args) -> int:
    scn, n = _load(args), _samples(args)
    out = _out_dir(args, scn)
    curves = {s: analysis.p_delta_curve(s, scn.system, n=n, gain=scn.limiter.k_vi) for s in Strategy}
    columns = {
        "delta": curves[Strategy.NONE].delta,
        **{f"p_{s.value}": curves[s].p for s in Strategy},
        "variable_active": curves[Strategy.VARIABLE_VI].vi_active,
        "adaptive_active": curves[Strategy.ADAPTIVE_VI].vi_active,
    }
    peaks = {s.value: curves[s].peak for s in Strategy}
    _finish(out, scn, f"pdelta {scn.name}", {"pdelta.csv": columns}, peaks=peaks)
    return 0


def cmd_sweep(args) -> int:
    scn = _load(args)
    h_values = _parse_grid(args.h, "--h") or [scn.apcl.h]
    dp_values = _parse_grid(args.dp, "--dp") or [scn.apcl.d_p]
    try:
        pairs = itertools.product(h_values, dp_values)
        grid = [replace(scn, apcl=replace(scn.apcl, h=h, d_p=d_p), relay=None) for h, d_p in pairs]
    except ValueError as exc:
        raise ValidationError(f"--h/--dp: {exc}") from exc
    out = _out_dir(args, scn)
    rows = []
    for point in grid:
        record = dynamics.run_scenario(point)
        row = {"h": point.apcl.h, "d_p": point.apcl.d_p, **_verdict(record)}
        rows.append({**row, "first_swing_period": _first_swing_period(record)})
    header = ["h", "d_p", "verdict", "pole_slips", "max_delta_excursion", "first_swing_period"]
    columns = {key: [row[key] for row in rows] for key in header}
    _finish(out, scn, f"sweep {scn.name}", {"sweep.csv": columns}, sweep=rows)
    return 0


def _first_swing_period(record) -> float | None:
    """Time between the first post-event crossing of the baseline angle and the
    third: a sign change, or a touch of zero, between distinct samples."""
    if not record.events:
        return None
    start = dynamics.event_step(record.events[0].time, record.dt)
    d, t = record.delta[start:] - record.delta[0], record.t[start:]
    k = np.flatnonzero((d[:-1] * d[1:] <= 0.0) & (d[:-1] != d[1:])) + 1
    return float(t[k[2]] - t[k[0]]) if len(k) >= 3 else None


def _parse_grid(text: str | None, flag: str) -> list[float] | None:
    """The numbers of a grid flag, ``None`` where it is not given; empty cells are skipped."""
    if text is None:
        return None
    try:
        values = [_float(float(x), flag) for x in text.split(",") if x.strip()]
    except ValueError:  # text that is not a float
        values = []
    if not values:
        raise ValidationError(f"{flag}: expected comma-separated numbers, got {_shown(text)}")
    return values


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
