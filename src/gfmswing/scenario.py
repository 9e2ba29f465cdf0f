"""Scenario definition and JSON (de)serialization.

A scenario bundles everything one simulation run needs: system parameters,
control-loop parameters, limiter configuration, an event schedule, horizon
and step size, and optional relay settings. The on-disk format is JSON with
a ``schema_version`` field; omitted sections fall back to the reference
test-system defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .dynamics import ApclParams, Event, EventKind, validate_events
from .errors import ParseError, ValidationError
from .limiter import LimiterConfig, Strategy
from .network import Phasor, SystemParams
from .relay import Blinder, MhoZone, RelaySettings

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Scenario:
    name: str
    system: SystemParams
    apcl: ApclParams
    limiter: LimiterConfig
    events: tuple[Event, ...]
    horizon: float
    dt: float = 5e-4
    relay: RelaySettings | None = None
    outputs: str | None = None

    def __post_init__(self):
        problems = []
        if self.dt <= 0.0:
            problems.append("dt must be positive")
        if self.horizon <= 0.0:
            problems.append("horizon must be positive")
        if self.events:
            t_last = max(ev.time for ev in self.events)
            if self.horizon <= t_last:
                problems.append(
                    f"horizon {self.horizon!r} must exceed the last event time {t_last!r}"
                )
        if self.apcl.p0 <= 0.0:
            problems.append("apcl.p0 (initial power setpoint) must be positive")
        if problems:
            raise ValidationError("; ".join(problems))
        validate_events(self.events)


def _float(value, field: str) -> float:
    """A finite float read from a scenario file, or ``ValidationError`` naming the field."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{field}: expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ValidationError(f"{field}: expected a finite number, got {value!r}")
    return number


def _object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{field}: expected a JSON object, got {value!r}")
    return value


def _phasor_to_dict(p: complex) -> dict:
    return {"re": p.real, "im": p.imag}


def _phasor_from_value(value, field: str) -> Phasor:
    if isinstance(value, dict):
        if "re" in value and "im" in value:
            return Phasor(_float(value["re"], f"{field}.re"), _float(value["im"], f"{field}.im"))
        if "mag" in value and "angle_deg" in value:
            mag = _float(value["mag"], f"{field}.mag")
            return Phasor.from_polar_deg(mag, _float(value["angle_deg"], f"{field}.angle_deg"))
        raise ValidationError(f"{field}: expected re/im or mag/angle_deg keys")
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return Phasor(_float(value[0], f"{field}[0]"), _float(value[1], f"{field}[1]"))
    raise ValidationError(f"{field}: cannot interpret {value!r} as a phasor")


def scenario_to_dict(scn: Scenario) -> dict:
    sys_p = scn.system
    d = {
        "schema_version": SCHEMA_VERSION,
        "name": scn.name,
        "system": {
            "e_ref": _phasor_to_dict(sys_p.e_ref),
            "v_g_mag": sys_p.v_g_mag,
            "z_g": _phasor_to_dict(sys_p.z_g),
            "z_l": _phasor_to_dict(sys_p.z_l),
            "z_tr": _phasor_to_dict(sys_p.z_tr),
            "i_max": sys_p.i_max,
            "i_th": sys_p.i_th,
            "alpha_vi": sys_p.alpha_vi,
        },
        "apcl": {
            "h": scn.apcl.h,
            "d_p": scn.apcl.d_p,
            "p0": scn.apcl.p0,
            "omega_n": scn.apcl.omega_n,
            "freq_clamp": scn.apcl.freq_clamp,
        },
        "limiter": {
            "strategy": scn.limiter.strategy.value,
            "k_vi": scn.limiter.k_vi,
            "kp": scn.limiter.kp,
            "ki": scn.limiter.ki,
            "delta_v_max": scn.limiter.delta_v_max,
        },
        "events": [
            {"time": ev.time, "kind": ev.kind.value, "value": ev.value} for ev in scn.events
        ],
        "horizon": scn.horizon,
        "dt": scn.dt,
    }
    if scn.relay is not None:
        r = scn.relay
        d["relay"] = {
            "zones": [
                {"reach": _phasor_to_dict(z.reach), "time_delay": z.time_delay} for z in r.zones
            ],
            "outer": _blinder_to_dict(r.outer),
            "middle": _blinder_to_dict(r.middle),
            "inner": _blinder_to_dict(r.inner),
            "psb_cycles": r.psb_cycles,
            "f_nominal": r.f_nominal,
        }
    if scn.outputs is not None:
        d["outputs"] = scn.outputs
    return d


def _blinder_to_dict(b: Blinder) -> dict:
    return {"rgt": b.rgt, "lft": b.lft, "fwd": b.fwd, "rev": b.rev, "tilt_deg": math.degrees(b.tilt)}


def _blinder_from_dict(d: dict, field: str) -> Blinder:
    d = _object(d, field)
    try:
        return Blinder(
            rgt=_float(d["rgt"], f"{field}.rgt"),
            lft=_float(d["lft"], f"{field}.lft"),
            fwd=_float(d["fwd"], f"{field}.fwd"),
            rev=_float(d["rev"], f"{field}.rev"),
            tilt=math.radians(_float(d["tilt_deg"], f"{field}.tilt_deg")),
        )
    except KeyError as exc:
        raise ValidationError(f"{field}: missing blinder key {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"{field}: {exc}") from exc


def _system_from_dict(d: dict) -> SystemParams:
    d = _object(d, "system")
    defaults = SystemParams()
    kwargs = {}
    for key in ("v_g_mag", "i_max", "i_th"):
        kwargs[key] = _float(d.get(key, getattr(defaults, key)), f"system.{key}")
    alpha = d.get("alpha_vi", defaults.alpha_vi)
    kwargs["alpha_vi"] = None if alpha is None else _float(alpha, "system.alpha_vi")
    for key in ("e_ref", "z_g", "z_l", "z_tr"):
        kwargs[key] = (
            _phasor_from_value(d[key], f"system.{key}") if key in d else getattr(defaults, key)
        )
    try:
        return SystemParams(**kwargs)
    except ValueError as exc:
        raise ValidationError(f"system: {exc}") from exc


def _apcl_from_dict(d: dict) -> ApclParams:
    d = _object(d, "apcl")
    defaults = ApclParams()
    kwargs = {
        key: _float(d.get(key, getattr(defaults, key)), f"apcl.{key}")
        for key in ("h", "d_p", "p0", "omega_n", "freq_clamp")
    }
    try:
        return ApclParams(**kwargs)
    except ValueError as exc:
        raise ValidationError(f"apcl: {exc}") from exc


def _limiter_from_dict(d: dict) -> LimiterConfig:
    d = _object(d, "limiter")
    if d.get("alpha_vi") is not None:
        raise ValidationError(
            "limiter.alpha_vi is not supported; set the virtual-impedance X/R ratio "
            "as system.alpha_vi"
        )
    defaults = LimiterConfig()
    strategy_raw = d.get("strategy", defaults.strategy.value)
    try:
        strategy = Strategy(strategy_raw)
    except ValueError as exc:
        raise ValidationError(
            f"limiter.strategy: {strategy_raw!r} is not one of "
            f"{[s.value for s in Strategy]}"
        ) from exc
    k_vi = d.get("k_vi", defaults.k_vi)
    try:
        return LimiterConfig(
            strategy=strategy,
            k_vi=None if k_vi is None else _float(k_vi, "limiter.k_vi"),
            kp=_float(d.get("kp", defaults.kp), "limiter.kp"),
            ki=_float(d.get("ki", defaults.ki), "limiter.ki"),
            delta_v_max=_float(d.get("delta_v_max", defaults.delta_v_max), "limiter.delta_v_max"),
        )
    except ValueError as exc:
        raise ValidationError(f"limiter: {exc}") from exc


def _events_from_list(items: list) -> tuple[Event, ...]:
    if not isinstance(items, list):
        raise ValidationError(f"events: expected a list, got {items!r}")
    events = []
    for i, item in enumerate(items):
        item = _object(item, f"events[{i}]")
        try:
            kind = EventKind(item["kind"])
        except (KeyError, ValueError) as exc:
            raise ValidationError(f"events[{i}]: bad or missing kind ({exc})") from exc
        if "time" not in item:
            raise ValidationError(f"events[{i}]: missing time")
        value = item.get("value")
        events.append(
            Event(
                _float(item["time"], f"events[{i}].time"),
                kind,
                None if value is None else _float(value, f"events[{i}].value"),
            )
        )
    return tuple(events)


def _relay_from_dict(d: dict) -> RelaySettings:
    base = RelaySettings.table1()
    zones = base.zones
    if "zones" in d:
        try:
            zones = tuple(
                MhoZone(
                    _phasor_from_value(z["reach"], f"relay.zones[{i}].reach"),
                    _float(z.get("time_delay", 0.0), f"relay.zones[{i}].time_delay"),
                )
                for i, z in enumerate(d["zones"])
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"relay.zones: missing or malformed entry ({exc})") from exc
    return RelaySettings(
        zones=zones,
        outer=_blinder_from_dict(d["outer"], "relay.outer") if "outer" in d else base.outer,
        middle=_blinder_from_dict(d["middle"], "relay.middle") if "middle" in d else base.middle,
        inner=_blinder_from_dict(d["inner"], "relay.inner") if "inner" in d else base.inner,
        psb_cycles=_float(d.get("psb_cycles", base.psb_cycles), "relay.psb_cycles"),
        f_nominal=_float(d.get("f_nominal", base.f_nominal), "relay.f_nominal"),
    )


def scenario_from_dict(raw: dict, name_fallback: str = "scenario") -> Scenario:
    if not isinstance(raw, dict):
        raise ValidationError(f"scenario root must be a JSON object, got {type(raw).__name__}")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {version!r}")
    if "horizon" not in raw:
        raise ValidationError("missing required field: horizon")
    relay = None
    if "relay" in raw and raw["relay"] is not None:
        relay = _relay_from_dict(raw["relay"]) if isinstance(raw["relay"], dict) else (
            RelaySettings.table1() if raw["relay"] == "table1" else None
        )
        if relay is None:
            raise ValidationError(f"relay: cannot interpret {raw['relay']!r}")
    outputs = raw.get("outputs")
    if outputs is not None and not isinstance(outputs, str):
        raise ValidationError(f"outputs: expected a directory name, got {outputs!r}")
    return Scenario(
        name=str(raw.get("name", name_fallback)),
        system=_system_from_dict(raw.get("system", {})),
        apcl=_apcl_from_dict(raw.get("apcl", {})),
        limiter=_limiter_from_dict(raw.get("limiter", {})),
        events=_events_from_list(raw.get("events", [])),
        horizon=_float(raw["horizon"], "horizon"),
        dt=_float(raw.get("dt", 5e-4), "dt"),
        relay=relay,
        outputs=outputs,
    )


def load_scenario(path: str | Path) -> Scenario:
    """Load and fully validate a scenario file.

    Raises ``ParseError`` for unreadable JSON (with line/column) and
    ``ValidationError`` for structurally valid JSON that violates the
    schema or any invariant.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return scenario_from_dict(raw, name_fallback=path.stem)


def save_scenario(scn: Scenario, path: str | Path) -> None:
    """Write a scenario as canonical JSON (round-trips through ``load_scenario``)."""
    Path(path).write_text(json.dumps(scenario_to_dict(scn), indent=2) + "\n")
