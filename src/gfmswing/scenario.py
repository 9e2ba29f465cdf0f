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
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

from .dynamics import ApclParams, Event, EventKind, validate_events
from .errors import ParseError, ValidationError
from .limiter import LimiterConfig
from .network import Phasor, SystemParams
from .relay import Blinder, MhoZone, RelaySettings

SCHEMA_VERSION = 1
MAX_STEPS = 10_000_000  # integration steps per run; the record holds 11 channels per step
RK4_DAMPING_LIMIT = 2.78  # dt/(2*h*d_p) bound: RK4 is stable on the real axis down to about -2.785


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
        if not 0.0 < self.dt < math.inf:
            problems.append("dt must be positive and finite")
        elif self.dt / (2.0 * self.apcl.h) / self.apcl.d_p >= RK4_DAMPING_LIMIT:
            problems.append(
                f"dt/(2*apcl.h*apcl.d_p) must stay below {RK4_DAMPING_LIMIT} for RK4 on the damping pole "
                f"(dt = {self.dt!r} s, apcl.h = {self.apcl.h!r}, apcl.d_p = {self.apcl.d_p!r})"
            )
        if not 0.0 < self.horizon < math.inf:
            problems.append("horizon must be positive and finite")
        if not problems and self.horizon / self.dt > MAX_STEPS:
            problems.append(
                f"horizon/dt = {self.horizon / self.dt:.3g} steps exceeds the cap of {MAX_STEPS}"
            )
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
    except OverflowError:  # an integer beyond the float range
        number = math.inf
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


def _params_to_dict(params) -> dict:
    """One parameter object as a JSON section, its fields in declaration order,
    each written the way ``_field_value`` reads it back."""
    section = {}
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(f.default, Enum):
            value = value.value
        elif isinstance(f.default, complex):
            value = _phasor_to_dict(value)
        section[f.name] = value
    return section


def _field_value(value, default, field: str):
    """A scenario-file value read like the field's default value.

    An Enum is read by value, a phasor through ``_phasor_from_value``, a
    field defaulting to ``None`` as ``null`` or a finite number, anything
    else as a finite number.
    """
    if isinstance(default, Enum):
        try:
            return type(default)(value)
        except ValueError:
            members = [m.value for m in type(default)]
            raise ValidationError(f"{field}: {value!r} is not one of {members}") from None
    if isinstance(default, complex):
        return _phasor_from_value(value, field)
    if default is None and value is None:
        return None
    return _float(value, field)


def _params_from_dict(cls, d, section: str):
    """A parameter object from a JSON section; absent keys keep their defaults
    and keys that are not fields are ignored."""
    d = _object(d, section)
    kwargs = {
        f.name: _field_value(d[f.name], f.default, f"{section}.{f.name}")
        for f in fields(cls)
        if f.name in d
    }
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValidationError(f"{section}: {exc}") from exc


def scenario_to_dict(scn: Scenario) -> dict:
    d = {
        "schema_version": SCHEMA_VERSION,
        "name": scn.name,
        "system": _params_to_dict(scn.system),
        "apcl": _params_to_dict(scn.apcl),
        "limiter": _params_to_dict(scn.limiter),
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
    try:
        return RelaySettings(
            zones=zones,
            outer=_blinder_from_dict(d["outer"], "relay.outer") if "outer" in d else base.outer,
            middle=_blinder_from_dict(d["middle"], "relay.middle") if "middle" in d else base.middle,
            inner=_blinder_from_dict(d["inner"], "relay.inner") if "inner" in d else base.inner,
            psb_cycles=_float(d.get("psb_cycles", base.psb_cycles), "relay.psb_cycles"),
            f_nominal=_float(d.get("f_nominal", base.f_nominal), "relay.f_nominal"),
        )
    except ValueError as exc:
        raise ValidationError(f"relay: {exc}") from exc


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
    limiter = raw.get("limiter", {})
    if isinstance(limiter, dict) and limiter.get("alpha_vi") is not None:
        raise ValidationError(
            "limiter.alpha_vi is not supported; set the virtual-impedance X/R ratio "
            "as system.alpha_vi"
        )
    outputs = raw.get("outputs")
    if outputs is not None and not isinstance(outputs, str):
        raise ValidationError(f"outputs: expected a directory name, got {outputs!r}")
    return Scenario(
        name=str(raw.get("name", name_fallback)),
        system=_params_from_dict(SystemParams, raw.get("system", {}), "system"),
        apcl=_params_from_dict(ApclParams, raw.get("apcl", {}), "apcl"),
        limiter=_params_from_dict(LimiterConfig, limiter, "limiter"),
        events=_events_from_list(raw.get("events", [])),
        horizon=_float(raw["horizon"], "horizon"),
        dt=_float(raw.get("dt", 5e-4), "dt"),
        relay=relay,
        outputs=outputs,
    )


def load_scenario(path: str | Path) -> Scenario:
    """Load and fully validate a scenario file.

    Raises ``ParseError`` for an unreadable file, text that is not UTF-8,
    malformed JSON (with line/column), JSON nested too deep to decode and
    integers too long to convert, and ``ValidationError`` for structurally
    valid JSON that violates the schema or any invariant.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return scenario_from_dict(raw, name_fallback=path.stem)


def save_scenario(scn: Scenario, path: str | Path) -> None:
    """Write a scenario as canonical JSON (round-trips through ``load_scenario``)."""
    Path(path).write_text(json.dumps(scenario_to_dict(scn), indent=2) + "\n")
