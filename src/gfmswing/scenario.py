"""Scenario definition and JSON (de)serialization.

A scenario bundles everything one simulation run needs: system parameters,
control-loop parameters, limiter configuration, an event schedule, horizon
and step size, and optional relay settings. The on-disk format is JSON with
a ``schema_version`` field; omitted sections and fields fall back to the
reference test-system defaults. The format follows from the dataclass
fields alone: ``_to_json`` writes and ``_from_json`` reads every section.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from functools import cache
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .dynamics import ApclParams, Event, event_step, validate_events
from .errors import ParseError, ValidationError
from .limiter import LimiterConfig
from .network import Phasor, SystemParams
from .relay import RelaySettings

SCHEMA_VERSION = 1
MAX_STEPS = 10_000_000  # integration steps per run; the record holds 11 channels per step
RK4_DAMPING_LIMIT = 2.78  # dt/(2*h*d_p) bound: RK4 is stable on the real axis down to about -2.785


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """One run's inputs; its last event must be due by the midpoint of the last step (``event_step``)."""

    name: str
    system: SystemParams = SystemParams()
    apcl: ApclParams = ApclParams()
    limiter: LimiterConfig = LimiterConfig()
    events: tuple[Event, ...] = ()
    horizon: float
    dt: float = 5e-4
    relay: RelaySettings | None = None

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
        if problems:
            raise ValidationError("; ".join(problems))
        validate_events(self.events)
        if self.events:
            t_last, steps = self.events[-1].time, round(self.horizon / self.dt)
            if t_last > self.horizon or event_step(t_last, self.dt) > steps:  # the first keeps time/dt finite
                raise ValidationError(
                    f"event time {t_last!r} s is past {(steps - 0.5) * self.dt!r} s, the last time a step "
                    f"can apply it (horizon = {self.horizon!r} s, dt = {self.dt!r} s)"
                )


def _shown(value) -> str:
    """``repr(value)`` cut to about 60 characters, for echoing input in an error."""
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:57]}..."


def _float(value, field: str) -> float:
    """A finite float from a JSON number (not a bool or text), or ``ValidationError`` naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{field}: expected a number, got {_shown(value)}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{field}: expected a finite number, got {_shown(value)}")
    return number


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
    raise ValidationError(f"{field}: cannot interpret {_shown(value)} as a phasor")


_type_hints = cache(get_type_hints)


def _to_json(value, tp):
    """``value`` of type ``tp`` as JSON data: a dataclass as an object in field
    order, a tuple as a list, an Enum by value, a phasor as ``{"re", "im"}``."""
    if value is None:
        return None
    if is_dataclass(tp):
        hints = _type_hints(tp)
        return {f.name: _to_json(getattr(value, f.name), hints[f.name]) for f in fields(tp)}
    origin = get_origin(tp)
    if origin is tuple:
        return [_to_json(item, get_args(tp)[0]) for item in value]
    if origin is UnionType:  # X | None
        return _to_json(value, get_args(tp)[0])
    if isinstance(value, Enum):
        return value.value
    if tp is Phasor:
        return {"re": value.real, "im": value.imag}
    return value


def _from_json(tp, value, field: str):
    """A ``tp`` read from JSON data the way ``_to_json`` writes it, or
    ``ValidationError`` naming the dotted ``field`` path.

    Absent dataclass fields take their defaults and keys that are not fields
    are ignored; a phasor takes any spelling ``_phasor_from_value`` reads.
    """
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ValidationError(f"{field}: expected a JSON object, got {_shown(value)}")
        hints, kwargs = _type_hints(tp), {}
        for f in fields(tp):
            path = f"{field}.{f.name}" if field else f.name
            if f.name in value:
                kwargs[f.name] = _from_json(hints[f.name], value[f.name], path)
            elif f.default is MISSING:
                raise ValidationError(f"missing required field: {path}")
        try:
            return tp(**kwargs)
        except ValueError as exc:
            raise ValidationError(f"{field}: {exc}") from exc
    origin = get_origin(tp)
    if origin is tuple:
        if not isinstance(value, list):
            raise ValidationError(f"{field}: expected a list, got {_shown(value)}")
        return tuple(_from_json(get_args(tp)[0], item, f"{field}[{i}]") for i, item in enumerate(value))
    if origin is UnionType:  # X | None
        return None if value is None else _from_json(get_args(tp)[0], value, field)
    if issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            raise ValidationError(f"{field}: {_shown(value)} is not one of {[m.value for m in tp]}") from None
    if tp is Phasor:
        return _phasor_from_value(value, field)
    if tp is str:
        if not isinstance(value, str):
            raise ValidationError(f"{field}: expected a string, got {_shown(value)}")
        return value
    return _float(value, field)


def scenario_to_dict(scn: Scenario) -> dict:
    """A scenario as the JSON data of a schema-v1 file; ``relay`` is left out when unset."""
    d = {"schema_version": SCHEMA_VERSION, **_to_json(scn, Scenario)}
    return {key: value for key, value in d.items() if value is not None}


def scenario_from_dict(raw: dict, name_fallback: str = "scenario") -> Scenario:
    """A validated scenario from the JSON data of a scenario file; absent
    sections take the reference values, ``"relay": "table1"`` the reference
    relay settings."""
    if not isinstance(raw, dict):
        raise ValidationError(f"scenario root must be a JSON object, got {type(raw).__name__}")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:  # True and 1.0 both equal 1
        raise ValidationError(f"unsupported schema_version {_shown(version)}")
    limiter = raw.get("limiter", {})
    if isinstance(limiter, dict) and limiter.get("alpha_vi") is not None:
        raise ValidationError(
            "limiter.alpha_vi is not supported; set the virtual-impedance X/R ratio "
            "as system.alpha_vi"
        )
    raw = {"name": name_fallback, **raw}
    if raw.get("relay") == "table1":
        raw["relay"] = {}
    return _from_json(Scenario, raw, "")


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
