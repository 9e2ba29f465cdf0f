"""Built-in scenario library.

Case A (phase jump, stable swing), Case B (line fault, unstable full-cycle
swing), Case C (control-parameter sweep), Case D (stronger grid, shorter
line, detection malfunction) and Case E (setpoint steps probing stability
margins). Suffixes 1/2/3 select the limiting strategy where applicable:
no limiting, variable VI, adaptive VI.
"""

from __future__ import annotations

from dataclasses import replace

from .dynamics import ApclParams, Event, EventKind
from .limiter import LimiterConfig, Strategy
from .network import Phasor, SystemParams
from .relay import RelaySettings
from .scenario import Scenario

CASE_D_SCALE = 2.0 / 3.0  # line impedance shrinks from 0.3 to 0.2 pu

_STRATEGY_BY_SUFFIX = {"1": Strategy.NONE, "2": Strategy.VARIABLE_VI, "3": Strategy.ADAPTIVE_VI}


def _scenario(name, apcl, events, strategy, system=SystemParams(), relay=RelaySettings(), horizon=28.5):
    return Scenario(
        name=name,
        system=system,
        apcl=apcl,
        limiter=LimiterConfig(strategy=strategy),
        events=tuple(events),
        horizon=horizon,
        relay=relay,
    )


def _case_a(suffix: str) -> Scenario:
    return _scenario(
        f"caseA{suffix}",
        ApclParams(h=7.0, d_p=0.05, p0=0.45),
        [Event(8.0, EventKind.PHASE_JUMP, -1.59)],
        _STRATEGY_BY_SUFFIX[suffix],
    )


def _case_b(suffix: str) -> Scenario:
    return _scenario(
        f"caseB{suffix}",
        ApclParams(h=7.0, d_p=0.05, p0=0.7),
        [Event(4.0, EventKind.FAULT_APPLY, 0.5), Event(4.25, EventKind.FAULT_CLEAR)],
        _STRATEGY_BY_SUFFIX[suffix],
        horizon=25.0,
    )


def _case_c(suffix: str) -> Scenario:
    apcl = {
        "1": ApclParams(h=3.0, d_p=0.05, p0=0.65),
        "2": ApclParams(h=9.0, d_p=0.05, p0=0.65),
        "3": ApclParams(h=3.0, d_p=0.15, p0=0.65),
    }[suffix]
    return _scenario(
        f"caseC{suffix}",
        apcl,
        [Event(8.0, EventKind.PHASE_JUMP, -1.13)],
        _STRATEGY_BY_SUFFIX[suffix],
    )


def case_d_system() -> SystemParams:
    """Stronger grid and shorter line: 0.3 pu grid, 0.2 pu line."""
    return SystemParams(
        z_g=Phasor.from_polar_deg(0.3, 84.29),
        z_l=Phasor.from_polar_deg(0.2, 84.29),
    )


def _case_d() -> Scenario:
    return _scenario(
        "caseD",
        ApclParams(h=7.0, d_p=0.05, p0=0.7),
        [Event(8.0, EventKind.FAULT_APPLY, 0.5), Event(8.25, EventKind.FAULT_CLEAR)],
        Strategy.ADAPTIVE_VI,
        system=case_d_system(),
        relay=RelaySettings().scaled(CASE_D_SCALE),
        horizon=28.5,
    )


def _case_e(suffix: str) -> Scenario:
    dp0 = {"1": 0.4, "2": 0.5}[suffix]
    return _scenario(
        f"caseE{suffix}",
        ApclParams(h=5.0, d_p=0.05, p0=0.6),
        [Event(8.0, EventKind.POWER_STEP, dp0)],
        Strategy.NONE,
        horizon=28.5,
    )


_BUILDERS = {
    "caseA1": lambda: _case_a("1"),
    "caseA2": lambda: _case_a("2"),
    "caseA3": lambda: _case_a("3"),
    "caseB1": lambda: _case_b("1"),
    "caseB2": lambda: _case_b("2"),
    "caseB3": lambda: _case_b("3"),
    "caseC1": lambda: _case_c("1"),
    "caseC2": lambda: _case_c("2"),
    "caseC3": lambda: _case_c("3"),
    "caseD": _case_d,
    "caseE1": lambda: _case_e("1"),
    "caseE2": lambda: _case_e("2"),
}

CASE_IDS = tuple(_BUILDERS)


def build_case(case_id: str, strategy: Strategy | None = None) -> Scenario:
    """Instantiate a library case, optionally overriding its limiting strategy."""
    try:
        scenario = _BUILDERS[case_id]()
    except KeyError:
        raise KeyError(f"unknown case id {case_id!r}; available: {', '.join(CASE_IDS)}") from None
    if strategy is not None and strategy is not scenario.limiter.strategy:
        scenario = replace(
            scenario,
            name=f"{scenario.name}-{strategy.value}",
            limiter=replace(scenario.limiter, strategy=strategy),
        )
    return scenario
