"""Built-in scenario library.

Case A (phase jump, stable swing), Case B (line fault, unstable full-cycle
swing), Case C (control-parameter sweep), Case D (stronger grid, shorter
line, detection malfunction) and Case E (setpoint steps probing stability
margins). Suffixes 1/2/3 select the limiting strategy where applicable:
no limiting, variable VI, adaptive VI.
"""

from __future__ import annotations

from .dynamics import ApclParams, Event, EventKind
from .limiter import LimiterConfig, Strategy
from .network import Phasor, SystemParams
from .relay import RelaySettings
from .scenario import Scenario

CASE_D_SCALE = 2.0 / 3.0  # line impedance shrinks from 0.3 to 0.2 pu


def case_d_system() -> SystemParams:
    """Stronger grid and shorter line: 0.3 pu grid, 0.2 pu line."""
    return SystemParams(
        z_g=Phasor.from_polar_deg(0.3, 84.29),
        z_l=Phasor.from_polar_deg(0.2, 84.29),
    )


_APCL_A = ApclParams(h=7.0, d_p=0.05, p0=0.45)
_APCL_B = ApclParams(h=7.0, d_p=0.05, p0=0.7)
_APCL_E = ApclParams(h=5.0, d_p=0.05, p0=0.6)
_JUMP_A = (Event(8.0, EventKind.PHASE_JUMP, -1.59),)
_JUMP_C = (Event(8.0, EventKind.PHASE_JUMP, -1.13),)
_FAULT_B = (Event(4.0, EventKind.FAULT_APPLY, 0.5), Event(4.25, EventKind.FAULT_CLEAR))
_FAULT_D = (Event(8.0, EventKind.FAULT_APPLY, 0.5), Event(8.25, EventKind.FAULT_CLEAR))

# id: (strategy, control loop, events, horizon[, system, relay]); the
# reference system and relay settings where the last two are left out
_CASES = {
    "caseA1": (Strategy.NONE, _APCL_A, _JUMP_A, 28.5),
    "caseA2": (Strategy.VARIABLE_VI, _APCL_A, _JUMP_A, 28.5),
    "caseA3": (Strategy.ADAPTIVE_VI, _APCL_A, _JUMP_A, 28.5),
    "caseB1": (Strategy.NONE, _APCL_B, _FAULT_B, 25.0),
    "caseB2": (Strategy.VARIABLE_VI, _APCL_B, _FAULT_B, 25.0),
    "caseB3": (Strategy.ADAPTIVE_VI, _APCL_B, _FAULT_B, 25.0),
    "caseC1": (Strategy.NONE, ApclParams(h=3.0, d_p=0.05, p0=0.65), _JUMP_C, 28.5),
    "caseC2": (Strategy.VARIABLE_VI, ApclParams(h=9.0, d_p=0.05, p0=0.65), _JUMP_C, 28.5),
    "caseC3": (Strategy.ADAPTIVE_VI, ApclParams(h=3.0, d_p=0.15, p0=0.65), _JUMP_C, 28.5),
    "caseD": (
        Strategy.ADAPTIVE_VI, _APCL_B, _FAULT_D, 28.5, case_d_system(), RelaySettings().scaled(CASE_D_SCALE)
    ),
    "caseE1": (Strategy.NONE, _APCL_E, (Event(8.0, EventKind.POWER_STEP, 0.4),), 28.5),
    "caseE2": (Strategy.NONE, _APCL_E, (Event(8.0, EventKind.POWER_STEP, 0.5),), 28.5),
}

CASE_IDS = tuple(_CASES)


def build_case(case_id: str) -> Scenario:
    """Instantiate a library case."""
    try:
        strategy, apcl, events, horizon, *grid = _CASES[case_id]
    except KeyError:
        raise KeyError(f"unknown case id {case_id!r}; available: {', '.join(CASE_IDS)}") from None
    system, relay = grid or (SystemParams(), RelaySettings())
    return Scenario(
        name=case_id,
        system=system,
        apcl=apcl,
        limiter=LimiterConfig(strategy=strategy),
        events=events,
        horizon=horizon,
        relay=relay,
    )
