"""Time-domain simulation of the active-power control loop.

The inverter's phase comes from a second-order swing emulation: the
frequency state integrates the power imbalance (with damping), the power
angle integrates the frequency deviation, and the electrical power at each
instant comes from the quasi-static network solve under the configured
current-limiting strategy. Events inject phase jumps, line faults and
setpoint steps; the frequency deviation is hard-clamped after every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ValidationError
from .limiter import (
    AdaptiveState,
    LimiterConfig,
    Strategy,
    ViValue,
    adaptive_vi_step,
    solve_limited_current,
    solve_variable_vi_current,
    variable_vi_gain,
    vi_gain_from_drop,
)
from .network import NetworkSolution, SystemParams, active_power, solve_faulted
from .relay import RelayState, relay_step


@dataclass(frozen=True)
class ApclParams:
    """Gains and setpoints of the active power control loop."""

    h: float = 7.0
    d_p: float = 0.05
    p0: float = 0.45
    omega_n: float = 2.0 * math.pi * 60.0
    freq_clamp: float = 0.01

    def __post_init__(self):
        problems = [
            f"{name} must be positive and finite"
            for name in ("h", "d_p", "freq_clamp", "omega_n")
            if not 0.0 < getattr(self, name) < math.inf
        ]
        if not math.isfinite(self.p0):
            problems.append("p0 must be finite")
        if problems:
            raise ValueError("; ".join(problems))


class EventKind(Enum):
    PHASE_JUMP = "phase_jump"
    FAULT_APPLY = "fault_apply"
    FAULT_CLEAR = "fault_clear"
    POWER_STEP = "power_step"


@dataclass(frozen=True)
class Event:
    """Scheduled disturbance.

    ``value`` is the jump in radians for PHASE_JUMP, the fault location as
    a fraction along the line for FAULT_APPLY (default 0.5), and the
    setpoint increment for POWER_STEP.
    """

    time: float
    kind: EventKind
    value: float | None = None


def validate_events(events) -> tuple[Event, ...]:
    """Check ordering and fault pairing; returns the events as a tuple."""
    events = tuple(events)
    problems = []
    faulted = False
    last_t = -math.inf
    for ev in events:
        if not math.isfinite(ev.time) or (ev.value is not None and not math.isfinite(ev.value)):
            problems.append(f"event time and value must be finite (got {ev.time!r}, {ev.value!r})")
        elif ev.time < last_t:
            problems.append(f"event times must be non-decreasing (got {ev.time!r} after {last_t!r})")
        last_t = ev.time
        if ev.kind is EventKind.FAULT_APPLY:
            if faulted:
                problems.append("fault_apply while a fault is already active")
            if ev.value is not None and not 0.0 <= ev.value <= 1.0:
                problems.append(f"fault_apply location must lie in [0, 1] (got {ev.value!r})")
            faulted = True
        elif ev.kind is EventKind.FAULT_CLEAR:
            if not faulted:
                problems.append("fault_clear without a preceding fault_apply")
            faulted = False
        elif ev.kind is EventKind.PHASE_JUMP and ev.value is None:
            problems.append("phase_jump requires a value in radians")
        elif ev.kind is EventKind.POWER_STEP and ev.value is None:
            problems.append("power_step requires a setpoint increment")
    if problems:
        raise ValidationError("; ".join(problems))
    return events


@dataclass(frozen=True)
class SimState:
    """Instantaneous simulation state.

    ``delta`` is kept unwrapped so pole slips accumulate; ``p0`` is the live
    setpoint (power steps modify it); ``next_event`` is the position in the
    event schedule; ``adaptive`` is the adaptive strategy's PI state.
    """

    delta: float
    omega_dev: float
    t: float = 0.0
    p0: float = 0.0
    faulted: bool = False
    fault_fraction: float = 0.5
    next_event: int = 0
    adaptive: AdaptiveState = AdaptiveState()


@dataclass
class SimulationRecord:
    """Uniformly sampled simulation channels plus relay outputs."""

    t: np.ndarray
    delta: np.ndarray
    omega_dev: np.ndarray
    i_mag: np.ndarray
    zapp_re: np.ndarray
    zapp_im: np.ndarray
    p_e: np.ndarray
    vi_r: np.ndarray
    vi_x: np.ndarray
    psb: np.ndarray
    ost: np.ndarray
    relay_events: tuple[tuple[float, str, str], ...]
    events: tuple[Event, ...]
    dt: float

    def __len__(self) -> int:
        return len(self.t)


def swing_derivatives(state: SimState, p_e: float, params: ApclParams) -> tuple[float, float]:
    """Rates of the frequency deviation and of the power angle."""
    d_omega = (state.p0 - p_e - state.omega_dev / params.d_p) / (2.0 * params.h)
    d_delta = params.omega_n * state.omega_dev
    return d_omega, d_delta


def _limiter_gain(cfg: LimiterConfig, adaptive: AdaptiveState, params: SystemParams) -> float:
    """VI gain of the configured strategy; the adaptive one reads its PI state's drop."""
    if cfg.strategy is Strategy.VARIABLE_VI:
        return cfg.k_vi if cfg.k_vi is not None else variable_vi_gain(params)
    if cfg.strategy is Strategy.ADAPTIVE_VI:
        return vi_gain_from_drop(adaptive.delta_v, params)
    return 0.0


def electrical_power(
    delta: float,
    gain: float,
    params: SystemParams,
    faulted: bool = False,
    fault_fraction: float = 0.5,
) -> tuple[float, NetworkSolution, ViValue]:
    """Electrical power (and full solution) with a virtual-impedance gain.

    The loop current is solved self-consistently with the VI of ``gain``
    (zero gives the unlimited loop). During a fault the loop runs to the
    zero-voltage node instead of the grid source.
    """
    if not faulted:
        _, vi, sol = solve_variable_vi_current(delta, params, gain)
        return active_power(sol), sol, vi
    z_ext = complex(params.z_tr) + fault_fraction * complex(params.z_l)
    _, vi = solve_limited_current(complex(params.e_ref), z_ext, gain, params.vi_ratio, params.i_th)
    sol = solve_faulted(vi.as_complex, params, fault_fraction)
    return active_power(sol), sol, vi


def _apply_events(state: SimState, dt: float, events: tuple[Event, ...]) -> SimState:
    delta, p0 = state.delta, state.p0
    faulted, frac = state.faulted, state.fault_fraction
    idx = state.next_event
    while idx < len(events) and events[idx].time <= state.t + 0.5 * dt:
        ev = events[idx]
        if ev.kind is EventKind.PHASE_JUMP:
            delta += ev.value
        elif ev.kind is EventKind.FAULT_APPLY:
            faulted = True
            if ev.value is not None:
                frac = ev.value
        elif ev.kind is EventKind.FAULT_CLEAR:
            faulted = False
        elif ev.kind is EventKind.POWER_STEP:
            p0 += ev.value
        idx += 1
    if idx == state.next_event:
        return state
    return replace(
        state, delta=delta, p0=p0, faulted=faulted, fault_fraction=frac, next_event=idx
    )


def _advance(
    state: SimState,
    dt: float,
    system: SystemParams,
    apcl: ApclParams,
    cfg: LimiterConfig,
    events: tuple[Event, ...] = (),
) -> tuple[SimState, NetworkSolution, float, ViValue]:
    """One macro step; returns the new state plus its end-of-step solution.

    The VI gain is resolved once, from the PI state at the start of the
    step. The frequency deviation is clamped after the step and the adaptive
    PI advances once, seeing the end-of-step current magnitude. The returned
    solution/power/VI are the end-of-step sample (computed just before the
    PI update, which only takes effect on the next step).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    state = _apply_events(state, dt, events)
    gain = _limiter_gain(cfg, state.adaptive, system)
    faulted, frac = state.faulted, state.fault_fraction
    p0 = state.p0
    inv_2h = 1.0 / (2.0 * apcl.h)
    inv_dp = 1.0 / apcl.d_p
    omega_n = apcl.omega_n

    def p_of(d: float) -> float:
        return electrical_power(d, gain, system, faulted=faulted, fault_fraction=frac)[0]

    d0, w0 = state.delta, state.omega_dev

    k1d = omega_n * w0
    k1w = (p0 - p_of(d0) - w0 * inv_dp) * inv_2h
    k2d = omega_n * (w0 + 0.5 * dt * k1w)
    k2w = (p0 - p_of(d0 + 0.5 * dt * k1d) - (w0 + 0.5 * dt * k1w) * inv_dp) * inv_2h
    k3d = omega_n * (w0 + 0.5 * dt * k2w)
    k3w = (p0 - p_of(d0 + 0.5 * dt * k2d) - (w0 + 0.5 * dt * k2w) * inv_dp) * inv_2h
    k4d = omega_n * (w0 + dt * k3w)
    k4w = (p0 - p_of(d0 + dt * k3d) - (w0 + dt * k3w) * inv_dp) * inv_2h

    delta_new = d0 + dt / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
    omega_new = w0 + dt / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
    clamp = apcl.freq_clamp
    if omega_new > clamp:
        omega_new = clamp
    elif omega_new < -clamp:
        omega_new = -clamp

    p_end, sol_end, vi_end = electrical_power(
        delta_new, gain, system, faulted=faulted, fault_fraction=frac
    )
    adaptive = state.adaptive
    if cfg.strategy is Strategy.ADAPTIVE_VI:
        adaptive = adaptive_vi_step(adaptive, abs(sol_end.current), dt, cfg, system.i_max)

    new_state = replace(
        state, delta=delta_new, omega_dev=omega_new, t=state.t + dt, adaptive=adaptive
    )
    return new_state, sol_end, p_end, vi_end


def step(
    state: SimState,
    dt: float,
    system: SystemParams,
    apcl: ApclParams,
    cfg: LimiterConfig,
    events: tuple[Event, ...] = (),
) -> SimState:
    """Advance the simulation by one fixed step (events, RK4, clamp, PI update)."""
    return _advance(state, dt, system, apcl, cfg, events)[0]


def equilibrium_angle(p0: float, system: SystemParams, cfg: LimiterConfig) -> float:
    """Power angle at which the strategy-consistent electrical power equals ``p0``.

    The adaptive strategy's PI state starts at rest. Scans the rising branch
    of the power curve and bisects the bracketing interval. Raises
    ``ValidationError`` when the setpoint exceeds what the curve can deliver.
    """
    if p0 <= 0.0:
        raise ValidationError("initial power setpoint must be positive")
    gain = _limiter_gain(cfg, AdaptiveState(), system)

    def p_of(d: float) -> float:
        return electrical_power(d, gain, system)[0]

    n_scan = 720
    lo = 0.0
    hi = None
    prev_d, prev_p = 0.0, 0.0
    for k in range(1, n_scan + 1):
        d = math.pi * k / n_scan
        p = p_of(d)
        if p >= p0:
            lo, hi = prev_d, d
            break
        if p < prev_p:
            break
        prev_d, prev_p = d, p
    if hi is None:
        raise ValidationError(
            f"setpoint p0={p0!r} exceeds the deliverable power of the configured strategy"
        )
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if p_of(mid) < p0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def initial_state(system: SystemParams, apcl: ApclParams, cfg: LimiterConfig) -> SimState:
    """Steady pre-disturbance state: equilibrium angle, zero frequency deviation."""
    delta0 = equilibrium_angle(apcl.p0, system, cfg)
    return SimState(delta=delta0, omega_dev=0.0, t=0.0, p0=apcl.p0)


def run_scenario(scenario) -> SimulationRecord:
    """Integrate a scenario from t=0 to its horizon, then let the relay observe it.

    ``scenario`` provides system/apcl/limiter parameters, an event list, a
    horizon, a step size and relay settings (or ``None``). The relay never
    acts back on the swing, so it walks the recorded apparent-impedance
    stream after the integration; an undefined impedance is recorded as NaN
    and lies outside every characteristic.
    """
    system: SystemParams = scenario.system
    apcl: ApclParams = scenario.apcl
    cfg: LimiterConfig = scenario.limiter
    events = validate_events(scenario.events)
    dt = scenario.dt
    n_steps = int(round(scenario.horizon / dt))

    state = initial_state(system, apcl, cfg)

    n = n_steps + 1
    t_arr = np.empty(n)
    delta_arr = np.empty(n)
    omega_arr = np.empty(n)
    imag_arr = np.empty(n)
    zre_arr = np.empty(n)
    zim_arr = np.empty(n)
    pe_arr = np.empty(n)
    vir_arr = np.empty(n)
    vix_arr = np.empty(n)
    psb_arr = np.zeros(n, dtype=bool)
    ost_arr = np.zeros(n, dtype=bool)

    def record(k: int, st: SimState, sol: NetworkSolution, p_e: float, vi: ViValue):
        t_arr[k] = st.t
        delta_arr[k] = st.delta
        omega_arr[k] = st.omega_dev
        imag_arr[k] = abs(sol.current)
        if sol.z_apparent is None:
            zre_arr[k] = math.nan
            zim_arr[k] = math.nan
        else:
            zre_arr[k] = sol.z_apparent.real
            zim_arr[k] = sol.z_apparent.imag
        pe_arr[k] = p_e
        vir_arr[k] = vi.r_vi
        vix_arr[k] = vi.x_vi

    p_e0, sol0, vi0 = electrical_power(state.delta, _limiter_gain(cfg, state.adaptive, system), system)
    record(0, state, sol0, p_e0, vi0)
    for k in range(1, n):
        state, sol, p_e, vi = _advance(state, dt, system, apcl, cfg, events)
        record(k, state, sol, p_e, vi)

    relay_events = ()
    if scenario.relay is not None:
        relay = RelayState()
        for k in range(n):
            z = complex(zre_arr[k], zim_arr[k])
            relay = relay_step(relay, z, float(t_arr[k]), dt, scenario.relay)
            psb_arr[k] = relay.psb_asserted
            ost_arr[k] = relay.ost_tripped
        relay_events = relay.event_log

    return SimulationRecord(
        t=t_arr,
        delta=delta_arr,
        omega_dev=omega_arr,
        i_mag=imag_arr,
        zapp_re=zre_arr,
        zapp_im=zim_arr,
        p_e=pe_arr,
        vi_r=vir_arr,
        vi_x=vix_arr,
        psb=psb_arr,
        ost=ost_arr,
        relay_events=relay_events,
        events=events,
        dt=dt,
    )
