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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError
from .limiter import (
    LimiterConfig,
    Strategy,
    ViValue,
    _limited_magnitude,
    _loop_magnitude,
    adaptive_vi_step,
    solve_limited_current,
    solve_variable_vi_current,
    variable_vi_gain,
    vi_gain_from_drop,
)
from .network import NetworkSolution, SystemParams, active_power, relay_impedance, solve_faulted
from .relay import CROSSING_BLOCK, RelaySettings, RelayState, crossings, relay_step


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
            for name in ("h", "d_p", "p0", "freq_clamp", "omega_n")
            if not 0.0 < getattr(self, name) < math.inf
        ]
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
    last_t = 0.0
    for ev in events:
        if not math.isfinite(ev.time) or (ev.value is not None and not math.isfinite(ev.value)):
            problems.append(f"event time and value must be finite (got {ev.time!r}, {ev.value!r})")
        elif ev.time < last_t:
            problems.append(f"event times must be >= 0 and non-decreasing (got {ev.time!r} after {last_t!r})")
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


def event_step(time: float, dt: float) -> int:
    """Index of the sample ending the step that applies an event at ``time``.

    Step k, from sample k-1 to k, applies the events due by (k - 0.5)*dt. The
    allowance of 1e-6 of a step absorbs the rounding of ``time/dt`` up to ten
    million steps, so a half-step or grid time lands on its own step."""
    return max(1, math.ceil(time / dt + 0.5 - 1e-6))


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
    relay_events: list[tuple[float, str, str]]
    events: tuple[Event, ...]
    dt: float

    def __len__(self) -> int:
        return len(self.t)


def swing_derivatives(
    omega_dev: float, p0: float, p_e: float, apcl: ApclParams
) -> tuple[float, float]:
    """Rates of the frequency deviation and of the power angle: the swing equation."""
    d_omega = (p0 - p_e - omega_dev * (1.0 / apcl.d_p)) * (1.0 / (2.0 * apcl.h))
    d_delta = apcl.omega_n * omega_dev
    return d_omega, d_delta


def _limiter_gain(cfg: LimiterConfig, drop: float, params: SystemParams) -> float:
    """VI gain of the configured strategy; the adaptive one reads the PI's voltage drop ``drop``."""
    if cfg.strategy is Strategy.VARIABLE_VI:
        return cfg.k_vi if cfg.k_vi is not None else variable_vi_gain(params)
    if cfg.strategy is Strategy.ADAPTIVE_VI:
        return vi_gain_from_drop(drop, params)
    return 0.0


def electrical_power(
    delta: float, gain: float, params: SystemParams, fault: float | None = None
) -> tuple[float, NetworkSolution, ViValue]:
    """Electrical power (and full solution) with a virtual-impedance gain.

    The loop current is solved self-consistently with the VI of ``gain``
    (zero gives the unlimited loop). With ``fault``, the fraction along the
    line of a bolted fault, the loop runs to that zero-voltage node instead
    of the grid source.
    """
    if fault is None:
        _, vi, sol = solve_variable_vi_current(delta, params, gain)
    else:
        z_ext = params.z_tr + fault * params.z_l
        _, vi = solve_limited_current(params.e_ref, z_ext, gain, params.vi_ratio, params.i_th)
        sol = solve_faulted(vi.as_complex, params, fault)
    return active_power(sol.v_pcc, sol.current), sol, vi


def initial_state(system: SystemParams, apcl: ApclParams, cfg: LimiterConfig) -> float:
    """Equilibrium power angle, where the strategy-consistent power equals ``apcl.p0``.

    The frequency deviation starts at zero and the adaptive strategy's PI
    at rest, with no drop. Scans the rising branch of the power curve and bisects
    the bracketing interval. Raises ``ValidationError`` when the setpoint
    exceeds what the curve can deliver.
    """
    p0 = apcl.p0
    gain = _limiter_gain(cfg, 0.0, system)

    def p_of(d: float) -> float:
        return electrical_power(d, gain, system)[0]

    n_scan = 720
    lo = p_lo = 0.0
    for k in range(1, n_scan + 1):
        hi = math.pi * k / n_scan
        p_hi = p_of(hi)
        if p_hi >= p0:
            break
        if p_hi < p_lo or k == n_scan:  # past the peak, or the scan is exhausted
            raise ValidationError(
                f"setpoint p0={p0!r} exceeds the deliverable power of the configured strategy"
            )
        lo, p_lo = hi, p_hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # the bracket can no longer shrink
            break
        if p_of(mid) < p0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def run_scenario(scenario) -> SimulationRecord:
    """Integrate a scenario from t=0 to its horizon, then let the relay observe it.

    Time is the step index: each event acts in the step ending at sample
    ``event_step(time, dt)``, and sample k is recorded at the k-th partial sum
    of ``dt``. The event steps cut the horizon into segments. A segment applies
    the events of its first step once; then each of its steps takes one RK4 step
    of the swing, clamps the frequency deviation and records the end-of-step
    sample, on whose current the adaptive PI then advances. The relay never acts
    back on the swing, so it observes the recorded impedance afterwards, stepping
    only at the samples where its state can change (``_observe``); an undefined
    impedance is recorded as NaN and lies outside every characteristic.

    The stages solve the loop from per-run floats with the loop algebra of
    ``electrical_power``; ``evaluate`` returns its last solve again at the same angle, so
    the first stage reuses the end-of-step sample unless an event moved the angle or the PI
    the gain, and a step at rest solves nothing. The faulted loop does not depend on the
    angle, so a faulted segment solves it once, and again only when the PI moves the gain.
    Without an explicit ``alpha_vi`` the healthy root is the closed-form ``_loop_magnitude``;
    the faulted loop and an explicit ratio take rtsafe. A healthy stage needs only
    p_e = Re(V_pcc I*): the two-source power-angle expression over the loop r_t + j*x_t
    (VI included) plus R_sigma*|I|^2. After the loop, the healthy samples' current
    (E - V_far)/(z_sigma + r_vi*(1 + j*alpha)) is read through ``relay_impedance``.
    """
    system, apcl, cfg = scenario.system, scenario.apcl, scenario.limiter
    events, dt = scenario.events, scenario.dt
    n = int(round(scenario.horizon / dt)) + 1
    due = [event_step(ev.time, dt) for ev in events]
    adaptive_pi = cfg.strategy is Strategy.ADAPTIVE_VI
    clamp, inv_dp, inv_2h, omega_n = apcl.freq_clamp, 1.0 / apcl.d_p, 1.0 / (2.0 * apcl.h), apcl.omega_n
    e, v_g_mag, i_th, alpha = system.e_ref.real, system.v_g_mag, system.i_th, system.vi_ratio
    z_sigma, z_relay = complex(system.z_sigma), complex(system.z_relay_to_grid)
    r_sigma, x_sigma = z_sigma.real, z_sigma.imag
    ve, vv = v_g_mag * e, v_g_mag * v_g_mag
    closed, z_mag, vi_norm = system.alpha_vi is None, abs(z_sigma), math.sqrt(1.0 + alpha * alpha)

    delta_arr, omega_arr, imag_arr, pe_arr, vir_arr = (np.empty(n) for _ in range(5))
    zapp = np.empty(n, dtype=complex)
    # the loop records through memoryviews, whose float stores skip numpy's item assignment
    d_out, w_out, i_out, p_out, r_out = map(memoryview, (delta_arr, omega_arr, imag_arr, pe_arr, vir_arr))
    t_arr = np.concatenate(([0.0], np.cumsum(np.full(n - 1, dt))))  # a running sum of dt, added in order
    fault_at = np.zeros(n, dtype=bool)

    delta = initial_state(system, apcl, cfg)
    omega, p0 = 0.0, apcl.p0
    fault, next_event = None, 0  # the fraction along the line of the fault in force
    integrator = drop = 0.0  # the adaptive PI at rest
    gain = _limiter_gain(cfg, drop, system)
    k_vi, solved_at, solved = gain * vi_norm, math.nan, None

    def evaluate(d: float) -> tuple[float, float, float]:
        """p_e, |I| and VI resistance of the healthy loop at angle ``d`` under the current gain."""
        nonlocal solved_at, solved
        if d == solved_at:
            return solved
        try:
            c, s = math.cos(d), math.sin(d)
        except ValueError:  # the infinite angle of a diverging step, where cmath.exp gives NaN
            c = s = math.nan
        e_mag = math.hypot(e - v_g_mag * c, v_g_mag * s)
        m = (_loop_magnitude(e_mag, z_mag, k_vi, i_th) if closed
             else _limited_magnitude(e_mag, z_sigma, gain, alpha, i_th))
        r_vi = gain * (m - i_th) if m > i_th else 0.0
        rt, xt = r_sigma + r_vi, x_sigma + alpha * r_vi
        p_e = (ve * (rt * c + xt * s) - vv * rt) / (rt * rt + xt * xt) + m * m * r_sigma
        solved_at, solved = d, (p_e, m, r_vi)
        return solved

    def fault_span(d: float, lo: int, hi: int):
        """Solve the faulted loop for samples lo to hi - 1: store their impedance, return their stage."""
        p_e, sol, vi = electrical_power(d, gain, system, fault)
        fault_at[lo:hi], zapp[lo:hi] = True, sol.z_apparent
        sample = p_e, abs(sol.current), vi.r_vi
        return lambda _: sample

    p_e, i_mag, r_vi = evaluate(delta)
    d_out[0], w_out[0], i_out[0], p_out[0], r_out[0] = delta, omega, i_mag, p_e, r_vi
    cuts = sorted({k for k in (1, *due) if k < n}) + [n]
    for lo, hi in zip(cuts, cuts[1:]):
        while next_event < len(events) and due[next_event] == lo:
            ev = events[next_event]
            next_event += 1
            if ev.kind is EventKind.PHASE_JUMP:
                delta += ev.value
            elif ev.kind is EventKind.FAULT_APPLY:
                fault = 0.5 if ev.value is None else ev.value
            elif ev.kind is EventKind.FAULT_CLEAR:
                fault = None
            else:
                p0 += ev.value
        stage = evaluate if fault is None else fault_span(delta, lo, hi)
        for k in range(lo, hi):
            # the swing equation of ``swing_derivatives``, with its factors taken once per run
            k1w, k1d = (p0 - stage(delta)[0] - omega * inv_dp) * inv_2h, omega_n * omega
            w = omega + 0.5 * dt * k1w
            k2w, k2d = (p0 - stage(delta + 0.5 * dt * k1d)[0] - w * inv_dp) * inv_2h, omega_n * w
            w = omega + 0.5 * dt * k2w
            k3w, k3d = (p0 - stage(delta + 0.5 * dt * k2d)[0] - w * inv_dp) * inv_2h, omega_n * w
            w = omega + dt * k3w
            k4w, k4d = (p0 - stage(delta + dt * k3d)[0] - w * inv_dp) * inv_2h, omega_n * w
            delta += dt / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
            omega += dt / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
            omega = clamp if omega > clamp else -clamp if omega < -clamp else omega  # NaN reaches the check
            if not math.isfinite(delta + omega):
                raise ValidationError(f"the swing diverged at t={t_arr[k].item()!r} s; dt={dt!r} is too coarse")
            p_e, i_mag, r_vi = stage(delta)
            d_out[k], w_out[k], i_out[k], p_out[k], r_out[k] = delta, omega, i_mag, p_e, r_vi
            if adaptive_pi:  # the gain is a function of the PI's drop alone
                last, (integrator, drop) = drop, adaptive_vi_step(integrator, i_mag, dt, cfg, system.i_max)
                if drop != last and (moved := _limiter_gain(cfg, drop, system)) != gain:
                    gain, k_vi, solved_at = moved, moved * vi_norm, math.nan
                    if fault is not None and k + 1 < hi:
                        stage = fault_span(delta, k + 1, hi)

    for block in (slice(lo, lo + CROSSING_BLOCK) for lo in range(0, n, CROSSING_BLOCK)):  # bounds temporaries
        v_far = v_g_mag * np.exp(-1j * delta_arr[block])
        current = (e - v_far) / (z_sigma + vir_arr[block] * complex(1.0, alpha))
        zapp[block] = np.where(fault_at[block], zapp[block], relay_impedance(v_far, current, z_relay))

    if scenario.relay is None:
        psb_arr, ost_arr, relay_events = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool), []
    else:
        psb_arr, ost_arr, relay_events = _observe(zapp, t_arr, dt, scenario.relay)

    return SimulationRecord(
        t=t_arr,
        delta=delta_arr,
        omega_dev=omega_arr,
        i_mag=imag_arr,
        zapp_re=zapp.real,
        zapp_im=zapp.imag,
        p_e=pe_arr,
        vi_r=vir_arr,
        vi_x=alpha * vir_arr,
        psb=psb_arr,
        ost=ost_arr,
        relay_events=relay_events,
        events=events,
        dt=dt,
    )


def _observe(zapp, t, dt: float, settings: RelaySettings) -> tuple[np.ndarray, np.ndarray, list]:
    """PSB and OST flags per sample and the event log of a relay watching the stream,
    each entry stamped with its sample's time in ``t``.

    Between two ``crossings`` the relay's state changes only by a zone trip,
    on the sample ``relay_step`` fixed as the zone's ``zone_due`` when it
    entered. So ``relay_step`` takes only the crossings and the dues inside the
    record, and each flag holds its value until the next of them.
    """
    n = len(zapp)
    psb, ost = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    todo = crossings(zapp, settings).tolist() + [n]  # ascending from sample 0
    state, i, k = RelayState(), 0, 0
    while k < n:
        relay_step(state, zapp[k].item(), k, dt, settings)
        i += todo[i] == k
        # the walk ends: todo[i] > k now and every due taken is > k, so each pass moves k on
        step = min([todo[i], *(due for due in state.zone_due if due is not None and due > k)])
        psb[k:step], ost[k:step] = state.psb_asserted, state.ost_tripped
        k = step
    return psb, ost, [(float(t[k]), event, element) for k, event, element in state.event_log]
