"""Dynamics tests: swing derivatives, integrator quality, events, records,
and the integration kernel against the reference integrator."""

import cmath
import math
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest

from gfmswing import (
    ApclParams,
    Event,
    EventKind,
    LimiterConfig,
    NoConvergence,
    Phasor,
    RelaySettings,
    RelayState,
    SimulationRecord,
    Strategy,
    SystemParams,
    ValidationError,
    adaptive_vi_step,
    critical_angle,
    electrical_power,
    initial_state,
    line_distance,
    p_delta_curve,
    relay_step,
    run_scenario,
    solve_faulted,
    solve_variable_vi_current,
    swing_derivatives,
    variable_vi_gain,
)
from gfmswing import dynamics, limiter
from gfmswing.cases import CASE_IDS, build_case
from gfmswing.dynamics import _limiter_gain, event_step, validate_events
from gfmswing.network import ZERO_CURRENT_TOL
from gfmswing.scenario import MAX_STEPS, Scenario


def make_scenario(**overrides):
    base = dict(
        name="test",
        system=SystemParams(),
        apcl=ApclParams(h=7.0, d_p=0.05, p0=0.45),
        limiter=LimiterConfig(strategy=Strategy.NONE),
        events=(),
        horizon=1.0,
        dt=5e-4,
        relay=None,
    )
    base.update(overrides)
    return Scenario(**base)


def test_swing_derivatives_equilibrium():
    d_omega, d_delta = swing_derivatives(0.0, 0.5, 0.5, ApclParams(h=7.0, d_p=0.05, p0=0.5))
    assert d_omega == 0.0
    assert d_delta == 0.0


def test_swing_derivatives_direct_substitution():
    params = ApclParams(h=7.0, d_p=0.05, p0=1.0)
    d_omega, _ = swing_derivatives(0.0, 1.0, 0.0, params)
    assert d_omega == pytest.approx(1.0 / 14.0)


def test_swing_derivatives_damping_scales_inversely():
    params = ApclParams(h=7.0, d_p=0.05, p0=0.5)
    d_omega, d_delta = swing_derivatives(0.01, 0.5, 0.5, params)
    # oracle: -(omega_dev / d_p) / (2 h)
    assert d_omega == pytest.approx(-0.2 / 14.0)
    assert d_delta == pytest.approx(params.omega_n * 0.01)


def test_electrical_power_strategies_agree_below_threshold():
    params = SystemParams()
    delta_th = critical_angle(params, params.i_th)
    for delta in np.linspace(0.05, delta_th - 0.05, 20):
        p_none, _, _ = electrical_power(float(delta), 0.0, params)
        p_var, _, _ = electrical_power(float(delta), variable_vi_gain(params), params)
        assert p_var == pytest.approx(p_none, abs=1e-10)


def test_electrical_power_zero_angle():
    params = SystemParams()
    p, sol, _ = electrical_power(0.0, 0.0, params)
    assert p == pytest.approx(0.0, abs=1e-20)
    assert math.isnan(sol.z_apparent.real) and math.isnan(sol.z_apparent.imag)


def test_electrical_power_variable_matches_solver():
    params = SystemParams()
    p, sol, vi = electrical_power(math.pi / 2, variable_vi_gain(params), params)
    mag, vi2, sol2 = solve_variable_vi_current(math.pi / 2, params, variable_vi_gain(params))
    assert vi == vi2
    assert p == pytest.approx(
        (complex(sol2.v_pcc) * complex(sol2.current).conjugate()).real, abs=1e-10
    )


def test_event_validation():
    with pytest.raises(ValidationError):
        validate_events([Event(1.0, EventKind.FAULT_CLEAR)])
    with pytest.raises(ValidationError):
        validate_events(
            [Event(2.0, EventKind.PHASE_JUMP, -1.0), Event(1.0, EventKind.PHASE_JUMP, -1.0)]
        )
    with pytest.raises(ValidationError):
        validate_events([Event(1.0, EventKind.PHASE_JUMP)])  # needs a value
    with pytest.raises(ValidationError, match=">= 0"):
        validate_events([Event(-3.0, EventKind.PHASE_JUMP, -1.59)])  # no step before the first applies it
    ok = validate_events(
        [Event(1.0, EventKind.FAULT_APPLY, 0.5), Event(1.25, EventKind.FAULT_CLEAR)]
    )
    assert len(ok) == 2


def test_step_at_equilibrium_is_stationary():
    scn = make_scenario(horizon=5e-4)  # one step
    rec = run_scenario(scn)
    assert rec.delta[0] == initial_state(scn.system, scn.apcl, scn.limiter)
    assert rec.delta[1] == pytest.approx(rec.delta[0], abs=1e-12)
    assert rec.omega_dev[1] == pytest.approx(0.0, abs=1e-12)
    assert rec.t[1] == pytest.approx(5e-4)


def test_phase_jump_applied_instantaneously():
    scn = make_scenario(events=(Event(0.0, EventKind.PHASE_JUMP, -1.59),), horizon=5e-4)
    rec = run_scenario(scn)
    assert rec.delta[1] - rec.delta[0] == pytest.approx(-1.59, abs=1e-4)


def test_power_step_changes_setpoint():
    scn = make_scenario(
        apcl=ApclParams(h=5.0, d_p=0.05, p0=0.6),
        events=(Event(0.0, EventKind.POWER_STEP, 0.4),),
        horizon=5e-4,
    )
    rec = run_scenario(scn)
    assert rec.omega_dev[1] > 0.0  # accelerating toward the new setpoint
    # oracle: one step of the swing from rest under the 0.4 pu imbalance
    assert rec.omega_dev[1] == pytest.approx(5e-4 * 0.4 / (2.0 * 5.0), rel=1e-2)


def test_omega_clamp_enforced():
    rec = run_scenario(build_case("caseA1"))
    assert np.abs(rec.omega_dev).max() <= 0.01 + 1e-15
    assert np.abs(rec.omega_dev).max() == pytest.approx(0.01)  # the swing saturates


def test_equilibrium_record_is_flat():
    scn = make_scenario(horizon=50.0)  # 1e5 steps
    rec = run_scenario(scn)
    assert np.abs(rec.delta - rec.delta[0]).max() < 1e-9
    assert np.abs(rec.omega_dev).max() < 1e-9
    assert np.abs(rec.p_e - rec.p_e[0]).max() < 1e-9


def test_rk4_convergence_order():
    # smooth unclamped transient: observed order should be at least 3.5
    base = make_scenario(
        apcl=ApclParams(h=7.0, d_p=0.05, p0=0.45, freq_clamp=10.0),
        events=(Event(0.5, EventKind.PHASE_JUMP, -0.15),),
        horizon=2.0,
    )
    finals = {}
    for dt in (2e-3, 1e-3, 5e-4):
        rec = run_scenario(replace(base, dt=dt))
        finals[dt] = complex(rec.delta[-1], rec.omega_dev[-1])
    err_coarse = abs(finals[2e-3] - finals[5e-4])
    err_fine = abs(finals[1e-3] - finals[5e-4])
    order = math.log2(err_coarse / err_fine)
    assert order > 3.5


def test_clamped_swing_converges_at_first_order():
    # caseA2 rides the +-0.01 frequency clamp; projecting omega after each step
    # while the RK4 stages run unclamped makes the record first-order accurate
    def final_delta_differences(freq_clamp):
        scn = replace(build_case("caseA2"), horizon=12.0, relay=None)
        scn = replace(scn, apcl=replace(scn.apcl, freq_clamp=freq_clamp))
        final = [run_scenario(replace(scn, dt=dt)).delta[-1] for dt in (2e-3, 1e-3, 5e-4)]
        return abs(final[0] - final[1]), abs(final[1] - final[2])

    coarse, fine = final_delta_differences(0.01)
    assert 0.9 <= math.log2(coarse / fine) <= 1.1
    _, unclamped_fine = final_delta_differences(1.0)  # never reached
    assert unclamped_fine < fine / 50.0


ENERGY_CASES = [case for case in CASE_IDS if build_case(case).limiter.strategy is not Strategy.ADAPTIVE_VI]


@pytest.mark.parametrize("case", ENERGY_CASES)
def test_energy_never_rises_between_events(case):
    # V = h*w^2 + (1/w_n) * integral of (p_e - p0) d(delta) falls at the rate -w^2/d_p
    # (Pai, Energy Function Analysis for Power System Stability, 1989), and the
    # clamp only removes energy; a faulted p_e is constant, so faulted spans count
    scn = replace(build_case(case), dt=2e-3, relay=None)
    rec = run_scenario(scn)
    steps = np.arange(1, len(rec))  # step k runs from sample k-1 to sample k
    p0 = np.full(len(steps), scn.apcl.p0)
    for ev in scn.events:
        if ev.kind is EventKind.POWER_STEP:
            p0[steps >= event_step(ev.time, scn.dt)] += ev.value
    work = (0.5 * (rec.p_e[1:] + rec.p_e[:-1]) - p0) * np.diff(rec.delta)  # trapezoid rule
    rise = scn.apcl.h * np.diff(rec.omega_dev**2) + work / scn.apcl.omega_n
    quiet = ~np.isin(steps, [event_step(ev.time, scn.dt) for ev in scn.events])
    assert rise[quiet].max() <= 1e-15


def test_quasi_static_consistency_against_closed_form():
    # free swing with no limiter stays on the straight-line locus
    system = SystemParams()
    # a perturbed start: +0.6 rad at t = 0, then 2000 free steps
    rec = run_scenario(make_scenario(events=(Event(0.0, EventKind.PHASE_JUMP, 0.6),)))
    assert rec.delta[1] - rec.delta[0] == pytest.approx(0.6, abs=1e-3)
    for z_re, z_im in zip(rec.zapp_re, rec.zapp_im):
        if not math.isnan(z_re):
            assert line_distance(complex(z_re, z_im), system) < 1e-6


def test_fault_keeps_variable_vi_current_within_ceiling():
    # bolted fault at the relay-side line terminal with the designed gain
    scn = make_scenario(
        apcl=ApclParams(h=7.0, d_p=0.05, p0=0.7),
        limiter=LimiterConfig(strategy=Strategy.VARIABLE_VI),
        events=(Event(0.2, EventKind.FAULT_APPLY, 0.0), Event(0.45, EventKind.FAULT_CLEAR)),
        horizon=0.6,
    )
    rec = run_scenario(scn)
    during = (rec.t >= 0.2) & (rec.t < 0.45)
    assert during.any()
    assert rec.i_mag[during].max() <= SystemParams().i_max + 1e-3


def test_valueless_fault_sits_mid_line():
    # a fault_apply without a value sits at 0.5, even after a fault elsewhere
    scn = make_scenario(
        events=(
            Event(0.1, EventKind.FAULT_APPLY, 0.2),
            Event(0.2, EventKind.FAULT_CLEAR),
            Event(0.3, EventKind.FAULT_APPLY),
            Event(0.4, EventKind.FAULT_CLEAR),
        ),
        horizon=0.5,
    )
    rec = run_scenario(scn)
    for fraction, start in ((0.2, 0.1), (0.5, 0.3)):
        during = (rec.t > start + 0.05) & (rec.t < start + 0.1)
        z = solve_faulted(0j, scn.system, fraction).z_apparent
        assert np.all(rec.zapp_re[during] == z.real) and np.all(rec.zapp_im[during] == z.imag), fraction


def test_record_channels_consistent():
    scn = make_scenario(
        events=(Event(0.1, EventKind.PHASE_JUMP, -0.3),),
        horizon=0.5,
        relay=None,
    )
    rec = run_scenario(scn)
    n = len(rec)
    assert n == int(round(0.5 / 5e-4)) + 1
    for channel in (rec.delta, rec.omega_dev, rec.i_mag, rec.zapp_re, rec.p_e, rec.vi_r):
        assert len(channel) == n
    assert np.allclose(np.diff(rec.t), 5e-4)
    # delta drops by the jump between adjacent samples around t=0.1
    k = int(round(0.1 / 5e-4))
    assert rec.delta[k + 1] - rec.delta[k] == pytest.approx(-0.3, abs=5e-3)


def test_case_b2_full_cycle_unstable():
    rec = run_scenario(build_case("caseB2"))
    span = rec.delta.max() - rec.delta.min()
    assert span > 2 * math.pi  # the unwrapped angle traverses a full cycle


OVERFLOWING_STEPS = (Event(0.1, EventKind.POWER_STEP, 1e308), Event(0.2, EventKind.POWER_STEP, 1e308))


@pytest.mark.parametrize(
    "overrides, match",
    [
        ({"apcl": ApclParams(h=7.0, d_p=5e-302, p0=0.45), "dt": 1.0, "horizon": 10.0}, "damping pole"),
        ({"dt": 1e99, "horizon": 1e100}, "damping pole"),
        ({"events": OVERFLOWING_STEPS}, "diverged"),
    ],
    ids=["stiff-damping", "huge-dt", "overflowing-setpoint"],
)
def test_divergent_swing_is_an_error(overrides, match):
    # a step past the damping pole's RK4 limit is refused when the scenario is
    # built; a swing that still overflows to NaN stops at run time
    with pytest.raises(ValidationError, match=match):
        run_scenario(make_scenario(**overrides))


def test_scenario_rejects_dt_past_the_damping_pole():
    # dt/(2*h*d_p) = 3.57 lies past RK4's real-axis limit of 2.785; the frequency
    # clamp keeps such a run finite, so only the scenario check catches it
    base = build_case("caseA1")
    assert base.dt == 5e-4
    with pytest.raises(ValidationError, match=r"damping pole \(dt = 0\.0005 s, apcl\.h = 7\.0, apcl\.d_p = 1e-05\)"):
        replace(base, apcl=replace(base.apcl, d_p=1e-5))
    assert replace(base, apcl=replace(base.apcl, d_p=1e-3)).apcl.d_p == 1e-3


def test_scenario_rejects_an_event_no_step_applies():
    # the last step of a 1 s run at dt = 5e-4 starts at 0.9995 s and applies the
    # events due by 0.99975 s: a jump at 0.9996 s moves the final angle, and one
    # at 0.9999 s would never act
    quiet = run_scenario(make_scenario())
    late = run_scenario(make_scenario(events=(Event(0.9996, EventKind.PHASE_JUMP, 0.5),)))
    assert late.delta[-1] - quiet.delta[-1] == pytest.approx(0.5, abs=1e-3)
    with pytest.raises(ValidationError, match=r"event time 0\.9999 s is past 0\.9997\d* s"):
        make_scenario(events=(Event(0.9999, EventKind.PHASE_JUMP, 0.5),))


def test_event_on_the_last_midpoint_acts():
    # 0.99975 s is the midpoint of the last step of a 1 s run at dt = 5e-4
    quiet = run_scenario(make_scenario())
    late = run_scenario(make_scenario(events=(Event(0.99975, EventKind.PHASE_JUMP, 0.5),)))
    assert np.array_equal(late.delta[:-1], quiet.delta[:-1])
    assert late.delta[-1] - quiet.delta[-1] == pytest.approx(0.5, abs=1e-3)


def test_half_step_events_act_on_their_own_step():
    # a jump at (k + 0.5)*dt is due at the midpoint of the step from sample k to k + 1
    dt, ks = 5e-4, range(10, 2000, 38)
    jumps = tuple(Event((k + 0.5) * dt, EventKind.PHASE_JUMP, 0.1 * (-1) ** i) for i, k in enumerate(ks))
    rec = run_scenario(make_scenario(events=jumps, dt=dt))
    moved = np.flatnonzero(np.abs(np.diff(rec.delta)) > 0.05) + 1
    assert moved.tolist() == [k + 1 for k in ks]


@pytest.mark.parametrize("dt", [1e-4, 3e-4, 5e-4, 1e-3, 2e-3, 5e-3])
def test_event_step_of_grid_and_half_step_times(dt):
    # decimal times as their nearest floats, up to the step cap: k*dt and (k + 0.5)*dt
    # act in the step ending at sample k + 1, and (k + 0.5001)*dt in the next one
    assert dynamics.event_step(-1.0, dt) == 1
    for k in [0, 1, 2, *np.random.default_rng(7).integers(3, MAX_STEPS, 3000).tolist()]:
        times = [float(Decimal(str(dt)) * (k + Decimal(f))) for f in ("0", "0.5", "0.5001")]
        assert [dynamics.event_step(x, dt) for x in times] == [k + 1, k + 1, k + 2], k


@pytest.mark.parametrize("p0", [0.0, -0.1])
def test_apcl_rejects_non_positive_setpoint(p0):
    with pytest.raises(ValueError, match="p0"):
        ApclParams(p0=p0)


def test_initial_state_rejects_excess_setpoint():
    system = SystemParams()
    with pytest.raises(ValidationError):
        initial_state(system, ApclParams(h=7.0, d_p=0.05, p0=1.5), LimiterConfig())


def test_case_e2_setpoint_has_no_unlimited_equilibrium():
    # a model fact behind criterion 9: on the reference system Case E2's
    # post-step setpoint lies above the peak of the unlimited power curve
    scn = build_case("caseE2")
    (step,) = scn.events
    assert scn.system == SystemParams() and scn.limiter.strategy is Strategy.NONE
    target = scn.apcl.p0 + step.value
    assert p_delta_curve(Strategy.NONE, scn.system, n=10_000).peak < target
    with pytest.raises(ValidationError, match="exceeds the deliverable power"):
        initial_state(scn.system, replace(scn.apcl, p0=target), scn.limiter)


# --- the integration kernel against the reference integrator ---------------


def reference_initial_state(system, apcl, cfg):
    """Equilibrium angle by a fixed 100-step bisection: ``initial_state`` before its early exit."""
    p0 = apcl.p0
    if p0 <= 0.0:
        raise ValidationError("initial power setpoint must be positive")
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
        if p_of(mid) < p0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_run(scenario) -> SimulationRecord:
    """The RK4 loop with one ``electrical_power`` per stage and per sample, five per step."""
    system, apcl, cfg = scenario.system, scenario.apcl, scenario.limiter
    events = validate_events(scenario.events)
    dt = scenario.dt
    n = int(round(scenario.horizon / dt)) + 1
    adaptive_pi = cfg.strategy is Strategy.ADAPTIVE_VI
    clamp = apcl.freq_clamp

    t_arr, delta_arr, omega_arr, imag_arr, zre_arr, zim_arr, pe_arr, vir_arr, vix_arr = (
        np.empty(n) for _ in range(9)
    )
    psb_arr = np.zeros(n, dtype=bool)
    ost_arr = np.zeros(n, dtype=bool)

    delta = reference_initial_state(system, apcl, cfg)
    omega, t, p0 = 0.0, 0.0, apcl.p0
    fault, next_event = None, 0
    integrator = drop = 0.0

    def rates(d: float, w: float) -> tuple[float, float]:
        p_e = electrical_power(d, gain, system, fault)[0]
        return swing_derivatives(w, p0, p_e, apcl)

    for k in range(n):
        gain = _limiter_gain(cfg, drop, system)
        if k:
            while next_event < len(events) and events[next_event].time <= t + 0.5 * dt:
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
            k1w, k1d = rates(delta, omega)
            k2w, k2d = rates(delta + 0.5 * dt * k1d, omega + 0.5 * dt * k1w)
            k3w, k3d = rates(delta + 0.5 * dt * k2d, omega + 0.5 * dt * k2w)
            k4w, k4d = rates(delta + dt * k3d, omega + dt * k3w)
            delta += dt / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
            omega += dt / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
            omega = min(max(omega, -clamp), clamp)
            t += dt
            if not math.isfinite(delta + omega):
                raise ValidationError(f"the swing diverged at t={t!r} s; dt={dt!r} is too coarse")

        p_e, sol, vi = electrical_power(delta, gain, system, fault)
        t_arr[k] = t
        delta_arr[k] = delta
        omega_arr[k] = omega
        imag_arr[k] = abs(sol.current)
        zre_arr[k], zim_arr[k] = sol.z_apparent.real, sol.z_apparent.imag
        pe_arr[k] = p_e
        vir_arr[k] = vi.r_vi
        vix_arr[k] = vi.x_vi
        if k and adaptive_pi:
            integrator, drop = adaptive_vi_step(integrator, abs(sol.current), dt, cfg, system.i_max)

    relay_events = ()
    if scenario.relay is not None:
        relay = RelayState()
        for k in range(n):
            relay_step(relay, complex(zre_arr[k], zim_arr[k]), k, dt, scenario.relay)
            psb_arr[k] = relay.psb_asserted
            ost_arr[k] = relay.ost_tripped
        relay_events = [(float(t_arr[k]), event, element) for k, event, element in relay.event_log]

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


CRITERION_11 = make_scenario(
    apcl=ApclParams(h=7.0, d_p=0.05, p0=0.7),
    limiter=LimiterConfig(strategy=Strategy.VARIABLE_VI),
    events=(Event(1.0, EventKind.FAULT_APPLY, 0.5), Event(1.25, EventKind.FAULT_CLEAR)),
    horizon=20.0,
    relay=RelaySettings.table1(),
)
# every event kind, a valueless fault and a k_vi override in one run
MIXED = make_scenario(
    apcl=ApclParams(h=5.0, d_p=0.05, p0=0.6),
    limiter=LimiterConfig(strategy=Strategy.VARIABLE_VI, k_vi=0.3),
    events=(
        Event(0.5, EventKind.PHASE_JUMP, 0.9),
        Event(2.0, EventKind.POWER_STEP, 0.05),
        Event(3.0, EventKind.FAULT_APPLY),
        Event(3.15, EventKind.FAULT_CLEAR),
    ),
    horizon=6.0,
    relay=RelaySettings(),
)
# an explicit VI ratio off the loop angle: the kernel's healthy root falls back to rtsafe
EXPLICIT_ALPHA = replace(MIXED, system=SystemParams(alpha_vi=3.0))
# the edges of the kernel's event segments at dt 2e-3: an event on step 1, two kinds on
# one step, a fault applied and cleared on consecutive steps, and an adaptive-VI fault
# still active at the horizon, inside which the PI moves the gain
EDGE_EVENTS = replace(
    MIXED,
    limiter=LimiterConfig(strategy=Strategy.ADAPTIVE_VI),
    events=(
        Event(0.0, EventKind.PHASE_JUMP, 0.3),
        Event(0.5, EventKind.PHASE_JUMP, -0.2),
        Event(0.5, EventKind.POWER_STEP, 0.05),
        Event(1.0, EventKind.FAULT_APPLY, 0.3),
        Event(1.002, EventKind.FAULT_CLEAR),
        Event(2.0, EventKind.FAULT_APPLY, 0.7),
    ),
    horizon=2.5,
)
KERNEL_SCENARIOS = {
    **{case: build_case(case) for case in CASE_IDS},
    "criterion11": CRITERION_11,
    "mixed": MIXED,
    "explicit-alpha": EXPLICIT_ALPHA,
    "edge-events": EDGE_EVENTS,
}
# the built-in cases, criterion 11 and MIXED with their relays, caseD with wider settings
# and caseB2 with a relay that has no zones
OBSERVED = {
    **{name: KERNEL_SCENARIOS[name] for name in (*CASE_IDS, "criterion11", "mixed")},
    "caseD-scaled1.5": replace(build_case("caseD"), relay=RelaySettings().scaled(1.5)),
    "caseB2-no-zones": replace(build_case("caseB2"), relay=replace(RelaySettings(), zones=())),
}


def assert_relay_walk_matches_every_sample(rec: SimulationRecord, settings: RelaySettings) -> None:
    """``relay_step`` on every sample of the record's impedance, by sample index, gives
    what the run's walk at the crossings and pending trips recorded: the PSB and OST
    flags and, each sample stamped by ``rec.t``, the relay log."""
    relay, psb, ost = RelayState(), [], []
    for k, (z_re, z_im) in enumerate(zip(rec.zapp_re.tolist(), rec.zapp_im.tolist())):
        relay_step(relay, complex(z_re, z_im), k, rec.dt, settings)
        psb.append(relay.psb_asserted)
        ost.append(relay.ost_tripped)
    assert np.array_equal(rec.psb, psb) and np.array_equal(rec.ost, ost)
    assert rec.relay_events == [(rec.t[k].item(), event, element) for k, event, element in relay.event_log]


@pytest.mark.parametrize("name", OBSERVED)
def test_relay_is_an_observer(name):
    # the relay reads the impedance stream and never acts back on the swing
    scn = replace(OBSERVED[name], dt=2e-3)
    watched = run_scenario(scn)
    blind = run_scenario(replace(scn, relay=None))
    for channel in ("t", "delta", "omega_dev", "i_mag", "zapp_re", "zapp_im", "p_e", "vi_r", "vi_x"):
        assert np.array_equal(getattr(watched, channel), getattr(blind, channel), equal_nan=True)
    assert not blind.psb.any() and not blind.ost.any() and not blind.relay_events
    assert_relay_walk_matches_every_sample(watched, scn.relay)
    if name == "caseB2":
        assert {"psb_assert", "ost_trip", "trip"} <= {kind for _, kind, _ in watched.relay_events}
    if name == "caseB2-no-zones":
        assert {"psb_assert", "ost_trip"} <= {kind for _, kind, _ in watched.relay_events}
        assert not [element for _, _, element in watched.relay_events if element.startswith("zone")]


RECORD_FIELDS = ("t", "delta", "omega_dev", "i_mag", "zapp_re", "zapp_im", "p_e", "vi_r", "vi_x", "psb", "ost")
DELTA_TOL = 1e-10  # rad
# relative and absolute, on every other float channel: the kernel's real p_e and
# closed-form root differ from the complex rtsafe path by ulps, which the swing carries
# into the state; near a current zero the apparent impedance grows as 1/|I| and takes
# that difference relative to itself
CHANNEL_TOL = 1e-7


@pytest.mark.parametrize("name", KERNEL_SCENARIOS)
def test_kernel_matches_reference_integrator(name):
    scn = replace(KERNEL_SCENARIOS[name], dt=2e-3)
    got, want = run_scenario(scn), reference_run(scn)
    assert got.relay_events == want.relay_events
    for field in RECORD_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        if field in ("t", "psb", "ost"):
            assert np.array_equal(a, b, equal_nan=True), field
        elif field == "delta":
            assert np.max(np.abs(a - b)) <= DELTA_TOL
        else:
            np.testing.assert_allclose(a, b, rtol=CHANNEL_TOL, atol=CHANNEL_TOL, equal_nan=True, err_msg=field)
    if name in ("mixed", "explicit-alpha"):
        assert (got.vi_r > 0.0).any() and got.relay_events


SAMPLE_TOL = 1e-13  # relative to max(1, |x|)
SAMPLE_FIELDS = ("p_e", "i_mag", "zapp_re", "zapp_im", "vi_r", "vi_x")


def fault_spans(scn: Scenario, n: int) -> np.ndarray:
    """Per sample, the fault fraction in force, or NaN on a healthy sample."""
    frac = np.full(n, np.nan)
    for ev in scn.events:
        k = event_step(ev.time, scn.dt)
        if ev.kind is EventKind.FAULT_APPLY:
            frac[k:] = 0.5 if ev.value is None else ev.value
        elif ev.kind is EventKind.FAULT_CLEAR:
            frac[k:] = np.nan
    return frac


def assert_samples_match_electrical_power(scn: Scenario, rec: SimulationRecord) -> None:
    """Each recorded sample against the object path at the recorded angle and gain: a
    bound on the kernel's loop algebra alone, which does not grow with the drift of the
    trajectory. The adaptive gain is replayed from the recorded currents."""
    system, cfg = scn.system, scn.limiter
    frac = fault_spans(scn, len(rec))
    integrator = drop = 0.0
    for k, d in enumerate(rec.delta.tolist()):
        gain = _limiter_gain(cfg, drop, system)
        p_e, sol, vi = electrical_power(d, gain, system, None if math.isnan(frac[k]) else float(frac[k]))
        z = sol.z_apparent
        want = (p_e, abs(sol.current), z.real, z.imag, vi.r_vi, vi.x_vi)
        got = tuple(getattr(rec, field)[k].item() for field in SAMPLE_FIELDS)
        for field, a, b in zip(SAMPLE_FIELDS, got, want):
            if not math.isnan(frac[k]) or math.isnan(b):
                assert a == b or math.isnan(a) and math.isnan(b), (field, k)
            else:
                assert abs(a - b) <= SAMPLE_TOL * max(1.0, abs(b)), (field, k, a, b)
        if k and cfg.strategy is Strategy.ADAPTIVE_VI:
            integrator, drop = adaptive_vi_step(integrator, got[1], scn.dt, cfg, system.i_max)


@pytest.mark.parametrize("name", KERNEL_SCENARIOS)
def test_kernel_samples_match_electrical_power(name):
    scn = replace(KERNEL_SCENARIOS[name], dt=2e-3)
    assert_samples_match_electrical_power(scn, run_scenario(scn))


QUOTIENT_TOL = 1e-15  # relative to max(1, |z|): numpy's two complex quotients against CPython's (6.2e-16 seen)


@pytest.mark.parametrize("name", KERNEL_SCENARIOS)
def test_impedance_arrays_repeat_the_complex_formula(name):
    # the healthy samples' impedance, formed over arrays after the loop, is the relay's
    # reading z_relay + V_far / I that Python's complex arithmetic gives on the recorded
    # angle and VI resistance, to the rounding of the quotient, and NaN where no current flows
    scn = replace(KERNEL_SCENARIOS[name], dt=2e-3)
    system, rec = scn.system, run_scenario(scn)
    alpha, z_sigma, z_relay = system.vi_ratio, complex(system.z_sigma), complex(system.z_relay_to_grid)
    for k in np.flatnonzero(np.isnan(fault_spans(scn, len(rec)))).tolist():
        v_far = system.v_g_mag * cmath.exp(-1j * rec.delta[k].item())
        r_vi = rec.vi_r[k].item()
        current = (system.e_ref - v_far) / (z_sigma + complex(r_vi, alpha * r_vi))
        got = complex(rec.zapp_re[k], rec.zapp_im[k])
        if abs(current) < ZERO_CURRENT_TOL:
            assert math.isnan(got.real) and math.isnan(got.imag), k
        else:
            z = z_relay + v_far / current
            assert abs(got - z) <= QUOTIENT_TOL * max(1.0, abs(z)), (k, got, z)
    assert np.array_equal(rec.vi_x, system.vi_ratio * rec.vi_r)


RAISING = {
    # one Newton step cannot converge once the jump activates the VI; the
    # explicit ratio keeps the healthy loop on rtsafe, which can stall
    "no-convergence": (
        {
            "system": SystemParams(alpha_vi=3.0),
            "limiter": LimiterConfig(strategy=Strategy.VARIABLE_VI),
            "events": (Event(0.01, EventKind.PHASE_JUMP, 0.9),),
            "horizon": 0.1,
        },
        NoConvergence,
        1,
    ),
    "diverged": ({"events": OVERFLOWING_STEPS}, ValidationError, limiter.MAX_SOLVE_ITER),
    # the infinite stage angle of a diverging swing drives rtsafe with NaN, which
    # it hands back at once for the swing check to report
    **{
        name: (
            {"system": SystemParams(alpha_vi=3.0), "limiter": LimiterConfig(strategy=strategy),
             "events": OVERFLOWING_STEPS},
            ValidationError,
            limiter.MAX_SOLVE_ITER,
        )
        for name, strategy in (
            ("diverged-explicit-alpha", Strategy.VARIABLE_VI),
            ("diverged-explicit-alpha-adaptive", Strategy.ADAPTIVE_VI),
        )
    },
}


def test_loop_that_cancels_itself_is_rejected():
    # a grid impedance that cancels the transformer and line leaves no loop
    # impedance; the passive-loop rule rejects it before any run
    with pytest.raises(ValueError, match="z_g"):
        SystemParams(z_tr=Phasor(0.1, 0.1), z_l=Phasor(0.1, 0.1), z_g=Phasor(-0.2, -0.2))


@pytest.mark.parametrize("name", RAISING)
def test_kernel_raises_like_reference(name, monkeypatch):
    overrides, error, max_iter = RAISING[name]
    monkeypatch.setattr(limiter, "MAX_SOLVE_ITER", max_iter)
    scn = make_scenario(**overrides)
    with pytest.raises(error) as got:
        run_scenario(scn)
    with pytest.raises(error) as want:
        reference_run(scn)
    assert str(got.value) == str(want.value)
    assert error is not ValidationError or "diverged" in str(got.value)


def counted_solves(monkeypatch) -> dict[str, int]:
    """Live counts of the kernel's closed-form roots and of every rtsafe solve."""
    calls = {"closed": 0, "rtsafe": 0}

    def counted(name, solve):
        def wrapper(*args):
            calls[name] += 1
            return solve(*args)

        return wrapper

    rtsafe = counted("rtsafe", limiter._limited_magnitude)
    monkeypatch.setattr(limiter, "_limited_magnitude", rtsafe)
    monkeypatch.setattr(dynamics, "_limited_magnitude", rtsafe)
    monkeypatch.setattr(dynamics, "_loop_magnitude", counted("closed", limiter._loop_magnitude))
    return calls


SOLVE_COUNTED = {
    "caseB2": replace(build_case("caseB2"), dt=2e-3, relay=None),
    "mixed": replace(MIXED, dt=2e-3, relay=None),
    "mixed-adaptive": replace(MIXED, dt=2e-3, relay=None, limiter=LimiterConfig(strategy=Strategy.ADAPTIVE_VI)),
}


def test_kernel_limited_solve_count(monkeypatch):
    # closed-form roots: 1 for sample 0, none on the steps at rest before the first event
    # (every stage lands on the angle already solved), then 4 per healthy step: 3 stages
    # and the end-of-step sample, whose solve the next step's first stage reuses, also
    # across a power step, as p_e does not depend on p0. The first stage re-solves after a
    # clear (the last solve predates the fault) and after the PI moved the gain; after a
    # jump from rest it re-solves, but the second stage reuses it, since the resting omega
    # cannot move the angle. rtsafe: the initial state, and the faulted loop, which is not
    # along the VI and does not depend on the angle: 1 per segment that starts faulted (the
    # event steps cut the horizon into segments) and 1 more whenever the PI moves the gain
    # inside it.
    calls, counts = counted_solves(monkeypatch), {}
    for name, scn in SOLVE_COUNTED.items():
        calls.update(closed=0, rtsafe=0)
        initial_state(scn.system, scn.apcl, scn.limiter)
        assert calls["closed"] == 0, name
        setup, calls["rtsafe"] = calls["rtsafe"], 0
        rec = run_scenario(scn)
        kinds = [{ev.kind for ev in scn.events if event_step(ev.time, scn.dt) == k} for k in range(len(rec))]
        gains, integrator, drop = [], 0.0, 0.0  # the gain of each step, replayed from the recorded currents
        for k in range(len(rec)):
            gains.append(_limiter_gain(scn.limiter, drop, scn.system))
            if k and scn.limiter.strategy is Strategy.ADAPTIVE_VI:
                i_mag = rec.i_mag[k].item()
                integrator, drop = adaptive_vi_step(integrator, i_mag, scn.dt, scn.limiter, scn.system.i_max)
        closed, faulted, started, moved = 1, 0, False, False
        fault_solves = 0
        for k in range(1, len(rec)):
            started, moved = started or bool(kinds[k]), moved or gains[k] != gains[k - 1]
            faulted += EventKind.FAULT_APPLY in kinds[k]
            faulted -= EventKind.FAULT_CLEAR in kinds[k]
            fault_solves += faulted and (bool(kinds[k]) or gains[k] != gains[k - 1])
            if started and not faulted:
                resolved = EventKind.FAULT_CLEAR in kinds[k] or moved and EventKind.PHASE_JUMP not in kinds[k]
                closed += 4 + resolved
                moved = False
        assert calls["closed"] == closed, name
        assert calls["rtsafe"] == setup + fault_solves, name
        counts[name] = calls["closed"], len(set(gains)), fault_solves
    assert counts["caseB2"][0] == 41_502  # 8 000 fewer than 4 per step: its 2 000 steps at rest solve nothing
    assert counts["mixed-adaptive"][1] > 100  # distinct gains: the PI moved the gain on many steps
    # one solve per fault under a fixed gain, against 125, 75 and 75 faulted steps; under the
    # adaptive PI the gain moves before 72 of the fault's 74 later steps
    assert [c[2] for c in counts.values()] == [1, 1, 73]


def test_pre_event_steps_reuse_the_stage_solve(monkeypatch):
    # caseA1 rests at its equilibrium until the jump: every stage of every step before it
    # lands on the angle solved for sample 0, so those steps make no closed-form solve
    scn = replace(build_case("caseA1"), dt=2e-3, relay=None)
    jump = event_step(scn.events[0].time, scn.dt)
    whole = run_scenario(scn)
    calls = counted_solves(monkeypatch)
    rest = run_scenario(replace(scn, events=(), horizon=(jump - 1) * scn.dt))  # samples 0 to jump - 1
    assert calls["closed"] == 1
    assert len(rest) == jump
    for field in RECORD_FIELDS:
        assert np.array_equal(getattr(rest, field), getattr(whole, field)[:jump], equal_nan=True), field
    assert (rest.delta == rest.delta[0]).all() and whole.delta[jump] != whole.delta[0]
