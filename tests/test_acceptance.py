"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import cmath
import math
import time
from dataclasses import replace

import numpy as np

from gfmswing import (
    ApclParams,
    Classification,
    Event,
    EventKind,
    LimiterConfig,
    RelaySettings,
    RelayState,
    Segment,
    Strategy,
    SystemParams,
    blinder_contains,
    classify_stability,
    critical_angle,
    full_cycle,
    limited_current_angle,
    line_distance,
    p_delta_curve,
    relay_step,
    run_scenario,
    solve_limited_current,
    variable_vi_gain,
)
from gfmswing.cases import build_case
from gfmswing.limiter import vi_from_current, vi_drop
from gfmswing.scenario import Scenario


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {num:>2}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_01_boundary_angles():
    params = SystemParams()
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 2.0 * math.pi, 1_000_001)
    mags = np.abs(complex(params.e_ref) - params.v_g_mag * np.exp(-1j * grid)) / abs(
        params.z_sigma
    )
    worst = 0.0
    for level in (params.i_th, params.i_max):
        k = int(np.argmax(mags >= level))
        d0, d1 = grid[k - 1], grid[k]
        i0, i1 = mags[k - 1], mags[k]
        scanned = d0 + (level - i0) * (d1 - d0) / (i1 - i0)
        closed = critical_angle(params, level)
        worst = max(worst, abs(scanned - closed))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 1.0
    _report(1, ok, f"max boundary-angle error {worst:.2e} rad, scan {elapsed:.3f} s")
    assert worst < 1e-5
    assert elapsed < 1.0


def test_criterion_02_limited_current_angle_oracle():
    params = SystemParams()
    phi = params.z_sigma.ang
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        delta = float(rng.uniform(1e-9, 2.0 * math.pi - 1e-9))
        z_mag = float(rng.uniform(0.2, 4.0))
        drive = complex(params.e_ref) - abs(params.e_ref) * cmath.exp(-1j * delta)
        direct = cmath.phase(drive / cmath.rect(z_mag, phi))
        predicted = limited_current_angle(delta, phi)
        diff = abs((predicted - direct + math.pi) % (2.0 * math.pi) - math.pi)
        worst = max(worst, diff)
    ok = worst < 1e-9
    _report(2, ok, f"max current-angle mismatch {worst:.2e} rad over 1000 draws")
    assert ok


def test_criterion_03_voltage_drop_identity():
    rng = np.random.default_rng(3)
    i_th = 1.0
    worst = 0.0
    for _ in range(1000):
        gain = float(rng.uniform(0.01, 2.0))
        alpha = float(rng.uniform(0.0, 15.0))
        i_dq = complex(rng.normal(scale=1.5), rng.normal(scale=1.5))
        mag = abs(i_dq)
        vi = vi_from_current(mag, gain, alpha, i_th)
        rectangular = abs(complex(vi_drop(vi, i_dq)))
        closed = gain * max(mag - i_th, 0.0) * mag * math.sqrt(1.0 + alpha * alpha)
        worst = max(worst, abs(rectangular - closed))
    ok = worst < 1e-12
    _report(3, ok, f"max drop-identity residual {worst:.2e} pu over 1000 draws")
    assert ok


def test_criterion_04_bolted_fault_design():
    params = SystemParams()
    mag, _ = solve_limited_current(
        complex(params.e_ref), 0j, variable_vi_gain(params), params.vi_ratio, params.i_th
    )
    err = abs(mag - params.i_max)
    ok = err < 1e-6
    _report(4, ok, f"bolted-terminal current {mag:.9f} pu (|error| {err:.2e})")
    assert ok


def test_criterion_05_trajectory_continuity_and_shape():
    params = SystemParams()
    details = []

    # left/right limits of the segment formulas at all four boundary angles
    from gfmswing import z_adaptive_vi, z_unlimited, z_variable_vi

    eps = 1e-9
    dth = critical_angle(params, params.i_th)
    dlim = critical_angle(params, params.i_max)
    two_pi = 2.0 * math.pi
    boundary_gap = max(
        abs(complex(z_variable_vi(dth + eps, params)) - complex(z_unlimited(dth - eps, params))),
        abs(
            complex(z_variable_vi(two_pi - dth - eps, params))
            - complex(z_unlimited(two_pi - dth + eps, params))
        ),
        abs(complex(z_adaptive_vi(dlim, params)) - complex(z_unlimited(dlim, params))),
        abs(
            complex(z_adaptive_vi(two_pi - dlim, params))
            - complex(z_unlimited(two_pi - dlim, params))
        ),
    )
    continuity_ok = boundary_gap < 1e-6
    details.append(f"segment-boundary gap {boundary_gap:.2e}")

    unl = full_cycle(Strategy.NONE, params, n_samples=1999)
    coll = max(line_distance(s.z_app, params) for s in unl)
    collinear_ok = coll < 1e-9
    details.append(f"collinearity {coll:.2e}")

    ada = full_cycle(Strategy.ADAPTIVE_VI, params, n_samples=1999)
    center = complex(params.z_relay_to_grid)
    radius = params.v_g_mag / params.i_max
    act = [s for s in ada if s.segment is Segment.ACTIVE_ADAPTIVE]
    circ = max(abs(abs(complex(s.z_app) - center) - radius) for s in act)
    circle_ok = circ < 1e-12
    details.append(f"circle residual {circ:.2e}")

    arc = max(
        abs(
            cmath.phase((complex(a.z_app) - center) / (complex(b.z_app) - center))
            - 0.5 * (b.delta - a.delta)
        )
        for a, b in zip(act, act[1:])
    )
    arc_ok = arc < 1e-12
    details.append(f"arc-rate residual {arc:.2e}")

    ok = continuity_ok and collinear_ok and circle_ok and arc_ok
    _report(5, ok, "; ".join(details))
    assert continuity_ok
    assert collinear_ok
    assert circle_ok
    assert arc_ok


def test_criterion_06_dynamics_vs_closed_form(record_a1, record_b3):
    params = SystemParams()
    valid = ~np.isnan(record_a1.zapp_re)
    line_dev = max(
        line_distance(complex(r, i), params)
        for r, i in zip(record_a1.zapp_re[valid], record_a1.zapp_im[valid])
    )
    line_ok = line_dev < 1e-4

    # steady limited segments of the healthy network: virtual impedance
    # active continuously for at least 0.1 s, at least 0.1 s past the last
    # scheduled event (the PI needs a settling window after each topology
    # change), and outside the faulted interval where the relay measures
    # the fault stub rather than the swing locus
    center = complex(params.z_relay_to_grid)
    radius = params.v_g_mag / params.i_max
    active = record_b3.vi_r > 1e-12
    run_len = np.zeros(len(active), dtype=int)
    count = 0
    for k, flag in enumerate(active):
        count = count + 1 if flag else 0
        run_len[k] = count
    settle = int(round(0.1 / record_b3.dt))
    healthy = np.ones(len(active), dtype=bool)
    fault_start = None
    for ev in record_b3.events:
        healthy &= ~((record_b3.t >= ev.time) & (record_b3.t < ev.time + 0.1))
        if ev.kind is EventKind.FAULT_APPLY:
            fault_start = ev.time
        elif ev.kind is EventKind.FAULT_CLEAR and fault_start is not None:
            healthy &= ~((record_b3.t >= fault_start) & (record_b3.t < ev.time))
            fault_start = None
    steady = (run_len >= settle) & healthy
    zs = record_b3.zapp_re[steady] + 1j * record_b3.zapp_im[steady]
    circle_dev = float(np.max(np.abs(np.abs(zs - center) - radius)))
    circle_ok = circle_dev < 5e-3 and steady.sum() > 500

    ok = line_ok and circle_ok
    _report(
        6,
        ok,
        f"stable-swing line deviation {line_dev:.2e} (limit 1e-4); "
        f"limited-segment circle deviation {circle_dev:.2e} over {int(steady.sum())} samples (limit 5e-3)",
    )
    assert line_ok
    assert circle_ok


def test_criterion_07_relay_discrimination():
    settings = RelaySettings.table1()
    dt = 5e-4

    def run(points):
        st = RelayState()
        for n, z in enumerate(points):
            relay_step(st, z, n, dt, settings)
        return st

    fault_point = 0.5 * complex(SystemParams().z_l)
    st = run([complex(2.0, 0.3)] * 100 + [fault_point] * 40)
    fault_ok = any(e[1] == "trip" and e[2] == "zone1" for e in st.event_log) and not any(
        e[1] == "psb_assert" for e in st.event_log
    )

    cot = 1.0 / math.tan(math.radians(settings.outer.tilt_deg))

    def ramp(transit):
        speed = (settings.outer.rgt - settings.middle.rgt) / transit
        u, pts = settings.outer.rgt + 0.15, []
        while u > 0.3:
            pts.append(complex(u + 0.3 * cot, 0.3))
            u -= speed * dt
        return pts

    st_slow = run(ramp(0.100))
    slow_ok = any(e[1] == "psb_assert" for e in st_slow.event_log) and not any(
        e[1] == "trip" for e in st_slow.event_log
    )
    st_fast = run(ramp(0.010))
    fast_ok = not any(e[1] == "psb_assert" for e in st_fast.event_log)

    ok = fault_ok and slow_ok and fast_ok
    _report(
        7,
        ok,
        f"zone-1 fault trip without PSB: {fault_ok}; 100 ms transit asserts PSB and blocks: "
        f"{slow_ok}; 10 ms transit stays unblocked: {fast_ok}",
    )
    assert fault_ok
    assert slow_ok
    assert fast_ok


def _blinder_spans(samples, blinder):
    """Contiguous delta spans (deg) over which a sampled locus lies inside a blinder."""
    spans, start, last = [], None, None
    for s in samples:
        if blinder_contains(complex(s.z_app), blinder):
            start = s.delta if start is None else start
            last = s.delta
        elif start is not None:
            spans.append((math.degrees(start), math.degrees(last)))
            start = None
    if start is not None:
        spans.append((math.degrees(start), math.degrees(last)))
    return spans


def _fmt_spans(spans):
    return ", ".join(f"{a:.1f}..{b:.1f} deg" for a, b in spans) or "never"


def _slow_swing_events(samples, settings, period=1.0):
    """Relay events logged while a sampled locus is swept once in ``period`` seconds."""
    rate = 2.0 * math.pi / period
    dt = (samples[1].delta - samples[0].delta) / rate
    st = RelayState()
    for n, s in enumerate(samples):
        relay_step(st, complex(s.z_app), n, dt, settings)
    return {e[1] for e in st.event_log}


def test_criterion_08_case_d_detection_malfunction(record_d):
    # The adaptive locus is the circle about z_l + z_g of radius v_g/i_max
    # (criterion 5). On caseD its lowest point (Im -0.336) lies inside the
    # 2/3-scaled outer blinder (rev -0.373), so no scaled outer blinder can
    # stay clear of it. What the model shows instead, and no design document
    # states, is an out-of-step blind spot: the arc enters the outer and
    # middle blinders but never the inner one, which the unlimited line on
    # the same settings crosses. Swept once per second, the adaptive arc
    # asserts PSB and never trips OST; the unlimited line trips OST.
    scn = build_case("caseD")
    adaptive = full_cycle(Strategy.ADAPTIVE_VI, scn.system, n_samples=19999)
    unlimited = full_cycle(Strategy.NONE, scn.system, n_samples=19999)
    outer = _blinder_spans(adaptive, scn.relay.outer)
    middle = _blinder_spans(adaptive, scn.relay.middle)
    inner = _blinder_spans(adaptive, scn.relay.inner)
    unlimited_inner = _blinder_spans(unlimited, scn.relay.inner)
    closed_ok = bool(outer) and bool(middle) and not inner and bool(unlimited_inner)
    spans = (
        f"adaptive outer: {_fmt_spans(outer)}; middle: {_fmt_spans(middle)}; "
        f"inner: {_fmt_spans(inner)}; unlimited inner: {_fmt_spans(unlimited_inner)}"
    )
    slow_adaptive = _slow_swing_events(adaptive, scn.relay)
    slow_unlimited = _slow_swing_events(unlimited, scn.relay)
    slow_ok = (
        "psb_assert" in slow_adaptive
        and "ost_trip" not in slow_adaptive
        and "ost_trip" in slow_unlimited
    )

    psb_events = [e for e in record_d.relay_events if e[1].startswith("psb")]
    ost_events = [e for e in record_d.relay_events if e[1] == "ost_trip"]
    sim_ok = not psb_events and not ost_events

    ok = closed_ok and slow_ok and sim_ok
    _report(
        8,
        ok,
        f"closed-form {spans}; 1 s swing: adaptive PSB "
        f"{'psb_assert' in slow_adaptive}, adaptive OST {'ost_trip' in slow_adaptive}, "
        f"unlimited OST {'ost_trip' in slow_unlimited}; "
        f"simulated PSB events: {len(psb_events)}, OST events: {len(ost_events)}",
    )
    assert sim_ok
    assert outer, f"the adaptive locus never enters the scaled outer blinder ({spans})"
    assert middle, f"the adaptive locus never enters the scaled middle blinder ({spans})"
    assert not inner, f"the adaptive locus enters the scaled inner blinder ({spans})"
    assert unlimited_inner, f"the unlimited locus never enters the scaled inner blinder ({spans})"
    assert "psb_assert" in slow_adaptive, f"a 1 s adaptive swing does not assert PSB: {slow_adaptive}"
    assert "ost_trip" not in slow_adaptive, f"a 1 s adaptive swing trips OST: {slow_adaptive}"
    assert "ost_trip" in slow_unlimited, f"a 1 s unlimited swing does not trip OST: {slow_unlimited}"


def test_criterion_09_case_e_classification_matrix(record_e1_variable):
    expected = {
        ("caseE1", Strategy.NONE): Classification.STABLE,
        ("caseE1", Strategy.VARIABLE_VI): Classification.UNSTABLE,
        ("caseE1", Strategy.ADAPTIVE_VI): Classification.STABLE,
        ("caseE2", Strategy.NONE): Classification.STABLE,
        ("caseE2", Strategy.VARIABLE_VI): Classification.UNSTABLE,
        ("caseE2", Strategy.ADAPTIVE_VI): Classification.UNSTABLE,
    }
    got = {}
    for (case_id, strategy), _ in expected.items():
        if (case_id, strategy) == ("caseE1", Strategy.VARIABLE_VI):
            record = record_e1_variable
        else:
            record = run_scenario(replace(build_case(case_id), limiter=LimiterConfig(strategy=strategy)))
        got[(case_id, strategy)] = classify_stability(record).classification
    mismatches = {
        key: (expected[key].value, got[key].value) for key in expected if got[key] != expected[key]
    }
    ok = not mismatches
    cells = ", ".join(
        f"{cid}/{s.value}={got[(cid, s)].value}" for cid, s in expected
    )
    _report(9, ok, f"matrix at shipped gains: {cells}; mismatches: {mismatches or 'none'}")
    assert ok, f"classification matrix deviates from the expected outcomes: {mismatches}"


def test_criterion_10_stability_margin_property():
    params = SystemParams()
    reference = p_delta_curve(Strategy.NONE, params, n=10000).peak
    peaks = {
        s.value: p_delta_curve(s, params, n=10000).peak
        for s in (Strategy.VARIABLE_VI, Strategy.ADAPTIVE_VI)
    }
    ok = all(p <= reference + 1e-12 for p in peaks.values())
    _report(
        10, ok, f"peaks: unlimited {reference:.5f}, " + ", ".join(f"{k} {v:.5f}" for k, v in peaks.items())
    )
    assert ok


def test_criterion_11_performance():
    scn = Scenario(
        name="perf",
        system=SystemParams(),
        apcl=ApclParams(h=7.0, d_p=0.05, p0=0.7),
        limiter=LimiterConfig(strategy=Strategy.VARIABLE_VI),
        events=(Event(1.0, EventKind.FAULT_APPLY, 0.5), Event(1.25, EventKind.FAULT_CLEAR)),
        horizon=20.0,
        dt=5e-4,
        relay=RelaySettings.table1(),
    )
    t0 = time.perf_counter()
    record = run_scenario(scn)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0 and len(record) == 40001
    _report(11, ok, f"20 s variable-VI scenario, {len(record) - 1} steps in {elapsed:.2f} s (limit 5 s)")
    assert len(record) == 40001
    assert elapsed < 5.0
