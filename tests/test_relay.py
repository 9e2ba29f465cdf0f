"""Relay engine tests: characteristics, PSB/OST state machine, zones."""

import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from gfmswing import (
    Blinder,
    MhoZone,
    Phasor,
    RelaySettings,
    RelayState,
    blinder_contains,
    mho_contains,
    relay_step,
    run_scenario,
)
from gfmswing.cases import CASE_IDS, build_case
from gfmswing.dynamics import _observe
from gfmswing.relay import CROSSING_BLOCK, crossings
from test_dynamics import CRITERION_11, MIXED

DT = 5e-4


def run_stream(points, settings, dt=DT, state=None, n0=0):
    """Step the relay on every point, numbering the samples from ``n0``; returns its state."""
    state = state or RelayState()
    for n, z in enumerate(points, n0):
        relay_step(state, z, n, dt, settings)
    return state


def events_named(state, event, element=None):
    return [
        e for e in state.event_log
        if e[1] == event and (element is None or e[2] == element)
    ]


def test_mho_basic_points():
    zone = MhoZone(Phasor.from_polar_deg(0.48, 84.29), 0.0)
    assert mho_contains(0.5 * complex(zone.reach), zone)  # center
    assert mho_contains(0j, zone)  # origin on the boundary
    assert mho_contains(complex(zone.reach), zone)  # reach point on the boundary
    assert not mho_contains(1.1 * complex(zone.reach), zone)
    assert not mho_contains(-0.1 * complex(zone.reach), zone)  # directional


def test_blinder_membership_examples():
    settings = RelaySettings.table1()
    # origin is inside all three
    for b in (settings.outer, settings.middle, settings.inner):
        assert blinder_contains(0j, b)
    # resistive coordinate of 0+j0.5 is about -0.0443 for the 84.94 deg tilt
    u = 0.0 - 0.5 / math.tan(math.radians(settings.inner.tilt_deg))
    assert u == pytest.approx(-0.0443, abs=1e-3)
    assert blinder_contains(0.5j, settings.inner)
    # far right resistive point is outside even the outer blinder
    assert not blinder_contains(1.0 + 0j, settings.outer)


def test_blinder_validation():
    with pytest.raises(ValueError):
        Blinder(rgt=-1.0, lft=-2.0, fwd=1.0, rev=-1.0, tilt_deg=60.0)
    with pytest.raises(ValueError):
        Blinder(rgt=1.0, lft=-1.0, fwd=1.0, rev=-1.0, tilt_deg=0.0)


def test_blinders_nested_on_dense_grid():
    settings = RelaySettings.table1()
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2.5, 2.5, size=(20000, 2))
    for x, y in pts:
        z = complex(x, y)
        if blinder_contains(z, settings.inner):
            assert blinder_contains(z, settings.middle)
        if blinder_contains(z, settings.middle):
            assert blinder_contains(z, settings.outer)


NOT_NESTED = {
    # an inner blinder reaching past the middle one could assert PSB and trip OST on one sample
    "overhanging-inner": dict(inner=Blinder(rgt=0.7, lft=-0.25, fwd=1.31, rev=-0.39, tilt_deg=84.94)),
    "middle-past-outer-rev": dict(middle=Blinder(rgt=0.61, lft=-0.61, fwd=1.57, rev=-0.6, tilt_deg=84.94)),
    "outer-inside-middle": dict(outer=Blinder(rgt=0.6, lft=-0.84, fwd=1.88, rev=-0.56, tilt_deg=84.94)),
    "inner-past-middle-fwd": dict(inner=Blinder(rgt=0.25, lft=-0.25, fwd=1.6, rev=-0.39, tilt_deg=84.94)),
    "tilts-differ": dict(inner=Blinder(rgt=0.25, lft=-0.25, fwd=1.31, rev=-0.39, tilt_deg=80.0)),
}


@pytest.mark.parametrize("changes", NOT_NESTED.values(), ids=NOT_NESTED.keys())
def test_settings_reject_blinders_that_do_not_nest(changes):
    with pytest.raises(ValueError, match="nest"):
        replace(RelaySettings(), **changes)


def test_settings_accept_blinders_that_touch():
    # the check is inclusive: equal blinders nest
    same = RelaySettings().middle
    settings = replace(RelaySettings(), inner=same, outer=same)
    assert settings.inner == settings.middle == settings.outer


def test_scaled_settings():
    settings = RelaySettings.table1().scaled(2.0 / 3.0)
    assert abs(settings.zones[0].reach) == pytest.approx(0.32)
    assert settings.outer.rgt == pytest.approx(0.56)
    assert settings.inner.rev == pytest.approx(-0.26)
    assert settings.outer.tilt_deg == RelaySettings.table1().outer.tilt_deg
    assert settings.delta_t_psb == pytest.approx(2.0 / 60.0)


def test_fault_step_trips_zone1_without_psb():
    settings = RelaySettings.table1()
    load = complex(2.0, 0.3)
    fault = 0.5 * complex(Phasor.from_polar_deg(0.3, 84.29))
    state = run_stream([load] * 100 + [fault] * 50, settings)
    assert events_named(state, "trip", "zone1")
    assert not state.psb_asserted
    assert not events_named(state, "psb_assert")
    assert events_named(state, "fault_classified")


def test_zone2_timer_and_reset():
    settings = RelaySettings.table1()
    z2_point = 0.9 * complex(settings.zones[1].reach)  # between the zone-1 and zone-2 reaches
    assert not mho_contains(z2_point, settings.zones[0])
    # dwell shorter than the 0.5 s delay: no trip
    state = run_stream([complex(2.0, 0.3)] * 10 + [z2_point] * 900, settings)
    assert not events_named(state, "trip", "zone2")
    # leaving and re-entering resets the timer
    state = run_stream([complex(2.0, 0.3)] * 10 + [z2_point] * 900, settings, state=state, n0=910)
    assert not events_named(state, "trip", "zone2")
    # a full dwell trips
    state2 = run_stream([complex(2.0, 0.3)] * 10 + [z2_point] * 1100, settings)
    assert events_named(state2, "trip", "zone2")


LOAD = complex(2.0, 0.3)


def observe_both_ways(points, settings, dt=DT, t=None):
    """Walk ``points`` with ``relay_step`` on every sample and with the run's walk at
    the crossings and pending trips (``dynamics._observe``); the PSB and OST flags
    and the event log, its samples stamped by ``t`` (default: their index), must
    agree. Returns the log."""
    z = np.array(points, dtype=complex)
    t = np.arange(len(points), dtype=float) if t is None else t
    state, psb, ost = RelayState(), [], []
    for k in range(len(points)):
        relay_step(state, z[k].item(), k, dt, settings)
        psb.append(state.psb_asserted)
        ost.append(state.ost_tripped)
    got_psb, got_ost, log = _observe(z, t, dt, settings)
    assert np.array_equal(got_psb, psb) and np.array_equal(got_ost, ost)
    assert typed(log) == typed((float(t[k]), event, element) for k, event, element in state.event_log)
    return log


def sample_stamps(points, settings, dt=DT):
    """Walk ``points`` both ways with each sample's index as its log stamp; returns the log."""
    return observe_both_ways(points, settings, dt)


@pytest.mark.parametrize("zone, scale, lag", [(3, 0.9, 2000), (2, 0.9, 1000), (1, 0.5, 0)])
def test_zone_trips_after_its_delay_in_whole_samples(zone, scale, lag):
    # 1.0 s and 0.5 s at dt 5e-4 are 2 000 and 1 000 samples; zone 1 has no delay
    settings = RelaySettings()
    point = scale * complex(settings.zones[zone - 1].reach)
    assert all(mho_contains(point, z) == (k >= zone - 1) for k, z in enumerate(settings.zones))
    element = f"zone{zone}"
    log = sample_stamps([LOAD] * 10 + [point] * 2100, settings)
    assert [e for e in log if e[2] == element] == [(10, "enter", element), (10 + lag, "trip", element)]


def middle_entry_after(transit, settings, dt=DT):
    """Middle-blinder decision of a point that dwells ``transit`` samples between
    the outer and middle blinders, with the running-sum clock of a record."""
    cot = 1.0 / math.tan(math.radians(settings.outer.tilt_deg))
    between = 0.5 * (settings.outer.rgt + settings.middle.rgt) + 0.3 * cot + 0.3j
    state = run_stream([LOAD] * 10 + [between] * transit + [0.3 * cot + 0.3j], settings, dt)
    return [e[1] for e in state.event_log if e[2] == "middle"]


@pytest.mark.parametrize("transit, decision", [(80, "fault_classified"), (81, "psb_assert")])
def test_psb_needs_a_transit_longer_than_its_time(transit, decision):
    # 2 cycles at 50 Hz are 40 ms, 80 samples at dt 5e-4: a transit of exactly that is not longer
    assert middle_entry_after(transit, replace(RelaySettings(), f_nominal=50.0)) == ["enter", decision]


def test_unreachable_delays_neither_trip_nor_raise():
    # delay/dt overflows to inf at dt 1e-300; a ceil or int of it would raise OverflowError
    zones = tuple(replace(zone, time_delay=1e300) for zone in RelaySettings().zones)
    settings = replace(RelaySettings(), zones=zones, psb_cycles=1e300, f_nominal=1.0)
    point = 0.9 * complex(zones[2].reach)
    for dt in (DT, 1e-300):
        log = sample_stamps([LOAD] * 10 + [point] * 100, settings, dt)
        assert not [e for e in log if e[1] == "trip"]
        assert middle_entry_after(100, settings, dt) == ["enter", "fault_classified"]


def make_ramp(settings, transit_outer_to_middle, x=0.3, dt=DT):
    """Horizontal path at constant reactance crossing the blinders right to left."""
    cot = 1.0 / math.tan(math.radians(settings.outer.tilt_deg))
    speed = (settings.outer.rgt - settings.middle.rgt) / transit_outer_to_middle
    u = settings.outer.rgt + 0.2
    points = []
    while u > -0.1:
        points.append(complex(u + x * cot, x))
        u -= speed * dt
    return points


def test_slow_ramp_asserts_psb_and_blocks_zones():
    settings = RelaySettings.table1()
    points = make_ramp(settings, transit_outer_to_middle=0.100)
    state = run_stream(points, settings)
    assert events_named(state, "psb_assert")
    assert state.psb_asserted
    # zones are blocked while PSB is on: inner path point would be in zone 3
    assert not any(e[1] == "trip" for e in state.event_log)


def test_fast_ramp_classified_as_fault():
    settings = RelaySettings.table1()
    points = make_ramp(settings, transit_outer_to_middle=0.010)
    state = run_stream(points, settings)
    assert not events_named(state, "psb_assert")
    assert events_named(state, "fault_classified")


def test_ost_requires_psb_and_inner_crossing():
    settings = RelaySettings.table1()
    slow = make_ramp(settings, transit_outer_to_middle=0.100)
    state = run_stream(slow, settings)
    assert state.psb_asserted
    # the slow ramp ends near u=-0.1 at x=0.3: inside the inner band
    assert state.ost_tripped
    log_events = [e[1] for e in state.event_log]
    assert log_events.index("psb_assert") < log_events.index("ost_trip")


def test_no_ost_without_psb_on_fast_crossing():
    settings = RelaySettings.table1()
    fast = make_ramp(settings, transit_outer_to_middle=0.004)
    state = run_stream(fast, settings)
    assert not state.ost_tripped
    assert not events_named(state, "ost_trip")


def test_psb_deasserts_on_outer_exit():
    settings = RelaySettings.table1()
    slow = make_ramp(settings, transit_outer_to_middle=0.100)
    state = run_stream(slow, settings)
    assert state.psb_asserted
    state = run_stream([complex(3.0, 0.3)] * 5, settings, state=state, n0=len(slow))
    assert not state.psb_asserted
    assert events_named(state, "psb_deassert")


def test_nan_is_outside_everything():
    settings = RelaySettings.table1()
    state = run_stream([complex(0.1, 0.2)] * 10, settings)
    assert state.outer_entry == 0 and state.in_middle and state.in_inner
    relay_step(state, complex(math.nan, math.nan), 10, DT, settings)
    assert state.outer_entry is None and not state.in_middle and not state.in_inner


def test_determinism():
    settings = RelaySettings.table1()
    rng = np.random.default_rng(99)
    walk = np.cumsum(rng.normal(scale=0.02, size=4000)) + 1.2
    points = [complex(float(u), 0.3 + 0.1 * math.sin(k / 300)) for k, u in enumerate(walk)]
    a = run_stream(points, settings)
    b = run_stream(points, settings)
    assert a.event_log == b.event_log
    assert a == b


def random_walks():
    """Twenty seeded impedance walks of 3000 samples across the blinders."""
    rng = np.random.default_rng(123)
    for trial in range(20):
        steps = rng.normal(scale=0.03, size=3000)
        walk = np.cumsum(steps) + rng.uniform(0.5, 1.5)
        yield [complex(float(u), float(rng.uniform(-0.2, 1.0))) for u in walk]


def test_ost_never_precedes_psb_in_episode_random_walks():
    settings = RelaySettings.table1()
    for points in random_walks():
        state = run_stream(points, settings)
        asserted = False
        for _, event, _ in state.event_log:
            if event == "psb_assert":
                asserted = True
            elif event == "psb_deassert":
                asserted = False
            elif event == "ost_trip":
                assert asserted, "out-of-step trip outside a blocking episode"


# --- the in-place relay against the frozen relay it replaced ------------------


@dataclass(frozen=True)
class ReferenceRelayState:
    """Occupancy, timers and latched decisions of one relay instance.

    The per-zone tuples start empty and take one entry per zone of the
    settings at the first ``relay_step``.
    """

    in_outer: bool = False
    in_middle: bool = False
    in_inner: bool = False
    in_zone: tuple[bool, ...] = ()
    zone_timers: tuple[float, ...] = ()
    zone_tripped: tuple[bool, ...] = ()
    outer_entry_time: float | None = None
    psb_asserted: bool = False
    ost_tripped: bool = False
    ost_this_episode: bool = False
    event_log: tuple[tuple[float, str, str], ...] = ()


def reference_relay_step(
    state: ReferenceRelayState,
    z: complex | None,
    t: float,
    dt: float,
    settings: RelaySettings,
) -> ReferenceRelayState:
    """Advance the relay by one sample of measured apparent impedance.

    ``z`` may be ``None`` (or NaN) when the impedance is undefined; the
    point is then treated as lying outside every characteristic.
    """
    if z is None:
        z = complex(float("nan"), float("nan"))
    in_outer = blinder_contains(z, settings.outer)
    in_middle = blinder_contains(z, settings.middle)
    in_inner = blinder_contains(z, settings.inner)

    log: list[tuple[float, str, str]] = []
    outer_entry_time = state.outer_entry_time
    psb = state.psb_asserted
    ost_episode = state.ost_this_episode
    ost_tripped = state.ost_tripped

    if in_outer and not state.in_outer:
        outer_entry_time = t
        log.append((t, "enter", "outer"))
    elif not in_outer and state.in_outer:
        log.append((t, "exit", "outer"))
        outer_entry_time = None
        if psb:
            psb = False
            ost_episode = False
            log.append((t, "psb_deassert", "outer"))

    psb_just_asserted = False
    if in_middle and not state.in_middle:
        log.append((t, "enter", "middle"))
        if not psb:
            transit = t - outer_entry_time if outer_entry_time is not None else 0.0
            if transit > settings.delta_t_psb:
                psb = True
                psb_just_asserted = True
                log.append((t, "psb_assert", "middle"))
            else:
                log.append((t, "fault_classified", "middle"))
    elif not in_middle and state.in_middle:
        log.append((t, "exit", "middle"))

    if in_inner and not state.in_inner:
        log.append((t, "enter", "inner"))
    elif not in_inner and state.in_inner:
        log.append((t, "exit", "inner"))

    if psb and in_inner and (not state.in_inner or psb_just_asserted) and not ost_episode:
        ost_tripped = True
        ost_episode = True
        log.append((t, "ost_trip", "inner"))

    n_zones = len(settings.zones)
    in_zone = list(state.in_zone or (False,) * n_zones)
    timers = list(state.zone_timers or (0.0,) * n_zones)
    tripped = list(state.zone_tripped or (False,) * n_zones)
    for k, zone in enumerate(settings.zones):
        inside = (not psb) and mho_contains(z, zone)
        zone_id = f"zone{k + 1}"
        if inside and not in_zone[k]:
            log.append((t, "enter", zone_id))
            timers[k] = 0.0
            tripped[k] = False
        elif not inside and in_zone[k]:
            log.append((t, "exit", zone_id))
            timers[k] = 0.0
            tripped[k] = False
        elif inside:
            timers[k] += dt
        if inside and not tripped[k] and timers[k] >= zone.time_delay:
            tripped[k] = True
            log.append((t, "trip", zone_id))
        in_zone[k] = inside

    return ReferenceRelayState(
        in_outer=in_outer,
        in_middle=in_middle,
        in_inner=in_inner,
        in_zone=tuple(in_zone),
        zone_timers=tuple(timers),
        zone_tripped=tuple(tripped),
        outer_entry_time=outer_entry_time,
        psb_asserted=psb,
        ost_tripped=ost_tripped,
        ost_this_episode=ost_episode,
        event_log=state.event_log + tuple(log) if log else state.event_log,
    )


def typed(log):
    """Log entries with the type of each element, so ``1`` and ``1.0`` differ."""
    return [tuple((type(x), x) for x in entry) for entry in log]


SHARED_FIELDS = ("in_middle", "in_inner", "psb_asserted", "ost_tripped", "ost_this_episode")


def walk_both(samples, dt, settings):
    """Walk both relays over ``(t, z)`` samples, the reference by ``t`` and the relay by
    sample index: per sample, the blinder occupancy, the decisions and the zone
    occupancy must agree. Returns both event logs, the relay's stamped by ``t``."""
    ref, state, times = ReferenceRelayState(), RelayState(), []
    for k, (t, z) in enumerate(samples):
        ref = reference_relay_step(ref, z, t, dt, settings)
        relay_step(state, z, k, dt, settings)
        times.append(t)
        assert (state.outer_entry is not None) == ref.in_outer, (k, "in_outer")
        for name in SHARED_FIELDS:
            assert getattr(state, name) == getattr(ref, name), (k, name)
        assert tuple(due is not None for due in state.zone_due) == ref.in_zone, k
    return [(times[n], event, element) for n, event, element in state.event_log], list(ref.event_log)


def assert_relays_agree(samples, dt, settings) -> int:
    """Both relays agree sample by sample and log the same events (entries, order
    and element types). Returns the number of events logged."""
    log, ref_log = walk_both(samples, dt, settings)
    assert typed(log) == typed(ref_log)
    return len(log)


def test_counted_delay_moves_only_the_whole_step_trip():
    # the frozen relay sums its zone-3 timer: 2 000 additions of 5e-4 fall short
    # of 1.0 s, so it trips one sample late, at 2 011 instead of 2 010
    points = [LOAD] * 10 + [0.9 * complex(RelaySettings().zones[2].reach)] * 2100
    times = np.cumsum([0.0] + [DT] * (len(points) - 1)).tolist()
    log, ref_log = walk_both(zip(times, points), DT, RelaySettings())
    assert [e for e in log if e not in ref_log] == [(times[2010], "trip", "zone3")]
    assert [e for e in ref_log if e not in log] == [(times[2011], "trip", "zone3")]
    assert typed(e for e in log if e[1] != "trip") == typed(e for e in ref_log if e[1] != "trip")


RECORDED = {**{case: build_case(case) for case in CASE_IDS}, "criterion11": CRITERION_11, "mixed": MIXED}


@pytest.mark.parametrize("name", RECORDED)
def test_relay_matches_reference_on_recorded_impedance(name):
    scn = replace(RECORDED[name], dt=2e-3)
    rec = run_scenario(replace(scn, relay=None))
    samples = [(float(t), complex(z_re, z_im)) for t, z_re, z_im in zip(rec.t, rec.zapp_re, rec.zapp_im)]
    assert_relays_agree(samples, scn.dt, scn.relay)


@pytest.mark.parametrize("settings", [RelaySettings()], ids=["reference"])
def test_relay_matches_reference_on_random_walks(settings):
    n_events = 0
    for points in random_walks():
        n_events += assert_relays_agree(((k * DT, z) for k, z in enumerate(points)), DT, settings)
    assert n_events


# --- the run's walk at crossings against relay_step on every sample -----------

# zone delays of 1, 3 and 9 samples: many dwells trip strictly between two crossings
SHORT_DELAYS = replace(
    RelaySettings(),
    zones=tuple(replace(zone, time_delay=d * DT) for zone, d in zip(RelaySettings().zones, (1, 3, 9))),
)


@pytest.mark.parametrize(
    "settings, min_between", [(RelaySettings(), 0), (SHORT_DELAYS, 100)], ids=["reference", "short-delays"]
)
def test_walk_at_crossings_matches_every_sample_on_random_walks(settings, min_between):
    between = 0  # trips on a sample that is no crossing: only a pending trip reaches it
    for points in random_walks():
        log = observe_both_ways(points, settings, t=np.arange(len(points)) * DT)
        marks = set(crossings(np.array(points), settings).tolist())
        between += sum(round(t / DT) not in marks for t, event, _ in log if event == "trip")
    assert between >= min_between


def membership(z, settings):
    """Characteristics containing ``z``, by the scalar predicates."""
    blinders = (settings.outer, settings.middle, settings.inner)
    return tuple(blinder_contains(z, b) for b in blinders) + tuple(mho_contains(z, m) for m in settings.zones)


def boundary_points(settings, rng, n):
    """``n`` points on, and within an ulp or two of, every blinder side and mho circle,
    with NaN and infinite samples among them."""
    cot = 1.0 / math.tan(math.radians(settings.outer.tilt_deg))
    out = []
    while len(out) < n:
        b = (settings.outer, settings.middle, settings.inner)[rng.integers(3)]
        x = rng.uniform(b.rev, b.fwd)
        side = rng.integers(5)
        if side < 2:
            z = complex((b.lft, b.rgt)[side] + x * cot, x)
        elif side < 4:
            x = (b.rev, b.fwd)[side - 2]
            z = complex(rng.uniform(b.lft, b.rgt) + x * cot, x)
        else:
            center = 0.5 * complex(settings.zones[rng.integers(len(settings.zones))].reach)
            z = center + abs(center) * complex(math.cos(x * 6.0), math.sin(x * 6.0))
        ulps = rng.integers(-2, 3, size=2)
        out.append(complex(z.real + ulps[0] * math.ulp(z.real), z.imag + ulps[1] * math.ulp(z.imag)))
        if rng.random() < 0.01:
            out.append(complex(rng.choice([math.nan, math.inf, -math.inf]), x))
    return out[:n]


# the reference settings and the 2/3-scaled ones of caseD
BOUNDARY_SETTINGS = pytest.mark.parametrize(
    "settings", [RelaySettings(), RelaySettings().scaled(2 / 3)], ids=["reference", "caseD"]
)


@BOUNDARY_SETTINGS
def test_mho_contains_rounds_as_complex_abs(settings):
    # on the circles and an ulp or two off them: elementwise over an array and on each
    # Python complex, the membership is the one abs() of a Python complex gives
    points = boundary_points(settings, np.random.default_rng(11), 4000)
    for zone in settings.zones:
        center = 0.5 * complex(zone.reach)
        want = [abs(z - center) <= abs(center) for z in points]
        assert mho_contains(np.array(points), zone).tolist() == want
        assert [bool(mho_contains(z, zone)) for z in points] == want


@BOUNDARY_SETTINGS
def test_crossings_match_scalar_membership(settings):
    # past two blocks, so the overlap at each block boundary is crossed too
    points = boundary_points(settings, np.random.default_rng(7), 2 * CROSSING_BLOCK + 500)
    inside = [membership(z, settings) for z in points]
    want = [0] + [k for k in range(1, len(points)) if inside[k] != inside[k - 1]]
    got = crossings(np.array(points), settings)
    assert got.tolist() == want
    assert len(want) > len(points) // 4
