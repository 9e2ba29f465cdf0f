"""Analysis tests: power-angle curves, classification, portraits."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gfmswing import (
    ApclParams,
    Classification,
    Event,
    EventKind,
    LimiterConfig,
    Strategy,
    SystemParams,
    classify_stability,
    critical_angle,
    p_delta_curve,
    run_scenario,
)
from gfmswing.cases import build_case
from gfmswing.scenario import Scenario


def test_curves_coincide_below_activation():
    params = SystemParams()
    curves = {s: p_delta_curve(s, params, n=512) for s in Strategy}
    boundary = critical_angle(params, params.i_th)
    mask = curves[Strategy.NONE].delta < boundary - 0.01
    for s in (Strategy.VARIABLE_VI, Strategy.ADAPTIVE_VI):
        assert np.max(np.abs(curves[s].p[mask] - curves[Strategy.NONE].p[mask])) < 1e-10


def test_curve_zero_at_zero_angle():
    params = SystemParams()
    for s in Strategy:
        curve = p_delta_curve(s, params, n=2048)
        assert abs(curve.p[0]) < 1e-2  # first grid point sits near delta=0


def test_vi_curves_never_exceed_unlimited_peak():
    params = SystemParams()
    reference = p_delta_curve(Strategy.NONE, params, n=10000).peak
    for s in (Strategy.VARIABLE_VI, Strategy.ADAPTIVE_VI):
        assert p_delta_curve(s, params, n=10000).peak <= reference + 1e-12


def test_active_branches_lie_below_unlimited():
    # stability margin concerns the generating half of the cycle; on the
    # reverse-power half the limited magnitudes make the power less negative
    params = SystemParams()
    none_curve = p_delta_curve(Strategy.NONE, params, n=4096)
    for s in (Strategy.VARIABLE_VI, Strategy.ADAPTIVE_VI):
        curve = p_delta_curve(s, params, n=4096)
        act = curve.vi_active & (curve.delta <= math.pi)
        assert act.any()
        assert np.all(curve.p[act] <= none_curve.p[act] + 1e-9)


def test_curve_peaks_frozen_values():
    # frozen from a 1e4-point evaluation of the three closed forms
    params = SystemParams()
    assert p_delta_curve(Strategy.NONE, params, n=10000).peak == pytest.approx(1.02704, abs=1e-4)
    assert p_delta_curve(Strategy.VARIABLE_VI, params, n=10000).peak == pytest.approx(
        0.89153, abs=1e-4
    )
    assert p_delta_curve(Strategy.ADAPTIVE_VI, params, n=10000).peak == pytest.approx(
        0.98992, abs=1e-4
    )


def test_adaptive_curve_continuous_at_activation():
    params = SystemParams()
    curve = p_delta_curve(Strategy.ADAPTIVE_VI, params, n=20000)
    jumps = np.abs(np.diff(curve.p))
    assert jumps.max() < 5e-3  # no discontinuity at the activation boundary


def test_classify_flat_record_stable():
    scn = Scenario(
        name="flat",
        system=SystemParams(),
        apcl=ApclParams(h=7.0, d_p=0.05, p0=0.45),
        limiter=LimiterConfig(),
        events=(),
        horizon=1.0,
        relay=None,
    )
    assert classify_stability(run_scenario(scn)) is None  # no event, nothing to classify
    # a zero setpoint step leaves the record flat and gives it an event to classify after
    flat = run_scenario(replace(scn, events=(Event(0.1, EventKind.POWER_STEP, 0.0),)))
    verdict = classify_stability(flat, min_post_event=0.5)
    assert verdict.classification is Classification.STABLE
    assert verdict.max_delta_excursion < 1e-9
    assert verdict.pole_slips == 0


def test_classify_case_a_stable(record_a1):
    verdict = classify_stability(record_a1)
    assert verdict.classification is Classification.STABLE
    assert verdict.pole_slips == 0


def test_classify_case_b2_unstable(record_b2):
    verdict = classify_stability(record_b2)
    assert verdict.classification is Classification.UNSTABLE
    assert verdict.pole_slips >= 1


def test_classify_case_e1_variable_unstable(record_e1_variable):
    verdict = classify_stability(record_e1_variable)
    assert verdict.classification is Classification.UNSTABLE
    assert verdict.pole_slips >= 1


def test_classify_requires_post_event_horizon():
    scn = replace(build_case("caseA1"), horizon=10.0)  # event at 8 s: only 2 s after
    assert classify_stability(run_scenario(scn)) is None


def test_classify_counts_post_event_record_in_steps():
    # caseA1's jump at 8 s acts in the step starting at 8 s, so a 28 s horizon
    # leaves exactly the 20 s needed, though the summed clock ends at 27.99999999998 s
    record = run_scenario(replace(build_case("caseA1"), horizon=28.0))
    assert record.t[-1] < 28.0
    assert classify_stability(record).classification is Classification.STABLE


def test_classification_invariant_to_rate_halving(record_a1):
    coarse = run_scenario(replace(build_case("caseA1"), dt=1e-3))
    assert classify_stability(coarse).classification is classify_stability(record_a1).classification


def test_phase_portrait_clamped(record_a1):
    delta, omega = record_a1.delta, record_a1.omega_dev
    assert len(delta) == len(omega) == len(record_a1.t)
    assert np.abs(omega).max() <= 0.01 + 1e-15
    assert np.abs(omega).max() == pytest.approx(0.01)


def test_case_a_spiral_converges_back(record_a1):
    # the stable swing returns toward the pre-jump equilibrium
    assert abs(record_a1.delta[-1] - record_a1.delta[0]) < 0.2
    assert abs(record_a1.omega_dev[-1]) < 1e-3


def test_phase_portrait_equilibrium_is_a_point():
    scn = Scenario(
        name="flat",
        system=SystemParams(),
        apcl=ApclParams(h=7.0, d_p=0.05, p0=0.45),
        limiter=LimiterConfig(),
        events=(),
        horizon=0.5,
        relay=None,
    )
    record = run_scenario(scn)
    delta, omega = record.delta, record.omega_dev
    assert np.ptp(delta) < 1e-9
    assert np.ptp(omega) < 1e-9
