"""Limiter tests: gains, implicit current solve, adaptive PI, activation sets."""

import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest

from gfmswing import (
    AdaptiveState,
    AlwaysExceeded,
    InvalidThresholds,
    LimiterConfig,
    Phasor,
    Strategy,
    SystemParams,
    Unreachable,
    activation_sets,
    adaptive_vi_step,
    critical_angle,
    solve_faulted,
    solve_limited_current,
    solve_variable_vi_current,
    variable_vi_gain,
    vi_from_current,
    vi_gain_from_drop,
    vi_reference_update,
)
from gfmswing.limiter import ViValue, vi_drop


def bisect_limited(drive, z_ext, gain, alpha, i_th):
    """Independent oracle: plain bisection on the scalar magnitude residual."""
    e_mag = abs(drive)

    def residual(m):
        z_vi = gain * (m - i_th) * complex(1.0, alpha)
        return m * abs(z_ext + z_vi) - e_mag

    lo, hi = i_th, e_mag / abs(z_ext)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def bisect_current(delta, params, gain, alpha):
    """The bisection oracle on the healthy loop at power angle ``delta``."""
    drive = complex(params.e_ref) - params.v_g_mag * cmath.exp(-1j * delta)
    return bisect_limited(drive, complex(params.z_sigma), gain, alpha, params.i_th)


def collinear_root(drive, z_ext, gain, alpha, i_th):
    """Closed-form root when the virtual impedance is collinear with ``z_ext``.

    With alpha = tan(arg z_ext) the loop magnitude is |z_ext| + k*(m - i_th),
    k = gain*sqrt(1 + alpha^2), so k*m^2 + (|z_ext| - k*i_th)*m - |drive| = 0.
    """
    k = gain * math.sqrt(1.0 + alpha * alpha)
    b = abs(z_ext) - k * i_th
    e_mag = abs(drive)
    disc = math.sqrt(b * b + 4.0 * k * e_mag)
    # the cancellation-free form of the positive root for either sign of b
    return 2.0 * e_mag / (b + disc) if b > 0.0 else (disc - b) / (2.0 * k)


def test_variable_gain_table1():
    # reference-parameter gain, with the ratio set from the rounded 84.94 deg angle
    params = SystemParams(alpha_vi=math.tan(math.radians(84.94)))
    gain = variable_vi_gain(params)
    alpha = params.vi_ratio
    # oracle: direct formula evaluation
    expected = 1.0 / ((1.2 - 1.0) * 1.2 * math.sqrt(1.0 + alpha * alpha))
    assert gain == pytest.approx(expected, rel=1e-12)
    assert gain == pytest.approx(0.3675, abs=2e-4)


def test_variable_gain_simple():
    params = SystemParams(i_max=2.0, i_th=1.0, alpha_vi=0.0)
    assert variable_vi_gain(params) == pytest.approx(0.5, rel=1e-12)


def test_gain_rejects_bad_thresholds():
    broken = SimpleNamespace(i_max=1.0, i_th=1.0, vi_ratio=1.0, e_ref=Phasor(1.0, 0.0))
    with pytest.raises(InvalidThresholds):
        vi_gain_from_drop(1.0, broken)


def test_vi_from_current_boundary_and_formula():
    assert vi_from_current(1.0, 0.5, 2.0, 1.0) == ViValue(0.0, 0.0)
    assert vi_from_current(0.5, 0.5, 2.0, 1.0) == ViValue(0.0, 0.0)
    vi = vi_from_current(1.2, 0.3675, 11.295, 1.0)
    assert vi.r_vi == pytest.approx(0.0735, abs=1e-6)
    assert vi.x_vi == pytest.approx(0.830182, abs=1e-5)


def test_vi_reference_update_cases():
    e_ref = Phasor(1.0, 0.0)
    assert complex(vi_reference_update(ViValue(), 0.7 + 0.2j, e_ref)) == complex(e_ref)
    out = vi_reference_update(ViValue(1.0, 0.0), 1.0 + 0j, e_ref)
    assert abs(complex(out)) < 1e-15


def test_vi_reference_update_matches_complex_product():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        vi = ViValue(float(rng.uniform(0, 2)), float(rng.uniform(0, 5)))
        i_dq = complex(rng.normal(), rng.normal())
        e_ref = complex(rng.normal(), rng.normal())
        # oracle: the dq expansion is exactly the complex product
        expected = e_ref - vi.as_complex * i_dq
        assert abs(complex(vi_reference_update(vi, i_dq, e_ref)) - expected) < 1e-12


def test_vi_drop_magnitude_identity():
    # rectangular drop magnitude equals gain*(|I|-i_th)*|I|*sqrt(1+alpha^2)
    rng = np.random.default_rng(29)
    i_th = 1.0
    for _ in range(1000):
        gain = float(rng.uniform(0.01, 2.0))
        alpha = float(rng.uniform(0.0, 15.0))
        i_dq = complex(rng.normal(scale=2.0), rng.normal(scale=2.0))
        mag = abs(i_dq)
        vi = vi_from_current(mag, gain, alpha, i_th)
        drop = abs(complex(vi_drop(vi, i_dq)))
        expected = gain * max(mag - i_th, 0.0) * mag * math.sqrt(1.0 + alpha * alpha)
        assert drop == pytest.approx(expected, abs=1e-12)


def test_solve_continuous_at_activation_boundary():
    params = SystemParams()
    delta_th = critical_angle(params, params.i_th)
    m_lo, vi_lo, _ = solve_variable_vi_current(delta_th - 1e-9, params)
    m_hi, vi_hi, _ = solve_variable_vi_current(delta_th + 1e-9, params)
    assert vi_lo == ViValue(0.0, 0.0)
    assert abs(m_hi - m_lo) < 1e-6
    m_at, vi_at, _ = solve_variable_vi_current(delta_th, params)
    assert m_at == pytest.approx(params.i_th, abs=1e-9)
    assert vi_at == ViValue(0.0, 0.0)


def test_solve_zero_drive():
    params = SystemParams()
    mag, vi, sol = solve_variable_vi_current(0.0, params)
    assert mag == pytest.approx(0.0, abs=1e-12)
    assert vi == ViValue(0.0, 0.0)
    assert sol.zero_current


def test_solve_at_pi_matches_bisection_oracle():
    params = SystemParams()
    gain = variable_vi_gain(params)
    alpha = params.vi_ratio
    oracle = bisect_current(math.pi, params, gain, alpha)
    mag, vi, sol = solve_variable_vi_current(math.pi, params)
    assert mag == pytest.approx(oracle, abs=1e-8)
    assert mag == pytest.approx(1.15961974, abs=1e-6)  # frozen from the oracle
    assert abs(sol.current) == pytest.approx(mag, abs=1e-9)


def test_solve_consistent_over_active_range():
    params = SystemParams()
    alpha = params.vi_ratio  # the default ratio makes the healthy-loop VI collinear with z_sigma
    # the designed variable gain plus adaptive gains for small and large drops
    for gain in (
        variable_vi_gain(params),
        vi_gain_from_drop(0.3, params),
        vi_gain_from_drop(2.0, params),
    ):
        for delta in np.linspace(1.2, 2 * math.pi - 1.2, 25):
            mag, vi, sol = solve_variable_vi_current(float(delta), params, gain)
            assert mag == pytest.approx(bisect_current(float(delta), params, gain, alpha), abs=1e-8)
            drive = complex(params.e_ref) - params.v_g_mag * cmath.exp(-1j * float(delta))
            oracle = collinear_root(drive, complex(params.z_sigma), gain, alpha, params.i_th)
            assert abs(mag - oracle) <= 1e-12
            # the network re-solve with the returned impedance reproduces the magnitude
            assert abs(sol.current) == pytest.approx(mag, abs=1e-9)
        for fraction in (0.0, 0.5, 1.0):
            drive = complex(params.e_ref)
            z_ext = complex(params.z_tr) + fraction * complex(params.z_l)
            mag, vi = solve_limited_current(drive, z_ext, gain, alpha, params.i_th)
            oracle = bisect_limited(drive, z_ext, gain, alpha, params.i_th)
            assert mag == pytest.approx(oracle, abs=1e-8)
            assert abs(solve_faulted(vi.as_complex, params, fraction).current) == pytest.approx(
                mag, abs=1e-9
            )
            # with the ratio set to the faulted loop's own angle the root is closed-form
            alpha_f = z_ext.imag / z_ext.real
            mag_f, _ = solve_limited_current(drive, z_ext, gain, alpha_f, params.i_th)
            assert abs(mag_f - collinear_root(drive, z_ext, gain, alpha_f, params.i_th)) <= 1e-12


def test_bolted_terminal_design_current():
    # zero external impedance: the designed gain must cap the current at i_max
    params = SystemParams()
    mag, _ = solve_limited_current(
        complex(params.e_ref), 0j, variable_vi_gain(params), params.vi_ratio, params.i_th
    )
    assert mag == pytest.approx(params.i_max, abs=1e-6)


def test_adaptive_step_inactive_below_ceiling():
    cfg = LimiterConfig(strategy=Strategy.ADAPTIVE_VI)
    st = adaptive_vi_step(AdaptiveState(), 1.1, 5e-4, cfg, i_max=1.2)
    assert st.delta_v == 0.0
    assert st.integrator == 0.0


def test_adaptive_step_monotone_rise_on_overcurrent():
    cfg = LimiterConfig(strategy=Strategy.ADAPTIVE_VI)
    st = AdaptiveState()
    previous = 0.0
    for _ in range(200):
        st = adaptive_vi_step(st, 1.5, 5e-4, cfg, i_max=1.2)
        assert st.delta_v >= previous
        previous = st.delta_v
    assert st.delta_v > 0.0


def test_adaptive_step_output_clamped_and_windup_bounded():
    cfg = LimiterConfig(strategy=Strategy.ADAPTIVE_VI, kp=0.5, ki=600.0, delta_v_max=2.0)
    st = AdaptiveState()
    for _ in range(5000):
        st = adaptive_vi_step(st, 3.0, 5e-4, cfg, i_max=1.2)
    assert st.delta_v == cfg.delta_v_max
    # the integrator freezes within one increment of the saturation point
    assert st.integrator <= cfg.delta_v_max + cfg.ki * 1.8 * 5e-4 + 1e-12
    # recovery once the error reverses sign: the loop unwinds promptly
    for _ in range(5000):
        st = adaptive_vi_step(st, 0.5, 5e-4, cfg, i_max=1.2)
    assert st.delta_v == 0.0


def test_adaptive_state_invariant_random_sequences():
    cfg = LimiterConfig(strategy=Strategy.ADAPTIVE_VI)
    rng = np.random.default_rng(41)
    st = AdaptiveState()
    for mag in rng.uniform(0.0, 3.0, size=2000):
        st = adaptive_vi_step(st, float(mag), 5e-4, cfg, i_max=1.2)
        assert 0.0 <= st.delta_v <= cfg.delta_v_max


def test_adaptive_closed_loop_converges_to_ceiling():
    from gfmswing import LimiterState, electrical_power

    params = SystemParams()
    cfg = LimiterConfig(strategy=Strategy.ADAPTIVE_VI)
    for delta in (1.6, 2.4, math.pi, 4.0):
        st = AdaptiveState()
        lim = LimiterState(strategy=Strategy.ADAPTIVE_VI)
        for _ in range(3000):
            _, sol, vi = electrical_power(delta, lim, params, cfg)
            st = adaptive_vi_step(st, abs(sol.current), 5e-4, cfg, params.i_max)
            lim = LimiterState(Strategy.ADAPTIVE_VI, st, vi)
        _, sol, _ = electrical_power(delta, lim, params, cfg)
        assert abs(sol.current) == pytest.approx(params.i_max, abs=1e-6)


def test_critical_angles_table1():
    params = SystemParams()
    delta_th = critical_angle(params, params.i_th)
    delta_lim = critical_angle(params, params.i_max)
    assert delta_th == pytest.approx(1.1167, abs=2e-4)
    assert math.degrees(delta_th) == pytest.approx(63.98, abs=0.01)
    assert delta_lim == pytest.approx(1.3780, abs=2e-4)
    assert math.degrees(delta_lim) == pytest.approx(78.95, abs=0.01)


def test_critical_angle_crossing_is_exact():
    # oracle property: the unlimited current magnitude equals the level there
    params = SystemParams(v_g_mag=0.9)  # unequal magnitudes covered too
    for level in (0.8, 1.0, 1.2):
        d = critical_angle(params, level)
        drive = abs(complex(params.e_ref) - params.v_g_mag * cmath.exp(-1j * d))
        assert drive / abs(params.z_sigma) == pytest.approx(level, abs=1e-12)


def test_critical_angle_extremes():
    params = SystemParams()
    z = abs(params.z_sigma)
    assert critical_angle(params, 2.0 / z) == pytest.approx(math.pi)
    with pytest.raises(AlwaysExceeded):
        critical_angle(params, 10.0)
    # with unequal source magnitudes the current never drops to zero, so
    # sufficiently low levels are never reached
    lopsided = SystemParams(v_g_mag=0.5)
    assert abs(complex(lopsided.e_ref)) - 0.5 > 0.1 * z
    with pytest.raises(Unreachable):
        critical_angle(lopsided, 0.1)


def test_activation_sets():
    params = SystemParams()
    var_sets = activation_sets(params, Strategy.VARIABLE_VI)
    ad_sets = activation_sets(params, Strategy.ADAPTIVE_VI)
    none_sets = activation_sets(params, Strategy.NONE)
    assert math.degrees(var_sets.boundary) == pytest.approx(63.98, abs=0.01)
    assert math.degrees(ad_sets.boundary) == pytest.approx(78.95, abs=0.01)
    assert none_sets.boundary is None
    for sets in (var_sets, ad_sets):
        assert sets.is_active(math.pi)
        assert not sets.is_active(sets.boundary)  # closed inactive set
        assert not sets.is_active(0.1)
        assert not sets.is_active(2 * math.pi - 0.1)
    assert not none_sets.is_active(math.pi)
    lohi = var_sets.active_interval
    assert lohi == (var_sets.boundary, 2 * math.pi - var_sets.boundary)
