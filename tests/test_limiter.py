"""Limiter tests: gains, implicit current solve, adaptive PI, activation sets."""

import cmath
import math

import numpy as np
import pytest

from gfmswing import (
    DegenerateCircuit,
    LimiterConfig,
    NoConvergence,
    Strategy,
    SystemParams,
    adaptive_vi_step,
    critical_angle,
    cycle_currents,
    solve_faulted,
    solve_limited_current,
    solve_variable_vi_current,
    variable_vi_gain,
    vi_from_current,
    vi_gain_from_drop,
)
from gfmswing import limiter
from gfmswing.cases import case_d_system
from gfmswing.limiter import ViValue, _limited_magnitude, _loop_magnitude, vi_drop


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


def test_vi_from_current_boundary_and_formula():
    assert vi_from_current(1.0, 0.5, 2.0, 1.0) == ViValue(0.0, 0.0)
    assert vi_from_current(0.5, 0.5, 2.0, 1.0) == ViValue(0.0, 0.0)
    vi = vi_from_current(1.2, 0.3675, 11.295, 1.0)
    assert vi.r_vi == pytest.approx(0.0735, abs=1e-6)
    assert vi.x_vi == pytest.approx(0.830182, abs=1e-5)


def test_vi_drop_matches_complex_product():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        vi = ViValue(float(rng.uniform(0, 2)), float(rng.uniform(0, 5)))
        i_dq = complex(rng.normal(), rng.normal())
        # oracle: the dq expansion is exactly the complex product
        expected = vi.as_complex * i_dq
        assert abs(complex(vi_drop(vi, i_dq)) - expected) < 1e-12


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
    delta_th, gain = critical_angle(params, params.i_th), variable_vi_gain(params)
    m_lo, vi_lo, _ = solve_variable_vi_current(delta_th - 1e-9, params, gain)
    m_hi, vi_hi, _ = solve_variable_vi_current(delta_th + 1e-9, params, gain)
    assert vi_lo == ViValue(0.0, 0.0)
    assert abs(m_hi - m_lo) < 1e-6
    m_at, vi_at, _ = solve_variable_vi_current(delta_th, params, gain)
    assert m_at == pytest.approx(params.i_th, abs=1e-9)
    assert vi_at == ViValue(0.0, 0.0)


def test_solve_zero_drive():
    params = SystemParams()
    mag, vi, sol = solve_variable_vi_current(0.0, params, variable_vi_gain(params))
    assert mag == pytest.approx(0.0, abs=1e-12)
    assert vi == ViValue(0.0, 0.0)
    assert math.isnan(sol.z_apparent.real) and math.isnan(sol.z_apparent.imag)


def test_stalled_solve_reports_its_residual(monkeypatch):
    # the faulted loop is not along the VI, so one Newton step from the aligned root cannot
    # meet the tolerance
    monkeypatch.setattr(limiter, "MAX_SOLVE_ITER", 1)
    params = SystemParams()
    gain = variable_vi_gain(params)
    z_ext = complex(params.z_tr) + 0.5 * complex(params.z_l)
    with pytest.raises(NoConvergence, match=r"stalled at m=\S+ \(residual -?\d\S*\)$"):
        solve_limited_current(params.e_ref, z_ext, gain, params.vi_ratio, params.i_th)


ACTIVE_RANGE = np.linspace(1.2, 2 * math.pi - 1.2, 25).tolist()


def active_range_gains(params):
    """The designed variable gain plus adaptive gains for small and large drops."""
    return variable_vi_gain(params), vi_gain_from_drop(0.3, params), vi_gain_from_drop(2.0, params)


def test_aligned_loop_is_settled_by_one_newton_check(monkeypatch):
    # with the default ratio the healthy-loop VI lies along z_sigma, so rtsafe starts at the root
    monkeypatch.setattr(limiter, "MAX_SOLVE_ITER", 1)
    params = SystemParams()
    z_sigma, alpha, i_th = complex(params.z_sigma), params.vi_ratio, params.i_th
    for gain in active_range_gains(params):
        for delta in ACTIVE_RANGE:
            mag, _, _ = solve_variable_vi_current(delta, params, gain)
            drive = complex(params.e_ref) - params.v_g_mag * cmath.exp(-1j * delta)
            assert abs(mag - collinear_root(drive, z_sigma, gain, alpha, i_th)) <= 1e-12


def test_solve_at_pi_matches_bisection_oracle():
    params = SystemParams()
    gain = variable_vi_gain(params)
    alpha = params.vi_ratio
    oracle = bisect_current(math.pi, params, gain, alpha)
    mag, vi, sol = solve_variable_vi_current(math.pi, params, gain)
    assert mag == pytest.approx(oracle, abs=1e-8)
    assert mag == pytest.approx(1.15961974, abs=1e-6)  # frozen from the oracle
    assert abs(sol.current) == pytest.approx(mag, abs=1e-9)


def test_solve_consistent_over_active_range():
    params = SystemParams()
    alpha = params.vi_ratio  # the default ratio makes the healthy-loop VI collinear with z_sigma
    for gain in active_range_gains(params):
        for delta in ACTIVE_RANGE:
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
    # healthy loops under an explicit ratio, where the VI is not along z_sigma
    for alpha_vi in (0.0, 1.0, 30.0):
        params = SystemParams(alpha_vi=alpha_vi)
        for gain in active_range_gains(params):
            for delta in ACTIVE_RANGE:
                mag, vi, sol = solve_variable_vi_current(delta, params, gain)
                assert mag == pytest.approx(bisect_current(delta, params, gain, alpha_vi), abs=1e-8)
                assert abs(sol.current) == pytest.approx(mag, abs=1e-9)


LOOP_SYSTEMS = {"reference": SystemParams(), "caseD": case_d_system()}


@pytest.mark.parametrize("system", LOOP_SYSTEMS)
def test_vi_lies_along_the_loop_without_explicit_ratio(system):
    # the fact the kernel's closed-form root rests on: with alpha_vi unset the
    # VI direction atan(vi_ratio) is the angle of z_sigma, bit for bit
    params = LOOP_SYSTEMS[system]
    assert params.alpha_vi is None
    assert cmath.phase(params.z_sigma) == math.atan(params.vi_ratio)


@pytest.mark.parametrize("system", LOOP_SYSTEMS)
def test_closed_form_root_matches_rtsafe_over_the_cycle(system):
    params = LOOP_SYSTEMS[system]
    z_sigma, alpha, i_th = complex(params.z_sigma), params.vi_ratio, params.i_th
    norm = math.sqrt(1.0 + alpha * alpha)
    grid = np.linspace(0.0, 2.0 * math.pi, 20_000)
    drives = [abs(params.e_ref - params.v_g_mag * cmath.exp(-1j * float(d))) for d in grid]
    gains = [variable_vi_gain(params), 0.3] + [vi_gain_from_drop(drop, params) for drop in (0.01, 0.1, 0.5, 2.0)]
    for gain in gains:
        active, worst = 0, 0.0
        for e_mag in drives:
            want = _limited_magnitude(e_mag, z_sigma, gain, alpha, i_th)
            got = _loop_magnitude(e_mag, abs(z_sigma), gain * norm, i_th)
            active += want > i_th
            worst = max(worst, abs(got - want) / want if want else got)
        assert worst <= 1e-15, (gain, worst)
        assert active > 10_000  # most of the grid exercises the quadratic


def test_closed_form_root_is_exact_at_or_below_threshold_and_at_zero_gain():
    params = SystemParams()
    z_sigma, i_th = complex(params.z_sigma), params.i_th
    z_mag, gain = abs(z_sigma), variable_vi_gain(params)
    k = gain * math.sqrt(1.0 + params.vi_ratio**2)
    for e_mag in (0.0, 0.5 * i_th * z_mag, i_th * z_mag):
        assert e_mag / z_mag <= i_th
        assert _loop_magnitude(e_mag, z_mag, k, i_th) == e_mag / z_mag
        assert _limited_magnitude(e_mag, z_sigma, gain, params.vi_ratio, i_th) == e_mag / z_mag
    for e_mag in (1.5 * i_th * z_mag, 2.0):
        assert _loop_magnitude(e_mag, z_mag, 0.0, i_th) == e_mag / z_mag
        assert _limited_magnitude(e_mag, z_sigma, 0.0, params.vi_ratio, i_th) == e_mag / z_mag
        assert _loop_magnitude(e_mag, z_mag, k, i_th) < e_mag / z_mag  # the VI limits it


def test_bolted_terminal_design_current():
    # zero external impedance: the designed gain must cap the current at i_max
    params = SystemParams()
    mag, _ = solve_limited_current(
        complex(params.e_ref), 0j, variable_vi_gain(params), params.vi_ratio, params.i_th
    )
    assert mag == pytest.approx(params.i_max, abs=1e-6)


@pytest.mark.parametrize("drive", [1.0, 100.0, 1e4])
def test_limited_root_without_external_impedance_is_the_quadratic_root(drive):
    # the VI alone: k*m*(m - i_th) = |drive|; drives 100 and 1e4 put the root past i_th + 1
    params = SystemParams()
    gain, alpha, i_th = variable_vi_gain(params), params.vi_ratio, params.i_th
    mag, vi = solve_limited_current(complex(drive), 0j, gain, alpha, i_th)
    want = collinear_root(complex(drive), 0j, gain, alpha, i_th)
    assert abs(mag - want) <= 1e-12 * want
    assert vi == vi_from_current(mag, gain, alpha, i_th)


def test_unlimited_solve_without_any_impedance_is_degenerate():
    with pytest.raises(DegenerateCircuit, match="no external impedance and no virtual impedance"):
        solve_limited_current(1.0 + 0j, 0j, 0.0, 11.0, 1.0)


def test_limited_root_through_the_bisection_fallback():
    # a near-bolted loop whose root lies within an ulp of i_th: Newton steps leave the
    # bracket, so rtsafe bisects
    drive, z_ext = 6.301347561627593 + 0j, 1.8019652781597597e-05 + 3.782912063477796e-06j
    gain, alpha, i_th = 13537.704900126064, 197.13692602485966, 337971.2093308629
    mag, _ = solve_limited_current(drive, z_ext, gain, alpha, i_th)
    assert mag == pytest.approx(bisect_limited(drive, z_ext, gain, alpha, i_th), rel=1e-12)


def test_adaptive_step_inactive_below_ceiling():
    cfg = LimiterConfig(strategy=Strategy.ADAPTIVE_VI)
    assert adaptive_vi_step(0.0, 1.1, 5e-4, cfg, i_max=1.2) == (0.0, 0.0)


def test_adaptive_step_rejects_a_non_positive_step():
    cfg = LimiterConfig(strategy=Strategy.ADAPTIVE_VI)
    with pytest.raises(ValueError, match="dt must be positive"):
        adaptive_vi_step(0.0, 1.5, 0.0, cfg, i_max=1.2)


def test_adaptive_step_monotone_rise_on_overcurrent():
    cfg = LimiterConfig(strategy=Strategy.ADAPTIVE_VI)
    integrator = previous = 0.0
    for _ in range(200):
        integrator, drop = adaptive_vi_step(integrator, 1.5, 5e-4, cfg, i_max=1.2)
        assert drop >= previous
        previous = drop
    assert drop > 0.0


def test_adaptive_step_output_clamped_and_windup_bounded():
    cfg = LimiterConfig(strategy=Strategy.ADAPTIVE_VI, kp=0.5, ki=600.0, delta_v_max=2.0)
    integrator = 0.0
    for _ in range(5000):
        integrator, drop = adaptive_vi_step(integrator, 3.0, 5e-4, cfg, i_max=1.2)
    assert drop == cfg.delta_v_max
    # the integrator freezes within one increment of the saturation point
    assert integrator <= cfg.delta_v_max + cfg.ki * 1.8 * 5e-4 + 1e-12
    # recovery once the error reverses sign: the loop unwinds promptly
    for _ in range(5000):
        integrator, drop = adaptive_vi_step(integrator, 0.5, 5e-4, cfg, i_max=1.2)
    assert drop == 0.0


def test_adaptive_state_invariant_random_sequences():
    cfg = LimiterConfig(strategy=Strategy.ADAPTIVE_VI)
    rng = np.random.default_rng(41)
    integrator = 0.0
    for mag in rng.uniform(0.0, 3.0, size=2000):
        integrator, drop = adaptive_vi_step(integrator, float(mag), 5e-4, cfg, i_max=1.2)
        assert 0.0 <= drop <= cfg.delta_v_max


def test_adaptive_closed_loop_converges_to_ceiling():
    from gfmswing import electrical_power

    params = SystemParams()
    cfg = LimiterConfig(strategy=Strategy.ADAPTIVE_VI)
    for delta in (1.6, 2.4, math.pi, 4.0):
        integrator = drop = 0.0
        for _ in range(3000):
            _, sol, _ = electrical_power(delta, vi_gain_from_drop(drop, params), params)
            integrator, drop = adaptive_vi_step(integrator, abs(sol.current), 5e-4, cfg, params.i_max)
        _, sol, _ = electrical_power(delta, vi_gain_from_drop(drop, params), params)
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
    # the current peaks at 2/|z_sigma| (about 1.9 pu), so 10 pu is never reached
    assert critical_angle(params, 10.0) is None
    # with unequal source magnitudes the current never drops to zero, so
    # sufficiently low levels are exceeded at every angle
    lopsided = SystemParams(v_g_mag=0.5)
    assert abs(complex(lopsided.e_ref)) - 0.5 > 0.1 * z
    assert critical_angle(lopsided, 0.1) is None


def test_activation_sets():
    params = SystemParams()
    delta_th = critical_angle(params, params.i_th)
    delta_lim = critical_angle(params, params.i_max)
    assert math.degrees(delta_th) == pytest.approx(63.98, abs=0.01)
    assert math.degrees(delta_lim) == pytest.approx(78.95, abs=0.01)
    for strategy, boundary in ((Strategy.VARIABLE_VI, delta_th), (Strategy.ADAPTIVE_VI, delta_lim)):
        probes = [math.pi, 0.1, 2 * math.pi - 0.1, boundary - 1e-9, boundary + 1e-9]
        _, _, active = cycle_currents(strategy, params, np.array(probes))
        assert active.tolist() == [True, False, False, False, True]
    _, _, active = cycle_currents(Strategy.NONE, params, np.linspace(0.1, 2 * math.pi - 0.1, 50))
    assert not active.any()