"""Closed-form trajectory tests: segment formulas, continuity, shape."""

import cmath
import math

import numpy as np
import pytest

from gfmswing import (
    Phasor,
    Segment,
    Strategy,
    SystemParams,
    critical_angle,
    cycle_currents,
    full_cycle,
    limited_current_angle,
    line_distance,
    p_delta_curve,
    solve_network,
    solve_variable_vi_current,
    variable_vi_gain,
    z_adaptive_vi,
    z_unlimited,
    z_variable_vi,
)


def test_unlimited_midpoint():
    params = SystemParams()
    z = z_unlimited(math.pi, params)
    expected = complex(params.z_relay_to_grid) - 0.5 * complex(params.z_sigma)
    assert abs(complex(z) - expected) < 1e-12


def test_unlimited_symmetry_about_midpoint():
    params = SystemParams()
    mid = complex(params.z_relay_to_grid) - 0.5 * complex(params.z_sigma)
    a = complex(z_unlimited(math.pi / 2, params)) - mid
    b = complex(z_unlimited(3 * math.pi / 2, params)) - mid
    assert abs(a + b) < 1e-12  # cot(pi/4) = -cot(3*pi/4)


def test_unlimited_pole_at_zero():
    # equal sources in phase drive no current, so the impedance is undefined: NaN in both parts
    params = SystemParams()
    for z in (z_unlimited(0.0, params), z_unlimited(2 * math.pi, params), z_variable_vi(0.0, params)):
        assert math.isnan(z.real) and math.isnan(z.imag)
    assert abs(complex(z_unlimited(1e-6, params))) > 1e5


@pytest.mark.parametrize("v_g_mag", [1.0, 0.5])
def test_unlimited_loci_agree_where_no_current_flows(v_g_mag):
    # the closed form and the loop's reading take one rule: NaN where the unlimited
    # current is below ZERO_CURRENT_TOL, on both sides of the pole at 0 and at 2*pi
    params = SystemParams(v_g_mag=v_g_mag, e_ref=Phasor(v_g_mag, 0.0))
    eps = np.geomspace(1e-16, 1e-9, 167).tolist()
    angles = [0.0, 2.0 * math.pi] + [a for x in eps for a in (x, -x, 2.0 * math.pi - x, 2.0 * math.pi + x)]
    undefined = [math.isnan(z_unlimited(d, params).real) for d in angles]
    assert undefined == [math.isnan(z_variable_vi(d, params).real) for d in angles]
    assert 100 < sum(undefined) < len(angles) - 100


def test_limited_current_angle_substitutions():
    phi = math.radians(84.94)
    assert limited_current_angle(math.pi, phi) == pytest.approx(-phi)
    assert limited_current_angle(0.0, phi) == pytest.approx(math.pi / 2 - phi)


def test_limited_current_angle_matches_phasor_arithmetic():
    # oracle: the drive phasor divided by any impedance at angle phi
    params = SystemParams()
    phi = params.z_sigma.ang
    rng = np.random.default_rng(17)
    for _ in range(1000):
        delta = float(rng.uniform(1e-6, 2 * math.pi - 1e-6))
        scale = float(rng.uniform(0.5, 3.0))
        drive = complex(params.e_ref) - abs(params.e_ref) * cmath.exp(-1j * delta)
        direct = cmath.phase(drive / cmath.rect(scale, phi))
        predicted = limited_current_angle(delta, phi)
        diff = (predicted - direct + math.pi) % (2 * math.pi) - math.pi
        assert abs(diff) < 1e-9


def test_variable_matches_unlimited_at_boundary():
    params = SystemParams()
    delta_th = critical_angle(params, params.i_th)
    gap = abs(complex(z_variable_vi(delta_th + 1e-9, params)) - complex(z_unlimited(delta_th, params)))
    assert gap < 1e-6


def test_variable_at_pi_matches_current_oracle():
    params = SystemParams()
    mag, _, sol = solve_variable_vi_current(math.pi, params, variable_vi_gain(params))
    v_far = params.v_g_mag * cmath.exp(-1j * math.pi)
    expected = complex(params.z_relay_to_grid) + v_far / complex(sol.current)
    assert abs(complex(z_variable_vi(math.pi, params)) - expected) < 1e-12


def test_variable_mirror_symmetry():
    # the drive phasors at delta and 2*pi-delta are conjugates, so the two
    # impedance points are reflections across the total-impedance axis
    # through the line-plus-grid anchor
    params = SystemParams()
    delta_th = critical_angle(params, params.i_th)
    anchor = complex(params.z_relay_to_grid)
    for delta in (delta_th + 0.3, math.pi - 0.4):
        mag_a, vi_a, _ = solve_variable_vi_current(delta, params, variable_vi_gain(params))
        mag_b, _, _ = solve_variable_vi_current(2 * math.pi - delta, params, variable_vi_gain(params))
        assert mag_b == pytest.approx(mag_a, abs=1e-9)
        w_a = complex(z_variable_vi(delta, params)) - anchor
        w_b = complex(z_variable_vi(2 * math.pi - delta, params)) - anchor
        axis = cmath.phase(complex(params.z_sigma) + vi_a.as_complex)
        assert abs(w_b - w_a.conjugate() * cmath.exp(2j * axis)) < 1e-9


def test_adaptive_at_pi():
    params = SystemParams()
    z = z_adaptive_vi(math.pi, params)
    # oracle from the arc construction: center plus radius at phi - pi
    phi = params.z_sigma.ang
    expected = complex(params.z_relay_to_grid) + cmath.rect(
        params.v_g_mag / params.i_max, phi - math.pi
    )
    assert abs(complex(z) - expected) < 1e-12
    assert z.real == pytest.approx(0.0160, abs=2e-4)
    assert z.imag == pytest.approx(0.0654, abs=2e-4)


def test_adaptive_circle_property_everywhere():
    params = SystemParams()
    center = complex(params.z_relay_to_grid)
    radius = params.v_g_mag / params.i_max
    for delta in np.linspace(0.1, 2 * math.pi - 0.1, 200):
        z = complex(z_adaptive_vi(float(delta), params))
        assert abs(abs(z - center) - radius) < 1e-12


def test_adaptive_matches_unlimited_at_boundary():
    params = SystemParams()
    delta_lim = critical_angle(params, params.i_max)
    gap = abs(complex(z_adaptive_vi(delta_lim, params)) - complex(z_unlimited(delta_lim, params)))
    assert gap < 1e-9


def test_full_cycle_none_collinear():
    params = SystemParams()
    samples = full_cycle(Strategy.NONE, params, n_samples=999)
    assert all(s.segment is Segment.INACTIVE for s in samples)
    assert max(line_distance(s.z_app, params) for s in samples) < 1e-9


def test_full_cycle_segment_boundaries():
    params = SystemParams()
    samples = full_cycle(Strategy.VARIABLE_VI, params, n_samples=3599)
    active = [s.delta for s in samples if s.segment is Segment.ACTIVE_VARIABLE]
    boundary = critical_angle(params, params.i_th)
    assert math.degrees(min(active)) == pytest.approx(63.98, abs=0.2)
    assert math.degrees(max(active)) == pytest.approx(360 - 63.98, abs=0.2)
    assert all(boundary < d < 2 * math.pi - boundary for d in active)


def test_full_cycle_adaptive_circle():
    params = SystemParams()
    samples = full_cycle(Strategy.ADAPTIVE_VI, params, n_samples=999)
    center = complex(params.z_relay_to_grid)
    radius = params.v_g_mag / params.i_max
    active = [s for s in samples if s.segment is Segment.ACTIVE_ADAPTIVE]
    assert active
    for s in active:
        assert abs(abs(complex(s.z_app) - center) - radius) < 1e-12


def test_full_cycle_arc_advances_at_half_rate():
    params = SystemParams()
    samples = full_cycle(Strategy.ADAPTIVE_VI, params, n_samples=999)
    center = complex(params.z_relay_to_grid)
    act = [s for s in samples if s.segment is Segment.ACTIVE_ADAPTIVE]
    for a, b in zip(act, act[1:]):
        step = cmath.phase((complex(a.z_app) - center) / (complex(b.z_app) - center))
        assert step == pytest.approx(0.5 * (b.delta - a.delta), abs=1e-12)


def test_full_cycle_continuity_at_boundaries():
    params = SystemParams()
    for strategy in (Strategy.VARIABLE_VI, Strategy.ADAPTIVE_VI):
        samples = full_cycle(strategy, params, n_samples=4999)
        for a, b in zip(samples, samples[1:]):
            if a.segment is not b.segment:
                assert abs(complex(a.z_app) - complex(b.z_app)) < 2e-3  # one grid step apart


def test_full_cycle_rejects_tiny_grids():
    with pytest.raises(ValueError):
        full_cycle(Strategy.NONE, SystemParams(), n_samples=2)


def test_variable_trajectory_is_neither_line_nor_circle():
    params = SystemParams()
    samples = full_cycle(Strategy.VARIABLE_VI, params, n_samples=1999)
    pts = np.array([complex(s.z_app) for s in samples if s.segment is Segment.ACTIVE_VARIABLE])
    rel = pts - pts.mean()
    cov = np.array(
        [
            [np.sum(rel.real**2), np.sum(rel.real * rel.imag)],
            [np.sum(rel.real * rel.imag), np.sum(rel.imag**2)],
        ]
    )
    _, vecs = np.linalg.eigh(cov)
    normal = vecs[:, 0]
    line_dev = np.max(np.abs(rel.real * normal[0] + rel.imag * normal[1]))
    # least-squares circle fit
    a_mat = np.column_stack([pts.real, pts.imag, np.ones(len(pts))])
    rhs = pts.real**2 + pts.imag**2
    sol, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    center = complex(sol[0] / 2, sol[1] / 2)
    radius = math.sqrt(sol[2] + abs(center) ** 2)
    circle_dev = np.max(np.abs(np.abs(pts - center) - radius))
    assert line_dev > 1e-3
    assert circle_dev > 1e-3


OFF_DEFAULT = {
    "v_g_mag": SystemParams(v_g_mag=0.9),
    "e_ref": SystemParams(e_ref=Phasor(1.05, 0.0)),
    "alpha_vi": SystemParams(alpha_vi=3.0),
}


def ceiling_current(delta, params):
    """Oracle: bisect for the VI resistance along 1 + j*vi_ratio that holds |I| at i_max."""
    z_sigma, step = complex(params.z_sigma), complex(1.0, params.vi_ratio)
    drive = complex(params.e_ref) - params.v_g_mag * cmath.exp(-1j * delta)
    lo, hi = 0.0, (abs(drive) / params.i_max + abs(z_sigma)) / abs(step)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if abs(z_sigma + mid * step) * params.i_max < abs(drive):
            lo = mid
        else:
            hi = mid
    return drive / (z_sigma + lo * step)


@pytest.mark.parametrize("params", OFF_DEFAULT.values(), ids=OFF_DEFAULT.keys())
def test_loci_follow_the_loop_off_the_default_system(params):
    z_rg = complex(params.z_relay_to_grid)
    for strategy in Strategy:
        for s in full_cycle(strategy, params, n_samples=499):
            z = complex(s.z_app)
            if s.segment is Segment.INACTIVE:
                ref = complex(solve_network(s.delta, 0.0, params).z_apparent)
                assert abs(z - ref) <= 1e-9 * max(1.0, abs(ref))
            elif s.segment is Segment.ACTIVE_VARIABLE:
                ref = complex(solve_variable_vi_current(s.delta, params, variable_vi_gain(params))[2].z_apparent)
                assert abs(z - ref) <= 1e-12 * max(1.0, abs(ref))
            else:
                current = params.v_g_mag * cmath.exp(-1j * s.delta) / (z - z_rg)
                assert abs(current - ceiling_current(s.delta, params)) < 1e-9


@pytest.mark.parametrize("params", OFF_DEFAULT.values(), ids=OFF_DEFAULT.keys())
def test_adaptive_current_holds_the_ceiling_off_the_default_system(params):
    curve = p_delta_curve(Strategy.ADAPTIVE_VI, params, n=499)
    v_far, current, active = cycle_currents(Strategy.ADAPTIVE_VI, params, curve.delta)
    assert active.any() and np.array_equal(active, curve.vi_active)
    drive = complex(params.e_ref) - v_far[active]
    assert np.max(np.abs(np.abs(current[active]) - params.i_max)) < 1e-12
    z_vi = drive / current[active] - complex(params.z_sigma)
    assert np.max(np.abs(z_vi.imag - params.vi_ratio * z_vi.real)) < 1e-12
    assert np.all(z_vi.real > 0.0)
    for delta, p in zip(curve.delta[active], curve.p[active]):
        oracle = ceiling_current(float(delta), params)
        v_pcc = params.v_g_mag * cmath.exp(-1j * delta) + complex(params.z_sigma) * oracle
        assert p == pytest.approx((v_pcc * oracle.conjugate()).real, abs=1e-9)
