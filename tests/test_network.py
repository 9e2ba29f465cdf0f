"""Circuit-model tests: phasor type, parameter validation, loop solves."""

import cmath
import math

import numpy as np
import pytest

from gfmswing import (
    DegenerateCircuit,
    Phasor,
    Strategy,
    SystemParams,
    ViValue,
    active_power,
    critical_angle,
    electrical_power,
    full_cycle,
    solve_faulted,
    solve_network,
    swing_line,
    z_adaptive_vi,
    z_unlimited,
    z_variable_vi,
)
from gfmswing.limiter import vi_drop
from gfmswing.network import ZERO_CURRENT_TOL, relay_impedance
from gfmswing.trajectory import line_distance

TABLE1_POLAR = ((0.6, 84.29), (0.3, 84.29), (0.16, 88.57))


def test_phasor_polar_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(500):
        mag = float(rng.uniform(1e-6, 10.0))
        ang = float(rng.uniform(-math.pi, math.pi))
        p = Phasor.from_polar(mag, ang)
        assert abs(p) == pytest.approx(mag, abs=1e-12)
        # angles compared on the circle
        diff = (p.ang - ang + math.pi) % (2 * math.pi) - math.pi
        assert abs(diff) < 1e-12


def test_phasor_angle_range():
    assert Phasor(-1.0, 0.0).ang == pytest.approx(math.pi)
    assert Phasor(-1.0, -0.0).ang == math.pi  # (-pi, pi]: never -pi
    assert Phasor(1.0, 0.0).ang == 0.0
    assert Phasor(0.0, -1.0).ang == pytest.approx(-math.pi / 2)


def test_phasor_is_complex():
    p = Phasor(3.0, 4.0)
    assert p.real == 3.0 and p.imag == 4.0
    assert abs(p) == 5.0
    assert p + 1j == complex(3.0, 5.0)


def test_total_impedance_table1():
    params = SystemParams()
    z = params.z_sigma
    # oracle: rectangular sum of the three polar entries
    expected = sum(cmath.rect(m, math.radians(a)) for m, a in TABLE1_POLAR)
    assert abs(complex(z) - expected) < 1e-12
    assert abs(z) == pytest.approx(1.0596, abs=2e-4)
    assert math.degrees(z.ang) == pytest.approx(84.94, abs=5e-3)


def test_total_impedance_real_sum():
    params = SystemParams(
        z_g=Phasor(0.1, 0.0), z_l=Phasor(0.1, 0.0), z_tr=Phasor(0.1, 0.0)
    )
    assert complex(params.z_sigma) == pytest.approx(0.3 + 0j)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(i_max=1.0, i_th=1.0)
    with pytest.raises(ValueError):
        SystemParams(i_max=0.9, i_th=1.0)
    with pytest.raises(ValueError):
        SystemParams(z_g=Phasor(0.0, 0.0))
    with pytest.raises(ValueError):
        SystemParams(alpha_vi=-1.0)


@pytest.mark.parametrize("name", ["z_g", "z_l", "z_tr"])
def test_params_reject_non_passive_impedances(name):
    # a negative resistance or reactance lets the virtual impedance cancel the loop
    for bad in (Phasor(-0.3, 0.6), Phasor(0.03, -0.6)):
        with pytest.raises(ValueError, match=f"{name} = .*not passive"):
            SystemParams(**{name: bad})


def test_vi_ratio_defaults_to_total_impedance_angle():
    params = SystemParams()
    assert params.vi_ratio == pytest.approx(math.tan(params.z_sigma.ang))
    assert SystemParams(alpha_vi=3.0).vi_ratio == 3.0


def test_solve_zero_angle_equal_sources_gives_zero_current():
    sol = solve_network(0.0, 0j, SystemParams())
    assert abs(sol.current) < 1e-12
    assert math.isnan(sol.z_apparent.real) and math.isnan(sol.z_apparent.imag)


def test_solve_at_pi_matches_midline_point():
    params = SystemParams()
    sol = solve_network(math.pi, 0j, params)
    # oracle: at delta=pi the cotangent term vanishes, leaving
    # z_relay_to_grid - z_sigma/2
    expected = complex(params.z_relay_to_grid) - 0.5 * complex(params.z_sigma)
    assert abs(complex(sol.z_apparent) - expected) < 1e-12
    assert sol.z_apparent.real == pytest.approx(0.0428, abs=2e-4)
    assert sol.z_apparent.imag == pytest.approx(0.3678, abs=2e-4)


def test_current_magnitude_at_activation_angle():
    params = SystemParams()
    delta_th = critical_angle(params, params.i_th)
    sol = solve_network(delta_th, 0j, params)
    assert abs(sol.current) == pytest.approx(1.0, abs=1e-12)


def test_kirchhoff_residual_random():
    params = SystemParams()
    rng = np.random.default_rng(11)
    for _ in range(1000):
        delta = float(rng.uniform(0.0, 2 * math.pi))
        z_vi = complex(rng.uniform(0.0, 0.5), rng.uniform(0.0, 2.0))
        sol = solve_network(delta, z_vi, params)
        drive = complex(params.e_ref) - params.v_g_mag * cmath.exp(-1j * delta)
        residual = drive - (complex(params.z_sigma) + z_vi) * complex(sol.current)
        assert abs(residual) < 1e-12
        if not cmath.isnan(sol.z_apparent):  # the relay reads z_relay + V_far / I
            v_far = params.v_g_mag * cmath.exp(-1j * delta)
            assert abs((sol.z_apparent - params.z_relay_to_grid) * sol.current - v_far) < 1e-12


def test_apparent_impedance_collinear_for_equal_magnitudes():
    params = SystemParams()
    rng = np.random.default_rng(3)
    for delta in rng.uniform(1e-3, 2 * math.pi - 1e-3, size=500):
        sol = solve_network(float(delta), 0j, params)
        assert line_distance(complex(sol.z_apparent), params) < 1e-9


def test_unequal_source_magnitudes_leave_the_line():
    params = SystemParams(v_g_mag=0.9)
    devs = [
        line_distance(complex(solve_network(d, 0j, params).z_apparent), params)
        for d in np.linspace(0.5, 2 * math.pi - 0.5, 50)
    ]
    assert max(devs) > 1e-3  # the straight-line locus needs equal magnitudes


def test_degenerate_circuit():
    params = SystemParams()
    with pytest.raises(DegenerateCircuit):
        solve_network(1.0, -complex(params.z_sigma), params)


def test_active_power_trivial_cases():
    params = SystemParams()
    sol = solve_network(0.0, 0j, params)
    assert active_power(sol.v_pcc, sol.current) == pytest.approx(0.0, abs=1e-24)
    assert active_power(Phasor(1.0, 0.0), Phasor(1.0, 0.0)) == 1.0
    sol = solve_network(math.pi / 2, 0j, params)
    # oracle: direct real part of V * conj(I) from rectangular components
    v, i = complex(sol.v_pcc), complex(sol.current)
    assert active_power(sol.v_pcc, sol.current) == pytest.approx(v.real * i.real + v.imag * i.imag, abs=1e-15)
    # elementwise over arrays, as p_delta_curve reads it
    sols = [solve_network(d, 0.1 + 0.3j, params) for d in np.linspace(0.1, 6.2, 50).tolist()]
    got = active_power(np.array([s.v_pcc for s in sols]), np.array([s.current for s in sols]))
    np.testing.assert_allclose(got, [active_power(s.v_pcc, s.current) for s in sols], rtol=1e-15)


def test_relay_impedance_reads_the_series_loop_over_arrays():
    # the array rule of the kernel and the loci against the scalar one of the object path:
    # z_relay + V_far / I, NaN where |I| < ZERO_CURRENT_TOL (no current at 0, 1e-13 and 2*pi)
    params = SystemParams()
    rng = np.random.default_rng(5)
    delta = np.concatenate(([0.0, 1e-13, 2.0 * math.pi], rng.uniform(0.0, 2.0 * math.pi, 500)))
    z_vi = rng.uniform(0.0, 0.5, delta.size) * complex(1.0, 3.0)
    sols = [solve_network(d, z, params) for d, z in zip(delta.tolist(), z_vi.tolist())]
    current = np.array([s.current for s in sols])
    got = relay_impedance(params.v_g_mag * np.exp(-1j * delta), current, params.z_relay_to_grid)
    want = np.array([s.z_apparent for s in sols])
    off = np.abs(current) < ZERO_CURRENT_TOL
    assert off.tolist() == [True] * 3 + [False] * 500
    assert np.isnan(got.real[off]).all() and np.isnan(got.imag[off]).all()
    assert np.isnan(want[off]).all() and not np.isnan(want[~off]).any()
    np.testing.assert_allclose(got[~off], want[~off], rtol=1e-14)


def test_faulted_loop_geometry():
    params = SystemParams()
    sol = solve_faulted(0j, params, fraction=0.5)
    # relay sees exactly the line stub up to the fault
    assert abs(complex(sol.z_apparent) - 0.5 * complex(params.z_l)) < 1e-12
    assert abs(complex(sol.current) - complex(params.e_ref) / (
        complex(params.z_tr) + 0.5 * complex(params.z_l)
    )) < 1e-12
    with pytest.raises(ValueError):
        solve_faulted(0j, params, fraction=1.5)


def faulted_inline(z_vi, params, fraction):
    """The faulted loop by direct algebra: the reference over the path impedance
    plus ``z_vi``, the PCC voltage the current times that impedance, and the relay
    reading the line stub up to the fault."""
    z_path = params.z_tr + fraction * params.z_l
    current = params.e_ref / (z_path + z_vi)
    return current, current * z_path, fraction * params.z_l


@pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 1.0])
def test_faulted_loop_is_the_series_loop_with_a_zero_far_source(fraction):
    params = SystemParams()
    for z_vi in (0j, 0.05 + 0.6j, 0.3 + 0j, 1.2j):
        sol = solve_faulted(z_vi, params, fraction)
        assert (sol.current, sol.v_pcc, sol.z_apparent) == faulted_inline(z_vi, params, fraction)


def test_parameters_are_phasors_and_results_plain_complex():
    params = SystemParams()
    assert type(params.z_sigma) is Phasor
    assert math.degrees(params.z_sigma.ang) == pytest.approx(84.94, abs=5e-3)
    fields = ("current", "v_pcc", "z_apparent")
    results = [getattr(solve_network(1.0, 0.1 + 0.2j, params), f) for f in fields]
    results += [getattr(solve_faulted(0.1 + 0.2j, params, 0.5), f) for f in fields]
    results += [solve_network(0.0, 0j, params).z_apparent]  # NaN: no current
    results += [getattr(electrical_power(1.0, 0.5, params, fault=0.5)[1], f) for f in fields]
    results += [s.z_app for s in full_cycle(Strategy.VARIABLE_VI, params, n_samples=9)]
    results += [z_unlimited(1.0, params), z_variable_vi(2.5, params), z_adaptive_vi(2.5, params)]
    results += [*swing_line(params), vi_drop(ViValue(0.1, 0.2), 1.0 + 2.0j)]
    assert [type(x).__name__ for x in results] == ["complex"] * len(results)
