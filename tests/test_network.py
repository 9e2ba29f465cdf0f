"""Circuit-model tests: phasor type, parameter validation, loop solves."""

import cmath
import math

import numpy as np
import pytest

from gfmswing import (
    DegenerateCircuit,
    Phasor,
    SystemParams,
    active_power,
    critical_angle,
    solve_faulted,
    solve_network,
)
from gfmswing.trajectory import line_distance

TABLE1_POLAR = ((0.6, 84.29), (0.3, 84.29), (0.16, 88.57))


def test_phasor_polar_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(500):
        mag = float(rng.uniform(1e-6, 10.0))
        ang = float(rng.uniform(-math.pi, math.pi))
        p = Phasor.from_polar(mag, ang)
        assert p.mag == pytest.approx(mag, abs=1e-12)
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
    assert p.re == 3.0 and p.im == 4.0
    assert p.mag == 5.0
    assert p + 1j == complex(3.0, 5.0)


def test_wrap_angle():
    from gfmswing.network import wrap_angle

    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)  # (-pi, pi]
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-0.5) == pytest.approx(-0.5)
    assert wrap_angle(2 * math.pi + 0.25) == pytest.approx(0.25)


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


def test_vi_ratio_defaults_to_total_impedance_angle():
    params = SystemParams()
    assert params.vi_ratio == pytest.approx(math.tan(params.z_sigma.ang))
    assert SystemParams(alpha_vi=3.0).vi_ratio == 3.0


def test_solve_zero_angle_equal_sources_gives_zero_current():
    sol = solve_network(0.0, 0j, SystemParams())
    assert sol.zero_current
    assert abs(sol.current) < 1e-12
    assert sol.z_apparent is None


def test_solve_at_pi_matches_midline_point():
    params = SystemParams()
    sol = solve_network(math.pi, 0j, params)
    # oracle: at delta=pi the cotangent term vanishes, leaving
    # z_relay_to_grid - z_sigma/2
    expected = complex(params.z_relay_to_grid) - 0.5 * complex(params.z_sigma)
    assert abs(complex(sol.z_apparent) - expected) < 1e-12
    assert sol.z_apparent.re == pytest.approx(0.0428, abs=2e-4)
    assert sol.z_apparent.im == pytest.approx(0.3678, abs=2e-4)


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
        if not sol.zero_current:
            assert abs(complex(sol.z_apparent) * complex(sol.current) - complex(sol.v_relay)) < 1e-12


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
    from gfmswing import NetworkSolution

    params = SystemParams()
    assert active_power(solve_network(0.0, 0j, params)) == pytest.approx(0.0, abs=1e-24)
    unity = NetworkSolution(
        current=Phasor(1.0, 0.0),
        v_pcc=Phasor(1.0, 0.0),
        v_relay=Phasor(1.0, 0.0),
        z_apparent=Phasor(1.0, 0.0),
    )
    assert active_power(unity) == 1.0
    sol = solve_network(math.pi / 2, 0j, params)
    # oracle: direct real part of V * conj(I) from rectangular components
    v, i = complex(sol.v_pcc), complex(sol.current)
    assert active_power(sol) == pytest.approx(v.real * i.real + v.imag * i.imag, abs=1e-15)


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
