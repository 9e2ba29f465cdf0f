"""Apparent-impedance trajectories over a full power-swing cycle.

The relay at the line's inverter-side terminal sees, as the power angle
sweeps 0..2*pi, a straight line when no limiter acts, a non-circular curve
under the variable virtual impedance, and a circular arc centred on the
line-plus-grid impedance under the adaptive strategy. ``full_cycle`` reads
every locus from the loop current of ``cycle_currents``; the closed forms
``z_unlimited``, ``z_adaptive_vi`` and ``limited_current_angle`` hold for
equal source magnitudes. Where no current flows, a locus is ``complex(nan, nan)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .limiter import Strategy, solve_variable_vi_current, variable_vi_gain
from .network import ZERO_CURRENT_TOL, SystemParams, relay_impedance


class Segment(Enum):
    INACTIVE = "inactive"
    ACTIVE_VARIABLE = "active_variable"
    ACTIVE_ADAPTIVE = "active_adaptive"


@dataclass(slots=True)
class TrajectorySample:
    delta: float
    z_app: complex
    segment: Segment


def swing_line(params: SystemParams) -> tuple[complex, complex]:
    """Anchor point and direction of the unlimited swing-impedance line."""
    return params.z_relay_to_grid - 0.5 * params.z_sigma, -1j * params.z_sigma


def line_distance(z: complex, params: SystemParams) -> float:
    """Perpendicular distance from a point to the unlimited swing line."""
    anchor, direction = swing_line(params)
    unit = direction / abs(direction)
    return abs(((z - anchor) * unit.conjugate()).imag)


def z_unlimited(delta: float, params: SystemParams) -> complex:
    """Apparent impedance with no current limiting.

    Valid for equal source magnitudes; the locus is the straight line
    through ``z_relay_to_grid - z_sigma/2`` with direction ``-j*z_sigma``.
    NaN where the unlimited current |E - V_far|/|z_sigma| = 2*v_g*|sin(delta/2)|/|z_sigma|
    is below ``ZERO_CURRENT_TOL``, the rule of ``relay_impedance``.
    """
    sin_half, cos_half = math.sin(0.5 * delta), math.cos(0.5 * delta)
    if 2.0 * params.v_g_mag * abs(sin_half) < ZERO_CURRENT_TOL * abs(params.z_sigma):
        return complex(math.nan, math.nan)
    return params.z_relay_to_grid - 0.5 * params.z_sigma - 0.5j * params.z_sigma * (cos_half / sin_half)


def limited_current_angle(delta: float, phi: float) -> float:
    """Phase angle of the current when the limiter holds its magnitude fixed.

    With equal source magnitudes the drive phasor between the two sources
    points at ``pi/2 - delta/2``, so the current lags it by the total
    impedance angle ``phi``.
    """
    return 0.5 * math.pi - 0.5 * delta - phi


def z_variable_vi(delta: float, params: SystemParams, gain: float | None = None) -> complex:
    """Apparent impedance under the variable strategy at angle ``delta``.

    In the active set the current comes from the implicit solve; outside it
    this is the unlimited loop's impedance.
    """
    v_far, current, _ = cycle_currents(Strategy.VARIABLE_VI, params, np.array([delta]), gain)
    return relay_impedance(v_far, current, params.z_relay_to_grid)[0].item()


def z_adaptive_vi(delta: float, params: SystemParams) -> complex:
    """Apparent impedance under the adaptive strategy in its active set.

    The current magnitude is regulated to ``i_max``, so the locus is a
    circle about the line-plus-grid impedance with radius v_g / i_max,
    traversed at half the power-angle rate.
    """
    phi = params.z_sigma.ang
    radius = params.v_g_mag / params.i_max
    ang = phi - 0.5 * math.pi - 0.5 * delta
    return params.z_relay_to_grid + cmath.rect(radius, ang)


def _cycle_grid(n: int) -> np.ndarray:
    """Uniform grid of ``n`` power angles on the open interval (0, 2*pi)."""
    if n < 3:
        raise ValueError(f"a cycle grid needs at least 3 samples, got {n!r}")
    return 2.0 * math.pi * np.arange(1, n + 1) / (n + 1)


def cycle_currents(
    strategy: Strategy,
    params: SystemParams,
    delta: np.ndarray,
    gain: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Far-end source voltage, loop current and VI activity at each power angle.

    The virtual impedance acts where the unlimited current
    ``|E - V_far| / |z_sigma|`` exceeds the strategy's level: ``i_th`` for
    the variable strategy, ``i_max`` for the adaptive one, never without
    limiting. There the variable strategy takes the current of the implicit
    solve (``gain`` defaults to the designed gain), and the adaptive strategy
    holds ``|I| = i_max`` with its virtual impedance along ``1 + j*vi_ratio``.
    """
    delta = np.asarray(delta, dtype=float)
    z_sigma = params.z_sigma
    v_far = params.v_g_mag * np.exp(-1j * delta)
    drive = params.e_ref - v_far
    current = drive / z_sigma
    level = {Strategy.VARIABLE_VI: params.i_th, Strategy.ADAPTIVE_VI: params.i_max}.get(strategy)
    if level is None:
        return v_far, current, np.zeros(delta.shape, dtype=bool)
    active = np.abs(drive) > level * abs(z_sigma)
    if strategy is Strategy.VARIABLE_VI:
        if gain is None:
            gain = variable_vi_gain(params)
        current[active] = [solve_variable_vi_current(d, params, gain)[2].current for d in delta[active].tolist()]
    else:
        # |z_sigma + r*(1 + j*alpha)| = |drive| / i_max, a quadratic a*r^2 + b*r + c = 0
        alpha = params.vi_ratio
        a = 1.0 + alpha * alpha
        b = 2.0 * (z_sigma.real + alpha * z_sigma.imag)
        c = abs(z_sigma) ** 2 - (np.abs(drive[active]) / params.i_max) ** 2
        r = -2.0 * c / (b + np.sqrt(b * b - 4.0 * a * c))
        current[active] = drive[active] / (z_sigma + r * complex(1.0, alpha))
    return v_far, current, active


def _cycle_loci(
    strategy: Strategy, params: SystemParams, n_samples: int, gain: float | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Segment]:
    """Power angles of the cycle grid, the relay's impedance at each, where the VI acts,
    and the segment of the samples where it does."""
    delta = _cycle_grid(n_samples)
    v_far, current, active = cycle_currents(strategy, params, delta, gain)
    limited = Segment.ACTIVE_ADAPTIVE if strategy is Strategy.ADAPTIVE_VI else Segment.ACTIVE_VARIABLE
    return delta, relay_impedance(v_far, current, params.z_relay_to_grid), active, limited


def full_cycle(
    strategy: Strategy,
    params: SystemParams,
    n_samples: int = 1999,
    gain: float | None = None,
) -> list[TrajectorySample]:
    """Sample the full-cycle trajectory on a uniform grid over (0, 2*pi).

    The grid excludes the endpoints, where the unlimited locus is at
    infinity. Each impedance is the relay's reading of the loop current
    from ``cycle_currents``.
    """
    delta, z_app, active, limited = _cycle_loci(strategy, params, n_samples, gain)
    return [
        TrajectorySample(d, z, limited if on else Segment.INACTIVE)
        for d, z, on in zip(delta.tolist(), z_app.tolist(), active.tolist())
    ]
