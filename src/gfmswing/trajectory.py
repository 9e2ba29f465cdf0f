"""Closed-form apparent-impedance trajectories over a full power-swing cycle.

The relay at the line's inverter-side terminal sees, as the power angle
sweeps 0..2*pi, a straight line when no limiter acts, a non-circular curve
under the variable virtual impedance, and a circular arc centred on the
line-plus-grid impedance under the adaptive strategy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .errors import GfmSwingError
from .limiter import Strategy, activation_sets, solve_variable_vi_current, variable_vi_gain
from .network import Phasor, SystemParams


class PoleAtZero(GfmSwingError):
    """The unlimited trajectory is at infinity for a zero power angle."""


class Segment(Enum):
    INACTIVE = "inactive"
    ACTIVE_VARIABLE = "active_variable"
    ACTIVE_ADAPTIVE = "active_adaptive"


@dataclass(frozen=True)
class TrajectorySample:
    delta: float
    z_app: Phasor
    segment: Segment


def swing_line(params: SystemParams) -> tuple[Phasor, Phasor]:
    """Anchor point and direction of the unlimited swing-impedance line."""
    anchor = complex(params.z_relay_to_grid) - 0.5 * complex(params.z_sigma)
    direction = -1j * complex(params.z_sigma)
    return Phasor(anchor), Phasor(direction)


def line_distance(z: complex, params: SystemParams) -> float:
    """Perpendicular distance from a point to the unlimited swing line."""
    anchor, direction = swing_line(params)
    unit = complex(direction) / abs(direction)
    rel = complex(z) - complex(anchor)
    return abs((rel * unit.conjugate()).imag)


def z_unlimited(delta: float, params: SystemParams) -> Phasor:
    """Apparent impedance with no current limiting.

    Valid for equal source magnitudes; the locus is the straight line
    through ``z_relay_to_grid - z_sigma/2`` with direction ``-j*z_sigma``.
    """
    half = 0.5 * math.fmod(delta, 2.0 * math.pi)
    if math.sin(half) == 0.0:
        raise PoleAtZero(f"apparent impedance is unbounded at delta={delta!r}")
    cot_half = math.cos(half) / math.sin(half)
    return Phasor(
        complex(params.z_relay_to_grid)
        - 0.5 * complex(params.z_sigma)
        - 0.5j * complex(params.z_sigma) * cot_half
    )


def limited_current_angle(delta: float, phi: float) -> float:
    """Phase angle of the current when the limiter holds its magnitude fixed.

    With equal source magnitudes the drive phasor between the two sources
    points at ``pi/2 - delta/2``, so the current lags it by the total
    impedance angle ``phi``.
    """
    return 0.5 * math.pi - 0.5 * delta - phi


def z_variable_vi(delta: float, params: SystemParams, gain: float | None = None) -> Phasor:
    """Apparent impedance under the variable strategy at angle ``delta``.

    In the active set the current comes from the implicit solve; outside it
    this equals the unlimited locus.
    """
    if gain is None:
        gain = variable_vi_gain(params)
    sets = activation_sets(params, Strategy.VARIABLE_VI)
    if not sets.is_active(delta):
        return z_unlimited(delta, params)
    return solve_variable_vi_current(delta, params, gain)[2].z_apparent


def z_adaptive_vi(delta: float, params: SystemParams) -> Phasor:
    """Apparent impedance under the adaptive strategy in its active set.

    The current magnitude is regulated to ``i_max``, so the locus is a
    circle about the line-plus-grid impedance with radius v_g / i_max,
    traversed at half the power-angle rate.
    """
    phi = params.z_sigma.ang
    radius = params.v_g_mag / params.i_max
    ang = phi - 0.5 * math.pi - 0.5 * delta
    return Phasor(complex(params.z_relay_to_grid) + cmath.rect(radius, ang))


def full_cycle(
    strategy: Strategy,
    params: SystemParams,
    n_samples: int = 1999,
    gain: float | None = None,
) -> list[TrajectorySample]:
    """Sample the full-cycle trajectory on a uniform grid over (0, 2*pi).

    The grid excludes the endpoints, where the unlimited locus is at
    infinity. Each sample is dispatched to the segment formula selected by
    the strategy's activation set.
    """
    if n_samples < 3:
        raise ValueError("n_samples must be at least 3")
    sets = activation_sets(params, strategy)
    if strategy is Strategy.VARIABLE_VI and gain is None:
        gain = variable_vi_gain(params)
    samples: list[TrajectorySample] = []
    step = 2.0 * math.pi / (n_samples + 1)
    for k in range(1, n_samples + 1):
        delta = k * step
        if not sets.is_active(delta):
            samples.append(TrajectorySample(delta, z_unlimited(delta, params), Segment.INACTIVE))
        elif strategy is Strategy.VARIABLE_VI:
            z = solve_variable_vi_current(delta, params, gain)[2].z_apparent
            samples.append(TrajectorySample(delta, z, Segment.ACTIVE_VARIABLE))
        else:
            samples.append(
                TrajectorySample(delta, z_adaptive_vi(delta, params), Segment.ACTIVE_ADAPTIVE)
            )
    return samples
