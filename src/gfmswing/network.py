"""Quasi-static phasor circuit model of a grid-forming inverter tied to a grid.

Everything is per-unit. The inverter holds its voltage reference at angle
zero, so the grid Thevenin source sits at ``-delta`` where ``delta`` is the
power angle. The circuit is a single series loop: voltage reference bus,
transformer, line, grid impedance, grid source, with an optional virtual
impedance inserted in series by the current limiter.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import DegenerateCircuit

ZERO_CURRENT_TOL = 1e-12


class Phasor(complex):
    """Complex per-unit quantity with polar accessors.

    Arithmetic behaves exactly like ``complex`` (results degrade to plain
    ``complex``); wrap results in ``Phasor(...)`` where the named accessors
    matter.
    """

    __slots__ = ()

    @classmethod
    def from_polar(cls, mag: float, ang: float) -> "Phasor":
        return cls(mag * math.cos(ang), mag * math.sin(ang))

    @classmethod
    def from_polar_deg(cls, mag: float, deg: float) -> "Phasor":
        return cls.from_polar(mag, math.radians(deg))

    @property
    def re(self) -> float:
        return self.real

    @property
    def im(self) -> float:
        return self.imag

    @property
    def mag(self) -> float:
        return abs(self)

    @property
    def ang(self) -> float:
        """Angle in (-pi, pi]."""
        a = math.atan2(self.imag, self.real)
        return math.pi if a == -math.pi else a

    def __repr__(self) -> str:
        return f"Phasor({self.real!r}, {self.imag!r})"


def wrap_angle(angle: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    a = math.fmod(angle, 2.0 * math.pi)
    if a > math.pi:
        a -= 2.0 * math.pi
    elif a <= -math.pi:
        a += 2.0 * math.pi
    return a


@dataclass(frozen=True)
class SystemParams:
    """Electrical parameters of the single-machine test system.

    Defaults are the reference test-system values: a 0.6 pu grid impedance
    and 0.3 pu line at 84.29 deg, a 0.16 pu transformer at 88.57 deg, a
    1.2 pu current ceiling and a 1.0 pu limiter activation threshold.

    ``alpha_vi`` is the reactance-to-resistance ratio of the virtual
    impedance; ``None`` selects the angle of the total series impedance.
    The derived impedances and ratio are computed once per instance.
    """

    e_ref: Phasor = Phasor(1.0, 0.0)
    v_g_mag: float = 1.0
    z_g: Phasor = Phasor.from_polar_deg(0.6, 84.29)
    z_l: Phasor = Phasor.from_polar_deg(0.3, 84.29)
    z_tr: Phasor = Phasor.from_polar_deg(0.16, 88.57)
    i_max: float = 1.2
    i_th: float = 1.0
    alpha_vi: float | None = None

    def __post_init__(self):
        problems = []
        for name in ("z_g", "z_l", "z_tr"):
            if abs(getattr(self, name)) <= 0.0:
                problems.append(f"{name} must have nonzero magnitude")
        if not self.i_max > self.i_th > 0.0:
            problems.append("require i_max > i_th > 0")
        if self.alpha_vi is not None and self.alpha_vi < 0.0:
            problems.append("alpha_vi must be >= 0")
        if self.v_g_mag <= 0.0:
            problems.append("v_g_mag must be positive")
        if problems:
            raise ValueError("; ".join(problems))

    @cached_property
    def z_sigma(self) -> Phasor:
        """Total series impedance from the voltage-reference bus to the grid source."""
        return Phasor(self.z_tr + self.z_l + self.z_g)

    @cached_property
    def z_relay_to_grid(self) -> Phasor:
        """Impedance between the relay bus and the grid source (line plus grid)."""
        return Phasor(self.z_l + self.z_g)

    @cached_property
    def vi_ratio(self) -> float:
        """Effective reactance-to-resistance ratio of the virtual impedance."""
        if self.alpha_vi is not None:
            return self.alpha_vi
        return math.tan(self.z_sigma.ang)


@dataclass(frozen=True)
class NetworkSolution:
    """Phasor solution of one series-loop solve.

    ``z_apparent`` is the relay measurement (relay-bus voltage over loop
    current) and is ``None`` when the current is numerically zero.
    """

    current: Phasor
    v_pcc: Phasor
    v_relay: Phasor
    z_apparent: Phasor | None
    zero_current: bool = False


def solve_network(delta: float, z_vi: complex, params: SystemParams) -> NetworkSolution:
    """Solve the healthy series loop at power angle ``delta``.

    ``z_vi`` is the series virtual impedance currently applied by the
    limiter; pass 0 for the unlimited case. Raises ``DegenerateCircuit``
    when the total loop impedance vanishes.
    """
    z_total = complex(params.z_sigma) + z_vi
    if abs(z_total) < 1e-12:
        raise DegenerateCircuit(f"|z_sigma + z_vi| = {abs(z_total):.3e} at delta={delta!r}")
    v_far = params.v_g_mag * cmath.exp(-1j * delta)
    current = (complex(params.e_ref) - v_far) / z_total
    v_pcc = v_far + complex(params.z_sigma) * current
    v_relay = v_far + complex(params.z_relay_to_grid) * current
    if abs(current) < ZERO_CURRENT_TOL:
        return NetworkSolution(Phasor(current), Phasor(v_pcc), Phasor(v_relay), None, True)
    return NetworkSolution(
        Phasor(current), Phasor(v_pcc), Phasor(v_relay), Phasor(v_relay / current), False
    )


def solve_faulted(z_vi: complex, params: SystemParams, fraction: float = 0.5) -> NetworkSolution:
    """Solve the relay-side loop during a bolted three-phase fault on the line.

    The fault sits ``fraction`` of the way from the relay bus to the grid;
    the loop runs from the voltage reference through the transformer and the
    faulted line stub to a zero-voltage node, so the grid source drops out
    of the relay's measurement entirely.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fault fraction must be in [0, 1], got {fraction!r}")
    z_path = complex(params.z_tr) + fraction * complex(params.z_l)
    z_total = z_path + z_vi
    if abs(z_total) < 1e-12:
        raise DegenerateCircuit(f"faulted loop impedance {abs(z_total):.3e}")
    current = complex(params.e_ref) / z_total
    v_pcc = current * z_path
    v_relay = current * (fraction * complex(params.z_l))
    if abs(current) < ZERO_CURRENT_TOL:
        return NetworkSolution(Phasor(current), Phasor(v_pcc), Phasor(v_relay), None, True)
    return NetworkSolution(
        Phasor(current), Phasor(v_pcc), Phasor(v_relay), Phasor(v_relay / current), False
    )


def active_power(sol: NetworkSolution) -> float:
    """Active power injected at the PCC: real part of V_pcc times conjugated current."""
    return (complex(sol.v_pcc) * complex(sol.current).conjugate()).real
