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

import numpy as np

from .errors import DegenerateCircuit

ZERO_CURRENT_TOL = 1e-12
_PU_RANGE = (1e-6, 1e6)  # every source, impedance and current magnitude, per unit


class Phasor(complex):
    """Complex per-unit parameter with polar constructors and an angle accessor.

    ``Phasor`` is the type of parameters only. Arithmetic behaves exactly
    like ``complex`` and returns plain ``complex``, which is the type of
    every computed quantity: solves, loci and curves.
    """

    __slots__ = ()

    @classmethod
    def from_polar(cls, mag: float, ang: float) -> "Phasor":
        return cls(mag * math.cos(ang), mag * math.sin(ang))

    @classmethod
    def from_polar_deg(cls, mag: float, deg: float) -> "Phasor":
        return cls.from_polar(mag, math.radians(deg))

    @property
    def ang(self) -> float:
        """Angle in (-pi, pi]."""
        a = math.atan2(self.imag, self.real)
        return math.pi if a == -math.pi else a

    def __repr__(self) -> str:
        return f"Phasor({self.real!r}, {self.imag!r})"


@dataclass(frozen=True)
class SystemParams:
    """Electrical parameters of the single-machine test system.

    Defaults are the reference test-system values: a 0.6 pu grid impedance
    and 0.3 pu line at 84.29 deg, a 0.16 pu transformer at 88.57 deg, a
    1.2 pu current ceiling and a 1.0 pu limiter activation threshold.

    ``alpha_vi`` is the reactance-to-resistance ratio of the virtual
    impedance; ``None`` selects the angle of the total series impedance.
    Every source, impedance and current magnitude must lie in [1e-6, 1e6]
    pu, and the loop is passive: no impedance has a negative resistance or
    reactance. The derived impedances and ratio are computed once per instance.
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
        lo, hi = _PU_RANGE
        magnitudes = {
            "|e_ref|": math.hypot(self.e_ref.real, self.e_ref.imag),
            "v_g_mag": self.v_g_mag,
            "|z_g|": math.hypot(self.z_g.real, self.z_g.imag),
            "|z_l|": math.hypot(self.z_l.real, self.z_l.imag),
            "|z_tr|": math.hypot(self.z_tr.real, self.z_tr.imag),
            "i_th": self.i_th,
            "i_max": self.i_max,
        }
        problems = [
            f"{name} = {value!r} pu lies outside [{lo:g}, {hi:g}] pu"
            for name, value in magnitudes.items()
            if not lo <= value <= hi
        ]
        if not (self.e_ref.real > 0.0 and self.e_ref.imag == 0.0):
            problems.append("e_ref must be real and positive (reference angle zero)")
        for name, z in (("z_g", self.z_g), ("z_l", self.z_l), ("z_tr", self.z_tr)):
            if z.real < 0.0 or z.imag < 0.0:
                problems.append(f"{name} = {z!r} has a negative resistance or reactance (not passive)")
        if not self.i_max > self.i_th:
            problems.append("require i_max > i_th")
        if self.alpha_vi is not None and not 0.0 <= self.alpha_vi < math.inf:
            problems.append("alpha_vi must be >= 0 and finite")
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


@dataclass(slots=True)
class NetworkSolution:
    """Complex solution of one series-loop solve.

    ``z_apparent`` is the relay measurement (relay-bus voltage over loop
    current), read by the rule of ``relay_impedance``.
    """

    current: complex
    v_pcc: complex
    z_apparent: complex


def solve_network(delta: float, z_vi: complex, params: SystemParams) -> NetworkSolution:
    """Solve the healthy series loop at power angle ``delta``.

    ``z_vi`` is the series virtual impedance currently applied by the
    limiter; pass 0 for the unlimited case. Raises ``DegenerateCircuit``
    when the total loop impedance vanishes.
    """
    v_far = params.v_g_mag * cmath.exp(-1j * delta)
    return _series_loop(v_far, z_vi, params.e_ref, params.z_sigma, params.z_relay_to_grid)


def _series_loop(
    v_far: complex, z_vi: complex, e_ref: complex, z_loop: complex, z_relay: complex
) -> NetworkSolution:
    """The solution of a series loop from ``e_ref`` through ``z_vi`` and
    ``z_loop`` to a far source at ``v_far``, the relay bus sitting ``z_relay`` short
    of the far source. ``dynamics.run_scenario`` evaluates the same loop in real
    arithmetic and is tested against it sample by sample."""
    z_total = z_loop + z_vi
    if abs(z_total) < 1e-12:
        raise DegenerateCircuit(f"series loop impedance {abs(z_total):.3e} with the far source at {v_far!r}")
    current = (e_ref - v_far) / z_total
    z_apparent = complex(math.nan, math.nan) if abs(current) < ZERO_CURRENT_TOL else z_relay + v_far / current
    return NetworkSolution(current, v_far + z_loop * current, z_apparent)


def relay_impedance(v_far: np.ndarray, current: np.ndarray, z_relay: complex) -> np.ndarray:
    """The relay's reading of ``_series_loop`` over arrays: the relay-bus voltage
    V_far + z_relay*I over the current I, that is z_relay + V_far/I, and NaN where
    |I| < ``ZERO_CURRENT_TOL``, where no current flows to measure."""
    with np.errstate(divide="ignore", invalid="ignore"):  # where no current flows
        z = z_relay + v_far / current
    return np.where(np.abs(current) < ZERO_CURRENT_TOL, complex(math.nan, math.nan), z)


def solve_faulted(z_vi: complex, params: SystemParams, fraction: float) -> NetworkSolution:
    """Solve the relay-side loop during a bolted three-phase fault on the line.

    The fault sits ``fraction`` of the way from the relay bus to the grid;
    the loop runs from the voltage reference through the transformer and the
    faulted line stub to a zero-voltage node: the series loop with its far
    source at 0 V, so the relay reads exactly ``fraction * z_l``.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fault fraction must be in [0, 1], got {fraction!r}")
    z_relay = fraction * params.z_l
    return _series_loop(0j, z_vi, params.e_ref, params.z_tr + z_relay, z_relay)


def active_power(v_pcc, current):
    """Active power injected at the PCC, Re(V_pcc I*); elementwise for complex arrays."""
    return (v_pcc * current.conjugate()).real
