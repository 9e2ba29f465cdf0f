"""Stability analytics: power-angle curves, phase portraits, verdicts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InsufficientHorizon
from .limiter import Strategy, activation_sets, solve_variable_vi_current, variable_vi_gain
from .network import SystemParams, active_power
from .dynamics import SimulationRecord
from .trajectory import limited_current_angle


class Classification(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class PDeltaCurve:
    """Electrical power versus power angle for one limiting strategy."""

    strategy: Strategy
    delta: np.ndarray
    p: np.ndarray
    vi_active: np.ndarray

    @property
    def peak(self) -> float:
        return float(np.max(self.p))


@dataclass(frozen=True)
class StabilityVerdict:
    classification: Classification
    max_delta_excursion: float
    pole_slips: int


def _unlimited_power(delta: np.ndarray, params: SystemParams) -> np.ndarray:
    e = complex(params.e_ref)
    v_far = params.v_g_mag * np.exp(-1j * delta)
    current = (e - v_far) / complex(params.z_sigma)
    return np.real(e * np.conj(current))


def p_delta_curve(
    strategy: Strategy,
    params: SystemParams,
    n: int = 2048,
    gain: float | None = None,
) -> PDeltaCurve:
    """Strategy-consistent power curve over a uniform grid on (0, 2*pi).

    The variable strategy takes its current from the implicit solve; the
    adaptive strategy uses the idealized ceiling-regulated current in its
    active set. Outside the activation set all strategies coincide with the
    unlimited curve.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    delta = 2.0 * math.pi * np.arange(1, n + 1) / (n + 1)
    sets = activation_sets(params, strategy)
    active = np.array([sets.is_active(d) for d in delta])
    p = _unlimited_power(delta, params)

    if strategy is Strategy.VARIABLE_VI and active.any():
        if gain is None:
            gain = variable_vi_gain(params)
        for i in np.flatnonzero(active):
            p[i] = active_power(solve_variable_vi_current(float(delta[i]), params, gain)[2])
    elif strategy is Strategy.ADAPTIVE_VI and active.any():
        d_act = delta[active]
        phi = params.z_sigma.ang
        theta_i = np.array([limited_current_angle(d, phi) for d in d_act])
        current = params.i_max * np.exp(1j * theta_i)
        v_pcc = params.v_g_mag * np.exp(-1j * d_act) + complex(params.z_sigma) * current
        p[active] = np.real(v_pcc * np.conj(current))

    return PDeltaCurve(strategy=strategy, delta=delta, p=p, vi_active=active)


def classify_stability(record: SimulationRecord, min_post_event: float = 20.0) -> StabilityVerdict:
    """Pole-slip classification of a simulation record.

    The swing is unstable when the unwrapped power angle wanders more than
    a full cycle away from its pre-event equilibrium. Requires at least
    ``min_post_event`` seconds of record after the last event.
    """
    if record.events:
        last_event = max(ev.time for ev in record.events)
        covered = record.t[-1] - last_event
        if covered < min_post_event:
            raise InsufficientHorizon(
                f"only {covered:.3f} s after the last event; need {min_post_event:.3f} s"
            )
    excursion = float(np.max(np.abs(record.delta - record.delta[0])))
    slips = int(excursion // (2.0 * math.pi))
    verdict = Classification.UNSTABLE if slips >= 1 else Classification.STABLE
    return StabilityVerdict(verdict, excursion, slips)


def phase_portrait(record: SimulationRecord) -> tuple[np.ndarray, np.ndarray]:
    """(power angle, frequency deviation) series of a record."""
    return record.delta.copy(), record.omega_dev.copy()
