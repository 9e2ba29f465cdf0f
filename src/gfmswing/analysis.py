"""Stability analytics: power-angle curves and verdicts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .limiter import Strategy
from .network import SystemParams, active_power
from .dynamics import SimulationRecord, event_step
from .trajectory import _cycle_grid, cycle_currents


class Classification(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class PDeltaCurve:
    """Electrical power versus power angle for one limiting strategy."""

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


def p_delta_curve(
    strategy: Strategy,
    params: SystemParams,
    n: int = 2048,
    gain: float | None = None,
) -> PDeltaCurve:
    """Strategy-consistent power curve over a uniform grid on (0, 2*pi).

    The power is the one the loop current of ``cycle_currents`` delivers at
    the PCC, so outside the activation set every strategy coincides with
    the unlimited curve.
    """
    delta = _cycle_grid(n)
    v_far, current, active = cycle_currents(strategy, params, delta, gain)
    p = active_power(v_far + params.z_sigma * current, current)
    return PDeltaCurve(delta=delta, p=p, vi_active=active)


def classify_stability(record: SimulationRecord, min_post_event: float = 20.0) -> StabilityVerdict | None:
    """Pole-slip classification of a simulation record.

    The swing is unstable when the unwrapped power angle wanders more than
    a full cycle away from its pre-event equilibrium. ``None`` for a record
    without events, or with less than ``min_post_event`` seconds of record
    from the start of the step that applies the last event.
    """
    if not record.events:
        return None
    if (len(record) - event_step(record.events[-1].time, record.dt)) * record.dt < min_post_event:
        return None
    excursion = float(np.max(np.abs(record.delta - record.delta[0])))
    slips = int(excursion // (2.0 * math.pi))
    verdict = Classification.UNSTABLE if slips >= 1 else Classification.STABLE
    return StabilityVerdict(verdict, excursion, slips)

