"""Distance-relay engine: directional mho zones and blinder-based swing detection.

The detection scheme uses three nested quadrilaterals ("blinders") tilted
at the line-impedance angle. A slow transit from the outer to the middle
blinder is a power swing and blocks all distance zones; while blocked, a
crossing of the inner blinder declares the swing unstable and trips. Fast
transits are classified as faults and leave the zones free to operate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .network import Phasor

CROSSING_BLOCK = 4096  # samples tested at a time; whole-record temporaries would raise peak memory


@dataclass(frozen=True)
class MhoZone:
    """Directional mho circle through the origin with diameter ``reach``."""

    reach: Phasor
    time_delay: float = 0.0

    def __post_init__(self):
        if not 0.0 < abs(self.reach) < math.inf:
            raise ValueError("zone reach must have a finite nonzero magnitude")
        if not 0.0 <= self.time_delay < math.inf:
            raise ValueError("zone time delay must be finite and >= 0")


@dataclass(frozen=True)
class Blinder:
    """Tilted resistive band with reactance limits.

    ``rgt``/``lft`` are the resistive-axis intercepts of the two blinder
    lines (tilted by ``tilt_deg`` degrees from the resistive axis);
    ``fwd``/``rev`` bound the reactance.
    """

    rgt: float
    lft: float
    fwd: float
    rev: float
    tilt_deg: float

    def __post_init__(self):
        if not -math.inf < self.lft < 0.0 < self.rgt < math.inf:
            raise ValueError("require finite lft < 0 < rgt")
        if not -math.inf < self.rev < 0.0 < self.fwd < math.inf:
            raise ValueError("require finite rev < 0 < fwd")
        # checked in radians: a subnormal tilt_deg converts to a zero angle
        if not 0.0 < math.radians(self.tilt_deg) <= 0.5 * math.pi:
            raise ValueError("tilt_deg must lie in (0, 90]")


def mho_contains(z: complex, zone: MhoZone) -> bool:
    """Boundary-inclusive membership in the zone's mho circle; elementwise for a complex array.

    ``np.hypot`` rounds as ``abs`` of a Python complex does; numpy's complex abs does not."""
    center = 0.5 * zone.reach
    return np.hypot(z.real - center.real, z.imag - center.imag) <= abs(center)


def blinder_contains(z: complex, b: Blinder) -> bool:
    """Boundary-inclusive membership in the blinder quadrilateral; elementwise for a complex array."""
    u = z.real - z.imag / math.tan(math.radians(b.tilt_deg))
    return (b.lft <= u) & (u <= b.rgt) & (b.rev <= z.imag) & (z.imag <= b.fwd)


@dataclass(frozen=True)
class RelaySettings:
    """Zone reaches/delays plus the three detection blinders.

    The blinders share one tilt and nest, inner within middle within outer,
    so a point inside one lies inside every larger one. The defaults are the
    reference distance-protection and swing-detection settings.
    """

    zones: tuple[MhoZone, ...] = (
        MhoZone(Phasor.from_polar_deg(0.48, 84.29)),
        MhoZone(Phasor.from_polar_deg(0.72, 84.29), 0.5),
        MhoZone(Phasor.from_polar_deg(1.20, 84.29), 1.0),
    )
    outer: Blinder = Blinder(rgt=0.84, lft=-0.84, fwd=1.88, rev=-0.56, tilt_deg=84.94)
    middle: Blinder = Blinder(rgt=0.61, lft=-0.61, fwd=1.57, rev=-0.47, tilt_deg=84.94)
    inner: Blinder = Blinder(rgt=0.25, lft=-0.25, fwd=1.31, rev=-0.39, tilt_deg=84.94)
    psb_cycles: float = 2.0
    f_nominal: float = 60.0

    def __post_init__(self):
        if not 0.0 <= self.psb_cycles < math.inf:
            raise ValueError("psb_cycles must be >= 0 and finite")
        if not 0.0 < self.f_nominal < math.inf:
            raise ValueError("f_nominal must be positive and finite")
        for a, b in ((self.middle, self.outer), (self.inner, self.middle)):
            if not (a.tilt_deg == b.tilt_deg and b.lft <= a.lft and a.rgt <= b.rgt
                    and b.rev <= a.rev and a.fwd <= b.fwd):
                raise ValueError("blinders must share one tilt_deg and nest: inner within middle within outer")

    @property
    def delta_t_psb(self) -> float:
        """Swing/fault discrimination threshold in seconds."""
        return self.psb_cycles / self.f_nominal

    def scaled(self, factor: float) -> "RelaySettings":
        """Settings with every reach scaled by ``factor`` (angles unchanged)."""
        blinders = {
            name: replace(b, rgt=factor * b.rgt, lft=factor * b.lft, fwd=factor * b.fwd, rev=factor * b.rev)
            for name, b in (("outer", self.outer), ("middle", self.middle), ("inner", self.inner))
        }
        zones = tuple(MhoZone(Phasor(factor * z.reach), z.time_delay) for z in self.zones)
        return replace(self, zones=zones, **blinders)

    @classmethod
    def table1(cls) -> "RelaySettings":
        """Reference distance-protection and swing-detection settings (the defaults)."""
        return cls()


@dataclass
class RelayState:
    """Occupancy, entry and trip samples and latched decisions of one relay instance.

    ``relay_step`` advances it in place, one sample at a time. A walk may skip
    samples; ``dynamics.run_scenario`` steps only at ``crossings`` and at zone
    trips due, between which a per-sample walk changes nothing. ``outer_entry``
    is the sample that entered the outer blinder and ``zone_due[k]`` the sample
    on which zone k + 1 trips, fixed at its entry (``math.inf`` for a delay no
    sample count reaches), each ``None`` while outside. ``zone_due`` starts
    empty and takes one entry per zone of the settings at the first
    ``relay_step``; ``event_log`` holds one ``(n, event, element)`` tuple per
    event, ``n`` the sample.
    """

    in_middle: bool = False
    in_inner: bool = False
    zone_due: list[int | float | None] = field(default_factory=list)
    outer_entry: int | None = None
    psb_asserted: bool = False
    ost_tripped: bool = False
    ost_this_episode: bool = False
    event_log: list[tuple[int, str, str]] = field(default_factory=list)


def relay_step(state: RelayState, z: complex, n: int, dt: float, settings: RelaySettings) -> None:
    """Advance ``state`` in place by sample ``n`` of measured apparent impedance.

    A NaN ``z`` is an undefined impedance, which lies outside every characteristic.

    Durations are counted in whole samples, with the allowance of 1e-6 of a
    step that ``dynamics.event_step`` gives: PSB asserts at middle entry when
    the transit since outer entry exceeds ``delta_t_psb/dt + 1e-6`` samples,
    and a zone entered on sample n trips on sample ``n + max(0, ceil(time_delay/dt - 1e-6))``
    if it is still inside, so a zero delay trips on the entry sample.
    """
    in_outer = blinder_contains(z, settings.outer)
    in_middle = blinder_contains(z, settings.middle)
    in_inner = blinder_contains(z, settings.inner)
    log = state.event_log

    if in_outer != (state.outer_entry is not None):
        log.append((n, "enter" if in_outer else "exit", "outer"))
        state.outer_entry = n if in_outer else None
        if not in_outer and state.psb_asserted:
            state.psb_asserted = state.ost_this_episode = False
            log.append((n, "psb_deassert", "outer"))

    if in_middle != state.in_middle:
        log.append((n, "enter" if in_middle else "exit", "middle"))
        if in_middle and not state.psb_asserted:  # inside the outer blinder since sample outer_entry
            state.psb_asserted = n - state.outer_entry > settings.delta_t_psb / dt + 1e-6
            log.append((n, "psb_assert" if state.psb_asserted else "fault_classified", "middle"))

    if in_inner != state.in_inner:
        log.append((n, "enter" if in_inner else "exit", "inner"))
        if in_inner and state.psb_asserted and not state.ost_this_episode:
            state.ost_tripped = state.ost_this_episode = True
            log.append((n, "ost_trip", "inner"))
    state.in_middle, state.in_inner = in_middle, in_inner

    if not state.zone_due:
        state.zone_due = [None] * len(settings.zones)
    due = state.zone_due
    for k, zone in enumerate(settings.zones):
        inside = not state.psb_asserted and mho_contains(z, zone)
        if inside != (due[k] is not None):
            log.append((n, "enter" if inside else "exit", f"zone{k + 1}"))
            lag = zone.time_delay / dt - 1e-6  # samples from entry to trip, before rounding up
            due[k] = None if not inside else n + max(0, math.ceil(lag)) if lag < math.inf else math.inf
        if due[k] == n:
            log.append((n, "trip", f"zone{k + 1}"))


def crossings(zapp: np.ndarray, settings: RelaySettings) -> np.ndarray:
    """Sample 0 and, in order, every sample of the complex stream ``zapp`` whose set
    of containing characteristics differs from the previous sample's.

    Each block calls ``blinder_contains`` and ``mho_contains`` on its samples, so a
    NaN sample lies outside every characteristic. The record is tested
    ``CROSSING_BLOCK`` samples at a time, each block overlapping the previous one by
    a sample.
    """
    found = [np.zeros(1, dtype=np.intp)]
    for start in range(1, len(zapp), CROSSING_BLOCK):
        z = zapp[start - 1 : start + CROSSING_BLOCK]
        inside = [blinder_contains(z, b) for b in (settings.outer, settings.middle, settings.inner)]
        inside += [mho_contains(z, zone) for zone in settings.zones]
        changed = np.diff(inside, axis=1).any(axis=0)  # a bool diff is !=
        found.append(np.flatnonzero(changed) + start)
    return np.concatenate(found)
