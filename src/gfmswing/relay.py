"""Distance-relay engine: directional mho zones and blinder-based swing detection.

The detection scheme uses three nested quadrilaterals ("blinders") tilted
at the line-impedance angle. A slow transit from the outer to the middle
blinder is a power swing and blocks all distance zones; while blocked, a
crossing of the inner blinder declares the swing unstable and trips. Fast
transits are classified as faults and leave the zones free to operate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .network import Phasor


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

    def scaled(self, factor: float) -> "Blinder":
        return Blinder(
            rgt=self.rgt * factor,
            lft=self.lft * factor,
            fwd=self.fwd * factor,
            rev=self.rev * factor,
            tilt_deg=self.tilt_deg,
        )


def mho_contains(z: complex, zone: MhoZone) -> bool:
    """Boundary-inclusive membership in the zone's mho circle."""
    center = 0.5 * zone.reach
    return abs(z - center) <= abs(center)


def blinder_contains(z: complex, b: Blinder) -> bool:
    """Boundary-inclusive membership in the blinder quadrilateral."""
    u = z.real - z.imag / math.tan(math.radians(b.tilt_deg))
    return b.lft <= u <= b.rgt and b.rev <= z.imag <= b.fwd


@dataclass(frozen=True)
class RelaySettings:
    """Zone reaches/delays plus the three detection blinders.

    The defaults are the reference distance-protection and swing-detection
    settings.
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

    @property
    def delta_t_psb(self) -> float:
        """Swing/fault discrimination threshold in seconds."""
        return self.psb_cycles / self.f_nominal

    def scaled(self, factor: float) -> "RelaySettings":
        """Settings with every reach scaled by ``factor`` (angles unchanged)."""
        return replace(
            self,
            zones=tuple(MhoZone(Phasor(factor * z.reach), z.time_delay) for z in self.zones),
            outer=self.outer.scaled(factor),
            middle=self.middle.scaled(factor),
            inner=self.inner.scaled(factor),
        )

    @classmethod
    def table1(cls) -> "RelaySettings":
        """Reference distance-protection and swing-detection settings (the defaults)."""
        return cls()


@dataclass(frozen=True)
class RelayState:
    """Occupancy, timers and latched decisions of one relay instance.

    The per-zone tuples start empty and take one entry per zone of the
    settings at the first ``relay_step``.
    """

    in_outer: bool = False
    in_middle: bool = False
    in_inner: bool = False
    in_zone: tuple[bool, ...] = ()
    zone_timers: tuple[float, ...] = ()
    zone_tripped: tuple[bool, ...] = ()
    outer_entry_time: float | None = None
    psb_asserted: bool = False
    ost_tripped: bool = False
    ost_this_episode: bool = False
    event_log: tuple[tuple[float, str, str], ...] = ()


def relay_step(
    state: RelayState,
    z: complex | None,
    t: float,
    dt: float,
    settings: RelaySettings,
) -> RelayState:
    """Advance the relay by one sample of measured apparent impedance.

    ``z`` may be ``None`` (or NaN) when the impedance is undefined; the
    point is then treated as lying outside every characteristic.
    """
    if z is None:
        z = complex(float("nan"), float("nan"))
    in_outer = blinder_contains(z, settings.outer)
    in_middle = blinder_contains(z, settings.middle)
    in_inner = blinder_contains(z, settings.inner)

    log: list[tuple[float, str, str]] = []
    outer_entry_time = state.outer_entry_time
    psb = state.psb_asserted
    ost_episode = state.ost_this_episode
    ost_tripped = state.ost_tripped

    if in_outer and not state.in_outer:
        outer_entry_time = t
        log.append((t, "enter", "outer"))
    elif not in_outer and state.in_outer:
        log.append((t, "exit", "outer"))
        outer_entry_time = None
        if psb:
            psb = False
            ost_episode = False
            log.append((t, "psb_deassert", "outer"))

    psb_just_asserted = False
    if in_middle and not state.in_middle:
        log.append((t, "enter", "middle"))
        if not psb:
            transit = t - outer_entry_time if outer_entry_time is not None else 0.0
            if transit > settings.delta_t_psb:
                psb = True
                psb_just_asserted = True
                log.append((t, "psb_assert", "middle"))
            else:
                log.append((t, "fault_classified", "middle"))
    elif not in_middle and state.in_middle:
        log.append((t, "exit", "middle"))

    if in_inner and not state.in_inner:
        log.append((t, "enter", "inner"))
    elif not in_inner and state.in_inner:
        log.append((t, "exit", "inner"))

    if psb and in_inner and (not state.in_inner or psb_just_asserted) and not ost_episode:
        ost_tripped = True
        ost_episode = True
        log.append((t, "ost_trip", "inner"))

    n_zones = len(settings.zones)
    in_zone = list(state.in_zone or (False,) * n_zones)
    timers = list(state.zone_timers or (0.0,) * n_zones)
    tripped = list(state.zone_tripped or (False,) * n_zones)
    for k, zone in enumerate(settings.zones):
        inside = (not psb) and mho_contains(z, zone)
        zone_id = f"zone{k + 1}"
        if inside and not in_zone[k]:
            log.append((t, "enter", zone_id))
            timers[k] = 0.0
            tripped[k] = False
        elif not inside and in_zone[k]:
            log.append((t, "exit", zone_id))
            timers[k] = 0.0
            tripped[k] = False
        elif inside:
            timers[k] += dt
        if inside and not tripped[k] and timers[k] >= zone.time_delay:
            tripped[k] = True
            log.append((t, "trip", zone_id))
        in_zone[k] = inside

    return RelayState(
        in_outer=in_outer,
        in_middle=in_middle,
        in_inner=in_inner,
        in_zone=tuple(in_zone),
        zone_timers=tuple(timers),
        zone_tripped=tuple(tripped),
        outer_entry_time=outer_entry_time,
        psb_asserted=psb,
        ost_tripped=ost_tripped,
        ost_this_episode=ost_episode,
        event_log=state.event_log + tuple(log) if log else state.event_log,
    )
