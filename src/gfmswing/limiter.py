"""Current-limiting strategies for the grid-forming inverter.

Three strategies are modelled: no limiting, a variable virtual impedance
whose gain is sized so the worst bolted short circuit draws exactly the
maximum allowable current, and an adaptive virtual impedance whose series
voltage drop is set by a clamped PI loop regulating the current magnitude
to that maximum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .errors import AlwaysExceeded, DegenerateCircuit, InvalidThresholds, NoConvergence, Unreachable
from .network import NetworkSolution, Phasor, SystemParams, solve_network

SOLVE_TOL = 1e-10
MAX_SOLVE_ITER = 100


class Strategy(Enum):
    NONE = "none"
    VARIABLE_VI = "variable"
    ADAPTIVE_VI = "adaptive"


@dataclass(frozen=True)
class LimiterConfig:
    """Strategy selection plus limiter gains.

    ``k_vi`` is the proportional gain of the variable strategy; ``None``
    selects the designed value from the system parameters. ``kp``/``ki``
    drive the adaptive PI loop and ``delta_v_max`` clamps its output.
    The adaptive defaults are chosen so the regulated current tracks the
    ceiling closely even at the fastest (frequency-clamped) swing rate.
    """

    strategy: Strategy = Strategy.NONE
    k_vi: float | None = None
    kp: float = 0.5
    ki: float = 600.0
    delta_v_max: float = 2.0

    def __post_init__(self):
        if self.k_vi is not None and self.k_vi < 0.0:
            raise ValueError("k_vi must be >= 0")
        if self.kp < 0.0 or self.ki < 0.0:
            raise ValueError("kp and ki must be >= 0")
        if self.delta_v_max <= 0.0:
            raise ValueError("delta_v_max must be positive")


@dataclass(frozen=True)
class ViValue:
    """Series virtual impedance split into resistance and reactance."""

    r_vi: float = 0.0
    x_vi: float = 0.0

    @property
    def as_complex(self) -> complex:
        return complex(self.r_vi, self.x_vi)

    @property
    def magnitude(self) -> float:
        return math.hypot(self.r_vi, self.x_vi)

    @property
    def active(self) -> bool:
        return self.r_vi != 0.0 or self.x_vi != 0.0


@dataclass(frozen=True)
class AdaptiveState:
    """Integrator and clamped output of the adaptive PI loop."""

    integrator: float = 0.0
    delta_v: float = 0.0


@dataclass(frozen=True)
class ActivationSets:
    """Power-angle sets where a limiting strategy is inactive / active.

    Over one full cycle the inactive set is [0, boundary] united with
    [2*pi - boundary, 2*pi]; the active set is the open interval between.
    ``boundary`` is ``None`` for the unlimited strategy (never active).
    """

    boundary: float | None

    def is_active(self, delta: float) -> bool:
        if self.boundary is None:
            return False
        d = delta % (2.0 * math.pi)
        return self.boundary < d < 2.0 * math.pi - self.boundary

    @property
    def active_interval(self) -> tuple[float, float] | None:
        if self.boundary is None:
            return None
        return (self.boundary, 2.0 * math.pi - self.boundary)


def vi_gain_from_drop(delta_v: float, params: SystemParams) -> float:
    """Proportional gain that produces a given voltage drop magnitude.

    The drop across the virtual impedance at the current ceiling equals
    ``delta_v`` when the gain is delta_v / ((i_max - i_th) * i_max *
    sqrt(1 + alpha^2)).
    """
    if params.i_max <= params.i_th:
        raise InvalidThresholds(f"i_max={params.i_max!r} must exceed i_th={params.i_th!r}")
    alpha = params.vi_ratio
    return delta_v / ((params.i_max - params.i_th) * params.i_max * math.sqrt(1.0 + alpha * alpha))


def variable_vi_gain(params: SystemParams) -> float:
    """Designed gain of the variable strategy.

    Sized so that a bolted short circuit at the voltage-reference bus is
    limited to exactly ``i_max``: the full reference magnitude is then
    dropped across the virtual impedance.
    """
    return vi_gain_from_drop(abs(params.e_ref), params)


def vi_from_current(mag: float, gain: float, alpha_vi: float, i_th: float) -> ViValue:
    """Virtual impedance for a given current magnitude (zero at or below threshold)."""
    if mag <= i_th:
        return ViValue()
    r_vi = gain * (mag - i_th)
    return ViValue(r_vi, alpha_vi * r_vi)


def vi_drop(vi: ViValue, i_dq: complex) -> Phasor:
    """Voltage drop across the virtual impedance, assembled dq-component-wise."""
    v_d = vi.r_vi * i_dq.real - vi.x_vi * i_dq.imag
    v_q = vi.r_vi * i_dq.imag + vi.x_vi * i_dq.real
    return Phasor(v_d, v_q)


def vi_reference_update(vi: ViValue, i_dq: complex, e_ref: complex) -> Phasor:
    """Voltage reference handed to the voltage loop: setpoint minus the VI drop."""
    drop = vi_drop(vi, i_dq)
    return Phasor(e_ref.real - drop.real, e_ref.imag - drop.imag)


def solve_limited_current(
    drive: complex,
    z_ext: complex,
    gain: float,
    alpha_vi: float,
    i_th: float,
) -> tuple[float, ViValue]:
    """Current magnitude of the implicit loop I = drive / (z_ext + Z_vi(|I|)).

    The virtual impedance grows linearly with the overshoot past ``i_th``
    along a fixed direction, so the scalar residual
    ``m * |z_ext + gain*(m - i_th)*(1 + j*alpha)| - |drive|`` is monotone in
    ``m`` and the limited root is unique. A safeguarded Newton iteration
    (rtsafe, Numerical Recipes 9.4) starts at the right end of the bracket,
    where the convex residual makes it descend monotonically, and falls back
    to bisection whenever a step would leave the bracket.
    """
    e_mag = abs(drive)
    if e_mag == 0.0:
        return 0.0, ViValue()
    z_ext_mag = abs(z_ext)
    if gain <= 0.0:
        if z_ext_mag < 1e-12:
            raise DegenerateCircuit("no external impedance and no virtual impedance")
        return e_mag / z_ext_mag, ViValue()
    if z_ext_mag > 0.0 and e_mag / z_ext_mag <= i_th:
        return e_mag / z_ext_mag, ViValue()

    r_ext, x_ext = z_ext.real, z_ext.imag
    lo = i_th
    if z_ext_mag > 0.0:
        hi = e_mag / z_ext_mag
    else:
        hi = i_th + 1.0
        while hi * gain * (hi - i_th) * math.hypot(1.0, alpha_vi) < e_mag:
            hi *= 2.0

    m = hi
    for _ in range(MAX_SOLVE_ITER):
        dv = gain * (m - i_th)
        zr, zx = r_ext + dv, x_ext + alpha_vi * dv
        zm = math.hypot(zr, zx)
        residual = m * zm - e_mag
        if residual > 0.0:
            hi = m
        else:
            lo = m
        # Newton step residual / residual', with both scaled by zm
        slope = zm * zm + m * gain * (zr + alpha_vi * zx)
        step = residual * zm / slope if slope > 0.0 else math.inf
        if not (abs(step) < SOLVE_TOL or lo < m - step < hi):
            step = m - 0.5 * (lo + hi)
        m -= step
        if abs(step) < SOLVE_TOL:
            return m, vi_from_current(m, gain, alpha_vi, i_th)

    raise NoConvergence(f"implicit current solve stalled at m={m!r}", residual=residual)


def solve_variable_vi_current(
    delta: float,
    params: SystemParams,
    gain: float | None = None,
) -> tuple[float, ViValue, NetworkSolution]:
    """Self-consistent current of the healthy loop at power angle ``delta``.

    Returns the solved magnitude, the virtual impedance it implies, and the
    full network solution computed with that impedance. ``gain`` defaults to
    the designed gain of the variable strategy; with a zero gain, or below
    the activation threshold, this reduces to the plain unlimited solve.
    """
    if gain is None:
        gain = variable_vi_gain(params)
    drive = complex(params.e_ref) - params.v_g_mag * cmath.exp(-1j * delta)
    mag, vi = solve_limited_current(
        drive, complex(params.z_sigma), gain, params.vi_ratio, params.i_th
    )
    sol = solve_network(delta, vi.as_complex, params)
    return mag, vi, sol


def adaptive_vi_step(
    state: AdaptiveState,
    mag: float,
    dt: float,
    cfg: LimiterConfig,
    i_max: float,
) -> AdaptiveState:
    """One discrete update of the PI loop producing the VI voltage drop.

    Clamping anti-windup: the integrator freezes whenever the output is
    saturated (at zero or at ``delta_v_max``) and the error would push it
    further into saturation. The output is therefore zero until the current
    magnitude exceeds ``i_max``.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    error = mag - i_max
    unclamped = cfg.kp * error + state.integrator
    deepening_high = unclamped >= cfg.delta_v_max and error > 0.0
    deepening_low = unclamped <= 0.0 and error < 0.0
    if deepening_high or deepening_low:
        integrator = state.integrator
    else:
        integrator = state.integrator + cfg.ki * error * dt
    delta_v = min(max(cfg.kp * error + integrator, 0.0), cfg.delta_v_max)
    return AdaptiveState(integrator=integrator, delta_v=delta_v)


def critical_angle(params: SystemParams, i_level: float) -> float:
    """Power angle at which the unlimited current magnitude reaches ``i_level``.

    From the law of cosines on the two source phasors across the total
    impedance. Raises ``Unreachable`` when the level is never attained and
    ``AlwaysExceeded`` when it is exceeded at every angle.
    """
    e = abs(params.e_ref)
    v = params.v_g_mag
    z = abs(params.z_sigma)
    arg = (e * e + v * v - (z * i_level) ** 2) / (2.0 * e * v)
    edge = 1e-9  # grazing contact survives float round-off
    if arg > 1.0 + edge:
        raise Unreachable(f"current never reaches {i_level!r} pu (arccos argument {arg:.6f})")
    if arg < -1.0 - edge:
        raise AlwaysExceeded(f"current exceeds {i_level!r} pu at every angle (arccos argument {arg:.6f})")
    return math.acos(min(max(arg, -1.0), 1.0))


def activation_sets(params: SystemParams, strategy: Strategy) -> ActivationSets:
    """Angle sets where the given strategy's virtual impedance is active.

    The variable strategy activates once the current passes ``i_th``; the
    adaptive strategy produces a nonzero drop only past ``i_max``.
    """
    if strategy is Strategy.NONE:
        return ActivationSets(boundary=None)
    if strategy is Strategy.VARIABLE_VI:
        return ActivationSets(boundary=critical_angle(params, params.i_th))
    return ActivationSets(boundary=critical_angle(params, params.i_max))
