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

from .errors import DegenerateCircuit, NoConvergence
from .network import NetworkSolution, SystemParams, solve_network

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
        if self.k_vi is not None and not 0.0 <= self.k_vi < math.inf:
            raise ValueError("k_vi must be >= 0 and finite")
        if not (0.0 <= self.kp < math.inf and 0.0 <= self.ki < math.inf):
            raise ValueError("kp and ki must be >= 0 and finite")
        if not 0.0 < self.delta_v_max < math.inf:
            raise ValueError("delta_v_max must be positive and finite")


@dataclass(slots=True)
class ViValue:
    """Series virtual impedance split into resistance and reactance."""

    r_vi: float = 0.0
    x_vi: float = 0.0

    @property
    def as_complex(self) -> complex:
        return complex(self.r_vi, self.x_vi)

    @property
    def active(self) -> bool:
        return self.r_vi != 0.0 or self.x_vi != 0.0


def vi_gain_from_drop(delta_v: float, params: SystemParams) -> float:
    """Proportional gain that produces a given voltage drop magnitude.

    The drop across the virtual impedance at the current ceiling equals
    ``delta_v`` when the gain is delta_v / ((i_max - i_th) * i_max *
    sqrt(1 + alpha^2)).
    """
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


def vi_drop(vi: ViValue, i_dq: complex) -> complex:
    """Voltage drop across the virtual impedance, assembled dq-component-wise."""
    v_d = vi.r_vi * i_dq.real - vi.x_vi * i_dq.imag
    v_q = vi.r_vi * i_dq.imag + vi.x_vi * i_dq.real
    return complex(v_d, v_q)


def solve_limited_current(
    drive: complex, z_ext: complex, gain: float, alpha_vi: float, i_th: float
) -> tuple[float, ViValue]:
    """Current magnitude of the implicit loop I = drive / (z_ext + Z_vi(|I|)),
    and the virtual impedance it implies (see ``_limited_magnitude``)."""
    m = _limited_magnitude(abs(drive), z_ext, gain, alpha_vi, i_th)
    return m, vi_from_current(m, gain, alpha_vi, i_th) if gain > 0.0 else ViValue()


def _limited_magnitude(e_mag: float, z_ext: complex, gain: float, alpha_vi: float, i_th: float) -> float:
    """Root of the limited loop for a drive of magnitude ``e_mag``.

    The virtual impedance grows linearly with the overshoot past ``i_th`` along a fixed direction,
    so with a passive ``z_ext`` the residual ``m * |z_ext + gain*(m - i_th)*(1 + j*alpha)| - e_mag``
    is convex and increasing in ``m``, and the limited root is unique. A safeguarded Newton
    iteration (rtsafe, Numerical Recipes 9.4) starts at the aligned root, the root the loop would
    have with the VI along ``z_ext``. As |z_ext + v*(1 + j*alpha)| <= |z_ext| + v*hypot(1, alpha),
    the residual there is at most zero: the start is a lower bound, and the root itself when
    ``z_ext`` lies along 1 + j*alpha, which one Newton check then settles. From the left, Newton
    on the convex residual lands at or right of the root, then descends monotonically; it
    bisects whenever a step would leave the bracket [i_th, e_mag/|z_ext|].
    Without ``z_ext`` the loop is the VI alone, whose root is a quadratic's. ``run_scenario``
    takes it for the faulted loop and for an explicit ``alpha_vi``. No drive gives no current,
    and the NaN drive of a diverging swing a NaN one.
    """
    if not e_mag > 0.0:
        return e_mag
    z_ext_mag = abs(z_ext)
    if gain <= 0.0:
        if z_ext_mag < 1e-12:
            raise DegenerateCircuit("no external impedance and no virtual impedance")
        return e_mag / z_ext_mag
    if z_ext_mag == 0.0:  # the VI alone: k*m*(m - i_th) = e_mag with k = gain*hypot(1, alpha)
        return 0.5 * (i_th + math.sqrt(i_th * i_th + 4.0 * e_mag / (gain * math.hypot(1.0, alpha_vi))))
    if e_mag / z_ext_mag <= i_th:
        return e_mag / z_ext_mag

    r_ext, x_ext = z_ext.real, z_ext.imag
    lo, hi = i_th, e_mag / z_ext_mag
    m = _loop_magnitude(e_mag, z_ext_mag, gain * math.hypot(1.0, alpha_vi), i_th)
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
            return m

    raise NoConvergence(f"implicit current solve stalled at m={m!r} (residual {residual!r})")


def _loop_magnitude(e_mag: float, z_mag: float, k: float, i_th: float) -> float:
    """Root of the limited loop when the VI lies along a loop of magnitude ``z_mag``: the quadratic
    k*m^2 + b*m - e_mag = 0, b = z_mag - k*i_th, k = gain*sqrt(1 + alpha^2), in its cancellation-free
    form for the sign of b; ``e_mag / z_mag`` at or below ``i_th`` or with k = 0."""
    m = e_mag / z_mag
    if k == 0.0 or m <= i_th:
        return m
    b = z_mag - k * i_th
    disc = math.sqrt(b * b + 4.0 * k * e_mag)
    return 2.0 * e_mag / (b + disc) if b >= 0.0 else (disc - b) / (2.0 * k)


def solve_variable_vi_current(
    delta: float,
    params: SystemParams,
    gain: float,
) -> tuple[float, ViValue, NetworkSolution]:
    """Self-consistent current of the healthy loop at power angle ``delta`` under a VI of ``gain``.

    Returns the solved magnitude, the virtual impedance it implies, and the
    full network solution computed with that impedance. With a zero gain, or
    below the activation threshold, this reduces to the plain unlimited solve.
    """
    drive = params.e_ref - params.v_g_mag * cmath.exp(-1j * delta)
    mag, vi = solve_limited_current(drive, params.z_sigma, gain, params.vi_ratio, params.i_th)
    sol = solve_network(delta, vi.as_complex, params)
    return mag, vi, sol


def adaptive_vi_step(
    integrator: float,
    mag: float,
    dt: float,
    cfg: LimiterConfig,
    i_max: float,
) -> tuple[float, float]:
    """One discrete update of the PI loop: the new integrator and the VI voltage drop.

    The PI at rest has a zero integrator. Clamping anti-windup: the
    integrator freezes whenever the output is saturated (at zero or at
    ``delta_v_max``) and the error would push it further into saturation.
    The output is therefore zero until the current magnitude exceeds ``i_max``.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    error = mag - i_max
    unclamped = cfg.kp * error + integrator
    deepening_high = unclamped >= cfg.delta_v_max and error > 0.0
    deepening_low = unclamped <= 0.0 and error < 0.0
    if not (deepening_high or deepening_low):
        integrator += cfg.ki * error * dt
    return integrator, min(max(cfg.kp * error + integrator, 0.0), cfg.delta_v_max)


def critical_angle(params: SystemParams, i_level: float) -> float | None:
    """Power angle at which the unlimited current magnitude reaches ``i_level``.

    From the law of cosines on the two source phasors across the total
    impedance. ``None`` when no angle does: the level is never attained, or
    it is exceeded at every angle.
    """
    e = abs(params.e_ref)
    v = params.v_g_mag
    z = abs(params.z_sigma)
    arg = (e * e + v * v - (z * i_level) ** 2) / (2.0 * e * v)
    edge = 1e-9  # grazing contact survives float round-off
    if not -1.0 - edge <= arg <= 1.0 + edge:
        return None
    return math.acos(min(max(arg, -1.0), 1.0))
