"""Phasor-domain power-swing simulator for a grid-forming inverter under
virtual-impedance current limiting, with distance-relay swing detection."""

from .analysis import Classification, PDeltaCurve, StabilityVerdict, classify_stability, p_delta_curve
from .dynamics import (
    ApclParams,
    Event,
    EventKind,
    SimulationRecord,
    electrical_power,
    initial_state,
    run_scenario,
    swing_derivatives,
)
from .errors import (
    DegenerateCircuit,
    GfmSwingError,
    NoConvergence,
    ParseError,
    ValidationError,
)
from .limiter import (
    LimiterConfig,
    Strategy,
    ViValue,
    adaptive_vi_step,
    critical_angle,
    solve_limited_current,
    solve_variable_vi_current,
    variable_vi_gain,
    vi_from_current,
    vi_gain_from_drop,
)
from .network import (
    NetworkSolution,
    Phasor,
    SystemParams,
    active_power,
    solve_faulted,
    solve_network,
)
from .relay import Blinder, MhoZone, RelaySettings, RelayState, blinder_contains, mho_contains, relay_step
from .scenario import Scenario, load_scenario, save_scenario, scenario_from_dict, scenario_to_dict
from .trajectory import (
    Segment,
    TrajectorySample,
    cycle_currents,
    full_cycle,
    limited_current_angle,
    line_distance,
    swing_line,
    z_adaptive_vi,
    z_unlimited,
    z_variable_vi,
)
from .cases import CASE_IDS, build_case

__version__ = "0.1.0"
