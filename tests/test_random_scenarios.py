"""Seeded random scenarios, each judged sample by sample.

    PYTHONPATH=src python tests/test_random_scenarios.py --seeds N

A seed draws one scenario inside the validated ranges: a passive system with
|z_sigma| from about 0.15 pu, an explicit ``alpha_vi`` in some draws, any of the
three strategies, and one to four mixed events at dt 2e-3. A draw is kept when it
validates, has an initial state and runs to the horizon. Each kept draw is checked
two ways, neither of which compares against a trajectory that can drift:

- every sample against ``electrical_power`` at the recorded angle and gain;
- the run's relay walk against ``relay_step`` on every sample, by sample index.

The tier-1 tests run ``TIER1_SEEDS``. Run as a script, the file explores seeds 0 to
N - 1 and prints each failing draw as scenario JSON, ready to paste into a fixed
scenario list; the exit status is 1 when any draw fails.
"""

import argparse
import json
import random
import sys
from functools import cache

from gfmswing import (
    ApclParams,
    Event,
    EventKind,
    GfmSwingError,
    LimiterConfig,
    Phasor,
    RelaySettings,
    Strategy,
    SystemParams,
    run_scenario,
)
from gfmswing.scenario import Scenario, scenario_to_dict
from test_dynamics import assert_relay_walk_matches_every_sample, assert_samples_match_electrical_power

DT = 2e-3
HORIZON = 4.0
TIER1_SEEDS = range(32)


def draw(seed: int) -> Scenario:
    """The scenario of ``seed``; raises ``ValidationError`` where the draw breaks a scenario rule."""
    rng = random.Random(seed)

    def impedance(lo: float, hi: float, min_deg: float) -> Phasor:
        return Phasor.from_polar_deg(rng.uniform(lo, hi), rng.uniform(min_deg, 89.9))

    i_th = rng.uniform(0.8, 1.2)
    system = SystemParams(
        v_g_mag=rng.uniform(0.9, 1.1),
        z_g=impedance(0.05, 0.8, 70.0),
        z_l=impedance(0.05, 0.5, 70.0),
        z_tr=impedance(0.05, 0.2, 80.0),
        i_th=i_th,
        i_max=i_th + rng.uniform(0.05, 0.4),
        alpha_vi=rng.uniform(1.0, 20.0) if rng.random() < 0.3 else None,
    )
    apcl = ApclParams(h=rng.uniform(2.0, 10.0), d_p=rng.uniform(0.02, 0.2), p0=rng.uniform(0.1, 1.0))
    events, t, faulted = [], 0.0, False
    for _ in range(rng.randint(1, 4)):
        t += rng.uniform(DT, 0.8)
        kinds = ["phase_jump", "power_step", "fault_clear" if faulted else "fault_apply"]
        kind = EventKind(rng.choice(kinds))
        if kind is EventKind.PHASE_JUMP:
            value = rng.uniform(-1.6, 1.6)
        elif kind is EventKind.POWER_STEP:
            value = rng.uniform(-0.3, 0.3)
        else:
            value = None if kind is EventKind.FAULT_CLEAR or rng.random() < 0.2 else rng.random()
            faulted = kind is EventKind.FAULT_APPLY
        events.append(Event(t, kind, value))
    return Scenario(
        name=f"random-{seed}",
        system=system,
        apcl=apcl,
        limiter=LimiterConfig(strategy=rng.choice(list(Strategy))),
        events=tuple(events),
        horizon=HORIZON,
        dt=DT,
        relay=RelaySettings().scaled(abs(system.z_sigma) / abs(SystemParams().z_sigma)),
    )


def kept(seed: int):
    """``(scenario, record)`` of the draw of ``seed``, or ``None`` where it does not
    validate, has no initial state or stops before the horizon."""
    try:
        scn = draw(seed)
        return scn, run_scenario(scn)
    except GfmSwingError:
        return None


@cache
def tier1_draws():
    return [found for found in map(kept, TIER1_SEEDS) if found is not None]


def test_tier1_draws_cover_the_ranges():
    # a generator that stops reaching a strategy, an explicit ratio or a relay decision
    # tests less than it says
    draws = tier1_draws()
    assert len(draws) >= len(TIER1_SEEDS) // 3
    assert {scn.limiter.strategy for scn, _ in draws} == set(Strategy)
    assert any(scn.system.alpha_vi is not None for scn, _ in draws)
    assert any(ev.kind is EventKind.FAULT_APPLY for scn, _ in draws for ev in scn.events)
    assert any(rec.ost.any() for _, rec in draws)
    assert any(event == "trip" for _, rec in draws for _, event, _ in rec.relay_events)


def test_random_draws_match_electrical_power():
    for scn, rec in tier1_draws():
        assert_samples_match_electrical_power(scn, rec)


def test_random_draws_observe_like_every_sample():
    for scn, rec in tier1_draws():
        assert_relay_walk_matches_every_sample(rec, scn.relay)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="explore seeded random scenarios")
    parser.add_argument("--seeds", type=int, default=200, help="explore seeds 0 to N - 1")
    args = parser.parse_args(argv)
    n_kept = n_failed = 0
    for seed in range(args.seeds):
        found = kept(seed)
        if found is None:
            continue
        scn, rec = found
        n_kept += 1
        try:
            assert_samples_match_electrical_power(scn, rec)
            assert_relay_walk_matches_every_sample(rec, scn.relay)
        except AssertionError as exc:
            n_failed += 1
            print(f"seed {seed} fails: {exc!r}")
            print(json.dumps(scenario_to_dict(scn), indent=2))
    print(f"{args.seeds} seeds: {n_kept} draws kept, {n_failed} failed")
    return 1 if n_failed else 0


if __name__ == "__main__":
    sys.exit(main())
