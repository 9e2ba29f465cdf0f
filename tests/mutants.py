"""Mutant catalogue: small edits of ``src/`` that the test suite must kill.

    python tests/mutants.py

Each mutant names a file, an exact text that occurs there once, the text that
replaces it, and the tests that must fail on the edited program (its killers).
The runner copies ``src/``, ``tests/`` and ``pyproject.toml`` into a temporary
directory, runs every killer once on the unedited copy (they must pass there),
then applies one mutant at a time and runs its killers with a timeout. A
failing killer or a timeout (a walk that stops advancing hangs) kills the
mutant. The report lists each mutant, every survivor, and every mutant whose
old text no longer occurs exactly once (stale: the code moved, so the mutant
must be restated or retired). The exit status is 0 only when every mutant
applies and is killed.

pytest does not collect this file. A change that adds a fast path adds its
mutants here; a change that removes the code a mutant patches retires it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60  # per pytest run; the killers take a few seconds when they do not hang


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the root of the checkout
    old: str
    new: str
    killers: tuple[str, ...]  # pytest node ids


LIM, TRJ, DYN, REL, NET, ANA = (
    f"src/gfmswing/{m}.py" for m in ("limiter", "trajectory", "dynamics", "relay", "network", "analysis")
)
SCN, CLI = "src/gfmswing/scenario.py", "src/gfmswing/cli.py"
T_LIM, T_TRJ, T_DYN, T_REL, T_CLI, T_NET, T_ANA = (
    f"tests/test_{m}.py"
    for m in ("limiter", "trajectory", "dynamics", "relay", "scenario_cli", "network", "analysis")
)

MUTANTS = (
    # undefined results are values
    Mutant(
        "critical_angle drops the lower edge allowance",
        LIM,
        "if not -1.0 - edge <= arg",
        "if not -1.0 + edge <= arg",
        (f"{T_LIM}::test_critical_angle_extremes",),
    ),
    Mutant(
        "critical_angle clamps where no angle reaches the level",
        LIM,
        "        return None\n",
        "        pass\n",
        (f"{T_LIM}::test_critical_angle_extremes",),
    ),
    Mutant(
        "z_unlimited reads 0j where no current flows",
        TRJ,
        "ZERO_CURRENT_TOL * abs(params.z_sigma):\n        return complex(math.nan, math.nan)",
        "ZERO_CURRENT_TOL * abs(params.z_sigma):\n        return 0j",
        (f"{T_TRJ}::test_unlimited_pole_at_zero",),
    ),
    Mutant(
        "z_variable_vi reads 0j where no current flows (the array rule of relay_impedance)",
        NET,
        "np.abs(current) < ZERO_CURRENT_TOL, complex(math.nan, math.nan)",
        "np.abs(current) < ZERO_CURRENT_TOL, 0j",
        (f"{T_TRJ}::test_unlimited_pole_at_zero",),
    ),
    # one impedance formula and one no-current rule
    Mutant(
        "relay_impedance drops its no-current rule",
        NET,
        "return np.where(np.abs(current) < ZERO_CURRENT_TOL, complex(math.nan, math.nan), z)",
        "return z",
        (f"{T_NET}::test_relay_impedance_reads_the_series_loop_over_arrays",),
    ),
    Mutant(
        "_series_loop reads V_far / I without z_relay",
        NET,
        "else z_relay + v_far / current",
        "else v_far / current",
        (
            f"{T_NET}::test_kirchhoff_residual_random",
            f"{T_NET}::test_faulted_loop_is_the_series_loop_with_a_zero_far_source",
        ),
    ),
    Mutant(
        "rtsafe iterates on the NaN drive of a diverging swing",
        LIM,
        "    if not e_mag > 0.0:\n        return e_mag",
        "    if e_mag == 0.0:\n        return e_mag",
        (f"{T_DYN}::test_kernel_raises_like_reference[diverged-explicit-alpha]",),
    ),
    Mutant(
        "schema_version takes true and 1.0 as 1",
        SCN,
        "if type(version) is not int or version != SCHEMA_VERSION:",
        "if version != SCHEMA_VERSION:",
        (
            f"{T_CLI}::test_cli_error_exit_code[boolean-schema_version]",
            f"{T_CLI}::test_cli_error_exit_code[float-schema_version]",
        ),
    ),
    # the relay walk
    Mutant(
        "_observe drops the dues",
        DYN,
        "step = min([todo[i], *(due for due in state.zone_due if due is not None and due > k)])",
        "step = todo[i]",
        (f"{T_REL}::test_zone_trips_after_its_delay_in_whole_samples",),
    ),
    Mutant(
        "_observe takes a due on the sample just walked",
        DYN,
        "if due is not None and due > k)])",
        "if due is not None and due >= k)])",
        (f"{T_REL}::test_zone_trips_after_its_delay_in_whole_samples",),
    ),
    Mutant(
        "_observe never moves past a crossing",
        DYN,
        "        i += todo[i] == k\n",
        "",
        (f"{T_REL}::test_zone_trips_after_its_delay_in_whole_samples",),
    ),
    Mutant(
        "mho_contains takes numpy's complex abs",
        REL,
        "np.hypot(z.real - center.real, z.imag - center.imag) <= abs(center)",
        "np.abs(z - complex(center)) <= abs(center)",
        (f"{T_REL}::test_mho_contains_rounds_as_complex_abs",),
    ),
    Mutant(
        "the zone due rounds down",
        REL,
        "n + max(0, math.ceil(lag))",
        "n + max(0, math.floor(lag))",
        (f"{T_REL}::test_counted_delay_moves_only_the_whole_step_trip",),
    ),
    Mutant(
        "the zone due takes the ceiling of an infinite delay",
        REL,
        "n + max(0, math.ceil(lag)) if lag < math.inf else math.inf",
        "n + max(0, math.ceil(lag))",
        (f"{T_REL}::test_unreachable_delays_neither_trip_nor_raise",),
    ),
    # the kernel
    Mutant(
        "the damping term flips sign",
        DYN,
        "k1w, k1d = (p0 - stage(delta)[0] - omega * inv_dp)",
        "k1w, k1d = (p0 - stage(delta)[0] + omega * inv_dp)",
        (f"{T_DYN}::test_rk4_convergence_order",),
    ),
    Mutant(
        "RK4 takes the weights (2, 2, 1, 1)/6",
        DYN,
        "delta += dt / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)",
        "delta += dt / 6.0 * (2.0 * k1d + 2.0 * k2d + k3d + k4d)",
        (f"{T_DYN}::test_rk4_convergence_order",),
    ),
    Mutant(
        "the impedance pass reads the current of the loop without its VI",
        DYN,
        "current = (e - v_far) / (z_sigma + vir_arr[block] * complex(1.0, alpha))",
        "current = (e - v_far) / z_sigma",
        (f"{T_DYN}::test_impedance_arrays_repeat_the_complex_formula[caseB2]",),
    ),
    Mutant(
        "the VI gain loses its sqrt(1 + alpha^2)",
        DYN,
        "k_vi, solved_at, solved = gain * vi_norm, math.nan, None",
        "k_vi, solved_at, solved = gain, math.nan, None",
        (f"{T_DYN}::test_kernel_samples_match_electrical_power[caseA2]",),
    ),
    Mutant(
        "a PI gain move keeps the cached stage solve",
        DYN,
        "gain, k_vi, solved_at = moved, moved * vi_norm, math.nan",
        "gain, k_vi = moved, moved * vi_norm",
        (f"{T_DYN}::test_kernel_limited_solve_count",),
    ),
    # plain values across the seams
    Mutant(
        "classify_stability gives a verdict on a record that ends exactly min_post_event after its event",
        ANA,
        "* record.dt < min_post_event:",
        "* record.dt <= min_post_event:",
        (f"{T_ANA}::test_classify_counts_post_event_record_in_steps",),
    ),
    Mutant(
        "classify_stability drops its no-event return",
        ANA,
        "    if not record.events:\n        return None\n",
        "",
        (f"{T_ANA}::test_classify_flat_record_stable",),
    ),
    Mutant(
        "the kernel passes the PI's previous drop to _limiter_gain",
        DYN,
        "(moved := _limiter_gain(cfg, drop, system)) != gain",
        "(moved := _limiter_gain(cfg, last, system)) != gain",
        (f"{T_DYN}::test_kernel_samples_match_electrical_power[caseD]",),
    ),
    Mutant(
        "the adaptive PI drops its anti-windup",
        LIM,
        "    if not (deepening_high or deepening_low):\n",
        "    if True:\n",
        (
            f"{T_LIM}::test_adaptive_step_inactive_below_ceiling",
            f"{T_LIM}::test_adaptive_step_output_clamped_and_windup_bounded",
        ),
    ),
    Mutant(
        "the loop without an external impedance takes the other root of its quadratic",
        LIM,
        "return 0.5 * (i_th + math.sqrt(",
        "return 0.5 * (i_th - math.sqrt(",
        (
            f"{T_LIM}::test_limited_root_without_external_impedance_is_the_quadratic_root",
            f"{T_LIM}::test_bolted_terminal_design_current",
        ),
    ),
    # restated from earlier scratch mutants
    Mutant(
        "_limited_magnitude sends a zero gain past its unlimited branch",
        LIM,
        "    if gain <= 0.0:\n        if z_ext_mag < 1e-12:",
        "    if gain < 0.0:\n        if z_ext_mag < 1e-12:",
        (f"{T_LIM}::test_unlimited_solve_without_any_impedance_is_degenerate",),
    ),
    Mutant(
        "rtsafe's converged exit returns the low end of the bracket",
        LIM,
        "        if abs(step) < SOLVE_TOL:\n            return m\n",
        "        if abs(step) < SOLVE_TOL:\n            return lo\n",
        (f"{T_LIM}::test_solve_consistent_over_active_range",),
    ),
    Mutant(
        "PSB deassert keeps the episode's OST latch",
        REL,
        "state.psb_asserted = state.ost_this_episode = False",
        "state.psb_asserted = False",
        (f"{T_REL}::test_relay_matches_reference_on_random_walks[reference]",),
    ),
    Mutant(
        "a PI gain move inside a fault keeps the faulted span's solve",
        DYN,
        "                    if fault is not None and k + 1 < hi:\n                        stage = fault_span(delta, k + 1, hi)\n",
        "",
        (f"{T_DYN}::test_kernel_samples_match_electrical_power[caseD]",),
    ),
    Mutant(
        "a crossing block without its one-sample overlap",
        REL,
        "z = zapp[start - 1 : start + CROSSING_BLOCK]",
        "z = zapp[start : start + CROSSING_BLOCK]",
        (f"{T_REL}::test_crossings_match_scalar_membership[reference]",),
    ),
    Mutant(
        "a crossing block one sample short",
        REL,
        "z = zapp[start - 1 : start + CROSSING_BLOCK]",
        "z = zapp[start - 1 : start + CROSSING_BLOCK - 1]",
        (f"{T_REL}::test_crossings_match_scalar_membership[reference]",),
    ),
    Mutant(
        "the impedance pass overwrites the faulted impedance",
        DYN,
        "zapp[block] = np.where(fault_at[block], zapp[block], relay_impedance(v_far, current, z_relay))",
        "zapp[block] = relay_impedance(v_far, current, z_relay)",
        (f"{T_DYN}::test_valueless_fault_sits_mid_line",),
    ),
    Mutant(
        "the stage scales x_sigma by 1 + 1e-11",
        DYN,
        "rt, xt = r_sigma + r_vi, x_sigma + alpha * r_vi",
        "rt, xt = r_sigma + r_vi, x_sigma * (1.0 + 1e-11) + alpha * r_vi",
        (f"{T_DYN}::test_kernel_samples_match_electrical_power[caseA1]",),
    ),
    # one of each at the edges
    Mutant(
        "_load renames the run under its own strategy",
        CLI,
        "if args.strategy in (None, scn.limiter.strategy.value):",
        "if args.strategy is None:",
        (
            f"{T_CLI}::test_case_strategy_override",
            f"{T_CLI}::test_cli_scenario_file_strategy_names_the_run",
        ),
    ),
    Mutant(
        "_observe stamps each entry with the next sample's time",
        DYN,
        "[(float(t[k]), event, element) for k, event, element in state.event_log]",
        "[(float(t[k + 1]), event, element) for k, event, element in state.event_log]",
        (
            f"{T_REL}::test_walk_at_crossings_matches_every_sample_on_random_walks[reference]",
            f"{T_DYN}::test_relay_is_an_observer[caseB2]",
        ),
    ),
    Mutant(
        "the outer-blinder test reads the middle occupancy",
        REL,
        "if in_outer != (state.outer_entry is not None):",
        "if in_outer != state.in_middle:",
        (f"{T_REL}::test_relay_matches_reference_on_random_walks[reference]",),
    ),
    Mutant(
        "_parse_grid takes a grid flag with no number as not given",
        CLI,
        "    if not values:\n        raise ValidationError",
        "    if values is None:\n        raise ValidationError",
        (
            f"{T_CLI}::test_cli_bad_flag_values[separators-only-h-sweep]",
            f"{T_CLI}::test_cli_bad_flag_values[empty-dp-sweep]",
        ),
    ),
    # loci at about half the cost
    Mutant(
        "rtsafe starts at the right end of the bracket, not at the aligned root",
        LIM,
        "    m = _loop_magnitude(e_mag, z_ext_mag, gain * math.hypot(1.0, alpha_vi), i_th)\n",
        "    m = hi\n",
        (f"{T_LIM}::test_aligned_loop_is_settled_by_one_newton_check",),
    ),
    Mutant(
        "the aligned root leaves out the VI direction's hypot(1, alpha)",
        LIM,
        "_loop_magnitude(e_mag, z_ext_mag, gain * math.hypot(1.0, alpha_vi), i_th)",
        "_loop_magnitude(e_mag, z_ext_mag, gain, i_th)",
        (f"{T_LIM}::test_aligned_loop_is_settled_by_one_newton_check",),
    ),
    Mutant(
        "the variable branch solves every angle of the grid, not the active ones",
        TRJ,
        "for d in delta[active].tolist()]",
        "for d in delta.tolist()]",
        (f"{T_LIM}::test_activation_sets", f"{T_TRJ}::test_full_cycle_segment_boundaries"),
    ),
    Mutant(
        "_load takes --scenario and drops --case when both are given",
        CLI,
        "    if args.scenario is not None and args.case is not None:\n        raise GfmSwingError",
        "    if False:\n        raise GfmSwingError",
        (f"{T_CLI}::test_cli_scenario_and_case_together_exit_1",),
    ),
    # the writer
    Mutant(
        "the CSV writer writes None as text",
        CLI,
        '("" if v is None else str(v) for v in c)',
        "(str(v) for v in c)",
        (f"{T_CLI}::test_write_csv_matches_csv_writer",),
    ),
)


def _pytest(tree: Path, ids) -> str:
    """'pass', 'fail' or 'timeout' of the tests ``ids`` run in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids]
    try:
        done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if done.returncode == 0 else "fail"


def main() -> int:
    started = time.perf_counter()
    stale, survivors = [], []
    with tempfile.TemporaryDirectory(prefix="gfmswing-mutants-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "src", tree / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", tree / "tests", ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
        killers = sorted({test for m in MUTANTS for test in m.killers})
        if _pytest(tree, killers) != "pass":
            print("the killers do not all pass on the unedited program; nothing was mutated")
            return 1
        for m in MUTANTS:
            target = tree / m.path
            source = (ROOT / m.path).read_text()
            if source.count(m.old) != 1:
                stale.append(m)
                print(f"STALE     {m.name}: the old text occurs {source.count(m.old)} times in {m.path}")
                continue
            target.write_text(source.replace(m.old, m.new))
            outcome = _pytest(tree, m.killers)
            target.write_text(source)
            if outcome == "pass":
                survivors.append(m)
            print(f"{'SURVIVED' if outcome == 'pass' else 'killed':<9} {m.name} ({outcome})")
    print(
        f"{len(MUTANTS)} mutants: {len(MUTANTS) - len(stale) - len(survivors)} killed, "
        f"{len(survivors)} survived, {len(stale)} stale, in {time.perf_counter() - started:.0f} s"
    )
    return 0 if not stale and not survivors else 1


if __name__ == "__main__":
    sys.exit(main())
