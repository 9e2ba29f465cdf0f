"""Scenario file handling and command-line front end."""

import ast
import csv
import dataclasses
import inspect
import io
import itertools
import json
import math
import random
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from gfmswing import (
    ApclParams,
    Blinder,
    Classification,
    Event,
    EventKind,
    LimiterConfig,
    ParseError,
    Phasor,
    RelaySettings,
    MhoZone,
    Segment,
    Strategy,
    SystemParams,
    ValidationError,
    full_cycle,
    run_scenario,
    p_delta_curve,
)
from gfmswing import dynamics, relay
from gfmswing.cases import CASE_IDS, build_case, case_d_system
from gfmswing.cli import CSV_CHUNK_ROWS, _first_swing_period, _load, _write_csv, main
from gfmswing.dynamics import SimulationRecord, event_step
from gfmswing.scenario import (
    MAX_STEPS,
    load_scenario,
    save_scenario,
    scenario_to_dict,
    scenario_from_dict,
)


def test_case_library_ids():
    assert set(CASE_IDS) == {
        "caseA1", "caseA2", "caseA3",
        "caseB1", "caseB2", "caseB3",
        "caseC1", "caseC2", "caseC3",
        "caseD", "caseE1", "caseE2",
    }


def test_case_a1_contents():
    scn = build_case("caseA1")
    assert scn.limiter.strategy is Strategy.NONE
    assert scn.apcl.h == 7.0
    assert scn.apcl.d_p == 0.05
    assert scn.apcl.p0 == 0.45
    (ev,) = scn.events
    assert ev.time == 8.0
    assert ev.value == -1.59


def test_case_d_contents():
    scn = build_case("caseD")
    assert scn.limiter.strategy is Strategy.ADAPTIVE_VI
    assert abs(scn.system.z_l) == pytest.approx(0.2)
    assert abs(scn.system.z_g) == pytest.approx(0.3)
    assert scn.apcl.p0 == 0.7
    apply_ev, clear_ev = scn.events
    assert apply_ev.time == 8.0
    assert clear_ev.time == 8.25
    # settings scale with the line-impedance change (0.3 -> 0.2)
    assert abs(scn.relay.zones[0].reach) == pytest.approx(0.48 * 2 / 3)
    assert scn.relay.outer.rgt == pytest.approx(0.84 * 2 / 3)


def test_case_strategy_override():
    # --strategy other than the case's own replaces it and renames the run; its own changes nothing
    scn = _load(SimpleNamespace(scenario=None, case="caseE1", strategy="variable"))
    assert scn.limiter.strategy is Strategy.VARIABLE_VI
    assert scn == replace(build_case("caseE1"), name="caseE1-variable", limiter=scn.limiter)
    for strategy in (None, "none"):
        assert _load(SimpleNamespace(scenario=None, case="caseE1", strategy=strategy)) == build_case("caseE1")
    with pytest.raises(KeyError):
        build_case("caseZZ")


def test_cli_scenario_file_strategy_names_the_run(tmp_path, monkeypatch):
    # a file run under another strategy writes out/<name>-<strategy> and leaves out/<name> alone;
    # a file's "outputs" key, no longer read, places nothing
    monkeypatch.chdir(tmp_path)  # "out/<name>" lands here
    path = _write_fast_scenario(tmp_path)
    raw = json.loads(path.read_text())
    path.write_text(json.dumps({**raw, "outputs": "elsewhere"}))
    argv = ["trajectory", "--scenario", str(path), "--samples", "99"]
    assert main(argv) == 0
    own = (tmp_path / "out" / "fast" / "trajectory.csv").read_bytes()
    assert main([*argv, "--strategy", "none"]) == main([*argv, "--strategy", "adaptive"]) == 0
    assert (tmp_path / "out" / "fast" / "trajectory.csv").read_bytes() == own
    summary = json.loads((tmp_path / "out" / "fast-adaptive" / "summary.json").read_text())
    assert summary["scenario"]["name"] == "fast-adaptive"
    assert summary["scenario"]["limiter"]["strategy"] == "adaptive"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fast.json", "out"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["fast", "fast-adaptive"]


def test_cli_scenario_and_case_together_exit_1(tmp_path, monkeypatch, capsys):
    # two sources name two runs: neither is dropped in silence, and nothing is written
    monkeypatch.chdir(tmp_path)
    path = _write_fast_scenario(tmp_path)
    assert main(["trajectory", "--scenario", str(path), "--case", "caseB2", "--samples", "5"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fast.json"]


def test_round_trip_identity(tmp_path):
    for case_id, strategy in itertools.product(CASE_IDS, Strategy):
        scn = replace(build_case(case_id), limiter=LimiterConfig(strategy=strategy))
        path = tmp_path / f"{case_id}-{strategy.value}.json"
        save_scenario(scn, path)
        again = load_scenario(path)
        assert again == scn
        # serialization is stable too
        assert scenario_to_dict(again) == scenario_to_dict(scn)


def test_schema_v1_keys_and_defaults():
    d = scenario_to_dict(build_case("caseD"))
    assert list(d) == ["schema_version", "name", "system", "apcl", "limiter", "events", "horizon", "dt", "relay"]
    assert list(d["system"]) == ["e_ref", "v_g_mag", "z_g", "z_l", "z_tr", "i_max", "i_th", "alpha_vi"]
    assert all(list(d["system"][k]) == ["re", "im"] for k in ("e_ref", "z_g", "z_l", "z_tr"))
    assert list(d["apcl"]) == ["h", "d_p", "p0", "omega_n", "freq_clamp"]
    assert list(d["limiter"]) == ["strategy", "k_vi", "kp", "ki", "delta_v_max"]
    assert d["limiter"]["strategy"] == "adaptive"
    assert [list(ev) for ev in d["events"]] == [["time", "kind", "value"]] * 2
    assert [ev["kind"] for ev in d["events"]] == ["fault_apply", "fault_clear"]
    relay = d["relay"]
    assert list(relay) == ["zones", "outer", "middle", "inner", "psb_cycles", "f_nominal"]
    assert [list(z) for z in relay["zones"]] == [["reach", "time_delay"]] * 3
    assert all(list(z["reach"]) == ["re", "im"] for z in relay["zones"])
    for blinder in ("outer", "middle", "inner"):
        assert list(relay[blinder]) == ["rgt", "lft", "fwd", "rev", "tilt_deg"]
        assert relay[blinder]["tilt_deg"] == 84.94
    # the relay defaults are the reference settings, section by section
    assert RelaySettings() == RelaySettings.table1()
    assert scenario_from_dict({"horizon": 1.0, "relay": "table1"}).relay == RelaySettings()
    partial = scenario_from_dict({"horizon": 1.0, "relay": {"psb_cycles": 3.0}}).relay
    assert partial == replace(RelaySettings(), psb_cycles=3.0)
    zones = scenario_from_dict({"horizon": 1.0, "relay": {"zones": [{"reach": [0.05, 0.48]}]}}).relay.zones
    assert zones == (MhoZone(Phasor(0.05, 0.48), 0.0),)


def test_empty_file_is_parse_error(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    with pytest.raises(ParseError):
        load_scenario(path)


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"horizon": 1.0,\n  "dt": }\n')
    with pytest.raises(ParseError, match="line 2"):
        load_scenario(path)


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_scenario(tmp_path / "nope.json")


def test_defaults_fill_reference_values(tmp_path):
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps({"horizon": 1.0}))
    scn = load_scenario(path)
    assert scn.system == SystemParams()
    assert scn.limiter.strategy is Strategy.NONE
    assert scn.dt == 5e-4
    assert scn.relay is None
    # schema-v1 files may still carry the keys of removed options
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps({
        "horizon": 1.0,
        "system": {"f_nominal": 50.0},
        "apcl": {"omega0": 1.0},
        "limiter": {"alpha_vi": None},
    }))
    old = load_scenario(legacy)
    assert old.system == SystemParams()
    assert old.apcl == scn.apcl
    assert old.limiter == scn.limiter


def test_validation_errors():
    with pytest.raises(ValidationError, match="horizon"):
        scenario_from_dict({"horizon": 1.0, "events": [
            {"time": 2.0, "kind": "phase_jump", "value": -1.0}]})
    with pytest.raises(ValidationError, match="strategy"):
        scenario_from_dict({"horizon": 1.0, "limiter": {"strategy": "bogus"}})
    with pytest.raises(ValidationError, match="p0"):
        scenario_from_dict({"horizon": 1.0, "apcl": {"p0": -0.1}})
    with pytest.raises(ValidationError, match="fault_clear"):
        scenario_from_dict({"horizon": 1.0, "events": [{"time": 0.5, "kind": "fault_clear"}]})
    # the virtual-impedance X/R ratio is set in one place only
    with pytest.raises(ValidationError, match="system.alpha_vi"):
        scenario_from_dict({"horizon": 1.0, "limiter": {"alpha_vi": 10.0}})


def test_phasor_polar_form_accepted():
    scn = scenario_from_dict(
        {"horizon": 1.0, "system": {"z_l": {"mag": 0.2, "angle_deg": 84.29}}}
    )
    assert abs(scn.system.z_l) == pytest.approx(0.2)
    assert scn.system.z_l == case_d_system().z_l


def _write_fast_scenario(tmp_path, **overrides):
    scn = build_case("caseA1")
    scn = replace(scn, **{"horizon": 0.3, "events": (), "relay": None, "name": "fast", **overrides})
    path = tmp_path / "fast.json"
    save_scenario(scn, path)
    return path


def test_cli_simulate_writes_outputs(tmp_path):
    path = _write_fast_scenario(tmp_path)
    out = tmp_path / "out"
    rc = main(["simulate", "--scenario", str(path), "--out", str(out)])
    assert rc == 0
    record = (out / "record.csv").read_text().splitlines()
    assert record[0] == "t,delta,omega_dev,i_mag,zapp_re,zapp_im,p_e,vi_r,vi_x,psb,ost"
    assert len(record) == int(round(0.3 / 5e-4)) + 2
    first = record[1].split(",")
    assert [float(x) for x in first[:9]]  # plain parseable numbers
    assert first[-2:] == ["0", "0"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] is None  # no events, nothing to classify
    assert summary["boundaries"]["delta_th"] == pytest.approx(1.1167, abs=2e-4)
    assert summary["boundaries"]["delta_lim"] == pytest.approx(1.3780, abs=2e-4)
    assert (out / "relay_events.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_cli_simulate_short_post_event_horizon(tmp_path, command):
    # too little record after the event to classify: outputs written, no verdict
    path = _write_fast_scenario(tmp_path, events=(Event(0.1, EventKind.PHASE_JUMP, -0.5),))
    out = tmp_path / "out"
    assert main([command, "--scenario", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    if command == "sweep":
        (summary,) = summary["sweep"]
        assert len((out / "sweep.csv").read_text().splitlines()) == 2
    else:
        assert len((out / "record.csv").read_text().splitlines()) == int(round(0.3 / 5e-4)) + 2
    assert summary["verdict"] is None
    assert summary["max_delta_excursion"] is None
    assert summary["pole_slips"] is None


def test_cli_sweep_without_events_has_no_verdict(tmp_path):
    # as in simulate: a record without events gets the null verdict fields
    path = _write_fast_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", str(path), "--out", str(out)]) == 0
    (row,) = json.loads((out / "summary.json").read_text())["sweep"]
    assert [row[key] for key in ("verdict", "max_delta_excursion", "pole_slips")] == [None, None, None]
    assert (out / "sweep.csv").read_text().splitlines()[1].endswith(",,,,")


def test_cli_sweep_does_not_walk_the_relay(tmp_path, monkeypatch):
    # nothing in sweep.csv or summary.json reads the relay
    calls = 0
    walk = dynamics.relay_step

    def counted(*args):
        nonlocal calls
        calls += 1
        return walk(*args)

    monkeypatch.setattr(dynamics, "relay_step", counted)
    path = tmp_path / "b2.json"
    save_scenario(replace(build_case("caseB2"), dt=2e-3), path)
    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    assert calls == 0
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["scenario"]["relay"] is not None


def test_cli_rejects_a_non_passive_system(tmp_path, capsys):
    # a negative grid resistance lets the variable VI cancel the loop: without
    # the rule, caseB2's fault drives |I| to 1 595 pu against i_max = 1.2
    raw = scenario_to_dict(build_case("caseB2"))
    raw["system"]["z_g"] = [-0.3, 0.6]
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(raw))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: system: z_g = ")
    # the reference and Case-D systems are passive
    for scn in (build_case("caseB2"), build_case("caseD")):
        save_scenario(scn, path)
        assert load_scenario(path).system == scn.system


def test_cli_simulate_byte_identical_reruns(tmp_path):
    path = _write_fast_scenario(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--scenario", str(path), "--out", str(out_a)]) == 0
    assert main(["simulate", "--scenario", str(path), "--out", str(out_b)]) == 0
    assert (out_a / "record.csv").read_bytes() == (out_b / "record.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


def test_cli_trajectory_adaptive_circle(tmp_path):
    out = tmp_path / "traj"
    rc = main(
        ["trajectory", "--case", "caseA3", "--strategy", "adaptive", "--out", str(out), "--samples", "499"]
    )
    assert rc == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert rows[0] == "delta,re,im,segment"
    params = SystemParams()
    center = complex(params.z_relay_to_grid)
    radius = params.v_g_mag / params.i_max
    active_rows = 0
    for line in rows[1:]:
        delta, re, im, segment = line.split(",")
        if segment == "active_adaptive":
            active_rows += 1
            assert abs(abs(complex(float(re), float(im)) - center) - radius) < 1e-12
    assert active_rows > 100


@pytest.mark.parametrize("strategy", list(Strategy))
def test_cli_trajectory_writes_the_rows_of_full_cycle(tmp_path, strategy):
    n = 301
    argv = ["trajectory", "--case", "caseA2", "--strategy", strategy.value, "--samples", str(n)]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    samples = full_cycle(strategy, build_case("caseA2").system, n_samples=n)
    rows = [f"{s.delta!r},{s.z_app.real!r},{s.z_app.imag!r},{s.segment.value}" for s in samples]
    assert (tmp_path / "trajectory.csv").read_text().splitlines() == ["delta,re,im,segment", *rows]


def test_cli_pdelta_outputs(tmp_path):
    out = tmp_path / "pd"
    rc = main(["pdelta", "--case", "caseA1", "--out", str(out), "--samples", "512"])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    peaks = summary["peaks"]
    assert peaks["none"] >= peaks["variable"]
    assert peaks["none"] >= peaks["adaptive"]


def test_cli_sweep_inertia_slows_first_swing(tmp_path):
    # larger inertia gives a longer first-swing period
    scn = replace(build_case("caseC1"), dt=2e-3, name="sweepC")
    path = tmp_path / "sweep.json"
    save_scenario(scn, path)
    out = tmp_path / "sw"
    rc = main(["sweep", "--scenario", str(path), "--out", str(out), "--h", "3,9"])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    by_h = {row["h"]: row for row in summary["sweep"]}
    assert by_h[9.0]["first_swing_period"] > by_h[3.0]["first_swing_period"]


def _first_swing_period_walk(record):
    """Oracle: the per-sample walk over the post-event angle for its first three crossings."""
    if not record.events:
        return None
    start = event_step(record.events[0].time, record.dt)
    delta, t = record.delta[start:] - record.delta[0], record.t[start:]
    crossings = [
        t[k] for k in range(1, len(delta)) if delta[k - 1] * delta[k] <= 0.0 and delta[k - 1] != delta[k]
    ]
    return float(crossings[2] - crossings[0]) if len(crossings) >= 3 else None


def _swing(delta, events=(Event(0.1, EventKind.PHASE_JUMP, 0.1),)):
    """A hand-built record sampled every 0.1 s; the default event acts in the step ending at sample 2."""
    return SimpleNamespace(t=np.arange(len(delta)) * 0.1, delta=np.array(delta, float), events=events, dt=0.1)


FIRST_SWINGS = {
    # base angle 0.5: each exact return to it ends one crossing and starts the next
    "exact-zero": (_swing([0.5, 0.5, 1.0, 0.5, 0.0, 0.5, 1.0]), 0.2),
    "flat-run": (_swing([0.5, 0.5, 1.0, 0.5, 0.5, 0.5, 0.0, 0.0, 1.0]), 0.5),
    "sign-changes": (_swing([0.5, 0.5, 1.0, 0.0, 1.0, 0.0]), 0.2),
    "two-crossings": (_swing([0.5, 0.5, 1.0, 0.0, 0.0, 1.0]), None),
    "never-crosses": (_swing([0.5, 0.5, 1.0, 1.0, 0.7]), None),
    "no-events": (_swing([0.5, 1.0, 0.0, 1.0, 0.0], events=()), None),
    "events-after-record": (_swing([0.5, 1.0, 0.0, 1.0], events=(Event(9.0, EventKind.POWER_STEP, 0.1),)), None),
}


@pytest.mark.parametrize(("record", "expected"), FIRST_SWINGS.values(), ids=FIRST_SWINGS.keys())
def test_first_swing_period_hand_built(record, expected):
    assert _first_swing_period(record) == _first_swing_period_walk(record)
    assert _first_swing_period(record) == pytest.approx(expected)


@pytest.mark.parametrize(("case_id", "swings"), [("caseA1", True), ("caseC1", True), ("caseC2", False)])
def test_first_swing_period_matches_walk(case_id, swings):
    # caseC2 never returns to its pre-event angle three times: no period either way
    record = run_scenario(replace(build_case(case_id), dt=2e-3))
    period = _first_swing_period(record)
    assert (period is not None) == swings
    assert period == _first_swing_period_walk(record)


def test_first_swing_period_starts_after_the_event_step():
    # caseB1's fault at 4 s acts after the sample at 4 s, which must not count as a crossing
    record = run_scenario(replace(build_case("caseB1"), horizon=8.0))
    assert _first_swing_period(record) == pytest.approx(1.450, abs=1e-3)


BAD_SCENARIOS = {
    "malformed-json": "{",
    "nan-dt": '{"horizon": 1.0, "dt": NaN}',
    "infinite-horizon": '{"horizon": Infinity}',
    "text-v_g_mag": '{"horizon": 1.0, "system": {"v_g_mag": "abc"}}',
    "text-event-time": '{"horizon": 1.0, "events": [{"time": "x", "kind": "phase_jump"}]}',
    "text-z_g": '{"horizon": 1.0, "system": {"z_g": {"re": "a", "im": 0.6}}}',
    "numeric-text-h": '{"horizon": 1.0, "apcl": {"h": "7"}}',
    "numeric-text-z_l": '{"horizon": 1.0, "system": {"z_l": ["0.02", 0.3]}}',
    "boolean-d_p": '{"horizon": 1.0, "apcl": {"d_p": true}}',
    "boolean-jump-value": '{"horizon": 1.0, "events": [{"time": 0.5, "kind": "phase_jump", "value": false}]}',
    "text-time_delay": '{"horizon": 1.0, "relay": {"zones": [{"reach": [0.05, 0.48], "time_delay": "q"}]}}',
    "event-not-object": '{"horizon": 1.0, "events": [5]}',
    "nan-apcl-h": '{"horizon": 1.0, "apcl": {"h": NaN}}',
    "numeric-limiter-alpha_vi": '{"horizon": 1.0, "limiter": {"alpha_vi": 10.0}}',
    "boolean-schema_version": '{"schema_version": true, "horizon": 1.0}',
    "float-schema_version": '{"schema_version": 1.0, "horizon": 1.0}',
    "numeric-name": '{"horizon": 1.0, "name": 5}',
    "huge-horizon": '{"horizon": 1e15}',
    "fault-beyond-line": '{"horizon": 1.0, "events": [{"time": 0.5, "kind": "fault_apply", "value": 1.5}]}',
    "zero-f_nominal": '{"horizon": 1.0, "relay": {"f_nominal": 0}}',
    "blinders-not-nested": '{"horizon": 1.0, "relay": {"inner": '
    '{"rgt": 0.7, "lft": -0.25, "fwd": 1.31, "rev": -0.39, "tilt_deg": 84.94}}}',
    "huge-event-time": '{"horizon": 1.0, "events": [{"time": 1e308, "kind": "phase_jump", "value": 0.1}]}',
    "negative-event-time": '{"horizon": 1.0, "events": [{"time": -3.0, "kind": "phase_jump", "value": 0.1}]}',
    "negative-psb_cycles": '{"horizon": 1.0, "relay": {"psb_cycles": -1}}',
    "off-axis-e_ref": '{"horizon": 1.0, "system": {"e_ref": {"mag": 1.0, "angle_deg": 10}}}',
    "non-utf8-byte": b'{"horizon": 1.0, "name": "\xff"}',
    "deep-nesting": "[" * 100_000 + "]" * 100_000,
    "400-digit-h": '{"horizon": 1.0, "apcl": {"h": 1' + "0" * 400 + "}}",
    "5000-digit-horizon": '{"horizon": 1' + "0" * 5000 + "}",
    "huge-i_max": '{"horizon": 1.0, "system": {"i_max": 1e308}}',
    "huge-z_g": '{"horizon": 1.0, "system": {"z_g": [1e308, 0.6]}}',
    "huge-currents": '{"horizon": 1.0, "system": {"i_th": 1e300, "i_max": 1e301}}',
    "huge-sources": '{"horizon": 1.0, "system": {"e_ref": [1e200, 0], "v_g_mag": 1e200}}',
    "tiny-sources": '{"horizon": 1.0, "system": {"e_ref": [1e-200, 0], "v_g_mag": 1e-200}}',
    "tiny-currents": '{"horizon": 1.0, "system": {"i_th": 1e-200, "i_max": 2e-200}}',
    "second-fault-apply": '{"horizon": 1.0, "events": [{"time": 0.2, "kind": "fault_apply"}, '
    '{"time": 0.4, "kind": "fault_apply"}]}',
    "valueless-power_step": '{"horizon": 1.0, "events": [{"time": 0.5, "kind": "power_step"}]}',
    "zones-object": '{"horizon": 1.0, "relay": {"zones": {"reach": [0.05, 0.48]}}}',
    "list-root": '[{"horizon": 1.0}]',
    "zero-delta_v_max": '{"horizon": 1.0, "limiter": {"delta_v_max": 0}}',
}


@pytest.mark.parametrize("text", BAD_SCENARIOS.values(), ids=BAD_SCENARIOS.keys())
def test_cli_error_exit_code(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    for command in ("simulate", "trajectory", "pdelta"):
        assert main([command, "--scenario", str(bad), "--out", str(tmp_path / command)]) == 1, command
        assert capsys.readouterr().err.startswith("error: "), command


FUZZ_SECTIONS = ("system", "apcl", "limiter", "relay", "events")
FUZZ_SCALES = (-300, -6, -3, -1, 1, 3, 6, 300)  # decades


def _spots(node, path):
    """(container, key, path) of every key and list entry below ``node``, subtrees included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield node, key, (*path, key)
        yield from _spots(child, (*path, key))


def _mutate(rng, raw) -> str:
    """Apply one random mutation to a scenario dict; returns its description."""
    op = rng.choice(("scale", "sign", "nan", "string", "drop", "reorder"))
    if op == "reorder":
        rng.shuffle(raw["events"])
        return op
    spots = [spot for s in FUZZ_SECTIONS if s in raw for spot in _spots(raw[s], (s,))]
    if op in ("scale", "sign"):
        spots = [(node, key, path) for node, key, path in spots if isinstance(node[key], (int, float))]
    node, key, path = rng.choice(spots)
    if op == "drop":
        del node[key]
    elif op == "nan":
        node[key] = math.nan
    elif op == "string":
        node[key] = "x"
    elif op == "sign":
        node[key] = -node[key]
    else:
        node[key] *= 10.0 ** rng.choice(FUZZ_SCALES)
    return f"{op} {'.'.join(map(str, path))}"


def test_cli_fuzzed_scenarios_exit_cleanly(tmp_path, capsys):
    # seeded mutations of every built-in case: each command exits 0, or 1 with an
    # error line, never with a traceback, and a simulated record stays finite
    rng = random.Random(7)
    out = tmp_path / "out"
    for i in range(120):  # ten mutants per case
        scn = build_case(CASE_IDS[i % len(CASE_IDS)])
        raw = scenario_to_dict(scn)
        raw.update(horizon=max(ev.time for ev in scn.events) + 0.2, dt=1e-2)
        mutations = [_mutate(rng, raw) for _ in range(rng.randint(1, 3))]
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(raw))
        for command in (["simulate"], ["trajectory", "--samples", "101"], ["pdelta", "--samples", "101"]):
            rc = main([*command, "--scenario", str(path), "--out", str(out)])
            err = capsys.readouterr().err
            assert rc == 0 or (rc == 1 and err.startswith("error: ")), (scn.name, mutations, command, err)
            if rc == 0 and command == ["simulate"]:
                rows = csv.DictReader((out / "record.csv").read_text().splitlines())
                finite = all(math.isfinite(float(r["delta"]) + float(r["omega_dev"])) for r in rows)
                assert finite, (scn.name, mutations)


BAD_FLAGS = {
    "nan-dt": ["simulate", "--case", "caseA1", "--dt", "nan"],
    "inf-dt": ["simulate", "--case", "caseA1", "--dt", "inf"],
    "text-h": ["sweep", "--case", "caseC1", "--h", "abc"],
    "nan-h": ["sweep", "--case", "caseC1", "--h", "nan"],
    "two-samples": ["trajectory", "--case", "caseA1", "--samples", "2"],
    "huge-samples-trajectory": ["trajectory", "--case", "caseA1", "--samples", "1000000000000"],
    "huge-samples-pdelta": ["pdelta", "--case", "caseA1", "--samples", "1000000000000"],
    "stiff-dp-sweep": ["sweep", "--case", "caseC1", "--dp", "0.05,1e-5"],
    "no-scenario-or-case": ["simulate"],
    "zero-h-sweep": ["sweep", "--case", "caseC1", "--h", "0"],
    "separators-only-h-sweep": ["sweep", "--case", "caseC1", "--h", ",", "--dp", " , "],
    "empty-dp-sweep": ["sweep", "--case", "caseC1", "--dp", ""],
}


@pytest.mark.parametrize("argv", BAD_FLAGS.values(), ids=BAD_FLAGS.keys())
def test_cli_bad_flag_values(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()  # rejected before any output is created


def test_cli_unusable_output_directory(tmp_path, capsys):
    # a file where the output directory should be, and a name no file system takes
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["simulate", "--case", "caseA1", "--out", str(blocker)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    path = _write_fast_scenario(tmp_path)
    for command in ("simulate", "trajectory", "pdelta", "sweep"):
        assert main([command, "--scenario", str(path), "--out", "a\0b"]) == 1, command
        assert capsys.readouterr().err.startswith("error: "), command


LONG = "x" * 300_000
ECHOED_INPUTS = {
    "200k-entry-system": {"horizon": 1.0, "system": [0] * 200_000},
    "300k-char-name": {"horizon": 1.0, "name": LONG},
    "300k-char-outputs": ["simulate", "--case", "caseA1", "--out", LONG],
    "300k-char-schema_version": {"schema_version": LONG, "horizon": 1.0},
    "300k-char-event-kind": {"horizon": 1.0, "events": [{"time": 0.5, "kind": LONG}]},
    "300k-char-h": {"horizon": 1.0, "apcl": {"h": LONG}},
    "300k-char-h-flag": ["sweep", "--case", "caseC1", "--h", LONG],
}


@pytest.mark.parametrize("given", ECHOED_INPUTS.values(), ids=ECHOED_INPUTS.keys())
def test_cli_error_echo_is_bounded(tmp_path, monkeypatch, capsys, given):
    # an error quotes a short prefix of the offending input, never all of it
    monkeypatch.chdir(tmp_path)  # "out/<name>" lands here
    argv = given
    if isinstance(given, dict):
        (tmp_path / "long.json").write_text(json.dumps(given))
        argv = ["simulate", "--scenario", "long.json"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err) < 1024, err[:200]


NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda: ApclParams(h=NAN),
        lambda: ApclParams(d_p=float("inf")),
        lambda: SystemParams(v_g_mag=NAN),
        lambda: SystemParams(i_max=float("inf")),
        lambda: SystemParams(i_max=1e308),
        lambda: SystemParams(z_g=Phasor(1e308, 0.6)),
        lambda: SystemParams(i_th=1e300, i_max=1e301),
        lambda: SystemParams(e_ref=Phasor(1e200, 0.0), v_g_mag=1e200),
        lambda: SystemParams(e_ref=Phasor(1e-200, 0.0), v_g_mag=1e-200),
        lambda: SystemParams(i_th=1e-200, i_max=2e-200),
        lambda: SystemParams(e_ref=Phasor.from_polar_deg(1.0, 10.0)),
        lambda: SystemParams(e_ref=Phasor(0.0, 0.0)),
        lambda: LimiterConfig(kp=NAN),
        lambda: LimiterConfig(k_vi=NAN),
        lambda: replace(build_case("caseA1"), dt=NAN),
        lambda: replace(build_case("caseA1"), horizon=float("inf")),
        lambda: replace(build_case("caseA1"), events=(Event(NAN, EventKind.PHASE_JUMP, -1.0),)),
        lambda: MhoZone(Phasor(NAN, 0.5)),
        lambda: MhoZone(Phasor(float("inf"), 0.5)),
        lambda: MhoZone(Phasor(0.05, 0.48), time_delay=NAN),
        lambda: MhoZone(Phasor(0.05, 0.48), time_delay=float("inf")),
        lambda: Blinder(rgt=float("inf"), lft=-0.84, fwd=1.88, rev=-0.56, tilt_deg=84.94),
        lambda: Blinder(rgt=0.84, lft=-float("inf"), fwd=1.88, rev=-0.56, tilt_deg=84.94),
        lambda: Blinder(rgt=0.84, lft=-0.84, fwd=NAN, rev=-0.56, tilt_deg=84.94),
        lambda: Blinder(rgt=0.84, lft=-0.84, fwd=1.88, rev=-float("inf"), tilt_deg=84.94),
        lambda: Blinder(rgt=0.84, lft=-0.84, fwd=1.88, rev=-0.56, tilt_deg=NAN),
    ],
    ids=[
        "apcl-h", "apcl-d_p", "v_g_mag", "i_max",
        "i_max-huge", "z_g-huge", "currents-huge", "sources-huge", "sources-tiny", "currents-tiny",
        "e_ref-off-axis", "e_ref-zero",
        "kp", "k_vi", "dt", "horizon", "event-time",
        "zone-reach-nan", "zone-reach-inf", "zone-delay-nan", "zone-delay-inf",
        "blinder-rgt-inf", "blinder-lft-inf", "blinder-fwd-nan", "blinder-rev-inf", "blinder-tilt-nan",
    ],
)
def test_constructors_reject_non_finite(build):
    with pytest.raises((ValueError, ValidationError)):
        build()


def test_scenario_step_cap():
    scn = build_case("caseA1")
    replace(scn, horizon=MAX_STEPS * scn.dt)
    with pytest.raises(ValidationError, match="steps exceeds"):
        replace(scn, horizon=2 * MAX_STEPS * scn.dt)


def test_cli_trajectory_and_pdelta_honour_k_vi(tmp_path):
    limiter = LimiterConfig(strategy=Strategy.VARIABLE_VI, k_vi=5.0)
    scn = replace(build_case("caseA2"), limiter=limiter)
    path = tmp_path / "k5.json"
    save_scenario(scn, path)
    n = 199
    for command in ("trajectory", "pdelta"):
        argv = [command, "--scenario", str(path), "--samples", str(n), "--out", str(tmp_path / command)]
        assert main(argv) == 0
    rows = list(csv.DictReader((tmp_path / "trajectory" / "trajectory.csv").read_text().splitlines()))
    tuned = full_cycle(Strategy.VARIABLE_VI, scn.system, n_samples=n, gain=5.0)
    designed = full_cycle(Strategy.VARIABLE_VI, scn.system, n_samples=n)
    active = [k for k, s in enumerate(tuned) if s.segment is Segment.ACTIVE_VARIABLE]
    assert active
    for k in active:
        z = complex(float(rows[k]["re"]), float(rows[k]["im"]))
        assert rows[k]["segment"] == Segment.ACTIVE_VARIABLE.value
        assert z == complex(tuned[k].z_app)
        assert abs(z - complex(designed[k].z_app)) > 1e-6
    pdelta = csv.DictReader((tmp_path / "pdelta" / "pdelta.csv").read_text().splitlines())
    p_variable = [float(r["p_variable"]) for r in pdelta]
    assert p_variable == list(p_delta_curve(Strategy.VARIABLE_VI, scn.system, n=n, gain=5.0).p)
    assert p_variable != list(p_delta_curve(Strategy.VARIABLE_VI, scn.system, n=n).p)


def test_cli_trajectory_and_pdelta_without_limiter_engagement(tmp_path):
    # the unlimited current peaks at 1.89 pu, below both levels
    path = tmp_path / "idle.json"
    path.write_text(json.dumps({"horizon": 1.0, "system": {"i_th": 2.0, "i_max": 2.2}}))
    # with v_g at 0.5 pu the current never drops below 0.5/|z_sigma| (0.47 pu), above both levels
    always = tmp_path / "always.json"
    always.write_text(json.dumps({"horizon": 1.0, "system": {"v_g_mag": 0.5, "i_th": 0.3, "i_max": 0.4}}))
    for command, scenario in itertools.product(("trajectory", "pdelta"), (path, always)):
        out = tmp_path / f"{command}-{scenario.stem}"
        argv = [command, "--scenario", str(scenario), "--samples", "199", "--out", str(out)]
        assert main(argv) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["boundaries"] == {"delta_th": None, "delta_lim": None}
    for strategy in ("variable", "adaptive"):
        argv = ["trajectory", "--scenario", str(path), "--strategy", strategy, "--out", str(tmp_path / strategy)]
        assert main(argv) == 0
        rows = csv.DictReader((tmp_path / strategy / "trajectory.csv").read_text().splitlines())
        assert {row["segment"] for row in rows} == {Segment.INACTIVE.value}
    rows = list(csv.DictReader((tmp_path / "pdelta-idle" / "pdelta.csv").read_text().splitlines()))
    assert len(rows) == 199
    assert all(row["variable_active"] == row["adaptive_active"] == "0" for row in rows)
    assert all(row["p_variable"] == row["p_adaptive"] == row["p_none"] for row in rows)


def test_cli_simulate_four_zone_relay(tmp_path):
    table1 = RelaySettings.table1()
    zone4 = MhoZone(Phasor.from_polar_deg(1.5, 84.29), 0.05)
    path = _write_fast_scenario(
        tmp_path,
        events=(Event(0.1, EventKind.FAULT_APPLY, 0.5), Event(0.2, EventKind.FAULT_CLEAR)),
        relay=replace(table1, zones=(*table1.zones, zone4)),
    )
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    events = list(csv.reader((out / "relay_events.csv").read_text().splitlines()))[1:]
    assert [event for _, event, element in events if element == "zone4"] == ["enter", "trip", "exit"]


def test_cli_case_and_strategy_flags(tmp_path):
    scn_path = tmp_path / "e1.json"
    scn = replace(build_case("caseE1"), limiter=LimiterConfig(strategy=Strategy.VARIABLE_VI), horizon=28.5)
    save_scenario(scn, scn_path)
    assert load_scenario(scn_path).limiter.strategy is Strategy.VARIABLE_VI


def test_cli_simulate_case_e1_variable_verdict(tmp_path):
    # coarse step is enough: the verdict is invariant to halving the rate
    out = tmp_path / "e1var"
    rc = main(
        ["simulate", "--case", "caseE1", "--strategy", "variable", "--dt", "0.002", "--out", str(out)]
    )
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] == "unstable"
    assert summary["pole_slips"] >= 1
    assert summary["scenario"]["limiter"]["strategy"] == "variable"


def csv_writer_bytes(columns: dict) -> bytes:
    """The file ``csv.writer`` writes for a header -> column mapping, bools as 0/1."""
    cols = [c.astype(np.uint8) if isinstance(c, np.ndarray) and c.dtype == bool else c for c in columns.values()]
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in cols)))
    return buf.getvalue().encode()


def test_write_csv_matches_csv_writer(tmp_path):
    floats = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, -1.5, 2.0**53 + 2]
    objects = [None, "stable", 3, -0.0, 1e16, np.float64(0.1 + 0.2), math.nan, True, "", 1e-05, 7]
    rows = CSV_CHUNK_ROWS + 3  # past one chunk
    columns = {
        "f": np.resize(np.array(floats), rows),
        "flag": np.resize(np.array([True, False, False]), rows),
        "i": np.arange(rows) - 5,
        "obj": (objects * rows)[:rows],
    }
    _write_csv(tmp_path / "x.csv", columns)
    assert (tmp_path / "x.csv").read_bytes() == csv_writer_bytes(columns)
    _write_csv(tmp_path / "empty.csv", {"t": [], "event": [], "element": []})
    assert (tmp_path / "empty.csv").read_bytes() == b"t,event,element\r\n"


def relay_step_strings() -> list[str]:
    """Every string literal in ``relay_step`` but its docstring: the event and
    element names it logs, and the fixed parts of the formatted ones."""
    (func,) = ast.parse(inspect.getsource(relay.relay_step)).body
    body = func.body[1:]  # the docstring goes
    return [n.value for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def test_no_written_name_needs_quoting():
    # _write_csv joins cells as they are; a name that csv.writer would quote breaks the file
    names = [
        *relay_step_strings(),
        *(s.value for s in Segment),
        *(c.value for c in Classification),
        *(s.value for s in Strategy),
        *(f.name for f in dataclasses.fields(SimulationRecord)),
    ]
    assert {"enter", "exit", "psb_assert", "psb_deassert", "fault_classified", "ost_trip", "trip"} <= set(names)
    assert {"outer", "middle", "inner", "zone"} <= set(names)
    for name in names:
        buf = io.StringIO(newline="")
        csv.writer(buf).writerow([name, name])
        assert buf.getvalue() == f"{name},{name}\r\n", name
