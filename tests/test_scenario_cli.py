"""Scenario file handling and command-line front end."""

import json
from dataclasses import replace

import pytest

from gfmswing import Event, EventKind, ParseError, Strategy, SystemParams, ValidationError
from gfmswing.cases import CASE_IDS, build_case, case_d_system
from gfmswing.cli import main
from gfmswing.scenario import load_scenario, save_scenario, scenario_to_dict, scenario_from_dict


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
    scn = build_case("caseE1", strategy=Strategy.VARIABLE_VI)
    assert scn.limiter.strategy is Strategy.VARIABLE_VI
    with pytest.raises(KeyError):
        build_case("caseZZ")


def test_round_trip_identity(tmp_path):
    for case_id in ("caseA1", "caseD"):
        scn = build_case(case_id)
        path = tmp_path / f"{case_id}.json"
        save_scenario(scn, path)
        again = load_scenario(path)
        assert again == scn
        # serialization is stable too
        assert scenario_to_dict(again) == scenario_to_dict(scn)


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


def test_cli_simulate_short_post_event_horizon(tmp_path):
    # too little record after the event to classify: outputs written, no verdict
    path = _write_fast_scenario(tmp_path, events=(Event(0.1, EventKind.PHASE_JUMP, -0.5),))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] is None
    assert summary["max_delta_excursion"] is None
    assert summary["pole_slips"] is None
    assert len((out / "record.csv").read_text().splitlines()) == int(round(0.3 / 5e-4)) + 2


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


BAD_SCENARIOS = {
    "malformed-json": "{",
    "nan-dt": '{"horizon": 1.0, "dt": NaN}',
    "infinite-horizon": '{"horizon": Infinity}',
    "text-v_g_mag": '{"horizon": 1.0, "system": {"v_g_mag": "abc"}}',
    "text-event-time": '{"horizon": 1.0, "events": [{"time": "x", "kind": "phase_jump"}]}',
    "text-z_g": '{"horizon": 1.0, "system": {"z_g": {"re": "a", "im": 0.6}}}',
    "text-time_delay": '{"horizon": 1.0, "relay": {"zones": [{"reach": [0.05, 0.48], "time_delay": "q"}]}}',
    "event-not-object": '{"horizon": 1.0, "events": [5]}',
    "nan-apcl-h": '{"horizon": 1.0, "apcl": {"h": NaN}}',
    "numeric-limiter-alpha_vi": '{"horizon": 1.0, "limiter": {"alpha_vi": 10.0}}',
    "numeric-outputs": '{"horizon": 1.0, "outputs": 5}',
}


@pytest.mark.parametrize("text", BAD_SCENARIOS.values(), ids=BAD_SCENARIOS.keys())
def test_cli_error_exit_code(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_case_and_strategy_flags(tmp_path):
    scn_path = tmp_path / "e1.json"
    scn = replace(build_case("caseE1", strategy=Strategy.VARIABLE_VI), horizon=28.5)
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
