import errno
import io
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import escontrol
from helpers import reference_iterations_csv, run_scenario_es, zero_coefficients
from escontrol.cli import main as cli_main
from escontrol.errors import (ArtifactWriteError, ContractViolationError,
                              IntegrationDivergedError, ScenarioParseError,
                              ScenarioValidationError)
from escontrol.es import EsConfig, EsRunRecord, es_step
from escontrol.feedback import synthesize_gain
from escontrol.harness import (OUTPUT_DIR_ENV, SCHEMA, ExperimentSpec, apply_overrides,
                               build_scenario, es_config_for, load_scenario,
                               read_scenario_config, run_experiment, shipped_scenarios,
                               write_csv, write_iterations_csv)
from escontrol.scenario import episode_measurement, run_episode

SHIPPED = {p.stem: p for p in shipped_scenarios()}


def test_all_expected_scenarios_ship():
    assert set(SHIPPED) == {
        "example1_integrator", "example2_scalar", "example2_scalar_periodic",
        "example3_tracking", "timevarying_noisy", "feedback_2d",
        "feedback_tracking_demo",
    }


def test_load_example2_scalar():
    scenario = load_scenario(SHIPPED["example2_scalar"])
    assert scenario.name == "example2_scalar"
    assert scenario.dynamics.a_fn(0.0)[0, 0] == 1.0
    assert scenario.dynamics.b_fn(0.0)[0, 0] == 1.0
    assert scenario.initial_conditions[0][0] == 2.0
    assert scenario.basis.m == 5
    assert scenario.basis.extension == pytest.approx(0.1)
    assert scenario.cost.p_matrix[0, 0] == 2.0


def test_load_timevarying_noisy():
    scenario = load_scenario(SHIPPED["timevarying_noisy"])
    assert scenario.noise.std_dev == 0.5
    assert scenario.batch_period == 1.0
    assert scenario.dynamics.a_fn(1200.0)[0, 0] == pytest.approx(1.1)
    assert scenario.dynamics.b_fn(750.0)[0, 0] == pytest.approx(
        1.0 + 0.25 * math.sin(2 * math.pi * 750.0 / 3000.0)
    )


def test_validation_error_names_the_invariant(tmp_path):
    config = yaml.safe_load(SHIPPED["example2_scalar"].read_text())
    config["cost"]["r"] = 0.0
    bad = tmp_path / "bad.scn"
    bad.write_text(yaml.safe_dump(config))
    with pytest.raises(ScenarioValidationError, match="R not positive definite"):
        load_scenario(bad)


def test_parse_error_reports_line(tmp_path):
    bad = tmp_path / "broken.scn"
    bad.write_text("name: x\ndynamics: [unclosed\n")
    with pytest.raises(ScenarioParseError, match="broken.scn"):
        load_scenario(bad)


def test_unknown_expression_symbol_rejected(tmp_path):
    config = yaml.safe_load(SHIPPED["timevarying_noisy"].read_text())
    config["dynamics"]["a"] = "1 + __import__('os').system('true')"
    bad = tmp_path / "evil.scn"
    bad.write_text(yaml.safe_dump(config))
    with pytest.raises(ScenarioParseError, match="unknown names"):
        load_scenario(bad)


def test_round_trip_every_shipped_scenario(tmp_path):
    # the resolved mapping, dumped as YAML, loads back to itself
    for name, path in SHIPPED.items():
        scenario = load_scenario(path)
        out = tmp_path / f"{name}.scn"
        out.write_text(yaml.safe_dump(scenario.raw_config, sort_keys=True))
        again = load_scenario(out)
        assert again.raw_config == scenario.raw_config
        coeffs = zero_coefficients(scenario.control_dim, scenario.basis)
        if not scenario.feedback:
            assert run_episode(scenario, coeffs).cost == \
                run_episode(again, coeffs).cost


def test_overrides_reach_nested_keys():
    config = yaml.safe_load(SHIPPED["example2_scalar"].read_text())
    apply_overrides(config, {"es.omega0": "900", "basis.extension": "0.0",
                             "noise.std_dev": "0.25"})
    scenario = build_scenario(config)
    assert scenario.es_defaults["omega0"] == 900
    assert scenario.basis.extension == 0.0
    assert scenario.noise.std_dev == 0.25


def test_oracle_mode_matches_closed_form(tmp_path):
    spec = ExperimentSpec(scenario_path=str(SHIPPED["example2_scalar"]),
                          mode="oracle-only", out_dir=str(tmp_path / "oracle"))
    summary = run_experiment(spec)
    # closed-form scalar Riccati value, 0.5 * s(0) * x0^2
    s_plus, s_minus = 2 + 2 * math.sqrt(2), 2 - 2 * math.sqrt(2)
    z = -math.exp(-2 * math.sqrt(2))
    s0 = (s_plus - s_minus * z) / (1 - z)
    assert summary.oracle_cost == pytest.approx(0.5 * s0 * 4.0, abs=1e-5)
    assert summary.final_period_averaged_cost is None
    payload = json.loads((tmp_path / "oracle" / "summary.json").read_text())
    assert payload["oracle_cost"] == summary.oracle_cost
    header = (tmp_path / "oracle" / "oracle.csv").read_text().splitlines()[0]
    assert header == "tau,k_1_1,v_1"


def test_compare_mode_populates_gap(tmp_path):
    spec = ExperimentSpec(scenario_path=str(SHIPPED["example2_scalar"]),
                          mode="compare", n_iterations=300,
                          out_dir=str(tmp_path / "cmp"),
                          overrides={"grid.n_steps": "200"})
    summary = run_experiment(spec)
    assert summary.relative_gap is not None
    assert summary.relative_gap == pytest.approx(
        (summary.final_period_averaged_cost - summary.oracle_cost) / summary.oracle_cost
    )
    for name in ("iterations.csv", "trajectory.csv", "oracle.csv", "summary.json"):
        assert (tmp_path / "cmp" / name).exists()


def test_iterations_csv_layout(tmp_path):
    out = tmp_path / "run"
    spec = ExperimentSpec(scenario_path=str(SHIPPED["example2_scalar"]),
                          mode="open-loop-es", n_iterations=5,
                          out_dir=str(out), overrides={"grid.n_steps": "100"})
    run_experiment(spec)
    lines = (out / "iterations.csv").read_text().splitlines()
    assert lines[0] == "s,t,J,J_hat," + ",".join(f"c_{i:03d}" for i in range(10))
    assert len(lines) == 1 + 6  # header + snapshots s=0..5
    first = lines[1].split(",")
    assert first[0] == "0"
    assert all(float(x) == 0.0 for x in first[4:])
    traj_header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert traj_header == "phase,s,tau,x_0,u_0"


def test_repeated_seed_gives_byte_identical_outputs(tmp_path):
    outputs = []
    for attempt in ("a", "b"):
        out = tmp_path / attempt
        spec = ExperimentSpec(scenario_path=str(SHIPPED["timevarying_noisy"]),
                              mode="open-loop-es", n_iterations=50, seed=123,
                              out_dir=str(out), overrides={"grid.n_steps": "100"})
        run_experiment(spec)
        outputs.append((out / "iterations.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_seed_changes_measurements(tmp_path):
    csvs = []
    for seed in (1, 2):
        out = tmp_path / f"s{seed}"
        spec = ExperimentSpec(scenario_path=str(SHIPPED["timevarying_noisy"]),
                              mode="open-loop-es", n_iterations=20, seed=seed,
                              out_dir=str(out), overrides={"grid.n_steps": "100"})
        run_experiment(spec)
        csvs.append((out / "iterations.csv").read_bytes())
    assert csvs[0] != csvs[1]


def test_feedback_mode_writes_gain_artifacts(tmp_path):
    out = tmp_path / "fb"
    spec = ExperimentSpec(scenario_path=str(SHIPPED["feedback_2d"]),
                          mode="feedback-es", n_iterations=40,
                          out_dir=str(out), overrides={"grid.n_steps": "100"})
    summary = run_experiment(spec)
    assert summary.mode == "feedback-es"
    gains_header = (out / "gains.csv").read_text().splitlines()[0]
    assert gains_header.startswith("tau,k_1_1,k_1_2,k_2_1,k_2_2,oracle_k_1_1")
    payload = json.loads((out / "summary.json").read_text())
    assert len(payload["es_config"]["frequencies"]) == 80
    assert len(payload["oracle_costs_per_initial_condition"]) == 2


def test_es_config_for_requires_tuned_values():
    scenario = load_scenario(SHIPPED["example2_scalar"])
    cfg = es_config_for(scenario)
    assert cfg.n_coeffs == 10
    scenario.es_defaults = {}
    with pytest.raises(ScenarioValidationError):
        es_config_for(scenario)


def test_cli_list_scenarios(capsys):
    assert cli_main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "example2_scalar" in out
    assert "feedback_2d" in out


def test_cli_run_and_summary(tmp_path, capsys):
    code = cli_main([
        "run", "--scenario", str(SHIPPED["example2_scalar"]),
        "--iters", "10", "--out", str(tmp_path / "cli"),
        "--override", "grid.n_steps=100",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"] == "example2_scalar"
    assert (tmp_path / "cli" / "summary.json").exists()


def test_cli_error_writes_machine_readable_record(tmp_path, capsys):
    missing = tmp_path / "nope.scn"
    code = cli_main(["run", "--scenario", str(missing),
                     "--out", str(tmp_path / "err")])
    assert code == 1
    record = json.loads((tmp_path / "err" / "error.json").read_text())
    assert record["error"] == "ScenarioParseError"
    stderr = capsys.readouterr().err
    assert "ScenarioParseError" in stderr


def test_cli_error_without_out_goes_to_the_resolved_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ESCONTROL_OUTPUT_DIR", str(tmp_path / "envout"))
    # a scenario that cannot be loaded is named by its file stem
    assert cli_main(["run", "--scenario", str(tmp_path / "nope.scn")]) == 1
    record = json.loads((tmp_path / "envout" / "nope-run" / "error.json").read_text())
    assert record["error"] == "ScenarioParseError"
    assert cli_main(["compare", "--scenario", str(SHIPPED["feedback_2d"])]) == 1
    record = json.loads((tmp_path / "envout" / "feedback_2d-compare" / "error.json")
                        .read_text())
    assert record["error"] == "ContractViolationError"
    capsys.readouterr()


def test_cli_error_record_keeps_the_iteration_and_step_index(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ESCONTROL_OUTPUT_DIR", str(tmp_path / "envout"))
    # x' = 800 x over one second overflows RK4 long before the grid ends
    code = cli_main(["run", "--scenario", str(SHIPPED["example2_scalar"]), "--iters", "5",
                     "--override", "dynamics.a=800", "--override", "grid.n_steps=500"])
    assert code == 1
    out = tmp_path / "envout" / "example2_scalar-open-loop-es"
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "IntegrationDivergedError"
    assert record["iteration"] == 0
    assert 0 < record["step_index"] < 500
    assert "node_index" not in record
    assert json.loads(capsys.readouterr().err) == record


def test_cli_failing_run_leaves_the_rows_before_the_failing_iteration(tmp_path, capsys,
                                                                     monkeypatch):
    # the plant turns to x' = 801 x at slow time 0.03, about iteration 100,
    # past the first block of 64 rows; RK4 overflows on 500 steps from there on
    monkeypatch.setattr(escontrol.es, "_ROW_BLOCK", 64)
    overrides = {"dynamics.a": "1 + 800 * (t > 0.03)", "grid.n_steps": "500"}
    out = tmp_path / "out"
    code = cli_main(["run", "--scenario", str(SHIPPED["example2_scalar"]), "--iters", "300",
                     "--out", str(out)]
                    + [f"--override={key}={value}" for key, value in overrides.items()])
    assert code == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "IntegrationDivergedError"
    s = record["iteration"]
    assert 64 < s < 300
    assert json.loads(capsys.readouterr().err) == record
    assert not (out / "summary.json").exists()
    # the header and rows 0 .. s - 1 of the reference writer's output
    scenario = load_scenario(SHIPPED["example2_scalar"], overrides)
    reference_iterations_csv(tmp_path / "reference.csv",
                             run_scenario_es(scenario, es_config_for(scenario), s - 1))
    assert (out / "iterations.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_cli_diverging_closed_loop_keeps_the_iteration_and_the_step_index(tmp_path, capsys,
                                                                         monkeypatch):
    # the plant turns to x' = 2001 x at slow time 0.025, iteration 150 of the
    # gain synthesis, past the first block of 64 rows; from there on the
    # closed loop overflows halfway through its 250 steps
    monkeypatch.setattr(escontrol.es, "_ROW_BLOCK", 64)
    overrides = {"dynamics.a": "1 + 2000 * (t > 0.025)"}
    out = tmp_path / "out"
    code = cli_main(["run", "--scenario", str(SHIPPED["feedback_tracking_demo"]),
                     "--iters", "300", "--out", str(out)]
                    + [f"--override={key}={value}" for key, value in overrides.items()])
    assert code == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "IntegrationDivergedError"
    s = record["iteration"]
    assert 64 < s < 300
    assert json.loads(capsys.readouterr().err) == record
    assert not (out / "summary.json").exists()
    # the header and rows 0 .. s - 1 of the reference writer's output
    scenario = load_scenario(SHIPPED["feedback_tracking_demo"], overrides)
    _, before = synthesize_gain(scenario, es_config_for(scenario), s - 1)
    reference_iterations_csv(tmp_path / "reference.csv", before)
    assert (out / "iterations.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    # the step at which the closed loops under iterate s overflow
    config = before.config
    flat = es_step(before.coefficients[-1], before.measured_costs[-1], s - 1, config)
    with pytest.raises(IntegrationDivergedError) as closed_loop:
        episode_measurement(scenario, config.delta)(flat, s)
    assert 0 < closed_loop.value.step_index == record["step_index"]


# --- the writer process: a run whose rows span more than one block formats
# iterations.csv in a forked child; blocks are cut to 64 rows, so that 300
# iterations span five of them


def _spy_calls(monkeypatch, owner, name) -> list:
    """The argument tuples of every call of ``owner.name`` in this process."""
    calls, original = [], getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def _run_args(out: Path, iters: int, **overrides) -> list[str]:
    """esctl run arguments of example2_scalar with the given overrides."""
    return (["run", "--scenario", str(SHIPPED["example2_scalar"]), "--iters", str(iters),
             "--out", str(out)]
            + [f"--override={key}={value}" for key, value in overrides.items()])


@pytest.mark.parametrize("n_iterations, calls_in_parent, children", [(50, 1, 0), (300, 0, 1)])
def test_only_a_run_over_one_block_formats_its_rows_in_a_writer_process(
        n_iterations, calls_in_parent, children, tmp_path, monkeypatch):
    monkeypatch.setattr(escontrol.es, "_ROW_BLOCK", 64)
    writes = _spy_calls(monkeypatch, escontrol.harness, "write_iterations_csv")
    starts = _spy_calls(monkeypatch, multiprocessing.process.BaseProcess, "start")
    out = tmp_path / "out"
    run_experiment(ExperimentSpec(scenario_path=str(SHIPPED["example2_scalar"]),
                                  n_iterations=n_iterations, out_dir=str(out)))
    assert (len(writes), len(starts)) == (calls_in_parent, children)
    assert multiprocessing.active_children() == []
    rows = (out / "iterations.csv").read_text().splitlines()
    assert len(rows) == n_iterations + 2 and rows[-1].startswith(f"{n_iterations},")


def test_a_run_that_fails_in_its_second_block_joins_its_writer_process(tmp_path, monkeypatch,
                                                                      capsys):
    # the plant turns to x' = 801 x at slow time 0.03, about iteration 100
    monkeypatch.setattr(escontrol.es, "_ROW_BLOCK", 64)
    starts = _spy_calls(monkeypatch, multiprocessing.process.BaseProcess, "start")
    out = tmp_path / "out"
    assert cli_main(_run_args(out, 300, **{"dynamics.a": "1 + 800 * (t > 0.03)",
                                           "grid.n_steps": "500"})) == 1
    capsys.readouterr()
    s = json.loads((out / "error.json").read_text())["iteration"]
    assert 64 < s < 128 and len(starts) == 1
    assert multiprocessing.active_children() == []
    rows = (out / "iterations.csv").read_text().splitlines()
    assert len(rows) == s + 1 and rows[-1].startswith(f"{s - 1},")


def test_a_run_that_fails_before_its_first_block_starts_no_writer_process(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(escontrol.es, "_ROW_BLOCK", 64)
    starts = _spy_calls(monkeypatch, multiprocessing.process.BaseProcess, "start")
    # x' = 800 x over one second overflows RK4 in the first episode; 300
    # iterations would write in the writer process, 5 inline
    overrides = {"dynamics.a": "800", "grid.n_steps": "500"}
    assert cli_main(_run_args(tmp_path / "out", 300, **overrides)) == 1
    assert cli_main(_run_args(tmp_path / "inline", 5, **overrides)) == 1
    capsys.readouterr()
    assert json.loads((tmp_path / "out" / "error.json").read_text())["iteration"] == 0
    assert starts == [] and multiprocessing.active_children() == []
    # the header alone, as the inline writer leaves it
    header = (tmp_path / "out" / "iterations.csv").read_bytes()
    assert header.count(b"\n") == 1
    assert header == (tmp_path / "inline" / "iterations.csv").read_bytes()


@pytest.mark.parametrize("artifact, iters", [("iterations.csv", 5), ("iterations.csv", 300),
                                             ("trajectory.csv", 300)])
def test_an_artifact_that_cannot_be_written_leaves_error_json(artifact, iters, tmp_path,
                                                             monkeypatch, capsys):
    # 5 iterations write inline, 300 in the writer process
    monkeypatch.setattr(escontrol.es, "_ROW_BLOCK", 64)
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    assert cli_main(_run_args(out, iters)) == 1
    record = json.loads((out / "error.json").read_text())
    assert json.loads(capsys.readouterr().err) == record
    assert record["error"] == "ArtifactWriteError"
    assert record["message"].startswith(f"cannot write {out / artifact}: [Errno {errno.EISDIR}]")
    assert not (out / "summary.json").exists()
    assert multiprocessing.active_children() == []


def test_a_writer_process_that_dies_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(escontrol.es, "_ROW_BLOCK", 64)
    monkeypatch.setattr(escontrol.harness, "_write_received_rows", lambda *args: os._exit(3))
    with pytest.raises(ArtifactWriteError, match="writer process exited with code 3"):
        run_experiment(ExperimentSpec(scenario_path=str(SHIPPED["example2_scalar"]),
                                      n_iterations=300, out_dir=str(tmp_path / "out")))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("name, override, key", [
    ("timevarying_noisy", "noise.seed=-3", "noise.seed"),
    ("example2_scalar", "noise.seed=-3", "noise.seed"),  # refused without noise too
    ("timevarying_noisy", f"noise.seed={2**128}", "noise.seed"),
    ("timevarying_noisy", "noise.seed=abc", "noise.seed"),
    ("example2_scalar", "basis.m=2.5", "basis.m"),
    ("example2_scalar", "grid.n_steps=250.5", "grid.n_steps"),
    ("example2_scalar", "grid.n_steps=1e9", "grid.n_steps"),  # YAML reads a string
    ("example2_scalar", "grid.n_steps=1", "grid.n_steps"),
    ("example2_scalar", "basis.m=0", "basis.m"),
    ("example2_scalar", "es.alpha=abc", "es.alpha"),
    ("example2_scalar", "es.k=.nan", "es.k"),
    ("example2_scalar", "es.omega0=.inf", "es.omega0"),
    ("feedback_2d", "es.k=abc", "es.k"),
    ("example2_scalar", "grid.t_start=[0.0]", "grid.t_start"),
    ("example2_scalar", "grid.t_end=abc", "grid.t_end"),
    ("example2_scalar", "grid.t_end=0.0", "grid.t_end"),
    ("example2_scalar", "basis.extension=abc", "basis.extension"),
    ("example2_scalar", "basis.extension=-0.5", "basis.extension"),
    ("timevarying_noisy", "noise.std_dev=abc", "noise.std_dev"),
    ("timevarying_noisy", "noise.std_dev=-0.5", "noise.std_dev"),
    ("timevarying_noisy", "batch_period=abc", "batch_period"),
    ("example2_scalar", "grid=5", "grid"),
    ("example2_scalar", "es=5", "es"),
    ("example2_scalar", "noise=[0.5]", "noise"),
    ("example2_scalar", "initial_conditions=abc", "initial_conditions"),
    ("example2_scalar", "initial_conditions=[[1.0, abc]]", "initial_conditions[0][1]"),
    ("example2_scalar", "cost.q=abc", "cost.q"),
    ("feedback_2d", "cost.p=[[4.0, 3.0], [3.0]]", "cost.p"),
    ("example2_scalar", "dynamics.a=[[1.0, null]]", "dynamics.a[0][1]"),
    ("example2_scalar", "dynamics.b=.nan", "dynamics.b"),
    ("example2_scalar", "es.delta=abc", "es.delta"),
    ("example2_scalar", "es.delta=-0.001", "es.delta"),
    ("example2_scalar", "es.n_iterations=abc", "es.n_iterations"),
    ("example2_scalar", "es.n_iterations=2.5", "es.n_iterations"),
    ("example2_scalar", "es.ranges=abc", "es.ranges"),
    ("example2_scalar", "es.ranges=[[1, 2]]", "es.ranges"),
    ("example2_scalar", "es.ranges=[]", "es.ranges"),
    ("example2_scalar", "es.ranges=[[1, .nan, 10]]", "es.ranges[0][1]"),
    ("example2_scalar", "es.ranges=[[1, 1.75, 2.5]]", "es.ranges[0][2]"),
    ("example2_scalar", "es.ranges=[[1, 1.75, 0]]", "es.ranges[0][2]"),
    ("example2_scalar", "es.phases=[cos]", "es.phases"),
    ("example2_scalar", "es.phases=[cos, tan]", "es.phases"),
    ("example2_scalar", "es.phases=cos", "es.phases"),
    ("example2_scalar", "feedback=abc", "feedback"),
    ("example2_scalar", "feedforward=1", "feedforward"),
    ("feedback_2d", "feedforward=abc", "feedforward"),
    ("example2_scalar", "cost.allow_indefinite_terminal=abc", "cost.allow_indefinite_terminal"),
    ("feedback_2d", "es={}", "es.k"),
    ("feedback_2d", "es.phases=[cos]", "es.phases"),  # the synthesis assigns the dither
    ("feedback_2d", "es.ranges=[[1, 1.75, 3]]", "es.ranges"),
    ("example2_scalar", "es.ranges=[[0, 1.75, 10]]", "es.ranges[0]"),
    ("example2_scalar", "es.ranges=[[2, 1, 10]]", "es.ranges[0]"),
    ("example2_scalar", "es.ranges=[[1, 1.75, 9]]", "es.ranges"),
    ("example2_scalar", "es.k=-3", "es.k"),
    ("feedback_2d", "es.omega0=-0.5", "es.omega0"),
    ("example2_scalar", "dynamics.kind=abc", "dynamics.kind"),
    ("feedback_2d", "dynamics.b=2.5", "dynamics.b"),
    ("feedback_2d", "cost.c=2.5", "cost.c"),
    ("feedback_2d", "cost.r=2.5", "cost.r"),
    ("example2_scalar", "cost.p=-3", "cost.p"),
    ("example2_scalar", "initial_conditions=[]", "initial_conditions"),
    ("example2_scalar", "name=[]", "name"),
    ("example2_scalar", "name=../escaped", "name"),  # a path component of the output
    ("example2_scalar", "name=..", "name"),
    ("example2_scalar", "dynamics.a=[]", "dynamics.a"),
    ("example2_scalar", "es.omega=1600", "es.omega"),  # a typo of es.omega0
    ("example2_scalar", "grdi.n_steps=50", "grdi"),
    ("example3_tracking", "cost.reference=[1.0, 2.0]", "cost.reference"),  # one output
    ("feedback_2d", "cost.reference=1.0", "cost.reference"),  # two outputs
])
def test_cli_malformed_value_fails_through_the_error_handler(name, override, key, tmp_path,
                                                             capsys, monkeypatch):
    out = tmp_path / "out"  # the output root; nothing may be written outside it
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(out))
    code = cli_main(["run", "--scenario", str(SHIPPED[name]), "--iters", "3",
                     "--override", override])
    assert code == 1
    [error] = out.glob("*/error.json")
    record = json.loads(error.read_text())
    assert record["error"] == "ScenarioValidationError"
    assert key in record["message"]
    assert json.loads(capsys.readouterr().err) == record
    assert list(tmp_path.iterdir()) == [out]
    assert not list(out.glob("*/summary.json"))


def _dotted_keys(config: dict, prefix: str = ""):
    for key, value in config.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _dotted_keys(value, f"{prefix}{key}.")


# every key of the two files, sections included (so es={} is drawn); no
# value below is a valid integer, so the size keys (grid.n_steps, basis.m,
# es.n_iterations) never ask for a large run
FUZZED_KEYS = [(name, key) for name in ("example2_scalar", "feedback_2d")
               for key in _dotted_keys(read_scenario_config(SHIPPED[name]))]
FUZZED_VALUES = ["abc", "2.5", "-3", "-0.5", ".nan", "[]", "{}"]


def _artifacts(out: Path) -> dict:
    """The bytes of every file of a run, summary.json without the fields
    that differ between two runs of one scenario."""
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    summary = json.loads(files.pop("summary.json"))
    del summary["wall_time_s"], summary["scenario_path"]
    return {**files, "summary.json": summary}


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(target=st.sampled_from(FUZZED_KEYS), value=st.sampled_from(FUZZED_VALUES))
def test_cli_override_completes_or_fails_through_the_handler_naming_its_key(target, value):
    name, key = target
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = cli_main(["run", "--scenario", str(SHIPPED[name]), "--iters", "2",
                             "--out", str(out), "--override", f"{key}={value}"])
            if code == 0:
                # the recorded scenario alone reruns to the same artifacts
                resolved = Path(tmp) / "resolved.scn"
                resolved.write_text(json.dumps(json.loads(
                    (out / "summary.json").read_text())["resolved_scenario"]))
                again = cli_main(["run", "--scenario", str(resolved), "--iters", "2",
                                  "--out", str(Path(tmp) / "again")])
        if code == 0:
            assert again == 0
            assert _artifacts(Path(tmp) / "again") == _artifacts(out)
            return
        assert code == 1
        record = json.loads((out / "error.json").read_text())
        assert json.loads(stderr.getvalue()) == record
        assert key in record["message"]


def test_cli_seed_over_a_malformed_noise_section_fails_through_the_error_handler(tmp_path,
                                                                                 capsys):
    out = tmp_path / "out"
    code = cli_main(["run", "--scenario", str(SHIPPED["example2_scalar"]), "--seed", "3",
                     "--out", str(out), "--override", "noise=5"])
    assert code == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ScenarioValidationError"
    assert "noise must be a mapping" in record["message"]
    assert json.loads(capsys.readouterr().err) == record


@pytest.mark.parametrize("name, override, error, key", [
    ("example2_scalar", "es.alpha=[1", "ScenarioParseError", "es.alpha"),  # the override's YAML
    ("example2_scalar", "dynamics.a=1 + sin(", "ScenarioParseError", "dynamics.a"),  # syntax
    ("example2_scalar", "dynamics.b=2 * foo", "ScenarioParseError", "dynamics.b"),  # a name
    ("example2_scalar", "dynamics.a=[]", "ScenarioValidationError", "dynamics.a"),
    ("example2_scalar", "cost.q=[]", "ScenarioValidationError", "cost.q"),
    # checks of the ES set-up, made once the scenario is built
    ("example2_scalar", "es.phases=[cos]", "ScenarioValidationError", "es.phases"),
    ("example2_scalar", "es.ranges=[[1, 1.75, 9]]", "ScenarioValidationError", "es.ranges"),
    ("feedback_2d", "es={}", "ScenarioValidationError", "es.k"),
])
def test_cli_loading_error_names_the_file_and_its_key(name, override, error, key, tmp_path,
                                                      capsys):
    out = tmp_path / "out"
    path = SHIPPED[name]
    code = cli_main(["run", "--scenario", str(path), "--iters", "3",
                     "--out", str(out), "--override", override])
    assert code == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == error
    assert record["message"].startswith(f"{path}: ")
    assert key in record["message"]
    assert json.loads(capsys.readouterr().err) == record


def test_cli_records_numbers_as_the_run_used_them(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli_main(["run", "--scenario", str(SHIPPED["example2_scalar"]), "--iters", "2",
                     "--out", str(out), "--override", "es.alpha=1e3",  # YAML 1.1: a string
                     "--override", "grid.t_end=1"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    resolved = summary["resolved_scenario"]
    assert (resolved["es"]["alpha"], resolved["grid"]["t_end"]) == (1000.0, 1.0)
    assert type(resolved["grid"]["t_end"]) is float
    assert summary["es_config"]["alpha"] == 1000.0
    capsys.readouterr()


@pytest.mark.parametrize("iters", [0, -3])
def test_cli_iters_below_one_fails_through_the_error_handler(iters, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli_main(["run", "--scenario", str(SHIPPED["timevarying_noisy"]),
                     "--iters", str(iters), "--out", str(out)])
    assert code == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ContractViolationError"
    assert "n_iterations" in record["message"]
    assert json.loads(capsys.readouterr().err) == record
    assert not (out / "summary.json").exists()


def test_readme_scenario_table_lists_every_schema_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Scenario files\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    assert sorted(rows) == sorted(path for path, _, _ in SCHEMA)


def test_float_syntax_strings_load_as_numbers():
    config = yaml.safe_load(SHIPPED["timevarying_noisy"].read_text())
    config["es"]["alpha"] = "2e1"  # YAML 1.1 reads 2e1 as a string
    config["grid"]["t_end"] = 1
    scenario = build_scenario(config)
    assert scenario.es_defaults["alpha"] == 20.0
    assert type(scenario.grid.t_end) is float and scenario.grid.t_end == 1.0
    assert es_config_for(scenario).alpha == 20.0


def test_cli_lists_an_unreadable_scenario_file(tmp_path, capsys):
    (tmp_path / "broken.scn").write_text("name: [unclosed\n")
    (tmp_path / "listed.scn").write_text("- not\n- a mapping\n")
    assert cli_main(["list-scenarios", "--dir", str(tmp_path)]) == 0
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    assert lines["broken"].endswith("(unreadable)")
    assert lines["listed"].endswith("(unreadable)")
    assert "drifting noisy scalar plant" in lines["timevarying_noisy"]


def test_integral_float_values_load_as_integers():
    config = yaml.safe_load(SHIPPED["example2_scalar"].read_text())
    config["grid"]["n_steps"] = 200.0
    config["basis"]["m"] = 3.0
    config["noise"] = {"std_dev": 0.1, "seed": 7.0}
    scenario = build_scenario(config)
    assert (scenario.grid.n_steps, scenario.basis.m, scenario.noise.seed) == (200, 3, 7)
    assert all(type(v) is int for v in (scenario.grid.n_steps, scenario.basis.m,
                                        scenario.noise.seed))


def test_cli_rejects_bad_override(tmp_path):
    with pytest.raises(SystemExit):
        cli_main(["run", "--scenario", str(SHIPPED["example2_scalar"]),
                  "--override", "garbage"])


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("ESCONTROL_OUTPUT_DIR", str(tmp_path / "envout"))
    spec = ExperimentSpec(scenario_path=str(SHIPPED["example2_scalar"]),
                          mode="open-loop-es", n_iterations=5,
                          overrides={"grid.n_steps": "100"})
    run_experiment(spec)
    assert (tmp_path / "envout" / "example2_scalar-open-loop-es" /
            "summary.json").exists()


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _per_cell_csv(path, header, rows):
    """The per-cell writer write_csv must match byte for byte."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _awkward_floats(rng, shape):
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    flat = values.reshape(-1)
    flat[:7] = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, 5e-324]
    rng.shuffle(flat)
    return values


def test_write_csv_is_byte_identical_to_the_per_cell_writer(tmp_path, rng):
    # iterations layout: s, then t, J, J_hat and the coefficients
    n_rows, n_coeffs = 2500, 40  # more rows than one write block
    cfg = EsConfig.build(k=0.2, alpha=20.0, omega0=500.0, n_coeffs=n_coeffs)
    coeffs = _awkward_floats(rng, (n_rows, n_coeffs))
    costs, measured = _awkward_floats(rng, (2, n_rows))
    record = EsRunRecord(cfg, coeffs, costs, measured)
    reference_iterations_csv(tmp_path / "new.csv", record)
    header = ["s", "t", "J", "J_hat"] + [f"c_{i:03d}" for i in range(n_coeffs)]
    times = np.arange(n_rows) * cfg.delta
    _per_cell_csv(tmp_path / "old.csv", header,
                  ([s, times[s], costs[s], measured[s], *coeffs[s]] for s in range(n_rows)))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    # the streaming writer, fed the same rows in blocks of any length
    for size in (1, 63, 64, 65, n_rows):
        blocks = ((start, coeffs[start:start + size], costs[start:start + size],
                   measured[start:start + size]) for start in range(0, n_rows, size))
        write_iterations_csv(tmp_path / "streamed.csv", cfg, blocks)
        assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    # trajectory layout: phase and s, then tau, states and controls
    block = _awkward_floats(rng, (300, 5))
    header = ["phase", "s", "tau", "x_0", "x_1", "u_0", "u_1"]
    write_csv(tmp_path / "new.csv", header, ((("last", 4000), row) for row in block))
    _per_cell_csv(tmp_path / "old.csv", header, (["last", 4000, *row] for row in block))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    # gains layout: float cells only
    header = ["tau", "k_1_1", "k_1_2", "oracle_k_1_1", "oracle_k_1_2"]
    write_csv(tmp_path / "new.csv", header, (((), row) for row in block))
    _per_cell_csv(tmp_path / "old.csv", header, block)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("name", ["feedback_2d", "feedback_tracking_demo"])
def test_cli_compare_refuses_a_feedback_scenario(name, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = cli_main(["compare", "--scenario", str(SHIPPED[name]), "--iters", "50",
                     "--out", str(out)])
    assert code == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ContractViolationError"
    assert "feedback" in record["message"]
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("name, mode", [("feedback_2d", "open-loop-es"),
                                        ("example2_scalar", "feedback-es")])
def test_es_mode_must_fit_the_feedback_flag(name, mode, tmp_path):
    spec = ExperimentSpec(scenario_path=str(SHIPPED[name]), mode=mode, n_iterations=5,
                          out_dir=str(tmp_path))
    with pytest.raises(ContractViolationError, match="does not fit"):
        run_experiment(spec)
    assert not list(tmp_path.glob("*.csv"))


_WITHOUT_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} imported at run time")

sys.meta_path.insert(0, BlockScipy())
import escontrol, escontrol.harness, escontrol.cli
from escontrol.harness import ExperimentSpec, run_experiment, shipped_scenarios

paths = {p.stem: p for p in shipped_scenarios()}
for name in ("timevarying_noisy", "feedback_2d"):
    summary = run_experiment(ExperimentSpec(scenario_path=str(paths[name]), n_iterations=3,
                                            out_dir=sys.argv[1] + "/" + name))
    assert summary.oracle_cost is not None, name
"""


def test_runs_import_no_scipy(tmp_path):
    # a fresh interpreter that refuses every scipy import runs noise draws
    # (timevarying_noisy) and the Riccati oracle (both scenarios), so an
    # import deferred into a function fails here too
    src = str(Path(escontrol.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
