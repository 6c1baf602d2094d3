import io
import json
from dataclasses import fields

import pytest

from rxmflow import cli
from rxmflow.backends import HttpBackend, OpenAIChatBackend, ScriptedBackend
from rxmflow.cli import build_parser, main, make_backend
from rxmflow.runner import RunArtifacts, WorkflowConfig
from rxmflow.synth import maintenance_frame, write_csv

from conftest import DEGENERATE_TARGETS, write_target_csv


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "m.csv"
    write_csv(maintenance_frame(n_rows=300, seed=7), path)
    return str(path)


def test_successful_run_exits_zero(csv_path, tmp_path, capsys):
    code = main([
        "--data", csv_path, "--auto-approve", "--seed", "3",
        "--log-dir", str(tmp_path / "logs"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "WORKFLOW COMPLETION RECAP" in out
    assert "Steps: 5/5 succeeded (100.0%)" in out


def test_missing_file_exits_one(tmp_path, capsys):
    code = main([
        "--data", str(tmp_path / "nope.csv"), "--auto-approve",
        "--log-dir", str(tmp_path / "logs"),
    ])
    assert code == 1
    assert "nope.csv" in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(DEGENERATE_TARGETS) + ["missing_file"])
def test_failed_run_exits_one_and_records_the_failure(tmp_path, case):
    path = str(tmp_path / "nope.csv")
    if case != "missing_file":
        path = write_target_csv(tmp_path / f"{case}.csv", DEGENERATE_TARGETS[case])
    logs = tmp_path / "logs"
    code = main(["--data", path, "--auto-approve", "--log-dir", str(logs)])
    assert code == 1
    [detailed] = logs.glob("detailed_results_*.json")
    failure = json.loads(detailed.read_text())["failure"]
    expected = (("load_and_inspect_data", "FileMissingError") if case == "missing_file"
                else ("preprocess_data", "ClassTooSmallError"))
    assert (failure["stage"], failure["reason"]) == expected
    assert not list(logs.glob("recommendations_*.json"))


def test_undecodable_csv_exits_one_as_malformed(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"Machine_ID,temperature\nM1,61.5\nM2,caf\xe9\n")
    logs = tmp_path / "logs"
    code = main(["--data", str(path), "--auto-approve", "--log-dir", str(logs)])
    assert code == 1
    [detailed] = logs.glob("detailed_results_*.json")
    failure = json.loads(detailed.read_text())["failure"]
    assert (failure["stage"], failure["reason"]) == ("load_and_inspect_data", "MalformedCsvError")


def test_constant_regression_target_exits_one(tmp_path):
    path = write_target_csv(tmp_path / "flat.csv", [5.5] * 200)
    logs = tmp_path / "logs"
    code = main(["--data", path, "--auto-approve", "--task", "regression",
                 "--log-dir", str(logs)])
    assert code == 1
    [detailed] = logs.glob("detailed_results_*.json")
    failure = json.loads(detailed.read_text())["failure"]
    assert (failure["stage"], failure["reason"]) == ("preprocess_data", "ConstantTargetError")
    assert not list(logs.glob("recommendations_*.json"))


def test_unwritable_log_dir_exits_one(csv_path, tmp_path, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    code = main(["--data", csv_path, "--log-dir", str(blocker / "logs")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_rejected_review_exits_two(csv_path, tmp_path, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("r\n"))
    code = main([
        "--data", csv_path, "--seed", "3", "--target", "Maintenance_Priority",
        "--log-dir", str(tmp_path / "logs"),
    ])
    assert code == 2


def test_backend_selection():
    parser = build_parser()
    args = parser.parse_args(["--data", "x.csv"])
    assert make_backend(args) is None

    args = parser.parse_args([
        "--data", "x.csv", "--backend", "http",
        "--backend-url", "http://127.0.0.1:11436", "--model-name", "m",
    ])
    backend = make_backend(args)
    assert isinstance(backend, HttpBackend)
    assert backend.base_url == "http://127.0.0.1:11436"

    args = parser.parse_args(["--data", "x.csv", "--backend", "openai"])
    assert isinstance(make_backend(args), OpenAIChatBackend)

    with pytest.raises(ValueError, match="unknown backend 'psychic'"):
        make_backend(parser.parse_args(["--data", "x.csv", "--backend", "psychic"]))


def test_unknown_backend_exits_one_with_an_error_line(csv_path, tmp_path, capsys):
    code = main(["--data", csv_path, "--backend", "foo", "--auto-approve",
                 "--log-dir", str(tmp_path / "logs")])
    assert code == 1
    assert capsys.readouterr().err == "error: unknown backend 'foo'\n"
    assert not (tmp_path / "logs").exists()


def test_scripted_backend_flag(tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps(["one"]))
    args = build_parser().parse_args([
        "--data", "x.csv", "--backend", f"scripted:{script}",
    ])
    backend = make_backend(args)
    assert isinstance(backend, ScriptedBackend)
    assert backend.generate("p") == "one"


@pytest.mark.parametrize("content", [None, "not json", '{"a": 1}', "[1, 2]"])
def test_unusable_scripted_backend_file_exits_one(csv_path, tmp_path, capsys, content):
    script = tmp_path / "script.json"
    if content is not None:
        script.write_text(content)
    code = main([
        "--data", csv_path, "--backend", f"scripted:{script}", "--auto-approve",
        "--log-dir", str(tmp_path / "logs"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "logs").exists()


def test_contamination_must_be_fraction_or_auto():
    with pytest.raises(SystemExit):
        main(["--data", "x.csv", "--contamination", "lots"])


@pytest.mark.parametrize("value", ["2", "-1", "0", "0.51", "nan"])
def test_contamination_outside_the_range_is_rejected(value):
    with pytest.raises(SystemExit, match=r"in \(0, 0\.5\]"):
        main(["--data", "x.csv", "--contamination", value])


def test_anomaly_flag_maps_to_task(csv_path, tmp_path):
    code = main([
        "--data", csv_path, "--task", "anomaly", "--contamination", "0.02",
        "--auto-approve", "--seed", "3", "--log-dir", str(tmp_path / "logs"),
    ])
    assert code == 0


def test_every_config_field_is_set_from_the_cli(tmp_path, monkeypatch):
    built = []

    class Recorder:
        def __init__(self, config, backend=None):
            built.append(config)
            self.artifacts = RunArtifacts()

        def run(self):
            pass
    monkeypatch.setattr(cli, "WorkflowRunner", Recorder)
    script = tmp_path / "script.json"
    script.write_text("[]")
    code = main([
        "--data", "x.csv", "--task", "regression", "--target", "wear",
        "--backend", f"scripted:{script}", "--backend-url", "http://127.0.0.1:1",
        "--model-name", "m", "--contamination", "0.1", "--seed", "7",
        "--auto-approve", "--max-steps", "4", "--include-routine",
        "--log-dir", str(tmp_path / "logs"), "--verbose",
    ])
    assert code == 0
    [config] = built
    default = WorkflowConfig(data_path="")
    unchanged = [f.name for f in fields(WorkflowConfig)
                 if getattr(config, f.name) == getattr(default, f.name)]
    assert unchanged == []


@pytest.mark.parametrize("done, stage", [
    (["load_and_inspect_data", "preprocess_data"], "analyze_data"),
    ([], "load_and_inspect_data"),
])
def test_a_planner_that_gives_up_exits_one(csv_path, tmp_path, done, stage):
    script = tmp_path / "script.json"
    script.write_text(json.dumps([
        json.dumps({"tool": tool, "finish": False, "reason": f"run {tool}"})
        for tool in done
    ] + [json.dumps({"tool": "", "finish": True, "reason": "enough"})]))
    logs = tmp_path / "logs"
    code = main(["--data", csv_path, "--backend", f"scripted:{script}",
                 "--auto-approve", "--log-dir", str(logs)])
    assert code == 1
    [detailed] = logs.glob("detailed_results_*.json")
    failure = json.loads(detailed.read_text())["failure"]
    assert (failure["stage"], failure["reason"]) == (stage, "PlannerGaveUpError")
    assert failure["error"] == f"the planner finished before {stage}: enough"
    assert not list(logs.glob("recommendations_*.json"))


@pytest.mark.parametrize("max_steps, stage", [
    (0, "load_and_inspect_data"),
    (3, "generate_recommendations"),
])
def test_a_run_that_reaches_max_steps_exits_one(csv_path, tmp_path, max_steps, stage):
    logs = tmp_path / "logs"
    code = main(["--data", csv_path, "--auto-approve", "--log-dir", str(logs),
                 "--max-steps", str(max_steps)])
    assert code == 1
    [detailed] = logs.glob("detailed_results_*.json")
    failure = json.loads(detailed.read_text())["failure"]
    assert failure == {
        "stage": stage, "reason": "StepCapError",
        "error": f"the step cap of {max_steps} was reached before {stage}",
    }
    assert not list(logs.glob("recommendations_*.json"))


def test_a_planner_that_gives_up_prints_its_failure(csv_path, tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text(json.dumps([
        json.dumps({"tool": "load_and_inspect_data", "finish": False, "reason": "load"}),
        json.dumps({"tool": "", "finish": True, "reason": "enough"}),
    ]))
    code = main(["--data", csv_path, "--backend", f"scripted:{script}",
                 "--auto-approve", "--log-dir", str(tmp_path / "logs")])
    assert code == 1
    out = capsys.readouterr().out
    recap = out[out.index("WORKFLOW COMPLETION RECAP"):out.index("HITL INTERACTIONS")]
    assert ("Failed: preprocess_data (PlannerGaveUpError): "
            "the planner finished before preprocess_data: enough") in recap.splitlines()
