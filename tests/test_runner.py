import hashlib
import io
import json
import pickle
from dataclasses import replace

import numpy as np
import pytest

from rxmflow import analytics
from rxmflow import runner as runner_module
from rxmflow.backends import ScriptedBackend
from rxmflow.clocks import TickClock
from rxmflow.errors import DataLoadError
from rxmflow.models import forest
from rxmflow.preprocess import features
from rxmflow.preprocess.plan import ENCODE_DROP
from rxmflow.review import ReviewIO
from rxmflow.runner import (
    EXIT_DATA_ERROR, EXIT_OK, EXIT_REJECTED, WorkflowConfig, WorkflowRunner,
    run_workflow,
)
from rxmflow.synth import failure_frame, maintenance_frame, network_frame, write_csv
from rxmflow.workflow import ANALYZE, LOAD, PREPROCESS, RECOMMEND, SUMMARIZE, TOOLS

from conftest import (
    DEGENERATE_TARGETS, UnavailableBackend, make_frame, write_target_csv,
)

SEQUENCE = [
    "load_and_inspect_data", "preprocess_data", "analyze_data",
    "generate_recommendations", "summarize",
]
SECTIONS = {
    "dataset", "schema", "preprocess_plan", "model_attempts", "adaptive_log",
    "recommendations", "confidence", "review", "durations",
}


@pytest.fixture
def maintenance_csv(tmp_path):
    path = tmp_path / "maintenance.csv"
    write_csv(maintenance_frame(n_rows=400, seed=7), path)
    return str(path)


def config_for(path, tmp_path, **overrides):
    fields = dict(
        data_path=path, auto_approve=True, seed=3,
        log_dir=str(tmp_path / "logs"),
    )
    fields.update(overrides)
    return WorkflowConfig(**fields)


def scripted_full_run():
    decisions = [
        json.dumps({"tool": tool, "finish": False, "reason": f"run {tool}"})
        for tool in SEQUENCE
    ]
    decisions.append(json.dumps({
        "tool": "", "finish": True, "reason": "workflow complete",
    }))
    return ScriptedBackend(decisions)


def test_rule_based_end_to_end(maintenance_csv, tmp_path):
    report, artifacts = run_workflow(
        config_for(maintenance_csv, tmp_path), clock=TickClock())
    assert report.steps_succeeded == 5
    assert report.steps_total == 5
    assert artifacts.task == "classification"
    assert 0 < len(artifacts.recommendations) <= 10
    assert sum(report.priority_distribution.values()) == report.recommendations_total
    assert artifacts.exit_code == EXIT_OK
    assert artifacts.detailed_results_path.exists()
    assert artifacts.recommendations_path.exists()


def test_scripted_backend_replays_same_tool_order(maintenance_csv, tmp_path):
    backend = scripted_full_run()
    report, artifacts = run_workflow(
        config_for(maintenance_csv, tmp_path), backend=backend, clock=TickClock())
    assert report.steps_succeeded == 5
    audited = [
        record["payload"]["tool"]
        for record in _audit_records(artifacts)
        if record["event"] == "planner_decision" and not record["payload"]["finish"]
    ]
    assert audited == SEQUENCE


def _audit_records(artifacts):
    audit_files = sorted(artifacts.detailed_results_path.parent.glob("audit_*.jsonl"))
    records = []
    for path in audit_files:
        for line in path.read_text().splitlines():
            records.append(json.loads(line))
    return records


def test_unavailable_backend_completes_via_fallback(maintenance_csv, tmp_path):
    backend = UnavailableBackend()
    report, artifacts = run_workflow(
        config_for(maintenance_csv, tmp_path), backend=backend, clock=TickClock())
    assert report.steps_succeeded == 5
    provenances = {
        record["payload"]["provenance"]
        for record in _audit_records(artifacts)
        if record["event"] == "planner_decision"
    }
    assert provenances == {"rule_based"}
    assert backend.calls >= 1


def test_detailed_results_has_nine_sections(maintenance_csv, tmp_path):
    _, artifacts = run_workflow(
        config_for(maintenance_csv, tmp_path), clock=TickClock())
    document = json.loads(artifacts.detailed_results_path.read_text())
    assert sorted(document) == sorted([
        "dataset", "schema", "preprocess_plan", "model_attempts",
        "adaptive_log", "recommendations", "confidence", "review", "durations",
    ])
    assert document["review"]["status"] == "approved"
    assert document["recommendations"]["generated_total"] == len(
        document["recommendations"]["approved_actions"])


def test_missing_file_aborts_with_partial_results(tmp_path):
    config = config_for(str(tmp_path / "nope.csv"), tmp_path)
    runner = WorkflowRunner(config, clock=TickClock())
    with pytest.raises(DataLoadError):
        runner.run()
    artifacts = runner.artifacts
    assert artifacts.exit_code == 1
    document = json.loads(artifacts.detailed_results_path.read_text())
    assert set(document) == SECTIONS | {"failure"}
    assert document["failure"]["stage"] == "load_and_inspect_data"
    assert document["failure"]["reason"] == "FileMissingError"
    assert "nope.csv" in document["failure"]["error"]


@pytest.mark.parametrize("case", sorted(DEGENERATE_TARGETS))
def test_degenerate_target_fails_preprocessing(tmp_path, case):
    path = write_target_csv(tmp_path / f"{case}.csv", DEGENERATE_TARGETS[case])
    report, artifacts = run_workflow(config_for(path, tmp_path), clock=TickClock())
    # preprocessing fails, is planned once more, fails again, and the run stops
    assert (report.steps_succeeded, report.steps_total) == (1, 3)
    assert artifacts.exit_code == EXIT_DATA_ERROR
    assert artifacts.failure["stage"] == "preprocess_data"
    assert artifacts.failure["reason"] == "ClassTooSmallError"
    assert artifacts.best_result is None
    assert artifacts.recommendations_path is None
    assert not list((tmp_path / "logs").glob("recommendations_*.json"))
    document = json.loads(artifacts.detailed_results_path.read_text())
    assert set(document) == SECTIONS | {"failure"}
    assert document["failure"] == artifacts.failure


def test_constant_regression_target_fails_preprocessing(tmp_path):
    path = write_target_csv(tmp_path / "flat.csv", [5.5] * 200)
    report, artifacts = run_workflow(
        config_for(path, tmp_path, task="regression"), clock=TickClock())
    assert (report.steps_succeeded, report.steps_total) == (1, 3)
    assert artifacts.exit_code == EXIT_DATA_ERROR
    assert artifacts.failure["stage"] == "preprocess_data"
    assert artifacts.failure["reason"] == "ConstantTargetError"
    assert "1 value(s) over the training rows" in artifacts.failure["error"]
    assert artifacts.best_result is None
    assert artifacts.recommendations_path is None
    assert not list((tmp_path / "logs").glob("recommendations_*.json"))


def test_stray_text_in_a_regression_target_is_dropped_as_missing(tmp_path):
    gen = np.random.default_rng(4)
    scores = gen.normal(0.5, 0.1, 200).round(3).tolist()
    for i in range(3, 200, 40):
        scores[i] = "n/a"
    path = write_target_csv(tmp_path / "gappy.csv", scores)
    report, artifacts = run_workflow(
        config_for(path, tmp_path, task="regression"), clock=TickClock())
    assert report.steps_succeeded == 5
    assert artifacts.exit_code == EXIT_OK
    assert len(artifacts.usable_rows) == 195
    [dropped] = [r["payload"] for r in _audit_records(artifacts)
                 if r["event"] == "rows_dropped_missing_target"]
    assert dropped == {"dropped": 5}


def _fail_first_fit(monkeypatch):
    """Make the runner's first fit_pipeline call fail; returns the calls."""
    real_fit = runner_module.fit_pipeline
    calls = []

    def fail_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise ValueError("first fit fails")
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(runner_module, "fit_pipeline", fail_once)
    return calls


def test_backup_plan_keeps_the_feature_analysis_removals(tmp_path, monkeypatch):
    frame = maintenance_frame(n_rows=300, seed=7)
    frame.column_names.append("Const")
    frame.columns.append([3.0] * frame.n_rows)
    path = tmp_path / "const.csv"
    write_csv(frame, path)
    calls = _fail_first_fit(monkeypatch)
    report, artifacts = run_workflow(config_for(str(path), tmp_path), clock=TickClock())
    assert report.steps_succeeded == 5
    assert len(calls) == 2
    prep = artifacts.records[PREPROCESS]
    assert ("Const", features.REASON_CONSTANT) in prep.feature_report.removed
    assert prep.plan.directives["Const"].encoding == ENCODE_DROP
    assert "Const" not in artifacts.pipeline.feature_names


def test_backup_plan_keeps_the_tactical_note(maintenance_csv, tmp_path, monkeypatch):
    calls = _fail_first_fit(monkeypatch)
    report, artifacts = run_workflow(
        config_for(maintenance_csv, tmp_path),
        slm_backend=ScriptedBackend(["Median imputation looks fine."]),
        clock=TickClock(),
    )
    assert report.steps_succeeded == 5
    assert len(calls) == 2
    document = json.loads(artifacts.detailed_results_path.read_text())
    assert document["preprocess_plan"]["__advisory_notes__"] == [
        "tactical note: Median imputation looks fine.",
        "simplified backup plan in effect",
    ]


def test_removing_every_feature_fails_preprocessing(tmp_path):
    # an id, a blank and a constant sensor: feature analysis keeps nothing
    n = 300
    path = tmp_path / "no_features.csv"
    write_csv(make_frame({
        "Machine_ID": [f"M{i:04d}" for i in range(n)],
        "Sensor_A": [None] * n,
        "Sensor_B": [7.0] * n,
        "Maintenance_Priority": [("High", "Medium", "Low")[i % 3] for i in range(n)],
    }), path)
    report, artifacts = run_workflow(config_for(str(path), tmp_path), clock=TickClock())
    assert (report.steps_succeeded, report.steps_total) == (1, 3)
    assert artifacts.exit_code == EXIT_DATA_ERROR
    assert artifacts.failure["stage"] == "preprocess_data"
    assert artifacts.failure["reason"] == "NoFeaturesError"
    assert artifacts.best_result is None
    assert artifacts.recommendations_path is None


def _decide(tool):
    return json.dumps({"tool": tool, "finish": False, "reason": f"run {tool}"})


FINISH = json.dumps({"tool": "", "finish": True, "reason": "done"})


@pytest.mark.parametrize("order, missing", [
    ([LOAD, ANALYZE], PREPROCESS),
    ([LOAD, RECOMMEND], PREPROCESS),
    ([LOAD, SUMMARIZE], PREPROCESS),
    ([PREPROCESS], LOAD),
])
def test_a_stage_picked_before_an_earlier_one_succeeded_fails_the_run(
        maintenance_csv, tmp_path, order, missing):
    backend = ScriptedBackend([*map(_decide, order), FINISH])
    report, artifacts = run_workflow(
        config_for(maintenance_csv, tmp_path), backend=backend, clock=TickClock())
    stage = order[-1]
    assert (report.steps_succeeded, report.steps_total) == (len(order) - 1, len(order))
    assert artifacts.exit_code == EXIT_DATA_ERROR
    assert artifacts.failure == {
        "stage": stage, "reason": "StageOrderError",
        "error": f"{stage} needs {missing} to succeed first",
    }
    assert list(artifacts.records) == order[:-1]
    assert artifacts.recommendations_path is None
    events = {r["event"] for r in _audit_records(artifacts)}
    assert not events & {"model_attempt", "recommendation_review"}


def test_a_planner_that_repeats_a_stage_is_overruled(maintenance_csv, tmp_path):
    # every reply names the loading stage again: after its first success each
    # planning step refuses three replies and the rule planner decides
    backend = ScriptedBackend([_decide(LOAD)] * 20)
    report, artifacts = run_workflow(
        config_for(maintenance_csv, tmp_path), backend=backend, clock=TickClock())
    assert (report.steps_succeeded, report.steps_total) == (5, 5)
    assert artifacts.exit_code == EXIT_OK
    assert artifacts.recommendations
    assert json.loads(artifacts.recommendations_path.read_text())
    decisions = [r["payload"] for r in _audit_records(artifacts)
                 if r["event"] == "planner_decision"]
    assert [d["provenance"] for d in decisions] == ["llm"] + ["rule_based"] * 5
    assert backend.calls == 1 + 3 * 5


def _failing_families(monkeypatch, families):
    """Make every candidate of `families` fail to train."""
    real = analytics.fit_predict_evaluate

    def train(*args, **kwargs):
        spec = args[4]
        if spec.family in families:
            return analytics.ModelResult(
                spec=spec, status=analytics.STATUS_FAILED, error="scripted failure")
        return real(*args, **kwargs)
    monkeypatch.setattr(analytics, "fit_predict_evaluate", train)


def test_a_failed_first_candidate_hands_the_rest_to_adaptive_search(
        maintenance_csv, tmp_path, monkeypatch):
    _failing_families(monkeypatch, {"random_forest_clf"})
    report, artifacts = run_workflow(
        config_for(maintenance_csv, tmp_path), clock=TickClock())
    assert report.steps_succeeded == 5
    log = artifacts.records[ANALYZE]
    assert log.trigger_reason == "first model failed to train"
    assert [r.spec.family for r in log.attempts] == [
        "random_forest_clf", "logistic_regression", "svm_rbf_clf"]
    assert log.attempts[0].status == analytics.STATUS_FAILED
    accuracies = [r.metrics.accuracy for r in log.attempts[1:]]
    assert artifacts.best_result is log.attempts[1 + accuracies.index(max(accuracies))]


@pytest.mark.parametrize("frame, options, families", [
    (lambda: maintenance_frame(n_rows=400, seed=7), {},
     ["random_forest_clf", "logistic_regression", "svm_rbf_clf"]),
    (lambda: network_frame(n_rows=800, seed=13, n_outliers=8),
     {"task": "anomaly_detection", "contamination": 0.02}, ["isolation_forest"]),
], ids=["every_classifier", "isolation_forest"])
def test_no_candidate_training_fails_the_analysis(tmp_path, monkeypatch, frame,
                                                  options, families):
    _failing_families(monkeypatch, set(families))
    path = tmp_path / "failing.csv"
    write_csv(frame(), path)
    report, artifacts = run_workflow(
        config_for(str(path), tmp_path, **options), clock=TickClock())
    assert artifacts.exit_code == EXIT_DATA_ERROR
    assert (artifacts.failure["stage"], artifacts.failure["reason"]) == (
        ANALYZE, "AllModelsFailedError")
    assert ANALYZE not in artifacts.records
    assert artifacts.recommendations_path is None
    document = json.loads(artifacts.detailed_results_path.read_text())
    assert [(a["family"], a["status"], a["error"]) for a in document["model_attempts"]] == [
        (family, analytics.STATUS_FAILED, "scripted failure") for family in families]


def test_rejected_review_withholds_actions_and_sets_exit_code(
        maintenance_csv, tmp_path):
    config = config_for(maintenance_csv, tmp_path, auto_approve=False)
    runner = WorkflowRunner(
        config,
        io=ReviewIO(io.StringIO("r\n"), io.StringIO()),
        clock=TickClock(),
    )
    report = runner.run()
    assert runner.artifacts.exit_code == EXIT_REJECTED
    assert report.steps_succeeded == 5
    document = json.loads(runner.artifacts.detailed_results_path.read_text())
    assert document["recommendations"]["approved_actions"] == []
    assert document["recommendations"]["generated_total"] > 0
    payload = json.loads(runner.artifacts.recommendations_path.read_text())
    assert payload == []


# a blank keeps the default at the target prompt, then the review edits the
# first recommendation's priority to Routine
ADJUST_FIRST_TO_ROUTINE = "\nd\n1\npriority\nRoutine\n\n"


def test_adjusted_review_reaches_the_approved_list_but_not_the_generated_one(
        maintenance_csv, tmp_path):
    config = config_for(maintenance_csv, tmp_path, auto_approve=False)
    runner = WorkflowRunner(
        config, io=ReviewIO(io.StringIO(ADJUST_FIRST_TO_ROUTINE), io.StringIO()),
        clock=TickClock(),
    )
    report = runner.run()
    art = runner.artifacts
    assert art.exit_code == EXIT_OK and report.steps_succeeded == 5
    document = json.loads(art.detailed_results_path.read_text())
    section = document["recommendations"]
    generated, approved = section["generated"], section["approved_actions"]
    assert generated[0]["machine_id"] == approved[0]["machine_id"] == "M149"
    assert generated[0]["priority_score"] == approved[0]["priority_score"] > 3.9
    # the optimizer's list keeps its Critical score; only the approved copy is edited
    assert [r["priority"] for r in generated] == ["Critical"] * 10
    assert [r["priority"] for r in approved] == ["Routine"] + ["Critical"] * 9
    assert generated[1:] == approved[1:]
    assert json.loads(art.recommendations_path.read_text()) == approved
    assert report.priority_distribution == {"Critical": 9, "Routine": 1}
    assert document["review"]["adjustments"] == [
        {"machine_id": "M149", "field": "priority", "new_value": "Routine"}]
    assert "recommendations" not in document["review"]
    assert art.records[RECOMMEND].recommendations[0].priority == "Critical"
    assert art.records[SUMMARIZE].recommendations[0].priority == "Routine"


def test_interactive_target_prompt_feeds_schema(maintenance_csv, tmp_path):
    config = config_for(maintenance_csv, tmp_path, auto_approve=False)
    script = "Failure_Probability\nauto\n\na\n"
    runner = WorkflowRunner(
        config, io=ReviewIO(io.StringIO(script), io.StringIO()),
        clock=TickClock(),
    )
    runner.run()
    assert runner.artifacts.records[PREPROCESS].schema.chosen_target == "Failure_Probability"
    assert runner.artifacts.task == "regression"


def test_anomaly_override_skips_target_prompt(tmp_path):
    # with the task forced to anomaly the target is unused, so the two
    # candidate columns must not trigger an interactive selection prompt
    path = tmp_path / "network.csv"
    write_csv(network_frame(n_rows=800, seed=13, n_outliers=8), path)
    config = config_for(str(path), tmp_path, task="anomaly_detection",
                        contamination=0.01, auto_approve=False)
    script = "\na\n"      # contamination prompt, then review approve
    runner = WorkflowRunner(
        config, io=ReviewIO(io.StringIO(script), io.StringIO()),
        clock=TickClock(),
    )
    report = runner.run()
    assert report.steps_succeeded == 5
    assert runner.artifacts.records[SUMMARIZE].status == "approved"


@pytest.mark.parametrize("answer, approved", [
    ("2", 0.01), ("-1", 0.01), ("0", 0.01), ("lots", 0.01), ("0.5", 0.5),
    ("auto", "auto"),
])
def test_reviewer_contamination_must_be_in_range(
        maintenance_csv, tmp_path, answer, approved):
    config = config_for(maintenance_csv, tmp_path, contamination=0.01,
                        auto_approve=False)
    runner = WorkflowRunner(
        config, io=ReviewIO(io.StringIO(answer + "\n"), io.StringIO()),
        clock=TickClock(),
    )
    assert runner._approve_contamination() == approved
    approvals = [r.payload for r in runner.audit.records if r.event == "parameter_approved"]
    typed = approved != 0.01        # a refused answer keeps the default, unrecorded
    assert approvals == ([{"parameter": "contamination", "value": approved}] if typed else [])


def test_anomaly_run_produces_advisories(tmp_path):
    path = tmp_path / "network.csv"
    write_csv(network_frame(n_rows=2000, seed=13, n_outliers=20), path)
    config = config_for(str(path), tmp_path, task="anomaly_detection",
                        contamination=0.01)
    report, artifacts = run_workflow(config, clock=TickClock())
    assert artifacts.task == "anomaly_detection"
    assert artifacts.best_result.metrics.anomaly_count == 20
    assert 0 < len(artifacts.recommendations) <= 50
    assert sum(report.priority_distribution.values()) == report.recommendations_total
    assert all(r.advisory for r in artifacts.recommendations)
    flagged_features = {
        name
        for rec in artifacts.recommendations if rec.priority == "Elevated"
        for name, _ in rec.contributing_features
    }
    assert "Packet_Loss_Rate" in flagged_features
    assert "Network_Latency" in flagged_features


def test_advisory_forest_only_for_supervised_runs(maintenance_csv, tmp_path, monkeypatch):
    fits = []
    real = analytics.advisory_importances

    def counted(*args):
        fits.append(args[3])
        return real(*args)
    monkeypatch.setattr(analytics, "advisory_importances", counted)
    path = tmp_path / "network.csv"
    write_csv(network_frame(n_rows=800, seed=13, n_outliers=8), path)
    _, anomaly = run_workflow(
        config_for(str(path), tmp_path, task="anomaly_detection"), clock=TickClock())
    prep = anomaly.records[PREPROCESS]
    assert prep.schema.chosen_target is not None
    assert anomaly.records[RECOMMEND].importances is None
    assert prep.feature_report.mutual_information
    assert fits == []

    _only_candidate(monkeypatch, "svm_rbf_clf")
    _, classified = run_workflow(config_for(maintenance_csv, tmp_path), clock=TickClock())
    assert classified.task == "classification"
    names = classified.records[PREPROCESS].feature_names
    assert list(classified.records[RECOMMEND].importances) == names
    assert fits == ["classification"]


@pytest.mark.parametrize("contamination", ["auto", 0.01, 0.5])
def test_config_accepts_auto_or_a_fraction(tmp_path, contamination):
    config = config_for("x.csv", tmp_path, contamination=contamination)
    assert config.contamination == contamination


@pytest.mark.parametrize("contamination", [
    2, 1, -1, 0, 0.51, float("nan"), True, "0.1", None,
])
def test_config_rejects_contamination_out_of_range(tmp_path, contamination):
    with pytest.raises(ValueError, match="contamination"):
        config_for("x.csv", tmp_path, contamination=contamination)


@pytest.mark.parametrize("task", [None, "classification", "regression", "anomaly_detection"])
def test_config_accepts_a_known_task_or_none(tmp_path, task):
    assert config_for("x.csv", tmp_path, task=task).task == task


@pytest.mark.parametrize("task", ["anomaly", "auto", "Classification", "", 1])
def test_config_rejects_an_unknown_task(tmp_path, task):
    with pytest.raises(ValueError, match="task"):
        config_for("x.csv", tmp_path, task=task)


def test_regression_run_ranks_by_priority_score(tmp_path):
    path = tmp_path / "failure.csv"
    write_csv(failure_frame(n_rows=600, seed=11), path)
    report, artifacts = run_workflow(
        config_for(str(path), tmp_path), clock=TickClock())
    assert artifacts.task == "regression"
    assert artifacts.best_result.metrics.r2 > 0.9
    scores = [r.priority_score for r in artifacts.recommendations]
    assert scores == sorted(scores, reverse=True)


def test_adaptive_exploration_on_nonlinear_target(tmp_path, rng):
    # product target: linear families score r2 ~ 0, which trips the
    # adaptive trigger and hands the run to a nonlinear family
    n = 400
    x1 = rng.uniform(-2.0, 2.0, n)
    x2 = rng.uniform(-2.0, 2.0, n)
    import csv as _csv
    path = tmp_path / "nonlinear.csv"
    with open(path, "w", newline="") as handle:
        writer = _csv.writer(handle)
        writer.writerow(["Machine_ID", "x1", "x2", "wear_target"])
        for i in range(n):
            writer.writerow([f"M{i:03d}", round(x1[i], 5), round(x2[i], 5),
                             round(x1[i] * x2[i], 5)])
    config = config_for(str(path), tmp_path, target="wear_target")
    report, artifacts = run_workflow(config, clock=TickClock())
    assert artifacts.task == "regression"
    log = artifacts.records[ANALYZE]
    assert len(log.attempts) == 5                  # all candidates explored
    assert "below" in log.trigger_reason
    best = artifacts.best_result
    assert best.spec.family in ("random_forest_reg", "svr_rbf")
    assert best.metrics.r2 > 0.5
    families = [r.spec.family for r in log.attempts]
    assert families[0] == "linear_regression"


def test_dataset_without_identifier_uses_row_ids(tmp_path, rng):
    import csv as _csv
    path = tmp_path / "plain.csv"
    n = 120
    with open(path, "w", newline="") as handle:
        writer = _csv.writer(handle)
        writer.writerow(["temp", "wear_level"])
        for i in range(n):
            t = rng.normal(50.0, 10.0)
            writer.writerow([round(t, 3), "High" if t > 55 else "Low"])
    config = config_for(str(path), tmp_path, target="wear_level")
    report, artifacts = run_workflow(config, clock=TickClock())
    assert report.steps_succeeded == 5
    assert all(r.machine_id.startswith("row-")
               for r in artifacts.recommendations)


def test_max_steps_caps_the_loop(maintenance_csv, tmp_path):
    # a cap reached before summarize is a failed run, as when the planner
    # finishes early
    config = config_for(maintenance_csv, tmp_path, max_steps=2)
    report, artifacts = run_workflow(config, clock=TickClock())
    assert report.steps_total == report.steps_succeeded == 2
    assert artifacts.exit_code == EXIT_DATA_ERROR
    assert artifacts.failure == {
        "stage": ANALYZE, "reason": "StepCapError",
        "error": f"the step cap of 2 was reached before {ANALYZE}",
    }
    assert artifacts.recommendations_path is None


def test_insights_flow_into_report_numbers(maintenance_csv, tmp_path):
    report, artifacts = run_workflow(
        config_for(maintenance_csv, tmp_path), clock=TickClock())
    feature_report = artifacts.records[PREPROCESS].feature_report
    assert report.feature_kept == len(feature_report.kept)
    assert report.feature_removed == len(feature_report.removed)
    assert report.dataset_name == "maintenance.csv"
    assert report.task_kind == "classification"
    assert report.model_name == "RandomForestClassifier"
    assert report.feature_columns == 7
    assert "accuracy: " in artifacts.summary_text


def test_tactical_advice_never_changes_directives(maintenance_csv, tmp_path):
    plain = run_workflow(
        config_for(maintenance_csv, tmp_path, log_dir=str(tmp_path / "plain")),
        clock=TickClock(),
    )[1]
    advised = run_workflow(
        config_for(maintenance_csv, tmp_path, log_dir=str(tmp_path / "advised")),
        slm_backend=ScriptedBackend(["use median impute"]),
        clock=TickClock(),
    )[1]
    plain_plan, advised_plan = (a.records[PREPROCESS].plan for a in (plain, advised))
    assert "tactical note: use median impute" in advised_plan.advisory_notes
    for name, directive in plain_plan.directives.items():
        other = advised_plan.directives[name]
        assert (directive.imputation, directive.scaling, directive.encoding) == \
            (other.imputation, other.scaling, other.encoding)


def test_failing_tactical_backend_records_a_lesson(maintenance_csv, tmp_path):
    _, artifacts = run_workflow(
        config_for(maintenance_csv, tmp_path),
        slm_backend=UnavailableBackend(),
        clock=TickClock(),
    )
    lessons = [
        record["payload"]["pattern"]
        for record in _audit_records(artifacts)
        if record["event"] == "lesson_recorded"
    ]
    assert any("tactical backend" in lesson for lesson in lessons)


def test_every_decision_and_interaction_audited_exactly_once(
        maintenance_csv, tmp_path):
    _, artifacts = run_workflow(
        config_for(maintenance_csv, tmp_path), backend=scripted_full_run(),
        clock=TickClock(),
    )
    records = _audit_records(artifacts)
    decisions = [r for r in records if r["event"] == "planner_decision"]
    assert len(decisions) == 6                      # five tools plus finish
    assert all(r["payload"]["reason"] for r in decisions)
    reviews = [r for r in records if r["event"] == "recommendation_review"]
    assert len(reviews) == 1
    attempts = [r for r in records if r["event"] == "model_attempt"]
    assert len(attempts) == len(artifacts.attempts)


def test_unexpected_step_exception_logs_its_traceback(
        maintenance_csv, tmp_path, monkeypatch, caplog):
    def broken(*args, **kwargs):
        raise RuntimeError("a bug in a stage")

    monkeypatch.setattr(analytics, "select_candidates", broken)
    with caplog.at_level("WARNING", logger="rxmflow.runner"):
        _, artifacts = run_workflow(
            config_for(maintenance_csv, tmp_path), clock=TickClock())
    failed = [r for r in caplog.records if "step analyze_data failed" in r.getMessage()]
    assert failed and all(r.exc_info[0] is RuntimeError for r in failed)
    assert artifacts.failure["error"] == "a bug in a stage"
    logs = tmp_path / "logs"
    for path in [*logs.glob("audit_*.jsonl"), *logs.glob("detailed_results_*.json")]:
        assert "Traceback" not in path.read_text()


def test_engine_error_step_failure_logs_no_traceback(tmp_path, caplog):
    case = sorted(DEGENERATE_TARGETS)[0]
    path = write_target_csv(tmp_path / f"{case}.csv", DEGENERATE_TARGETS[case])
    with caplog.at_level("WARNING", logger="rxmflow.runner"):
        run_workflow(config_for(path, tmp_path), clock=TickClock())
    failed = [r for r in caplog.records if "step preprocess_data failed" in r.getMessage()]
    assert failed and not any(r.exc_info for r in failed)


def test_audit_log_parses_with_monotone_timestamps(maintenance_csv, tmp_path):
    _, artifacts = run_workflow(
        config_for(maintenance_csv, tmp_path), clock=TickClock())
    audit_path = sorted(
        artifacts.detailed_results_path.parent.glob("audit_*.jsonl"))[0]
    stamps = []
    for line in audit_path.read_text().splitlines():
        record = json.loads(line)                   # every line is valid JSON
        assert set(record) == {"timestamp", "actor", "event", "payload"}
        stamps.append(record["timestamp"])
    assert stamps == sorted(stamps)


def test_evaluation_is_deterministic_across_runs(maintenance_csv, tmp_path):
    results = []
    for run in ("a", "b"):
        _, artifacts = run_workflow(
            config_for(maintenance_csv, tmp_path,
                       log_dir=str(tmp_path / f"det-{run}")),
            clock=TickClock(),
        )
        results.append((
            artifacts.best_result.metrics.accuracy,
            tuple(artifacts.best_result.test_predictions),
            tuple(sorted(artifacts.best_result.feature_importances.items())),
        ))
    assert results[0] == results[1]


def test_replay_is_byte_identical(maintenance_csv, tmp_path):
    outputs = []
    for run in ("one", "two"):
        config = config_for(maintenance_csv, tmp_path,
                            log_dir=str(tmp_path / run))
        _, artifacts = run_workflow(
            config, backend=scripted_full_run(), clock=TickClock())
        outputs.append((
            artifacts.recommendations_path.read_bytes(),
            artifacts.detailed_results_path.read_bytes(),
        ))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def _only_candidate(monkeypatch, family):
    select = analytics.select_candidates

    def only(*args, **kwargs):
        return [spec for spec in select(*args, **kwargs) if spec.family == family]
    monkeypatch.setattr(analytics, "select_candidates", only)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# digests of the run whose advisory forest is fitted on the pipeline's
# training matrix, and whose detailed results print the winner's own
# importances (null) and the advisory ones under `recommendations`
@pytest.mark.parametrize("family, frame, digests", [
    ("svm_rbf_clf", lambda: maintenance_frame(n_rows=400, seed=7), (
        "b871481a01f6b59dc2b0ecc59ecac665ff8bd750348450c270bf3843394d23d9",
        "8bdcbdfc449487307932d82b32b4964ce4c174efd20b302ed74f925b4e38df60",
        "6867a6b16cdc7e61be8bdd1564ee21e4268477b8de0758f0a383204acb8cebf3",
    )),
    ("svr_rbf", lambda: failure_frame(n_rows=600, seed=11), (
        "6a32bf13d95af8c1932d73f2006ed40986a7958bab8ab14f3c58de014c5145cf",
        "250d47a9320f0e54e9271af8f422fb2b82ef25807aaf1cee3cd420b3f41b78f2",
        "f4cf1fc2829bbc410286a5bf9d12832ac121ce125e9c822200a9d25c627bf16f",
    )),
])
def test_svm_winner_reads_the_advisory_importances(tmp_path, monkeypatch,
                                                   family, frame, digests):
    _only_candidate(monkeypatch, family)
    path = tmp_path / "svm.csv"
    write_csv(frame(), path)
    report, artifacts = run_workflow(config_for(str(path), tmp_path), clock=TickClock())
    assert report.steps_succeeded == 5
    best = artifacts.best_result
    assert best.spec.family == family
    assert best.feature_importances is None
    importances = artifacts.records[RECOMMEND].importances
    assert list(importances) == artifacts.records[PREPROCESS].feature_names
    detailed = json.loads(artifacts.detailed_results_path.read_text())
    [attempt] = detailed["model_attempts"]
    assert attempt["feature_importances"] is None
    assert detailed["recommendations"]["advisory_importances"] == importances
    assert (
        _sha256(json.dumps(importances).encode()),
        _sha256(artifacts.recommendations_path.read_bytes()),
        _sha256(artifacts.detailed_results_path.read_bytes()),
    ) == digests


def _fit_no_advisory_forest(*args, **kwargs):
    raise AssertionError("advisory forest fitted")


@pytest.mark.parametrize("family, frame", [
    ("random_forest_clf", lambda: maintenance_frame(n_rows=400, seed=7)),
    ("logistic_regression", lambda: maintenance_frame(n_rows=400, seed=7)),
    ("linear_regression", lambda: failure_frame(n_rows=600, seed=11)),
    ("random_forest_reg", lambda: failure_frame(n_rows=600, seed=11)),
])
def test_winner_with_own_importances_fits_no_advisory_forest(
        tmp_path, monkeypatch, family, frame):
    _only_candidate(monkeypatch, family)
    monkeypatch.setattr(analytics, "advisory_importances", _fit_no_advisory_forest)
    path = tmp_path / "own.csv"
    write_csv(frame(), path)
    report, artifacts = run_workflow(config_for(str(path), tmp_path), clock=TickClock())
    assert report.steps_succeeded == 5
    assert artifacts.best_result.spec.family == family
    assert artifacts.best_result.feature_importances
    assert artifacts.records[RECOMMEND].importances is artifacts.best_result.feature_importances


def _maintenance():
    return maintenance_frame(n_rows=400, seed=7)


def _failure():
    return failure_frame(n_rows=600, seed=11)


@pytest.mark.parametrize("family, frame", [
    ("svm_rbf_clf", _maintenance), ("svr_rbf", _failure),
])
def test_advisory_forest_fits_rows_of_the_training_matrix(tmp_path, monkeypatch,
                                                          family, frame):
    _only_candidate(monkeypatch, family)
    fitted = []
    for model in (forest.RandomForestClassifier, forest.RandomForestRegressor):
        def spy(self, X, y, real=model.fit):
            fitted.append(np.array(X, dtype=float))
            return real(self, X, y)
        monkeypatch.setattr(model, "fit", spy)
    path = tmp_path / "svm.csv"
    write_csv(frame(), path)
    _, artifacts = run_workflow(config_for(str(path), tmp_path), clock=TickClock())
    [X] = fitted
    X_train = artifacts.records[PREPROCESS].X_train
    assert X.shape == (round(analytics.IMPORTANCE_SUBSAMPLE * len(X_train)), X_train.shape[1])
    train = {row.tobytes() for row in X_train}
    assert all(row.tobytes() in train for row in X)


def _driven_by_technician(frame, target, value):
    """`frame` with its target rewritten as value(Technician_Available, target)."""
    columns = [list(cells) for cells in frame.columns]
    j = frame.column_names.index(target)
    columns[j] = [value(t, c) for t, c in zip(frame.column("Technician_Available"), columns[j])]
    return replace(frame, columns=columns)


@pytest.mark.parametrize("family, frame, options", [
    ("svm_rbf_clf", lambda: _driven_by_technician(
        _maintenance(), "Maintenance_Priority", lambda t, c: "High" if t == "No" else "Low",
    ), {}),
    ("svr_rbf", lambda: _driven_by_technician(
        _failure(), "Failure_Probability", lambda t, c: c + (0.3 if t == "No" else 0.0),
    ), {"include_routine": True}),
])
def test_a_categorical_driver_contributes_to_svm_recommendations(
        tmp_path, monkeypatch, family, frame, options):
    # the advisory importances are keyed by the one-hot names the
    # recommender finds in the feature matrix, so the driver has weight
    _only_candidate(monkeypatch, family)
    path = tmp_path / "driven.csv"
    write_csv(frame(), path)
    _, artifacts = run_workflow(config_for(str(path), tmp_path, **options), clock=TickClock())
    assert artifacts.best_result.spec.family == family
    recommendations = artifacts.records[RECOMMEND].recommendations
    assert recommendations
    for rec in recommendations:
        driver = {name: w for name, w in rec.contributing_features
                  if name.startswith("Technician_Available=")}
        assert driver and all(w > 0 for w in driver.values())


def test_numeric_machine_ids_keep_one_recommendation_each(tmp_path):
    # ids such as 1000123.0 all read "1.00012e+06" at "%g"
    frame = _maintenance()
    columns = [list(cells) for cells in frame.columns]
    columns[frame.column_names.index("Machine_ID")] = [
        float(1000001 + i) for i in range(frame.n_rows)]
    path = tmp_path / "ids.csv"
    write_csv(replace(frame, columns=columns), path)
    _, artifacts = run_workflow(config_for(str(path), tmp_path), clock=TickClock())
    prep = artifacts.records[PREPROCESS]
    assert [float(key) for key in prep.ids_test] == [1000001 + i for i in prep.test_rows]
    ids = [rec.machine_id for rec in artifacts.records[RECOMMEND].recommendations]
    assert len(ids) == len(set(ids)) > 1


def _noisy_maintenance():
    return maintenance_frame(n_rows=400, seed=7, noise=3.0, margin=0.0)


def _noisy_failure():
    return failure_frame(n_rows=600, seed=11, noise=5.0)


def _small_network():
    return network_frame(n_rows=800, seed=13, n_outliers=8)


ANOMALY_RUN = dict(task="anomaly_detection", contamination=0.02)


@pytest.mark.parametrize("frame, options", [
    (_small_network, ANOMALY_RUN),
    (_maintenance, {}),
])
def test_an_anomaly_run_transforms_its_rows_once(tmp_path, monkeypatch, frame, options):
    real_apply = runner_module.apply_pipeline
    transformed = []

    def spy(pipeline, frame, rows):
        transformed.append(rows)
        return real_apply(pipeline, frame, rows)

    monkeypatch.setattr(runner_module, "apply_pipeline", spy)
    path = tmp_path / "rows.csv"
    write_csv(frame(), path)
    report, artifacts = run_workflow(
        config_for(str(path), tmp_path, **options), clock=TickClock())
    assert report.steps_succeeded == 5
    prep = artifacts.records[PREPROCESS]
    if prep.task == analytics.ANOMALY:
        assert transformed == [prep.train_rows]
        assert prep.X_test is prep.X_train
    else:
        assert transformed == [prep.train_rows, prep.test_rows]
    assert prep.X_test.shape[0] == len(prep.ids_test) == len(prep.test_rows)


# digests of the runs from before the model families moved into one table:
# each family on its own, and two noisy frames where the adaptive search
# tries every candidate (logistic regression wins of 3, lasso of 5)
@pytest.mark.parametrize("family, winner, frame, options, digests", [
    ("random_forest_clf", "random_forest_clf", _maintenance, {}, (
        "2ed812a679d0515570a9a3302ed3f7e5e5e9b30cf16252e960170ae6e9217ff3",
        "ed28c6eab83d26f2d6440994d2fc77e8a9ac7e18a177aa128f51da3f14a437bc",
        "aadedaccb3ee33231bdc720b7e2e0027f53a130a7c8cc29e841e0dafae1858de",
    )),
    ("logistic_regression", "logistic_regression", _maintenance, {}, (
        "407839691ee30c1d147012727e92af2925652aeee08d609d60a54a5570e59364",
        "400c4adbc11a855884842a0eced6a977ad68e809416da6cbadee0c21ec8f17c2",
        "5a8520fb67b147dea74c817acdd632ce1dca27872a030519851418eedb30c0bd",
    )),
    ("linear_regression", "linear_regression", _failure, {}, (
        "f1deb098963a91ce2afaf244fb478daa9feb437fb963f42ec638f9874ad2eca1",
        "a407c5455c06116878b43a1e316d5c6a450f5a5587cdcf9a580389b52c7c201c",
        "66c81b4f79c5c19b344768b64173649c59d29000e8f76a4b257cebdc26340487",
    )),
    ("ridge", "ridge", _failure, {}, (
        "c6fc4a65e47c3741aaddb4456a761736c324693991a0855819abb24521fb1228",
        "7164dba2173fbc992bd164e9fe71d9f2565430061e691b2673e761b3dbf915e8",
        "65dd954bd83855e874322d5342187eed91cbe3b0c095a03d2dd0d9bac6ecf93c",
    )),
    ("lasso", "lasso", _failure, {}, (
        "909ebaa7e8ea26550e361d57dad1860d0e07a4ce2a87e63c33703612dfbdff1c",
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "a8a8ff8194e6df963d844459bede24a195e5f2dffe97a4a48a31f9a092703d51",
    )),
    ("random_forest_reg", "random_forest_reg", _failure, {}, (
        "cbcba51593b8750445b862be145a117aaf26a6222b5866a3eff8066c3d667a39",
        "889954fb61445df1dfc1f72a8337f23150e9cf56743c2c602c6a9a8cf2102430",
        "d74be6be00ffbc7bf9e4e61a8995da51f5541f60ea0a5744f5a883c61438aae5",
    )),
    ("isolation_forest", "isolation_forest", _small_network, ANOMALY_RUN, (
        "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
        "d9fd5c618b7fe45b81eda949a2301a3650bdf73b54e04b2508d4ed01b0b812b9",
        "1ca912bda0cf2210f256882c2de1de46d32e27f46798ca105bc9ec173edbc9e5",
    )),
    (None, "logistic_regression", _noisy_maintenance, {}, (
        "0d93fe351baeb694cc2efd85c733579edbb69301139ec6ada4c8a41d7cb0cc5b",
        "38e3818e753ff3227cbd46f158d31f9b7f46ad0e6e2bb84cb3fd65fa7ac7bf35",
        "42d3dec038b8b5914c6fe16bcac4a011ecc0bf4e77ca3ef273e960e4bf9f8e54",
    )),
    (None, "lasso", _noisy_failure, {}, (
        "909ebaa7e8ea26550e361d57dad1860d0e07a4ce2a87e63c33703612dfbdff1c",
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "b21a8d81b5140e32070e786b86e27fee07c72a960456c95a44b5d080b9162903",
    )),
])
def test_run_bytes_are_pinned(tmp_path, monkeypatch, family, winner, frame,
                              options, digests):
    if family is not None:
        _only_candidate(monkeypatch, family)
    path = tmp_path / "pinned.csv"
    write_csv(frame(), path)
    report, artifacts = run_workflow(
        config_for(str(path), tmp_path, **options), clock=TickClock())
    assert report.steps_succeeded == 5
    assert artifacts.best_result.spec.family == winner
    assert (
        _sha256(json.dumps(artifacts.best_result.feature_importances).encode()),
        _sha256(artifacts.recommendations_path.read_bytes()),
        _sha256(artifacts.detailed_results_path.read_bytes()),
    ) == digests


def _snapshot_records(monkeypatch):
    """Wrap each stage method so it pickles the record it returns; returns
    the (stage, record, bytes) list the wrappers fill."""
    snapshots = []

    def snapshotting(tool, stage):
        def run(self):
            record, summary, insights = stage(self)
            snapshots.append((tool, record, pickle.dumps(record)))
            return record, summary, insights
        return run
    for tool in TOOLS:
        stage = getattr(WorkflowRunner, f"_{tool}")
        monkeypatch.setattr(WorkflowRunner, f"_{tool}", snapshotting(tool, stage))
    return snapshots


# a forest winner, an SVR winner that ranks by the advisory forest's
# importances, an anomaly run and an interactive review that edits a priority
@pytest.mark.parametrize("family, frame, options, review_input", [
    (None, _maintenance, {}, None),
    ("svr_rbf", _failure, {}, None),
    (None, _small_network, ANOMALY_RUN, None),
    (None, _maintenance, {"auto_approve": False}, ADJUST_FIRST_TO_ROUTINE),
], ids=["forest", "svr_advisory", "anomaly", "adjusted_review"])
def test_no_record_changes_after_its_stage(tmp_path, monkeypatch, family, frame,
                                           options, review_input):
    if family is not None:
        _only_candidate(monkeypatch, family)
    snapshots = _snapshot_records(monkeypatch)
    path = tmp_path / "records.csv"
    write_csv(frame(), path)
    channel = ReviewIO(io.StringIO(review_input or ""), io.StringIO())
    runner = WorkflowRunner(config_for(str(path), tmp_path, **options), io=channel,
                            clock=TickClock())
    report = runner.run()
    assert report.steps_succeeded == 5
    assert [tool for tool, _, _ in snapshots] == list(TOOLS)
    for tool, record, taken in snapshots:
        assert runner.artifacts.records[tool] is record
        assert pickle.dumps(record) == taken, f"the {tool} record changed after its stage"
