import json
from dataclasses import replace
from pathlib import Path

import pytest

from rxmflow.analytics import Metrics, ModelResult, ModelSpec
from rxmflow.clocks import TickClock
from rxmflow.report import (
    emit_detailed_results, format_metric, model_attempt_json, render_summary,
    write_recommendations,
)
from rxmflow.review import ReviewOutcome
from rxmflow.workflow import WorkflowReport

GOLDEN = Path(__file__).parent / "data" / "summary_golden.txt"

SECTION_HEADERS = (
    "MODEL PERFORMANCE SUMMARY",
    "FEATURE ANALYSIS RECAP",
    "RECOMMENDATION SUMMARY",
    "WORKFLOW COMPLETION RECAP",
    "HITL INTERACTIONS",
)


def reference_report(**overrides):
    fields = dict(
        goal="Generate prioritized maintenance recommendations from the dataset",
        total_duration=39.94,
        steps_succeeded=5,
        steps_total=5,
        feature_kept=5,
        feature_removed=0,
        recommendations_total=10,
        priority_distribution={"Critical": 4, "Elevated": 6},
        hitl_outcomes=(
            "Recommendation Review - approved (action=10, unique_machines=10)",
        ),
        dataset_name="smart_maintenance.csv",
        task_kind="classification",
        feature_columns=7,
        model_name="RandomForestClassifier",
    )
    fields.update(overrides)
    return WorkflowReport(**fields)


def forest_result(accuracy=0.9726):
    return ModelResult(
        spec=ModelSpec("random_forest_clf", {"n_estimators": 100}, 0),
        status="ok",
        metrics=Metrics(accuracy=accuracy, macro_precision=0.97,
                        macro_recall=0.97, macro_f1=0.97),
    )


def test_summary_matches_golden_file():
    text = render_summary(
        reference_report(), forest_result(), ReviewOutcome("approved", 10, 10))
    assert text + "\n" == GOLDEN.read_text()


def test_summary_contains_every_section_header():
    text = render_summary(
        reference_report(), forest_result(), ReviewOutcome("approved", 10, 10))
    for header in SECTION_HEADERS:
        assert header in text


def test_metric_formats_to_four_decimals_and_percent():
    assert format_metric("accuracy", 0.9726) == "accuracy: 0.9726 (97.26%)"
    text = render_summary(reference_report(), forest_result(), None)
    assert "accuracy: 0.9726 (97.26%)" in text


def test_steps_line_shows_ratio_and_percentage():
    text = render_summary(reference_report(), forest_result(), None)
    assert "Steps: 5/5 succeeded (100.0%)" in text
    partial = reference_report(steps_succeeded=3, steps_total=5)
    assert "Steps: 3/5 succeeded (60.0%)" in render_summary(partial, None, None)


def test_zero_recommendations_gives_empty_distribution():
    report = reference_report(recommendations_total=0, priority_distribution={})
    text = render_summary(report, forest_result(), None)
    assert "Total Recommendations: 0" in text
    assert "Critical:" not in text


def test_regression_summary_shows_r2():
    result = ModelResult(
        spec=ModelSpec("linear_regression", {}, 0), status="ok",
        metrics=Metrics(r2=0.9209, mse=0.00023),
    )
    text = render_summary(
        reference_report(task_kind="regression"), result, None)
    assert "r2: 0.9209 (92.09%)" in text
    assert "LinearRegression" in text


def test_failure_is_named_in_the_completion_recap():
    failure = {"stage": "analyze_data", "reason": "AllModelsFailedError",
               "error": "every candidate failed to train"}
    report = reference_report(steps_succeeded=2, steps_total=4)
    lines = render_summary(report, None, None, failure).splitlines()
    recap = lines.index("WORKFLOW COMPLETION RECAP")
    assert lines[recap + 4] == (
        "Failed: analyze_data (AllModelsFailedError): every candidate failed to train")
    assert lines[recap + 5:recap + 7] == ["", "HITL INTERACTIONS"]
    assert not any(line.startswith("Failed:") for line in
                   render_summary(report, None, None).splitlines())


def test_render_summary_is_pure():
    args = (reference_report(), forest_result(), ReviewOutcome("approved", 10, 10))
    assert render_summary(*args) == render_summary(*args)


def test_detailed_results_name_and_sorted_keys(tmp_path):
    clock = TickClock()
    path = emit_detailed_results({"b_section": 1, "a_section": 2}, tmp_path, clock)
    assert path.name == "detailed_results_20251113_214000.json"
    text = path.read_text()
    assert text.index('"a_section"') < text.index('"b_section"')
    assert json.loads(text) == {"a_section": 2, "b_section": 1}


def test_recommendations_writer_roundtrip(tmp_path):
    payload = [{"machine_id": "M004", "priority": "Critical"}]
    path = write_recommendations(payload, tmp_path, TickClock())
    assert path.name.startswith("recommendations_")
    assert json.loads(path.read_text()) == payload


def test_model_attempt_json_caps_predictions():
    result = replace(forest_result(), test_predictions=["High"] * 500,
                     feature_importances={"vibration": 1.0})
    blob = model_attempt_json(result)
    assert blob["feature_importances"] == {"vibration": 1.0}
    assert len(blob["predictions_head"]) == 50
    assert blob["predictions_total"] == 500
    assert blob["model"] == "RandomForestClassifier"
    assert blob["status"] == "ok"


def test_failed_attempt_serializes_error():
    failed = ModelResult(
        spec=ModelSpec("svm_rbf_clf", {}, 0), status="training_failed",
        error="kernel matrix too large",
    )
    blob = model_attempt_json(failed)
    assert blob["status"] == "training_failed"
    assert blob["error"] == "kernel matrix too large"
    assert blob["metrics"] is None
