import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rxmflow import optimize
from rxmflow.analytics import Metrics, ModelResult, ModelSpec
from rxmflow.errors import DegenerateStdError, MissingImportancesError
from rxmflow.optimize import (
    CRITICAL, ELEVATED, ROUTINE, TargetStats, assess_confidence,
    priority_score, recommend_anomaly, recommend_classification,
    recommend_regression, thresholds,
)

finite = st.floats(-1e3, 1e3, allow_nan=False)
positive = st.floats(1e-6, 1e3, allow_nan=False)


def test_thresholds_direct_substitution():
    bands = thresholds(TargetStats(mean=0.5, std=0.05, n=100))
    assert bands.high == pytest.approx(0.6)
    assert bands.critical == pytest.approx(0.65)
    bands = thresholds(TargetStats(mean=10.0, std=2.0, n=10))
    assert bands.high == 14.0 and bands.critical == 16.0


def test_degenerate_std_flags():
    bands = thresholds(TargetStats(mean=3.0, std=0.0, n=5))
    assert bands.high == bands.critical == 3.0
    assert bands.degenerate


def test_priority_score_examples():
    stats = TargetStats(mean=0.5, std=0.05, n=100)
    assert priority_score(0.5, stats) == 0.0
    assert priority_score(0.62, stats) == pytest.approx(2.4)
    assert priority_score(0.66, stats) == pytest.approx(3.2)
    with pytest.raises(DegenerateStdError):
        priority_score(1.0, TargetStats(mean=0.0, std=0.0, n=2))


@given(finite, positive, finite)
def test_threshold_and_score_match_independent_arithmetic(mean, std, predicted):
    stats = TargetStats(mean=mean, std=std, n=10)
    bands = thresholds(stats)
    assert abs(bands.high - (mean + 2 * std)) <= 1e-12 * max(1, abs(mean), std)
    assert abs(bands.critical - (mean + 3 * std)) <= 1e-12 * max(1, abs(mean), std)
    score = priority_score(predicted, stats)
    assert score == pytest.approx((predicted - mean) / std, rel=1e-12, abs=1e-12)


@given(finite, positive, positive)
def test_score_antisymmetric_about_mean(mean, std, delta):
    stats = TargetStats(mean=mean, std=std, n=10)
    assert priority_score(mean + delta, stats) == pytest.approx(
        -priority_score(mean - delta, stats), rel=1e-9, abs=1e-9)


REGRESSION_IMPORTANCES = {"vibration": 0.6, "temperature": 0.4}
CLASSIFICATION_IMPORTANCES = {"Downtime_Cost": 0.5, "Vibration": 0.3, "Pressure": 0.2}


def regression_result(predictions, mean=0.5, std=0.05):
    return ModelResult(
        spec=ModelSpec("linear_regression", {}, 0),
        status="ok",
        metrics=Metrics(r2=0.9, mse=0.001),
        test_predictions=list(predictions),
        train_target_stats=TargetStats(mean=mean, std=std, n=100),
    )


def matrix_for(n, p=2):
    rng = np.random.default_rng(0)
    return rng.normal(size=(n, p))


def test_regression_banding_strict_boundaries():
    # high = 0.6, critical = 0.65
    result = regression_result([0.66, 0.65, 0.61, 0.60, 0.30])
    recs = recommend_regression(
        result, REGRESSION_IMPORTANCES, [f"M{i}" for i in range(5)], matrix_for(5),
        ["vibration", "temperature"], include_routine=True,
    )
    by_machine = {r.machine_id: r.priority for r in recs}
    assert by_machine["M0"] == CRITICAL        # above critical
    assert by_machine["M1"] == ELEVATED        # exactly critical: not above
    assert by_machine["M2"] == ELEVATED
    assert by_machine["M3"] == ROUTINE         # exactly high: not above
    assert by_machine["M4"] == ROUTINE


def test_regression_ranking_and_default_routine_suppression():
    result = regression_result([0.62, 0.612, 0.611, 0.3])
    recs = recommend_regression(
        result, REGRESSION_IMPORTANCES, ["M003", "M007", "M004", "M001"], matrix_for(4),
        ["vibration", "temperature"],
    )
    assert [r.machine_id for r in recs] == ["M003", "M007", "M004"]
    assert all(r.priority == ELEVATED for r in recs)
    assert recs[0].priority_score == pytest.approx((0.62 - 0.5) / 0.05)


def test_regression_nine_critical_one_elevated():
    predictions = [0.66 + i / 1000 for i in range(9)] + [0.62]
    result = regression_result(predictions)
    recs = recommend_regression(
        result, REGRESSION_IMPORTANCES, [f"M{i:03d}" for i in range(10)], matrix_for(10),
        ["vibration", "temperature"],
    )
    counts = {}
    for r in recs:
        counts[r.priority] = counts.get(r.priority, 0) + 1
    assert counts == {CRITICAL: 9, ELEVATED: 1}


def test_regression_degenerate_std_yields_no_actions(caplog):
    result = regression_result([1.0, 2.0], std=0.0)
    recs = recommend_regression(result, REGRESSION_IMPORTANCES, ["M1", "M2"], matrix_for(2),
                                ["vibration", "temperature"])
    assert recs == []


def test_higher_prediction_never_ranks_lower(rng, monkeypatch):
    monkeypatch.setattr(optimize, "MAX_RECOMMENDATIONS", 20)
    predictions = sorted(rng.uniform(0.0, 1.0, 20).tolist(), reverse=True)
    result = regression_result(predictions, mean=0.3, std=0.1)
    recs = recommend_regression(
        result, REGRESSION_IMPORTANCES, [f"M{i:02d}" for i in range(20)], matrix_for(20),
        ["vibration", "temperature"], include_routine=True,
    )
    scores = [r.priority_score for r in recs]
    assert scores == sorted(scores, reverse=True)


def classification_result(labels, confidence=None):
    return ModelResult(
        spec=ModelSpec("random_forest_clf", {}, 0),
        status="ok",
        metrics=Metrics(accuracy=0.97),
        test_predictions=list(labels),
        prediction_confidence=confidence,
    )


def test_classification_mapping_and_distribution():
    labels = ["High"] * 4 + ["Medium"] * 6
    recs = recommend_classification(
        classification_result(labels), CLASSIFICATION_IMPORTANCES,
        [f"M{i:03d}" for i in range(10)],
        matrix_for(10, 3), ["Downtime_Cost", "Vibration", "Pressure"],
    )
    assert len(recs) == 10
    counts = {}
    for r in recs:
        counts[r.priority] = counts.get(r.priority, 0) + 1
    assert counts == {CRITICAL: 4, ELEVATED: 6}
    assert all(r.score_kind == "class_rank_surrogate" for r in recs)
    assert recs[0].priority == CRITICAL
    assert "dispatch" in recs[0].action.lower()


def test_all_routine_suppressed_by_default():
    recs = recommend_classification(
        classification_result(["Low", "Low"]), CLASSIFICATION_IMPORTANCES, ["M1", "M2"],
        matrix_for(2, 3), ["Downtime_Cost", "Vibration", "Pressure"],
    )
    assert recs == []


def test_classification_requires_importances():
    with pytest.raises(MissingImportancesError):
        recommend_classification(classification_result(["High"]), None, ["M1"], matrix_for(1, 3),
                                 ["Downtime_Cost", "Vibration", "Pressure"])


def test_contributing_features_are_reweighted_top_k():
    matrix = np.array([[10.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-10.0, 0.0, 0.0]])
    recs = recommend_classification(
        classification_result(["High", "High", "High"]), CLASSIFICATION_IMPORTANCES,
        ["M1", "M2", "M3"], matrix,
        ["Downtime_Cost", "Vibration", "Pressure"],
    )
    top = dict(recs[0].contributing_features)
    assert set(top) == {"Downtime_Cost", "Vibration", "Pressure"}
    by_machine = {r.machine_id: dict(r.contributing_features) for r in recs}
    assert by_machine["M1"]["Downtime_Cost"] > by_machine["M2"]["Downtime_Cost"]


def test_recommendation_cap():
    labels = ["High"] * 30
    recs = recommend_classification(
        classification_result(labels), CLASSIFICATION_IMPORTANCES, [f"M{i:03d}" for i in range(30)],
        matrix_for(30, 3), ["Downtime_Cost", "Vibration", "Pressure"],
    )
    assert len(recs) == 10


def test_duplicate_machines_keep_best_row():
    recs = recommend_classification(
        classification_result(["High", "Low", "Medium"]), CLASSIFICATION_IMPORTANCES,
        ["M1", "M1", "M1"], matrix_for(3, 3),
        ["Downtime_Cost", "Vibration", "Pressure"],
    )
    assert len(recs) == 1
    assert recs[0].priority == CRITICAL


def test_anomaly_inspection_needs_two_extreme_features():
    rng = np.random.default_rng(3)
    matrix = rng.normal(size=(200, 3))
    matrix[0] = [9.0, 8.0, 0.0]       # two extreme features
    matrix[1] = [9.0, 0.0, 0.0]       # one extreme feature
    scores = np.full(200, 0.4)
    scores[0] = 0.95
    scores[1] = 0.9
    flags = np.zeros(200, dtype=bool)
    flags[0] = flags[1] = True
    recs = recommend_anomaly(
        scores, flags, matrix, [f"M{i:03d}" for i in range(200)],
        ["packet_loss", "latency", "power"],
    )
    assert len(recs) == 2
    first, second = recs
    assert first.priority == ELEVATED and first.machine_id == "M000"
    assert {name for name, _ in first.contributing_features} == {
        "packet_loss", "latency",
    }
    assert second.priority == ROUTINE          # advisory keeps routine
    assert all(r.advisory for r in recs)


def test_anomaly_advisory_cap():
    rng = np.random.default_rng(4)
    matrix = rng.normal(size=(300, 2))
    scores = rng.uniform(0.7, 1.0, 300)
    flags = np.ones(300, dtype=bool)
    recs = recommend_anomaly(
        scores, flags, matrix, [f"M{i:04d}" for i in range(300)],
        ["a", "b"],
    )
    assert len(recs) == 50


def test_confidence_bands():
    assert assess_confidence(Metrics(accuracy=0.9726), "classification").level == "high"
    assert assess_confidence(Metrics(r2=0.9209), "regression").level == "high"
    medium = assess_confidence(Metrics(accuracy=0.7), "classification")
    assert medium.level == "medium" and medium.warning is None
    low = assess_confidence(Metrics(accuracy=0.55), "classification")
    assert low.level == "low"
    assert "reduced reliability" in low.warning
    anomaly = assess_confidence(Metrics(anomaly_count=10), "anomaly_detection")
    assert anomaly.level == "medium"
    assert "unsupervised" in anomaly.warning


def test_confidence_boundaries():
    assert assess_confidence(Metrics(accuracy=0.8), "classification").level == "high"
    assert assess_confidence(Metrics(accuracy=0.6), "classification").level == "medium"
    assert assess_confidence(Metrics(r2=-0.5), "regression").level == "low"


def test_ranking_is_stable_total_order():
    predictions = [0.7, 0.66, 0.66, 0.62]
    result = regression_result(predictions)
    ids = ["M2", "M9", "M1", "M5"]
    first = recommend_regression(result, REGRESSION_IMPORTANCES, ids, matrix_for(4),
                                 ["vibration", "temperature"])
    second = recommend_regression(result, REGRESSION_IMPORTANCES, ids, matrix_for(4),
                                  ["vibration", "temperature"])
    assert [(r.machine_id, r.priority) for r in first] == \
        [(r.machine_id, r.priority) for r in second]
    assert [r.machine_id for r in first] == ["M2", "M1", "M9", "M5"]
