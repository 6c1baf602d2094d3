import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxmflow import analytics
from rxmflow.analytics import (
    ANOMALY, CLASSIFICATION, REGRESSION, Metrics, ModelResult, ModelSpec,
    adaptive_search, fit_predict_evaluate, infer_task, select_candidates,
    split_train_test,
)
from rxmflow.errors import (
    AllModelsFailedError, ClassTooSmallError, ConstantTargetError, TooFewSamplesError,
)
from rxmflow.perception import CATEGORICAL, NUMERIC
from rxmflow.preprocess.schema import SchemaMap

from conftest import make_metadata, make_profile


def schema_with_target(target, roles=None):
    roles = roles or {}
    if target:
        roles[target] = "target_candidate"
    return SchemaMap(roles=roles, chosen_target=target)


def test_infer_task_categorical_target():
    metadata = make_metadata([
        make_profile("Maintenance_Priority", CATEGORICAL, unique_count=3),
    ])
    task = infer_task(schema_with_target("Maintenance_Priority"), metadata)
    assert task == CLASSIFICATION


def test_infer_task_numeric_target():
    metadata = make_metadata([
        make_profile("failure_probability", NUMERIC, unique_count=90),
    ])
    task = infer_task(schema_with_target("failure_probability"), metadata)
    assert task == REGRESSION


def test_infer_task_low_cardinality_numeric_is_classification():
    metadata = make_metadata([
        make_profile("grade", NUMERIC, unique_count=5),
    ])
    assert infer_task(schema_with_target("grade"), metadata) == CLASSIFICATION


def test_infer_task_no_target_and_override():
    metadata = make_metadata([make_profile("x", NUMERIC)])
    assert infer_task(schema_with_target(None), metadata) == ANOMALY
    assert infer_task(schema_with_target(None), metadata, REGRESSION) == REGRESSION


def test_candidate_order_and_table_hyperparameters():
    specs = select_candidates(CLASSIFICATION, 1430)
    assert [s.family for s in specs] == [
        "random_forest_clf", "logistic_regression", "svm_rbf_clf",
    ]
    assert specs[0].hyperparameters["n_estimators"] == 100
    assert specs[1].hyperparameters["max_iter"] == 1000
    assert specs[2].hyperparameters == {"kernel": "rbf", "C": 1.0}

    regression = select_candidates(REGRESSION, 500)
    assert [s.family for s in regression] == [
        "linear_regression", "ridge", "lasso", "random_forest_reg", "svr_rbf",
    ]
    assert regression[1].hyperparameters["alpha"] == 1.0
    assert regression[3].hyperparameters["n_estimators"] == 100

    anomaly = select_candidates(ANOMALY, 1000, contamination=0.01)
    assert anomaly[0].hyperparameters == {
        "n_estimators": 200, "contamination": 0.01,
    }


def test_forest_size_formula_floors_at_ten():
    specs = select_candidates(CLASSIFICATION, 50)
    assert specs[0].hyperparameters["n_estimators"] == 10


def test_svm_dropped_above_desk_scale():
    families = [s.family for s in select_candidates(CLASSIFICATION, 2001)]
    assert "svm_rbf_clf" not in families
    families = [s.family for s in select_candidates(REGRESSION, 100_000)]
    assert "svr_rbf" not in families


def test_too_few_samples():
    with pytest.raises(TooFewSamplesError):
        select_candidates(CLASSIFICATION, 9)


def test_plain_split_sizes():
    train, test = split_train_test(100, REGRESSION, ratio=0.8, seed=0)
    assert len(train) == 80 and len(test) == 20
    assert set(train) | set(test) == set(range(100))
    assert set(train) & set(test) == set()


def test_split_deterministic_given_seed():
    labels = ["a"] * 50 + ["b"] * 30 + ["c"] * 20
    first = split_train_test(100, CLASSIFICATION, labels, 0.8, seed=7)
    second = split_train_test(100, CLASSIFICATION, labels, 0.8, seed=7)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def brute_class_counts(labels, indices):
    out = {}
    for i in indices:
        out[labels[i]] = out.get(labels[i], 0) + 1
    return out


@settings(max_examples=25)
@given(st.integers(0, 10_000))
def test_stratified_split_counts_within_one(seed):
    labels = ["a"] * 50 + ["b"] * 30 + ["c"] * 20
    train, test = split_train_test(100, CLASSIFICATION, labels, 0.8, seed=seed)
    counts = brute_class_counts(labels, test)
    assert abs(counts.get("a", 0) - 10) <= 1
    assert abs(counts.get("b", 0) - 6) <= 1
    assert abs(counts.get("c", 0) - 4) <= 1
    assert len(set(train) & set(test)) == 0
    assert len(train) + len(test) == 100


def test_split_rejects_singleton_class():
    labels = ["a"] * 99 + ["b"]
    with pytest.raises(ClassTooSmallError):
        split_train_test(100, CLASSIFICATION, labels, 0.8, seed=0)


def test_split_rejects_a_single_class():
    with pytest.raises(ClassTooSmallError, match="1 class"):
        split_train_test(100, CLASSIFICATION, ["a"] * 100, 0.8, seed=0)


def test_split_rejects_a_constant_regression_target():
    with pytest.raises(ConstantTargetError, match="1 value"):
        split_train_test(100, REGRESSION, [5.5] * 100, 0.8, seed=0)
    train, _ = split_train_test(100, REGRESSION, [5.5] * 99 + [6.0], 0.8, seed=0)
    assert len(train) == 80


def test_fit_predict_evaluate_classification(rng):
    X = np.vstack([
        rng.normal(loc=-2.0, size=(250, 2)),
        rng.normal(loc=2.0, size=(250, 2)),
    ])
    y = ["lo"] * 250 + ["hi"] * 250
    train, test = split_train_test(500, CLASSIFICATION, y, 0.8, seed=1)
    spec = select_candidates(CLASSIFICATION, 500)[0]
    result = fit_predict_evaluate(
        X[train], [y[i] for i in train], X[test], [y[i] for i in test],
        spec, CLASSIFICATION, feature_names=["f0", "f1"],
    )
    assert result.status == "ok"
    assert result.metrics.accuracy >= 0.95
    assert result.metrics.per_class.keys() == {"lo", "hi"}
    assert result.feature_importances is not None
    assert len(result.prediction_confidence) == len(test)


@pytest.mark.parametrize("family", ["random_forest_clf", "logistic_regression"])
def test_classification_predictions_equal_model_predict(rng, family):
    # overlapping classes, so argmax ties and close calls do occur
    X = np.vstack([rng.normal(loc=c, size=(100, 2)) for c in (-0.5, 0.0, 0.5)])
    y = ["lo"] * 100 + ["mid"] * 100 + ["hi"] * 100
    train, test = split_train_test(300, CLASSIFICATION, y, 0.8, seed=1)
    spec = next(
        s for s in select_candidates(CLASSIFICATION, 300) if s.family == family
    )
    labels = [y[i] for i in train]
    result = fit_predict_evaluate(
        X[train], labels, X[test], [y[i] for i in test], spec, CLASSIFICATION,
    )
    model = analytics._build_model(spec).fit(X[train], np.array(labels))
    assert result.test_predictions == model.predict(X[test]).tolist()


def test_fit_predict_evaluate_regression_attaches_train_stats(rng):
    X = rng.normal(size=(200, 2))
    y = (X @ np.array([2.0, -1.0]) + 5.0).tolist()
    train, test = split_train_test(200, REGRESSION, ratio=0.8, seed=2)
    spec = ModelSpec("linear_regression", {}, seed=0)
    result = fit_predict_evaluate(
        X[train], [y[i] for i in train], X[test], [y[i] for i in test],
        spec, REGRESSION,
    )
    assert result.status == "ok"
    assert result.metrics.r2 >= 0.999
    y_train = np.array([y[i] for i in train])
    assert result.train_target_stats.mean == pytest.approx(y_train.mean())
    assert result.train_target_stats.std == pytest.approx(y_train.std())


def test_training_failure_is_a_status_not_an_exception():
    spec = ModelSpec("linear_regression", {}, seed=0)
    result = fit_predict_evaluate(
        np.zeros((0, 2)), [], np.zeros((0, 2)), [], spec, REGRESSION,
    )
    assert result.status == "training_failed"
    assert result.error


def stub_result(metric, task=CLASSIFICATION, family="stub"):
    metrics = (
        Metrics(accuracy=metric) if task == CLASSIFICATION else Metrics(r2=metric)
    )
    return ModelResult(
        spec=ModelSpec(family, {}, 0), status="ok", metrics=metrics,
    )


def scripted_trainer(values, task=CLASSIFICATION):
    queue = list(values)

    def trainer(spec):
        return stub_result(queue.pop(0), task, spec.family)
    return trainer


def test_adaptive_triggers_and_selects_best():
    candidates = [ModelSpec("second", {}, 0), ModelSpec("third", {}, 0)]
    log = adaptive_search(
        None, None, None, None, CLASSIFICATION,
        stub_result(0.55), candidates,
        trainer=scripted_trainer([0.70, 0.65]),
    )
    assert len(log.attempts) == 3
    assert log.best_index == 1
    assert log.primary_metric_name == "accuracy"


def test_adaptive_boundary_is_strict():
    log = adaptive_search(
        None, None, None, None, CLASSIFICATION,
        stub_result(0.60), [ModelSpec("unused", {}, 0)],
        trainer=scripted_trainer([0.99]),
    )
    assert len(log.attempts) == 1 and log.best_index == 0

    log = adaptive_search(
        None, None, None, None, REGRESSION,
        stub_result(0.10, REGRESSION), [ModelSpec("unused", {}, 0)],
        trainer=scripted_trainer([0.99], REGRESSION),
    )
    assert len(log.attempts) == 1 and log.best_index == 0


def test_adaptive_just_below_boundary_triggers():
    log = adaptive_search(
        None, None, None, None, REGRESSION,
        stub_result(0.0999, REGRESSION), [ModelSpec("b", {}, 0)],
        trainer=scripted_trainer([0.5], REGRESSION),
    )
    assert len(log.attempts) == 2
    assert log.best_index == 1


def test_adaptive_keeps_first_when_others_fail():
    failed = ModelResult(spec=ModelSpec("b", {}, 0), status="training_failed",
                         error="boom")

    def failing_trainer(spec):
        return failed

    log = adaptive_search(
        None, None, None, None, REGRESSION,
        stub_result(0.05, REGRESSION),
        [ModelSpec("b", {}, 0), ModelSpec("c", {}, 0)],
        trainer=failing_trainer,
    )
    assert log.best_index == 0
    assert [r.status for r in log.attempts] == [
        "ok", "training_failed", "training_failed",
    ]


def test_adaptive_tie_prefers_earliest():
    log = adaptive_search(
        None, None, None, None, CLASSIFICATION,
        stub_result(0.5), [ModelSpec("b", {}, 0), ModelSpec("c", {}, 0)],
        trainer=scripted_trainer([0.7, 0.7]),
    )
    assert log.best_index == 1


def test_adaptive_all_failed_raises():
    failed = ModelResult(spec=ModelSpec("a", {}, 0), status="training_failed",
                         error="x")
    with pytest.raises(AllModelsFailedError):
        adaptive_search(
            None, None, None, None, CLASSIFICATION, failed,
            [ModelSpec("b", {}, 0)],
            trainer=lambda spec: failed,
        )


def test_adaptive_explores_every_other_candidate_after_a_failed_first():
    failed = ModelResult(spec=ModelSpec("a", {}, 0), status="training_failed",
                         error="x")
    log = adaptive_search(
        None, None, None, None, CLASSIFICATION, failed,
        [ModelSpec("b", {}, 0), ModelSpec("c", {}, 0)],
        trainer=scripted_trainer([0.9, 0.95]),
    )
    assert log.trigger_reason == "first model failed to train"
    assert len(log.attempts) == 3
    assert log.best is log.attempts[2]


@pytest.mark.parametrize("task, rest", [
    (CLASSIFICATION, [ModelSpec("b", {}, 0), ModelSpec("c", {}, 0)]),
    (ANOMALY, []),
])
def test_all_failed_error_carries_the_attempts(task, rest):
    failed = ModelResult(spec=ModelSpec("a", {}, 0), status="training_failed",
                         error="x")
    with pytest.raises(AllModelsFailedError) as caught:
        adaptive_search(None, None, None, None, task, failed, rest,
                        trainer=lambda spec: failed)
    assert caught.value.attempts == [failed] * (1 + len(rest))


def test_isolation_forest_counts_on_synthetic(rng):
    X = np.vstack([rng.normal(size=(990, 3)), rng.normal(size=(10, 3)) + 8.0])
    spec = select_candidates(ANOMALY, 1000, contamination=0.01)[0]
    result = fit_predict_evaluate(X, None, X, None, spec, ANOMALY)
    assert result.status == "ok"
    assert result.metrics.anomaly_count == 10
    assert result.anomaly_flags.sum() == 10


def test_unknown_family_is_a_failed_attempt(rng):
    X = rng.normal(size=(20, 2))
    y = ["a", "b"] * 10
    result = fit_predict_evaluate(X, y, X, y, ModelSpec("gradient_boost"), CLASSIFICATION)
    assert result.status == "training_failed"
    assert result.error == "unknown model family 'gradient_boost'"
    assert result.spec.display_name == "gradient_boost"
