"""Model selection, training, evaluation, and the adaptive retry loop.

Every candidate family is one row of the FAMILIES table below. SVM and SVR
are desk-scale models (full kernel matrix) and are skipped above 2000
samples; the skip is logged. Training failures become a status on the
result rather than an exception so the caller can move on to the next
candidate. The adaptive loop triggers only when the first result failed
to train or is strictly below threshold (accuracy < 0.6 or R^2 < 0.1).
"""

from __future__ import annotations

import inspect
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllModelsFailedError, ClassTooSmallError, ConstantTargetError, TooFewSamplesError,
)
from .models import (
    SVC, SVR, IsolationForest, Lasso, LinearRegression, LogisticRegression,
    RandomForestClassifier, RandomForestRegressor, Ridge,
)
from .models.metrics import (
    accuracy_score, classification_report, macro_averages,
    mean_squared_error, r2_score,
)
from .optimize import TargetStats
from .perception import CATEGORICAL, CONSTANT, DatasetMetadata
from .preprocess.schema import SchemaMap
# the task names are defined in workflow; analytics.ANOMALY and the rest stay valid
from .workflow import ANOMALY, CLASSIFICATION, REGRESSION, SUPERVISED, TASKS  # noqa: F401

logger = logging.getLogger(__name__)

STATUS_OK = "ok"
STATUS_FAILED = "training_failed"

SVM_MAX_SAMPLES = 2000

# adaptive search explores the other candidates when the first one's primary
# metric is strictly below its task's threshold
ADAPTIVE_THRESHOLDS = {CLASSIFICATION: 0.6, REGRESSION: 0.1}

# the advisory forest: trees, depth and the share of training rows it fits on
IMPORTANCE_TREES = 25
IMPORTANCE_DEPTH = 8
IMPORTANCE_SUBSAMPLE = 0.5

# family: (task, estimator, hyperparameters), in candidate order per task.
# None marks a value select_candidates works out from its arguments: the
# classification forest has n_estimators = min(100, max(10, n_samples // 10))
# and the isolation forest's contamination is "auto" or an explicit
# fraction. Both SVMs use the rbf kernel, which "kernel" only records.
FAMILIES = {
    "random_forest_clf": (CLASSIFICATION, RandomForestClassifier, {"n_estimators": None}),
    "logistic_regression": (CLASSIFICATION, LogisticRegression, {"max_iter": 1000}),
    "svm_rbf_clf": (CLASSIFICATION, SVC, {"kernel": "rbf", "C": 1.0}),
    "linear_regression": (REGRESSION, LinearRegression, {}),
    "ridge": (REGRESSION, Ridge, {"alpha": 1.0}),
    "lasso": (REGRESSION, Lasso, {"alpha": 1.0}),
    "random_forest_reg": (REGRESSION, RandomForestRegressor, {"n_estimators": 100}),
    "svr_rbf": (REGRESSION, SVR, {"kernel": "rbf", "C": 1.0}),
    "isolation_forest": (
        ANOMALY, IsolationForest, {"n_estimators": 200, "contamination": None}),
}


@dataclass(frozen=True)
class ModelSpec:
    family: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    @property
    def display_name(self) -> str:
        if self.family not in FAMILIES:
            return self.family
        return FAMILIES[self.family][1].__name__


# each supervised task's primary metric: the Metrics field that ranks its
# candidates and that adaptive search tests against the threshold
PRIMARY_METRIC = {CLASSIFICATION: "accuracy", REGRESSION: "r2"}


@dataclass(frozen=True)
class Metrics:
    accuracy: float | None = None
    macro_precision: float | None = None
    macro_recall: float | None = None
    macro_f1: float | None = None
    per_class: dict | None = None
    r2: float | None = None
    mse: float | None = None
    anomaly_count: int | None = None
    anomaly_scores: np.ndarray | None = None

    def primary(self, task: str) -> float | None:
        return getattr(self, PRIMARY_METRIC[task]) if task in PRIMARY_METRIC else None


@dataclass(frozen=True)
class ModelResult:
    spec: ModelSpec
    status: str
    metrics: Metrics | None = None
    feature_importances: dict[str, float] | None = None
    test_predictions: list | None = None
    prediction_confidence: list[float] | None = None
    anomaly_flags: np.ndarray | None = None
    train_target_stats: TargetStats | None = None
    error: str | None = None


@dataclass(frozen=True)
class AdaptiveSearchLog:
    trigger_reason: str
    attempts: list[ModelResult]
    best_index: int
    primary_metric_name: str

    @property
    def best(self) -> ModelResult:
        return self.attempts[self.best_index]


def infer_task(schema: SchemaMap, metadata: DatasetMetadata, override: str | None = None) -> str:
    """Override wins; else a categorical or low-cardinality target means
    classification, a numeric target regression, no target anomaly detection."""
    if override:
        return override
    target = schema.chosen_target
    if target is None:
        return ANOMALY
    profile = metadata.profile(target)
    if profile.inferred_dtype in (CATEGORICAL, CONSTANT):
        return CLASSIFICATION
    if profile.unique_count <= 20:
        return CLASSIFICATION
    return REGRESSION


def select_candidates(task: str, n_samples: int, seed: int = 0,
                      contamination="auto") -> list[ModelSpec]:
    if n_samples < 10:
        raise TooFewSamplesError(f"{n_samples} samples; need at least 10")
    if task not in SUPERVISED:
        task = ANOMALY
    worked_out = {
        "n_estimators": min(100, max(10, n_samples // 10)),
        "contamination": contamination,
    }
    specs = [
        ModelSpec(family, {
            key: worked_out[key] if value is None else value
            for key, value in hyperparameters.items()
        }, seed)
        for family, (family_task, _, hyperparameters) in FAMILIES.items()
        if family_task == task
    ]
    if n_samples > SVM_MAX_SAMPLES:
        kept = [s for s in specs if FAMILIES[s.family][1] not in (SVC, SVR)]
        if len(kept) != len(specs):
            logger.info(
                "skipping SVM/SVR candidates at n=%d (desk-scale limit %d)",
                n_samples, SVM_MAX_SAMPLES,
            )
        specs = kept
    return specs


def split_train_test(n_rows: int, task: str, target_values=None,
                     ratio: float = 0.8, seed: int = 0):
    """Deterministic 80/20-style split; stratified for classification,
    which needs at least 2 classes of at least 2 members each. A regression
    target needs at least 2 values over the training rows."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")
    rng = np.random.default_rng(seed)
    if task != CLASSIFICATION or target_values is None:
        order = rng.permutation(n_rows)
        n_test = int(round(n_rows * (1.0 - ratio)))
        test = np.sort(order[:n_test])
        train = np.sort(order[n_test:])
        if task == REGRESSION and target_values is not None:
            values = {target_values[i] for i in train}
            if len(values) < 2:
                raise ConstantTargetError(
                    f"regression target has {len(values)} value(s) over the "
                    "training rows; need at least 2")
        return train, test

    labels = [str(v) for v in target_values]
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise ClassTooSmallError(f"target has {len(classes)} class(es); need at least 2")
    by_class = {c: [i for i, v in enumerate(labels) if v == c] for c in classes}
    for c, members in by_class.items():
        if len(members) < 2:
            raise ClassTooSmallError(
                f"class {c!r} has {len(members)} member(s); need at least 2"
            )
    train_idx: list[int] = []
    test_idx: list[int] = []
    for c in classes:
        members = np.array(by_class[c])
        rng.shuffle(members)
        n_test = int(round(len(members) * (1.0 - ratio)))
        n_test = min(n_test, len(members) - 1)   # at least one train member
        test_idx.extend(members[:n_test].tolist())
        train_idx.extend(members[n_test:].tolist())
    return np.array(sorted(train_idx)), np.array(sorted(test_idx))


def _build_model(spec: ModelSpec):
    """The family's estimator, given those of the spec's hyperparameters and
    seed that its constructor takes."""
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown model family {spec.family!r}")
    estimator = FAMILIES[spec.family][1]
    accepted = inspect.signature(estimator).parameters
    options = {**spec.hyperparameters, "seed": spec.seed}
    return estimator(**{k: v for k, v in options.items() if k in accepted})


def advisory_importances(X_train, y_train, feature_names, task, seed) -> dict[str, float]:
    """Importances for a selected model without its own: those of a 25-tree
    depth-8 forest fitted on a 50% subsample (at least 10 rows, at most all)
    of the training matrix the model was fitted on, keyed by its features."""
    n = len(y_train)
    take = min(max(10, int(round(IMPORTANCE_SUBSAMPLE * n))), n)
    sub = np.random.default_rng(seed).choice(n, size=take, replace=False)
    if task == CLASSIFICATION:
        model, y = RandomForestClassifier, np.array([str(v) for v in y_train])
    else:
        model, y = RandomForestRegressor, np.asarray(y_train, dtype=float)
    forest = model(
        n_estimators=IMPORTANCE_TREES, max_depth=IMPORTANCE_DEPTH, seed=seed,
    ).fit(X_train[sub], y[sub])
    return _importances(forest, feature_names, None)


def _importances(model, feature_names, X_train) -> dict[str, float] | None:
    if hasattr(model, "feature_importances_"):
        return dict(zip(feature_names, model.feature_importances_.tolist()))
    if hasattr(model, "coef_"):
        coef = np.atleast_2d(np.asarray(model.coef_, dtype=float))
        weights = np.abs(coef).mean(axis=0) * X_train.std(axis=0)
        total = weights.sum()
        if total > 0:
            weights = weights / total
        else:
            weights = np.full(len(feature_names), 1.0 / len(feature_names))
        return dict(zip(feature_names, weights.tolist()))
    return None


def fit_predict_evaluate(
    X_train, y_train, X_test, y_test,
    spec: ModelSpec, task: str,
    feature_names: list[str] | None = None,
) -> ModelResult:
    """Train one candidate and score it on the test rows.

    Never raises on a training problem; the failure is captured on the
    result so the caller can trigger the next candidate. For anomaly
    detection pass the full matrix as both train and test: the forest fits
    on it and scores every row.
    """
    feature_names = feature_names or [
        f"f{i}" for i in range(np.asarray(X_train).shape[1])
    ]
    try:
        if np.asarray(X_train).shape[0] == 0 or np.asarray(X_test).shape[0] == 0:
            raise ValueError("empty train or test matrix")
        model = _build_model(spec)
        if task not in SUPERVISED:
            # anomaly detection: score all rows, flag by the contamination rule
            model.fit(X_train)
            scores = model.score_samples(X_test)
            flags = model.flag(scores)
            return ModelResult(
                spec=spec,
                status=STATUS_OK,
                metrics=Metrics(anomaly_count=int(flags.sum()), anomaly_scores=scores),
                test_predictions=scores.tolist(),
                anomaly_flags=flags,
            )
        confidence = stats = None
        if task == CLASSIFICATION:
            model.fit(X_train, np.array([str(v) for v in y_train]))
            if hasattr(model, "predict_proba"):
                # predict is classes_[argmax(predict_proba)]: score once
                proba = model.predict_proba(X_test)
                predictions = model.classes_[np.argmax(proba, axis=1)]
                confidence = proba.max(axis=1).tolist()
            else:
                predictions = model.predict(X_test)
            truth = [str(v) for v in y_test]
            report = classification_report(truth, predictions.tolist())
            precision, recall, f1 = macro_averages(report)
            metrics = Metrics(
                accuracy=accuracy_score(truth, predictions.tolist()),
                macro_precision=precision,
                macro_recall=recall,
                macro_f1=f1,
                per_class=report,
            )
        else:
            y_tr = np.asarray(y_train, dtype=float)
            model.fit(X_train, y_tr)
            predictions = np.asarray(model.predict(X_test), dtype=float)
            y_te = np.asarray(y_test, dtype=float)
            metrics = Metrics(
                r2=r2_score(y_te, predictions),
                mse=mean_squared_error(y_te, predictions),
            )
            stats = TargetStats(mean=float(y_tr.mean()), std=float(y_tr.std()), n=len(y_tr))
        importances = _importances(model, feature_names, np.asarray(X_train, dtype=float))
        return ModelResult(spec, STATUS_OK, metrics, importances, predictions.tolist(),
                           prediction_confidence=confidence, train_target_stats=stats)
    except Exception as exc:      # captured, never propagated
        logger.warning("training failed for %s: %s", spec.family, exc)
        return ModelResult(spec=spec, status=STATUS_FAILED, error=str(exc))


def adaptive_search(
    X_train, y_train, X_test, y_test,
    task: str,
    first_result: ModelResult,
    candidates: list[ModelSpec],
    feature_names: list[str] | None = None,
    trainer=None,
) -> AdaptiveSearchLog:
    """Explore the remaining candidates when the first misses the trigger.

    A first candidate that failed to train triggers exploration too.
    Boundaries are strict: accuracy exactly 0.6 or R^2 exactly 0.1 do not
    trigger exploration. Raises AllModelsFailedError, with the attempts,
    when no candidate trained. `trainer` exists so tests can script metric
    sequences; it defaults to fit_predict_evaluate.
    """
    trainer = trainer or (
        lambda spec: fit_predict_evaluate(
            X_train, y_train, X_test, y_test, spec, task,
            feature_names=feature_names,
        )
    )
    primary_name = PRIMARY_METRIC.get(task, "anomaly_count")
    threshold = ADAPTIVE_THRESHOLDS.get(task)
    if first_result.status != STATUS_OK:
        reason = "first model failed to train"
    elif threshold is None:
        reason, candidates = "single-family task; no exploration", []
    elif (first_metric := first_result.metrics.primary(task)) < threshold:
        reason = f"{primary_name}={first_metric:.4f} below {threshold}"
    else:
        reason, candidates = "first model met the performance threshold", []
    attempts = [first_result, *map(trainer, candidates)]
    trained = [i for i, result in enumerate(attempts) if result.status == STATUS_OK]
    if not trained:
        raise AllModelsFailedError(attempts)
    # the best primary metric wins, and the earliest attempt breaks a tie
    best_index = max(trained, key=lambda i: (attempts[i].metrics.primary(task), -i))
    return AdaptiveSearchLog(reason, attempts, best_index, primary_name)
