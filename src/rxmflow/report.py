"""Final summary rendering and the detailed-results JSON emitter.

render_summary is a pure function of its inputs so it can be golden-file
tested. The detailed-results document is written with sorted keys and a
clock-derived filename, which makes replayed runs byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import SinkUnwritableError
from .optimize import CRITICAL, ELEVATED, ROUTINE
from .review import ReviewOutcome
from .workflow import ANOMALY, CLASSIFICATION, REGRESSION, WorkflowReport

_TASK_DISPLAY = {
    CLASSIFICATION: "Classification",
    REGRESSION: "Regression",
    ANOMALY: "Anomaly Detection",
}

_PREDICTION_HEAD = 50    # serialized prediction lists are capped at this many


def format_metric(name: str, value: float) -> str:
    return f"{name}: {value:.4f} ({value * 100:.2f}%)"


def render_summary(
    report: WorkflowReport,
    model_result=None,
    review: ReviewOutcome | None = None,
    failure: dict | None = None,
) -> str:
    """Human-readable completion summary, section by section. A failed
    run's `failure` ({stage, reason, error}) is named in the completion
    recap."""
    lines = [
        "INTELLIGENT SUMMARY",
        f"Dataset: {report.dataset_name or 'N/A'}",
        f"Problem Type: {_TASK_DISPLAY.get(report.task_kind, 'N/A')}",
        f"Features: {report.feature_columns} columns",
        "",
        "MODEL PERFORMANCE SUMMARY",
    ]
    if model_result is not None and model_result.metrics is not None:
        lines.append(f"1. {model_result.spec.display_name}")
        metrics = model_result.metrics
        if metrics.accuracy is not None:
            lines.append(format_metric("accuracy", metrics.accuracy))
        elif metrics.r2 is not None:
            lines.append(format_metric("r2", metrics.r2))
            lines.append(f"mse: {metrics.mse:.6g}")
        elif metrics.anomaly_count is not None:
            lines.append(f"anomalies flagged: {metrics.anomaly_count}")
    else:
        lines.append("(no model trained)")
    lines += [
        "",
        "FEATURE ANALYSIS RECAP",
        f"Feature kept: {report.feature_kept}",
        f"Feature removed: {report.feature_removed}",
        "",
        "RECOMMENDATION SUMMARY",
        f"Total Recommendations: {report.recommendations_total}",
        "Priority Distribution:",
    ]
    for priority in (CRITICAL, ELEVATED, ROUTINE):
        count = report.priority_distribution.get(priority, 0)
        if count:
            lines.append(f"  {priority}: {count}")
    percent = (
        100.0 * report.steps_succeeded / report.steps_total
        if report.steps_total else 0.0
    )
    lines += [
        "",
        "WORKFLOW COMPLETION RECAP",
        f"Goal: {report.goal or 'N/A'}",
        f"Duration: {report.total_duration:.2f}s",
        f"Steps: {report.steps_succeeded}/{report.steps_total} succeeded ({percent:.1f}%)",
    ]
    if failure is not None:
        lines.append(f"Failed: {failure['stage']} ({failure['reason']}): {failure['error']}")
    lines += ["", "HITL INTERACTIONS"]
    if review is not None:
        lines.append(review.summary_line())
    for note in report.hitl_outcomes:
        if review is None or note != review.summary_line():
            lines.append(note)
    if review is None and not report.hitl_outcomes:
        lines.append("(none)")
    return "\n".join(lines)


def metrics_json(metrics) -> dict | None:
    if metrics is None:
        return None
    out = {
        "accuracy": metrics.accuracy,
        "macro_precision": metrics.macro_precision,
        "macro_recall": metrics.macro_recall,
        "macro_f1": metrics.macro_f1,
        "per_class": metrics.per_class,
        "r2": metrics.r2,
        "mse": metrics.mse,
        "anomaly_count": metrics.anomaly_count,
    }
    scores = metrics.anomaly_scores
    if scores is not None:
        scores = np.asarray(scores, dtype=float)
        out["anomaly_score_summary"] = {
            "rows": int(scores.shape[0]),
            "min": float(scores.min()),
            "mean": float(scores.mean()),
            "max": float(scores.max()),
        }
    return out


def model_attempt_json(result) -> dict:
    """One model attempt, with the model's own feature importances (None for
    a model without them, such as SVM and SVR)."""
    out = {
        "family": result.spec.family,
        "model": result.spec.display_name,
        "hyperparameters": result.spec.hyperparameters,
        "seed": result.spec.seed,
        "status": result.status,
        "error": result.error,
        "metrics": metrics_json(result.metrics),
        "feature_importances": result.feature_importances,
    }
    predictions = result.test_predictions
    if predictions is not None:
        out["predictions_head"] = predictions[:_PREDICTION_HEAD]
        out["predictions_total"] = len(predictions)
    return out


def _timestamped(out_dir, prefix: str, clock) -> Path:
    stamp = clock.now().strftime("%Y%m%d_%H%M%S")
    return Path(out_dir) / f"{prefix}_{stamp}.json"


def _write_json(path: Path, document) -> Path:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True, indent=2)
            handle.write("\n")
    except OSError as exc:
        raise SinkUnwritableError(f"cannot write {path}: {exc}") from None
    return path


def emit_detailed_results(sections: dict, out_dir, clock) -> Path:
    """Write detailed_results_<YYYYMMDD_HHMMSS>.json with sorted keys."""
    return _write_json(_timestamped(out_dir, "detailed_results", clock), sections)


def write_recommendations(recommendations_json: list[dict], out_dir, clock) -> Path:
    """Write recommendations_<YYYYMMDD_HHMMSS>.json with sorted keys."""
    return _write_json(
        _timestamped(out_dir, "recommendations", clock), recommendations_json
    )
