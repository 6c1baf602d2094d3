"""Turn model output into ranked prescriptive recommendations.

Priority bands for regression come from the training target statistics:

    high threshold     = mean + 2 * std
    critical threshold = mean + 3 * std
    priority score     = (predicted - mean) / std

Label rule (strict on both boundaries): prediction > critical is Critical,
high < prediction <= critical is Elevated, anything else Routine. Routine
recommendations are suppressed unless `include_routine` is set (the CLI's
--include-routine); anomaly-mode output is advisory and keeps its Routine
monitoring entries.

Classification has no z-score, so its priority score is a surrogate:
priority rank plus the model's predicted-class probability, labeled
"class_rank_surrogate" in the serialized output. Per-machine contributing
features are likewise a deterministic surrogate: the top-k global
importances re-weighted by that row's absolute standard-scaled feature
value.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateStdError, MissingImportancesError
from .workflow import ANOMALY

if TYPE_CHECKING:      # avoids a circular import; analytics imports TargetStats
    from .analytics import Metrics, ModelResult

logger = logging.getLogger(__name__)

CRITICAL = "Critical"
ELEVATED = "Elevated"
ROUTINE = "Routine"

_RANK = {CRITICAL: 3, ELEVATED: 2, ROUTINE: 1}

SCORE_Z = "z_score"
SCORE_CLASS_SURROGATE = "class_rank_surrogate"
SCORE_ANOMALY = "anomaly_score"


# priority -> (action, cost in currency units, hours)
ACTION_TABLE = {
    CRITICAL: ("Immediately dispatch maintenance team; inspect and restore", 1000.0, 4.0),
    ELEVATED: ("Schedule inspection within 48 h", 400.0, 2.0),
    ROUTINE: ("Continue monitoring", 50.0, 0.5),
}
# predicted class label -> priority; any other label is Routine
PRIORITY_MAP = {"High": CRITICAL, "Medium": ELEVATED, "Low": ROUTINE}

MAX_RECOMMENDATIONS = 10
MAX_ADVISORIES = 50
TOP_K_FEATURES = 3
EXTREME_Z = 3.0                     # |z| at or above: an extreme feature
MIN_EXTREME_FEATURES = 2            # extreme features that make an inspection
CONFIDENCE_HIGH = 0.8
CONFIDENCE_MEDIUM = 0.6


@dataclass(frozen=True)
class TargetStats:
    mean: float
    std: float          # population convention
    n: int


@dataclass(frozen=True)
class Thresholds:
    high: float
    critical: float
    degenerate: bool = False


@dataclass(frozen=True)
class Recommendation:
    machine_id: str
    priority: str
    priority_score: float
    contributing_features: list[tuple[str, float]]
    action: str
    cost_estimate: float
    time_estimate: float
    advisory: bool = False
    score_kind: str = SCORE_Z

    def to_json(self) -> dict:
        return {
            "machine_id": self.machine_id,
            "priority": self.priority,
            "priority_score": self.priority_score,
            "score_kind": self.score_kind,
            "contributing_features": [
                {"feature": f, "weight": w} for f, w in self.contributing_features
            ],
            "action": self.action,
            "cost_estimate": self.cost_estimate,
            "time_estimate": self.time_estimate,
            "advisory": self.advisory,
        }


@dataclass(frozen=True)
class ConfidenceAssessment:
    level: str                       # high | medium | low
    warning: str | None = None


def thresholds(stats: TargetStats) -> Thresholds:
    high = stats.mean + 2.0 * stats.std
    critical = stats.mean + 3.0 * stats.std
    return Thresholds(high=high, critical=critical, degenerate=stats.std == 0.0)


def priority_score(predicted: float, stats: TargetStats) -> float:
    if stats.std <= 0.0:
        raise DegenerateStdError("target std is zero; priority score undefined")
    return (predicted - stats.mean) / stats.std


def _rank_sort(recommendations: list[Recommendation]) -> list[Recommendation]:
    return sorted(
        recommendations,
        key=lambda r: (-_RANK[r.priority], -r.priority_score, r.machine_id),
    )


def _standardized(feature_matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(feature_matrix, dtype=float)
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return (matrix - mean) / std


def _contributing(importances, feature_names, z_row, k):
    """Top-k global importances, keyed by feature name, re-weighted by the
    row's |z| values."""
    ranked = sorted(importances.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    weighted = [
        (name, weight * abs(float(z_row[feature_names.index(name)])))
        for name, weight in ranked
    ]
    weighted.sort(key=lambda kv: (-kv[1], kv[0]))
    return weighted


def _dedupe_best(recommendations: list[Recommendation]) -> list[Recommendation]:
    best: dict[str, Recommendation] = {}
    for rec in recommendations:
        seen = best.get(rec.machine_id)
        if seen is None or (_RANK[rec.priority], rec.priority_score) > (
            _RANK[seen.priority], seen.priority_score
        ):
            best[rec.machine_id] = rec
    return list(best.values())


def _ranked(rows, identifiers, feature_matrix, feature_names, importances,
            include_routine, score_kind):
    """Draft one recommendation per (priority, score) row, keep each
    machine's best, drop Routine unless `include_routine`, and rank."""
    z = _standardized(feature_matrix)
    drafts = []
    for k, (machine, (priority, score)) in enumerate(zip(identifiers, rows)):
        action, cost, hours = ACTION_TABLE[priority]
        drafts.append(Recommendation(
            machine_id=machine,
            priority=priority,
            priority_score=score,
            contributing_features=_contributing(
                importances, feature_names, z[k], TOP_K_FEATURES
            ),
            action=action,
            cost_estimate=cost,
            time_estimate=hours,
            score_kind=score_kind,
        ))
    recommendations = _dedupe_best(drafts)
    if not include_routine:
        recommendations = [r for r in recommendations if r.priority != ROUTINE]
    return _rank_sort(recommendations)[:MAX_RECOMMENDATIONS]


def recommend_classification(
    result: "ModelResult",
    importances: dict[str, float] | None,
    identifiers: list[str],
    feature_matrix,
    feature_names: list[str],
    include_routine: bool = False,
) -> list[Recommendation]:
    """Map predicted class labels onto priorities and actions; the
    contributing features are ranked by `importances`."""
    if not importances:
        raise MissingImportancesError(
            "classification recommendations need feature importances"
        )
    confidences = result.prediction_confidence or [0.5] * len(identifiers)
    rows = []
    for label, confidence in zip(result.test_predictions, confidences):
        priority = PRIORITY_MAP.get(str(label), ROUTINE)
        rows.append((priority, _RANK[priority] + float(confidence)))
    return _ranked(rows, identifiers, feature_matrix, feature_names, importances,
                   include_routine, SCORE_CLASS_SURROGATE)


def _band(predicted: float, stats: TargetStats, bands: Thresholds) -> tuple[str, float]:
    if bands.degenerate:
        return ROUTINE, 0.0
    if predicted > bands.critical:
        priority = CRITICAL
    elif predicted > bands.high:
        priority = ELEVATED
    else:
        priority = ROUTINE
    return priority, priority_score(predicted, stats)


def recommend_regression(
    result: "ModelResult",
    importances: dict[str, float] | None,
    identifiers: list[str],
    feature_matrix,
    feature_names: list[str],
    include_routine: bool = False,
) -> list[Recommendation]:
    """Band predictions against the training-statistics thresholds; the
    contributing features are ranked by `importances`."""
    stats = result.train_target_stats
    bands = thresholds(stats)
    if bands.degenerate:
        logger.warning(
            "target std is zero; every prediction lands in the Routine band"
        )
    rows = [_band(float(p), stats, bands) for p in result.test_predictions]
    return _ranked(rows, identifiers, feature_matrix, feature_names,
                   importances or {}, include_routine, SCORE_Z)


def recommend_anomaly(
    scores,
    flags,
    feature_matrix,
    identifiers: list[str],
    feature_names: list[str],
) -> list[Recommendation]:
    """Group flagged rows per machine and recommend inspections when two or
    more features show extreme z-scores. All output is advisory; machines
    without extreme deviations get a Routine monitoring entry."""
    scores = np.asarray(scores, dtype=float)
    flags = np.asarray(flags, dtype=bool)
    # full-dataset statistics: the anomaly task runs without a split
    z = _standardized(feature_matrix)

    by_machine: dict[str, list[int]] = {}
    for i in np.nonzero(flags)[0]:
        by_machine.setdefault(identifiers[i], []).append(int(i))

    drafts = []
    for machine, rows in by_machine.items():
        z_max = np.abs(z[rows]).max(axis=0)
        extremes = [
            (feature_names[j], float(z_max[j]))
            for j in np.nonzero(z_max >= EXTREME_Z)[0]
        ]
        extremes.sort(key=lambda kv: (-kv[1], kv[0]))
        if len(extremes) >= MIN_EXTREME_FEATURES:
            priority = ELEVATED
            action = (
                "Inspect; multiple signals outside the normal band: "
                + ", ".join(name for name, _ in extremes)
            )
            features = extremes
        else:
            priority = ROUTINE
            order = np.argsort(-z_max)[:TOP_K_FEATURES]
            features = [(feature_names[j], float(z_max[j])) for j in order]
            action = "Monitor closely over the next observation window"
        _, cost, hours = ACTION_TABLE[priority]
        drafts.append(Recommendation(
            machine_id=machine,
            priority=priority,
            priority_score=float(scores[rows].max()),
            contributing_features=features,
            action=action,
            cost_estimate=cost,
            time_estimate=hours,
            advisory=True,
            score_kind=SCORE_ANOMALY,
        ))
    # advisory mode keeps Routine monitoring entries
    return _rank_sort(drafts)[:MAX_ADVISORIES]


def assess_confidence(metrics: "Metrics", task: str) -> ConfidenceAssessment:
    if task == ANOMALY:
        return ConfidenceAssessment(
            level="medium",
            warning="unsupervised run: no ground truth to validate against",
        )
    value = metrics.primary(task)
    if value is None:
        return ConfidenceAssessment(level="low", warning="reduced reliability: no metric available")
    if value >= CONFIDENCE_HIGH:
        return ConfidenceAssessment(level="high")
    if value >= CONFIDENCE_MEDIUM:
        return ConfidenceAssessment(level="medium")
    return ConfidenceAssessment(
        level="low",
        warning=f"reduced reliability: primary metric {value:.4f} below "
                f"{CONFIDENCE_MEDIUM}",
    )


def recommendations_to_json(recommendations: list[Recommendation]) -> list[dict]:
    return [r.to_json() for r in recommendations]
