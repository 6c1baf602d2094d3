"""Feature redundancy analysis: correlations and mutual information.

Mutual information uses the plug-in estimator in nats on a contingency
table, with continuous variables discretized into 10 equal-frequency bins.
Redundant pairs (|r| above the cutoff) lose the member with lower MI
against the target; with no target, or on a tie, the later column goes.
A column is constant when it holds at most one distinct value, and with
no target a categorical column with more than HIGH_CARDINALITY distinct
values is removed; both counts are read from perception's profile, not
from another scan of the cells. No model is fitted here, and importances
are never a removal criterion: the advisory forest
(`analytics.advisory_importances`) is fitted by the recommendations stage,
on the pipeline's training matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NoFeaturesError
from ..perception import DatasetFrame, DatasetMetadata, float_cells
from .plan import HIGH_CARDINALITY
from .schema import FEATURE_CATEGORICAL, FEATURE_NUMERIC, SchemaMap

REASON_CONSTANT = "constant"
REASON_REDUNDANT = "redundant"
REASON_HIGH_CARDINALITY = "high_cardinality_unencodable"

MI_BINS = 10
REDUNDANCY_R = 0.95                 # |r| strictly above: the pair is redundant


@dataclass(frozen=True)
class FeatureReport:
    pearson_correlations: dict[tuple[str, str], float]
    mutual_information: dict[str, float]
    removed: list[tuple[str, str]]
    kept: list[str]


def pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    """Pearson r over the rows where neither value is NaN; None when degenerate."""
    both = ~(np.isnan(x) | np.isnan(y))
    if np.count_nonzero(both) < 2:
        return None
    x, y = x[both], y[both]
    sx, sy = x.std(), y.std()
    if sx == 0.0 or sy == 0.0:
        return None
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


def equal_frequency_bins(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Bin indices via interior quantile boundaries (linear interpolation)."""
    edges = np.quantile(values, np.linspace(0, 1, n_bins + 1)[1:-1])
    return np.searchsorted(edges, values, side="right")


def mutual_information(x_codes: np.ndarray, y_codes: np.ndarray) -> float:
    """Plug-in MI in nats over the joint contingency table."""
    n = x_codes.shape[0]
    if n == 0:
        return 0.0
    xs = np.unique(x_codes, return_inverse=True)[1]
    ys = np.unique(y_codes, return_inverse=True)[1]
    nx = xs.max() + 1
    ny = ys.max() + 1
    joint = np.bincount(xs * ny + ys, minlength=nx * ny).reshape(nx, ny) / n
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    mask = joint > 0
    return float(np.sum(joint[mask] * np.log(joint[mask] / np.outer(px, py)[mask])))


def _discrete_codes(cells: list, floats: np.ndarray | None, n_bins: int) -> np.ndarray:
    """Per-row codes of one column, -1 where a cell is missing.

    A numeric column passes its float array and is cut into equal-frequency
    bins; a categorical one passes None and codes its sorted distinct values.
    """
    codes = np.full(len(cells), -1)
    if floats is not None:
        present = ~np.isnan(floats)
        if present.any():
            codes[present] = equal_frequency_bins(floats[present], n_bins)
    else:
        rows = [i for i, c in enumerate(cells) if c is not None]
        vocab = {v: k for k, v in enumerate(sorted({str(cells[i]) for i in rows}))}
        codes[rows] = [vocab[str(cells[i])] for i in rows]
    return codes


def analyze_features(
    frame: DatasetFrame, metadata: DatasetMetadata, schema: SchemaMap,
) -> FeatureReport:
    """Partition features into kept and removed with full evidence.

    `metadata` is perception's profile of the same frame. Raises
    NoFeaturesError when the schema has no feature column or every feature
    column is removed.
    """
    features = [c for c in frame.column_names if c in schema.feature_columns()]
    if not features:
        raise NoFeaturesError("schema has no feature columns")

    correlations: dict[tuple[str, str], float] = {}
    mi: dict[str, float] = {}
    removed: dict[str, str] = {}

    for name in features:
        if metadata.profile(name).unique_count <= 1:
            removed[name] = REASON_CONSTANT

    numeric = [
        c for c in features
        if schema.roles[c] == FEATURE_NUMERIC and c not in removed
    ]
    # each numeric column is read once; pearson and MI share it
    floats = {name: float_cells(frame.column(name))[0] for name in numeric}
    for i, a in enumerate(numeric):
        for b in numeric[i + 1:]:
            r = pearson(floats[a], floats[b])
            if r is not None:
                correlations[(a, b)] = r

    target = schema.chosen_target
    if target is not None:
        target_cells = frame.column(target)
        target_floats, target_numeric = float_cells(target_cells)
        target_codes = _discrete_codes(
            target_cells, target_floats if target_numeric else None, MI_BINS,
        )
        for name in features:
            if name in removed:
                continue
            codes = _discrete_codes(frame.column(name), floats.get(name), MI_BINS)
            shared = (codes >= 0) & (target_codes >= 0)
            mi[name] = mutual_information(codes[shared], target_codes[shared])

    # redundancy pass in deterministic column order
    for (a, b), r in sorted(
        correlations.items(),
        key=lambda kv: (features.index(kv[0][0]), features.index(kv[0][1])),
    ):
        if abs(r) <= REDUNDANCY_R:
            continue
        if a in removed or b in removed:
            continue
        if target is not None and mi.get(a, 0.0) != mi.get(b, 0.0):
            victim = a if mi.get(a, 0.0) < mi.get(b, 0.0) else b
        else:
            victim = b      # tie or unsupervised: the later column goes
        removed[victim] = REASON_REDUNDANT

    if target is None:
        for name in features:
            if name in removed or schema.roles[name] != FEATURE_CATEGORICAL:
                continue
            if metadata.profile(name).unique_count > HIGH_CARDINALITY:
                removed[name] = REASON_HIGH_CARDINALITY

    kept = [name for name in features if name not in removed]
    if not kept:
        raise NoFeaturesError("feature analysis removed every feature column")
    return FeatureReport(
        correlations, mi,
        [(name, removed[name]) for name in features if name in removed], kept)
