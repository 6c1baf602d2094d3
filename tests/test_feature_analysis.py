import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rxmflow.analytics import advisory_importances
from rxmflow.errors import NoFeaturesError
from rxmflow.models.forest import RandomForestClassifier, RandomForestRegressor
from rxmflow.perception import float_cells, inspect_frame
from rxmflow.preprocess import (
    analyze_features, apply_pipeline, decide_tools, discover_schema, fit_pipeline,
)
from rxmflow.preprocess.features import (
    REASON_CONSTANT, REASON_HIGH_CARDINALITY, REASON_REDUNDANT,
    equal_frequency_bins, mutual_information, pearson,
)
from rxmflow.preprocess.plan import mark_removed
from rxmflow.preprocess.schema import target_rows
from rxmflow.synth import maintenance_frame

from conftest import make_frame


def schema_and_frame(columns, target_hint=None):
    frame = make_frame(columns)
    metadata = inspect_frame(frame)
    return frame, metadata, discover_schema(frame, metadata, target_hint)


def brute_force_mi(x_codes, y_codes):
    """Plug-in MI computed with explicit probability sums."""
    n = len(x_codes)
    mi = 0.0
    for a in set(x_codes):
        for b in set(y_codes):
            joint = sum(
                1 for i in range(n) if x_codes[i] == a and y_codes[i] == b
            ) / n
            if joint == 0:
                continue
            px = sum(1 for v in x_codes if v == a) / n
            py = sum(1 for v in y_codes if v == b) / n
            mi += joint * math.log(joint / (px * py))
    return mi


def test_pearson_of_identical_columns_is_one():
    x = np.arange(50, dtype=float)
    assert pearson(x, x) == pytest.approx(1.0)


def test_pearson_pairwise_drops_missing():
    x = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
    y = np.array([2.0, 4.0, 100.0, 8.0, 10.0])
    assert pearson(x, y) == pytest.approx(1.0)


def pearson_over_cells(x_cells, y_cells):
    """Reference: Pearson r over the list of pairs where both cells are floats."""
    pairs = [
        (x, y) for x, y in zip(x_cells, y_cells)
        if isinstance(x, float) and isinstance(y, float)
    ]
    if len(pairs) < 2:
        return None
    x = np.array([p[0] for p in pairs])
    y = np.array([p[1] for p in pairs])
    sx, sy = x.std(), y.std()
    if sx == 0.0 or sy == 0.0:
        return None
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


feature_cell = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6), st.none(), st.just("n/a"),
)


@given(st.lists(st.tuples(feature_cell, feature_cell), max_size=40))
def test_pearson_matches_the_per_cell_reference(pairs):
    x_cells = [x for x, _ in pairs]
    y_cells = [y for _, y in pairs]
    assert pearson(float_cells(x_cells)[0], float_cells(y_cells)[0]) == (
        pearson_over_cells(x_cells, y_cells)
    )


def test_identical_columns_deduplicated():
    values = [float(i % 13) * 1.5 for i in range(60)]
    target = ["a" if v > 8 else "b" for v in values]
    frame, metadata, schema = schema_and_frame({
        "x1": values, "x2": list(values), "label": target,
    })
    report = analyze_features(frame, metadata, schema)
    assert report.pearson_correlations[("x1", "x2")] == pytest.approx(1.0)
    assert ("x2", REASON_REDUNDANT) in report.removed
    assert "x1" in report.kept


def test_kept_and_removed_partition_features():
    frame, metadata, schema = schema_and_frame({
        "x1": [float(i) for i in range(40)],
        "x2": [float(i) for i in range(40)],
        "x3": [0.5 * (i % 7) for i in range(40)],
        "const": [5.0] * 40,
        "label": ["a", "b"] * 20,
    })
    report = analyze_features(frame, metadata, schema)
    features = set(schema.feature_columns())
    removed = {name for name, _ in report.removed}
    assert set(report.kept) | removed == features
    assert set(report.kept) & removed == set()
    assert ("const", REASON_CONSTANT) in report.removed
    assert "x3" in report.kept


def test_mi_matches_brute_force_on_small_table(rng):
    x = rng.integers(0, 4, 200)
    y = (x + rng.integers(0, 2, 200)) % 4
    ours = mutual_information(x, y)
    assert ours == pytest.approx(brute_force_mi(x.tolist(), y.tolist()), abs=1e-12)
    assert ours >= 0.0


def test_mi_of_independent_noise_is_near_zero(rng):
    n = 10_000
    x = rng.uniform(size=n)
    y = rng.integers(0, 3, n)
    x_codes = equal_frequency_bins(x, 10)
    assert mutual_information(x_codes, y) <= 0.05   # plug-in bias bound


def test_equal_frequency_bins_are_balanced(rng):
    values = rng.normal(size=1000)
    codes = equal_frequency_bins(values, 10)
    counts = np.bincount(codes, minlength=10)
    assert counts.min() >= 80 and counts.max() <= 120


def test_clean_maintenance_frame_keeps_all_features():
    frame = maintenance_frame(n_rows=300)
    metadata = inspect_frame(frame)
    schema = discover_schema(frame, metadata, "Maintenance_Priority")
    report = analyze_features(frame, metadata, schema)
    assert len(report.kept) == 7
    assert report.removed == []


def training_matrix(frame, metadata, schema, task):
    """The pipeline's matrix, target values and feature names over every
    row the task learns from, as the advisory forest receives them."""
    report = analyze_features(frame, metadata, schema)
    plan = mark_removed(decide_tools(metadata, schema), report.removed)
    rows = target_rows(frame.column(schema.chosen_target), task)
    pipeline = fit_pipeline(frame, plan, schema, rows)
    X, _, y = apply_pipeline(pipeline, frame, rows)
    return X, y, pipeline.feature_names


def test_importances_present_with_target_and_favor_signal():
    frame = maintenance_frame(n_rows=500)
    metadata = inspect_frame(frame)
    schema = discover_schema(frame, metadata, "Maintenance_Priority")
    X, y, names = training_matrix(frame, metadata, schema, "classification")
    importances = advisory_importances(X, y, names, "classification", 3)
    assert list(importances) == names
    top2 = sorted(importances, key=importances.get, reverse=True)[:2]
    assert set(top2) == {"Downtime_Cost", "Vibration"}


@pytest.fixture
def forest_fits(monkeypatch):
    """The class names of the forests fitted, in fit order."""
    fits = []

    def counted(fit):
        def wrapper(self, *args):
            fits.append(type(self).__name__)
            return fit(self, *args)
        return wrapper
    for forest in (RandomForestClassifier, RandomForestRegressor):
        monkeypatch.setattr(forest, "fit", counted(forest.fit))
    return fits


def test_advisory_forest_is_fitted_only_when_called(forest_fits):
    frame = maintenance_frame(n_rows=300)
    metadata = inspect_frame(frame)
    schema = discover_schema(frame, metadata, "Maintenance_Priority")
    X, y, names = training_matrix(frame, metadata, schema, "classification")
    assert forest_fits == []
    importances = advisory_importances(X, y, names, "classification", 3)
    assert forest_fits == ["RandomForestClassifier"]
    # keyed by the pipeline's columns: one-hot names, not the raw column
    assert list(importances) == names
    assert "Technician_Available=Yes" in importances
    assert "Technician_Available" not in importances
    # a value: the same inputs give the same importances
    assert advisory_importances(X, y, names, "classification", 3) == importances


def test_advisory_forest_follows_the_run_task(forest_fits):
    # ten target levels and stray text: a regression run still fits a
    # regressor, on the float target cells only
    n = 120
    wear = [float(i % 10) for i in range(n)]
    for i in (5, 40, 77):
        wear[i] = "n/a"
    frame, metadata, schema = schema_and_frame({
        "x1": [float(i % 10) + 0.1 * (i % 7) for i in range(n)],
        "x2": [float((i * 7) % 13) for i in range(n)],
        "wear_target": wear,
    }, target_hint="wear_target")
    X, y, names = training_matrix(frame, metadata, schema, "regression")
    assert len(y) == n - 3
    importances = advisory_importances(X, y, names, "regression", 3)
    assert set(importances) == {"x1", "x2"}
    assert forest_fits == ["RandomForestRegressor"]


def test_high_cardinality_removed_only_without_target():
    cells = {
        "cat": [f"c{i}" for i in range(60)] * 2,
        "x": [float(i % 10) for i in range(120)],
    }
    frame, metadata, schema = schema_and_frame(dict(cells))
    report = analyze_features(frame, metadata, schema)
    assert ("cat", REASON_HIGH_CARDINALITY) in report.removed

    with_target = dict(cells)
    with_target["label"] = ["a", "b"] * 60
    frame2, metadata2, schema2 = schema_and_frame(with_target)
    report2 = analyze_features(frame2, metadata2, schema2)
    assert "cat" in report2.kept


def test_no_features_is_an_error():
    frame, metadata, schema = schema_and_frame({
        "Machine_ID": [f"M{i}" for i in range(20)],
    })
    with pytest.raises(NoFeaturesError):
        analyze_features(frame, metadata, schema)


def test_removing_every_feature_is_an_error():
    frame, metadata, schema = schema_and_frame({
        "Machine_ID": [f"M{i}" for i in range(20)],
        "blank": [None] * 20,
        "flat": [2.0] * 20,
    })
    with pytest.raises(NoFeaturesError, match="removed every feature"):
        analyze_features(frame, metadata, schema)


def test_redundant_pair_keeps_higher_mi_member():
    base = [float(i % 20) for i in range(200)]
    jitter = [v + 0.001 * (i % 3) for i, v in enumerate(base)]
    label = ["hot" if v > 10 else "cold" for v in base]
    frame, metadata, schema = schema_and_frame({
        "signal": base,        # perfectly predictive
        "copy": jitter,        # near-copy, slightly noisier
        "label": label,
    })
    report = analyze_features(frame, metadata, schema)
    removed = {name for name, _ in report.removed}
    assert removed == {"copy"} or removed == {"signal"}
    kept = report.kept[0]
    dropped = next(iter(removed))
    assert report.mutual_information[kept] >= report.mutual_information.get(dropped, 0.0)
