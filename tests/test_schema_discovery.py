import pytest

from rxmflow.errors import AmbiguousTargetError
from rxmflow.perception import (
    CATEGORICAL, CONSTANT, DATETIME_PARSE_SHARE, inspect_frame,
)
from rxmflow.preprocess import discover_schema
from rxmflow.preprocess.schema import (
    FEATURE_CATEGORICAL, FEATURE_NUMERIC, IDENTIFIER, TARGET_CANDIDATE,
    TIMESTAMP, TIMESTAMP_DATE_SHARE,
)
from rxmflow.synth import maintenance_frame, network_frame

from conftest import make_frame


def schema_for(columns, target_hint=None):
    frame = make_frame(columns)
    return discover_schema(frame, inspect_frame(frame), target_hint)


def test_unique_string_column_is_identifier():
    schema = schema_for({
        "code": [f"X{i}" for i in range(40)],      # no name pattern, unique
        "x": [float(i % 7) for i in range(40)],
    })
    assert schema.roles["code"] == IDENTIFIER
    assert "uniqueness" in schema.evidence["code"]


def test_identifier_by_name_pattern_even_when_repeating():
    schema = schema_for({
        "Machine_ID": ["M1", "M2"] * 10,
        "x": [float(i) for i in range(20)],
    })
    assert schema.roles["Machine_ID"] == IDENTIFIER


def test_priority_label_column_is_target_candidate():
    schema = schema_for({
        "Maintenance Priority": ["High", "Medium", "Low", "High"] * 5,
        "x": [float(i) for i in range(20)],
    })
    assert schema.roles["Maintenance Priority"] == TARGET_CANDIDATE
    assert schema.chosen_target == "Maintenance Priority"


def test_efficiency_status_is_target_candidate():
    schema = schema_for({
        "Efficiency Status": ["high", "medium", "low", "high"] * 5,
        "x": [float(i) for i in range(20)],
    })
    assert schema.roles["Efficiency Status"] == TARGET_CANDIDATE


def test_downtime_is_not_a_timestamp():
    schema = schema_for({
        "Downtime_Cost": [i * 10.5 for i in range(20)],
        "Timestamp": [f"2025-01-{i + 1:02d}" for i in range(20)],
        "x": [float(i % 5) for i in range(20)],
    })
    assert schema.roles["Downtime_Cost"] == FEATURE_NUMERIC
    assert schema.roles["Timestamp"] == TIMESTAMP


def test_date_parsing_detects_unnamed_timestamp():
    schema = schema_for({
        "recorded": [f"2025-03-{i + 1:02d}" for i in range(20)],
        "x": [float(i % 5) for i in range(20)],
    })
    assert schema.roles["recorded"] == TIMESTAMP


def test_constant_date_column_is_still_a_timestamp():
    frame = make_frame({
        "recorded": ["2025-03-01"] * 20,
        "x": [float(i % 5) for i in range(20)],
    })
    metadata = inspect_frame(frame)
    assert metadata.profile("recorded").inferred_dtype == CONSTANT
    assert discover_schema(frame, metadata).roles["recorded"] == TIMESTAMP


def test_mostly_dates_is_categorical_in_perception_but_a_timestamp():
    # 46 of 50 cells are dates: below perception's 0.95, above schema's 0.90
    days = [f"2025-03-{d:02d}" for d in (1, 2, 3, 4, 5)]
    cells = [days[i % 5] for i in range(46)] + ["n/a"] * 4
    frame = make_frame({"recorded": cells, "x": [float(i % 5) for i in range(50)]})
    metadata = inspect_frame(frame)
    profile = metadata.profile("recorded")
    assert profile.date_share == pytest.approx(0.92)
    assert profile.inferred_dtype == CATEGORICAL
    assert discover_schema(frame, metadata).roles["recorded"] == TIMESTAMP


def test_every_datetime_profile_meets_the_timestamp_share():
    # discover_schema has no branch for perception's DATETIME type: the
    # date-share branch before it catches every such column
    assert DATETIME_PARSE_SHARE >= TIMESTAMP_DATE_SHARE


def test_remaining_columns_become_features_by_dtype():
    schema = schema_for({
        "temp": [float(i % 9) for i in range(30)],
        "mode": ["auto", "manual", "auto"] * 10,
    })
    assert schema.roles["temp"] == FEATURE_NUMERIC
    assert schema.roles["mode"] == FEATURE_CATEGORICAL
    assert schema.chosen_target is None


def test_every_column_gets_exactly_one_role():
    frame = maintenance_frame(n_rows=120)
    try:
        schema = discover_schema(frame, inspect_frame(frame))
    except AmbiguousTargetError as exc:
        schema = discover_schema(frame, inspect_frame(frame), exc.candidates[-1])
    assert sorted(schema.roles) == sorted(frame.column_names)


def test_ambiguous_target_raises_with_candidates_in_order():
    frame = maintenance_frame(n_rows=80)
    with pytest.raises(AmbiguousTargetError) as excinfo:
        discover_schema(frame, inspect_frame(frame))
    assert excinfo.value.candidates == [
        "Failure_Probability", "Maintenance_Priority",
    ]


def test_rule_based_pick_takes_last_candidate():
    frame = maintenance_frame(n_rows=80)
    metadata = inspect_frame(frame)
    try:
        discover_schema(frame, metadata)
        raise AssertionError("expected ambiguity")
    except AmbiguousTargetError as exc:
        schema = discover_schema(frame, metadata, exc.candidates[-1])
    assert schema.chosen_target == "Maintenance_Priority"


def test_target_hint_wins():
    frame = maintenance_frame(n_rows=80)
    schema = discover_schema(frame, inspect_frame(frame), "Failure_Probability")
    assert schema.chosen_target == "Failure_Probability"
    assert schema.roles["Failure_Probability"] == TARGET_CANDIDATE


def test_target_hint_must_be_a_column():
    frame = maintenance_frame(n_rows=80)
    with pytest.raises(KeyError):
        discover_schema(frame, inspect_frame(frame), "Nope")


def test_network_frame_resolves_to_status_column():
    frame = network_frame(n_rows=500, seed=13)
    metadata = inspect_frame(frame)
    with pytest.raises(AmbiguousTargetError) as excinfo:
        discover_schema(frame, metadata)
    schema = discover_schema(frame, metadata, excinfo.value.candidates[-1])
    assert schema.chosen_target == "Efficiency_Status"
    assert schema.roles["Machine_ID"] == IDENTIFIER
