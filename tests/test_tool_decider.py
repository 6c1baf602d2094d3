import pytest
from hypothesis import given
from hypothesis import strategies as st

from rxmflow.preprocess import decide_tools, simplified_backup_plan
from rxmflow.preprocess.features import (
    REASON_CONSTANT, REASON_HIGH_CARDINALITY, REASON_REDUNDANT,
)
from rxmflow.preprocess.plan import (
    ENCODE_DROP, ENCODE_ONE_HOT, ENCODE_PASSTHROUGH, ENCODE_TARGET,
    HIGH_CARDINALITY, IMPUTE_KNN, IMPUTE_MEDIAN, IMPUTE_MOST_FREQUENT,
    IMPUTE_NONE, SCALE_NONE, SCALE_ROBUST, SCALE_STANDARD, ColumnDirective,
    PreprocessPlan, mark_removed,
)
from rxmflow.preprocess.schema import (
    FEATURE_CATEGORICAL, FEATURE_NUMERIC, IDENTIFIER, TARGET_CANDIDATE,
    TIMESTAMP, SchemaMap,
)
from rxmflow.perception import CATEGORICAL, NUMERIC

from conftest import make_metadata, make_profile

MB = 2 ** 20


def plan_for(profiles, roles, target=None, memory_bytes=50 * MB):
    metadata = make_metadata(profiles, memory_bytes=memory_bytes)
    schema = SchemaMap(roles=roles, chosen_target=target)
    return decide_tools(metadata, schema)


def one_numeric(missing_pct, memory_bytes=50 * MB):
    plan = plan_for(
        [make_profile("x", NUMERIC, missing_pct=missing_pct)],
        {"x": FEATURE_NUMERIC},
        memory_bytes=memory_bytes,
    )
    return plan.directives["x"]


@pytest.mark.parametrize("missing_pct,expected", [
    (0.25, IMPUTE_KNN),
    (0.21, IMPUTE_KNN),
    (0.20, IMPUTE_MEDIAN),       # closed interval boundary
    (0.15, IMPUTE_MEDIAN),
    (0.10, IMPUTE_MEDIAN),       # closed interval boundary
    (0.05, IMPUTE_MEDIAN),       # rule extended below 10%
    (0.0, IMPUTE_NONE),
])
def test_numeric_imputation_bands(missing_pct, expected):
    directive = one_numeric(missing_pct)
    assert directive.imputation == expected
    if expected == IMPUTE_KNN:
        assert directive.knn_neighbors == 3


@pytest.mark.parametrize("missing_pct,expected", [
    (0.25, IMPUTE_KNN),
    (0.15, IMPUTE_MOST_FREQUENT),
    (0.05, IMPUTE_MOST_FREQUENT),
])
def test_categorical_imputation_bands(missing_pct, expected):
    plan = plan_for(
        [make_profile("c", CATEGORICAL, missing_pct=missing_pct, unique_count=4)],
        {"c": FEATURE_CATEGORICAL},
    )
    assert plan.directives["c"].imputation == expected


def test_memory_cutoff_switches_scaler():
    assert one_numeric(0.0, memory_bytes=50 * MB).scaling == SCALE_STANDARD
    assert one_numeric(0.0, memory_bytes=150 * MB).scaling == SCALE_ROBUST
    # the cutoff itself is not above 100 MiB
    assert one_numeric(0.0, memory_bytes=100 * MB).scaling == SCALE_STANDARD


@pytest.mark.parametrize("unique_count,with_target,expected", [
    (10, True, ENCODE_ONE_HOT),
    (50, True, ENCODE_ONE_HOT),       # boundary: not above 50
    (51, True, ENCODE_TARGET),
    (200, True, ENCODE_TARGET),
    (51, False, ENCODE_DROP),
    (200, False, ENCODE_DROP),
    (10, False, ENCODE_ONE_HOT),
])
def test_cardinality_encoding_rules(unique_count, with_target, expected):
    roles = {"c": FEATURE_CATEGORICAL, "y": TARGET_CANDIDATE}
    profiles = [
        make_profile("c", CATEGORICAL, unique_count=unique_count),
        make_profile("y", CATEGORICAL, unique_count=3),
    ]
    plan = plan_for(profiles, roles, target="y" if with_target else None)
    assert plan.directives["c"].encoding == expected


def test_identifier_passthrough_and_target_excluded():
    plan = plan_for(
        [
            make_profile("Machine_ID", CATEGORICAL, unique_count=100),
            make_profile("x", NUMERIC),
            make_profile("y", CATEGORICAL, unique_count=3),
        ],
        {"Machine_ID": IDENTIFIER, "x": FEATURE_NUMERIC, "y": TARGET_CANDIDATE},
        target="y",
    )
    ident = plan.directives["Machine_ID"]
    assert (ident.imputation, ident.scaling, ident.encoding) == (
        IMPUTE_NONE, "none", ENCODE_PASSTHROUGH,
    )
    assert "y" not in plan.directives


def test_plan_is_idempotent():
    profiles = [
        make_profile("x", NUMERIC, missing_pct=0.15),
        make_profile("c", CATEGORICAL, unique_count=60),
        make_profile("y", CATEGORICAL, unique_count=3),
    ]
    roles = {"x": FEATURE_NUMERIC, "c": FEATURE_CATEGORICAL, "y": TARGET_CANDIDATE}
    metadata = make_metadata(profiles)
    schema = SchemaMap(roles=roles, chosen_target="y")
    assert decide_tools(metadata, schema) == decide_tools(metadata, schema)


def test_every_directive_carries_a_rationale():
    plan = plan_for(
        [
            make_profile("x", NUMERIC, missing_pct=0.3),
            make_profile("c", CATEGORICAL, unique_count=8, missing_pct=0.12),
        ],
        {"x": FEATURE_NUMERIC, "c": FEATURE_CATEGORICAL},
    )
    assert all(d.rationale for d in plan.directives.values())


def test_mark_removed_overrides_to_drop():
    plan = plan_for(
        [make_profile("x", NUMERIC), make_profile("z", NUMERIC)],
        {"x": FEATURE_NUMERIC, "z": FEATURE_NUMERIC},
    )
    plan = mark_removed(plan, [("z", "redundant")])
    assert plan.directives["z"].encoding == ENCODE_DROP
    assert "redundant" in plan.directives["z"].rationale


def test_backup_plan_is_simple_and_drops_high_cardinality():
    profiles = [
        make_profile("x", NUMERIC, missing_pct=0.4),
        make_profile("c", CATEGORICAL, unique_count=80),
        make_profile("d", CATEGORICAL, unique_count=5, missing_pct=0.2),
    ]
    roles = {
        "x": FEATURE_NUMERIC, "c": FEATURE_CATEGORICAL, "d": FEATURE_CATEGORICAL,
    }
    schema = SchemaMap(roles=roles)
    plan = simplified_backup_plan(decide_tools(make_metadata(profiles), schema), schema)
    assert plan.directives["x"].imputation == IMPUTE_MEDIAN
    assert plan.directives["x"].scaling == SCALE_STANDARD
    assert plan.directives["c"].encoding == ENCODE_DROP
    assert plan.directives["d"].encoding == ENCODE_ONE_HOT


def metadata_walk_backup(metadata, schema):
    """Reference: the backup plan as its own walk over the metadata, the way
    it was built before it was derived from the run's plan."""
    directives = {}
    for profile in metadata.profiles:
        name = profile.name
        role = schema.roles.get(name)
        if name == schema.chosen_target:
            continue
        if role == IDENTIFIER:
            directives[name] = ColumnDirective(
                IMPUTE_NONE, SCALE_NONE, ENCODE_PASSTHROUGH,
                "identifier, passed through unchanged",
            )
        elif role == FEATURE_NUMERIC:
            imputation = IMPUTE_MEDIAN if profile.missing_pct > 0 else IMPUTE_NONE
            directives[name] = ColumnDirective(
                imputation, SCALE_STANDARD, ENCODE_PASSTHROUGH,
                "backup plan: median imputation, standard scaling",
            )
        elif role == FEATURE_CATEGORICAL:
            if profile.unique_count > HIGH_CARDINALITY:
                directives[name] = ColumnDirective(
                    IMPUTE_NONE, SCALE_NONE, ENCODE_DROP,
                    "backup plan: high-cardinality column dropped",
                )
            else:
                imputation = (
                    IMPUTE_MOST_FREQUENT if profile.missing_pct > 0 else IMPUTE_NONE
                )
                directives[name] = ColumnDirective(
                    imputation, SCALE_NONE, ENCODE_ONE_HOT,
                    "backup plan: most-frequent imputation, one-hot",
                )
        else:
            directives[name] = ColumnDirective(
                IMPUTE_NONE, SCALE_NONE, ENCODE_DROP,
                f"role {role}, excluded from the feature matrix",
            )
    plan = PreprocessPlan(directives=directives)
    plan.advisory_notes.append("simplified backup plan in effect")
    return plan


ROLES = (
    FEATURE_NUMERIC, FEATURE_CATEGORICAL, IDENTIFIER, TIMESTAMP, TARGET_CANDIDATE,
)
# every imputation band with its edges, and both sides of the cardinality cut
column = st.tuples(
    st.sampled_from(ROLES),
    st.one_of(st.sampled_from([0.0, 0.05, 0.10, 0.15, 0.20, 0.21, 1.0]),
              st.floats(min_value=0.0, max_value=1.0)),
    st.sampled_from([0, 1, 2, 10, HIGH_CARDINALITY, HIGH_CARDINALITY + 1, 300]),
    st.sampled_from([None, REASON_CONSTANT, REASON_REDUNDANT]),
)


@given(
    st.lists(column, min_size=1, max_size=8),
    st.integers(min_value=-1, max_value=7),
    st.sampled_from([50 * MB, 150 * MB]),
    st.lists(st.text(max_size=5), max_size=2),
)
def test_backup_plan_from_the_plan_matches_the_metadata_walk(
        columns, target_at, memory_bytes, notes):
    profiles, roles = [], {}
    for i, (role, missing_pct, unique_count, _) in enumerate(columns):
        dtype = NUMERIC if role == FEATURE_NUMERIC else CATEGORICAL
        profiles.append(make_profile(
            f"c{i}", dtype, missing_pct=missing_pct, unique_count=unique_count))
        roles[f"c{i}"] = role
    target = f"c{target_at}" if 0 <= target_at < len(columns) else None
    metadata = make_metadata(profiles, memory_bytes=memory_bytes)
    schema = SchemaMap(roles=roles, chosen_target=target)
    # feature analysis's rule: a drawn removal of a feature column, and with
    # no target every high-cardinality categorical
    removed = []
    for i, (role, _, unique_count, reason) in enumerate(columns):
        name = f"c{i}"
        if name == target or role not in (FEATURE_NUMERIC, FEATURE_CATEGORICAL):
            continue
        if (target is None and role == FEATURE_CATEGORICAL
                and unique_count > HIGH_CARDINALITY):
            reason = REASON_HIGH_CARDINALITY
        if reason is not None:
            removed.append((name, reason))

    plan = mark_removed(decide_tools(metadata, schema), removed)
    plan.advisory_notes.extend(notes)
    backup = simplified_backup_plan(plan, schema)
    reference = mark_removed(metadata_walk_backup(metadata, schema), removed)
    assert backup.directives == reference.directives
    assert list(backup.directives) == list(reference.directives)
    assert backup.advisory_notes == notes + reference.advisory_notes
