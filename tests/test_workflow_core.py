import pytest
from hypothesis import given
from hypothesis import strategies as st

from rxmflow.errors import UnknownToolError
from rxmflow.workflow import (
    FAILED, SUCCEEDED, TOOLS, StepRecord, WorkflowContext,
    build_report, record_lesson, record_step,
)


def ctx(**kwargs):
    return WorkflowContext(goal="test goal", **kwargs)


def ok(tool, duration=0.5, summary="done"):
    return StepRecord(tool_name=tool, outcome=SUCCEEDED, duration=duration,
                      summary=summary)


def test_record_step_counts_from_empty():
    context = record_step(ctx(), ok("load_and_inspect_data"))
    assert len(context.step_history) == 1
    assert context.current_step_index == 1


def test_five_succeeded_steps_make_report_ready_context():
    context = ctx()
    for tool in TOOLS:
        context = record_step(context, ok(tool))
    assert context.current_step_index == 5
    report = build_report(context, total_duration=39.94)
    assert report.steps_succeeded == 5
    assert report.steps_total == 5


def test_failed_step_sets_error_context():
    record = StepRecord("load_and_inspect_data", FAILED, 0.1, "boom",
                        error="CSV not found")
    context = record_step(ctx(), record)
    assert context.error_context == "CSV not found"


def test_succeeding_step_clears_stale_error():
    context = record_step(ctx(), StepRecord(
        "load_and_inspect_data", FAILED, 0.1, "boom", error="CSV not found"))
    context = record_step(context, ok("load_and_inspect_data"))
    assert context.error_context is None


def test_unknown_tool_rejected():
    with pytest.raises(UnknownToolError):
        record_step(ctx(), ok("not_a_tool"))


def test_failed_record_requires_error():
    with pytest.raises(ValueError):
        StepRecord("summarize", FAILED, 0.1, "boom")


def test_record_lesson_appends_duplicates():
    context = record_lesson(ctx(), "malformed JSON: missing 'tool' key")
    context = record_lesson(context, "malformed JSON: missing 'tool' key")
    assert len(context.lessons_learned) == 2


def test_record_lesson_rejects_empty():
    with pytest.raises(ValueError):
        record_lesson(ctx(), "")


@st.composite
def step_records(draw):
    tool = draw(st.sampled_from(TOOLS))
    failed = draw(st.booleans())
    return StepRecord(
        tool_name=tool,
        outcome=FAILED if failed else SUCCEEDED,
        duration=draw(st.floats(min_value=0, max_value=100, allow_nan=False)),
        summary=draw(st.text(max_size=20)),
        error="some error" if failed else None,
    )


@given(st.lists(step_records(), max_size=12))
def test_replay_is_a_pure_fold(records):
    first = ctx()
    second = ctx()
    for record in records:
        first = record_step(first, record)
    for record in records:
        second = record_step(second, record)
    assert first == second
    assert first.current_step_index == len(records)


@given(st.lists(step_records(), min_size=1, max_size=12))
def test_record_step_never_mutates_prior_history(records):
    context = ctx()
    snapshots = []
    for record in records:
        context = record_step(context, record)
        snapshots.append(context.step_history)
    for i, snap in enumerate(snapshots):
        assert snap == context.step_history[: i + 1]


@given(st.lists(step_records(), max_size=12))
def test_report_counts_match_outcomes(records):
    context = ctx()
    for record in records:
        context = record_step(context, record)
    report = build_report(context, total_duration=1.0)
    succeeded = sum(1 for r in records if r.outcome == SUCCEEDED)
    assert report.steps_succeeded == succeeded
    assert report.steps_total == len(records)
    assert report.steps_succeeded <= report.steps_total
