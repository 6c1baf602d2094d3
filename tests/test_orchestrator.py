import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rxmflow.backends import ScriptedBackend
from rxmflow.errors import DecisionParseError
from rxmflow.orchestrator import (
    PROVENANCE_LLM, PROVENANCE_RULE,
    build_prompt, parse_decision, plan_next_step, rule_based_next, slm_advise,
)
from rxmflow.workflow import (
    FAILED, SUCCEEDED, TOOLS, StepRecord, WorkflowContext,
    add_insight, record_lesson, record_step,
)

from conftest import UnavailableBackend

GOLDEN = Path(__file__).parent / "data" / "prompt_golden.txt"


def fresh(goal="Generate prioritized maintenance recommendations from the dataset"):
    return WorkflowContext(goal=goal)


def succeeded(context, tool, duration=1.0, summary=""):
    return record_step(context, StepRecord(tool, SUCCEEDED, duration, summary))


def failed(context, tool, error, duration=1.0):
    return record_step(
        context, StepRecord(tool, FAILED, duration, "step failed", error=error))


# ---------------------------------------------------------------- build_prompt

def test_fresh_prompt_lists_all_tools_with_empty_history():
    prompt = build_prompt(fresh())
    for tool in TOOLS:
        assert tool in prompt
    assert "(no steps completed yet)" in prompt
    assert "ERROR CONTEXT" not in prompt
    assert "LESSONS LEARNED" not in prompt


def test_prompt_carries_error_text_verbatim():
    context = failed(fresh(), "load_and_inspect_data", "CSV not found: x.csv")
    assert "CSV not found: x.csv" in build_prompt(context)


def test_prompt_includes_insights():
    context = add_insight(fresh(), "accuracy=0.9726 with RandomForestClassifier")
    assert "accuracy=0.9726" in build_prompt(context)


def test_prompt_golden_snapshot():
    context = fresh()
    context = record_step(context, StepRecord(
        "load_and_inspect_data", SUCCEEDED, 0.42, "loaded 1430 rows x 10 columns"))
    context = add_insight(context, "dataset has 1430 rows, 10 columns, 0 quality issues")
    context = add_insight(context, "accuracy=0.9726 with RandomForestClassifier")
    context = record_lesson(
        context, "planner JSON parse failure (no_json): no JSON object found in the reply")
    context = record_step(context, StepRecord(
        "preprocess_data", FAILED, 1.5, "step failed",
        error="fit failed: zero training rows"))
    assert build_prompt(context) + "\n" == GOLDEN.read_text()


def test_prompt_section_order():
    context = add_insight(fresh(), "note")
    context = record_lesson(context, "lesson")
    context = failed(context, "load_and_inspect_data", "boom")
    prompt = build_prompt(context)
    order = [
        prompt.index("GOAL:"),
        prompt.index("AVAILABLE TOOLS:"),
        prompt.index("STEP HISTORY:"),
        prompt.index("PERFORMANCE INSIGHTS:"),
        prompt.index("LESSONS LEARNED:"),
        prompt.index("ERROR CONTEXT:"),
        prompt.index('"tool", "finish", and "reason"'),
    ]
    assert order == sorted(order)


# -------------------------------------------------------------- parse_decision

def test_parse_plain_decision():
    raw = '{"tool":"preprocess_data","finish":false,"reason":"data must be prepared"}'
    decision = parse_decision(raw)
    assert decision.tool == "preprocess_data"
    assert decision.finish is False
    assert decision.reason == "data must be prepared"


def test_parse_prose_wrapped_json():
    raw = 'Sure! Here you go: {"tool":"analyze_data","finish":false,"reason":"next"} hope it helps'
    assert parse_decision(raw).tool == "analyze_data"


def test_parse_skips_broken_object_and_finds_valid_one():
    raw = '{"tool": oops} then {"tool":"summarize","finish":false,"reason":"wrap up"}'
    assert parse_decision(raw).tool == "summarize"


def test_parse_missing_key():
    with pytest.raises(DecisionParseError) as excinfo:
        parse_decision('{"finish":false,"reason":"x"}')
    assert excinfo.value.code == "missing_key"
    assert "tool" in excinfo.value.detail


def test_parse_bad_types():
    with pytest.raises(DecisionParseError) as excinfo:
        parse_decision('{"tool":"summarize","finish":"false","reason":"x"}')
    assert excinfo.value.code == "bad_type"
    with pytest.raises(DecisionParseError) as excinfo:
        parse_decision('{"tool":"summarize","finish":false,"reason":""}')
    assert excinfo.value.code == "bad_type"


def test_parse_unknown_tool():
    with pytest.raises(DecisionParseError) as excinfo:
        parse_decision('{"tool":"launch_rockets","finish":false,"reason":"x"}')
    assert excinfo.value.code == "unknown_tool"


def test_parse_no_json():
    with pytest.raises(DecisionParseError) as excinfo:
        parse_decision("I think we should preprocess the data next.")
    assert excinfo.value.code == "no_json"


def test_parse_finish_clears_tool():
    decision = parse_decision(
        '{"tool":"summarize","finish":true,"reason":"all done"}')
    assert decision.finish is True
    assert decision.tool == ""


def test_parse_handles_braces_inside_strings():
    raw = '{"tool":"summarize","finish":false,"reason":"render {recap} now"}'
    assert parse_decision(raw).reason == "render {recap} now"


@given(st.text(max_size=300))
def test_parse_is_total_on_arbitrary_text(raw):
    try:
        decision = parse_decision(raw)
        assert decision.finish or decision.tool in TOOLS
    except DecisionParseError as exc:
        assert exc.code in {"no_json", "missing_key", "bad_type", "unknown_tool"}


DEEP = '{"a":' + "[" * 100000 + "]" * 100000 + "}"

json_values = st.recursive(
    st.none() | st.booleans() | st.floats(allow_nan=False) | st.integers()
    | st.text(max_size=20) | st.sampled_from(TOOLS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["tool", "finish", "reason", "x"]) | st.text(max_size=5),
                      inner, max_size=4),
    max_leaves=12,
)


@st.composite
def planner_replies(draw):
    """Prose around JSON-like fragments: objects, cut-off objects, deep nests."""
    parts = draw(st.lists(st.one_of(
        st.text(max_size=40),
        json_values.map(json.dumps),
        json_values.map(json.dumps).map(lambda s: s[:len(s) // 2]),
        st.integers(1, 3000).map(lambda d: '{"a":' + "[" * d + "]" * d + "}"),
        st.just('{"n": ' + "9" * 5000 + "}"),
    ), max_size=4))
    return " ".join(parts)


@given(planner_replies())
def test_parse_raises_nothing_but_a_parse_error(raw):
    try:
        decision = parse_decision(raw)
    except DecisionParseError as exc:
        assert exc.code in {"no_json", "missing_key", "bad_type", "unknown_tool"}
    else:
        assert decision.finish or decision.tool in TOOLS


def test_parse_treats_a_too_deep_object_as_unparseable():
    with pytest.raises(DecisionParseError) as excinfo:
        parse_decision(DEEP)
    assert excinfo.value.code == "no_json"
    assert parse_decision(DEEP + " " + good()).tool == "load_and_inspect_data"


def test_too_deep_reply_is_a_retryable_parse_failure():
    backend = ScriptedBackend([DEEP, good()])
    decision, provenance, context = plan_next_step(fresh(), backend)
    assert provenance == PROVENANCE_LLM
    assert backend.calls == 2
    assert any("no_json" in lesson for lesson in context.lessons_learned)


def test_a_succeeded_stage_is_a_repeated_tool():
    raw = '{"tool": "load_and_inspect_data", "finish": false, "reason": "again"}'
    with pytest.raises(DecisionParseError) as caught:
        parse_decision(raw, {"load_and_inspect_data"})
    assert caught.value.code == "repeated_tool"
    assert parse_decision(raw, {"preprocess_data"}).tool == "load_and_inspect_data"


# ------------------------------------------------------------- rule_based_next

def test_rule_sequence_from_empty():
    assert rule_based_next(fresh()).tool == "load_and_inspect_data"


def test_rule_sequence_advances_past_succeeded():
    context = succeeded(fresh(), "load_and_inspect_data")
    context = succeeded(context, "preprocess_data")
    assert rule_based_next(context).tool == "analyze_data"


def test_rule_sequence_finishes_after_all_five():
    context = fresh()
    for tool in TOOLS:
        context = succeeded(context, tool)
    decision = rule_based_next(context)
    assert decision.finish is True and decision.tool == ""


def test_rule_retries_failed_step_once_then_finishes():
    context = succeeded(fresh(), "load_and_inspect_data")
    context = failed(context, "preprocess_data", "boom")
    retry = rule_based_next(context)
    assert retry.tool == "preprocess_data" and not retry.finish
    context = failed(context, "preprocess_data", "boom again")
    stop = rule_based_next(context)
    assert stop.finish is True
    assert "failed twice" in stop.reason


def test_rule_sequence_visits_each_tool_at_most_twice():
    context = fresh()
    seen = []
    for _ in range(20):
        decision = rule_based_next(context)
        if decision.finish:
            break
        seen.append(decision.tool)
        context = failed(context, decision.tool, "always fails")
    assert len(seen) <= 2 * len(TOOLS)
    assert max(seen.count(t) for t in TOOLS) <= 2


# -------------------------------------------------------------- plan_next_step

def good(tool="load_and_inspect_data", reason="start by loading"):
    return json.dumps({"tool": tool, "finish": False, "reason": reason})


def test_two_failures_then_valid_uses_attempt_three():
    backend = ScriptedBackend(["not json", '{"tool": broken', good()])
    decision, provenance, context = plan_next_step(fresh(), backend)
    assert provenance == PROVENANCE_LLM
    assert decision.tool == "load_and_inspect_data"
    assert backend.calls == 3
    assert len(context.lessons_learned) == 2


def test_three_failures_fall_back_to_rules():
    backend = ScriptedBackend(["junk", "junk", "junk"])
    decision, provenance, context = plan_next_step(fresh(), backend)
    assert provenance == PROVENANCE_RULE
    assert decision.tool == "load_and_inspect_data"
    assert backend.calls == 3
    assert len(context.lessons_learned) == 3


def test_unavailable_backend_falls_back_immediately():
    backend = UnavailableBackend()
    decision, provenance, context = plan_next_step(fresh(), backend)
    assert provenance == PROVENANCE_RULE
    assert backend.calls == 1
    assert decision.tool == "load_and_inspect_data"


def test_no_backend_is_rule_based():
    decision, provenance, _ = plan_next_step(fresh(), None)
    assert provenance == PROVENANCE_RULE


def test_fallback_totality_across_backend_behaviors():
    from rxmflow.errors import BackendError

    class Timeout:
        def generate(self, prompt):
            raise BackendError("timeout", "60s elapsed")

    class HttpError:
        def generate(self, prompt):
            raise BackendError("http_error", "status 500")

    behaviors = [
        ScriptedBackend([good()]),          # valid
        ScriptedBackend(["garbage"] * 3),   # malformed
        UnavailableBackend(),               # unavailable
        Timeout(),                          # timeout
        HttpError(),                        # http error
    ]
    for backend in behaviors:
        decision, provenance, _ = plan_next_step(fresh(), backend)
        assert decision.finish or decision.tool in TOOLS
        assert provenance in (PROVENANCE_LLM, PROVENANCE_RULE)


def test_repeating_a_succeeded_stage_falls_back_to_rules():
    context = succeeded(fresh(), "load_and_inspect_data")
    backend = ScriptedBackend([good()] * 3)
    decision, provenance, context = plan_next_step(context, backend)
    assert provenance == PROVENANCE_RULE
    assert decision.tool == "preprocess_data"
    assert backend.calls == 3
    assert context.lessons_learned == (
        "planner JSON parse failure (repeated_tool): "
        "tool 'load_and_inspect_data' already succeeded",
    ) * 3


def test_retry_prompt_carries_failure_note():
    prompts = []

    class Spy:
        def generate(self, prompt):
            prompts.append(prompt)
            if len(prompts) == 1:
                return "no json here"
            return good()

    decision, provenance, _ = plan_next_step(fresh(), Spy())
    assert provenance == PROVENANCE_LLM
    assert "PREVIOUS ATTEMPT FAILED" in prompts[1]
    assert "no_json" in prompts[1]
    assert "PREVIOUS ATTEMPT FAILED" not in prompts[0]


def test_backend_called_at_most_max_retries():
    backend = ScriptedBackend(["junk"] * 10)
    plan_next_step(fresh(), backend)
    assert backend.calls == 3


def test_unknown_tool_consumes_a_retry():
    backend = ScriptedBackend([
        '{"tool":"fly_to_mars","finish":false,"reason":"x"}', good(),
    ])
    decision, provenance, context = plan_next_step(fresh(), backend)
    assert provenance == PROVENANCE_LLM
    assert backend.calls == 2
    assert any("unknown_tool" in lesson for lesson in context.lessons_learned)


def test_every_decision_is_audited_with_reason():
    events = []
    backend = ScriptedBackend([good(reason="load it first")])
    plan_next_step(fresh(), backend, audit=lambda e, p: events.append((e, p)))
    assert events == [("planner_decision", {
        "tool": "load_and_inspect_data", "finish": False,
        "reason": "load it first", "provenance": "llm",
    })]


def test_llm_decision_log_line_format(caplog):
    import logging
    backend = ScriptedBackend([good(reason="load it first")])
    with caplog.at_level(logging.INFO, logger="rxmflow.orchestrator"):
        plan_next_step(fresh(), backend)
    assert (
        "LLM decided: tool='load_and_inspect_data', finish=False, "
        "reason='load it first'"
    ) in caplog.text


# ------------------------------------------------------------------ slm_advise

def test_slm_absent_is_noop():
    assert slm_advise(None, "anything") is None


def test_slm_advice_returned_but_never_required():
    backend = ScriptedBackend(["use median imputation"])
    assert slm_advise(backend, "quick check") == "use median imputation"


def test_slm_failure_is_swallowed_and_reported():
    lessons = []
    assert slm_advise(UnavailableBackend(), "quick check",
                      on_failure=lessons.append) is None
    assert lessons and "unavailable" in lessons[0]
