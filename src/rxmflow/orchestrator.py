"""The planner: structured prompt, JSON tool decisions with bounded
retries, and the deterministic rule-based fallback.

All three read `workflow.STAGES`: the prompt lists each stage with its
description, a reply must name a stage that has not yet succeeded, and the
fallback walks the stages in order and gives each one's rule-based reason.

A planning step calls the backend at most MAX_ATTEMPTS (three) times.
Parse failures (a reply that repeats a succeeded stage is one) are
appended to the retry prompt and recorded as lessons;
transport failures skip straight to the rule-based planner. Either way the
step always yields a valid decision.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

from .errors import BackendError, DecisionParseError
from .workflow import FAILED, STAGES, TOOLS, WorkflowContext, record_lesson

logger = logging.getLogger(__name__)

PROVENANCE_LLM = "llm"
PROVENANCE_RULE = "rule_based"

MAX_ATTEMPTS = 3                    # backend calls per planning step


@dataclass(frozen=True)
class PlannerDecision:
    tool: str
    finish: bool
    reason: str

    def log_line(self) -> str:
        return f"LLM decided: tool='{self.tool}', finish={self.finish}, reason='{self.reason}'"


def build_prompt(context: WorkflowContext) -> str:
    """Assemble the planner prompt: goal, tools, history, insights,
    lessons, error context, and the JSON reply instruction, in that order."""
    lines = [
        "You are the planner for a prescriptive-maintenance data workflow.",
        "",
        "GOAL:",
        context.goal,
        "",
        "AVAILABLE TOOLS:",
    ]
    for i, (name, description, _) in enumerate(STAGES, start=1):
        lines.append(f"{i}. {name}: {description}")
    lines += ["", "STEP HISTORY:"]
    if context.step_history:
        for i, record in enumerate(context.step_history, start=1):
            line = f"{i}. {record.tool_name}: {record.outcome} in {record.duration:.2f}s"
            if record.summary:
                line += f" ({record.summary})"
            lines.append(line)
    else:
        lines.append("(no steps completed yet)")
    lines += ["", "PERFORMANCE INSIGHTS:"]
    if context.performance_insights:
        lines.extend(f"- {note}" for note in context.performance_insights)
    else:
        lines.append("(none yet)")
    if context.lessons_learned:
        lines += ["", "LESSONS LEARNED:"]
        lines.extend(f"- {lesson}" for lesson in context.lessons_learned)
    if context.error_context:
        lines += ["", "ERROR CONTEXT:", context.error_context]
    lines += [
        "",
        'Reply with exactly one JSON object with keys "tool", "finish", and "reason".',
        'Pick "tool" from the list above and explain the choice in "reason".',
        'When the workflow is complete, set "finish" to true and "tool" to "".',
    ]
    return "\n".join(lines)


def _iter_json_candidates(text: str):
    """Yield balanced {...} substrings, respecting strings and escapes."""
    depth = 0
    start = None
    in_string = False
    escaped = False
    for i, ch in enumerate(text):
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == "{":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "}" and depth > 0:
            depth -= 1
            if depth == 0 and start is not None:
                yield text[start:i + 1]
                start = None


def parse_decision(raw: str, succeeded=frozenset()) -> PlannerDecision:
    """Extract and validate the first JSON tool decision in the text.

    Models often wrap the JSON in prose; the first balanced object that
    parses wins. Raises DecisionParseError with a machine-readable code:
    no_json, missing_key, bad_type, unknown_tool (a tool that is not a
    stage), or repeated_tool (a stage in `succeeded`, whose record later
    stages were built from).
    """
    payload = None
    for candidate in _iter_json_candidates(raw):
        try:
            parsed = json.loads(candidate)
        except (ValueError, RecursionError):
            # not JSON, an integer past the digit limit, or nested too deep
            continue
        if isinstance(parsed, dict):
            payload = parsed
            break
    if payload is None:
        raise DecisionParseError("no_json", "no JSON object found in the reply")

    for key in ("tool", "finish", "reason"):
        if key not in payload:
            raise DecisionParseError("missing_key", f"decision lacks required key {key!r}")
    tool, finish, reason = payload["tool"], payload["finish"], payload["reason"]
    if not isinstance(finish, bool):
        raise DecisionParseError("bad_type", '"finish" must be a JSON boolean')
    if not isinstance(tool, str) or not isinstance(reason, str):
        raise DecisionParseError("bad_type", '"tool" and "reason" must be strings')
    if not reason:
        raise DecisionParseError("bad_type", '"reason" must be non-empty')
    if finish:
        return PlannerDecision(tool="", finish=True, reason=reason)
    if tool not in TOOLS:
        raise DecisionParseError("unknown_tool", f"tool {tool!r} is not registered")
    if tool in succeeded:
        raise DecisionParseError("repeated_tool", f"tool {tool!r} already succeeded")
    return PlannerDecision(tool=tool, finish=False, reason=reason)


def rule_based_next(context: WorkflowContext) -> PlannerDecision:
    """Deterministic planner: walk STAGES past succeeded steps, giving each
    row's reason, re-issue the last failed step once, then finish."""
    history = context.step_history
    if history and history[-1].outcome == FAILED:
        failed_tool = history[-1].tool_name
        streak = 0
        for record in reversed(history):
            if record.tool_name == failed_tool and record.outcome == FAILED:
                streak += 1
            else:
                break
        if streak == 1:
            return PlannerDecision(
                tool=failed_tool, finish=False,
                reason=f"Step {failed_tool} failed once; retrying it.",
            )
        return PlannerDecision(
            tool="", finish=True,
            reason=f"Step {failed_tool} failed twice; stopping the workflow.",
        )
    succeeded = context.succeeded_tools()
    for tool, _, reason in STAGES:
        if tool not in succeeded:
            return PlannerDecision(tool=tool, finish=False, reason=reason)
    return PlannerDecision(
        tool="", finish=True, reason="All workflow steps have succeeded."
    )


def plan_next_step(
    context: WorkflowContext,
    backend,
    audit=None,
):
    """One planning step. Returns (decision, provenance, context).

    The context comes back updated because parse failures are recorded as
    lessons. `audit` is an optional callable(event, payload) used to log
    every decision with its reason.
    """
    decision = None
    provenance = PROVENANCE_RULE

    if backend is not None:
        failure_note = ""
        for _ in range(MAX_ATTEMPTS):
            prompt = build_prompt(context)
            if failure_note:
                prompt += (
                    "\n\nPREVIOUS ATTEMPT FAILED: " + failure_note
                    + "\nReply again with exactly one valid JSON object."
                )
            try:
                raw = backend.generate(prompt)
            except BackendError as exc:
                context = record_lesson(
                    context, f"backend {exc.kind}: {exc.detail or 'no detail'}"
                )
                break        # transport failure: no retries, fall back
            try:
                decision = parse_decision(raw, context.succeeded_tools())
                provenance = PROVENANCE_LLM
                break
            except DecisionParseError as exc:
                failure_note = f"{exc.code}: {exc.detail}"
                context = record_lesson(
                    context, f"planner JSON parse failure ({exc.code}): {exc.detail}"
                )

    if decision is None:
        decision = rule_based_next(context)
        provenance = PROVENANCE_RULE

    if provenance == PROVENANCE_LLM:
        logger.info(decision.log_line())
    else:
        logger.info(
            "Rule-based planner decided: tool='%s', finish=%s, reason='%s'",
            decision.tool, decision.finish, decision.reason,
        )
    if audit is not None:
        audit("planner_decision", {
            "tool": decision.tool,
            "finish": decision.finish,
            "reason": decision.reason,
            "provenance": provenance,
        })
    return decision, provenance, context


def slm_advise(backend, tactical_query: str, on_failure=None) -> str | None:
    """Ask the optional small-model backend for a tactical suggestion.

    Strictly advisory: the caller may attach the text to a plan rationale
    but never lets it change a directive. No backend is a silent no-op; a
    failing backend is logged, reported through `on_failure` (so the
    workflow can record a lesson), and otherwise ignored.
    """
    if backend is None:
        return None
    try:
        text = backend.generate(tactical_query)
    except BackendError as exc:
        logger.info("tactical backend unavailable (%s); continuing without it", exc.kind)
        if on_failure is not None:
            on_failure(f"tactical backend {exc.kind}: {exc.detail or 'failed'}")
        return None
    text = (text or "").strip()
    return text or None
