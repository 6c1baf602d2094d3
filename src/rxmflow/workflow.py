"""Shared workflow state: goal, tool registry, step history, insights, lessons.

Contexts are immutable; every operation returns a new context so a run can be
replayed as a pure fold over its step records.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import UnknownToolError

SUCCEEDED = "succeeded"
FAILED = "failed"

# Canonical tool registry for the five-step maintenance workflow.
DEFAULT_TOOLS: tuple[tuple[str, str], ...] = (
    ("load_and_inspect_data",
     "Load the CSV dataset, profile its columns, and flag quality issues."),
    ("preprocess_data",
     "Discover the schema, analyze features, and fit a leakage-safe transform pipeline."),
    ("analyze_data",
     "Select candidate models, train and evaluate them, and adapt if performance is low."),
    ("generate_recommendations",
     "Convert model output into ranked prescriptive maintenance recommendations."),
    ("summarize",
     "Run the human review gate, persist results, and render the final summary."),
)


@dataclass(frozen=True)
class StepRecord:
    tool_name: str
    outcome: str                 # SUCCEEDED or FAILED
    duration: float              # seconds
    summary: str
    error: str | None = None

    def __post_init__(self):
        if self.outcome not in (SUCCEEDED, FAILED):
            raise ValueError(f"unknown outcome {self.outcome!r}")
        if self.outcome == FAILED and not self.error:
            raise ValueError("failed steps must carry an error message")


@dataclass(frozen=True)
class WorkflowContext:
    goal: str
    available_tools: tuple[tuple[str, str], ...] = DEFAULT_TOOLS
    step_history: tuple[StepRecord, ...] = ()
    current_step_index: int = 0
    performance_insights: tuple[str, ...] = ()
    lessons_learned: tuple[str, ...] = ()
    error_context: str | None = None

    def tool_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.available_tools)

    def succeeded_tools(self) -> set[str]:
        return {r.tool_name for r in self.step_history if r.outcome == SUCCEEDED}


def record_step(context: WorkflowContext, record: StepRecord) -> WorkflowContext:
    """Append a step record, advancing the step index.

    A failed step sets error_context to its error; a succeeding step clears
    any stale error so later planner prompts do not resurface it.
    """
    if record.tool_name not in context.tool_names():
        raise UnknownToolError(f"tool {record.tool_name!r} is not registered")
    error = record.error if record.outcome == FAILED else None
    return replace(
        context,
        step_history=context.step_history + (record,),
        current_step_index=context.current_step_index + 1,
        error_context=error,
    )


def record_lesson(context: WorkflowContext, failure_pattern: str) -> WorkflowContext:
    """Append a failure pattern to the lessons list (history, not a set)."""
    if not failure_pattern:
        raise ValueError("failure_pattern must be non-empty")
    return replace(
        context, lessons_learned=context.lessons_learned + (failure_pattern,)
    )


def add_insight(context: WorkflowContext, insight: str) -> WorkflowContext:
    return replace(
        context, performance_insights=context.performance_insights + (insight,)
    )


@dataclass(frozen=True)
class WorkflowReport:
    goal: str
    total_duration: float
    steps_succeeded: int
    steps_total: int
    feature_kept: int = 0
    feature_removed: int = 0
    recommendations_total: int = 0
    priority_distribution: dict = field(default_factory=dict)
    hitl_outcomes: tuple[str, ...] = ()
    dataset_name: str = ""
    task_kind: str = ""
    feature_columns: int = 0
    model_name: str = ""


def build_report(context: WorkflowContext, total_duration: float, **fields) -> WorkflowReport:
    succeeded = sum(1 for r in context.step_history if r.outcome == SUCCEEDED)
    return WorkflowReport(
        goal=context.goal,
        total_duration=total_duration,
        steps_succeeded=succeeded,
        steps_total=len(context.step_history),
        **fields,
    )
