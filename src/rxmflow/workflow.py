"""Shared workflow state: the stage table, task names, step history,
insights and lessons.

`STAGES` is the one list of the workflow's stages, in order. Each row is
(name, prompt description, rule-based reason): the planner prompt lists the
descriptions, the rule-based planner walks the rows and gives their
reasons, a planner reply must name a row that has not yet succeeded, and
the runner runs a stage by calling its `_<name>` method. That method
returns the stage's record, which the runner keeps under the stage's name;
a stage runs only once every earlier row has a record. The names are also
unpacked once (`LOAD`, `PREPROCESS`, ...) for code that reads one stage's
record. Adding a stage is one row here, one name in that unpacking and one
runner method.

Contexts are immutable; every operation returns a new context so a run can
be replayed as a pure fold over its step records. The step index and the
error context are read from the step history, never stored beside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import UnknownToolError

SUCCEEDED = "succeeded"
FAILED = "failed"

CLASSIFICATION = "classification"
REGRESSION = "regression"
ANOMALY = "anomaly_detection"
SUPERVISED = (CLASSIFICATION, REGRESSION)
TASKS = SUPERVISED + (ANOMALY,)

# (name, prompt description, rule-based reason), in workflow order
STAGES: tuple[tuple[str, str, str], ...] = (
    ("load_and_inspect_data",
     "Load the CSV dataset, profile its columns, and flag quality issues.",
     "No data is loaded yet; the workflow starts by loading and "
     "inspecting the dataset."),
    ("preprocess_data",
     "Discover the schema, analyze features, and fit a leakage-safe transform pipeline.",
     "The data is inspected; it must be prepared through imputation, "
     "scaling, encoding, and feature selection before analysis."),
    ("analyze_data",
     "Select candidate models, train and evaluate them, and adapt if performance is low.",
     "A fitted pipeline is ready; train and evaluate candidate models."),
    ("generate_recommendations",
     "Convert model output into ranked prescriptive maintenance recommendations.",
     "A model is trained; convert its predictions into ranked "
     "maintenance recommendations."),
    ("summarize",
     "Run the human review gate, persist results, and render the final summary.",
     "Recommendations are ready; run the review gate and produce the "
     "final summary."),
)
TOOLS = tuple(name for name, _, _ in STAGES)
LOAD, PREPROCESS, ANALYZE, RECOMMEND, SUMMARIZE = TOOLS


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
    step_history: tuple[StepRecord, ...] = ()
    performance_insights: tuple[str, ...] = ()
    lessons_learned: tuple[str, ...] = ()

    @property
    def current_step_index(self) -> int:
        return len(self.step_history)

    @property
    def error_context(self) -> str | None:
        """The last step's error when it failed; a later success clears it,
        so planner prompts do not resurface a stale error."""
        if self.step_history and self.step_history[-1].outcome == FAILED:
            return self.step_history[-1].error
        return None

    def succeeded_tools(self) -> set[str]:
        return {r.tool_name for r in self.step_history if r.outcome == SUCCEEDED}


def record_step(context: WorkflowContext, record: StepRecord) -> WorkflowContext:
    """Append a step record; its tool must be a row of STAGES."""
    if record.tool_name not in TOOLS:
        raise UnknownToolError(f"tool {record.tool_name!r} is not registered")
    return replace(context, step_history=context.step_history + (record,))


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
