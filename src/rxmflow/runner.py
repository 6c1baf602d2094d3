"""End-to-end workflow driver.

The loop is plan, act, record: the planner (backed by a language model or
the rule-based fallback) picks a stage of `workflow.STAGES`, the runner's
`_<stage>` method runs it with stage-level recovery, and the outcome lands
in the workflow context.

Stage recoveries: a model training failure triggers the next candidate, a
preprocessing failure retries once with the simplified backup plan, the
planner re-issues a failed step once, and a data loading failure ends the
loop at once.

Every run ends in `_finalize`, which builds the completion report, writes
the documents, renders the summary and sets the exit code. When the last
step failed, or the planner finished before `summarize` succeeded with no
step failing (PlannerGaveUpError), the detailed results carry a `failure`
entry (stage, exception class, error), no recommendations file is written
and the exit code is EXIT_DATA_ERROR; `run()` then re-raises a data loading
failure.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from numbers import Real
from pathlib import Path

from . import analytics, optimize
from .audit import AuditLog
from .clocks import SystemClock
from .errors import (
    AllModelsFailedError, AmbiguousTargetError, DataLoadError, EngineError,
    PlannerGaveUpError, SinkUnwritableError,
)
from .models.iforest import valid_contamination
from .orchestrator import plan_next_step, slm_advise
from .perception import flag_quality_issues, inspect_frame, load_csv
from .preprocess import (
    analyze_features, apply_pipeline, decide_tools, discover_schema,
    fit_pipeline, simplified_backup_plan,
)
from .preprocess.plan import mark_removed
from .preprocess.schema import resolve_ambiguous_target, target_rows
from .report import (
    emit_detailed_results, metrics_json, model_attempt_json, render_summary,
    write_recommendations,
)
from .review import MODE_AUTO_APPROVE, MODE_INTERACTIVE, ReviewIO, review
from .workflow import (
    FAILED, SUCCEEDED, TOOLS, StepRecord, WorkflowContext, WorkflowReport,
    add_insight, build_report, record_lesson, record_step,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_REJECTED = 2

GOAL = "Generate prioritized maintenance recommendations from the dataset"
TRAIN_RATIO = 0.8


@dataclass
class WorkflowConfig:
    """The run's settings, one field per CLI flag that reaches the engine."""
    data_path: str
    task: str | None = None              # override, else inferred
    target: str | None = None            # target column hint
    seed: int = 0
    contamination: object = "auto"
    auto_approve: bool = False
    include_routine: bool = False
    max_steps: int = 10
    log_dir: str = "logs"

    def __post_init__(self):
        if self.task is not None and self.task not in analytics.TASKS:
            raise ValueError(f"task must be None or one of {analytics.TASKS}, got {self.task!r}")
        c = self.contamination
        if c != "auto" and not (isinstance(c, Real) and valid_contamination(c)):
            raise ValueError(
                f"contamination must be 'auto' or a fraction in (0, 0.5], got {c!r}")


@dataclass
class RunArtifacts:
    frame: object = None
    metadata: object = None
    quality_issues: list = field(default_factory=list)
    schema: object = None
    feature_report: object = None
    plan: object = None
    pipeline: object = None
    task: str | None = None
    usable_rows: list = field(default_factory=list)
    train_rows: list = field(default_factory=list)
    test_rows: list = field(default_factory=list)
    X_train: object = None
    y_train: list | None = None
    X_test: object = None
    y_test: list | None = None
    feature_names: list = field(default_factory=list)
    ids_test: list = field(default_factory=list)
    attempts: list = field(default_factory=list)
    adaptive_log: object = None
    best_result: object = None
    recommendations: list = field(default_factory=list)
    confidence: object = None
    review_outcome: object = None
    report: WorkflowReport | None = None
    summary_text: str = ""
    step_durations: dict = field(default_factory=dict)
    recommendations_path: Path | None = None
    detailed_results_path: Path | None = None
    failure: dict | None = None
    exit_code: int = EXIT_OK


class WorkflowRunner:
    def __init__(self, config: WorkflowConfig, backend=None, slm_backend=None,
                 io: ReviewIO | None = None, clock=None):
        self.config = config
        self.backend = backend
        self.slm_backend = slm_backend
        self.io = io or ReviewIO()
        self.clock = clock or SystemClock()
        self.artifacts = RunArtifacts()
        self._pending_lessons: list[str] = []
        self.audit = self._open_audit()

    # ------------------------------------------------------------------ setup

    def _open_audit(self) -> AuditLog:
        log_dir = Path(self.config.log_dir)
        try:
            log_dir.mkdir(parents=True, exist_ok=True)
            stamp = self.clock.now().strftime("%Y%m%d_%H%M%S")
            return AuditLog(log_dir / f"audit_{stamp}.jsonl", clock=self.clock)
        except (OSError, SinkUnwritableError) as exc:
            if not self.config.auto_approve:
                raise SinkUnwritableError(str(exc)) from None
            logger.warning("audit sink unwritable (%s); auditing in memory only", exc)
            return AuditLog(None, clock=self.clock)

    def _review_mode(self) -> str:
        return MODE_AUTO_APPROVE if self.config.auto_approve else MODE_INTERACTIVE

    def _note_lesson(self, pattern: str):
        self._pending_lessons.append(pattern)
        self.audit.append("orchestrator", "lesson_recorded", {"pattern": pattern})

    # ------------------------------------------------------------------- loop

    def run(self) -> WorkflowReport:
        config = self.config
        start = self.clock.now()
        context = WorkflowContext(goal=GOAL)

        def audit_decision(event, payload):
            self.audit.append("orchestrator", event, payload)

        error = None        # the exception of the last step, if it failed
        while True:
            if context.current_step_index >= config.max_steps:
                self.audit.append(
                    "orchestrator", "max_steps_exceeded",
                    {"max_steps": config.max_steps},
                )
                break
            decision, provenance, context = plan_next_step(
                context, self.backend, audit=audit_decision
            )
            if decision.finish:
                succeeded = context.succeeded_tools()
                if error is None and TOOLS[-1] not in succeeded:
                    stage = next(t for t in TOOLS if t not in succeeded)
                    error = PlannerGaveUpError(
                        stage, f"the planner finished before {stage}: {decision.reason}")
                break
            step_start = self.clock.now()
            try:
                summary, insights = getattr(self, f"_{decision.tool}")()
                error = None
                record = StepRecord(
                    tool_name=decision.tool, outcome=SUCCEEDED,
                    duration=(self.clock.now() - step_start).total_seconds(),
                    summary=summary,
                )
                self.artifacts.step_durations[decision.tool] = record.duration
            except Exception as exc:
                error, insights = exc, []
                record = StepRecord(
                    tool_name=decision.tool, outcome=FAILED,
                    duration=(self.clock.now() - step_start).total_seconds(),
                    summary="step failed", error=str(exc) or type(exc).__name__,
                )
                # an exception the engine does not raise itself is a bug: keep its traceback
                logger.warning("step %s failed: %s", decision.tool, record.error,
                               exc_info=not isinstance(exc, EngineError))
                self.audit.append("orchestrator", "step_failed", {
                    "tool": decision.tool, "error": record.error,
                })
            context = record_step(context, record)
            for note in insights:
                context = add_insight(context, note)
            for lesson in self._pending_lessons:
                context = record_lesson(context, lesson)
            self._pending_lessons.clear()
            if isinstance(error, DataLoadError):
                break

        total = (self.clock.now() - start).total_seconds()
        report = self._finalize(context, total, error)
        self.audit.close()
        if isinstance(error, DataLoadError):
            raise error
        return report

    # ------------------------------------------------------------------ tools

    def _load_and_inspect_data(self):
        art = self.artifacts
        config = self.config
        art.frame = load_csv(config.data_path)
        art.metadata = inspect_frame(art.frame)
        art.quality_issues = flag_quality_issues(art.metadata)
        self.audit.append("perception", "dataset_inspected", {
            "dataset": Path(config.data_path).name,
            "n_rows": art.metadata.n_rows,
            "n_cols": art.metadata.n_cols,
            "quality_issues": [i.to_json() for i in art.quality_issues],
        })
        summary = f"loaded {art.metadata.n_rows} rows x {art.metadata.n_cols} columns"
        insights = [
            f"dataset has {art.metadata.n_rows} rows, {art.metadata.n_cols} columns, "
            f"{len(art.quality_issues)} quality issues",
        ]
        return summary, insights

    def _resolve_schema(self):
        art = self.artifacts
        config = self.config
        try:
            return discover_schema(art.frame, art.metadata, config.target)
        except AmbiguousTargetError as exc:
            candidates = exc.candidates
            chosen = None
            # an anomaly override never uses the target, so do not bother
            # the reviewer with candidate selection
            prompt_worthy = config.task != analytics.ANOMALY
            if not config.auto_approve and prompt_worthy:
                try:
                    answer = self.io.prompt(
                        "Multiple target candidates: "
                        + ", ".join(candidates)
                        + f". Enter a column name (blank keeps {candidates[-1]}):"
                    )
                    if answer in candidates:
                        chosen = answer
                except EOFError:
                    chosen = None
            if chosen is not None:
                self.audit.append("human", "target_selected", {"target": chosen})
                return discover_schema(art.frame, art.metadata, chosen)
            self.audit.append("preprocessing", "ambiguous_target_resolved", {
                "candidates": candidates, "picked": candidates[-1],
            })
            return resolve_ambiguous_target(art.frame, art.metadata, candidates)

    def _split_rows(self):
        art = self.artifacts
        config = self.config
        frame = art.frame
        target = art.schema.chosen_target
        if art.task == analytics.ANOMALY or target is None:
            rows = list(range(frame.n_rows))
            return rows, rows, rows
        cells = frame.column(target)
        usable = target_rows(cells, art.task)
        dropped = frame.n_rows - len(usable)
        if dropped:
            self.audit.append("preprocessing", "rows_dropped_missing_target", {
                "dropped": dropped,
            })
        values = [cells[i] for i in usable]
        train_pos, test_pos = analytics.split_train_test(
            len(usable), art.task, values, TRAIN_RATIO, config.seed
        )
        train_rows = [usable[i] for i in train_pos]
        test_rows = [usable[i] for i in test_pos]
        return usable, train_rows, test_rows

    def _preprocess_data(self):
        art = self.artifacts
        config = self.config
        art.schema = self._resolve_schema()
        art.task = analytics.infer_task(art.schema, art.metadata, config.task)
        self.audit.append("preprocessing", "task_inferred", {
            "task": art.task, "target": art.schema.chosen_target,
        })
        art.feature_report = analyze_features(
            art.frame, art.metadata, art.schema, art.task, seed=config.seed,
        )
        art.plan = mark_removed(
            decide_tools(art.metadata, art.schema), art.feature_report.removed,
        )
        advice = slm_advise(
            self.slm_backend,
            "Given per-column missingness and cardinality, any concerns with "
            "the chosen imputation/scaling/encoding directives? One sentence.",
            on_failure=self._note_lesson,
        )
        if advice:
            art.plan.advisory_notes.append(f"tactical note: {advice}")
            self.audit.append("preprocessing", "tactical_advice", {"text": advice})

        art.usable_rows, art.train_rows, art.test_rows = self._split_rows()
        try:
            art.pipeline = fit_pipeline(art.frame, art.plan, art.schema, art.train_rows)
        except Exception as exc:
            self.audit.append("preprocessing", "backup_plan_engaged", {
                "error": str(exc),
            })
            art.plan = simplified_backup_plan(art.plan, art.schema)
            art.pipeline = fit_pipeline(art.frame, art.plan, art.schema, art.train_rows)

        transformed = apply_pipeline(art.pipeline, art.frame, art.train_rows)
        art.X_train, _, art.y_train = transformed
        # an anomaly run tests on the rows it trains on: transform them once
        if art.test_rows is not art.train_rows:
            transformed = apply_pipeline(art.pipeline, art.frame, art.test_rows)
        art.X_test, identifiers, art.y_test = transformed
        art.feature_names = art.pipeline.feature_names
        # machine ids: the first identifier column, else the row number
        primary = next(iter(identifiers.values()), [""] * len(art.test_rows))
        art.ids_test = [key or f"row-{i}" for i, key in zip(art.test_rows, primary)]
        self.audit.append("preprocessing", "pipeline_fitted", {
            "features_out": len(art.feature_names),
            "kept": art.feature_report.kept,
            "removed": [list(pair) for pair in art.feature_report.removed],
        })
        kept, removed = len(art.feature_report.kept), len(art.feature_report.removed)
        summary = f"fitted pipeline with {len(art.feature_names)} output features"
        insights = [f"Feature kept: {kept}, removed: {removed}"]
        return summary, insights

    def _approve_contamination(self):
        config = self.config
        if config.auto_approve:
            return config.contamination
        try:
            answer = self.io.prompt(
                f"Isolation forest contamination [{config.contamination}] "
                "(blank keeps it, or enter a fraction):"
            )
        except EOFError:
            return config.contamination
        if not answer:
            return config.contamination
        try:
            value = answer if answer == "auto" else float(answer)
        except ValueError:
            return config.contamination
        if value != "auto" and not valid_contamination(value):
            return config.contamination
        self.audit.append("human", "parameter_approved", {
            "parameter": "contamination", "value": value,
        })
        return value

    def _analyze_data(self):
        art = self.artifacts
        config = self.config
        contamination = config.contamination
        if art.task == analytics.ANOMALY:
            contamination = self._approve_contamination()
        candidates = analytics.select_candidates(
            art.task, len(art.usable_rows), seed=config.seed,
            contamination=contamination,
        )
        pre_attempts = []
        first_result = None
        remaining: list = []
        for i, spec in enumerate(candidates):
            result = analytics.fit_predict_evaluate(
                art.X_train, art.y_train, art.X_test, art.y_test,
                spec, art.task, feature_names=art.feature_names,
            )
            self.audit.append("analytics", "model_attempt", {
                "family": spec.family, "status": result.status,
                "error": result.error,
            })
            if result.status == analytics.STATUS_OK:
                first_result = result
                remaining = candidates[i + 1:]
                break
            pre_attempts.append(result)
        if first_result is None:
            art.attempts = pre_attempts
            raise AllModelsFailedError("every candidate failed to train")

        log = analytics.adaptive_search(
            art.X_train, art.y_train, art.X_test, art.y_test,
            art.task, first_result, remaining,
            feature_names=art.feature_names,
        )
        if len(log.attempts) > 1:
            self.audit.append("analytics", "adaptive_search", {
                "trigger_reason": log.trigger_reason,
                "attempts": [r.spec.family for r in log.attempts],
                "best_index": log.best_index,
            })
        art.attempts = pre_attempts + log.attempts
        art.adaptive_log = log
        art.best_result = log.attempts[log.best_index]

        best = art.best_result
        metrics = best.metrics
        name = best.spec.display_name
        if art.task in analytics.SUPERVISED:
            metric, value = metrics.primary_name(art.task), metrics.primary(art.task)
            note = f"{metric}={value:.4f} with {name}"
            summary = f"{name} {metric} {value:.4f}"
        else:
            n = len(art.usable_rows)
            pct = 100.0 * metrics.anomaly_count / n if n else 0.0
            note = (
                f"{metrics.anomaly_count} anomalies flagged "
                f"({pct:.1f}% of {n} samples)"
            )
            summary = f"{name} flagged {metrics.anomaly_count} anomalies"
        self.audit.append("analytics", "model_selected", {
            "family": best.spec.family, "metrics": metrics_json(metrics),
        })
        return summary, [note]

    def _generate_recommendations(self):
        art = self.artifacts
        best = art.best_result
        if art.task == analytics.ANOMALY:
            # an anomaly run tests on all its rows, so the test ids are all ids
            art.recommendations = optimize.recommend_anomaly(
                best.metrics.anomaly_scores, best.anomaly_flags,
                art.X_test, art.ids_test, art.feature_names,
            )
        else:
            if not best.feature_importances and art.feature_report.importances:
                # model family without native importances: use the advisory
                # forest importances, fitted here on this first read
                best.feature_importances = art.feature_report.importances
            recommend = (
                optimize.recommend_classification
                if art.task == analytics.CLASSIFICATION
                else optimize.recommend_regression
            )
            art.recommendations = recommend(
                best, art.ids_test, art.X_test, art.feature_names,
                self.config.include_routine,
            )
        art.confidence = optimize.assess_confidence(best.metrics, art.task)
        distribution = self._priority_distribution()
        self.audit.append("optimization", "recommendations_generated", {
            "total": len(art.recommendations),
            "priority_distribution": distribution,
            "confidence": art.confidence.level,
            "warning": art.confidence.warning,
        })
        parts = ", ".join(f"{k}: {v}" for k, v in distribution.items())
        insights = [f"{len(art.recommendations)} recommendations ({parts})"]
        if art.confidence.warning:
            insights.append(f"confidence {art.confidence.level}: {art.confidence.warning}")
        summary = f"{len(art.recommendations)} ranked recommendations"
        return summary, insights

    def _summarize(self):
        art = self.artifacts
        art.review_outcome = review(
            art.recommendations, self.io, self._review_mode(),
            audit=lambda event, payload: self.audit.append("human", event, payload),
        )
        summary = f"review outcome: {art.review_outcome.status}"
        return summary, []

    # -------------------------------------------------------------- reporting

    def _priority_distribution(self) -> dict:
        distribution: dict[str, int] = {}
        for rec in self.artifacts.recommendations:
            distribution[rec.priority] = distribution.get(rec.priority, 0) + 1
        return distribution

    def _detailed_sections(self, generated: list[dict], approved: list[dict]) -> dict:
        art = self.artifacts
        dataset = {
            "name": Path(self.config.data_path).name,
            "n_rows": art.metadata.n_rows if art.metadata else None,
            "n_cols": art.metadata.n_cols if art.metadata else None,
            "estimated_memory_bytes": (
                art.metadata.estimated_memory_bytes if art.metadata else None
            ),
            "duplicate_rows": (
                art.metadata.duplicate_row_count if art.metadata else None
            ),
            "quality_issues": [i.to_json() for i in art.quality_issues],
        }
        schema = None
        if art.schema is not None:
            schema = {
                "roles": art.schema.roles,
                "chosen_target": art.schema.chosen_target,
                "evidence": art.schema.evidence,
            }
        plan = None
        if art.plan is not None:
            plan = art.plan.to_json(art.schema)
            if art.pipeline is not None:
                fitted = art.pipeline.fitted_json()
                for name, entry in plan.items():
                    entry["fitted"] = fitted.get(name)
            plan["__advisory_notes__"] = art.plan.advisory_notes
            if art.feature_report is not None:
                plan["__kept__"] = art.feature_report.kept
                plan["__removed__"] = [list(p) for p in art.feature_report.removed]
        adaptive = None
        if art.adaptive_log is not None:
            adaptive = {
                "trigger_reason": art.adaptive_log.trigger_reason,
                "best_index": art.adaptive_log.best_index,
                "primary_metric_name": art.adaptive_log.primary_metric_name,
                "attempt_families": [
                    r.spec.family for r in art.adaptive_log.attempts
                ],
            }
        confidence = None
        if art.confidence is not None:
            confidence = {
                "level": art.confidence.level,
                "warning": art.confidence.warning,
            }
        sections = {
            "dataset": dataset,
            "schema": schema,
            "preprocess_plan": plan,
            "model_attempts": [model_attempt_json(r) for r in art.attempts],
            "adaptive_log": adaptive,
            "recommendations": {
                "generated_total": len(generated),
                "generated": generated,
                "approved_actions": approved,
            },
            "confidence": confidence,
            "review": art.review_outcome.to_json() if art.review_outcome else None,
            "durations": {
                "steps": art.step_durations,
                "total": art.report.total_duration,
            },
        }
        if art.failure is not None:
            sections["failure"] = art.failure
        return sections

    def _finalize(self, context, total_duration, error) -> WorkflowReport:
        """End the run: report, documents, summary and exit code. `error`
        is the exception of the last step when that step failed, or the
        PlannerGaveUpError of a planner that finished early."""
        art = self.artifacts
        rejected = art.review_outcome is not None and art.review_outcome.status == "rejected"
        if error is not None:
            if isinstance(error, PlannerGaveUpError):
                stage, text = error.stage, str(error)
            else:
                last = context.step_history[-1]
                stage, text = last.tool_name, last.error
            art.failure = {"stage": stage, "reason": type(error).__name__, "error": text}
            art.exit_code = EXIT_DATA_ERROR
        elif rejected:
            art.exit_code = EXIT_REJECTED
        distribution = self._priority_distribution()
        best = art.best_result
        feature_columns = (
            len(art.schema.feature_columns()) if art.schema is not None else 0
        )
        review_lines = ()
        if art.review_outcome is not None:
            review_lines = (art.review_outcome.summary_line(),)
        art.report = build_report(
            context, total_duration,
            feature_kept=len(art.feature_report.kept) if art.feature_report else 0,
            feature_removed=len(art.feature_report.removed) if art.feature_report else 0,
            recommendations_total=len(art.recommendations),
            priority_distribution=distribution,
            hitl_outcomes=review_lines,
            dataset_name=Path(self.config.data_path).name,
            task_kind=art.task or "",
            feature_columns=feature_columns,
            model_name=best.spec.display_name if best is not None else "",
        )
        generated = optimize.recommendations_to_json(art.recommendations)
        approved = [] if rejected else generated
        try:
            if art.failure is None:
                art.recommendations_path = write_recommendations(
                    approved, self.config.log_dir, self.clock
                )
            art.detailed_results_path = emit_detailed_results(
                self._detailed_sections(generated, approved),
                self.config.log_dir, self.clock,
            )
            logger.info("Detailed results saved to: %s", art.detailed_results_path)
        except SinkUnwritableError as exc:
            logger.warning("could not persist results: %s", exc)
        art.summary_text = render_summary(
            art.report, best, art.review_outcome, art.failure)
        for line in art.summary_text.splitlines():
            logger.info(line)
        return art.report


def run_workflow(config: WorkflowConfig, backend=None, slm_backend=None,
                 io: ReviewIO | None = None, clock=None):
    """Convenience wrapper: run one workflow and return (report, artifacts)."""
    runner = WorkflowRunner(config, backend=backend, slm_backend=slm_backend,
                            io=io, clock=clock)
    report = runner.run()
    return report, runner.artifacts
