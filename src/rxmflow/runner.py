"""End-to-end workflow driver.

The loop is plan, act, record: the planner (backed by a language model or
the rule-based fallback) picks a stage of `workflow.STAGES`, the runner's
`_<stage>` method runs it with stage-level recovery, and the outcome lands
in the workflow context. A stage method returns one record, a frozen value
built once, and `run()` keeps it in `RunArtifacts.records` under the
stage's name when the stage succeeds; later stages read those records and
never change them (the review returns edited copies). A stage picked
before every earlier stage has a record fails with StageOrderError.

Stage recoveries: a first candidate model that fails to train hands the
others to adaptive search, a preprocessing failure retries once with the
simplified backup plan, the planner re-issues a failed step once, and a
data loading failure ends the loop at once.

Every run ends in `_finalize`, which builds the completion report, writes
the documents (the detailed results fill in the sections of the stages
with a record), renders the summary and sets the exit code. When the last
step failed, or the loop stopped before `summarize` succeeded with no step
failing (PlannerGaveUpError when the planner finished, its subclass
StepCapError when the run reached `max_steps`), the detailed results carry
a `failure` entry (stage, exception class, error), no recommendations file
is written and the exit code is EXIT_DATA_ERROR; `run()` then re-raises a
data loading failure.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from numbers import Real
from pathlib import Path

from . import analytics, optimize, perception, preprocess
from .audit import AuditLog
from .clocks import SystemClock
from .errors import (
    AllModelsFailedError, AmbiguousTargetError, DataLoadError, EngineError,
    PlannerGaveUpError, SinkUnwritableError, StageOrderError, StepCapError,
)
from .models.iforest import valid_contamination
from .orchestrator import plan_next_step, slm_advise
from .perception import flag_quality_issues, inspect_frame, load_csv
from .preprocess import (
    analyze_features, apply_pipeline, decide_tools, discover_schema,
    fit_pipeline, simplified_backup_plan,
)
from .preprocess.plan import mark_removed
from .preprocess.schema import target_rows
from .report import (
    emit_detailed_results, metrics_json, model_attempt_json, render_summary,
    write_recommendations,
)
from .review import MODE_AUTO_APPROVE, MODE_INTERACTIVE, ReviewIO, review
from .workflow import (
    ANALYZE, FAILED, LOAD, PREPROCESS, RECOMMEND, SUCCEEDED, SUMMARIZE, TOOLS,
    StepRecord, WorkflowContext, WorkflowReport, add_insight, build_report,
    record_lesson, record_step,
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


@dataclass(frozen=True)
class Perception:
    """The load_and_inspect_data record."""
    frame: perception.DatasetFrame
    metadata: perception.DatasetMetadata
    quality_issues: list[perception.QualityIssue]


@dataclass(frozen=True)
class Preparation:
    """The preprocess_data record: the resolved schema and task, the fitted
    pipeline, the row split and both transformed sides."""
    schema: preprocess.SchemaMap
    task: str
    feature_report: preprocess.FeatureReport
    plan: preprocess.PreprocessPlan
    pipeline: preprocess.FittedPipeline
    usable_rows: list[int]       # train plus test, each row once
    train_rows: list[int]
    test_rows: list[int]
    X_train: object
    y_train: list | None
    X_test: object
    y_test: list | None
    ids_test: list[str]

    @property
    def feature_names(self) -> list[str]:
        return self.pipeline.feature_names


@dataclass(frozen=True)
class Advice:
    """The generate_recommendations record. `importances` are those the
    recommendations rank by, keyed by the pipeline's feature names: the
    selected model's own, else (SVM, SVR) the advisory forest's, fitted on
    the training matrix; None for an anomaly run."""
    recommendations: list[optimize.Recommendation]
    confidence: optimize.ConfidenceAssessment
    importances: dict[str, float] | None


def _view(stage: str, name: str, empty=None):
    """A read-only RunArtifacts attribute: one field of a stage's record,
    or `empty` while the stage has no record."""
    def read(self):
        record = self.records.get(stage)
        return empty if record is None else getattr(record, name)
    return property(read)


@dataclass
class RunArtifacts:
    """A run's outcome, plus `records`: the record of each stage that
    succeeded, keyed by stage name (analyze_data keeps its
    AdaptiveSearchLog and summarize its ReviewOutcome)."""
    records: dict = field(default_factory=dict)
    step_durations: dict = field(default_factory=dict)
    report: WorkflowReport | None = None
    summary_text: str = ""
    recommendations_path: Path | None = None
    detailed_results_path: Path | None = None
    failure: dict | None = None
    exit_code: int = EXIT_OK

    frame = _view(LOAD, "frame")
    task = _view(PREPROCESS, "task")
    pipeline = _view(PREPROCESS, "pipeline")
    usable_rows = _view(PREPROCESS, "usable_rows", ())
    attempts = _view(ANALYZE, "attempts", ())
    best_result = _view(ANALYZE, "best")
    recommendations = _view(RECOMMEND, "recommendations", ())


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

    def _note_lesson(self, pattern: str):
        self._pending_lessons.append(pattern)
        self.audit.append("orchestrator", "lesson_recorded", {"pattern": pattern})

    # ------------------------------------------------------------------- loop

    def run(self) -> WorkflowReport:
        config = self.config
        records = self.artifacts.records
        start = self.clock.now()
        context = WorkflowContext(goal=GOAL)

        error = None        # the exception of the last step, if it failed
        while True:
            if context.current_step_index >= config.max_steps:
                self.audit.append(
                    "orchestrator", "max_steps_exceeded",
                    {"max_steps": config.max_steps},
                )
                stop = StepCapError, f"the step cap of {config.max_steps} was reached", ""
                break
            decision, provenance, context = plan_next_step(
                context, self.backend,
                audit=lambda event, payload: self.audit.append("orchestrator", event, payload),
            )
            tool = decision.tool
            if decision.finish:
                stop = PlannerGaveUpError, "the planner finished", f": {decision.reason}"
                break
            step_start = self.clock.now()
            try:
                missing = [t for t in TOOLS[:TOOLS.index(tool)] if t not in records]
                if missing:
                    raise StageOrderError(f"{tool} needs {missing[0]} to succeed first")
                records[tool], summary, insights = getattr(self, f"_{tool}")()
                error = None
            except Exception as exc:
                error, summary, insights = exc, "step failed", []
            step = StepRecord(
                tool_name=tool, outcome=FAILED if error else SUCCEEDED,
                duration=(self.clock.now() - step_start).total_seconds(),
                summary=summary, error=(str(error) or type(error).__name__) if error else None,
            )
            if error is not None:
                # an exception the engine does not raise itself is a bug: keep its traceback
                logger.warning("step %s failed: %s", tool, step.error,
                               exc_info=None if isinstance(error, EngineError) else error)
                self.audit.append("orchestrator", "step_failed", {
                    "tool": tool, "error": step.error,
                })
            context = record_step(context, step)
            for note in insights:
                context = add_insight(context, note)
            for lesson in self._pending_lessons:
                context = record_lesson(context, lesson)
            self._pending_lessons.clear()
            if isinstance(error, DataLoadError):
                break
        # a loop that stopped before summarize succeeded, with no step failing
        if error is None and SUMMARIZE not in records:
            kind, what, why = stop
            stage = next(t for t in TOOLS if t not in records)
            error = kind(stage, f"{what} before {stage}{why}")

        total = (self.clock.now() - start).total_seconds()
        report = self._finalize(context, total, error)
        self.audit.close()
        if isinstance(error, DataLoadError):
            raise error
        return report

    # ----------------------------------------------------------------- stages
    # each returns (its stage's record, step summary, insights)

    def _load_and_inspect_data(self):
        path = self.config.data_path
        frame = load_csv(path)
        metadata = inspect_frame(frame)
        issues = flag_quality_issues(metadata)
        self.audit.append("perception", "dataset_inspected", {
            "dataset": Path(path).name,
            "n_rows": metadata.n_rows,
            "n_cols": metadata.n_cols,
            "quality_issues": [i.to_json() for i in issues],
        })
        summary = f"loaded {metadata.n_rows} rows x {metadata.n_cols} columns"
        insight = (f"dataset has {metadata.n_rows} rows, {metadata.n_cols} columns, "
                   f"{len(issues)} quality issues")
        return Perception(frame, metadata, issues), summary, [insight]

    def _resolve_schema(self, seen: Perception):
        config = self.config
        try:
            return discover_schema(seen.frame, seen.metadata, config.target)
        except AmbiguousTargetError as exc:
            candidates = exc.candidates
            answer = None
            # an anomaly override never uses the target, so do not bother
            # the reviewer with candidate selection
            if not config.auto_approve and config.task != analytics.ANOMALY:
                try:
                    answer = self.io.prompt(
                        "Multiple target candidates: "
                        + ", ".join(candidates)
                        + f". Enter a column name (blank keeps {candidates[-1]}):"
                    )
                except EOFError:
                    pass
            if answer in candidates:
                self.audit.append("human", "target_selected", {"target": answer})
                return discover_schema(seen.frame, seen.metadata, answer)
            self.audit.append("preprocessing", "ambiguous_target_resolved", {
                "candidates": candidates, "picked": candidates[-1],
            })
            return discover_schema(seen.frame, seen.metadata, candidates[-1])

    def _split_rows(self, frame, schema, task):
        target = schema.chosen_target
        if task == analytics.ANOMALY or target is None:
            rows = list(range(frame.n_rows))
            return rows, rows, rows
        cells = frame.column(target)
        usable = target_rows(cells, task)
        dropped = frame.n_rows - len(usable)
        if dropped:
            self.audit.append("preprocessing", "rows_dropped_missing_target", {
                "dropped": dropped,
            })
        values = [cells[i] for i in usable]
        train_pos, test_pos = analytics.split_train_test(
            len(usable), task, values, TRAIN_RATIO, self.config.seed
        )
        train_rows = [usable[i] for i in train_pos]
        test_rows = [usable[i] for i in test_pos]
        return usable, train_rows, test_rows

    def _preprocess_data(self):
        config = self.config
        seen = self.artifacts.records[LOAD]
        frame = seen.frame
        schema = self._resolve_schema(seen)
        task = analytics.infer_task(schema, seen.metadata, config.task)
        self.audit.append("preprocessing", "task_inferred", {
            "task": task, "target": schema.chosen_target,
        })
        feature_report = analyze_features(frame, seen.metadata, schema)
        plan = mark_removed(decide_tools(seen.metadata, schema), feature_report.removed)
        advice = slm_advise(
            self.slm_backend,
            "Given per-column missingness and cardinality, any concerns with "
            "the chosen imputation/scaling/encoding directives? One sentence.",
            on_failure=self._note_lesson,
        )
        if advice:
            plan.advisory_notes.append(f"tactical note: {advice}")
            self.audit.append("preprocessing", "tactical_advice", {"text": advice})

        usable_rows, train_rows, test_rows = self._split_rows(frame, schema, task)
        try:
            pipeline = fit_pipeline(frame, plan, schema, train_rows)
        except Exception as exc:
            self.audit.append("preprocessing", "backup_plan_engaged", {
                "error": str(exc),
            })
            plan = simplified_backup_plan(plan, schema)
            pipeline = fit_pipeline(frame, plan, schema, train_rows)

        X_train, _, y_train = transformed = apply_pipeline(pipeline, frame, train_rows)
        # an anomaly run tests on the rows it trains on: transform them once
        if test_rows is not train_rows:
            transformed = apply_pipeline(pipeline, frame, test_rows)
        X_test, identifiers, y_test = transformed
        # machine ids: the first identifier column, else the row number
        primary = next(iter(identifiers.values()), [""] * len(test_rows))
        ids_test = [key or f"row-{i}" for i, key in zip(test_rows, primary)]
        features_out = len(pipeline.feature_names)
        self.audit.append("preprocessing", "pipeline_fitted", {
            "features_out": features_out,
            "kept": feature_report.kept,
            "removed": [list(pair) for pair in feature_report.removed],
        })
        kept, removed = len(feature_report.kept), len(feature_report.removed)
        prepared = Preparation(
            schema, task, feature_report, plan, pipeline,
            usable_rows, train_rows, test_rows,
            X_train, y_train, X_test, y_test, ids_test,
        )
        summary = f"fitted pipeline with {features_out} output features"
        return prepared, summary, [f"Feature kept: {kept}, removed: {removed}"]

    def _approve_contamination(self):
        default = self.config.contamination
        if self.config.auto_approve:
            return default
        try:
            answer = self.io.prompt(
                f"Isolation forest contamination [{default}] "
                "(blank keeps it, or enter a fraction):"
            )
            value = answer if answer == "auto" else float(answer)
        except (EOFError, ValueError):      # no answer, a blank or not a number
            return default
        if value != "auto" and not valid_contamination(value):
            return default
        self.audit.append("human", "parameter_approved", {
            "parameter": "contamination", "value": value,
        })
        return value

    def _analyze_data(self):
        config = self.config
        prep = self.artifacts.records[PREPROCESS]
        task = prep.task
        contamination = (self._approve_contamination() if task == analytics.ANOMALY
                         else config.contamination)
        first, *rest = analytics.select_candidates(
            task, len(prep.usable_rows), seed=config.seed, contamination=contamination)
        data = (prep.X_train, prep.y_train, prep.X_test, prep.y_test)
        result = analytics.fit_predict_evaluate(
            *data, first, task, feature_names=prep.feature_names)
        self.audit.append("analytics", "model_attempt", {
            "family": first.family, "status": result.status,
            "error": result.error,
        })
        # a first candidate that failed to train hands the rest to the search
        log = analytics.adaptive_search(
            *data, task, result, rest, feature_names=prep.feature_names)
        if len(log.attempts) > 1:
            self.audit.append("analytics", "adaptive_search", {
                "trigger_reason": log.trigger_reason,
                "attempts": [r.spec.family for r in log.attempts],
                "best_index": log.best_index,
            })

        best = log.best
        metrics = best.metrics
        name = best.spec.display_name
        if task in analytics.SUPERVISED:
            metric, value = analytics.PRIMARY_METRIC[task], metrics.primary(task)
            note = f"{metric}={value:.4f} with {name}"
            summary = f"{name} {metric} {value:.4f}"
        else:
            n = len(prep.usable_rows)
            pct = 100.0 * metrics.anomaly_count / n if n else 0.0
            note = f"{metrics.anomaly_count} anomalies flagged ({pct:.1f}% of {n} samples)"
            summary = f"{name} flagged {metrics.anomaly_count} anomalies"
        self.audit.append("analytics", "model_selected", {
            "family": best.spec.family, "metrics": metrics_json(metrics),
        })
        return log, summary, [note]

    def _generate_recommendations(self):
        prep = self.artifacts.records[PREPROCESS]
        best = self.artifacts.records[ANALYZE].best
        task = prep.task
        importances = best.feature_importances
        if task == analytics.ANOMALY:
            # an anomaly run tests on all its rows, so the test ids are all ids
            recommendations = optimize.recommend_anomaly(
                best.metrics.anomaly_scores, best.anomaly_flags,
                prep.X_test, prep.ids_test, prep.feature_names,
            )
        else:
            # a model family without importances of its own ranks by the
            # advisory forest's, fitted here on the model's training matrix
            importances = importances or analytics.advisory_importances(
                prep.X_train, prep.y_train, prep.feature_names, task, self.config.seed)
            recommend = (
                optimize.recommend_classification
                if task == analytics.CLASSIFICATION
                else optimize.recommend_regression
            )
            recommendations = recommend(
                best, importances, prep.ids_test, prep.X_test, prep.feature_names,
                self.config.include_routine,
            )
        confidence = optimize.assess_confidence(best.metrics, task)
        distribution = dict(Counter(r.priority for r in recommendations))
        self.audit.append("optimization", "recommendations_generated", {
            "total": len(recommendations),
            "priority_distribution": distribution,
            "confidence": confidence.level,
            "warning": confidence.warning,
        })
        parts = ", ".join(f"{k}: {v}" for k, v in distribution.items())
        insights = [f"{len(recommendations)} recommendations ({parts})"]
        if confidence.warning:
            insights.append(f"confidence {confidence.level}: {confidence.warning}")
        summary = f"{len(recommendations)} ranked recommendations"
        return Advice(recommendations, confidence, importances), summary, insights

    def _summarize(self):
        mode = MODE_AUTO_APPROVE if self.config.auto_approve else MODE_INTERACTIVE
        outcome = review(
            self.artifacts.records[RECOMMEND].recommendations, self.io, mode,
            audit=lambda event, payload: self.audit.append("human", event, payload),
        )
        return outcome, f"review outcome: {outcome.status}", []

    # -------------------------------------------------------------- reporting

    def _detailed_sections(self, generated: list[dict], approved: list[dict],
                           attempts) -> dict:
        art = self.artifacts
        seen, prep, log, advice, outcome = map(art.records.get, TOOLS)
        dataset = {
            "name": Path(self.config.data_path).name, "n_rows": None,
            "n_cols": None, "estimated_memory_bytes": None,
            "duplicate_rows": None, "quality_issues": [],
        }
        if seen is not None:
            metadata = seen.metadata
            dataset.update(
                n_rows=metadata.n_rows, n_cols=metadata.n_cols,
                estimated_memory_bytes=metadata.estimated_memory_bytes,
                duplicate_rows=metadata.duplicate_row_count,
                quality_issues=[i.to_json() for i in seen.quality_issues],
            )
        schema = plan = None
        if prep is not None:
            schema = {
                "roles": prep.schema.roles,
                "chosen_target": prep.schema.chosen_target,
                "evidence": prep.schema.evidence,
            }
            plan = prep.plan.to_json(prep.schema)
            fitted = prep.pipeline.fitted_json()
            for name, entry in plan.items():
                entry["fitted"] = fitted.get(name)
            plan["__advisory_notes__"] = prep.plan.advisory_notes
            plan["__kept__"] = prep.feature_report.kept
            plan["__removed__"] = [list(p) for p in prep.feature_report.removed]
        adaptive = winner = None
        if log is not None:
            winner = log.best
            adaptive = {
                "trigger_reason": log.trigger_reason,
                "best_index": log.best_index,
                "primary_metric_name": log.primary_metric_name,
                "attempt_families": [r.spec.family for r in log.attempts],
            }
        confidence = None
        recommendations = {
            "generated_total": len(generated),
            "generated": generated,
            "approved_actions": approved,
        }
        if advice is not None:
            confidence = {
                "level": advice.confidence.level,
                "warning": advice.confidence.warning,
            }
            # a winner without importances of its own ranked by the advisory forest's
            if advice.importances is not None and winner.feature_importances is None:
                recommendations["advisory_importances"] = advice.importances
        sections = {
            "dataset": dataset,
            "schema": schema,
            "preprocess_plan": plan,
            "model_attempts": [model_attempt_json(r) for r in attempts],
            "adaptive_log": adaptive,
            "recommendations": recommendations,
            "confidence": confidence,
            "review": outcome.to_json() if outcome else None,
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
        PlannerGaveUpError of a loop that stopped before summarize."""
        art = self.artifacts
        art.step_durations = {
            s.tool_name: s.duration for s in context.step_history if s.outcome == SUCCEEDED}
        prep = art.records.get(PREPROCESS)
        outcome = art.records.get(SUMMARIZE)
        rejected = outcome is not None and outcome.status == "rejected"
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
        # approved, written and counted as reviewed; `generated` as ranked
        reviewed = outcome.recommendations if outcome else art.recommendations
        best = art.best_result
        art.report = build_report(
            context, total_duration,
            feature_kept=len(prep.feature_report.kept) if prep else 0,
            feature_removed=len(prep.feature_report.removed) if prep else 0,
            recommendations_total=len(reviewed),
            priority_distribution=dict(Counter(r.priority for r in reviewed)),
            hitl_outcomes=(outcome.summary_line(),) if outcome else (),
            dataset_name=Path(self.config.data_path).name,
            task_kind=prep.task if prep else "",
            feature_columns=len(prep.schema.feature_columns()) if prep else 0,
            model_name=best.spec.display_name if best is not None else "",
        )
        # a run whose every candidate failed lists them from the exception
        attempts = error.attempts if isinstance(error, AllModelsFailedError) else art.attempts
        generated = optimize.recommendations_to_json(art.recommendations)
        approved = [] if rejected else optimize.recommendations_to_json(reviewed)
        try:
            if art.failure is None:
                art.recommendations_path = write_recommendations(
                    approved, self.config.log_dir, self.clock
                )
            art.detailed_results_path = emit_detailed_results(
                self._detailed_sections(generated, approved, attempts),
                self.config.log_dir, self.clock,
            )
            logger.info("Detailed results saved to: %s", art.detailed_results_path)
        except SinkUnwritableError as exc:
            logger.warning("could not persist results: %s", exc)
        art.summary_text = render_summary(art.report, best, outcome, art.failure)
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
