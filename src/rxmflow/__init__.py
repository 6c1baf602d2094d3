"""Agentic multi-agent workflow engine for prescriptive maintenance on
tabular manufacturing data."""

from .analytics import (
    ANOMALY, CLASSIFICATION, REGRESSION, AdaptiveSearchLog, Metrics,
    ModelResult, ModelSpec, adaptive_search, fit_predict_evaluate, infer_task,
    select_candidates, split_train_test,
)
from .backends import HttpBackend, OpenAIChatBackend, ScriptedBackend
from .clocks import SystemClock, TickClock
from .optimize import (
    ConfidenceAssessment, Recommendation, TargetStats, Thresholds,
    assess_confidence, priority_score, recommend_anomaly,
    recommend_classification, recommend_regression, thresholds,
)
from .orchestrator import (
    PlannerDecision, build_prompt, parse_decision,
    plan_next_step, rule_based_next, slm_advise,
)
from .perception import (
    DatasetFrame, DatasetMetadata, QualityIssue, flag_quality_issues,
    inspect_frame, load_csv,
)
from .preprocess import (
    FeatureReport, FittedPipeline, PreprocessPlan, SchemaMap,
    analyze_features, apply_pipeline, decide_tools, discover_schema,
    fit_pipeline, simplified_backup_plan,
)
from .runner import RunArtifacts, WorkflowConfig, WorkflowRunner, run_workflow
from .workflow import (
    StepRecord, WorkflowContext, WorkflowReport, record_lesson, record_step,
)

__version__ = "0.1.0"
