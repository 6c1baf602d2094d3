"""Span recorder and per-layer metrics for the traced run.

The recorder wraps public names from outside the engine: module functions
where the runner looks them up, and model methods on their classes. Each
span records its name, start, end and parent; all spans of one run share a
run id. Spans stay in memory and are written to a trace file when the run
ends. `layer_metrics` turns a span list into the per-layer numbers.

A stage span is not a call: it runs from the planner's decision for a tool
until the next planner call, which is how the runner itself brackets a step.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass

_MISSING = object()

STAGES = (
    "load_and_inspect_data", "preprocess_data", "analyze_data",
    "generate_recommendations", "summarize",
)

# (module, attribute, span name): functions wrapped where they are looked up
FUNCTIONS = (
    ("rxmflow.runner", "load_csv", "perception.load_csv"),
    ("rxmflow.runner", "inspect_frame", "perception.inspect_frame"),
    ("rxmflow.runner", "discover_schema", "preprocess.schema.discover_schema"),
    # resolve_ambiguous_target calls discover_schema from inside its module
    ("rxmflow.preprocess.schema", "discover_schema", "preprocess.schema.discover_schema"),
    ("rxmflow.runner", "analyze_features", "preprocess.features.analyze_features"),
    ("rxmflow.runner", "decide_tools", "preprocess.plan.decide_tools"),
    ("rxmflow.runner", "fit_pipeline", "preprocess.pipeline.fit_pipeline"),
    ("rxmflow.runner", "apply_pipeline", "preprocess.pipeline.apply_pipeline"),
    # the runner calls analytics.fit_predict_evaluate, and so does the
    # adaptive loop's default trainer, from inside the module
    ("rxmflow.analytics", "fit_predict_evaluate", "analytics.fit_predict_evaluate"),
    ("rxmflow.optimize", "recommend_classification", "optimize.recommend"),
    ("rxmflow.optimize", "recommend_regression", "optimize.recommend"),
    ("rxmflow.optimize", "recommend_anomaly", "optimize.recommend"),
    ("rxmflow.runner", "review", "review.review"),
    ("rxmflow.runner", "write_recommendations", "report.persist"),
    ("rxmflow.runner", "emit_detailed_results", "report.persist"),
    ("rxmflow.orchestrator", "parse_decision", "orchestrator.parse_decision"),
    ("rxmflow.orchestrator", "rule_based_next", "orchestrator.rule_based_next"),
)

# estimator classes of the analytics stage, by module; IsolationForest's
# inference method is score_samples
MODEL_CLASSES = (
    ("rxmflow.models.forest", "RandomForestClassifier"),
    ("rxmflow.models.forest", "RandomForestRegressor"),
    ("rxmflow.models.logistic", "LogisticRegression"),
    ("rxmflow.models.svm", "SVC"),
    ("rxmflow.models.linear", "LinearRegression"),
    ("rxmflow.models.linear", "Ridge"),
    ("rxmflow.models.linear", "Lasso"),
    ("rxmflow.models.svm", "SVR"),
    ("rxmflow.models.iforest", "IsolationForest"),
)
TREE_CLASSES = (
    ("rxmflow.models.tree", "DecisionTreeClassifier"),
    ("rxmflow.models.tree", "DecisionTreeRegressor"),
)
INFERENCE_METHODS = ("predict", "predict_proba", "score_samples")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float | None = None
    error: str | None = None
    run_id: str = ""


class Tracer:
    """In-memory spans with a parent stack; single-threaded by design."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {"orchestrator.prompt_bytes": 0}
        self._stack: list[Span] = []
        self._restores: list = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.clock(), run_id=self.run_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, error: str | None = None):
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        span.end = self.clock()
        span.error = error
        self._stack.pop()

    def count(self, key: str, amount: float = 1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def call(self, name: str, fn, args, kwargs):
        span = self.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.close(span, error=type(exc).__name__)
            raise
        self.close(span)
        return result

    # ------------------------------------------------------------ patching

    def patch(self, owner, attr: str, replacement):
        """Set owner.attr, remembering how to put the original back."""
        self._restores.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._restores:
            owner, attr, original = self._restores.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def wrap(self, owner, attr: str, name: str):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs)

        self.patch(owner, attr, wrapper)

    def install(self):
        """Wrap every traced name; `restore` undoes all of it."""
        for module_name, attr, name in FUNCTIONS:
            self.wrap(importlib.import_module(module_name), attr, name)
        for module_name, class_name in MODEL_CLASSES + TREE_CLASSES:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in ("fit",) + INFERENCE_METHODS:
                if method in vars(cls):
                    self.wrap(cls, method, f"models.{class_name}.{method}")
        self._wrap_planner(importlib.import_module("rxmflow.runner"))
        self._wrap_backend(importlib.import_module("rxmflow.backends").ScriptedBackend)

    def _wrap_planner(self, runner_module):
        original = runner_module.plan_next_step

        @functools.wraps(original)
        def plan_next_step(*args, **kwargs):
            self.end_stage()
            result = self.call("orchestrator.plan_next_step", original, args, kwargs)
            decision = result[0]
            if not decision.finish:
                self.open(f"stage.{decision.tool}")
            return result

        self.patch(runner_module, "plan_next_step", plan_next_step)

    def _wrap_backend(self, backend_class):
        original = backend_class.generate

        @functools.wraps(original)
        def generate(backend, prompt):
            self.count("orchestrator.prompt_bytes", len(prompt.encode("utf-8")))
            return self.call("orchestrator.backend_generate", original,
                             (backend, prompt), {})

        self.patch(backend_class, "generate", generate)

    def end_stage(self):
        if self._stack and self._stack[-1].name.startswith("stage."):
            self.close(self._stack[-1])

    def dump(self, path):
        document = {"spans": [asdict(s) for s in self.spans], "counts": self.counts}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


# ------------------------------------------------------------------ analysis


def _merged_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = _merged_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())
        )
        out[s.id] = (s.end - s.start) - covered
    return out


def _ancestors(span: Span, by_id: dict[int, Span]):
    parent = span.parent
    while parent is not None:
        ancestor = by_id[parent]
        yield ancestor
        parent = ancestor.parent


def outer_total(spans: list[Span], match, within=None) -> float:
    """Seconds covered by matching spans, counting nested matches once.

    `within`, if given, keeps only spans with an ancestor it matches.
    """
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if not match(s.name):
            continue
        ancestors = list(_ancestors(s, by_id))
        if any(match(a.name) for a in ancestors):
            continue
        if within is not None and not any(within(a.name) for a in ancestors):
            continue
        total += s.end - s.start
    return total


def _named(*names):
    wanted = set(names)
    return lambda name: name in wanted


def _prefixed(prefix):
    return lambda name: name.startswith(prefix)


def _self_of(spans, selfs, name):
    return sum(selfs[s.id] for s in spans if s.name == name)


def _count(spans, name, errors_only=False):
    return sum(1 for s in spans if s.name == name and (s.error or not errors_only))


def _inference_metric(class_name: str) -> str:
    infer = "score_samples" if class_name == "IsolationForest" else "predict"
    return f"models.{class_name}.{infer}_s"


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans.

    `<layer>_s` is the time its spans cover, nested calls of the same layer
    counted once; `<layer>_self_s` leaves out the time of its children.
    Model metrics cover the analytics stage only; the advisory forest of
    feature analysis is `preprocess.features.advisory_forest_s`. Tree
    counts and times cover every tree, wherever it is grown.
    """
    selfs = self_times(spans)
    in_analytics = _named("analytics.fit_predict_evaluate")
    in_features = _named("preprocess.features.analyze_features")
    fpe = "analytics.fit_predict_evaluate"
    tried = _count(spans, fpe)
    out: dict[str, float] = {}
    for tool in STAGES:
        out[f"stage.{tool}_self_s"] = _self_of(spans, selfs, f"stage.{tool}")
    for metric, names in (
        ("perception.load_csv_s", ("perception.load_csv",)),
        ("perception.inspect_frame_s", ("perception.inspect_frame",)),
        ("preprocess.schema.discover_schema_s", ("preprocess.schema.discover_schema",)),
        ("preprocess.features.analyze_features_s", ("preprocess.features.analyze_features",)),
        ("preprocess.plan.decide_tools_s", ("preprocess.plan.decide_tools",)),
        ("preprocess.pipeline.fit_pipeline_s", ("preprocess.pipeline.fit_pipeline",)),
        ("preprocess.pipeline.apply_pipeline_s", ("preprocess.pipeline.apply_pipeline",)),
        ("analytics.fit_predict_evaluate_s", (fpe,)),
        ("optimize.recommend_s", ("optimize.recommend",)),
        ("orchestrator.plan_next_step_s", ("orchestrator.plan_next_step",)),
        ("review.review_s", ("review.review",)),
        ("report.persist_s", ("report.persist",)),
    ):
        out[metric] = outer_total(spans, _named(*names))
    out["preprocess.features.analyze_features_self_s"] = _self_of(
        spans, selfs, "preprocess.features.analyze_features")
    out["preprocess.features.advisory_forest_s"] = outer_total(
        spans, _prefixed("models."), within=in_features)
    out["preprocess.pipeline.fit_calls"] = _count(spans, "preprocess.pipeline.fit_pipeline")
    out["analytics.fit_predict_evaluate_self_s"] = _self_of(spans, selfs, fpe)
    out["analytics.candidates_tried"] = tried
    out["analytics.useful_ratio"] = 1.0 / tried if tried else 0.0
    for _, class_name in MODEL_CLASSES:
        prefix = f"models.{class_name}."
        out[f"{prefix}fit_s"] = outer_total(
            spans, _named(prefix + "fit"), within=in_analytics)
        out[_inference_metric(class_name)] = outer_total(
            spans, _named(*(prefix + m for m in INFERENCE_METHODS)), within=in_analytics)
    tree_fits = [f"models.{c}.fit" for _, c in TREE_CLASSES]
    out["models.trees_built"] = sum(_count(spans, n) for n in tree_fits)
    out["models.tree_fit_s"] = outer_total(spans, _named(*tree_fits))
    out["models.tree_predict_s"] = outer_total(spans, _named(*(
        f"models.{c}.{m}" for _, c in TREE_CLASSES for m in INFERENCE_METHODS)))
    out["orchestrator.planner_calls"] = _count(spans, "orchestrator.plan_next_step")
    out["orchestrator.backend_attempts"] = _count(spans, "orchestrator.backend_generate")
    out["orchestrator.parse_failures"] = _count(
        spans, "orchestrator.parse_decision", errors_only=True)
    out["orchestrator.rule_fallbacks"] = _count(spans, "orchestrator.rule_based_next")
    out["trace.spans"] = len(spans)
    return out


def load(path) -> tuple[list[Span], dict]:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    return [Span(**s) for s in document["spans"]], document["counts"]
