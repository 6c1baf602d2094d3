"""One measured workflow run, in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC_JSON SPAWNED

run.py writes the spec and starts this file once per measured run, because
a command-line user pays the interpreter start and the imports on every
invocation. The spec names the CSV, the engine options and where to write
the result; SPAWNED is the CLOCK_MONOTONIC reading taken just before the
process was started. Set-up time runs from that reading until `import
rxmflow` and the construction of a WorkflowRunner are done.
"""

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(art) -> str:
    """Recommendations as written plus every model attempt's metrics."""
    from rxmflow.report import metrics_json

    h = hashlib.sha256(Path(art.recommendations_path).read_bytes())
    attempts = [metrics_json(r.metrics) for r in art.attempts]
    h.update(json.dumps(attempts, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


def _problems(spec, report, art) -> list[str]:
    problems = []
    if report.steps_succeeded != 5 or report.steps_total != 5:
        problems.append(f"steps {report.steps_succeeded}/{report.steps_total}")
    if art.exit_code != 0:
        problems.append(f"exit code {art.exit_code}")
    if not art.recommendations or art.recommendations_path is None:
        problems.append("no recommendations")
    if art.task != spec["expect_task"]:
        problems.append(f"task {art.task}, expected {spec['expect_task']}")
    return problems


def _counts(art, log_dir: Path) -> dict:
    """Layer counters read from the finished run, outside any timing."""
    from rxmflow.analytics import STATUS_OK

    frame = art.frame
    fitted = [f.name for f in art.pipeline.column_fits]
    rows = art.usable_rows    # train plus test, each row once
    written = [art.recommendations_path, art.detailed_results_path]
    return {
        "perception.cells": frame.n_rows * len(frame.column_names),
        "perception.text_cells": sum(
            isinstance(c, str) for col in frame.columns for c in col
        ),
        "preprocess.pipeline.missing_cells_in": sum(
            frame.column(name)[i] is None for name in fitted for i in rows
        ),
        "analytics.failed_candidates": sum(
            r.status != STATUS_OK for r in art.attempts
        ),
        "optimize.recommendations": len(art.recommendations),
        "report.bytes_written": sum(Path(p).stat().st_size for p in written if p),
        "audit.records": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in log_dir.glob("audit_*.jsonl")
        ),
    }


def main(spec, spawned, result):
    sys.path.insert(0, spec["src"])
    import rxmflow

    options = dict(
        data_path=spec["csv"], task=spec["task"],
        contamination=spec["contamination"], auto_approve=True,
    )
    rxmflow.WorkflowRunner(
        rxmflow.WorkflowConfig(log_dir=spec["log_dir"] + "/setup", **options)
    ).audit.close()
    result["setup_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned
    if spec["setup_only"]:
        result["peak_rss_mb"] = _peak_rss_mb()
        return
    log_dir = Path(spec["log_dir"]) / "run"
    config = rxmflow.WorkflowConfig(log_dir=str(log_dir), **options)
    script = spec["planner_script"]
    backend = rxmflow.ScriptedBackend(script) if script else None
    tracer = None
    if spec["trace"]:
        from spans import Tracer   # this file's directory is on sys.path

        tracer = Tracer(run_id=spec["run_id"])
        tracer.install()
        root = tracer.open("run")
    window_start = time.clock_gettime(time.CLOCK_MONOTONIC)
    start = time.perf_counter()
    try:
        report, art = rxmflow.run_workflow(config, backend=backend)
    finally:
        if tracer is not None:
            tracer.end_stage()
            tracer.close(root)
            tracer.restore()
    result["run_s"] = time.perf_counter() - start
    result["run_window"] = [window_start, time.clock_gettime(time.CLOCK_MONOTONIC)]
    result["peak_rss_mb"] = _peak_rss_mb()
    result["problems"] = _problems(spec, report, art)
    result["step_durations"] = art.step_durations
    if art.recommendations_path is not None:
        result["digest"] = _digest(art)
    best = art.best_result
    result["accuracy"] = best.metrics.accuracy if best else None
    result["r2"] = best.metrics.r2 if best else None
    if best is not None and best.anomaly_flags is not None:
        result["flagged_rows"] = [int(i) for i in best.anomaly_flags.nonzero()[0]]
    if tracer is not None:
        tracer.counts.update(_counts(art, log_dir))
        tracer.dump(spec["trace"])


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    result: dict = {}
    try:
        main(spec, float(sys.argv[2]), result)
    except Exception as exc:  # reported to run.py as a failed run
        result["error"] = traceback.format_exc(limit=5)
        result["problems"] = [f"raised {type(exc).__name__}: {exc}"]
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
