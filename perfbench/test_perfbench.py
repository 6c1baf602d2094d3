"""Self-tests of the benchmark, on tiny inputs.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, outer_total, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# smallest row counts at which every check, quality floors included, holds
TINY_ROWS = {
    "desk_classify": 600,
    "gapped_regress": 300,
    "network_anomaly": 400,
    "network_classify": 1000,
}


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--rows", str(TINY_ROWS[workload])],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(result: dict, wanted: list[dict]):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", sorted(TINY_ROWS))
def test_every_workload_emits_every_end_to_end_metric(workload):
    result = _run(workload, trace=0)
    _assert_metrics(result, BENCHMARK["end_to_end"])
    assert result["metrics"]["ok_run_share"]["value"] == 1.0


def test_traced_run_emits_every_layer_metric_and_matches_untraced():
    # gapped_regress is the one workload with a backend, so every planner
    # counter is live; correct=True means traced and untraced digests agree
    result = _run("gapped_regress", trace=1)
    _assert_metrics(result, BENCHMARK["per_layer"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["orchestrator.parse_failures"] == 1
    assert m["orchestrator.backend_attempts"] == 7
    assert m["orchestrator.rule_fallbacks"] == 0
    assert m["preprocess.pipeline.fit_calls"] == 1
    assert m["preprocess.pipeline.missing_cells_in"] > 0
    assert m["analytics.candidates_tried"] == 1
    assert m["models.LinearRegression.fit_s"] > 0
    assert m["models.RandomForestClassifier.fit_s"] == 0


def test_benchmark_file_is_well_formed():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
             for m in BENCHMARK[k]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in BENCHMARK["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_reference_scale_uses_readings_inside_the_interval():
    reference = run.Reference.__new__(run.Reference)
    reference.times = [0.5, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 3.0]
    reference.cpu = [9.0, 2e-4, 2e-4, 3e-4, 3e-4, 3e-4, 3e-4, 9.0]
    expected = (run.REFERENCE_REP_S / 3e-4) ** run.REFERENCE_EXPONENT
    # six readings inside [1.0, 1.5]; their median is 3e-4
    assert reference.scale(1.0, 1.5) == pytest.approx(expected)
    # too few readings inside: the interval widens until it has enough
    assert reference.scale(1.05, 1.15) == pytest.approx(expected)


def test_end_to_end_scales_times_and_keeps_wall_medians():
    runs = [
        {"ok": True, "run_s": 2.0, "run_scale": 1.5, "peak_rss_mb": 50.0, "quality": 0.9},
        {"ok": True, "run_s": 4.0, "run_scale": 0.5, "peak_rss_mb": 52.0, "quality": 0.9},
        {"ok": False, "run_s": 9.0, "run_scale": 1.0, "peak_rss_mb": 99.0, "quality": None},
    ]
    setups = [{"setup_s": 0.4, "setup_scale": 1.0}, {"setup_s": 0.6, "setup_scale": 1.0}]
    values = run.end_to_end(runs, setups)
    assert values["run_s"] == pytest.approx(2.5)          # median of 3.0 and 2.0
    assert values["wall_run_s"] == pytest.approx(3.0)
    assert values["setup_s"] == pytest.approx(0.5)
    assert values["peak_rss_mb"] == 51.0 and values["quality"] == 0.9
    assert values["ok_run_share"] == pytest.approx(2 / 3)


def test_anomaly_quality_is_the_planted_share_of_flagged_rows():
    workload = workloads.WORKLOADS["network_anomaly"]
    record = {"planted_rows": [1, 2, 3, 4]}
    runs = [
        {"trace_path": None, "digest": "d", "flagged_rows": [1, 2, 3, 4]},
        # every planted row flagged, but twice as many rows flagged
        {"trace_path": None, "digest": "d", "flagged_rows": [1, 2, 3, 4, 5, 6, 7, 8]},
        {"trace_path": None, "digest": "d", "flagged_rows": []},
    ]
    run.check_runs(workload, record, runs)
    assert [r["quality"] for r in runs] == [1.0, 0.5, 0.0]
    assert [r["ok"] for r in runs] == [True, False, False]


def test_traced_run_fails_when_stages_do_not_account_for_it(tmp_path):
    tracer = Tracer("t", clock=iter([0.0, 0.1, 1.1, 1.2, 3.2, 3.3]).__next__)
    root = tracer.open("run")
    tracer.close(tracer.open("stage.load_and_inspect_data"))
    tracer.close(tracer.open("stage.preprocess_data"))
    tracer.close(root)
    tracer.dump(tmp_path / "trace.json")
    base = {"trace_path": str(tmp_path / "trace.json"), "digest": "d", "r2": 0.9}
    steps = {"load_and_inspect_data": 1.0, "preprocess_data": 2.0}
    good = dict(base, run_s=3.3, step_durations=steps)
    # the engine's own stage times miss a second of the traced run
    bad = dict(base, run_s=3.3, step_durations=dict(steps, preprocess_data=1.0))
    assert run.accounting_gap(good) == pytest.approx(0.0)
    assert run.accounting_gap(bad) == pytest.approx(1.0)
    run.check_runs(workloads.WORKLOADS["gapped_regress"], {}, [good, bad])
    assert good["ok"] and not bad["ok"]


# ------------------------------------------------------------- span arithmetic


def _span(i, parent, name, start, end):
    return Span(id=i, parent=parent, name=name, start=start, end=end)


def test_self_time_subtracts_children_once():
    tree = [
        _span(0, None, "run", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 4.0),
        _span(2, 1, "a.child", 2.0, 3.0),
        _span(3, 0, "b", 3.0, 6.0),        # overlaps a: covered once
        _span(4, 0, "c", 9.0, 12.0),       # runs past its parent: clipped
    ]
    selfs = self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(3.0)


def test_forest_predict_nesting_is_counted_once():
    tree = [
        _span(0, None, "analytics.fit_predict_evaluate", 0.0, 10.0),
        _span(1, 0, "models.RandomForestClassifier.predict", 1.0, 5.0),
        _span(2, 1, "models.RandomForestClassifier.predict_proba", 1.5, 4.5),
        _span(3, 2, "models.DecisionTreeClassifier.predict_proba", 2.0, 3.0),
        _span(4, 0, "models.RandomForestClassifier.predict_proba", 6.0, 7.0),
    ]
    inference = {"models.RandomForestClassifier.predict",
                 "models.RandomForestClassifier.predict_proba"}
    assert outer_total(tree, inference.__contains__) == pytest.approx(5.0)
    selfs = self_times(tree)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(2.0)
    # within= keeps only spans under a matching ancestor
    features = {"preprocess.features.analyze_features"}.__contains__
    assert outer_total(tree, inference.__contains__, within=features) == 0.0


def test_layer_metrics_read_stages_and_models_from_spans():
    tree = [
        _span(0, None, "run", 0.0, 10.0),
        _span(1, 0, "orchestrator.plan_next_step", 0.0, 0.5),
        _span(2, 0, "stage.analyze_data", 0.5, 9.0),
        _span(3, 2, "analytics.fit_predict_evaluate", 1.0, 8.0),
        _span(4, 3, "models.RandomForestClassifier.fit", 1.0, 6.0),
        _span(5, 4, "models.DecisionTreeClassifier.fit", 1.5, 2.5),
        _span(6, 4, "models.DecisionTreeClassifier.fit", 3.0, 4.0),
        _span(7, 3, "models.RandomForestClassifier.predict", 6.0, 7.5),
    ]
    m = spans.layer_metrics(tree)
    assert m["stage.analyze_data_self_s"] == pytest.approx(8.5 - 7.0)
    assert m["analytics.fit_predict_evaluate_s"] == pytest.approx(7.0)
    assert m["analytics.fit_predict_evaluate_self_s"] == pytest.approx(0.5)
    assert m["models.RandomForestClassifier.fit_s"] == pytest.approx(5.0)
    assert m["models.RandomForestClassifier.predict_s"] == pytest.approx(1.5)
    assert m["models.trees_built"] == 2
    assert m["models.tree_fit_s"] == pytest.approx(2.0)
    assert m["analytics.useful_ratio"] == 1.0
    assert m["orchestrator.planner_calls"] == 1


# ------------------------------------------------------------------- wrappers


def _patched_namespaces():
    import importlib

    from rxmflow.backends import ScriptedBackend

    owners = [importlib.import_module(m) for m, _, _ in spans.FUNCTIONS]
    owners += [importlib.import_module("rxmflow.runner"), ScriptedBackend]
    owners += [getattr(importlib.import_module(m), c)
               for m, c in spans.MODEL_CLASSES + spans.TREE_CLASSES]
    return {id(o): (o, dict(vars(o))) for o in owners}


def _assert_unchanged(before):
    for owner, snapshot in before.values():
        now = dict(vars(owner))
        assert now.keys() == snapshot.keys(), owner
        for key, value in snapshot.items():
            assert now[key] is value, (owner, key)


def test_wrappers_are_restored_after_a_traced_run(tmp_path):
    import rxmflow

    before = _patched_namespaces()
    workload = workloads.WORKLOADS["gapped_regress"]
    csv_path, _ = workloads.generate(workload, 5, tmp_path, rows=200)
    config = rxmflow.WorkflowConfig(
        data_path=str(csv_path), auto_approve=True, log_dir=str(tmp_path / "logs"),
    )
    tracer = Tracer("test")
    tracer.install()
    root = tracer.open("run")
    try:
        report, _ = rxmflow.run_workflow(
            config, backend=rxmflow.ScriptedBackend(workload.planner_script))
    finally:
        tracer.end_stage()
        tracer.close(root)
        tracer.restore()
    _assert_unchanged(before)
    assert report.steps_succeeded == 5
    stages = [s.name for s in tracer.spans if s.parent == root.id
              and s.name.startswith("stage.")]
    assert stages == [f"stage.{t}" for t in spans.STAGES]
    assert all(s.end is not None for s in tracer.spans)
    assert {s.run_id for s in tracer.spans} == {"test"}


def test_wrappers_are_restored_when_the_run_raises(tmp_path):
    import rxmflow

    before = _patched_namespaces()
    config = rxmflow.WorkflowConfig(
        data_path=str(tmp_path / "absent.csv"), auto_approve=True,
        log_dir=str(tmp_path / "logs"),
    )
    tracer = Tracer("test")
    tracer.install()
    with pytest.raises(rxmflow.errors.DataLoadError):
        try:
            rxmflow.run_workflow(config)
        finally:
            tracer.restore()
    _assert_unchanged(before)


# ------------------------------------------------------------------ generator


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_csv(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    a, rec_a = workloads.generate(workload, 4, tmp_path / "a", rows=300)
    b, rec_b = workloads.generate(workload, 4, tmp_path / "b", rows=300)
    c, _ = workloads.generate(workload, 5, tmp_path / "c", rows=300)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    assert rec_a == rec_b
    assert rec_a["rows"] == 300 and rec_a["csv_bytes"] == len(a.read_bytes())


def test_generator_records_blanks_and_planted_rows(tmp_path):
    from rxmflow.perception import load_csv

    gapped = workloads.WORKLOADS["gapped_regress"]
    path, record = workloads.generate(gapped, 1, tmp_path / "g", rows=1000)
    frame = load_csv(path)
    assert record["blank_cells"] == sum(c is None for col in frame.columns for c in col)
    assert record["blank_cells"] == 6 * 300 + 150

    anomaly = workloads.WORKLOADS["network_anomaly"]
    path, record = workloads.generate(anomaly, 1, tmp_path / "n", rows=1000)
    assert len(record["planted_rows"]) == 10
    assert "planted_rows" not in path.read_text()
    latency = load_csv(path).column("Network_Latency")
    planted = [latency[i] for i in record["planted_rows"]]
    assert min(planted) > max(latency) - 20.0


# -------------------------------------------------------------- self-compare


def _write_set(path, workload, values_by_metric):
    with open(path, "w", encoding="utf-8") as handle:
        n = len(next(iter(values_by_metric.values())))
        for i in range(n):
            metrics = {k: {"value": v[i], "unit": "s"} for k, v in values_by_metric.items()}
            handle.write(json.dumps({"workload": workload, "seed": i, "result": {
                "correct": True, "attempted": 1, "failed": 0, "metrics": metrics,
            }}) + "\n")


def test_compare_agrees_within_bound_and_flags_a_shift(tmp_path):
    e2e = [{"name": "run_s", "better": "lower", "bound": 0.1}]
    _write_set(tmp_path / "a", "w", {"run_s": [1.0, 1.02, 0.98, 1.01]})
    _write_set(tmp_path / "b", "w", {"run_s": [1.03, 1.0, 1.01, 0.99]})
    _write_set(tmp_path / "c", "w", {"run_s": [1.3, 1.32, 1.28, 1.31]})
    a, b, c = (compare.load_set(tmp_path / n) for n in "abc")
    assert all(r["agree"] for r in compare.compare(a, b, e2e) if r["gated"])
    assert not any(r["agree"] for r in compare.compare(a, c, e2e))
    s = compare.summary([1.0, 2.0, 3.0, 4.0])
    assert (s["q1"], s["median"], s["q3"]) == (1.25, 2.5, 3.75)
    assert s["spread"] == pytest.approx(1.0)


def test_compare_reports_wall_medians_without_gating_on_them(tmp_path):
    e2e = [{"name": "run_s", "better": "lower", "bound": 0.1}]
    for name, wall in (("a", 1.0), ("b", 1.5)):
        _write_set(tmp_path / name, "w", {"run_s": [1.0, 1.01]})
        lines = (tmp_path / name).read_text().splitlines()
        (tmp_path / name).write_text("".join(
            json.dumps(dict(json.loads(line), wall={"wall_run_s": wall})) + "\n"
            for line in lines))
    rows = compare.compare(compare.load_set(tmp_path / "a"),
                           compare.load_set(tmp_path / "b"), e2e)
    by_metric = {r["metric"]: r for r in rows}
    assert by_metric["run_s"]["agree"] and by_metric["run_s"]["gated"]
    wall = by_metric["wall_run_s"]
    assert not wall["agree"] and not wall["gated"]
    assert wall["shift"] == pytest.approx(0.5)
