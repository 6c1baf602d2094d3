"""scripts/bench.py folds a perfbench sweep file into BENCH_<label>.json."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sweep_line(seed, run_s, quality, workload="desk_classify", correct=True, failed=0):
    return json.dumps({
        "workload": workload, "seed": seed,
        "result": {"correct": correct, "attempted": 3, "failed": failed, "metrics": {
            "run_s": {"value": run_s, "unit": "s"},
            "quality": {"value": quality, "unit": "ratio"},
            "setup_s": {"value": None, "unit": "s"},
        }},
        "wall": {"wall_run_s": 2 * run_s, "wall_setup_s": None},
    })


def test_two_calls_fold_into_medians_quartiles_digests_and_commit(tmp_path):
    sweep = tmp_path / "sweep.jsonl"
    sweep.write_text(sweep_line(1, 1.0, 0.9) + "\n" + sweep_line(2, 3.0, 0.9) + "\n")
    call = tmp_path / ".perfbench" / "desk_classify-s1-t0"
    call.mkdir(parents=True)
    (call / "result.json").write_text(json.dumps({
        "environment": {"git_commit": "abc123"},
        "runs": [{"digest": "d1"}, {"digest": "d1"}, {"problems": ["raised"]}],
    }))
    out = tmp_path / "out"
    out.mkdir()

    bench = load_bench()
    assert bench.main([str(sweep), "--label", "t", "--root", str(tmp_path),
                       "--out", str(out)]) == 0
    document = json.loads((out / "BENCH_t.json").read_text())

    assert document["label"] == "t"
    assert document["commits"] == ["abc123"]
    desk = document["workloads"]["desk_classify"]
    assert desk["metrics"]["run_s"] == {
        "n": 2, "median": 2.0, "q1": 0.5, "q3": 3.5, "spread": 1.5,
    }
    assert desk["metrics"]["wall_run_s"]["median"] == 4.0
    assert desk["metrics"]["quality"]["spread"] == 0.0
    assert "setup_s" not in desk["metrics"]           # no call measured it
    assert desk["digests"] == {"1": ["d1"]}           # seed 2's result.json is gone


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_a_non_finite_metric_is_refused_naming_its_workload_and_seed(tmp_path, capsys, value):
    sweep = tmp_path / "sweep.jsonl"
    sweep.write_text(sweep_line(1, 1.0, 0.9) + "\n" + sweep_line(7, value, 0.9) + "\n")
    out = tmp_path / "out"
    out.mkdir()

    bench = load_bench()
    assert bench.main([str(sweep), "--label", "t", "--root", str(tmp_path),
                       "--out", str(out)]) == 1
    message = capsys.readouterr().err
    assert "sweep.jsonl:2: workload desk_classify, seed 7" in message
    assert json.dumps(value) in message             # NaN, Infinity or -Infinity
    assert not (out / "BENCH_t.json").exists()


@pytest.mark.parametrize("correct, failed", [(False, 0), (False, 3), (True, 1)])
def test_a_call_that_is_not_correct_or_had_a_failed_run_is_refused(tmp_path, capsys,
                                                                   correct, failed):
    sweep = tmp_path / "sweep.jsonl"
    sweep.write_text(sweep_line(1, 1.0, 0.9) + "\n" + sweep_line(
        4, 1.0, None, workload="network_anomaly", correct=correct, failed=failed) + "\n")
    out = tmp_path / "out"
    out.mkdir()

    bench = load_bench()
    assert bench.main([str(sweep), "--label", "t", "--root", str(tmp_path),
                       "--out", str(out)]) == 1
    message = capsys.readouterr().err
    assert "sweep.jsonl:2: workload network_anomaly, seed 4" in message
    assert f"correct {correct}, failed {failed} of 3 runs" in message
    assert not (out / "BENCH_t.json").exists()
