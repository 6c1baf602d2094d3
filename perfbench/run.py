"""rxmflow benchmark: one workload, one seed, one measuring window.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk_classify --seed 1 --seconds 25 --trace 0

The CSV is generated from --seed and written before any timing. Each
measured run is a fresh child process (child.py) running `run_workflow` on
that CSV with the rule planner (or the workload's scripted planner) and
auto-approval. Runs never overlap. A run is started while it is expected to
end inside the window; there is always at least one. Run and set-up times
are scaled to a reference speed measured beside each run (see Reference).

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced runs and prints the per-layer metrics; the
traced runs must give the same result digest as the untraced ones, and the
engine's stage times plus the traced time outside any stage must add up to
each traced run's run_s. The last line of standard output is one JSON
object: correct, attempted, failed and metrics. Details (environment, input
record, every run) go to .perfbench/<workload>-s<seed>-t<trace>/result.json.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import STAGES, layer_metrics, load

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# One BLAS thread: runs are serial and single-threaded numpy is the
# steadier measurement on a small shared machine. The cap is recorded.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5          # set-up time is the median of at least this many
CHILD_TIMEOUT_S = 150     # a run this slow fails, so one call stays under 3 minutes

# This machine's speed drifts by more than half over tens of minutes, far
# beyond any useful bound. So reference.py runs at the lowest priority on
# the one CPU all runs are pinned to, and times a fixed loop at the same
# moments as each run. A reported time is the wall time scaled to the
# reference speed: seconds * (REFERENCE_REP_S / median repetition CPU time
# inside the measured interval) ** REFERENCE_EXPONENT. The exponent is
# there because the loop, running in short slices, slows more than a run
# does: within calls, log run time rose 0.52 to 0.59 times as fast as log
# repetition time (131 runs and 140 set-up times, least squares).
# Raw wall-clock medians are kept as well.
REFERENCE_REP_S = 150e-6   # one repetition's CPU time at the reference speed
REFERENCE_EXPONENT = 0.55
REFERENCE_MIN_REPS = 5     # an interval with fewer repetitions is widened

# A traced run fails when the engine's stage times plus the span time
# outside any stage miss its run_s by more than this.
ACCOUNTING_SLACK_S = 0.005
ACCOUNTING_SLACK_SHARE = 0.01


def run_child(work: Path, index: int, base: dict, setup_only=False, trace=False) -> dict:
    """Start one child, wait for it, and return its result record."""
    name = f"{'probe' if setup_only else 'run'}{index:03d}{'-traced' if trace else ''}"
    spec = dict(
        base,
        setup_only=setup_only,
        log_dir=str(work / "logs" / name),
        result=str(work / f"{name}.result.json"),
        trace=str(work / f"{name}.trace.json") if trace else None,
        run_id=f"{base['workload']}-s{base['seed']}-{name}",
    )
    spec_path = work / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, **{k: str(BLAS_THREADS) for k in BLAS_ENV})
    command = [sys.executable, str(BENCH / "child.py"), str(spec_path)]
    started = time.perf_counter()
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            command + [repr(spawned)], env=env, cwd=str(work),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        returncode, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:       # run() has killed and reaped it
        returncode, stderr = None, f"killed after {CHILD_TIMEOUT_S} s"
    wall = time.perf_counter() - started
    try:
        result = json.loads(Path(spec["result"]).read_text())
    except (OSError, ValueError):
        result = {"problems": ["no result record"]}
    result["wall_s"] = wall
    result["spawned"] = spawned
    result["returncode"] = returncode
    if returncode != 0:
        result.setdefault("problems", []).append(f"child exit code {returncode}")
        result["stderr_tail"] = stderr[-2000:]
    result["trace_path"] = spec["trace"]
    shutil.rmtree(spec["log_dir"], ignore_errors=True)
    return result


def environment(seed: int) -> dict:
    import numpy

    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "seed": seed,
        "platform": platform.platform(),
    }


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _quality(workload, record: dict, run: dict):
    if workload.quality_name == "anomaly_recall":
        # the share of planted rows among the flagged rows, so flagging
        # too many rows lowers it as much as missing planted ones
        planted = set(record["planted_rows"])
        flagged = set(run.get("flagged_rows") or ())
        return len(planted & flagged) / len(flagged) if flagged else 0.0
    return run.get(workload.quality_name)


def _unstaged_s(spans) -> float:
    """Seconds of the root span that no stage span covers."""
    root = next(s for s in spans if s.parent is None)
    stage_total = sum(
        s.end - s.start for s in spans
        if s.parent == root.id and s.name.startswith("stage.")
    )
    return (root.end - root.start) - stage_total


def accounting_gap(run: dict) -> float:
    """|engine stage times + unstaged span time - traced run_s| of a traced run.

    The stage times come from the engine's own clock, the unstaged time
    from the tracer's spans, so a stage the planner wrapper brackets
    wrongly shows here.
    """
    spans, _ = load(run["trace_path"])
    stages = sum(run["step_durations"].get(tool, 0.0) for tool in STAGES)
    return abs(stages + _unstaged_s(spans) - run["run_s"])


def check_runs(workload, record: dict, runs: list[dict]):
    """Mark each run ok or failed, with its problems, in place."""
    digests = [r.get("digest") for r in runs if not r.get("problems")]
    majority = max(set(digests), key=digests.count) if digests else None
    for r in runs:
        r["quality"] = None if r.get("problems") else _quality(workload, record, r)
        if not r.get("problems") and r.get("digest") != majority:
            r["problems"] = ["result digest differs from the other runs"]
        if r["trace_path"] and not r.get("problems"):
            gap = accounting_gap(r)
            if gap > ACCOUNTING_SLACK_S + ACCOUNTING_SLACK_SHARE * r["run_s"]:
                r["problems"] = [f"stages and unstaged time miss the traced run by {gap:.4f} s"]
        if r["quality"] is not None and r["quality"] < workload.min_quality:
            r["problems"] = r.get("problems", []) + [
                f"{workload.quality_name} {r['quality']:.4f} below {workload.min_quality}"
            ]
        r["ok"] = not r.get("problems")


class Reference:
    """reference.py running beside the measured runs, and its readings."""

    def __init__(self, work: Path):
        self.path = work / "reference.txt"
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "reference.py"), str(self.path)],
            stdout=subprocess.DEVNULL,
        )
        deadline = time.perf_counter() + 30
        while time.perf_counter() < deadline and not (
            self.path.exists() and self.path.stat().st_size
        ):
            time.sleep(0.05)
        self.times: list[float] = []
        self.cpu: list[float] = []

    def stop(self):
        self.proc.terminate()
        self.proc.wait(timeout=30)
        for line in self.path.read_text().splitlines():
            t, cpu = line.split()
            self.times.append(float(t))
            self.cpu.append(float(cpu))
        self.path.unlink()

    def scale(self, start: float, end: float) -> float:
        """The speed scale for [start, end], from the repetitions inside it."""
        pad = 0.0
        while True:
            lo = bisect.bisect_left(self.times, start - pad)
            hi = bisect.bisect_right(self.times, end + pad)
            if hi - lo >= REFERENCE_MIN_REPS or pad > 60:
                break
            pad += 0.5
        return (REFERENCE_REP_S / statistics.median(self.cpu[lo:hi])) ** REFERENCE_EXPONENT


def measure(work: Path, base: dict, seconds: float, trace: bool):
    """Run children until the window is used.

    Returns (runs, set-up-timed children); set-up-only children top the
    latter up to SETUP_SAMPLES. Each child gets its reference scales.
    """
    children: list[dict] = []

    def child(index, **kwargs):
        children.append(run_child(work, index, base, **kwargs))

    reference = Reference(work)
    try:
        window_start = time.perf_counter()
        last = 0.0
        index = 0
        while not children or time.perf_counter() - window_start + last <= seconds:
            began = time.perf_counter()
            order = (False, True) if index % 2 == 0 else (True, False)
            for traced in (order if trace else (False,)):
                child(index, trace=traced)
            index += 1
            last = time.perf_counter() - began
        runs = list(children)
        probe = 0
        while sum("setup_s" in c for c in children) < SETUP_SAMPLES:
            child(probe, setup_only=True)
            probe += 1
            if "setup_s" not in children[-1]:
                break
    finally:
        reference.stop()
    for c in children:
        if "setup_s" in c:
            c["setup_scale"] = reference.scale(c["spawned"], c["spawned"] + c["setup_s"])
        if "run_window" in c:
            c["run_scale"] = reference.scale(*c["run_window"])
    return runs, [c for c in children if "setup_s" in c]


def end_to_end(runs, setups) -> dict:
    ok = [r for r in runs if r["ok"]]
    return {
        "run_s": _median(r["run_s"] * r["run_scale"] for r in ok),
        "setup_s": _median(c["setup_s"] * c["setup_scale"] for c in setups),
        "wall_run_s": _median(r["run_s"] for r in ok),
        "wall_setup_s": _median(c["setup_s"] for c in setups),
        "peak_rss_mb": _median(r.get("peak_rss_mb") for r in ok),
        "quality": _median(r["quality"] for r in ok),
        "ok_run_share": len(ok) / len(runs),
    }


def per_layer(runs) -> dict:
    traced = [r for r in runs if r["trace_path"] and r["ok"]]
    plain = [r for r in runs if not r["trace_path"] and r["ok"]]
    if not traced or not plain:
        return {}
    samples = []
    for r in traced:
        spans, counts = load(r["trace_path"])
        metrics = layer_metrics(spans)
        metrics.update(counts)
        for tool in STAGES:
            metrics[f"stage.{tool}_s"] = r["step_durations"].get(tool, 0.0)
        metrics["trace.unstaged_s"] = _unstaged_s(spans)
        metrics["trace.traced_run_s"] = r["run_s"]
        samples.append(metrics)
    out = {k: _median(m.get(k, 0) for m in samples) for k in samples[0]}
    out["trace.untraced_run_s"] = _median(r["run_s"] for r in plain)
    out["trace.overhead_s"] = out["trace.traced_run_s"] - out["trace.untraced_run_s"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, default=None,
                        help="override the workload's row count (self-tests)")
    args = parser.parse_args(argv)

    # every run, and the reference loop beside it, share one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "rxmflow" / "__init__.py").exists():
        print(f"error: engine source not found under {SRC}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, generate

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / f"{workload.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    csv_path, record = generate(workload, args.seed, work, rows=args.rows)
    base = {
        "src": str(SRC), "csv": str(csv_path),
        "workload": workload.name, "seed": args.seed,
        "task": workload.task if workload.task == "anomaly_detection" else None,
        "expect_task": workload.task,
        "contamination": workload.contamination,
        "planner_script": workload.planner_script,
    }
    warm = run_child(work, 999, base, setup_only=True)
    if "setup_s" not in warm:
        print("error: the engine does not import:\n" + warm.get("stderr_tail", ""),
              file=sys.stderr)
        return 2

    runs, setups = measure(work, base, args.seconds, bool(args.trace))
    check_runs(workload, record, runs)
    if args.trace:
        wanted = benchmark["per_layer"]
        values = per_layer(runs)
    else:
        wanted = benchmark["end_to_end"]
        values = end_to_end(runs, setups)
    failed = sum(not r["ok"] for r in runs)
    correct = failed == 0 and all(values.get(m["name"]) is not None for m in wanted)
    metrics = {
        m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted
    }

    detail = {
        "environment": environment(args.seed),
        "workload": {"name": workload.name, "why": workload.why,
                     "quality_metric": workload.quality_name},
        "input": {k: v for k, v in record.items() if k != "planted_rows"},
        "runs": [{k: v for k, v in r.items() if k != "flagged_rows"} for r in runs],
        "setup_samples": [
            {k: c[k] for k in ("setup_s", "setup_scale")} for c in setups
        ],
        "metrics": metrics,
        "wall_medians": {k: values.get(k) for k in ("wall_run_s", "wall_setup_s")},
    }
    (work / "result.json").write_text(json.dumps(detail, indent=1) + "\n")
    shutil.rmtree(work / "input", ignore_errors=True)
    shutil.rmtree(work / "logs", ignore_errors=True)

    print(f"workload {workload.name} seed {args.seed}: {len(runs)} runs, "
          f"{failed} failed, {len(setups)} set-up samples")
    for r in runs:
        if not r["ok"]:
            print(f"  failed run: {'; '.join(r['problems'])}")
    for name, m in metrics.items():
        label = workload.quality_name if name == "quality" else name
        print(f"  {label:<48} {m['value']!s:>22} {m['unit']}")
    for name in ("wall_run_s", "wall_setup_s"):
        if values.get(name) is not None:
            print(f"  {name + ' (wall clock, unscaled)':<48} {values[name]!s:>22} s")
    if args.trace and values:
        stages = sum(values[f"stage.{t}_s"] for t in STAGES)
        print(f"accounting: stages {stages:.3f} s + unstaged "
              f"{values['trace.unstaged_s']:.3f} s vs traced run "
              f"{values['trace.traced_run_s']:.3f} s; untraced run "
              f"{values['trace.untraced_run_s']:.3f} s + overhead "
              f"{values['trace.overhead_s']:.3f} s")
    print(json.dumps({
        "correct": correct, "attempted": len(runs), "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
