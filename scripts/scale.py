#!/usr/bin/env python3
"""Run each network workload once at a large row count and print where the
time and the memory went.

Usage (from the repository root):

    python3 scripts/scale.py [--rows 100000]

Each workload's CSV is written by `perfbench/workloads.generate` at --rows
and seed 1, then run once by `run_workflow` in a fresh process, as the
benchmark runs it: the rule planner, auto-approval and one BLAS thread. For each call the
script prints lines `<workload> <metric> <value>`:

- `run_s`, the wall time of `run_workflow`;
- `stage.<name>_s`, the engine's own time for each stage;
- `peak_rss_mb`, the process's peak resident set;
- `minor_faults`, the minor page faults taken inside `run_workflow`;
- `steps`, the steps that succeeded out of those run, and `exit_code`.

No bound is checked, and the benchmark does not run this script. It exits 1
when a call's process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import ANOMALY, WORKLOADS, generate  # noqa: E402

NETWORK = ("network_anomaly", "network_classify")
SEED = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def measure(name: str, csv_path: str, log_dir: str) -> dict:
    """Run the workload's CSV once in this process and return its numbers."""
    from rxmflow.runner import WorkflowConfig, run_workflow

    workload = WORKLOADS[name]
    config = WorkflowConfig(
        data_path=csv_path, task=ANOMALY if workload.task == ANOMALY else None,
        contamination=workload.contamination, auto_approve=True, log_dir=log_dir,
    )
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    report, art = run_workflow(config)
    run_s = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "run_s": run_s,
        **{f"stage.{tool}_s": s for tool, s in art.step_durations.items()},
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "minor_faults": usage.ru_minflt - faults,
        "steps": f"{report.steps_succeeded}/{report.steps_total}",
        "exit_code": art.exit_code,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=100_000)
    parser.add_argument("--measure", nargs=3, metavar=("WORKLOAD", "CSV", "LOG_DIR"),
                        help=argparse.SUPPRESS)   # the child process's side
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(*args.measure)))
        return 0

    env = dict(os.environ, **{k: "1" for k in BLAS_ENV})
    for name in NETWORK:
        with tempfile.TemporaryDirectory() as tmp:
            csv_path, _ = generate(WORKLOADS[name], SEED, Path(tmp), rows=args.rows)
            proc = subprocess.run(
                [sys.executable, __file__, "--measure", name, str(csv_path),
                 str(Path(tmp) / "logs")],
                env=env, capture_output=True, text=True,
            )
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{name} rows {args.rows}")
        for metric, value in result.items():
            shown = f"{value:.3f}" if isinstance(value, float) else value
            print(f"{name} {metric} {shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
