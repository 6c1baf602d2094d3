"""Run the benchmark over several seeds and workloads, one call at a time.

Usage (from the repository root):

    python3 perfbench/sweep.py --out set_a.jsonl [--seeds 1 2 3] [--workloads all]
                               [--seconds N]

Each call is one untraced `perfbench/run.py` run with the standard
arguments; its last output line is appended to --out with the workload,
the seed and the call's unscaled wall-clock medians from its result.json.
The summary gives, per workload and metric, the median, the quartiles and
the spread (quartile distance over median) against the metric's bound.
Two such files are what compare.py takes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import summary

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--workloads", nargs="+", default=["all"])
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    args = parser.parse_args(argv)
    workloads = names if args.workloads == ["all"] else args.workloads

    values: dict[tuple[str, str], list[float]] = {}
    failures = 0
    with open(args.out, "a", encoding="utf-8") as out:
        for workload in workloads:
            for seed in args.seeds:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True,
                )
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                    failures += 1
                    continue
                result = json.loads(lines[-1])
                detail = ROOT / ".perfbench" / f"{workload}-s{seed}-t0" / "result.json"
                wall = json.loads(detail.read_text())["wall_medians"]
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "result": result, "wall": wall}) + "\n")
                out.flush()
                failures += not result["correct"]
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      + " ".join(f"{k}={m['value']:.5g}"
                                 for k, m in result["metrics"].items()
                                 if m["value"] is not None),
                      flush=True)
                for name, m in result["metrics"].items():
                    if m["value"] is not None:
                        values.setdefault((workload, name), []).append(m["value"])

    print(f"\n{'workload':<18} {'metric':<13} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} bound")
    for workload in workloads:
        for metric in benchmark["end_to_end"]:
            sample = values.get((workload, metric["name"]))
            if not sample:
                continue
            s = summary(sample)
            print(f"{workload:<18} {metric['name']:<13} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['spread']:>7.4f} "
                  f"{metric['bound']}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
