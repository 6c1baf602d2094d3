"""Self-comparison: do two sets of runs of the same code agree?

Usage (from the repository root):

    python3 perfbench/compare.py SET_A.jsonl SET_B.jsonl

Each set is a JSON-lines file written by sweep.py. For every end-to-end
metric of BENCHMARK.json and every workload, this prints each set's median
and quartiles, the spread (quartile distance over median) and whether the
two medians agree within the metric's bound. Exit code 0 means they agree
everywhere.

The unscaled wall-clock medians of run_s and setup_s are compared the same
way, with the same bounds, but do not count towards the exit code. Read
beside the scaled rows, they show whether a difference between the sets
comes from the program or from the reference scale.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# unscaled wall-clock median -> the scaled metric it underlies
WALL = {"wall_run_s": "run_s", "wall_setup_s": "setup_s"}


def summary(values: list[float]) -> dict:
    """Median, first and third quartile, and spread = (q3 - q1) / median."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    if median:
        spread = (q3 - q1) / median
    else:
        spread = 0.0 if q3 == q1 else float("inf")
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "spread": spread}


def load_set(path) -> dict[str, dict[str, list[float]]]:
    """{workload: {metric: [value of each run]}} from a sweep file."""
    out: dict[str, dict[str, list[float]]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            metrics = out.setdefault(record["workload"], {})
            for name, m in record["result"]["metrics"].items():
                if m["value"] is not None:
                    metrics.setdefault(name, []).append(m["value"])
            for name, value in record.get("wall", {}).items():
                if value is not None:
                    metrics.setdefault(name, []).append(value)
    return out


def worse_by(base: float, other: float, better: str) -> float:
    """Share of `base` by which `other` is worse (negative when better)."""
    change = (other - base) / base if base else 0.0
    return change if better == "lower" else -change


def compare(set_a, set_b, end_to_end) -> list[dict]:
    """One row per workload and metric; wall-clock rows carry gated=False."""
    by_name = {m["name"]: m for m in end_to_end}
    checks = [(m, True) for m in end_to_end] + [
        (dict(by_name[scaled], name=wall), False)
        for wall, scaled in WALL.items() if scaled in by_name
    ]
    rows = []
    for workload in sorted(set(set_a) | set(set_b)):
        for metric, gated in checks:
            name = metric["name"]
            a = set_a.get(workload, {}).get(name)
            b = set_b.get(workload, {}).get(name)
            row = {"workload": workload, "metric": name, "gated": gated}
            if not a or not b:
                rows.append(dict(row, agree=False, note="missing in one set"))
                continue
            sa, sb = summary(a), summary(b)
            shift = max(worse_by(sa["median"], sb["median"], metric["better"]),
                        worse_by(sb["median"], sa["median"], metric["better"]))
            rows.append(dict(row, a=sa, b=sb, shift=shift, bound=metric["bound"],
                             agree=shift <= metric["bound"]))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load_set(argv[0]), load_set(argv[1]), benchmark["end_to_end"])
    print(f"{'workload':<18} {'metric':<13} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'spread A/B':>13} {'shift':>7} bound  agree")
    for r in rows:
        if "a" not in r:
            print(f"{r['workload']:<18} {r['metric']:<13} {r['note']}")
            continue
        a, b = r["a"], r["b"]
        verdict = "yes" if r["agree"] else "NO"
        print(f"{r['workload']:<18} {r['metric']:<13} "
              f"{a['median']:>12.5g} [{a['q1']:.5g}, {a['q3']:.5g}] "
              f"{b['median']:>12.5g} [{b['q1']:.5g}, {b['q3']:.5g}] "
              f"{a['spread']:>6.3f}/{b['spread']:<6.3f} {r['shift']:>7.3f} "
              f"{r['bound']:<5} {verdict if r['gated'] else verdict + ' (not gated)'}")
    return 0 if all(r["agree"] for r in rows if r["gated"]) else 1


if __name__ == "__main__":
    sys.exit(main())
