#!/usr/bin/env python3
"""Fold a perfbench sweep into BENCH_<label>.json.

Usage (from the repository root):

    python3 scripts/bench.py SWEEP.jsonl --label LABEL [--root DIR] [--out DIR]

SWEEP.jsonl is the file perfbench/sweep.py appends to, one line per call.
For each workload, BENCH_<label>.json holds:

- every end-to-end metric of BENCHMARK.json, and the unscaled wall-clock
  medians, as the median and quartiles over the sweep's calls;
- per seed, the result digests of that call's runs;
- the commit that was measured.

Digests and commits are not in the sweep file. They are read from each
call's `.perfbench/<workload>-s<seed>-t0/result.json` under --root, the
checkout the sweep ran in (default: the current directory). A seed whose
result.json is gone gets no digest entry.

A sweep line is refused, with its workload and seed, when it holds NaN or
Infinity (which `json.dumps` writes for a non-finite metric), when its
result is not correct, or when any of its runs failed. Then no BENCH file
is written and the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from compare import WALL, load_set, summary  # noqa: E402


class RefusedLineError(ValueError):
    """A sweep line that must not stand in a BENCH file."""


def _refuse(constant: str):
    raise RefusedLineError(f"non-finite number {constant}")


def _check(result: dict):
    """Refuse a call that is not correct or that had a failed run."""
    if result.get("correct") is not True or result.get("failed") != 0:
        raise RefusedLineError(
            f"correct {result.get('correct')}, failed {result.get('failed')} "
            f"of {result.get('attempted')} runs")


def read_sweep(sweep: Path) -> list[dict]:
    """The sweep's records, one a line: every number finite, every call
    correct, no run failed."""
    records = []
    with open(sweep, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            try:
                record = json.loads(line, parse_constant=_refuse)
                _check(record["result"])
            except RefusedLineError as exc:
                record = json.loads(line)
                raise RefusedLineError(
                    f"{sweep}:{line_no}: workload {record.get('workload')}, "
                    f"seed {record.get('seed')}: {exc}") from None
            records.append(record)
    return records


def call_details(root: Path, workload: str, seed: int) -> dict | None:
    path = root / ".perfbench" / f"{workload}-s{seed}-t0" / "result.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def fold(sweep: Path, root: Path, end_to_end: list[dict]) -> dict:
    """{"commits": [...], "workloads": {name: {"metrics", "digests"}}}."""
    seeds: dict[str, list[int]] = {}
    for record in read_sweep(sweep):
        seeds.setdefault(record["workload"], []).append(record["seed"])
    values = load_set(sweep)
    names = [m["name"] for m in end_to_end] + list(WALL)
    commits = set()
    workloads = {}
    for workload in sorted(values):
        digests = {}
        for seed in sorted(set(seeds[workload])):
            details = call_details(root, workload, seed)
            if details is None:
                continue
            commits.add(details["environment"]["git_commit"])
            digests[str(seed)] = sorted({r.get("digest") for r in details["runs"]} - {None})
        workloads[workload] = {
            "metrics": {
                name: summary(values[workload][name])
                for name in names if values[workload].get(name)
            },
            "digests": digests,
        }
    return {"commits": sorted(c for c in commits if c), "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sweep", type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--root", type=Path, default=Path.cwd())
    parser.add_argument("--out", type=Path, default=Path.cwd())
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        folded = fold(args.sweep, args.root, benchmark["end_to_end"])
    except RefusedLineError as exc:
        print(exc, file=sys.stderr)
        return 1
    document = {"label": args.label, **folded}
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
