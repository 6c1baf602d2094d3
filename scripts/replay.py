#!/usr/bin/env python3
"""Replay a fixed set of deterministic runs and print a digest of each output.

Usage (from the repository root):

    python3 scripts/replay.py [CASE ...]

Each case writes a small generated CSV and runs the workflow in-process
under `TickClock` with a fixed seed and auto-approval, except the cases of
`REVIEWS`, which answer the prompts from a fixed script. For every case the
script prints four lines, `<case> <output> <sha256>`, one for each of the
audit log, the detailed results, the recommendations file and the printed
summary; a file the run did not write reads `absent`. With no CASE every
case runs, in the order of `CASES`.

A change that must keep behaviour runs this in a checkout of the parent
commit and in the change, and diffs the two outputs: equal lines mean
byte-identical files. The cases cover the three tasks under the rule
planner and under scripted planners (one malformed reply that completes,
and malformed replies with a planner that gives up after preprocessing),
a gapped table that drives kNN imputation, a wider gapped table whose kNN
distances sum 8 or more coordinates, a gapped table of a few distinct rows
repeated (so each query row's kNN prefix ends in a tie), a gapped table
whose kNN column holds only "-0.0" and "0.0" (so neighbour means of -0.0
must come out as np.mean's +0.0), a table whose
columns repeat field texts that parse alike ("-0.0" and "0.0", "1" and
"1.0", padded text, "nan" and "inf" text, blanks) over duplicate rows, so
that each distinct text must keep its own value, adaptive search
on noisy classification and regression, a nonlinear regression target that every
regression candidate is tried on (so both the analytics and the advisory
regression forests are grown), `include_routine`, a step cap, a target
with a one-row class, a planner that gives up before any step, two runs
whose first pipeline fit fails so the backup plan engages, a planner that
skips ahead to `summarize`, one that keeps repeating a stage, and an
interactive review that edits the first recommendation's priority.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rxmflow import runner  # noqa: E402
from rxmflow.backends import ScriptedBackend  # noqa: E402
from rxmflow.clocks import TickClock  # noqa: E402
from rxmflow.perception import DatasetFrame  # noqa: E402
from rxmflow.review import ReviewIO  # noqa: E402
from rxmflow.synth import (  # noqa: E402
    failure_frame, maintenance_frame, network_frame, write_csv,
)
from rxmflow.workflow import ANOMALY, LOAD, SUMMARIZE, TOOLS  # noqa: E402

SEED = 3
OUTPUTS = ("audit", "detailed_results", "recommendations")


def _decision(tool: str) -> str:
    return json.dumps({"tool": tool, "finish": False, "reason": f"next: {tool}"})


FINISH = json.dumps({"tool": "", "finish": True, "reason": "done"})
MALFORMED = "I would start by loading the data."


def completes():
    """One malformed reply, then every stage in order, then finish."""
    return [MALFORMED, *map(_decision, TOOLS), FINISH]


def gives_up():
    """Malformed replies around the first two stages, then finish."""
    return [_decision(TOOLS[0]), MALFORMED, _decision(TOOLS[1]), MALFORMED, FINISH]


def gives_up_at_start():
    return [FINISH]


def skips_ahead():
    """Summarize straight after loading, then finish."""
    return [_decision(LOAD), _decision(SUMMARIZE), FINISH]


def repeats_a_stage():
    """Every reply names the loading stage again."""
    return [_decision(LOAD)] * 20


def maintenance():
    return maintenance_frame(n_rows=400, seed=7)


def failure():
    return failure_frame(n_rows=600, seed=11)


def network():
    return network_frame(n_rows=800, seed=13, n_outliers=8)


def noisy_maintenance():
    return maintenance_frame(n_rows=400, seed=7, noise=3.0, margin=0.0)


def noisy_failure():
    return failure_frame(n_rows=600, seed=11, noise=5.0)


def gapped():
    """failure() with six columns 30% blank (kNN) and one 15% blank (median)."""
    frame = failure()
    rng = np.random.default_rng([11, 1])
    knn = ("Pressure", "Acoustic_Level", "Inspection_Duration",
           "Technician_Available", "Downtime_Cost", "Energy_Consumption")
    for name, share in [*((c, 0.30) for c in knn), ("Temperature", 0.15)]:
        cells = frame.column(name)
        for i in rng.choice(frame.n_rows, size=round(share * frame.n_rows), replace=False):
            cells[int(i)] = None
    return frame


def signed_zero_gapped():
    """gapped() with its Downtime_Cost kNN column made of "-0.0" and "0.0"
    texts in runs of 50 rows, one run in four "0.0", so many query rows'
    neighbours are all -0.0 and their mean must come out as np.mean's
    (+0.0)."""
    frame = gapped()
    cells = frame.column("Downtime_Cost")
    for i, cell in enumerate(cells):
        if cell is not None:
            cells[i] = "0.0" if i // 50 % 4 == 3 else "-0.0"
    return frame


def wide_network():
    """A network table with three numeric columns 30% blank, so kNN imputes
    over 8 or more coordinates."""
    frame = network_frame(n_rows=600)
    rng = np.random.default_rng([13, 1])
    for name in ("Temperature", "Network_Latency", "Production_Speed"):
        cells = frame.column(name)
        for i in rng.choice(frame.n_rows, size=round(0.30 * frame.n_rows), replace=False):
            cells[int(i)] = None
    return frame


def tied_gapped():
    """240 rows drawn from five distinct rows of four readings, two of the
    readings 30% blank (kNN): far more training rows than a kNN prefix holds
    sit at each distance, so each query row's prefix ends in a tie."""
    gen = np.random.default_rng(19)
    X = np.round(gen.uniform(0.0, 10.0, (5, 4)), 2)[gen.integers(0, 5, 240)]
    target = np.round(X @ [0.5, -0.2, 0.1, 0.3] + gen.normal(0.0, 0.5, 240), 4)
    readings = [X[:, j].tolist() for j in range(4)]
    for cells in readings[:2]:
        for i in gen.choice(240, size=72, replace=False):
            cells[int(i)] = None
    return DatasetFrame(
        column_names=[*(f"reading_{c}" for c in "abcd"), "failure_target"],
        columns=[*readings, target.tolist()],
        n_rows=240,
    )


def repeated_fields():
    """maintenance() with three columns of field texts that parse alike:
    "-0.0", " -0.0 ", "0.0" and "0"; "1", "1.0", " 1.0 " and "2"; padded,
    "nan", "inf" and "None" text; each with blanks. Its first 60 rows then
    repeat, the last 20 of them with the sign of zero flipped, so merging
    two texts that only parse alike moves a unique count or the
    duplicate-row count."""
    frame = maintenance()
    zero = ["-0.0", "0.0", " -0.0 ", "0", ""]
    one = ["1", "1.0", " 1.0 ", "2", ""]
    text = ["ok", " ok ", "nan", " inf", "", "None"]
    frame.column_names += ["zero_reading", "one_reading", "status_text"]
    frame.columns += [[pool[i % len(pool)] for i in range(frame.n_rows)]
                      for pool in (zero, one, text)]
    flipped = {"-0.0": "0.0", " -0.0 ": "0", "0.0": "-0.0", "0": " -0.0 "}
    for cells in frame.columns:
        cells += cells[:60]
    zero_cells = frame.column("zero_reading")
    zero_cells[-20:] = [flipped.get(t, t) for t in zero_cells[-20:]]
    frame.n_rows += 60
    return frame


def nonlinear():
    """Six uniform readings and a failure target that is the product of the
    first two: no linear candidate reaches R^2 0.1, so adaptive search tries
    all five and SVR wins, and both regression forests are grown."""
    gen = np.random.default_rng(17)
    X = np.round(gen.uniform(-1.0, 1.0, (300, 6)), 4)
    return DatasetFrame(
        column_names=[*(f"reading_{c}" for c in "abcdef"), "failure_target"],
        columns=[*(X[:, j].tolist() for j in range(6)), np.round(X[:, 0] * X[:, 1], 6).tolist()],
        n_rows=300,
    )


def one_row_class():
    """An id, two readings and a priority label with a one-row class."""
    gen = np.random.default_rng(0)
    labels = ["Low"] * 99 + ["High"] * 100 + ["Medium"]
    n = len(labels)
    return DatasetFrame(
        column_names=["Machine_ID", "temperature", "vibration", "Maintenance_Priority"],
        columns=[
            [f"M{i:04d}" for i in range(n)],
            np.round(gen.normal(60.0, 5.0, n), 3).tolist(),
            np.round(gen.normal(1.0, 0.2, n), 3).tolist(),
            labels,
        ],
        n_rows=n,
    )


def with_constant():
    frame = maintenance_frame(n_rows=300, seed=7)
    frame.column_names.append("Const")
    frame.columns.append([3.0] * frame.n_rows)
    return frame


ANOMALY_RUN = {"task": ANOMALY, "contamination": 0.02}

# name -> (frame, config options, planner script or None, force the backup plan)
CASES = {
    "classify_rule": (maintenance, {}, None, False),
    "regress_rule": (failure, {}, None, False),
    "anomaly_rule": (network, ANOMALY_RUN, None, False),
    "classify_scripted": (maintenance, {}, completes, False),
    "regress_scripted": (failure, {}, completes, False),
    "anomaly_scripted": (network, ANOMALY_RUN, completes, False),
    "classify_gives_up": (maintenance, {}, gives_up, False),
    "regress_gives_up": (failure, {}, gives_up, False),
    "anomaly_gives_up": (network, ANOMALY_RUN, gives_up, False),
    "gapped_knn_scripted": (gapped, {}, completes, False),
    "classify_adaptive": (noisy_maintenance, {}, None, False),
    "regress_adaptive": (noisy_failure, {}, None, False),
    "regress_nonlinear": (nonlinear, {}, None, False),
    "classify_routine": (maintenance, {"include_routine": True}, None, False),
    "regress_routine": (failure, {"include_routine": True}, None, False),
    "max_steps_3": (maintenance, {"max_steps": 3}, None, False),
    "one_row_class": (one_row_class, {}, None, False),
    "gives_up_at_start": (maintenance, {}, gives_up_at_start, False),
    "backup_constant": (with_constant, {}, None, True),
    "backup_gapped_knn": (gapped, {}, None, True),
    "wide_knn": (wide_network, {}, None, False),
    "tied_knn": (tied_gapped, {}, None, False),
    "signed_zero_knn": (signed_zero_gapped, {}, None, False),
    "repeated_fields": (repeated_fields, {}, None, False),
    "skips_ahead": (maintenance, {}, skips_ahead, False),
    "repeats_a_stage": (maintenance, {}, repeats_a_stage, False),
    "adjusted_review": (maintenance, {}, None, False),
}

# name -> the reviewer's input of a case run without auto-approval: here a
# blank at the target prompt, then an edit of the first priority to Routine
REVIEWS = {"adjusted_review": "\nd\n1\npriority\nRoutine\n\n"}


@contextlib.contextmanager
def first_fit_fails():
    """Make the runner's first fit_pipeline call raise, so the backup plan engages."""
    real_fit = runner.fit_pipeline
    calls = []

    def fail_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise ValueError("first fit fails")
        return real_fit(*args, **kwargs)

    runner.fit_pipeline = fail_once
    try:
        yield
    finally:
        runner.fit_pipeline = real_fit


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def replay(name: str) -> dict[str, str]:
    """{output: sha256 or "absent"} of one case's run."""
    frame, options, script, force_backup = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.csv"
        write_csv(frame(), path)
        config = runner.WorkflowConfig(
            data_path=str(path), seed=SEED, auto_approve=name not in REVIEWS,
            log_dir=str(Path(tmp) / "logs"), **options,
        )
        backend = ScriptedBackend(script()) if script else None
        # the prompts and the review table go to a buffer, not to stdout
        channel = ReviewIO(io.StringIO(REVIEWS.get(name, "")), io.StringIO())
        with first_fit_fails() if force_backup else contextlib.nullcontext():
            _, artifacts = runner.run_workflow(
                config, backend=backend, io=channel, clock=TickClock())
        digests = {}
        for output in OUTPUTS:
            files = sorted((Path(tmp) / "logs").glob(f"{output}_*"))
            digests[output] = (
                _digest(b"".join(f.read_bytes() for f in files)) if files else "absent")
        digests["summary"] = _digest(artifacts.summary_text.encode())
    return digests


def main(argv=None) -> int:
    names = list(sys.argv[1:] if argv is None else argv) or list(CASES)
    unknown = [n for n in names if n not in CASES]
    if unknown:
        print(f"unknown case(s): {', '.join(unknown)}; known: {', '.join(CASES)}",
              file=sys.stderr)
        return 2
    for name in names:
        for output, digest in replay(name).items():
            print(f"{name} {output} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
