"""The benchmark's workloads and their seeded input generator.

Each workload is one CSV plus the options a user would pass with it. The
engine receives only the CSV path; everything the benchmark needs to check
the result (planted anomaly rows, blanked cells) stays in a separate record
file that the engine never reads. README.md says why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rxmflow.synth import failure_frame, maintenance_frame, network_frame, write_csv

CLASSIFICATION = "classification"
REGRESSION = "regression"
ANOMALY = "anomaly_detection"

# Planner script for gapped_regress: one malformed reply, then a valid
# decision for each of the five tools, then finish. The malformed reply
# exercises the LLM planner's parse-and-retry path.
GAPPED_PLANNER_SCRIPT = [
    "I would start by loading the data.",
] + [
    json.dumps({"tool": tool, "finish": False, "reason": f"next: {tool}"})
    for tool in (
        "load_and_inspect_data", "preprocess_data", "analyze_data",
        "generate_recommendations", "summarize",
    )
] + [json.dumps({"tool": "", "finish": True, "reason": "all five steps done"})]

# gapped_regress: six columns blanked at 30% (above the 20% kNN cutoff, one
# of them categorical) and one at 15% (the median path).
KNN_BLANKS = (
    "Pressure", "Acoustic_Level", "Inspection_Duration",
    "Technician_Available", "Downtime_Cost", "Energy_Consumption",
)
KNN_SHARE = 0.30
MEDIAN_BLANKS = ("Temperature",)
MEDIAN_SHARE = 0.15

ANOMALY_CONTAMINATION = 0.01
PLANTED_SHARE = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    task: str
    why: str
    min_quality: float             # correctness floor on the quality metric
    contamination: object = "auto"
    planner_script: list = field(default_factory=list)   # empty: rule planner

    @property
    def quality_name(self) -> str:
        return {CLASSIFICATION: "accuracy", REGRESSION: "r2"}.get(
            self.task, "anomaly_recall"
        )


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "desk_classify", 1430, CLASSIFICATION,
            "paper's headline workflow at desk scale; the forest dominates, "
            "so it exercises the CART core and bypasses kNN",
            min_quality=0.90,
        ),
        Workload(
            "gapped_regress", 3000, REGRESSION,
            "30% blanks in six columns drive kNN imputation; linear "
            "regression wins at once, so analytics CART stays out; "
            "scripted planner with one malformed reply",
            min_quality=0.70,
            planner_script=GAPPED_PLANNER_SCRIPT,
        ),
        Workload(
            "network_anomaly", 20000, ANOMALY,
            "20k-row table dominated by perception, schema and feature "
            "analysis; isolation forest, no missing cells, no CART",
            min_quality=0.90,
            contamination=ANOMALY_CONTAMINATION,
        ),
        Workload(
            "network_classify", 5000, CLASSIFICATION,
            "above desk scale: SVM skipped and CART fit dominates, where "
            "a histogram split mode would engage",
            min_quality=0.70,
        ),
    )
}


def _blank(columns, names, column, share, rng) -> int:
    cells = columns[names.index(column)]
    n = len(cells)
    for i in rng.choice(n, size=int(round(share * n)), replace=False):
        cells[int(i)] = None
    return int(round(share * n))


def _frame(workload: Workload, seed: int, rows: int):
    """Build the frame and the facts about it that only the benchmark sees."""
    facts: dict = {}
    if workload.name == "desk_classify":
        return maintenance_frame(n_rows=rows, seed=seed), facts
    if workload.name == "gapped_regress":
        frame = failure_frame(n_rows=rows, seed=seed)
        rng = np.random.default_rng([seed, 1])
        blanks = sum(
            _blank(frame.columns, frame.column_names, c, KNN_SHARE, rng)
            for c in KNN_BLANKS
        ) + sum(
            _blank(frame.columns, frame.column_names, c, MEDIAN_SHARE, rng)
            for c in MEDIAN_BLANKS
        )
        facts["blank_cells"] = blanks
        return frame, facts
    frame = network_frame(n_rows=rows, seed=seed, n_outliers=0)
    if workload.task == ANOMALY:
        # plant the outliers here, not in network_frame, so the benchmark
        # knows which rows they are: 8-sigma latency, 10-sigma packet loss
        rng = np.random.default_rng([seed, 2])
        planted = sorted(
            int(i) for i in rng.choice(
                rows, size=max(1, int(round(PLANTED_SHARE * rows))), replace=False
            )
        )
        latency = frame.column("Network_Latency")
        loss = frame.column("Packet_Loss_Rate")
        for i in planted:
            latency[i] = round(latency[i] + 16.0, 3)
            loss[i] = round(loss[i] + 1.5, 4)
        facts["planted_rows"] = planted
    return frame, facts


def generate(workload: Workload, seed: int, out_dir: Path, rows: int | None = None):
    """Write the workload's CSV and its record; same seed, same bytes.

    Returns (csv_path, record). The record holds the input's shape, size
    and digest plus the facts the checks need; it is written next to, not
    inside, the directory the engine reads.
    """
    rows = rows or workload.rows
    frame, facts = _frame(workload, seed, rows)
    data_dir = out_dir / "input"
    data_dir.mkdir(parents=True, exist_ok=True)
    csv_path = data_dir / f"{workload.name}.csv"
    write_csv(frame, csv_path)
    payload = csv_path.read_bytes()
    record = {
        "workload": workload.name,
        "seed": seed,
        "rows": frame.n_rows,
        "columns": len(frame.column_names),
        "csv_bytes": len(payload),
        "csv_sha256": hashlib.sha256(payload).hexdigest(),
        **facts,
    }
    (out_dir / "input_record.json").write_text(json.dumps(record, indent=1) + "\n")
    return csv_path, record
