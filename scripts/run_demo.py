#!/usr/bin/env python3
"""Run all three workflow variants end to end on synthetic data.

No language-model backend is needed; the rule-based planner drives every
run. Pass --backend-url to route planning through a local generate endpoint
instead. Exits 1 when any run ends with a nonzero exit code.
"""

import argparse
import logging
import sys
import tempfile
import time
from pathlib import Path

from rxmflow.backends import HttpBackend
from rxmflow.runner import WorkflowConfig, run_workflow
from rxmflow.synth import failure_frame, maintenance_frame, network_frame, write_csv


def run_one(name, config, backend):
    start = time.time()
    _, artifacts = run_workflow(config, backend=backend)
    elapsed = time.time() - start
    print(f"\n=== {name} ({elapsed:.1f}s) " + "=" * 30)
    print(artifacts.summary_text)
    if artifacts.exit_code:
        print(f"{name} ended with exit code {artifacts.exit_code}: {artifacts.failure}")
    return artifacts.exit_code


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend-url", help="optional generate endpoint")
    parser.add_argument("--model-name", default="qwen3:4b")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--log-dir", default="logs")
    args = parser.parse_args()

    logging.basicConfig(level=logging.INFO, format="%(asctime)s [%(levelname)s] - %(message)s")
    backend = (
        HttpBackend(args.backend_url, args.model_name) if args.backend_url else None
    )

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_csv(maintenance_frame(seed=args.seed), tmp / "maintenance.csv")
        write_csv(failure_frame(seed=args.seed + 4), tmp / "failure.csv")
        write_csv(
            network_frame(n_rows=20_000, seed=args.seed + 6), tmp / "network.csv"
        )

        runs = [
            ("classification", WorkflowConfig(
                data_path=str(tmp / "maintenance.csv"), auto_approve=True,
                seed=args.seed, log_dir=args.log_dir,
            )),
            ("regression", WorkflowConfig(
                data_path=str(tmp / "failure.csv"), auto_approve=True,
                seed=args.seed, log_dir=args.log_dir,
            )),
            ("anomaly detection", WorkflowConfig(
                data_path=str(tmp / "network.csv"), task="anomaly_detection",
                contamination=0.01, auto_approve=True,
                seed=args.seed, log_dir=args.log_dir,
            )),
        ]
        codes = [run_one(name, config, backend) for name, config in runs]
    return 1 if any(codes) else 0


if __name__ == "__main__":
    sys.exit(main())
