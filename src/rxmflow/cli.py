"""Command-line entry point.

Exit codes: 0 on success; 1 when a stage failed for good, either a load
error or a step that failed twice (or an engine error such as an unwritable
log directory), or when the planner finished before the summarize step
succeeded; 2 when the run completed but the reviewer rejected the
recommendations.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .backends import HttpBackend, OpenAIChatBackend, ScriptedBackend
from .errors import EngineError
from .runner import EXIT_DATA_ERROR, WorkflowConfig, WorkflowRunner
from .workflow import ANOMALY, CLASSIFICATION, REGRESSION

API_KEY_ENV = "RXMFLOW_API_KEY"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rxmflow",
        description="Run the prescriptive-maintenance workflow on a CSV dataset.",
    )
    parser.add_argument("--data", required=True, help="path to the CSV dataset")
    parser.add_argument(
        "--task", choices=["auto", CLASSIFICATION, REGRESSION, "anomaly"],
        default="auto", help="problem type (default: inferred from the schema)",
    )
    parser.add_argument("--target", help="target column name")
    parser.add_argument(
        "--backend", default="rule",
        help="planner backend: rule, scripted:<file>, http, or openai",
    )
    parser.add_argument("--backend-url", default="http://127.0.0.1:11434",
                        help="base URL for the http/openai backends")
    parser.add_argument("--model-name", default="qwen3:4b",
                        help="model name passed to the backend")
    parser.add_argument("--contamination", default="auto",
                        help="isolation forest contamination: auto or a fraction in (0, 0.5]")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--auto-approve", action="store_true",
                        help="skip the interactive review gate")
    parser.add_argument("--max-steps", type=int, default=10)
    parser.add_argument("--include-routine", action="store_true",
                        help="keep Routine recommendations in the output")
    parser.add_argument("--log-dir", default="logs")
    parser.add_argument("--verbose", action="store_true")
    return parser


def make_backend(args):
    if args.backend == "rule":
        return None
    if args.backend.startswith("scripted:"):
        return ScriptedBackend.from_file(args.backend.split(":", 1)[1])
    if args.backend == "http":
        return HttpBackend(args.backend_url, args.model_name)
    if args.backend == "openai":
        return OpenAIChatBackend(args.backend_url, args.model_name,
                                 api_key_env=API_KEY_ENV)
    raise ValueError(f"unknown backend {args.backend!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s [%(levelname)s] - %(message)s",
    )
    contamination = args.contamination
    try:
        contamination = float(contamination)
    except ValueError:
        pass    # "auto", or text that WorkflowConfig refuses
    try:
        config = WorkflowConfig(
            data_path=args.data,
            task=None if args.task == "auto" else (
                ANOMALY if args.task == "anomaly" else args.task
            ),
            target=args.target,
            seed=args.seed,
            contamination=contamination,
            auto_approve=args.auto_approve,
            include_routine=args.include_routine,
            max_steps=args.max_steps,
            log_dir=args.log_dir,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    try:
        backend = make_backend(args)
    except (OSError, ValueError) as exc:    # an unknown backend, or a bad scripted file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    try:
        runner = WorkflowRunner(config, backend=backend)
        runner.run()
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    print(runner.artifacts.summary_text)
    return runner.artifacts.exit_code


if __name__ == "__main__":
    sys.exit(main())
