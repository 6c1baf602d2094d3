"""Guards on `workflow.STAGES`, the one table of the workflow's stages.

Stage and task names are spelled only in workflow.py: every other module
reads them from there, so a stage is added by one table row plus one
runner method.
"""

import ast
from pathlib import Path

import pytest

import rxmflow
from rxmflow.orchestrator import build_prompt, parse_decision, rule_based_next
from rxmflow.runner import WorkflowRunner
from rxmflow.workflow import (
    STAGES, SUCCEEDED, TASKS, TOOLS, StepRecord, WorkflowContext, record_step,
)

PACKAGE = Path(rxmflow.__file__).parent
NAMES = set(TOOLS) | set(TASKS)


def _sources():
    return sorted(p for p in PACKAGE.rglob("*.py") if p != PACKAGE / "workflow.py")


def test_the_scan_covers_the_package():
    scanned = {p.relative_to(PACKAGE).as_posix() for p in _sources()}
    assert {"runner.py", "orchestrator.py", "cli.py", "preprocess/features.py"} <= scanned
    assert "workflow.py" not in scanned


@pytest.mark.parametrize("path", _sources(), ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_no_stage_or_task_name_is_spelled_outside_workflow(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    spelled = [
        (node.lineno, node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in NAMES
    ]
    assert spelled == []


@pytest.mark.parametrize("name", TOOLS)
def test_every_stage_has_a_runner_method(name):
    assert callable(getattr(WorkflowRunner, f"_{name}", None))


def test_rule_planner_walks_the_table_in_order_with_its_reasons():
    context = WorkflowContext(goal="g")
    walked = []
    for _ in range(len(STAGES) + 1):
        decision = rule_based_next(context)
        if decision.finish:
            break
        walked.append((decision.tool, decision.reason))
        context = record_step(context, StepRecord(decision.tool, SUCCEEDED, 0.0, ""))
    assert walked == [(name, reason) for name, _, reason in STAGES]
    assert rule_based_next(context).finish


def test_prompt_lists_every_row_in_order_and_accepts_its_name():
    prompt = build_prompt(WorkflowContext(goal="g"))
    lines = [f"{i}. {name}: {description}"
             for i, (name, description, _) in enumerate(STAGES, start=1)]
    block = prompt.splitlines()
    start = block.index(lines[0])
    assert block[start:start + len(lines)] == lines
    for name in TOOLS:
        assert parse_decision(f'{{"tool": "{name}", "finish": false, "reason": "r"}}').tool == name
