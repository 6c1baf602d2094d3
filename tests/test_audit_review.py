import io
import json

import pytest

from rxmflow.audit import AuditLog
from rxmflow.clocks import TickClock
from rxmflow.errors import SinkUnwritableError
from rxmflow.optimize import Recommendation
from rxmflow.review import (
    MODE_AUTO_APPROVE, MODE_INTERACTIVE, ReviewIO, review,
)


def rec(machine, priority="Critical", score=3.2):
    return Recommendation(
        machine_id=machine, priority=priority, priority_score=score,
        contributing_features=[("vibration", 0.5)],
        action="Immediately dispatch maintenance team; inspect and restore",
        cost_estimate=1000.0, time_estimate=4.0,
    )


# ----------------------------------------------------------------------- audit

def test_appends_preserve_order_and_parse(tmp_path):
    path = tmp_path / "audit.jsonl"
    log = AuditLog(path, clock=TickClock())
    log.append("perception", "dataset_inspected", {"n_rows": 10})
    log.append("orchestrator", "planner_decision", {
        "tool": "preprocess_data", "reason": "data must be prepared",
    })
    log.close()
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    first, second = (json.loads(line) for line in lines)
    assert first["event"] == "dataset_inspected"
    assert second["payload"]["tool"] == "preprocess_data"
    assert "data must be prepared" in second["payload"]["reason"]
    assert first["timestamp"] <= second["timestamp"]


def test_timestamps_are_monotone_with_injected_clock(tmp_path):
    log = AuditLog(tmp_path / "a.jsonl", clock=TickClock(step_seconds=2.0))
    stamps = [log.append("human", "e", None).timestamp for _ in range(5)]
    assert stamps == sorted(stamps)
    log.close()


def test_unwritable_sink_raises(tmp_path):
    with pytest.raises(SinkUnwritableError):
        AuditLog(tmp_path / "nope" / "a.jsonl")


# ---------------------------------------------------------------------- review

def channel(text):
    return ReviewIO(input_stream=io.StringIO(text), output_stream=io.StringIO())


def test_approve_counts_actions_and_machines():
    recs = [rec(f"M{i:03d}") for i in range(10)]
    outcome = review(recs, channel("a\n"), MODE_INTERACTIVE)
    assert outcome.status == "approved"
    assert outcome.actions_count == 10
    assert outcome.unique_machines == 10
    assert outcome.summary_line() == (
        "Recommendation Review - approved (action=10, unique_machines=10)"
    )


def test_auto_approve_never_prompts():
    exploding = ReviewIO(input_stream=None, output_stream=io.StringIO())
    outcome = review([rec("M001")], exploding, MODE_AUTO_APPROVE)
    assert outcome.status == "approved"


def test_reject_is_recorded():
    outcome = review([rec("M001")], channel("r\n"), MODE_INTERACTIVE)
    assert outcome.status == "rejected"


def test_end_of_input_counts_as_rejected():
    outcome = review([rec("M001")], channel(""), MODE_INTERACTIVE)
    assert outcome.status == "rejected"


def test_adjust_edits_priority_and_action():
    recs = [rec("M001"), rec("M002")]
    script = "d\n1\npriority\nElevated\n2\naction\nSwap the spindle bearing\n\n"
    outcome = review(recs, channel(script), MODE_INTERACTIVE)
    assert outcome.status == "adjusted"
    edited = outcome.recommendations
    assert edited[0].priority == "Elevated"
    assert edited[1].action == "Swap the spindle bearing"
    # the reviewed list holds copies: the optimizer's ranking is untouched
    assert (recs[0].priority, recs[1].action) == ("Critical", rec("M002").action)
    assert edited[0].priority_score == recs[0].priority_score
    assert "recommendations" not in outcome.to_json()
    assert outcome.adjustments == [
        ("M001", "priority", "Elevated"),
        ("M002", "action", "Swap the spindle bearing"),
    ]


def test_adjust_refuses_score_edits():
    recs = [rec("M001")]
    out = io.StringIO()
    script = "d\n1\npriority_score\n\n"
    outcome = review(recs, ReviewIO(io.StringIO(script), out), MODE_INTERACTIVE)
    assert "derived" in out.getvalue()
    assert outcome.status == "approved"       # nothing actually changed
    assert recs[0].priority_score == 3.2


def test_adjust_validates_priority_vocabulary():
    recs = [rec("M001")]
    script = "d\n1\npriority\nUrgent\n\n"
    outcome = review(recs, channel(script), MODE_INTERACTIVE)
    assert outcome.recommendations[0].priority == "Critical"
    assert outcome.adjustments == []


def test_review_is_audited():
    events = []
    review([rec("M001")], channel("a\n"), MODE_INTERACTIVE,
           audit=lambda e, p: events.append((e, p)))
    assert events[0][0] == "recommendation_review"
    assert events[0][1]["status"] == "approved"
    assert events[0][1]["unique_machines"] == 1
