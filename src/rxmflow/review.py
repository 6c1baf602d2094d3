"""Terminal review gate: approve, adjust, or reject the ranked actions.

Interactive mode renders the ranked table and loops on per-recommendation
edits when the reviewer picks adjust. Only priority and action text are
editable; scores are derived values and editing them is refused with an
explanation. End-of-input counts as a rejection so unattended sessions
fail safe.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .optimize import CRITICAL, ELEVATED, ROUTINE, Recommendation

MODE_INTERACTIVE = "interactive"
MODE_AUTO_APPROVE = "auto_approve"

_EDITABLE_FIELDS = ("priority", "action")
_PRIORITIES = (CRITICAL, ELEVATED, ROUTINE)


@dataclass
class ReviewIO:
    """Line-based channel; defaults to the process stdio."""

    input_stream: object = None
    output_stream: object = None

    def say(self, text: str = ""):
        stream = self.output_stream or sys.stdout
        stream.write(text + "\n")

    def prompt(self, text: str) -> str:
        self.say(text)
        stream = self.input_stream or sys.stdin
        line = stream.readline()
        if line == "":
            raise EOFError
        return line.strip()


@dataclass
class ReviewOutcome:
    status: str                          # approved | adjusted | rejected
    actions_count: int
    unique_machines: int
    adjustments: list[tuple[str, str, str]] = field(default_factory=list)

    def summary_line(self) -> str:
        return (
            f"Recommendation Review - {self.status} "
            f"(action={self.actions_count}, unique_machines={self.unique_machines})"
        )

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "actions_count": self.actions_count,
            "unique_machines": self.unique_machines,
            "adjustments": [
                {"machine_id": m, "field": f, "new_value": v}
                for m, f, v in self.adjustments
            ],
        }


def _render_table(recommendations: list[Recommendation], io: ReviewIO):
    io.say(f"{'#':>3}  {'Machine':<12} {'Priority':<10} {'Score':>8}  Action")
    for i, rec in enumerate(recommendations, start=1):
        io.say(
            f"{i:>3}  {rec.machine_id:<12} {rec.priority:<10} "
            f"{rec.priority_score:>8.3f}  {rec.action}"
        )


def _adjust_loop(recommendations, io: ReviewIO) -> list[tuple[str, str, str]]:
    adjustments: list[tuple[str, str, str]] = []
    while True:
        raw = io.prompt("Recommendation number to edit (blank to finish):")
        if not raw:
            return adjustments
        try:
            index = int(raw) - 1
            rec = recommendations[index]
        except (ValueError, IndexError):
            io.say("No such recommendation.")
            continue
        which = io.prompt("Field to edit [priority/action]:").lower()
        if which not in _EDITABLE_FIELDS:
            io.say(
                "Only priority and action are editable; scores are derived "
                "from the model and the training statistics."
            )
            continue
        new_value = io.prompt(f"New {which}:")
        if which == "priority":
            if new_value not in _PRIORITIES:
                io.say(f"Priority must be one of {', '.join(_PRIORITIES)}.")
                continue
            rec.priority = new_value
        else:
            if not new_value:
                io.say("Action text must be non-empty.")
                continue
            rec.action = new_value
        adjustments.append((rec.machine_id, which, new_value))
        io.say(f"Updated {rec.machine_id}.")


def review(
    recommendations: list[Recommendation],
    io_channel: ReviewIO | None = None,
    mode: str = MODE_INTERACTIVE,
    audit=None,
) -> ReviewOutcome:
    """Run the review gate over the ranked recommendations."""
    io = io_channel or ReviewIO()
    unique = len({rec.machine_id for rec in recommendations})
    count = len(recommendations)

    if mode == MODE_AUTO_APPROVE:
        outcome = ReviewOutcome("approved", count, unique)
    else:
        try:
            io.say("")
            io.say("RECOMMENDATION REVIEW")
            _render_table(recommendations, io)
            answer = io.prompt("[a]pprove / a[d]just / [r]eject:").lower()
            if answer.startswith("d"):
                adjustments = _adjust_loop(recommendations, io)
                status = "adjusted" if adjustments else "approved"
                outcome = ReviewOutcome(status, count, unique, adjustments)
            elif answer.startswith("r"):
                outcome = ReviewOutcome("rejected", count, unique)
            else:
                outcome = ReviewOutcome("approved", count, unique)
        except EOFError:
            # input channel closed mid-review: fail safe
            outcome = ReviewOutcome("rejected", count, unique)

    if audit is not None:
        audit("recommendation_review", outcome.to_json())
    return outcome
