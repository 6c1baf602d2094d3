"""Terminal review gate: approve, adjust, or reject the ranked actions.

Interactive mode renders the ranked table and loops on per-recommendation
edits when the reviewer picks adjust. Only priority and action text are
editable; scores are derived values and editing them is refused with an
explanation. An edit never changes the recommendation it was made on: the
outcome carries reviewed copies, and the list it was given stays as the
optimizer ranked it. End-of-input counts as a rejection so unattended
sessions fail safe.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace

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


@dataclass(frozen=True)
class ReviewOutcome:
    status: str                          # approved | adjusted | rejected
    actions_count: int
    unique_machines: int
    adjustments: list[tuple[str, str, str]] = field(default_factory=list)
    # the recommendations as reviewed, edits applied; not part of to_json
    recommendations: list[Recommendation] = field(default_factory=list)

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


def _adjust_loop(recommendations, io: ReviewIO):
    """Edit copies of the recommendations; returns (reviewed, adjustments)."""
    reviewed = list(recommendations)
    adjustments: list[tuple[str, str, str]] = []
    while True:
        raw = io.prompt("Recommendation number to edit (blank to finish):")
        if not raw:
            return reviewed, adjustments
        try:
            index = int(raw) - 1
            rec = reviewed[index]
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
        if which == "priority" and new_value not in _PRIORITIES:
            io.say(f"Priority must be one of {', '.join(_PRIORITIES)}.")
            continue
        if which == "action" and not new_value:
            io.say("Action text must be non-empty.")
            continue
        reviewed[index] = replace(rec, **{which: new_value})
        adjustments.append((rec.machine_id, which, new_value))
        io.say(f"Updated {rec.machine_id}.")


def review(
    recommendations: list[Recommendation],
    io_channel: ReviewIO | None = None,
    mode: str = MODE_INTERACTIVE,
    audit=None,
) -> ReviewOutcome:
    """Run the review gate over the ranked recommendations; the outcome
    carries them as reviewed."""
    io = io_channel or ReviewIO()
    unique = len({rec.machine_id for rec in recommendations})
    count = len(recommendations)

    status, adjustments, reviewed = "approved", [], recommendations
    if mode != MODE_AUTO_APPROVE:
        try:
            io.say("")
            io.say("RECOMMENDATION REVIEW")
            _render_table(recommendations, io)
            answer = io.prompt("[a]pprove / a[d]just / [r]eject:").lower()
            if answer.startswith("d"):
                reviewed, adjustments = _adjust_loop(recommendations, io)
                status = "adjusted" if adjustments else "approved"
            elif answer.startswith("r"):
                status = "rejected"
        except EOFError:
            # input channel closed mid-review, edits unfinished: fail safe
            status = "rejected"
    outcome = ReviewOutcome(status, count, unique, adjustments, reviewed)

    if audit is not None:
        audit("recommendation_review", outcome.to_json())
    return outcome
