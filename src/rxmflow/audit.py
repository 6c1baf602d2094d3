"""Append-only JSON-Lines audit log.

One record per line, schema {timestamp, actor, event, payload}, flushed on
every write and never rewritten. Timestamps come from the injected clock so
replayed runs audit identically.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .clocks import SystemClock
from .errors import SinkUnwritableError

@dataclass(frozen=True)
class AuditRecord:
    timestamp: str               # ISO-8601
    actor: str
    event: str
    payload: object


class AuditLog:
    """Serialized writer over one JSONL sink; use a null path for dry runs."""

    def __init__(self, path=None, clock=None):
        self.path = path
        self.clock = clock or SystemClock()
        self.records: list[AuditRecord] = []
        self._handle = None
        if path is not None:
            try:
                self._handle = open(path, "a", encoding="utf-8")
            except OSError as exc:
                raise SinkUnwritableError(f"cannot open audit sink {path}: {exc}") from None

    def append(self, actor: str, event: str, payload=None) -> AuditRecord:
        record = AuditRecord(
            timestamp=self.clock.now().isoformat(),
            actor=actor,
            event=event,
            payload=payload,
        )
        self.records.append(record)
        if self._handle is not None:
            self._handle.write(json.dumps(asdict(record), sort_keys=True) + "\n")
            self._handle.flush()
        return record

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None

