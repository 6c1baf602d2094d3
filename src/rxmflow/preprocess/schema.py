"""Column-role discovery from name patterns, uniqueness, and date parsing.

Role precedence per column: identifier, then timestamp, then target
candidate, then feature by dtype. Non-chosen target candidates stay out of
the feature set on purpose: a sibling label column (say a failure
probability next to a priority label) would leak the outcome into the
model.

Date parsing is not repeated here: a column is a timestamp when the date
share on its perception profile reaches the schema's own cutoff, which is
lower than perception's, so a column perception calls categorical can
still hold timestamps, and a column perception types as datetime always
meets the cutoff.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import AmbiguousTargetError
from ..perception import (
    CATEGORICAL, CONSTANT, NUMERIC,
    DatasetFrame, DatasetMetadata, identifier_pattern, normalized_name,
)
from ..workflow import REGRESSION

IDENTIFIER = "identifier"
TIMESTAMP = "timestamp"
TARGET_CANDIDATE = "target_candidate"
FEATURE_NUMERIC = "feature_numeric"
FEATURE_CATEGORICAL = "feature_categorical"

# a name token starting with one of these marks a timestamp ("downtime" is
# one token, so it does not match "time")
TIMESTAMP_TOKENS = ("time", "date", "stamp")
# a normalized name containing one of these marks a target candidate
TARGET_TOKENS = (
    "priority", "status", "failure", "target", "label", "quality", "efficiency",
)
IDENTIFIER_UNIQUENESS = 0.95        # at or above, with key-like values: identifier
TIMESTAMP_DATE_SHARE = 0.90         # at or above: timestamp


@dataclass
class SchemaMap:
    roles: dict[str, str]
    chosen_target: str | None = None
    evidence: dict[str, str] = field(default_factory=dict)

    def feature_columns(self) -> list[str]:
        return [
            c for c, r in self.roles.items()
            if r in (FEATURE_NUMERIC, FEATURE_CATEGORICAL)
        ]

    def identifier_columns(self) -> list[str]:
        return [c for c, r in self.roles.items() if r == IDENTIFIER]


def _tokens(name: str) -> list[str]:
    return [t for t in re.split(r"[_\W]+", normalized_name(name)) if t]


def _matches_timestamp(name: str) -> str | None:
    for token in _tokens(name):
        for prefix in TIMESTAMP_TOKENS:
            if token.startswith(prefix):
                return prefix
    return None


def _matches_target(name: str) -> str | None:
    normalized = normalized_name(name)
    for token in TARGET_TOKENS:
        if token in normalized:
            return token
    return None


def discover_schema(
    frame: DatasetFrame,
    metadata: DatasetMetadata,
    target_hint: str | None = None,
) -> SchemaMap:
    """Assign a role to every column and resolve the prediction target.

    Raises AmbiguousTargetError when several target candidates exist and no
    hint disambiguates; the exception carries the candidates in column order
    so callers can fall back to the last one or ask a human.
    """
    if target_hint is not None and target_hint not in frame.column_names:
        raise KeyError(f"target hint {target_hint!r} is not a column")

    roles: dict[str, str] = {}
    evidence: dict[str, str] = {}
    candidates: list[str] = []

    for name in frame.column_names:
        profile = metadata.profile(name)
        id_pattern = identifier_pattern(name)
        unique_id = (
            profile.uniqueness_ratio >= IDENTIFIER_UNIQUENESS
            and (
                profile.inferred_dtype == CATEGORICAL
                or (profile.inferred_dtype == NUMERIC and profile.integer_valued)
            )
        )
        ts_pattern = _matches_timestamp(name)
        target_pattern = _matches_target(name)

        if id_pattern:
            roles[name] = IDENTIFIER
            evidence[name] = f"name matches identifier pattern {id_pattern!r}"
        elif unique_id:
            roles[name] = IDENTIFIER
            evidence[name] = (
                f"uniqueness ratio {profile.uniqueness_ratio:.2f} with "
                f"{'integer' if profile.inferred_dtype == NUMERIC else 'categorical'} values"
            )
        elif ts_pattern:
            roles[name] = TIMESTAMP
            evidence[name] = f"name token starts with {ts_pattern!r}"
        elif profile.date_share >= TIMESTAMP_DATE_SHARE:
            roles[name] = TIMESTAMP
            evidence[name] = "most non-missing cells parse as dates"
        elif target_pattern:
            roles[name] = TARGET_CANDIDATE
            evidence[name] = f"name contains target token {target_pattern!r}"
            candidates.append(name)
        elif profile.inferred_dtype in (NUMERIC,):
            roles[name] = FEATURE_NUMERIC
            evidence[name] = "numeric values"
        elif profile.inferred_dtype == CONSTANT:
            if profile.mean is not None:
                roles[name] = FEATURE_NUMERIC
            else:
                roles[name] = FEATURE_CATEGORICAL
            evidence[name] = "constant column, kept for the analysis stage to remove"
        else:
            roles[name] = FEATURE_CATEGORICAL
            evidence[name] = "categorical values"

    chosen: str | None = None
    if target_hint is not None:
        chosen = target_hint
        roles[chosen] = TARGET_CANDIDATE
        evidence[chosen] = "selected by explicit target hint"
    elif len(candidates) == 1:
        chosen = candidates[0]
    elif len(candidates) > 1:
        raise AmbiguousTargetError(candidates)

    return SchemaMap(roles=roles, chosen_target=chosen, evidence=evidence)


def target_rows(cells: list, task: str) -> list[int]:
    """The rows a supervised task learns from: those whose target cell is a
    float or, for classification, text. Stray text in a regression target
    is missing, as in any numeric column."""
    kept = float if task == REGRESSION else (float, str)
    return [i for i, cell in enumerate(cells) if isinstance(cell, kept)]
