"""The tool decider: a rule table mapping dataset traits to preprocessing
directives.

Rule table, per column:
  missing share  > 0.20          -> knn imputation, k = 3
  missing share in [0.10, 0.20]  -> median (numeric) / most_frequent (categorical)
  missing share in (0, 0.10)     -> same as the moderate band (rule extended
                                    downward so small gaps are still filled)
  estimated memory > 100 MiB     -> robust scaling on every numeric feature,
                                    otherwise standard scaling
  categorical uniques > 50       -> target encoding when a supervised target
                                    exists, otherwise drop
  categorical uniques <= 50      -> one-hot encoding
  identifiers                    -> passthrough everywhere
  the target column              -> excluded from every directive

Backup plan, derived from the plan above after a preprocessing failure:
  knn or median / most_frequent  -> median (numeric) / most_frequent
                                    (categorical)
  any scaling                    -> standard scaling
  target encoding                -> dropped (high cardinality)
  drop and identifier directives -> carried over, as are the advisory notes

Both missingness interval boundaries are closed on the median path. knn on
a categorical column imputes the mode of the neighbors instead of the mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..perception import DatasetMetadata
from .schema import (
    FEATURE_CATEGORICAL, FEATURE_NUMERIC, IDENTIFIER, SchemaMap,
)

IMPUTE_KNN = "knn"
IMPUTE_MEDIAN = "median"
IMPUTE_MOST_FREQUENT = "most_frequent"
IMPUTE_NONE = "none"

SCALE_STANDARD = "standard"
SCALE_ROBUST = "robust"
SCALE_NONE = "none"

ENCODE_ONE_HOT = "one_hot"
ENCODE_TARGET = "target_encoding"
ENCODE_PASSTHROUGH = "passthrough"
ENCODE_DROP = "drop"

KNN_MISSING_SHARE = 0.20            # strictly above: knn imputation
MEDIAN_MISSING_SHARE = 0.10         # closed interval [0.10, 0.20]: median
KNN_NEIGHBORS = 3
MEMORY_CUTOFF_MIB = 100             # estimate strictly above: robust scaling
HIGH_CARDINALITY = 50               # uniques strictly above: target-encode or drop


@dataclass
class ColumnDirective:
    imputation: str
    scaling: str
    encoding: str
    rationale: str
    knn_neighbors: int = 0


@dataclass
class PreprocessPlan:
    directives: dict[str, ColumnDirective]
    advisory_notes: list[str] = field(default_factory=list)

    def to_json(self, schema: SchemaMap) -> dict:
        return {
            name: {
                "role": schema.roles.get(name, "unknown"),
                "imputation": d.imputation,
                "scaling": d.scaling,
                "encoding": d.encoding,
                "rationale": d.rationale,
                "fitted": None,
            }
            for name, d in self.directives.items()
        }


def _imputation_for(missing_pct: float, numeric: bool):
    if missing_pct > KNN_MISSING_SHARE:
        return IMPUTE_KNN, f"{missing_pct:.0%} missing exceeds {KNN_MISSING_SHARE:.0%}"
    if missing_pct >= MEDIAN_MISSING_SHARE:
        kind = IMPUTE_MEDIAN if numeric else IMPUTE_MOST_FREQUENT
        return kind, (
            f"{missing_pct:.0%} missing within "
            f"[{MEDIAN_MISSING_SHARE:.0%}, {KNN_MISSING_SHARE:.0%}]"
        )
    if missing_pct > 0:
        kind = IMPUTE_MEDIAN if numeric else IMPUTE_MOST_FREQUENT
        return kind, f"{missing_pct:.0%} missing, light-gap rule"
    return IMPUTE_NONE, "no missing values"


def decide_tools(metadata: DatasetMetadata, schema: SchemaMap) -> PreprocessPlan:
    """Deterministic, total rule table over the metadata and schema."""
    big = metadata.estimated_memory_bytes > MEMORY_CUTOFF_MIB * 2**20
    numeric_scale = SCALE_ROBUST if big else SCALE_STANDARD
    scale_why = (
        f"memory estimate above {MEMORY_CUTOFF_MIB} MiB, robust scaling"
        if big else f"memory estimate within {MEMORY_CUTOFF_MIB} MiB, standard scaling"
    )
    has_target = schema.chosen_target is not None

    directives: dict[str, ColumnDirective] = {}
    for profile in metadata.profiles:
        name = profile.name
        role = schema.roles.get(name)
        if name == schema.chosen_target:
            continue
        if role == IDENTIFIER:
            directives[name] = ColumnDirective(
                IMPUTE_NONE, SCALE_NONE, ENCODE_PASSTHROUGH,
                "identifier, passed through unchanged",
            )
            continue
        if role == FEATURE_NUMERIC:
            imputation, why = _imputation_for(profile.missing_pct, True)
            directives[name] = ColumnDirective(
                imputation, numeric_scale, ENCODE_PASSTHROUGH,
                f"{why}; {scale_why}",
                knn_neighbors=KNN_NEIGHBORS if imputation == IMPUTE_KNN else 0,
            )
        elif role == FEATURE_CATEGORICAL:
            imputation, why = _imputation_for(profile.missing_pct, False)
            if profile.unique_count > HIGH_CARDINALITY:
                if has_target:
                    encoding = ENCODE_TARGET
                    enc_why = (
                        f"{profile.unique_count} categories exceed "
                        f"{HIGH_CARDINALITY}, target encoding"
                    )
                else:
                    encoding = ENCODE_DROP
                    enc_why = (
                        f"{profile.unique_count} categories exceed "
                        f"{HIGH_CARDINALITY} with no target, dropped"
                    )
            else:
                encoding = ENCODE_ONE_HOT
                enc_why = f"{profile.unique_count} categories, one-hot"
            directives[name] = ColumnDirective(
                imputation, SCALE_NONE, encoding, f"{why}; {enc_why}",
                knn_neighbors=KNN_NEIGHBORS if imputation == IMPUTE_KNN else 0,
            )
        else:
            # timestamps and non-chosen target candidates stay out of the
            # feature matrix but are recorded for the audit trail
            directives[name] = ColumnDirective(
                IMPUTE_NONE, SCALE_NONE, ENCODE_DROP,
                f"role {role}, excluded from the feature matrix",
            )
    return PreprocessPlan(directives=directives)


def mark_removed(plan: PreprocessPlan, removed: list[tuple[str, str]]) -> PreprocessPlan:
    """Override directives for columns the feature analysis removed."""
    for name, reason in removed:
        if name in plan.directives:
            plan.directives[name] = ColumnDirective(
                IMPUTE_NONE, SCALE_NONE, ENCODE_DROP,
                f"removed by feature analysis: {reason}",
            )
    return plan


def simplified_backup_plan(plan: PreprocessPlan, schema: SchemaMap) -> PreprocessPlan:
    """Backup strategy after a preprocessing failure, derived from the plan
    that failed: its knn and median imputation become median (numeric) or
    most-frequent (categorical), every numeric feature is standard-scaled,
    and a target-encoded column is dropped. Dropped and identifier
    directives and the advisory notes carry over."""
    directives: dict[str, ColumnDirective] = {}
    for name, directive in plan.directives.items():
        role = schema.roles.get(name)
        gap = directive.imputation != IMPUTE_NONE
        if directive.encoding == ENCODE_DROP or role == IDENTIFIER:
            directives[name] = directive
        elif directive.encoding == ENCODE_TARGET:
            directives[name] = ColumnDirective(
                IMPUTE_NONE, SCALE_NONE, ENCODE_DROP,
                "backup plan: high-cardinality column dropped",
            )
        elif role == FEATURE_NUMERIC:
            directives[name] = ColumnDirective(
                IMPUTE_MEDIAN if gap else IMPUTE_NONE, SCALE_STANDARD, ENCODE_PASSTHROUGH,
                "backup plan: median imputation, standard scaling",
            )
        else:
            directives[name] = ColumnDirective(
                IMPUTE_MOST_FREQUENT if gap else IMPUTE_NONE, SCALE_NONE, ENCODE_ONE_HOT,
                "backup plan: most-frequent imputation, one-hot",
            )
    return PreprocessPlan(
        directives, [*plan.advisory_notes, "simplified backup plan in effect"])
