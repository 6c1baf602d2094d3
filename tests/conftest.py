import numpy as np
import pytest
from hypothesis import settings

from rxmflow.errors import BackendError
from rxmflow.perception import (
    CATEGORICAL, CONSTANT, NUMERIC, ColumnProfile, DatasetFrame,
    DatasetMetadata,
)
from rxmflow.synth import write_csv

settings.register_profile("engine", deadline=None)
settings.load_profile("engine")


def make_frame(columns: dict) -> DatasetFrame:
    """Build a DatasetFrame from {name: cells}; cells use floats, strs, None."""
    names = list(columns)
    cols = [list(columns[name]) for name in names]
    n_rows = len(cols[0]) if cols else 0
    return DatasetFrame(column_names=names, columns=cols, n_rows=n_rows)


def make_profile(name, dtype=NUMERIC, missing_pct=0.0, unique_count=10,
                 n_rows=100, **extra) -> ColumnProfile:
    missing = int(round(missing_pct * n_rows))
    non_missing = n_rows - missing
    return ColumnProfile(
        name=name,
        inferred_dtype=dtype,
        missing_count=missing,
        missing_pct=missing_pct,
        unique_count=unique_count,
        uniqueness_ratio=unique_count / non_missing if non_missing else 0.0,
        **extra,
    )


def make_metadata(profiles, n_rows=100, memory_bytes=1024) -> DatasetMetadata:
    return DatasetMetadata(
        n_rows=n_rows,
        n_cols=len(profiles),
        profiles=list(profiles),
        estimated_memory_bytes=memory_bytes,
    )


# priority labels of 200-row tables whose target cannot be split
DEGENERATE_TARGETS = {
    "class_with_one_row": ["Low"] * 99 + ["High"] * 100 + ["Medium"],
    "constant_target": ["Low"] * 200,
}


def write_target_csv(path, labels, seed=0):
    """An id, two numeric readings and `labels` as Maintenance_Priority."""
    gen = np.random.default_rng(seed)
    n = len(labels)
    write_csv(make_frame({
        "Machine_ID": [f"M{i:04d}" for i in range(n)],
        "temperature": np.round(gen.normal(60.0, 5.0, n), 3).tolist(),
        "vibration": np.round(gen.normal(1.0, 0.2, n), 3).tolist(),
        "Maintenance_Priority": labels,
    }), path)
    return str(path)


class UnavailableBackend:
    """Always fails; exercises the rule-based fallback path."""

    def __init__(self):
        self.calls = 0

    def generate(self, prompt: str) -> str:
        self.calls += 1
        raise BackendError("unavailable", "no backend configured")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
