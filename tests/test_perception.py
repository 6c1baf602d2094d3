from datetime import datetime

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rxmflow.errors import EmptyFrameError, FileMissingError, MalformedCsvError
from rxmflow.perception import (
    _DATETIME_FORMATS, CATEGORICAL, CONSTANT, NUMERIC, _parse_datetime,
    flag_quality_issues, inspect_frame, load_csv,
)
from rxmflow.synth import maintenance_frame, network_frame, write_csv

from conftest import make_frame


def test_load_csv_parses_types(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("a,b\n1,x\n2,y\n3,z\n")
    frame = load_csv(path)
    assert frame.n_rows == 3
    assert frame.column("a") == [1.0, 2.0, 3.0]
    assert frame.column("b") == ["x", "y", "z"]


def test_load_csv_empty_field_is_missing(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("a,b\n1,\n,y\n")
    frame = load_csv(path)
    assert frame.column("a") == [1.0, None]
    assert frame.column("b") == [None, "y"]


def test_load_csv_missing_file_mentions_path():
    with pytest.raises(FileMissingError, match="no/such/file.csv"):
        load_csv("no/such/file.csv")


def test_load_csv_ragged_row_reports_row_number(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(MalformedCsvError, match="row 3"):
        load_csv(path)


def test_load_csv_strips_bom_and_skips_blank_lines(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes("﻿Machine_ID,x\nM1,1\n\nM2,2\n".encode("utf-8"))
    frame = load_csv(path)
    assert frame.column_names == ["Machine_ID", "x"]
    assert frame.n_rows == 2


def test_load_csv_header_only_is_malformed(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("a,b\n")
    with pytest.raises(MalformedCsvError, match="no data rows"):
        load_csv(path)


def test_load_csv_quoted_fields(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_text('a,b\n"1,5",x\n2,"say ""hi"""\n')
    frame = load_csv(path)
    assert frame.column("a") == ["1,5", 2.0]
    assert frame.column("b") == ["x", 'say "hi"']


def test_maintenance_shape_roundtrip(tmp_path):
    write_csv(maintenance_frame(), tmp_path / "m.csv")
    frame = load_csv(tmp_path / "m.csv")
    assert frame.n_rows == 1430
    assert len(frame.column_names) == 10


def test_inspect_missing_stats():
    frame = make_frame({"x": [1.0, 2.0, None, 4.0]})
    metadata = inspect_frame(frame)
    profile = metadata.profile("x")
    assert profile.missing_count == 1
    assert profile.missing_pct == 0.25
    assert profile.mean == pytest.approx(7 / 3)


def test_inspect_constant_column():
    frame = make_frame({"m": ["M001"] * 6, "x": [1.0, 2, 3, 4, 5, 6]})
    metadata = inspect_frame(frame)
    assert metadata.profile("m").inferred_dtype == CONSTANT
    assert metadata.profile("m").unique_count == 1


def test_inspect_network_shape():
    frame = network_frame(n_rows=100_000, seed=13)
    metadata = inspect_frame(frame)
    assert metadata.n_rows == 100_000
    assert metadata.n_cols == 13


def test_inspect_rejects_empty_frame():
    with pytest.raises(EmptyFrameError):
        inspect_frame(make_frame({}))


def test_inspect_is_deterministic():
    frame = make_frame({
        "x": [1.0, None, 3.0, "oops"] + [float(i) for i in range(96)],
        "c": ["a", "b"] * 50,
    })
    assert inspect_frame(frame) == inspect_frame(frame)


def test_numeric_stats_match_two_pass_oracle(rng):
    values = rng.normal(10.0, 3.0, 500).tolist()
    cells = values[:250] + [None] * 10 + values[250:]
    frame = make_frame({"x": cells})
    profile = inspect_frame(frame).profile("x")
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    assert profile.mean == pytest.approx(mean, rel=1e-12)
    assert profile.std == pytest.approx(var ** 0.5, rel=1e-12)
    assert profile.missing_count + len(values) == frame.n_rows


def test_preview_is_verbatim():
    frame = make_frame({"a": [1.0, 2.0, 3.0], "b": ["x", None, "z"]})
    metadata = inspect_frame(frame)
    assert metadata.preview == [[1.0, "x"], [2.0, None], [3.0, None]] or \
        metadata.preview == [frame.row(i) for i in range(3)]
    assert metadata.preview[1] == [2.0, None]


def test_stray_token_in_numeric_column_degrades_to_missing():
    cells = [float(i) for i in range(99)] + ["bad"]
    frame = make_frame({"x": cells})
    profile = inspect_frame(frame).profile("x")
    assert profile.inferred_dtype == NUMERIC
    assert profile.parse_failure_count == 1
    assert profile.missing_count == 1
    issues = flag_quality_issues(inspect_frame(frame))
    assert [i.kind for i in issues] == ["parse_failures"]


def test_high_missingness_flagged():
    frame = make_frame({
        "x": [1.0, None, None, None, 2.0, 3.0, None, None, None, 4.0],
        "y": [float(i) for i in range(10)],
    })
    issues = flag_quality_issues(inspect_frame(frame))
    assert [i.kind for i in issues] == ["high_missingness"]
    assert issues[0].column == "x"


def test_clean_maintenance_data_has_no_issues():
    frame = maintenance_frame(n_rows=200)
    issues = flag_quality_issues(inspect_frame(frame))
    assert issues == []


def test_constant_column_flagged():
    frame = make_frame({"k": ["same"] * 10, "x": [float(i) for i in range(10)]})
    issues = flag_quality_issues(inspect_frame(frame))
    assert [i.kind for i in issues] == ["constant_column"]
    assert issues[0].column == "k"


def test_suspicious_cardinality_flagged():
    frame = make_frame({
        "c": [f"cat-{i}" for i in range(40)] + ["cat-0"],
        "x": [float(i) for i in range(41)],
    })
    issues = flag_quality_issues(inspect_frame(frame))
    assert [i.kind for i in issues] == ["suspicious_cardinality"]


def test_identifier_columns_exempt_from_cardinality_rule():
    frame = make_frame({
        "Machine_ID": [f"M{i:03d}" for i in range(30)],
        "x": [float(i) for i in range(30)],
    })
    issues = flag_quality_issues(inspect_frame(frame))
    assert issues == []


def test_duplicate_rows_flagged_and_sorted():
    frame = make_frame({
        "k": ["same"] * 4,
        "x": [1.0, 1.0, 1.0, 1.0],
    })
    issues = flag_quality_issues(inspect_frame(frame))
    assert [i.kind for i in issues] == [
        "constant_column", "constant_column", "duplicate_rows",
    ]


def test_memory_estimate_formula():
    frame = make_frame({
        "x": [1.0, 2.0, 3.0],
        "t": ["ab", "c", None],
    })
    metadata = inspect_frame(frame)
    assert metadata.estimated_memory_bytes == 8 * 3 * 1 + 3


date_texts = st.builds(
    datetime.strftime,
    st.datetimes(min_value=datetime(1990, 1, 1), max_value=datetime(2040, 12, 31)),
    st.sampled_from(_DATETIME_FORMATS),
)
any_cell = st.one_of(
    date_texts,
    st.text(max_size=12),
    st.floats(min_value=-1e6, max_value=1e6),
    st.none(),
)


@st.composite
def repetitive_columns(draw):
    """Columns drawn from a small pool of cells, so values repeat."""
    pool = draw(st.lists(any_cell, min_size=1, max_size=8))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))


@given(repetitive_columns())
def test_date_share_matches_a_per_cell_count(cells):
    profile = inspect_frame(make_frame({"c": cells})).profile("c")
    non_missing = [c for c in cells if c is not None]
    dates = sum(1 for c in non_missing if isinstance(c, str) and _parse_datetime(c))
    expected = dates / len(non_missing) if non_missing else 0.0
    assert profile.date_share == expected


look_alike_cell = st.sampled_from([0.0, -0.0, 1.0, "1.0", 2.5, "a", "None", None])


@given(st.lists(st.tuples(look_alike_cell, look_alike_cell, look_alike_cell),
                min_size=1, max_size=30))
def test_duplicate_rows_match_a_row_text_reference(rows):
    frame = make_frame({f"c{j}": [row[j] for row in rows] for j in range(3)})
    seen, duplicates = set(), 0
    for row in rows:
        key = tuple(str(v) for v in row)
        duplicates += key in seen
        seen.add(key)
    assert inspect_frame(frame).duplicate_row_count == duplicates
