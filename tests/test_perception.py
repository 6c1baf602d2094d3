import csv
import struct
from collections import Counter
from datetime import datetime
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rxmflow import perception
from rxmflow.errors import EmptyFrameError, FileMissingError, MalformedCsvError
from rxmflow.perception import (
    _DATETIME_FORMATS, CATEGORICAL, CONSTANT, DATETIME, DATETIME_PARSE_SHARE, NUMERIC,
    ColumnProfile,
    _parse_cell, _parse_datetime, _parses_as_date, flag_quality_issues,
    float_cells, inspect_frame, load_csv,
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


def _is_text_cell(text):
    """A text cell survives load_csv as itself: trimmed, not empty, and not a
    finite number (inf and nan tokens stay text)."""
    if not text or text != text.strip():
        return False
    try:
        return not np.isfinite(float(text))
    except ValueError:
        return True


csv_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    min_size=1, max_size=12,
).filter(_is_text_cell)
csv_cell = st.none() | st.floats(allow_nan=False, allow_infinity=False) | csv_text


@st.composite
def csv_frames(draw):
    names = draw(st.lists(
        st.text("abcdefgh_ 12", min_size=1, max_size=6).map(str.strip).filter(bool),
        min_size=1, max_size=4, unique=True,
    ))
    n_rows = draw(st.integers(1, 6))
    columns = [draw(st.lists(csv_cell, min_size=n_rows, max_size=n_rows)) for _ in names]
    return make_frame(dict(zip(names, columns)))


@given(frame=csv_frames())
def test_write_csv_then_load_csv_round_trips(tmp_path_factory, frame):
    path = tmp_path_factory.mktemp("roundtrip") / "frame.csv"
    write_csv(frame, path)
    loaded = load_csv(path)
    assert loaded.column_names == frame.column_names
    assert loaded.n_rows == frame.n_rows
    # repr tells -0.0 from 0.0 and 1.0 from "1.0"
    assert [list(map(repr, c)) for c in loaded.columns] == \
        [list(map(repr, c)) for c in frame.columns]


def test_load_csv_missing_file_mentions_path():
    with pytest.raises(FileMissingError, match="no/such/file.csv"):
        load_csv("no/such/file.csv")


def test_load_csv_ragged_row_reports_row_number(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(MalformedCsvError, match="row 3"):
        load_csv(path)


@pytest.mark.parametrize("text, line", [
    ('a,b\n"x\ny",1\n3\n', 4),      # a multi-line field in an earlier row
    ('a,b\n1,2\n"x\ny"\n', 3),      # the short row spans lines 3 and 4
])
def test_load_csv_ragged_row_names_the_line_its_record_starts_on(tmp_path, text, line):
    path = tmp_path / "ragged.csv"
    path.write_text(text)
    with pytest.raises(MalformedCsvError, match=f"row {line} has 1 fields"):
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


def test_load_csv_undecodable_byte_is_malformed(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"a,b\n1,x\n2,caf\xff\n")
    with pytest.raises(MalformedCsvError, match="latin.csv: not UTF-8 text past line 0"):
        load_csv(path)


def test_load_csv_oversized_field_is_malformed(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("a,b\n1,x\n2," + "y" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(MalformedCsvError, match="huge.csv: line 3: field larger than"):
        load_csv(path)


# field texts whose parsed values are easy to merge by mistake: equal floats
# with different texts or signs, padded copies, non-finite tokens kept as
# text, and a quoted comma
TRICKY_FIELDS = ("", " ", "0", "0.0", "-0.0", " -0.0 ", "1", "1.0", "1.50", "1.5", "1_0",
                 "1e400", "nan", " inf", "a", " a ", "None", "1,5")


def _cell_key(cell):
    """A cell's type and content, with floats by bit pattern (-0.0 apart from 0.0)."""
    return type(cell), struct.pack("<d", cell) if isinstance(cell, float) else cell


@given(st.integers(1, 4).flatmap(lambda n_cols: st.lists(
    st.lists(st.sampled_from(TRICKY_FIELDS), min_size=n_cols, max_size=n_cols),
    min_size=1, max_size=40)))
def test_load_csv_shares_one_value_per_distinct_field_text(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("tricky") / "tricky.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"c{j}" for j in range(len(rows[0]))])
        writer.writerows(rows)
    frame = load_csv(path)
    assert frame.n_rows == len(rows)
    for j, cells in enumerate(frame.columns):
        raws = [row[j] for row in rows]
        assert list(map(_cell_key, cells)) == [_cell_key(_parse_cell(raw)) for raw in raws]
        first = {}
        for raw, cell in zip(raws, cells):
            assert first.setdefault(raw, cell) is cell


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
# columns of floats and None, and of text and None, take the array and the
# Counter paths; mixed columns go cell by cell
float_alike_cell = st.sampled_from([0.0, -0.0, 1.0, 2.5, None])
text_alike_cell = st.sampled_from(["1.0", "-0.0", "a", "None", None])


@given(st.lists(st.tuples(look_alike_cell, look_alike_cell, look_alike_cell,
                          float_alike_cell, text_alike_cell),
                min_size=1, max_size=30))
@example([(0.0, 0.0, 0.0, -0.0, "None"), (0.0, 0.0, 0.0, 0.0, None)])
@example([(0.0, 0.0, 0.0, None, "None"), (0.0, 0.0, 0.0, None, None)])
def test_duplicate_rows_match_a_row_text_reference(rows):
    frame = make_frame({f"c{j}": [row[j] for row in rows] for j in range(5)})
    seen, duplicates = set(), 0
    for row in rows:
        key = tuple(str(v) for v in row)
        duplicates += key in seen
        seen.add(key)
    assert inspect_frame(frame).duplicate_row_count == duplicates


def reference_profile(name, cells, n_rows, numeric_share):
    """The per-cell profile that the one-pass scan must reproduce."""
    non_missing = [c for c in cells if c is not None]
    numbers = [c for c in non_missing if isinstance(c, float)]
    texts = [c for c in non_missing if isinstance(c, str)]
    missing_count = n_rows - len(non_missing)
    parse_failures = 0
    date_cells = sum(
        count for text, count in Counter(texts).items() if _parses_as_date(text)
    )
    date_share = date_cells / len(non_missing) if non_missing else 0.0

    unique_count = len({str(c) for c in non_missing})
    if unique_count <= 1:
        dtype = CONSTANT
    elif non_missing and len(numbers) / len(non_missing) >= numeric_share:
        dtype = NUMERIC
        parse_failures = len(texts)
        missing_count += parse_failures
    elif texts and date_share >= DATETIME_PARSE_SHARE:
        dtype = DATETIME
    else:
        dtype = CATEGORICAL

    effective_non_missing = n_rows - missing_count
    profile = ColumnProfile(
        name=name,
        inferred_dtype=dtype,
        missing_count=missing_count,
        missing_pct=missing_count / n_rows,
        unique_count=unique_count,
        uniqueness_ratio=(unique_count / effective_non_missing) if effective_non_missing else 0.0,
        parse_failure_count=parse_failures,
        date_share=date_share,
    )
    if numbers and dtype in (NUMERIC, CONSTANT):
        arr = np.asarray(numbers, dtype=float)
        profile.mean = float(arr.mean())
        profile.std = float(arr.std())
        profile.min = float(arr.min())
        profile.max = float(arr.max())
        profile.integer_valued = bool(np.all(arr == np.floor(arr)))
    return profile


# Text a date could start with, under every way the formats and
# fromisoformat allow: leading spaces, non-ASCII decimal digits, ISO weeks
# and basic (separator-free) ISO dates.
date_like_text = st.one_of(
    date_texts,
    date_texts.map(lambda t: " " + t),
    date_texts.map(lambda t: t.lstrip("0")),
    date_texts.map(lambda t: t.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))),
    date_texts.map(lambda t: t.translate(str.maketrans("0123456789", "０１２３４５６７８９"))),
    st.datetimes(min_value=datetime(1990, 1, 1)).map(datetime.isoformat),
    st.dates(min_value=datetime(1990, 1, 1).date()).map(lambda d: d.strftime("%Y%m%d")),
    st.dates(min_value=datetime(1990, 1, 1).date()).map(lambda d: d.strftime("%G-W%V-%u")),
    st.text(max_size=12),
    st.text(alphabet="0123456789 -/:TW", max_size=20),
)


@given(date_like_text)
@example("٢٠٢٤-٠١-٠١")
@example(" 5/03/2024")
@example("2024-W01-1")
@example("20240101")
@example("")
def test_date_check_never_rejects_a_parsing_text(text):
    assert _parse_datetime(text) == _parses_as_date(text)


float_pool_cell = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6), st.sampled_from([0.0, -0.0, 1.0]),
    st.integers(-5, 5).map(float), st.none(),
)
text_pool_cell = st.one_of(
    date_texts, st.text(max_size=8), st.sampled_from(["None", "1.0", "-0.0", "M0001"]),
    st.none(),
)
mixed_pool_cell = st.one_of(float_pool_cell, text_pool_cell, st.just(float("nan")))


@st.composite
def profiled_columns(draw):
    """A column of floats and None, of text and None, or of anything, drawn
    from a small pool so that values repeat."""
    cell = draw(st.sampled_from([float_pool_cell, text_pool_cell, mixed_pool_cell]))
    pool = draw(st.lists(cell, min_size=1, max_size=8))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))


@given(profiled_columns(), st.sampled_from([0.95, 0.5]))
@example([0.0, -0.0, None], 0.95)
@example(["None", None, "x"], 0.95)
@example([float("nan"), 1.0, None], 0.95)
@example([float("nan"), float("nan")], 0.95)
@example([1.0] * 19 + ["a"], 0.95)
@example([None, None], 0.95)
def test_one_pass_profile_equals_the_per_cell_reference(cells, threshold):
    with mock.patch.object(perception, "NUMERIC_PARSE_SHARE", threshold):
        profile = inspect_frame(make_frame({"c": cells})).profile("c")
    # repr, so that a NaN mean compares equal to a NaN mean
    assert repr(profile) == repr(reference_profile("c", cells, len(cells), threshold))


@given(st.lists(mixed_pool_cell, max_size=30))
def test_float_cells_match_a_per_cell_read(cells):
    values, all_float = float_cells(cells)
    expected = np.array([c if isinstance(c, float) else np.nan for c in cells], dtype=float)
    assert values.tobytes() == expected.tobytes()
    assert all_float == all(isinstance(c, float) for c in cells if c is not None)
