"""Dataset loading, profiling, and data-quality reporting.

A DatasetFrame stores cells as parsed at load time: floats for
numeric-looking fields, None for empty fields, str for everything else.
Column dtype is decided later by inspect_frame so stray tokens in an
otherwise numeric column degrade to missing values instead of flipping the
whole column to text.

load_csv streams the rows and parses each distinct field text once per
column: a repeated text appends the value object parsed at its first
appearance. The text-to-value tables live only for the call; nothing but
the cells is kept on the frame.

Each column is typed by one scan of its cells' types and summarised from
one array (floats and None) or one Counter (text and None); only a column
that mixes the two, or holds a float NaN, goes cell by cell.

Each profile also carries the column's date share: the fraction of its
non-missing cells that parse as dates. The date parser runs once per
distinct text value, and its verdict is weighted by that value's count;
text whose first character cannot start a date is rejected without a
parse. Schema discovery reads the share from the profile rather than
scanning the cells again.
"""

from __future__ import annotations

import csv
import math
import re
from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from operator import mul

import numpy as np

from .errors import EmptyFrameError, FileMissingError, MalformedCsvError

NUMERIC = "numeric"
CATEGORICAL = "categorical"
DATETIME = "datetime"
CONSTANT = "constant"

_DATETIME_FORMATS = (
    "%Y-%m-%d", "%Y/%m/%d", "%d/%m/%Y", "%m/%d/%Y",
    "%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M:%S",
)
_NONE = type(None)
_FLOAT_OR_NONE = frozenset((float, _NONE))
_TEXT_OR_NONE = frozenset((str, _NONE))
_NO_NUMBERS = np.empty(0)
_UNSEEN = object()

# shares of a column's non-missing cells that make it numeric or datetime
NUMERIC_PARSE_SHARE = 0.95
DATETIME_PARSE_SHARE = 0.95
HIGH_MISSINGNESS = 0.5              # strictly above: high_missingness issue
SUSPICIOUS_CARDINALITY = 0.95       # uniqueness strictly above: suspicious
# regexes matched against the normalized column name (see normalized_name)
IDENTIFIER_PATTERNS = (r"^id$", r"_id$", r"^machine", r"^serial", r"^asset")


@dataclass
class DatasetFrame:
    column_names: list[str]
    columns: list[list]          # columns[i] aligns with column_names[i]
    n_rows: int

    def column(self, name: str) -> list:
        return self.columns[self.column_names.index(name)]

    def row(self, index: int) -> list:
        return [col[index] for col in self.columns]


@dataclass
class ColumnProfile:
    name: str
    inferred_dtype: str
    missing_count: int
    missing_pct: float
    unique_count: int
    uniqueness_ratio: float
    mean: float | None = None
    std: float | None = None
    min: float | None = None
    max: float | None = None
    parse_failure_count: int = 0
    integer_valued: bool = False
    date_share: float = 0.0      # date-parsing cells / non-missing cells


@dataclass
class DatasetMetadata:
    n_rows: int
    n_cols: int
    profiles: list[ColumnProfile]
    estimated_memory_bytes: int
    duplicate_row_count: int = 0

    def profile(self, name: str) -> ColumnProfile:
        for p in self.profiles:
            if p.name == name:
                return p
        raise KeyError(name)


@dataclass(frozen=True)
class QualityIssue:
    kind: str                    # see flag_quality_issues
    detail: str
    column: str | None = None

    def to_json(self) -> dict:
        return {"kind": self.kind, "column": self.column, "detail": self.detail}


def _parse_cell(raw: str):
    text = raw.strip()
    if text == "":
        return None
    try:
        value = float(text)
    except ValueError:
        return text
    # inf/nan tokens would poison downstream stats; keep them as text
    if not math.isfinite(value):
        return text
    return value


def load_csv(path) -> DatasetFrame:
    """Read a comma-separated file into a column-major DatasetFrame.

    The first row must be the header. Empty fields become missing (None),
    numeric-looking fields become floats, everything else stays text.

    Rows stream in one at a time. Each column keeps, for the call only, a
    table from raw field text to its parsed value: each distinct text is
    parsed once, and every repeat appends that same value object. The
    table is keyed on the raw text, so "-0.0" and "0.0", or "1" and "1.0",
    stay apart as they would when parsed cell by cell.

    Text that is not UTF-8, and a field longer than `csv.field_size_limit()`,
    end as MalformedCsvError like any other unreadable file.
    """
    try:
        # utf-8-sig strips a leading BOM, which would otherwise corrupt the
        # first column name and break schema pattern matching
        handle = open(path, "r", encoding="utf-8-sig", newline="")
    except FileNotFoundError:
        raise FileMissingError(f"dataset file not found: {path}") from None
    except OSError as exc:
        raise FileMissingError(f"dataset file unreadable: {path} ({exc})") from None

    with handle:
        reader = csv.reader(handle)
        try:
            names = next(reader, None)
            if names is None:
                raise MalformedCsvError(f"{path}: file is empty")
            names = [n.strip() for n in names]
            if len(set(names)) != len(names):
                raise MalformedCsvError(f"{path}: duplicate column names after trimming")
            n_cols = len(names)
            columns: list[list] = [[] for _ in range(n_cols)]
            parsed: list[dict] = [{} for _ in range(n_cols)]
            # line_num counts physical lines read so far, so a record starts
            # on the line after the previous record ended, even when a quoted
            # field spans lines
            last_line = reader.line_num
            for row in reader:
                line_no, last_line = last_line + 1, reader.line_num
                if not row:
                    continue        # blank line, common in hand-edited files
                if len(row) != n_cols:
                    raise MalformedCsvError(
                        f"{path}: row {line_no} has {len(row)} fields, expected {n_cols}"
                    )
                for raw, cells, seen in zip(row, columns, parsed):
                    # a blank field parses to None, so "not seen" needs its own marker
                    value = seen.get(raw, _UNSEEN)
                    if value is _UNSEEN:
                        value = seen[raw] = _parse_cell(raw)
                    cells.append(value)
        except UnicodeDecodeError as exc:
            # the decoder reads ahead in blocks, so the bad byte lies past this line
            raise MalformedCsvError(
                f"{path}: not UTF-8 text past line {reader.line_num}: {exc}") from None
        except csv.Error as exc:
            raise MalformedCsvError(f"{path}: line {reader.line_num}: {exc}") from None
    n_rows = len(columns[0]) if columns else 0
    if n_rows == 0:
        raise MalformedCsvError(f"{path}: no data rows after the header")
    return DatasetFrame(column_names=names, columns=columns, n_rows=n_rows)


def _parses_as_date(text: str) -> bool:
    for fmt in _DATETIME_FORMATS:
        try:
            datetime.strptime(text, fmt)
            return True
        except ValueError:
            continue
    try:
        datetime.fromisoformat(text)
        return True
    except ValueError:
        return False


def _parse_datetime(text: str) -> bool:
    """Whether text parses under one of the date formats or fromisoformat.

    Every strptime format starts with %Y, %d or %m, whose patterns need a
    decimal digit (any Unicode Nd digit, as `str.isdecimal`) or, for %d, a
    leading space, and fromisoformat needs an ASCII digit. Text that starts
    with anything else, such as the identifier "M0001", is rejected without
    a failing parse.
    """
    head = text[:1]
    return (head.isdecimal() or head == " ") and _parses_as_date(text)


def float_cells(cells: list, kinds: set | None = None) -> tuple[np.ndarray, bool]:
    """A column's cells as one float64 array, NaN where a cell is missing or
    text, and whether every non-missing cell is a float.

    A column of floats and None converts in one np.array call (None becomes
    NaN); any other column goes cell by cell. `kinds`, the set of the cells'
    types, saves the type scan when the caller has already made it.
    """
    kinds = set(map(type, cells)) if kinds is None else kinds
    if kinds <= _FLOAT_OR_NONE:
        return np.array(cells, dtype=float), True
    values = np.array([c if isinstance(c, float) else np.nan for c in cells], dtype=float)
    return values, all(issubclass(k, float) for k in kinds - {_NONE})


@dataclass
class _ColumnScan:
    """What the profile and the duplicate-row count need from one column."""
    n_non_missing: int
    numbers: np.ndarray          # the float cells, in row order
    text_counts: dict            # text cell -> number of cells
    unique_count: int            # distinct str forms of the non-missing cells
    codes: np.ndarray            # per row, a code of str(cell)


def _scan_column(cells: list) -> _ColumnScan:
    """Type a column by one scan of its cells and summarise it.

    A column of floats and None is read as one float array: distinct bit
    patterns are distinct `str` forms (0.0 and -0.0 apart), and every None
    converts to the same NaN. A column of text and None is counted with one
    Counter; None shares the code of the text "None", as `str` would have
    it. Anything else, such as a float NaN or floats mixed with text, goes
    cell by cell through the `str` forms.
    """
    kinds = set(map(type, cells))
    if kinds <= _FLOAT_OR_NONE:
        values, _ = float_cells(cells, kinds)
        present = ~np.isnan(values)
        n_present = int(np.count_nonzero(present))
        n_none = cells.count(None) if _NONE in kinds else 0
        if n_present + n_none == len(cells):         # no float NaN
            distinct, codes = np.unique(values.view(np.uint64), return_inverse=True)
            return _ColumnScan(
                n_present, values[present] if n_none else values, {},
                distinct.size - (n_none > 0), codes,
            )
    elif kinds <= _TEXT_OR_NONE:
        counts = Counter(cells)
        code_of = dict(zip(counts, range(len(counts))))
        n_none = counts.pop(None, 0)
        if n_none and "None" in counts:
            code_of[None] = code_of["None"]
        codes = np.fromiter(map(code_of.__getitem__, cells), np.intp, len(cells))
        return _ColumnScan(len(cells) - n_none, _NO_NUMBERS, counts, len(counts), codes)

    non_missing = [c for c in cells if c is not None]
    code_of: dict[str, int] = {}
    codes = np.array([code_of.setdefault(str(c), len(code_of)) for c in cells], dtype=np.intp)
    return _ColumnScan(
        len(non_missing),
        np.array([c for c in non_missing if isinstance(c, float)], dtype=float),
        Counter(c for c in non_missing if isinstance(c, str)),
        len({str(c) for c in non_missing}),
        codes,
    )


def _profile_column(name: str, scan: _ColumnScan, n_rows: int) -> ColumnProfile:
    non_missing = scan.n_non_missing
    numbers = scan.numbers
    n_texts = sum(scan.text_counts.values())
    missing_count = n_rows - non_missing
    parse_failures = 0
    date_cells = sum(
        count for text, count in scan.text_counts.items() if _parse_datetime(text)
    )
    date_share = date_cells / non_missing if non_missing else 0.0

    unique_count = scan.unique_count
    if unique_count <= 1:
        dtype = CONSTANT
    elif non_missing and numbers.size / non_missing >= NUMERIC_PARSE_SHARE:
        dtype = NUMERIC
        # stray text in a numeric column degrades to missing
        parse_failures = n_texts
        missing_count += parse_failures
    elif n_texts and date_share >= DATETIME_PARSE_SHARE:
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
    if numbers.size and dtype in (NUMERIC, CONSTANT):
        profile.mean = float(numbers.mean())
        profile.std = float(numbers.std())        # population denominator
        profile.min = float(numbers.min())
        profile.max = float(numbers.max())
        profile.integer_valued = bool(np.all(numbers == np.floor(numbers)))
    return profile


def inspect_frame(frame: DatasetFrame) -> DatasetMetadata:
    """Compute per-column profiles and summary statistics."""
    if frame.n_rows < 1 or not frame.column_names:
        raise EmptyFrameError("frame must have at least one row and one column")

    scans = [_scan_column(cells) for cells in frame.columns]
    profiles = [
        _profile_column(name, scan, frame.n_rows)
        for name, scan in zip(frame.column_names, scans)
    ]

    numeric_cols = sum(1 for p in profiles if p.inferred_dtype in (NUMERIC,))
    text_bytes = sum(
        sum(map(mul, map(len, map(str.encode, scan.text_counts)), scan.text_counts.values()))
        for scan in scans
    )
    memory = 8 * frame.n_rows * numeric_cols + text_bytes

    # rows compare by the text of each cell: one row of per-column codes,
    # viewed as one opaque value, stands for the row
    codes = np.column_stack([scan.codes for scan in scans])
    rows = codes.view(np.dtype((np.void, codes.itemsize * codes.shape[1])))
    duplicates = frame.n_rows - np.unique(rows).size

    return DatasetMetadata(
        n_rows=frame.n_rows,
        n_cols=len(frame.column_names),
        profiles=profiles,
        estimated_memory_bytes=memory,
        duplicate_row_count=duplicates,
    )


def normalized_name(name: str) -> str:
    return name.strip().lower().replace(" ", "_")


def identifier_pattern(name: str) -> str | None:
    """The first identifier pattern the normalized column name matches."""
    normalized = normalized_name(name)
    for pattern in IDENTIFIER_PATTERNS:
        if re.search(pattern, normalized):
            return pattern
    return None


def flag_quality_issues(metadata: DatasetMetadata) -> list[QualityIssue]:
    """Deterministic rule table over the metadata, sorted by (kind, column).

    Identifier-named columns are exempt from the cardinality rule: a unique
    key is healthy, the rule targets miscast categoricals.
    """
    issues: list[QualityIssue] = []
    for p in metadata.profiles:
        if p.missing_pct > HIGH_MISSINGNESS:
            issues.append(QualityIssue(
                "high_missingness",
                f"{p.missing_pct:.0%} of values missing",
                column=p.name,
            ))
        if p.inferred_dtype == CONSTANT:
            issues.append(QualityIssue(
                "constant_column", "column holds a single value", column=p.name,
            ))
        if (
            p.inferred_dtype == CATEGORICAL
            and p.uniqueness_ratio > SUSPICIOUS_CARDINALITY
            and identifier_pattern(p.name) is None
        ):
            issues.append(QualityIssue(
                "suspicious_cardinality",
                f"{p.unique_count} distinct values over "
                f"{metadata.n_rows - p.missing_count} rows",
                column=p.name,
            ))
        if p.parse_failure_count:
            issues.append(QualityIssue(
                "parse_failures",
                f"{p.parse_failure_count} cells failed numeric parsing",
                column=p.name,
            ))
    if metadata.duplicate_row_count:
        issues.append(QualityIssue(
            "duplicate_rows", f"{metadata.duplicate_row_count} duplicate rows",
        ))
    issues.sort(key=lambda i: (i.kind, i.column or ""))
    return issues
