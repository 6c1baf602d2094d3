"""Leakage-safe transform pipeline.

Every fitted statistic (medians, modes, scaler parameters, vocabularies,
target means, knn neighbor store) is computed from the training rows only;
apply_pipeline then transforms any row subset with those frozen statistics.
The target column never enters the feature matrix and identifier columns
are passed through on a separate channel. No importance sees a test row
either: the advisory forest (`analytics.advisory_importances`) is fitted on
the transformed training matrix and keyed by `feature_names`.

Conventions worth pinning down:
  - standard scaling stores (mean, population std); robust scaling stores
    (median, IQR = Q3 - Q1) with linear-interpolation quantiles
  - a zero-spread column keeps spread 1 and is flagged degenerate
  - a float category's key is its "%g" text when that parses back to the
    same float, else its repr, so distinct values keep distinct keys
  - one-hot vocabularies are the sorted training categories; unseen test
    categories produce an all-zero block
  - target encoding stores per-category training-target means plus the
    global training mean for unseen categories; a categorical target is
    first mapped to integer codes by sorted class order
  - knn imputation searches the 3 nearest training rows that have the value
    present, with Euclidean distance over standard-scaled numeric features,
    coordinates missing on either side excluded; numeric columns impute the
    neighbor mean, categorical columns the neighbor mode. A query row's
    distances to the training rows are computed once and shared by all of
    its missing knn columns; equal distances break toward the lower
    training position
  - the neighbor mean is `np.mean`'s bit for bit: below 8 neighbors the
    values are added left to right from +0.0 and divided by their count,
    which is the order numpy uses there; 8 or more (and none) go through
    `np.mean` itself
  - the distances are computed over a feature-major copy of the store, one
    contiguous row per coordinate, and the squared differences are summed
    in numpy's pairwise order for a row of m values, so each distance is
    bit-identical to a row-major `.sum(axis=-1)` over (n_train, m). A
    coordinate the query lacks is skipped rather than added as a row of
    +0.0: every term is a square, and adding +0.0 to one keeps its bits
  - each query row sorts one prefix of its distances: every training row at
    or below the PREFIX_ROWS-th smallest distance, ties included, in
    (distance, position) order. That is the head of the full order, so a
    missing knn column takes its first k rows with the value present from
    it. A column the prefix holds fewer than k such rows for, a prefix
    whose last distance is not finite, and a store of PREFIX_ROWS rows or
    fewer fall back to the full search over the column's candidates
  - a query row with a coordinate that no training row lacks shares it with
    every training row, so the per-row usability mask is not computed
  - a missing cell under imputation "none" still falls back to the fitted
    train median/mode so the matrix stays finite
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from ..errors import EmptyTrainSetError, MissingColumnError
from ..perception import DatasetFrame, float_cells
from .plan import (
    ENCODE_DROP, ENCODE_ONE_HOT, ENCODE_PASSTHROUGH, ENCODE_TARGET, IMPUTE_KNN,
    IMPUTE_NONE, SCALE_ROBUST, SCALE_STANDARD, PreprocessPlan,
)
from .schema import FEATURE_NUMERIC, SchemaMap

# Training rows each kNN query row sorts by distance, so that its missing
# columns pick their neighbours from one short sorted prefix. Any value
# gives the same imputed values; a column the prefix cannot serve falls back
# to the full search.
PREFIX_ROWS = 32
NO_PREFIX = np.empty(0, dtype=np.intp)


def _category_key(cell) -> str:
    """A float's `"%g"` text when that parses back to it, else its repr, so
    distinct floats never share a key (1234567.0 and 1234568.0 are both
    1.23457e+06 at "%g"); str of any other cell."""
    if isinstance(cell, float):
        short = "%g" % cell
        return short if float(short) == cell else repr(cell)
    return str(cell)


def _category_keys(cells, rows) -> list:
    """`_category_key` of the cells at rows, None where a cell is missing.

    A text cell is its own key, so only the other cells are formatted.
    """
    return [
        c if c is None or c.__class__ is str else _category_key(c)
        for c in map(cells.__getitem__, rows)
    ]


def most_frequent(values: list[str]) -> str:
    """Most frequent value; ties break to the lexicographically smallest,
    and an empty input gives ""."""
    counts: dict[str, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return min(counts, key=lambda v: (-counts[v], v)) if counts else ""


@dataclass
class ColumnFit:
    name: str
    numeric: bool
    imputation: str
    scaling: str
    encoding: str
    knn_neighbors: int = 0
    impute_value: object = None          # train median (numeric) or mode (categorical)
    center: float | None = None
    spread: float | None = None
    degenerate: bool = False
    vocabulary: list[str] | None = None
    target_means: dict[str, float] | None = None
    global_target_mean: float | None = None

    def fitted_json(self) -> dict:
        out: dict = {"impute_value": self.impute_value}
        if self.center is not None:
            out["center"] = self.center
            out["spread"] = self.spread
            out["degenerate"] = self.degenerate
        if self.vocabulary is not None:
            out["vocabulary"] = self.vocabulary
        if self.target_means is not None:
            out["target_means"] = self.target_means
            out["global_target_mean"] = self.global_target_mean
        return out


@dataclass
class FittedPipeline:
    column_fits: list[ColumnFit]
    identifier_columns: list[str]
    feature_names: list[str]
    target_name: str | None
    knn_numeric_columns: list[str] = field(default_factory=list)
    knn_scale_params: list[tuple[float, float]] = field(default_factory=list)
    knn_train_scaled: np.ndarray | None = None
    knn_raw: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def fitted_json(self) -> dict:
        return {fit.name: fit.fitted_json() for fit in self.column_fits}


def _numeric_cells(cells, rows):
    """A column's cells at rows as one float array, NaN where a cell is not
    a float (load_csv keeps inf/nan as text), and the mask of float cells."""
    values = float_cells(cells)[0][np.asarray(rows, dtype=np.intp)]
    return values, ~np.isnan(values)


def fit_pipeline(
    frame: DatasetFrame,
    plan: PreprocessPlan,
    schema: SchemaMap,
    train_row_indices,
) -> FittedPipeline:
    train = sorted(train_row_indices)
    if not train:
        raise EmptyTrainSetError("cannot fit a pipeline on zero training rows")
    if max(train) >= frame.n_rows or min(train) < 0:
        raise EmptyTrainSetError("train indices outside the frame")

    target = schema.chosen_target
    target_encoded = any(d.encoding == ENCODE_TARGET for d in plan.directives.values())
    target_codes = _target_codes(frame, target, train) if target and target_encoded else None

    fits: list[ColumnFit] = []
    feature_names: list[str] = []
    knn_needed = False

    for name in frame.column_names:
        directive = plan.directives.get(name)
        if directive is None or directive.encoding in (ENCODE_DROP,):
            continue
        if directive.encoding == ENCODE_PASSTHROUGH and schema.roles.get(name) not in (
            FEATURE_NUMERIC,
        ):
            continue        # identifiers travel on their own channel
        cells = frame.column(name)
        numeric = schema.roles.get(name) == FEATURE_NUMERIC
        fit = ColumnFit(
            name=name,
            numeric=numeric,
            imputation=directive.imputation,
            scaling=directive.scaling,
            encoding=directive.encoding,
            knn_neighbors=directive.knn_neighbors,
        )
        if directive.imputation == IMPUTE_KNN:
            knn_needed = True
        if numeric:
            values, present = _numeric_cells(cells, train)
            values = values[present]
            if values.size:
                fit.impute_value = float(np.median(values))
            else:
                fit.impute_value = 0.0
                fit.degenerate = True
            if directive.scaling == SCALE_STANDARD:
                fit.center = float(values.mean()) if values.size else 0.0
                fit.spread = float(values.std()) if values.size else 0.0
            elif directive.scaling == SCALE_ROBUST:
                if values.size:
                    q1, q3 = np.quantile(values, [0.25, 0.75])
                    fit.center = float(np.median(values))
                    fit.spread = float(q3 - q1)
                else:
                    fit.center, fit.spread = 0.0, 0.0
            if fit.center is not None and fit.spread == 0.0:
                fit.spread = 1.0
                fit.degenerate = True
            feature_names.append(name)
        else:
            keys = [k for k in _category_keys(cells, train) if k is not None]
            fit.impute_value = most_frequent(keys)
            if directive.encoding == ENCODE_ONE_HOT:
                fit.vocabulary = sorted(set(keys))
                feature_names.extend(f"{name}={cat}" for cat in fit.vocabulary)
            elif directive.encoding == ENCODE_TARGET:
                means: dict[str, list[float]] = {}
                total: list[float] = []
                for i in train:
                    if cells[i] is None or target_codes is None:
                        continue
                    code = target_codes.get(i)
                    if code is None:
                        continue
                    means.setdefault(_category_key(cells[i]), []).append(code)
                    total.append(code)
                fit.target_means = {
                    k: float(np.mean(v)) for k, v in sorted(means.items())
                }
                fit.global_target_mean = float(np.mean(total)) if total else 0.0
                feature_names.append(name)
        fits.append(fit)

    pipeline = FittedPipeline(
        column_fits=fits,
        identifier_columns=list(schema.identifier_columns()),
        feature_names=feature_names,
        target_name=target,
    )

    if knn_needed:
        _fit_knn_store(pipeline, frame, train)
    return pipeline


def _target_codes(frame, target, train) -> dict[int, float]:
    """Per-row numeric target values; categorical classes become their
    sorted-order integer codes."""
    cells = frame.column(target)
    numeric = all(isinstance(c, float) for c in cells if c is not None)
    if numeric:
        return {
            i: float(cells[i]) for i in train if isinstance(cells[i], float)
        }
    classes = sorted({
        _category_key(cells[i]) for i in train if cells[i] is not None
    })
    code = {c: float(k) for k, c in enumerate(classes)}
    return {
        i: code[_category_key(cells[i])] for i in train if cells[i] is not None
    }


def _fit_knn_store(pipeline, frame, train):
    numeric_cols = [fit.name for fit in pipeline.column_fits if fit.numeric]
    params = []
    scaled = np.full((len(train), len(numeric_cols)), np.nan)
    for j, name in enumerate(numeric_cols):
        values, mask = _numeric_cells(frame.column(name), train)
        mean = float(values[mask].mean()) if mask.any() else 0.0
        std = float(values[mask].std()) if mask.any() else 0.0
        if std == 0.0:
            std = 1.0
        params.append((mean, std))
        scaled[:, j] = (values - mean) / std
    pipeline.knn_numeric_columns = numeric_cols
    pipeline.knn_scale_params = params
    pipeline.knn_train_scaled = scaled

    for fit in pipeline.column_fits:
        if fit.imputation != IMPUTE_KNN:
            continue
        cells = frame.column(fit.name)
        if fit.numeric:
            raw, mask = _numeric_cells(cells, train)
        else:
            raw = np.array([
                _category_key(cells[i]) if cells[i] is not None else ""
                for i in train
            ], dtype=object)
            mask = np.array([cells[i] is not None for i in train])
        pipeline.knn_raw[fit.name] = (raw, mask)


def _scaled_query_coords(pipeline, numeric, n_rows):
    """Standard-scaled knn coordinates of the query rows, NaN where missing."""
    coords = np.empty((n_rows, len(pipeline.knn_numeric_columns)))
    for j, name in enumerate(pipeline.knn_numeric_columns):
        mean, std = pipeline.knn_scale_params[j]
        coords[:, j] = (numeric[name][0] - mean) / std
    return coords


def _nearest_value(fit, raw, candidates, d2, usable):
    """Impute one cell from the k usable candidate training rows (those with
    the value present) nearest by (d2, position)."""
    n_usable = np.count_nonzero(usable[candidates])
    if n_usable == 0:
        return fit.impute_value
    k = min(fit.knn_neighbors or 3, n_usable)
    dc = d2[candidates]
    kth = np.partition(dc, k - 1)[k - 1]
    below = np.flatnonzero(dc < kth)
    picks = np.concatenate((below, np.flatnonzero(dc == kth)[: k - below.size]))
    return _neighbour_value(fit, raw, candidates[picks[np.lexsort((picks, dc[picks]))]])


def _neighbour_value(fit, raw, chosen):
    """The mean (numeric) or mode (categorical) of the chosen rows' values,
    taken in the order given.

    The mean is `np.mean`'s bit for bit. Below 8 values numpy adds them left
    to right from +0.0, which a plain float loop repeats without numpy's
    per-call cost (the builtin `sum` compensates its float sums from Python
    3.12 on, so it is not used). 8 or more values keep `np.mean`'s pairwise
    order, and an empty choice keeps its NaN.
    """
    if fit.numeric:
        values = raw[chosen]
        if not 0 < values.size < 8:
            return float(np.mean(values))
        return reduce(operator.add, values.tolist(), 0.0) / values.size
    return most_frequent([str(v) for v in raw[chosen]])


def _sorted_prefix(d2):
    """Every training row whose d2 is at or below the PREFIX_ROWS-th smallest,
    ties included, in (d2, position) order: the head of the order
    `_nearest_value` picks from. Empty when the store holds PREFIX_ROWS rows
    or fewer, or when that distance is not finite."""
    if d2.size <= PREFIX_ROWS:
        return NO_PREFIX
    kth = np.partition(d2, PREFIX_ROWS - 1)[PREFIX_ROWS - 1]
    if not kth < np.inf:
        return NO_PREFIX
    near = (d2 <= kth).nonzero()[0]
    return near[d2[near].argsort(kind="stable")]


def _add(total, term):
    """total + term, in place in total; None stands for an absent term."""
    if total is None:
        return term
    if term is not None:
        total += term
    return total


def _pairwise_sum(terms):
    """Elementwise sum of the equal-length arrays in terms, added in the
    grouping numpy's pairwise summation gives a row of len(terms) values, so
    it equals `np.stack(terms, axis=-1).sum(axis=-1)` bit for bit, with a
    row of +0.0 standing for each absent (None) term.

    Below 8 terms the sum runs left to right. Up to 128 terms, eight
    accumulators take every eighth term of the first multiple of 8, combine
    as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and the tail is
    added left to right. Beyond 128 the terms split in two halves, the first
    a multiple of 8 long, whose sums are added.

    The terms must be +0.0 or greater, or NaN, as squares are: adding +0.0
    to such a value gives the same bits, so an absent term is skipped. The
    sum accumulates in place into the present terms, which the caller gives
    up; it is None when every term is absent.
    """
    m = len(terms)
    if m < 8:
        return reduce(_add, terms, None)
    if m <= 128:
        r = terms[:8]
        end = m - m % 8
        for i in range(8, end, 8):
            for j in range(8):
                r[j] = _add(r[j], terms[i + j])
        total = _add(_add(_add(r[0], r[1]), _add(r[2], r[3])),
                     _add(_add(r[4], r[5]), _add(r[6], r[7])))
        return reduce(_add, terms[end:], total)
    half = m // 2
    half -= half % 8
    return _add(_pairwise_sum(terms[:half]), _pairwise_sum(terms[half:]))


def _knn_impute(pipeline, frame, rows, numeric):
    """Impute the missing knn cells of rows: {column: per-row values}, set
    only where the cell is missing.

    The store is taken feature-major, one contiguous row of n_train values
    per coordinate, with 0 where a value is missing and a 0/1 float scale
    that zeroes such a coordinate's difference (a gap-free coordinate's
    scale is all 1, so it is not applied). Each query row's squared
    differences are computed only for the coordinates it has; a coordinate
    it lacks is an absent term. The m terms are summed in place by
    `_pairwise_sum`, in the order numpy sums each row of an (n_train, m)
    array: a different order rounds differently and can reorder near ties,
    so keeping numpy's makes every distance the one a row-major
    `.sum(axis=-1)` gives, the same over any subset of training rows. Rows
    that share no coordinate with the query are unusable, and a query with
    no coordinate has no usable row. The distances, and the sorted prefix
    of them (`_sorted_prefix`), are shared by the query row's missing knn
    columns; a column the prefix cannot serve falls back to
    `_nearest_value`. The per-row loop calls array methods (`.nonzero()[0]`,
    `.argsort`) instead of their `np.` wrappers, which cost microseconds a
    call.
    """
    fits = [fit for fit in pipeline.column_fits if fit.imputation == IMPUTE_KNN]
    if not fits:
        return {}
    missing = {
        fit.name: ~numeric[fit.name][1] if fit.numeric else np.array(
            [c is None for c in map(frame.column(fit.name).__getitem__, rows)], dtype=bool)
        for fit in fits
    }
    imputed = {
        fit.name: np.full(len(rows), np.nan) if fit.numeric else [None] * len(rows)
        for fit in fits
    }
    stores = {name: (raw, mask, np.flatnonzero(mask))
              for name, (raw, mask) in pipeline.knn_raw.items()}
    query = _scaled_query_coords(pipeline, numeric, len(rows))
    store = np.ascontiguousarray(pipeline.knn_train_scaled.T)
    present = ~np.isnan(store)
    gap_free = present.all(axis=1).tolist()   # coordinates no training row lacks
    zeroed = np.where(present, store, 0.0)
    scale = present.astype(float)       # a float multiply beats a bool one
    n_train = store.shape[1]
    everyone = np.ones(n_train, dtype=bool)
    lacking = np.array([missing[fit.name] for fit in fits]).T     # (rows, fits)
    for k in lacking.any(axis=1).nonzero()[0]:
        q = query[k]
        have = (~np.isnan(q)).nonzero()[0]
        terms = [None] * len(store)
        shared = False          # a coordinate that every training row has
        for j in have.tolist():
            diff = zeroed[j] - q[j]
            if gap_free[j]:
                shared = True
            else:
                diff *= scale[j]
            diff *= diff
            terms[j] = diff
        d2 = _pairwise_sum(terms) if len(have) else np.full(n_train, np.inf)
        if shared:
            usable = everyone
        else:
            usable = present[have].any(axis=0)      # shares a coordinate
            d2[~usable] = np.inf
        near = _sorted_prefix(d2)
        for fit, lacks in zip(fits, lacking[k].tolist()):
            if lacks:
                raw, mask, candidates = stores[fit.name]
                n_neighbours = fit.knn_neighbors or 3
                chosen = near[mask[near]][:n_neighbours]
                imputed[fit.name][k] = (
                    _neighbour_value(fit, raw, chosen) if chosen.size == n_neighbours
                    else _nearest_value(fit, raw, candidates, d2, usable))
    return imputed


def apply_pipeline(pipeline: FittedPipeline, frame: DatasetFrame, row_indices):
    """Transform rows with the frozen statistics.

    Returns (feature_matrix, identifiers, target_values) where identifiers
    maps each identifier column to its per-row verbatim values and
    target_values is None when the pipeline has no target.
    """
    rows = list(row_indices)
    missing_cols = [
        fit.name for fit in pipeline.column_fits
        if fit.name not in frame.column_names
    ]
    if missing_cols:
        raise MissingColumnError(
            "frame lacks fitted columns: " + ", ".join(missing_cols)
        )

    numeric = {
        fit.name: _numeric_cells(frame.column(fit.name), rows)
        for fit in pipeline.column_fits if fit.numeric
    }
    imputed = _knn_impute(pipeline, frame, rows, numeric)

    blocks: list[np.ndarray] = []
    for fit in pipeline.column_fits:
        cells = frame.column(fit.name)
        knn_values = imputed.get(fit.name)
        if fit.numeric:
            fill = fit.impute_value if knn_values is None else knn_values
            column = np.where(numeric[fit.name][1], numeric[fit.name][0], fill)
            if fit.center is not None:
                column = (column - fit.center) / fit.spread
            blocks.append(column[:, None])
        elif fit.encoding == ENCODE_ONE_HOT:
            block = np.zeros((len(rows), len(fit.vocabulary)))
            index = {cat: j for j, cat in enumerate(fit.vocabulary)}
            hot = np.array([index.get(key, -1) for key in
                            _imputed_keys(fit, cells, rows, knn_values)], dtype=np.intp)
            at = np.flatnonzero(hot >= 0)
            block[at, hot[at]] = 1.0
            blocks.append(block)
        elif fit.encoding == ENCODE_TARGET:
            means, fallback = fit.target_means, fit.global_target_mean
            column = np.array([
                means.get(key, fallback)
                for key in _imputed_keys(fit, cells, rows, knn_values)
            ], dtype=float)
            blocks.append(column[:, None])

    if blocks:
        matrix = np.hstack(blocks)
    else:
        matrix = np.zeros((len(rows), 0))

    identifiers = {}
    for name in pipeline.identifier_columns:
        if name in frame.column_names:
            identifiers[name] = [
                "" if key is None else key
                for key in _category_keys(frame.column(name), rows)
            ]

    target_values = None
    if pipeline.target_name and pipeline.target_name in frame.column_names:
        cells = frame.column(pipeline.target_name)
        target_values = [cells[i] for i in rows]

    return matrix, identifiers, target_values


def _imputed_keys(fit, cells, rows, knn_keys):
    """Category keys of the cells at rows, each missing cell replaced by
    its imputed key."""
    keys = _category_keys(cells, rows)
    if fit.imputation == IMPUTE_KNN:
        return [knn_keys[k] if key is None else key for k, key in enumerate(keys)]
    if fit.imputation == IMPUTE_NONE and fit.encoding == ENCODE_TARGET:
        fill = None          # falls back to the global training mean
    elif fit.imputation == IMPUTE_NONE and fit.encoding == ENCODE_ONE_HOT:
        fill = "\x00unseen"  # all-zero block
    else:
        fill = fit.impute_value
    return [fill if key is None else key for key in keys]
