"""Fit/apply pipeline tests, centered on the leakage invariant: every
fitted statistic must equal a brute-force recomputation over train rows
only."""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxmflow.errors import EmptyTrainSetError, MissingColumnError
from rxmflow.perception import inspect_frame
from rxmflow.preprocess import (
    analyze_features, apply_pipeline, decide_tools, discover_schema,
    fit_pipeline,
)
from rxmflow.preprocess import pipeline as pipeline_module
from rxmflow.preprocess.pipeline import most_frequent
from rxmflow.preprocess.plan import ColumnDirective, PreprocessPlan
from rxmflow.preprocess.schema import SchemaMap
from rxmflow.synth import failure_frame

from conftest import make_frame


def simple_setup(columns, target_hint=None):
    frame = make_frame(columns)
    metadata = inspect_frame(frame)
    schema = discover_schema(frame, metadata, target_hint)
    plan = decide_tools(metadata, schema)
    return frame, metadata, schema, plan


def test_standard_scaling_stores_population_std():
    frame, _, schema, plan = simple_setup({
        "x": [1.0, 2.0, 3.0, 10.0, 2.0],
    })
    pipeline = fit_pipeline(frame, plan, schema, [0, 1, 2])
    fit = pipeline.column_fits[0]
    assert fit.center == pytest.approx(2.0)
    assert fit.spread == pytest.approx((2.0 / 3.0) ** 0.5)


def test_one_hot_vocabulary_is_sorted_training_set():
    frame, _, schema, plan = simple_setup({
        "c": ["b", "a", "b", "z", "q"],
        "x": [1.0, 2.0, 3.5, 4.0, 5.0],
    })
    pipeline = fit_pipeline(frame, plan, schema, [0, 1, 2])
    fit = next(f for f in pipeline.column_fits if f.name == "c")
    assert fit.vocabulary == ["a", "b"]
    matrix, _, _ = apply_pipeline(pipeline, frame, [0, 1, 2])
    onehot_cols = [i for i, n in enumerate(pipeline.feature_names) if n.startswith("c=")]
    assert len(onehot_cols) == 2


def test_unseen_one_hot_category_encodes_to_zeros():
    frame, _, schema, plan = simple_setup({
        "c": ["b", "a", "b", "z", "q"],
        "x": [1.0, 2.0, 3.5, 4.0, 5.0],
    })
    pipeline = fit_pipeline(frame, plan, schema, [0, 1, 2])
    matrix, _, _ = apply_pipeline(pipeline, frame, [3, 4])
    onehot = matrix[:, [i for i, n in enumerate(pipeline.feature_names)
                        if n.startswith("c=")]]
    assert np.all(onehot == 0.0)


def test_target_encoding_stores_category_means():
    frame = make_frame({
        "c": ["X", "X", "Y", "Y", "X"] + [f"u{i}" for i in range(55)],
        "score_target": [1.0, 3.0, 10.0, 20.0, 2.0] + [float(i) for i in range(55)],
    })
    metadata = inspect_frame(frame)
    schema = SchemaMap(
        roles={"c": "feature_categorical", "score_target": "target_candidate"},
        chosen_target="score_target",
    )
    plan = decide_tools(metadata, schema)
    assert plan.directives["c"].encoding == "target_encoding"
    pipeline = fit_pipeline(frame, plan, schema, [0, 1, 2, 3])
    fit = pipeline.column_fits[0]
    assert fit.target_means == {"X": 2.0, "Y": 15.0}
    assert fit.global_target_mean == pytest.approx(8.5)
    matrix, _, _ = apply_pipeline(pipeline, frame, [0, 2, 10])
    assert matrix[0, 0] == 2.0        # X
    assert matrix[1, 0] == 15.0       # Y
    assert matrix[2, 0] == 8.5        # unseen category: global train mean


def test_target_codes_only_for_a_target_encoded_column(monkeypatch):
    frame = failure_frame(n_rows=200, seed=3)
    metadata = inspect_frame(frame)
    schema = discover_schema(frame, metadata)
    plan = decide_tools(metadata, schema)
    assert schema.chosen_target is not None
    assert all(d.encoding != "target_encoding" for d in plan.directives.values())

    def no_codes(*args):
        raise AssertionError("target codes built")
    monkeypatch.setattr(pipeline_module, "_target_codes", no_codes)
    fitted = fit_pipeline(frame, plan, schema, list(range(150)))
    assert fitted.target_name == schema.chosen_target


def test_impute_then_scale_by_hand():
    # train median 2.0, standard params mean 2.0 / std 1.0 on values 1,2,3
    frame = make_frame({"x": [1.0, 2.0, 3.0, None], "pad": [0.0, 1.0, 2.0, 3.0]})
    metadata = inspect_frame(frame)
    schema = SchemaMap(roles={"x": "feature_numeric", "pad": "feature_numeric"})
    plan = PreprocessPlan(directives={
        "x": ColumnDirective("median", "standard", "passthrough", "test"),
        "pad": ColumnDirective("none", "none", "passthrough", "test"),
    })
    pipeline = fit_pipeline(frame, plan, schema, [0, 1, 2])
    fit = pipeline.column_fits[0]
    fit.center, fit.spread = 2.0, 1.0        # pin the worked example
    matrix, _, _ = apply_pipeline(pipeline, frame, [3])
    assert matrix[0, 0] == 0.0


def test_identifier_passthrough_verbatim():
    frame, _, schema, plan = simple_setup({
        "Machine_ID": ["M004", "M007", "M003"],
        "x": [1.0, 2.5, 3.0],
    })
    pipeline = fit_pipeline(frame, plan, schema, [0, 1, 2])
    _, identifiers, _ = apply_pipeline(pipeline, frame, [0, 1, 2])
    assert identifiers["Machine_ID"] == ["M004", "M007", "M003"]
    assert "Machine_ID" not in pipeline.feature_names


def test_target_never_in_matrix():
    frame, _, schema, plan = simple_setup({
        "x": [i + 0.5 for i in range(20)],
        "priority": ["High", "Low"] * 10,
    })
    pipeline = fit_pipeline(frame, plan, schema, list(range(16)))
    matrix, _, targets = apply_pipeline(pipeline, frame, [16, 17, 18, 19])
    assert pipeline.feature_names == ["x"]
    assert matrix.shape == (4, 1)
    assert targets == ["High", "Low", "High", "Low"]


def test_degenerate_column_spread_replaced_by_one():
    frame = make_frame({"x": [5.0, 5.0, 5.0, 7.0], "y": [1.0, 2.0, 3.0, 4.0]})
    schema = SchemaMap(roles={"x": "feature_numeric", "y": "feature_numeric"})
    plan = PreprocessPlan(directives={
        "x": ColumnDirective("none", "standard", "passthrough", "t"),
        "y": ColumnDirective("none", "standard", "passthrough", "t"),
    })
    pipeline = fit_pipeline(frame, plan, schema, [0, 1, 2])
    fit = pipeline.column_fits[0]
    assert fit.spread == 1.0
    assert fit.degenerate
    assert [f.name for f in pipeline.column_fits if f.degenerate] == ["x"]


def test_empty_train_set_rejected():
    frame, _, schema, plan = simple_setup({"x": [1.0, 2.0]})
    with pytest.raises(EmptyTrainSetError):
        fit_pipeline(frame, plan, schema, [])


def test_missing_fitted_column_rejected():
    frame, _, schema, plan = simple_setup({"x": [1.5, 2.5, 1.5]})
    pipeline = fit_pipeline(frame, plan, schema, [0, 1])
    other = make_frame({"z": [1.0]})
    with pytest.raises(MissingColumnError):
        apply_pipeline(pipeline, other, [0])


def test_robust_scaling_uses_linear_interpolation_quantiles(rng):
    values = rng.normal(50.0, 9.0, 37).tolist()
    frame = make_frame({"x": values})
    schema = SchemaMap(roles={"x": "feature_numeric"})
    plan = PreprocessPlan(directives={
        "x": ColumnDirective("none", "robust", "passthrough", "t"),
    })
    train = list(range(20))
    pipeline = fit_pipeline(frame, plan, schema, train)
    fit = pipeline.column_fits[0]
    arr = np.array(values[:20])
    q1, q3 = np.quantile(arr, [0.25, 0.75])
    assert fit.center == pytest.approx(float(np.median(arr)), abs=1e-12)
    assert fit.spread == pytest.approx(float(q3 - q1), abs=1e-12)


def knn_oracle(frame, schema_numeric_cols, train_rows, query_row, column, k=3):
    """Brute-force 3-nearest-neighbor imputation oracle."""
    cells = frame.column(column)
    candidates = [i for i in train_rows if isinstance(cells[i], float)]
    params = {}
    for name in schema_numeric_cols:
        vals = [frame.column(name)[i] for i in train_rows
                if isinstance(frame.column(name)[i], float)]
        mean = sum(vals) / len(vals)
        std = (sum((v - mean) ** 2 for v in vals) / len(vals)) ** 0.5 or 1.0
        params[name] = (mean, std)

    def coord(row, name):
        cell = frame.column(name)[row]
        if not isinstance(cell, float):
            return None
        mean, std = params[name]
        return (cell - mean) / std

    scored = []
    for cand in candidates:
        d2, used = 0.0, 0
        for name in schema_numeric_cols:
            a = coord(query_row, name)
            b = coord(cand, name)
            if a is None or b is None:
                continue
            d2 += (a - b) ** 2
            used += 1
        if used:
            scored.append((d2, cand))
    scored.sort()
    nearest = [cand for _, cand in scored[:k]]
    return sum(cells[i] for i in nearest) / len(nearest)


def test_knn_imputation_matches_brute_force(rng):
    n = 40
    x = rng.normal(0.0, 1.0, n).tolist()
    y = rng.normal(5.0, 2.0, n).tolist()
    z = [v * 2.0 + rng.normal(0, 0.1) for v in x]
    z[5] = None
    z[30] = None
    frame = make_frame({"x": x, "y": y, "z": z})
    schema = SchemaMap(roles={
        "x": "feature_numeric", "y": "feature_numeric", "z": "feature_numeric",
    })
    plan = PreprocessPlan(directives={
        "x": ColumnDirective("none", "standard", "passthrough", "t"),
        "y": ColumnDirective("none", "standard", "passthrough", "t"),
        "z": ColumnDirective("knn", "standard", "passthrough", "t", knn_neighbors=3),
    })
    train = list(range(25))
    pipeline = fit_pipeline(frame, plan, schema, train)
    matrix, _, _ = apply_pipeline(pipeline, frame, [5, 30])
    z_fit = next(f for f in pipeline.column_fits if f.name == "z")
    j = pipeline.feature_names.index("z")
    for row_pos, row in enumerate([5, 30]):
        expected_raw = knn_oracle(frame, ["x", "y", "z"], train, row, "z")
        expected = (expected_raw - z_fit.center) / z_fit.spread
        assert matrix[row_pos, j] == pytest.approx(expected, abs=1e-12)


def knn_lookup_per_cell(pipeline, fit, frame, row):
    """One full nearest-neighbor search for one missing cell: the query's
    coordinates, the candidate copy and a full lexsort, cell by cell."""
    raw, mask = pipeline.knn_raw[fit.name]
    candidates = np.nonzero(mask)[0]
    if candidates.size == 0:
        return fit.impute_value
    query = np.full(len(pipeline.knn_numeric_columns), np.nan)
    for j, name in enumerate(pipeline.knn_numeric_columns):
        mean, std = pipeline.knn_scale_params[j]
        cell = frame.column(name)[row]
        if isinstance(cell, float):
            query[j] = (cell - mean) / std
    store = pipeline.knn_train_scaled[candidates]
    shared = ~np.isnan(query)[None, :] & ~np.isnan(store)
    diff = np.where(shared, store - query[None, :], 0.0)
    d2 = (diff * diff).sum(axis=1)
    usable = shared.any(axis=1)
    if not usable.any():
        return fit.impute_value
    d2 = np.where(usable, d2, np.inf)
    order = np.lexsort((candidates, d2))
    k = min(fit.knn_neighbors or 3, int(usable.sum()))
    chosen = candidates[order[:k]]
    if fit.numeric:
        return float(np.mean(raw[chosen].astype(float)))
    return most_frequent([str(v) for v in raw[chosen]])


def apply_per_cell(pipeline, frame, rows):
    """Feature matrix of numeric and one-hot columns, imputed cell by cell."""
    blocks = []
    for fit in pipeline.column_fits:
        cells = frame.column(fit.name)
        if fit.numeric:
            column = np.array([
                cells[i] if isinstance(cells[i], float)
                else knn_lookup_per_cell(pipeline, fit, frame, i)
                if fit.imputation == "knn" else fit.impute_value
                for i in rows
            ])
            if fit.center is not None:
                column = (column - fit.center) / fit.spread
            blocks.append(column[:, None])
        else:
            block = np.zeros((len(rows), len(fit.vocabulary)))
            for k, i in enumerate(rows):
                key = (knn_lookup_per_cell(pipeline, fit, frame, i)
                       if cells[i] is None else cells[i])
                if key in fit.vocabulary:
                    block[k, fit.vocabulary.index(key)] = 1.0
            blocks.append(block)
    return np.hstack(blocks)


@pytest.mark.parametrize(
    "width", [*range(1, 21), *range(127, 131), *range(255, 261)])
def test_pairwise_sum_matches_numpy_row_sum(width):
    # nonnegative values from 1e-8 to 1e8, whose sums round differently by
    # order, and a few +0.0, inf and NaN values, which squares can also be
    rng = np.random.default_rng(width)

    def columns():
        cols = [10.0 ** rng.uniform(-8.0, 8.0, 500) for _ in range(width)]
        for value in (0.0, np.inf, np.nan):
            cols[rng.integers(width)][rng.integers(500)] = value
        return cols

    cols = columns()
    expected = np.stack(cols, axis=-1).sum(axis=-1)
    assert pipeline_module._pairwise_sum(cols).tobytes() == expected.tobytes()
    # an absent (None) term sums as a row of +0.0: random gaps, the first
    # term absent, and every term but the last absent
    for absent in (rng.random(width) < 0.4, np.arange(width) == 0,
                   np.arange(width) < width - 1):
        if absent.all():
            continue
        cols = columns()
        expected = np.stack(
            [np.zeros(500) if gap else col for gap, col in zip(absent, cols)],
            axis=-1).sum(axis=-1)
        terms = [None if gap else col for gap, col in zip(absent, cols)]
        assert pipeline_module._pairwise_sum(terms).tobytes() == expected.tobytes()
    assert pipeline_module._pairwise_sum([None] * width) is None


def gapped_failure_frame():
    """A failure table with two columns 30% blank: a store of many
    coordinates."""
    frame = failure_frame(n_rows=300, seed=5)
    rng = np.random.default_rng(7)
    for name in ("Vibration", "Technician_Available"):
        cells = frame.column(name)
        for i in rng.choice(frame.n_rows, 90, replace=False):
            cells[i] = None
    return frame, "Failure_Probability"


def one_coordinate_frame():
    """One numeric reading and one label, both 30% blank: a store of one
    coordinate, whose feature-major copy is a view of the store."""
    rng = np.random.default_rng(7)
    x = rng.normal(0.0, 1.0, 300)
    frame = make_frame({
        "x": x.tolist(),
        "c": rng.choice(list("abc"), 300).tolist(),
        "failure_target": (2.0 * x + rng.normal(0.0, 0.1, 300)).tolist(),
    })
    for name in ("x", "c"):
        cells = frame.column(name)
        for i in rng.choice(300, 90, replace=False):
            cells[i] = None
    return frame, "failure_target"


@pytest.mark.parametrize("make", [gapped_failure_frame, one_coordinate_frame])
def test_knn_sums_in_place_without_writing_into_the_store(make):
    frame, target = make()
    metadata = inspect_frame(frame)
    schema = discover_schema(frame, metadata, target)
    plan = decide_tools(metadata, schema)
    pipeline = fit_pipeline(frame, plan, schema, [i for i in range(300) if i % 4 != 3])
    assert len(pipeline.knn_raw) == 2
    store = pipeline.knn_train_scaled.tobytes()
    for rows in (range(300), [i for i in range(300) if i % 4 == 3]):
        first, _, _ = apply_pipeline(pipeline, frame, rows)
        second, _, _ = apply_pipeline(pipeline, frame, rows)
        assert first.tobytes() == second.tobytes()
        assert pipeline.knn_train_scaled.tobytes() == store


def assert_neighbour_mean_is_numpys(values):
    """_neighbour_value over values, taken in order, is float(np.mean) bit
    for bit."""
    fit = pipeline_module.ColumnFit("x", True, "knn", "none", "passthrough")
    raw = np.array([7.0, *values, -3.0])      # the chosen rows sit inside
    chosen = np.arange(1, len(values) + 1)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)     # mean of nothing
        expected = float(np.mean(raw[chosen]))
        got = pipeline_module._neighbour_value(fit, raw, chosen)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


MEAN_CASES = {
    "all_negative_zero": [-0.0],
    "mixed_signed_zeros": [-0.0, 0.0, -0.0, -0.0, 0.0],
    "overflow": [1e308, 1e308, -1e308, 1e308],
    "subnormals": [5e-324, -1e-320, 2.5e-310, 5e-324],
    "order_dependent_rounding": [1e16, 1.0, -1e16, 1.0, 3.0],
}


@pytest.mark.parametrize("k", range(13))
@pytest.mark.parametrize("case", MEAN_CASES)
def test_neighbour_mean_of_edge_values_is_numpys(case, k):
    pattern = MEAN_CASES[case]
    assert_neighbour_mean_is_numpys([pattern[i % len(pattern)] for i in range(k)])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),                     # subnormals and zeros
    st.sampled_from([-0.0, 0.0, 1e308, -1e308, 1e16, -1e16, 1.0]),
), max_size=12))
def test_neighbour_mean_is_numpys_bit_for_bit(values):
    assert_neighbour_mean_is_numpys(values)


def test_knn_near_tie_over_eight_coordinates_follows_numpy_sum_order():
    # the training rows are the 8 cyclic shifts of one vector, so every
    # column holds the same values and each row's squared differences to the
    # all-zero query are the same 8 terms, shifted: the distances differ only
    # in rounding, which follows the order of the sum. Summed in numpy's
    # pairwise order row 1 is nearest; summed left to right, row 3 would be
    v = [0.07, 2.7, -2.14, 2.69, -1.13, -0.46, 1.97, -0.54]
    train = [np.roll(v, i).tolist() for i in range(8)]
    columns = {f"x{j}": [row[j] for row in train] + [0.0] for j in range(8)}
    columns["z"] = [10.0 * (i + 1) for i in range(8)] + [None]
    directives = {name: ColumnDirective("none", "none", "passthrough", "t") for name in columns}
    directives["z"] = ColumnDirective("knn", "none", "passthrough", "t", knn_neighbors=1)
    frame = make_frame(columns)
    schema = SchemaMap(roles={name: "feature_numeric" for name in columns})
    pipeline = fit_pipeline(frame, PreprocessPlan(directives), schema, list(range(8)))
    matrix, _, _ = apply_pipeline(pipeline, frame, [8])
    assert matrix[0, -1] == 20.0
    assert matrix.tobytes() == apply_per_cell(pipeline, frame, [8]).tobytes()


@st.composite
def knn_frames(draw, min_rows=3, max_rows=24, min_train=1, max_k=None):
    """Numeric and categorical knn columns under random missingness. Rows
    repeat a few base rows, so tied distances are common, and the values'
    sums round differently in different orders."""
    n_numeric = draw(st.integers(1, 17))
    n_rows = draw(st.integers(min_rows, max_rows))
    base = draw(st.lists(
        st.lists(st.sampled_from([-2.0, 0.1, 0.2, 0.3, 0.7, 3.25]),
                 min_size=n_numeric, max_size=n_numeric),
        min_size=1, max_size=6,
    ))
    picks = draw(st.lists(st.integers(0, len(base) - 1),
                          min_size=n_rows, max_size=n_rows))
    share = draw(st.sampled_from([0.0, 0.3, 0.6]))
    blank = st.lists(st.floats(0, 1), min_size=n_rows, max_size=n_rows)
    columns = {}
    for j in range(n_numeric):
        gaps = draw(blank)
        columns[f"x{j}"] = [None if g < share else base[p][j]
                            for g, p in zip(gaps, picks)]
    gaps = draw(blank)
    labels = draw(st.lists(st.sampled_from("abc"), min_size=n_rows, max_size=n_rows))
    columns["c"] = [None if g < share else v for g, v in zip(gaps, labels)]
    n_train = draw(st.integers(min_train, n_rows))
    k = draw(st.integers(1, max_k or n_rows + 2))
    if draw(st.booleans()):          # a query row with no numeric coordinate
        for j in range(n_numeric):
            columns[f"x{j}"][-1] = None
    sparse = draw(st.sampled_from([None, "x0", "c"]))
    if sparse:                       # a knn column present in fewer than k training rows
        few = draw(st.integers(0, k - 1))
        columns[sparse][few:n_train] = [None] * (n_train - few)
    imputations = draw(st.lists(st.sampled_from(["knn", "none"]),
                                min_size=n_numeric, max_size=n_numeric))
    directives = {
        f"x{j}": ColumnDirective(imp, "standard", "passthrough", "t",
                                 knn_neighbors=k if imp == "knn" else 0)
        for j, imp in enumerate(imputations)
    }
    directives["c"] = ColumnDirective("knn", "none", "one_hot", "t", knn_neighbors=k)
    roles = {name: "feature_numeric" for name in columns}
    roles["c"] = "feature_categorical"
    return make_frame(columns), SchemaMap(roles=roles), PreprocessPlan(directives), n_train


def assert_knn_matches_the_per_cell_search(case):
    frame, schema, plan, n_train = case
    pipeline = fit_pipeline(frame, plan, schema, list(range(n_train)))
    rows = list(range(frame.n_rows))
    matrix, _, _ = apply_pipeline(pipeline, frame, rows)
    expected = apply_per_cell(pipeline, frame, rows)
    assert matrix.tobytes() == expected.tobytes()


@given(knn_frames())
def test_knn_imputation_matches_the_per_cell_search(case):
    assert_knn_matches_the_per_cell_search(case)


@settings(max_examples=40)
@given(knn_frames(min_rows=40, max_rows=120, min_train=40,
                  max_k=pipeline_module.PREFIX_ROWS + 8))
def test_knn_imputation_from_the_sorted_prefix_matches_the_per_cell_search(case):
    # more training rows than the prefix holds, drawn from at most 6 base
    # rows, so the prefix's last distance is shared by rows on both sides
    # of its PREFIX_ROWS-th place, and k reaches past the prefix
    assert_knn_matches_the_per_cell_search(case)


def count_full_searches(monkeypatch):
    """Record each call of the per-column search the sorted prefix falls back to."""
    calls = []
    real = pipeline_module._nearest_value

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(pipeline_module, "_nearest_value", spy)
    return calls


def impute_last_row(columns, k):
    """Fit on every row but the last, whose z is missing, and impute z there
    with k neighbours; the matrix must equal the per-cell search's."""
    n_train = len(columns["z"]) - 1
    directives = {name: ColumnDirective("none", "none", "passthrough", "t") for name in columns}
    directives["z"] = ColumnDirective("knn", "none", "passthrough", "t", knn_neighbors=k)
    frame = make_frame(columns)
    schema = SchemaMap(roles={name: "feature_numeric" for name in columns})
    pipeline = fit_pipeline(frame, PreprocessPlan(directives), schema, list(range(n_train)))
    matrix, _, _ = apply_pipeline(pipeline, frame, [n_train])
    assert matrix.tobytes() == apply_per_cell(pipeline, frame, [n_train]).tobytes()
    return matrix[0, list(columns).index("z")]


P = pipeline_module.PREFIX_ROWS


def test_rows_tied_at_the_prefix_edge_stay_in_the_prefix(monkeypatch):
    # every training row sits at distance 0: the prefix holds all of them,
    # so the three lowest positions are picked without a full search
    calls = count_full_searches(monkeypatch)
    n = P + 16
    z = impute_last_row({"x": [1.0] * (n + 1), "z": [float(i) for i in range(n)] + [None]}, k=3)
    assert z == 1.0
    assert calls == []


def test_more_neighbours_than_the_prefix_holds_fall_back_to_the_full_search(monkeypatch):
    calls = count_full_searches(monkeypatch)
    n = 2 * P
    k = P + 4
    z = impute_last_row({"x": [float(i) for i in range(n)] + [-1.0],
                         "z": [float(i) for i in range(n)] + [None]}, k=k)
    assert z == float(np.mean(np.arange(k, dtype=float)))
    assert calls == [1]


def test_a_prefix_with_too_few_present_values_falls_back_to_the_full_search(monkeypatch):
    # z is present only in the rows farthest from the query
    calls = count_full_searches(monkeypatch)
    n = 2 * P
    far = n - 3
    z = impute_last_row({"x": [float(i) for i in range(n)] + [-1.0],
                         "z": [float(i) if i >= far else None for i in range(n)] + [None]}, k=3)
    assert z == float(np.mean([far, far + 1, far + 2]))
    assert calls == [1]


def test_rows_sharing_no_coordinate_stay_out_of_the_prefix(monkeypatch):
    # no coordinate is present in every training row, so the usability mask
    # is computed: rows 0-9 lack x, the query's one coordinate, and would
    # sit at distance 0 without it
    calls = count_full_searches(monkeypatch)
    n = 2 * P
    x = [None] * 10 + [float(i) for i in range(10, n)] + [10.0]
    y = [0.0] * (n - 4) + [None] * 4 + [None]
    z = [1000.0] * 10 + [float(i) for i in range(10, n)] + [None]
    assert impute_last_row({"x": x, "y": y, "z": z}, k=3) == 11.0
    assert calls == []


def test_knn_matrices_match_golden_digest():
    # digest taken from the per-cell search this path replaced
    frame = failure_frame(n_rows=400, seed=5)
    rng = np.random.default_rng(2024)
    for name in ("Vibration", "Technician_Available"):
        cells = frame.column(name)
        for i in rng.choice(frame.n_rows, 120, replace=False):
            cells[i] = None
    metadata = inspect_frame(frame)
    schema = discover_schema(frame, metadata, "Failure_Probability")
    plan = decide_tools(metadata, schema)
    assert plan.directives["Vibration"].imputation == "knn"
    assert plan.directives["Technician_Available"].imputation == "knn"
    train = [i for i in range(400) if i % 4 != 3]
    pipeline = fit_pipeline(frame, plan, schema, train)
    digest = hashlib.sha256()
    for rows in (train, [i for i in range(400) if i % 4 == 3]):
        matrix, _, _ = apply_pipeline(pipeline, frame, rows)
        digest.update(np.ascontiguousarray(matrix).tobytes())
    assert digest.hexdigest() == (
        "b50efeedb8f29f6a8b4e7e41daa8ffbbc5bade5088d176872840379e9662ea4e"
    )


def per_cell_key(cell):
    if not isinstance(cell, float):
        return str(cell)
    short = "%g" % cell
    return short if float(short) == cell else repr(cell)


def imputed_key_per_cell(fit, cell):
    if cell is not None:
        return per_cell_key(cell)
    if fit.imputation == "none":
        return None if fit.encoding == "target_encoding" else "\x00unseen"
    return fit.impute_value


# texts, numbers that are equal yet key differently (0.0 and -0.0, 1 and
# True, 10**7 and 1e7) or are unequal to themselves (NaN), and floats that
# "%g" alone would give one key (1234567.0 and 1234568.0)
odd_cells = st.one_of(
    st.none(),
    st.sampled_from(["a", "b", "0", "1", "nan", "None", "-0"]),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e7, float("nan"), 1, True, 10**7,
                     1234567.0, 1234568.0]),
)


@given(
    cells=st.lists(odd_cells, min_size=2, max_size=30),
    imputation=st.sampled_from(["most_frequent", "median", "none"]),
    encoding=st.sampled_from(["one_hot", "target_encoding"]),
)
def test_category_keys_match_the_per_cell_reference(cells, imputation, encoding):
    n = len(cells)
    frame = make_frame({
        "c": cells, "ident": cells[::-1], "score_target": [float(i % 3) for i in range(n)],
    })
    schema = SchemaMap(
        roles={"c": "feature_categorical", "ident": "identifier",
               "score_target": "target_candidate"},
        chosen_target="score_target",
    )
    plan = PreprocessPlan(directives={
        "c": ColumnDirective(imputation, "none", encoding, ""),
        "ident": ColumnDirective("none", "none", "passthrough", ""),
    })
    train = list(range(0, n, 2))
    pipeline = fit_pipeline(frame, plan, schema, train)
    fit = pipeline.column_fits[0]
    train_keys = [per_cell_key(cells[i]) for i in train if cells[i] is not None]
    assert fit.impute_value == most_frequent(train_keys)

    matrix, identifiers, _ = apply_pipeline(pipeline, frame, range(n))
    keys = [imputed_key_per_cell(fit, c) for c in cells]
    if encoding == "one_hot":
        assert fit.vocabulary == sorted(set(train_keys))
        expected = np.zeros((n, len(fit.vocabulary)))
        for k, key in enumerate(keys):
            if key in fit.vocabulary:
                expected[k, fit.vocabulary.index(key)] = 1.0
    else:
        expected = np.array([
            [fit.target_means.get(key, fit.global_target_mean)] for key in keys
        ])
    assert matrix.tobytes() == expected.tobytes()
    assert identifiers == {
        "ident": ["" if c is None else per_cell_key(c) for c in cells[::-1]]
    }


def test_apply_is_idempotent(rng):
    n = 60
    frame = make_frame({
        "x": [v if i % 7 else None for i, v in
              enumerate(rng.normal(0, 1, n).tolist())],
        "c": rng.choice(list("abc"), n).tolist(),
        "label_target": rng.choice(["hi", "lo"], n).tolist(),
    })
    metadata = inspect_frame(frame)
    schema = SchemaMap(
        roles={"x": "feature_numeric", "c": "feature_categorical",
               "label_target": "target_candidate"},
        chosen_target="label_target",
    )
    plan = decide_tools(metadata, schema)
    pipeline = fit_pipeline(frame, plan, schema, list(range(40)))
    rows = list(range(40, 60))
    first, _, _ = apply_pipeline(pipeline, frame, rows)
    second, _, _ = apply_pipeline(pipeline, frame, rows)
    assert np.array_equal(first, second)


def test_leakage_invariant_on_planted_missingness(rng):
    """Every fitted statistic equals a train-only brute-force recomputation."""
    n = 200
    numeric = rng.normal(10.0, 4.0, n).tolist()
    cat = rng.choice(list("abcd"), n).tolist()
    target = rng.normal(0.0, 1.0, n).tolist()
    for i in rng.choice(n, 30, replace=False):
        numeric[i] = None
    for i in rng.choice(n, 25, replace=False):
        cat[i] = None
    frame = make_frame({"num": numeric, "cat": cat, "score_target": target})
    metadata = inspect_frame(frame)
    schema = SchemaMap(
        roles={
            "num": "feature_numeric",
            "cat": "feature_categorical",
            "score_target": "target_candidate",
        },
        chosen_target="score_target",
    )
    plan = decide_tools(metadata, schema)
    train = sorted(rng.choice(n, 160, replace=False).tolist())
    test = [i for i in range(n) if i not in set(train)]
    pipeline = fit_pipeline(frame, plan, schema, train)

    train_numeric = [numeric[i] for i in train if numeric[i] is not None]
    num_fit = next(f for f in pipeline.column_fits if f.name == "num")
    assert num_fit.impute_value == pytest.approx(
        float(np.median(train_numeric)), abs=1e-12)
    assert num_fit.center == pytest.approx(
        sum(train_numeric) / len(train_numeric), rel=1e-12)
    brute_var = sum(
        (v - num_fit.center) ** 2 for v in train_numeric) / len(train_numeric)
    assert num_fit.spread == pytest.approx(brute_var ** 0.5, rel=1e-12)

    train_cats = [cat[i] for i in train if cat[i] is not None]
    cat_fit = next(f for f in pipeline.column_fits if f.name == "cat")
    counts = {c: train_cats.count(c) for c in set(train_cats)}
    best = min(counts, key=lambda c: (-counts[c], c))
    assert cat_fit.impute_value == best
    assert cat_fit.vocabulary == sorted(set(train_cats))

    matrix, _, targets = apply_pipeline(pipeline, frame, test)
    assert "score_target" not in pipeline.feature_names
    assert matrix.shape[1] == 1 + len(cat_fit.vocabulary)
    assert len(targets) == len(test)
