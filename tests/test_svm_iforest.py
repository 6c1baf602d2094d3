import hashlib
import warnings

import numpy as np
import pytest

from rxmflow.models import SVC, SVR, IsolationForest
from rxmflow.models.iforest import average_path_length


def test_svc_separable_binary(rng):
    X = np.vstack([
        rng.normal(loc=-2.0, size=(80, 2)),
        rng.normal(loc=+2.0, size=(80, 2)),
    ])
    y = np.array(["lo"] * 80 + ["hi"] * 80)
    model = SVC(seed=0).fit(X, y)
    assert (model.predict(X) == y).mean() >= 0.95


def test_svc_three_classes(rng):
    centers = [(-3, 0), (3, 0), (0, 4)]
    X = np.vstack([rng.normal(loc=c, size=(50, 2)) for c in centers])
    y = np.array(["a"] * 50 + ["b"] * 50 + ["c"] * 50)
    model = SVC(seed=1).fit(X, y)
    assert (model.predict(X) == y).mean() >= 0.9


def test_svr_fits_smooth_curve(rng):
    X = rng.uniform(-3, 3, size=(150, 1))
    y = np.sin(X[:, 0])
    model = SVR(C=1.0, epsilon=0.05, seed=2).fit(X, y)
    pred = model.predict(X)
    ss_res = float(np.sum((pred - y) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    assert 1.0 - ss_res / ss_tot >= 0.9


def test_svr_beta_respects_box_and_balance(rng):
    X = rng.normal(size=(60, 2))
    y = X[:, 0] * 2.0 + rng.normal(0, 0.1, 60)
    model = SVR(C=1.0, seed=3).fit(X, y)
    assert np.all(np.abs(model.beta_) <= 1.0 + 1e-9)


def test_average_path_length_formula():
    assert average_path_length(1)[0] == 0.0
    assert average_path_length(2)[0] == 1.0
    gamma = 0.5772156649015329
    m = 256
    expected = 2.0 * (np.log(m - 1) + gamma) - 2.0 * (m - 1) / m
    assert average_path_length(m)[0] == pytest.approx(expected, rel=1e-12)


def test_iforest_score_formula_cross_check(rng):
    X = rng.normal(size=(300, 2))
    forest = IsolationForest(n_estimators=25, seed=4).fit(X)
    lengths = np.zeros(300)
    for tree_lengths in forest.tree_path_lengths(X):
        lengths += tree_lengths
    expected = 2.0 ** (-(lengths / 25) / average_path_length(forest.psi_)[0])
    assert np.allclose(forest.score_samples(X), expected, atol=1e-12)


def test_duplicated_point_scores_below_isolated_extreme():
    X = np.vstack([np.zeros((63, 2)), [[50.0, 50.0]]])
    forest = IsolationForest(n_estimators=50, max_samples=64, seed=5).fit(X)
    scores = forest.score_samples(X)
    assert scores[0] < scores[-1]
    assert scores[-1] > 0.6


def test_explicit_contamination_flags_exact_count(rng):
    X = rng.normal(size=(1000, 3))
    forest = IsolationForest(n_estimators=50, contamination=0.013, seed=6).fit(X)
    flags = forest.flag(forest.score_samples(X))
    assert flags.sum() == 13      # round(0.013 * 1000)


def test_contamination_ties_break_by_row_index():
    forest = IsolationForest(contamination=0.5, seed=0)
    scores = np.array([0.5, 0.9, 0.5, 0.5])
    flags = forest.flag(scores)
    # top-2: the 0.9 row, then the earliest of the tied 0.5 rows
    assert flags.tolist() == [True, True, False, False]


def test_auto_contamination_uses_score_threshold():
    forest = IsolationForest(contamination="auto", seed=0)
    scores = np.array([0.3, 0.61, 0.59, 0.9])
    assert forest.flag(scores).tolist() == [False, True, False, True]


def test_injected_outliers_are_flagged(rng):
    X = np.vstack([
        rng.normal(size=(2000, 4)),
        rng.normal(size=(20, 4)) + 10.0,
    ])
    forest = IsolationForest(n_estimators=100, contamination=0.01, seed=7).fit(X)
    flags = forest.flag(forest.score_samples(X))
    assert flags.sum() == round(0.01 * 2020)
    assert flags[-20:].sum() >= 19


def test_leaf_path_length_table_equals_per_size_values():
    table = average_path_length(np.arange(257))
    per_size = np.array([average_path_length(m)[0] for m in range(257)])
    assert table.tobytes() == per_size.tobytes()


def test_iforest_scores_match_the_golden_digest():
    # digest taken before the fit gathered node rows from the transpose and
    # drew the split feature with rng.integers; both must keep every bit
    rng = np.random.default_rng(21)
    X = rng.normal(size=(1500, 6)).round(2)
    X[:, 4] = 1.0                      # a constant column no split may use
    X[100:300] = X[0]                  # a block of duplicate rows
    X[-15:] += 6.0
    forest = IsolationForest(n_estimators=60, max_samples=128, seed=11).fit(X)
    assert hashlib.sha256(forest.score_samples(X).tobytes()).hexdigest() == (
        "de1e4bf21abc9ada6e7c27dad6c503b65b905633a03e7e966a7c9d5be6a942d6"
    )


def test_iforest_on_one_row_scores_one_half_without_warnings():
    forest = IsolationForest(n_estimators=10, seed=0).fit(np.array([[3.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = forest.score_samples(np.array([[3.0], [40.0]]))
    assert np.all(np.isfinite(scores))
    assert scores.tolist() == [0.5, 0.5]
