import numpy as np
import pytest

from rxmflow.models import (
    DecisionTreeClassifier, DecisionTreeRegressor, RandomForestClassifier,
    RandomForestRegressor,
)


def blobs(rng, n=500):
    X = np.vstack([
        rng.normal(loc=-2.0, size=(n // 2, 2)),
        rng.normal(loc=+2.0, size=(n // 2, 2)),
    ])
    y = np.array(["a"] * (n // 2) + ["b"] * (n // 2))
    return X, y


def test_tree_fits_separable_blobs(rng):
    X, y = blobs(rng)
    tree = DecisionTreeClassifier(seed=0).fit(X, y)
    assert (tree.predict(X) == y).mean() == 1.0    # purity on train


def test_tree_gini_split_matches_hand_computation():
    # one feature, labels 0,0,1,1 split cleanly at 1.5
    X = np.array([[1.0], [1.2], [2.0], [2.2]])
    y = np.array([0, 0, 1, 1])
    tree = DecisionTreeClassifier(seed=0).fit(X, y)
    assert tree.root_.feature == 0
    assert tree.root_.threshold == pytest.approx(1.6)
    assert tree.root_.left.is_leaf and tree.root_.right.is_leaf


def test_regression_tree_reduces_variance(rng):
    X = rng.uniform(-3, 3, size=(300, 1))
    y = np.where(X[:, 0] > 0, 5.0, -5.0) + rng.normal(0, 0.1, 300)
    tree = DecisionTreeRegressor(max_depth=2, seed=0).fit(X, y)
    pred = tree.predict(X)
    assert float(np.mean((pred - y) ** 2)) < 0.5


def test_forest_beats_chance_on_blobs(rng):
    X, y = blobs(rng)
    forest = RandomForestClassifier(n_estimators=25, seed=1).fit(X, y)
    assert (forest.predict(X) == y).mean() >= 0.95


def test_single_tree_full_features_forest_equals_its_tree(rng):
    X, y = blobs(rng, n=200)
    forest = RandomForestClassifier(
        n_estimators=1, max_features=None, bootstrap=False, seed=5,
    ).fit(X, y)
    assert np.array_equal(forest.predict(X), forest.trees_[0].predict(X))


def test_single_tree_regressor_forest_equals_its_tree(rng):
    X = rng.normal(size=(150, 3))
    y = X @ np.array([1.0, -1.0, 0.5]) + rng.normal(0, 0.05, 150)
    forest = RandomForestRegressor(
        n_estimators=1, max_features=None, bootstrap=False, seed=2,
    ).fit(X, y)
    assert np.array_equal(forest.predict(X), forest.trees_[0].predict(X))


def test_importances_nonnegative_and_sum_to_one(rng):
    X, y = blobs(rng)
    forest = RandomForestClassifier(n_estimators=20, seed=3).fit(X, y)
    importances = forest.feature_importances_
    assert np.all(importances >= 0.0)
    assert importances.sum() == pytest.approx(1.0)


def test_importances_favor_the_informative_feature(rng):
    X = rng.normal(size=(400, 4))
    y = np.where(X[:, 2] > 0, "hot", "cold")
    forest = RandomForestClassifier(n_estimators=30, seed=4).fit(X, y)
    assert int(np.argmax(forest.feature_importances_)) == 2


def test_determinism_given_seed(rng):
    X, y = blobs(rng, n=300)
    a = RandomForestClassifier(n_estimators=15, seed=9).fit(X, y)
    b = RandomForestClassifier(n_estimators=15, seed=9).fit(X, y)
    assert np.array_equal(a.predict_proba(X), b.predict_proba(X))
    assert np.array_equal(a.feature_importances_, b.feature_importances_)


def test_forest_regressor_learns_smooth_signal(rng):
    X = rng.uniform(-2, 2, size=(400, 2))
    y = 3.0 * X[:, 0] - 2.0 * X[:, 1]
    forest = RandomForestRegressor(n_estimators=40, seed=6).fit(X, y)
    pred = forest.predict(X)
    ss_res = float(np.sum((pred - y) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    assert 1.0 - ss_res / ss_tot >= 0.9


def test_single_class_tree_returns_one_probability_column(rng):
    X = rng.normal(size=(50, 3))
    tree = DecisionTreeClassifier().fit(X, np.array(["a"] * 50))
    assert tree.predict_proba(X).shape == (50, 1)
    assert tree.predict(X).tolist() == ["a"] * 50


def test_single_class_forest_predicts(rng):
    X = rng.normal(size=(50, 3))
    forest = RandomForestClassifier(n_estimators=5, seed=0).fit(X, np.array(["a"] * 50))
    assert forest.predict_proba(X).shape == (50, 1)
    assert forest.predict(X).tolist() == ["a"] * 50


def test_forest_with_a_tree_that_missed_the_rare_class(rng):
    X = rng.normal(size=(50, 3))
    forest = RandomForestClassifier(n_estimators=20, seed=0).fit(
        X, np.array(["a"] * 49 + ["b"]))
    assert any(len(tree.classes_) == 1 for tree in forest.trees_)
    proba = forest.predict_proba(X)
    assert proba.shape == (50, 2)
    assert np.allclose(proba.sum(axis=1), 1.0)
