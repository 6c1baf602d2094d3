import hashlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rxmflow.models import (
    DecisionTreeClassifier, DecisionTreeRegressor, RandomForestClassifier,
    RandomForestRegressor, lockstep, tree as tree_module,
)
from rxmflow.synth import network_frame


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
    assert tree.feature_[0] == 0
    assert tree.threshold_[0] == pytest.approx(1.6)
    left, right = tree.left_[0], tree.right_[0]
    assert tree.feature_[left] == -1 and tree.feature_[right] == -1


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


def _digest(values):
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def test_forests_match_golden_digests():
    # digests taken from the node-object trees this core replaced; they pin
    # the split search, the tie rules, the rng draw order and the importances
    rng = np.random.default_rng(11)
    X = rng.normal(size=(160, 7))
    X[:, 3] = np.round(X[:, 3])           # heavy ties
    X[:, 5] = 0.0                          # a constant feature
    y = np.where(X[:, 0] + X[:, 1] > 0, "hi", "lo").astype(object)
    y[X[:, 2] > 1.0] = "mid"
    y[:2] = "rare"
    clf = RandomForestClassifier(n_estimators=12, seed=7).fit(X, y)
    assert any("rare" not in tree.classes_.tolist() for tree in clf.trees_)
    queries = rng.normal(size=(50, 7))
    assert _digest(clf.predict_proba(queries)) == (
        "8e138c007acaf7b62e5eb5aad2d06fa2063c32ffc309321dd7c8b626450305c7")
    assert _digest(clf.feature_importances_) == (
        "0dd905db9c893fbff43cd9c52e1b432af6673aca85eb0ff9b51de6e3862479a2")

    target = X[:, 0] * 2.0 - X[:, 4] + np.round(X[:, 1]) + rng.normal(0, 0.1, 160)
    reg = RandomForestRegressor(n_estimators=12, max_depth=8, seed=3).fit(X, target)
    assert _digest(reg.predict(queries)) == (
        "d1927e239d69f3078fc5228cea614fe7076e44af88423b9497d30577658adce5")
    assert _digest(reg.feature_importances_) == (
        "2c5d7eef1f69d1259ea2000d7aba6c0df64da04cac36c644faa23cc15d25c57e")


def _midpoint_table():
    # between 1 + eps and 1 + 2 eps the midpoint rounds up to 1 + 2 eps, so
    # the <= partition differs from the sorted position the split came from
    eps = np.finfo(float).eps
    rng = np.random.default_rng(0)
    X = np.column_stack([
        rng.choice([1.0, 1 + eps, 1 + 2 * eps, 1 + 3 * eps, 5.0], 200),
        rng.normal(size=200),
    ])
    return X, rng.integers(0, 3, 200)


def test_tree_with_midpoints_that_round_onto_a_value_matches_golden_digests():
    X, y = _midpoint_table()
    tree = DecisionTreeClassifier(seed=0).fit(X, y)
    assert _digest(tree.predict_proba(X)) == (
        "f041dc56a406a4e7e64e0e28947a19919b9f462d2f9daeacbd2c04dc7100055b")
    assert _digest(tree.feature_importances_) == (
        "78119f5ebfbe2bdeefd0abe966c0dabdbc8eb4b116efa8d0940f7d0c58d5af8c")


def _walk(tree, row):
    """Reference prediction: follow one row from the root to its leaf."""
    node = 0
    while tree.feature_[node] >= 0:
        goes_left = row[tree.feature_[node]] <= tree.threshold_[node]
        node = tree.left_[node] if goes_left else tree.right_[node]
    return tree.value_[node]


cell = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
                 st.floats(min_value=-3, max_value=3))


@given(
    X=arrays(float, st.tuples(st.integers(1, 40), st.integers(1, 4)), elements=cell),
    labels=st.lists(st.integers(0, 3), min_size=40, max_size=40),
    seed=st.integers(0, 5),
    max_depth=st.sampled_from([None, 1, 3]),
)
def test_levelwise_predict_equals_a_per_row_walk(X, labels, seed, max_depth):
    n, p = X.shape
    y = np.array(labels[:n])
    clf = DecisionTreeClassifier(max_depth=max_depth, max_features=max(1, p // 2),
                                 seed=seed).fit(X, y)
    reg = DecisionTreeRegressor(max_depth=max_depth, seed=seed).fit(X, y * 1.5)
    queries = np.vstack([X, X[::-1] + 0.25])
    assert np.array_equal(clf.predict_proba(queries),
                          np.array([_walk(clf, row) for row in queries]))
    assert np.array_equal(reg.predict(queries),
                          np.array([_walk(reg, row) for row in queries]))


def _per_tree_values(tree, X):
    """Reference prediction: the per-tree level loop the lockstep walker
    replaced, one tree at a time."""
    X = np.asarray(X, dtype=float)
    node = np.zeros(X.shape[0], dtype=np.intp)
    active = np.flatnonzero(tree.feature_[node] >= 0)
    while active.size:
        at = node[active]
        goes_left = X[active, tree.feature_[at]] <= tree.threshold_[at]
        node[active] = np.where(goes_left, tree.left_[at], tree.right_[at])
        active = active[tree.feature_[node[active]] >= 0]
    return tree.value_[node]


def _per_tree_proba(forest, X):
    classes = forest.classes_.tolist()
    proba = np.zeros((len(X), len(classes)))
    for tree in forest.trees_:
        cols = [classes.index(c) for c in tree.classes_.tolist()]
        proba[:, cols] += _per_tree_values(tree, X)
    return proba / len(forest.trees_)


def _per_tree_mean(forest, X):
    preds = np.zeros(len(X))
    for tree in forest.trees_:
        preds += _per_tree_values(tree, X)
    return preds / len(forest.trees_)


def test_lockstep_walk_of_a_forest_missing_a_class_equals_the_per_tree_loop(rng):
    X = rng.normal(size=(60, 3))
    y = np.array(["a"] * 30 + ["b"] * 29 + ["c"])
    forest = RandomForestClassifier(n_estimators=20, seed=0).fit(X, y)
    assert any(len(tree.classes_) < 3 for tree in forest.trees_)
    queries = rng.normal(size=(200, 3))
    assert forest.predict_proba(queries).tobytes() == _per_tree_proba(forest, queries).tobytes()


def test_lockstep_walk_over_blocks_that_split_the_trees_unevenly_equals_the_per_tree_loop(rng):
    X = rng.normal(size=(80, 4))
    y = np.digitize(X[:, 0] + X[:, 1], [-0.5, 0.5])
    clf = RandomForestClassifier(n_estimators=7, seed=2).fit(X, y)
    reg = RandomForestRegressor(n_estimators=7, seed=2).fit(X, X[:, 0] * X[:, 2])
    queries = rng.normal(size=(10, 4))
    with mock.patch.object(tree_module, "PASS_ELEMENTS", 30):      # blocks of 3, 3 and 1
        proba, preds = clf.predict_proba(queries), reg.predict(queries)
    assert proba.tobytes() == _per_tree_proba(clf, queries).tobytes()
    assert preds.tobytes() == _per_tree_mean(reg, queries).tobytes()
    assert reg.predict(queries).tobytes() == preds.tobytes()        # one block of 7


def test_lockstep_walk_of_a_single_tree_equals_the_per_tree_loop(rng):
    X, y = blobs(rng, n=120)
    queries = rng.normal(scale=2.0, size=(90, 2))
    clf = DecisionTreeClassifier(max_features=1, seed=3).fit(X, y)
    reg = DecisionTreeRegressor(seed=3).fit(X, X[:, 0] - X[:, 1])
    assert clf.predict_proba(queries).tobytes() == _per_tree_values(clf, queries).tobytes()
    assert reg.predict(queries).tobytes() == _per_tree_values(reg, queries).tobytes()


def test_lockstep_walk_of_no_rows_returns_an_empty_prediction_per_class(rng):
    X, y = blobs(rng, n=100)
    y[:10] = "c"
    empty = np.zeros((0, 2))
    clf = RandomForestClassifier(n_estimators=5, seed=1).fit(X, y)
    assert clf.predict_proba(empty).shape == (0, 3)
    assert clf.predict(empty).shape == (0,)
    assert RandomForestRegressor(n_estimators=5, seed=1).fit(X, X[:, 0]).predict(empty).shape == (0,)
    assert DecisionTreeClassifier().fit(X, y).predict_proba(empty).shape == (0, 3)


def _golden_table(seed, n=240, p=6):
    # the digests of the tests below were taken from the node-by-node
    # classification grower the lockstep one replaced
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    X[:, 1] = np.round(X[:, 1] * 2.0)    # ties
    return rng, X


def _fit_digests(model, queries):
    return _digest(model.predict_proba(queries)), _digest(model.feature_importances_)


def test_ten_class_forest_with_a_tree_missing_a_class_matches_golden_digests():
    rng, X = _golden_table(21)
    y = np.digitize(X[:, 0] + 0.5 * X[:, 2], [-1.6, -1.0, -0.6, -0.2, 0.2, 0.6, 1.0, 1.6])
    y[np.argmax(X[:, 0] + 0.5 * X[:, 2])] = 9            # a class of one row
    clf = RandomForestClassifier(n_estimators=15, seed=4).fit(X, y)
    assert len(clf.classes_) == 10
    assert any(len(tree.classes_) < 10 for tree in clf.trees_)
    assert _fit_digests(clf, rng.normal(size=(60, 6))) == (
        "1b9d6806f77f91fc997d34ce991aa7bc8725d5e58785d5c2f70770cbe2fff022",
        "77468e19b9b51e43a286acbed5a28a73e76b418aa4e52663b730a507ce1cf2e3")


def test_shallow_forest_with_a_split_minimum_matches_golden_digests():
    rng, X = _golden_table(22)
    y = np.where(X[:, 0] * X[:, 3] > 0, "same", "diff")
    clf = RandomForestClassifier(n_estimators=10, max_depth=4, min_samples_split=5,
                                 seed=8).fit(X, y)
    assert _fit_digests(clf, rng.normal(size=(60, 6))) == (
        "f5d349b65e6274bfc7369e380fa88a954ab26ec06b928fa72a75fe49b20d869c",
        "001fde74626771aceb40ddf18c7f9fe6a138b79e57faf19119cefaf857c7be42")


def test_all_feature_forest_without_bootstrap_matches_golden_digests():
    rng, X = _golden_table(23)
    y = np.digitize(X[:, 1] - X[:, 4], [-1.0, 1.0])
    clf = RandomForestClassifier(n_estimators=6, max_features=None, bootstrap=False,
                                 seed=2).fit(X, y)
    assert _fit_digests(clf, rng.normal(size=(60, 6))) == (
        "300e0b5f40ce1e4960793d58a7aee6fd0dd20403db91baa249843ef51d50f8f3",
        "92328cee919e9212fabb7194c94cb04848357db28d5160bd596adbfc61578291")


def test_single_tree_with_two_drawn_features_matches_golden_digests():
    rng, X = _golden_table(24)
    y = np.where(X[:, 5] + X[:, 2] > 0.3, "up", "down")
    tree = DecisionTreeClassifier(max_features=2, seed=6).fit(X, y)
    assert _fit_digests(tree, rng.normal(size=(60, 6))) == (
        "6b9556b9ed5d2d1300ecb18bcc7dcc34d918acd7cb3a3e747e6034ea447f06f7",
        "85baa29b27599ef576251d44bb3b47c24ab0ae3863b3eb3c21deb036199f11fc")


def _reference_tree(X, y, max_depth, min_samples_split, max_features, seed):
    """One classification tree grown node by node, each node's split search
    on its own: the arithmetic the lockstep grower must reproduce bit for bit.

    Returns feature, threshold, left, right, value and the raw importances.
    """
    classes = sorted(set(y.tolist()))
    y = np.array([classes.index(v) for v in y.tolist()], dtype=int)
    XT = np.ascontiguousarray(X.T)
    rng = np.random.default_rng(seed)
    feature, threshold, left, right, value = [], [], [], [], []
    importances = np.zeros(X.shape[1])

    def grow(idx, depth):
        node = len(feature)
        counts = np.bincount(y[idx], minlength=len(classes))
        p = counts / counts.sum()
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(p)
        if len(idx) < min_samples_split or (max_depth is not None and depth >= max_depth):
            return node
        impurity = 1.0 - float((p * p).sum())
        if impurity <= 0.0:
            return node
        n_features = XT.shape[0]
        if max_features is None or max_features >= n_features:
            feats = np.arange(n_features)
        else:
            feats = rng.choice(n_features, size=max_features, replace=False)
        order = idx[XT[feats[:, None], idx].argsort(axis=1, kind="mergesort")]
        xs = XT[feats[:, None], order]
        cum = np.cumsum(y[order][..., None] == np.arange(len(classes)), axis=1)
        n = len(idx)
        n_left = np.arange(1, n)
        n_right = n - n_left
        p_left = cum[:, :-1] / n_left[:, None]
        p_right = (cum[:, -1:] - cum[:, :-1]) / n_right[:, None]
        weighted = (n_left * (1.0 - (p_left * p_left).sum(axis=2))
                    + n_right * (1.0 - (p_right * p_right).sum(axis=2))) / n
        weighted[xs[:, 1:] == xs[:, :-1]] = np.inf
        at = weighted.argmin(axis=1)
        gains = impurity - weighted[np.arange(len(feats)), at]
        j = int(gains.argmax())
        if gains[j] <= 1e-15:
            return node
        cut = float((xs[j, at[j]] + xs[j, at[j] + 1]) / 2.0)
        mask = XT[feats[j], idx] <= cut
        if mask.all() or not mask.any():
            return node
        importances[feats[j]] += (n / len(y)) * gains[j]
        feature[node] = int(feats[j])
        threshold[node] = cut
        left[node] = grow(idx[mask], depth + 1)
        right[node] = grow(idx[~mask], depth + 1)
        return node

    grow(np.arange(len(y)), 0)
    return feature, threshold, left, right, np.array(value), importances


def _reference_regression_tree(X, y, max_depth, min_samples_split, max_features, seed):
    """One regression tree grown node by node on the rows in the order given,
    each node's split search on its own: the arithmetic the lockstep grower
    must reproduce bit for bit.

    Returns feature, threshold, left, right, value and the raw importances.
    """
    XT = np.ascontiguousarray(X.T)
    rng = np.random.default_rng(seed)
    feature, threshold, left, right, value = [], [], [], [], []
    importances = np.zeros(X.shape[1])

    def grow(idx, depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(y[idx].mean()))
        if len(idx) < min_samples_split or (max_depth is not None and depth >= max_depth):
            return node
        impurity = float(y[idx].var())
        if impurity <= 0.0:
            return node
        n_features = XT.shape[0]
        if max_features is None or max_features >= n_features:
            feats = np.arange(n_features)
        else:
            feats = rng.choice(n_features, size=max_features, replace=False)
        order = idx[XT[feats[:, None], idx].argsort(axis=1, kind="mergesort")]
        xs = XT[feats[:, None], order]
        ys = y[order]
        n = len(idx)
        n_left = np.arange(1, n)
        n_right = n - n_left
        s1 = np.cumsum(ys, axis=1)
        s2 = np.cumsum(ys * ys, axis=1)
        lmean = s1[:, :-1] / n_left
        imp_left = s2[:, :-1] / n_left - lmean * lmean
        rmean = (s1[:, -1:] - s1[:, :-1]) / n_right
        imp_right = (s2[:, -1:] - s2[:, :-1]) / n_right - rmean * rmean
        weighted = (n_left * imp_left + n_right * imp_right) / n
        weighted[xs[:, 1:] == xs[:, :-1]] = np.inf
        at = weighted.argmin(axis=1)
        gains = impurity - weighted[np.arange(len(feats)), at]
        j = int(gains.argmax())
        if gains[j] <= 1e-15:
            return node
        cut = float((xs[j, at[j]] + xs[j, at[j] + 1]) / 2.0)
        mask = XT[feats[j], idx] <= cut
        if mask.all() or not mask.any():
            return node
        importances[feats[j]] += (n / len(y)) * gains[j]
        feature[node] = int(feats[j])
        threshold[node] = cut
        left[node] = grow(idx[mask], depth + 1)
        right[node] = grow(idx[~mask], depth + 1)
        return node

    grow(np.arange(len(y)), 0)
    return feature, threshold, left, right, np.array(value), importances


def _assert_equals_reference_tree(tree, X, y, max_depth, min_samples_split, max_features,
                                  seed):
    feature, threshold, left, right, value, importances = _reference_tree(
        X, y, max_depth, min_samples_split, max_features, seed)
    assert tree.classes_.tolist() == sorted(set(y.tolist()))
    assert tree.feature_.tolist() == feature
    assert tree.threshold_.tobytes() == np.array(threshold).tobytes()
    assert tree.left_.tolist() == left and tree.right_.tolist() == right
    assert tree.value_.tobytes() == value.tobytes()
    total = importances.sum()
    expected = importances / total if total > 0 else importances
    assert tree.feature_importances_.tobytes() == expected.tobytes()


eps = np.finfo(float).eps
tie_cell = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 1 + eps, 1 + 2 * eps]),
                     st.floats(min_value=-3, max_value=3))


@given(
    X=arrays(float, st.tuples(st.integers(2, 60), st.integers(1, 5)), elements=tie_cell),
    n_classes=st.sampled_from([1, 2, 3, 8, 10]),
    labels=st.data(),
    n_estimators=st.integers(1, 5),
    bootstrap=st.booleans(),
    max_features=st.sampled_from([None, 1, 2, "sqrt"]),
    max_depth=st.sampled_from([None, 2]),
    min_samples_split=st.sampled_from([2, 5, 12]),
    pass_elements=st.sampled_from([16, 8192, 1 << 14]),
)
def test_lockstep_trees_equal_trees_grown_node_by_node(
        X, n_classes, labels, n_estimators, bootstrap, max_features, max_depth,
        min_samples_split, pass_elements):
    n, p = X.shape
    y = np.array(labels.draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    with mock.patch.object(tree_module, "PASS_ELEMENTS", pass_elements):
        forest = RandomForestClassifier(
            n_estimators=n_estimators, max_depth=max_depth,
            min_samples_split=min_samples_split, max_features=max_features,
            bootstrap=bootstrap, seed=3,
        ).fit(X, y)
    drawn = max(1, int(np.sqrt(p))) if max_features == "sqrt" else max_features
    for i, tree in enumerate(forest.trees_):
        idx = np.random.default_rng(3 + i).integers(0, n, size=n) if bootstrap else np.arange(n)
        _assert_equals_reference_tree(tree, X[idx], y[idx], max_depth, min_samples_split,
                                      drawn, 3 + i)


def _assert_regression_forest_matches_reference(X, y, n_estimators, bootstrap, max_features,
                                                max_depth, min_samples_split, pass_elements):
    n, p = X.shape
    with mock.patch.object(tree_module, "PASS_ELEMENTS", pass_elements):
        forest = RandomForestRegressor(
            n_estimators=n_estimators, max_depth=max_depth,
            min_samples_split=min_samples_split, max_features=max_features,
            bootstrap=bootstrap, seed=3,
        ).fit(X, y)
    drawn = max(1, p // 3) if max_features == "third" else max_features
    for i, tree in enumerate(forest.trees_):
        idx = np.random.default_rng(3 + i).integers(0, n, size=n) if bootstrap else np.arange(n)
        feature, threshold, left, right, value, importances = _reference_regression_tree(
            X[idx], y[idx], max_depth, min_samples_split, drawn, 3 + i)
        assert tree.feature_.tolist() == feature
        assert tree.threshold_.tobytes() == np.array(threshold).tobytes()
        assert tree.left_.tolist() == left and tree.right_.tolist() == right
        assert tree.value_.tobytes() == value.tobytes()
        total = importances.sum()
        expected = importances / total if total > 0 else importances
        assert tree.feature_importances_.tobytes() == expected.tobytes()


y_cell = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, 2.5, 1e16, -1e16]),
                   st.floats(min_value=-3, max_value=3))
forest_options = {
    "bootstrap": st.booleans(),
    "max_features": st.sampled_from([None, 1, 2, "third"]),
    "max_depth": st.sampled_from([None, 2]),
    "min_samples_split": st.sampled_from([2, 5, 12]),
    "pass_elements": st.sampled_from([16, 8192, 1 << 14]),
}


@given(
    X=arrays(float, st.tuples(st.integers(2, 70), st.integers(1, 5)), elements=tie_cell),
    targets=st.data(),
    n_estimators=st.integers(1, 5),
    **forest_options,
)
def test_lockstep_regression_trees_equal_trees_grown_node_by_node(X, targets, **options):
    y = np.array(targets.draw(st.lists(y_cell, min_size=len(X), max_size=len(X))))
    _assert_regression_forest_matches_reference(X, y, **options)


@settings(max_examples=30)
@given(n=st.integers(120, 400), p=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       **forest_options)
def test_lockstep_regression_trees_equal_trees_grown_node_by_node_past_128_rows(
        n, p, seed, **options):
    # numpy sums more than 128 values pairwise in halves, so nodes this
    # large reach the recursive part of each mean and variance
    rng = np.random.default_rng(seed)
    X = np.where(rng.random((n, p)) < 0.5, rng.choice([-1.0, -0.0, 0.0, 1.0, 1 + eps], (n, p)),
                 rng.normal(size=(n, p)))
    y = X[:, 0] * X[:, -1] + rng.normal(size=n)
    y[rng.random(n) < 0.05] = rng.choice([-0.0, 0.0, 1e16, -1e16])
    _assert_regression_forest_matches_reference(X, y, n_estimators=2, **options)


def test_pass_bound_changes_no_tree_of_a_hundred_tree_forest():
    frame = network_frame(n_rows=1500, seed=5)
    X = np.column_stack([np.array(frame.column(name), dtype=float)
                         for name in frame.column_names[2:-1]])
    y = np.array(frame.column("Efficiency_Status"))
    queries = X[::3] + 0.01
    fits = []
    for bound in (16, 1 << 13, tree_module.PASS_ELEMENTS):
        with mock.patch.object(tree_module, "PASS_ELEMENTS", bound):
            forest = RandomForestClassifier(n_estimators=100, seed=1).fit(X, y)
            proba = forest.predict_proba(queries)
        arrays = [a for tree in forest.trees_ for a in (
            tree.feature_, tree.threshold_, tree.left_, tree.right_, tree.value_,
            tree.feature_importances_)]
        fits.append((_digest(np.concatenate([a.reshape(-1).view(np.uint8) for a in arrays])),
                     forest.feature_importances_.tobytes(), proba.tobytes()))
    assert tree_module.PASS_ELEMENTS == 1 << 14
    assert fits[0] == fits[1] == fits[2]


def _fitted_digest(forest):
    """sha256 over every fitted array of every tree, in tree order, then the
    forest's importances."""
    digest = hashlib.sha256()
    for tree in forest.trees_:
        for values in (tree.feature_, tree.threshold_, tree.left_, tree.right_, tree.value_,
                       tree.feature_importances_):
            digest.update(np.ascontiguousarray(values).tobytes())
    digest.update(forest.feature_importances_.tobytes())
    return digest.hexdigest()


def test_fitted_arrays_of_two_forests_match_golden_digests():
    # digests taken from the grower that sorted each pass by two stable radix
    # sorts; they pin the bytes of the trees, not only what the trees predict
    frame = network_frame(n_rows=1500, seed=5)
    X = np.column_stack([np.array(frame.column(name), dtype=float)
                         for name in frame.column_names[2:-1]])
    y = np.array(frame.column("Efficiency_Status"))
    clf = RandomForestClassifier(n_estimators=100, seed=1).fit(X, y)
    assert _fitted_digest(clf) == (
        "51056be5537c346ca8500883b5485fa56667b16d0619636226997c0eff29c21f")

    rng = np.random.default_rng(31)
    X = rng.normal(size=(400, 6))
    X[:, 2] = np.round(X[:, 2] * 2.0)     # ties
    target = X[:, 0] * X[:, 1] + np.sin(X[:, 3]) + rng.normal(0, 0.1, 400)
    reg = RandomForestRegressor(n_estimators=25, seed=2).fit(X, target)
    assert _fitted_digest(reg) == (
        "ec889b3c96143bfb5547b5e6a8fa0fbeb769d36d438e0c51a3b75d7db94161d7")


def test_split_minimum_counts_bootstrap_copies_not_distinct_rows():
    # seed 2 draws rows 0, 2, 3 and 6 twice each: 4 distinct rows, 8 draws
    X = np.column_stack([np.arange(8.0), [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]])
    y = np.array(["a", "b", "a", "b", "a", "b", "a", "b"])
    idx = np.random.default_rng(2).integers(0, 8, size=8)
    assert len(np.unique(idx)) < 6 <= len(idx)
    forest = RandomForestClassifier(n_estimators=1, max_features=None, min_samples_split=6,
                                    seed=2).fit(X, y)
    tree = forest.trees_[0]
    assert tree.feature_[0] >= 0                      # the root splits
    _assert_equals_reference_tree(tree, X[idx], y[idx], None, 6, None, 2)


@pytest.mark.parametrize("bootstrap", [True, False])
def test_lockstep_buffers_hold_each_distinct_row_once_with_its_count(bootstrap):
    rng, X = _golden_table(25, n=50)
    y = rng.integers(0, 3, 50)
    rows = [np.random.default_rng(seed).integers(0, 50, size=50) if bootstrap
            else np.arange(50) for seed in range(4)]
    grower = tree_module._Gini(tree_module.Table(X, y, classify=True), iter(rows), [0, 1, 2, 3],
                               None, 2, 2)
    for g, idx in enumerate(rows):
        at = slice(grower.offsets[g], grower.offsets[g + 1])
        distinct, weights = grower.rows[at], grower.weights[at]
        assert distinct.tolist() == np.unique(idx).tolist()
        assert weights.tolist() == np.bincount(idx)[distinct].tolist()
        assert weights.sum() == len(idx)
        if not bootstrap:
            assert (weights == 1).all()


@pytest.mark.parametrize("forest, kind, target", [
    (RandomForestClassifier, "_Gini", lambda rng: rng.integers(0, 3, 120)),
    (RandomForestRegressor, "_Variance", lambda rng: rng.normal(size=120)),
], ids=["classifier", "regressor"])
def test_hundred_tree_forest_grows_in_one_lockstep_group(forest, kind, target):
    rng, X = _golden_table(26, n=120)
    y = target(rng)
    with mock.patch.object(tree_module, kind, wraps=getattr(tree_module, kind)) as group:
        fitted = forest(n_estimators=100, seed=5).fit(X, y)
    assert group.call_count == 1
    assert len(fitted.trees_) == 100


def _bootstrap_forest_table():
    rng, X = _golden_table(27, n=80)
    return X, rng.integers(0, 4, 80)


@pytest.mark.parametrize("table, model", [
    (_midpoint_table, lambda: DecisionTreeClassifier(seed=0)),
    (_bootstrap_forest_table, lambda: RandomForestClassifier(n_estimators=6, seed=9)),
])
def test_split_puts_rows_at_or_below_the_threshold_left_with_their_weights(table, model):
    X, y = table()
    split = tree_module._Gini._split
    seen = {"splits": 0, "on_a_value": 0}

    def checked_split(self, tree, pending, gains, feature, threshold, *rest):
        node, start, end = pending[:, 0], pending[:, 1], pending[:, 2]
        before = [sorted(zip(self.rows[s:e].tolist(), self.weights[s:e].tolist()))
                  for s, e in zip(start, end)]
        split(self, tree, pending, gains, feature, threshold, *rest)
        n_classes = len(self.table.classes)
        for i, (s, e) in enumerate(zip(start, end)):
            rows, weights = self.rows[s:e], self.weights[s:e]
            assert sorted(zip(rows.tolist(), weights.tolist())) == before[i]
            values = self.table.XT[feature[i], rows]
            goes_left = values <= threshold[i]
            k = int(goes_left.sum())
            assert goes_left[:k].all()          # the left range: a prefix of the node's
            if self.left[node[i]] < 0:           # one side empty: the node stays a leaf
                assert k in (0, len(rows))
                continue
            seen["splits"] += 1
            seen["on_a_value"] += bool((values == threshold[i]).any())
            for child, part in ((self.left[node[i]], slice(0, k)),
                                (self.right[node[i]], slice(k, None))):
                counts = np.bincount(self.table.y[rows[part]], weights=weights[part],
                                     minlength=n_classes)
                assert self.values[child].tolist() == counts.tolist()

    with mock.patch.object(tree_module._Gini, "_split", checked_split):
        model().fit(X, y)
    assert seen["splits"] > 10
    if table is _midpoint_table:
        assert seen["on_a_value"] > 0           # a midpoint rounded onto the upper value


def _regression_midpoint_table():
    X, y = _midpoint_table()
    return X, y * 1.5 + X[:, 1]


def _regression_bootstrap_table():
    rng, X = _golden_table(28, n=80)
    return X, X[:, 0] * X[:, 2] + rng.normal(size=80)


@pytest.mark.parametrize("table, model", [
    (_regression_midpoint_table, lambda: DecisionTreeRegressor(seed=0)),
    (_regression_bootstrap_table, lambda: RandomForestRegressor(n_estimators=6, seed=9)),
], ids=["midpoint", "bootstrap"])
def test_regression_split_keeps_each_side_in_its_parents_order(table, model):
    X, y = table()
    split = tree_module._Variance._split
    seen = {"splits": 0, "on_a_value": 0}

    def checked_split(self, tree, pending, gains, feature, threshold):
        node, start, end = pending[:, 0], pending[:, 1], pending[:, 2]
        before = [self.rows[s:e].copy() for s, e in zip(start, end)]
        split(self, tree, pending, gains, feature, threshold)
        for i, (s, e) in enumerate(zip(start, end)):
            goes_left = self.table.XT[feature[i], before[i]] <= threshold[i]
            parts = (before[i][goes_left], before[i][~goes_left])
            assert self.rows[s:e].tolist() == parts[0].tolist() + parts[1].tolist()
            if self.left[node[i]] < 0:           # one side empty: the node stays a leaf
                assert 0 in (len(parts[0]), len(parts[1]))
                continue
            seen["splits"] += 1
            seen["on_a_value"] += bool((self.table.XT[feature[i], before[i]] == threshold[i]).any())
            for child, rows in zip((self.left[node[i]], self.right[node[i]]), parts):
                assert self.values[child].tobytes() == self.table.y[rows].mean().tobytes()

    with mock.patch.object(tree_module._Variance, "_split", checked_split):
        model().fit(X, y)
    assert seen["splits"] > 10
    if table is _regression_midpoint_table:
        assert seen["on_a_value"] > 0           # a midpoint rounded onto the upper value


def _overflow_table():
    # the sum of 1e308 and 1.7e308 overflows, so their midpoint is inf, and
    # that of -1.7e308 and -1e308 is -inf: neither lies between its values
    rng = np.random.default_rng(1)
    x = rng.choice([-1.7e308, -1e308, 0.0, 1e308, 1.7e308], 200)
    y = (x > 0).astype(int) + (x > 1.5e308) + 3 * (x < -1.5e308)
    return np.column_stack([x, rng.normal(size=200)]), y


def _spy_on_goes_left():
    return mock.patch.object(tree_module._Lockstep, "_goes_left", autospec=True,
                             side_effect=tree_module._Lockstep._goes_left)


@pytest.mark.parametrize("table", [_midpoint_table, _overflow_table])
def test_split_recounts_only_a_node_whose_midpoint_left_its_two_values(table):
    X, y = table()
    with np.errstate(over="ignore"), _spy_on_goes_left() as goes_left:
        tree = DecisionTreeClassifier(seed=0).fit(X, y)
    assert goes_left.call_count > 0
    recounted = np.concatenate([call.args[4] for call in goes_left.call_args_list])
    if table is _overflow_table:
        assert sorted(recounted.tolist()) == [-np.inf, np.inf]
    with np.errstate(over="ignore"):
        _assert_equals_reference_tree(tree, X, y, None, 2, None, 0)


def test_split_takes_every_left_count_from_the_search_when_no_midpoint_moves():
    X, y = _bootstrap_forest_table()
    with _spy_on_goes_left() as goes_left:
        forest = RandomForestClassifier(n_estimators=6, seed=9).fit(X, y)
    assert goes_left.call_count == 0
    assert sum((tree.feature_ >= 0).sum() for tree in forest.trees_) > 50


@pytest.mark.parametrize("model", [DecisionTreeClassifier, DecisionTreeRegressor,
                                   RandomForestClassifier, RandomForestRegressor])
@pytest.mark.parametrize("shape, named", [((0, 2), "0 rows"), ((5, 0), "0 features")])
def test_fit_on_an_empty_table_raises_an_error_that_names_what_is_missing(model, shape, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # no numpy warning on the way
        with pytest.raises(ValueError, match=named):
            model().fit(np.zeros(shape), np.arange(shape[0]) % 2)


@st.composite
def packed_passes(draw):
    """Segment lengths, ranks, a rank bound and spare buffer room for one pass."""
    n = draw(st.one_of(st.integers(1, 300),
                       st.sampled_from([(1 << k) + d for k in range(1, 12) for d in (-1, 0, 1)])))
    if draw(st.booleans()) or n == 1:
        cuts = draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=30)) - {n}
    else:
        cuts = range(1, n)                                  # every segment of length 1
    seg_len = np.diff([0, *sorted(cuts), n])
    n_ranks = draw(st.sampled_from([1, 2, 3, 40, 1 << 16, (1 << 16) + 1]))   # few: ties
    rank = draw(arrays(np.int32, n, elements=st.integers(0, n_ranks - 1)))
    return seg_len, rank, n_ranks, draw(st.integers(0, 5))


@given(packed_passes())
def test_packed_sort_orders_as_a_stable_sort_by_rank_then_by_segment(case):
    seg_len, rank, n_ranks, spare = case
    n, n_seg = len(rank), len(seg_len)
    seg = np.repeat(np.arange(n_seg), seg_len)
    order = lockstep.stable_argsort(rank, n_ranks)
    expected = order[lockstep.stable_argsort(seg[order], n_seg)]
    packed = lockstep.PackedSort(n_seg + spare, n_ranks, n + spare)
    for _ in range(2):                      # the same buffers serve pass after pass
        group = packed.sort(rank, seg_len)
        assert packed.unpack(group, np.empty(n, dtype=np.intp)).tolist() == expected.tolist()
        assert packed.segments(group).tolist() == seg.tolist()
        ranked = rank[expected]
        assert ((group[1:] != group[:-1]).tolist()
                == ((seg[1:] != seg[:-1]) | (ranked[1:] != ranked[:-1])).tolist())


def test_packed_sort_refuses_sizes_whose_key_passes_64_bits():
    assert lockstep.packed_widths(300, 80_000, 152_000) == (9, 17, 18)
    assert lockstep.packed_widths(1 << 30, 1 << 17, 1 << 17) == (30, 17, 17)     # 64 bits
    with pytest.raises(ValueError, match="31 segment, 17 rank and 17 position bits"):
        lockstep.packed_widths((1 << 30) + 1, 1 << 17, 1 << 17)
    with pytest.raises(ValueError, match="60 segment, 4 rank and 2 position bits"):
        lockstep.PackedSort(1 << 60, 16, 4)


n_and_k = st.one_of(
    st.integers(2, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
    st.tuples(st.just(3 << 30), st.integers(1, 4)),     # a Lemire rejection every other call
    st.just((10001, 201)),                               # numpy's tail-shuffle branch
)


@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    n_and_k=n_and_k,
    block=st.integers(1, 9),      # 2k - 1 words a call: odd blocks end on half a PCG64 output
    rounds=st.lists(st.sets(st.integers(0, 3), min_size=1), min_size=1, max_size=25),
)
def test_draw_replay_equals_generator_choice(seeds, n_and_k, block, rounds):
    n, k = n_and_k
    with mock.patch.object(lockstep, "DRAW_BLOCK", block):
        draws = lockstep.Choices(seeds, n, k)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    for chosen in rounds:
        trees = np.array(sorted(g for g in chosen if g < len(seeds)), dtype=np.intp)
        if not len(trees):
            continue
        rows = draws.next(trees)
        for g, row in zip(trees, rows):
            assert row.tolist() == rngs[g].choice(n, k, replace=False).tolist()


def test_draw_replay_takes_the_scalar_path_from_a_rejected_word():
    n, k, calls = 3 << 30, 2, 300
    with mock.patch.object(lockstep, "DRAW_BLOCK", 5):
        draws = lockstep.Choices([7, 8], n, k)
    rngs = [np.random.default_rng(7), np.random.default_rng(8)]
    with mock.patch.object(draws.streams, "numpy", wraps=draws.streams.numpy) as numpy_path:
        for _ in range(calls):
            rows = draws.next(np.arange(2))
            for rng, row in zip(rngs, rows):
                assert row.tolist() == rng.choice(n, k, replace=False).tolist()
    assert numpy_path.call_count > calls // 10
