"""Random forests over the CART trees.

Tree i draws its bootstrap rows with `default_rng(seed + i).integers`,
here as they are read. Its split features are what successive calls of
`default_rng(seed + i).choice(p, k, replace=False)` would draw; the trees
replay those calls from the seed a block at a time (`lockstep.Choices`)
rather than make them. So each tree is the tree it would be if grown alone,
whatever the schedule. A forest grows all its trees in one lockstep group
(`tree.grow`) over one ranked table. The two forests differ in how tree
outputs combine. Per-split feature subsampling defaults to sqrt(p) for
classification and p // 3 for regression; bootstrap resampling is on by
default.

Prediction adds the trees' leaf values (`tree.leaves`) in tree order, so the
sums equal the per-tree ones.
"""

from __future__ import annotations

import numpy as np

from .tree import DecisionTreeClassifier, DecisionTreeRegressor, Table, grow, leaves


def _resolve_max_features(mode, n_features):
    if mode is None:
        return None
    if mode == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if mode == "third":
        return max(1, n_features // 3)
    return int(mode)


def _combine_importances(trees):
    used = [t.feature_importances_ for t in trees if t.feature_importances_.sum() > 0]
    if not used:
        p = trees[0].feature_importances_.shape[0]
        return np.full(p, 1.0 / p)
    mean = np.mean(used, axis=0)
    return mean / mean.sum()


class _Forest:
    def __init__(self, n_estimators, max_depth, min_samples_split, max_features,
                 bootstrap, seed):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed

    def _grow(self, tree_class, table):
        """Grow the trees on `table`, each on its rows (bootstrap or all),
        drawn as they are read."""
        n_features, n_rows = table.XT.shape
        max_features = _resolve_max_features(self.max_features, n_features)
        self.trees_ = [tree_class(max_depth=self.max_depth, max_features=max_features,
                                  min_samples_split=self.min_samples_split, seed=self.seed + i)
                       for i in range(self.n_estimators)]
        rows = (
            np.random.default_rng(self.seed + i).integers(0, n_rows, size=n_rows)
            if self.bootstrap else np.arange(n_rows)
            for i in range(self.n_estimators)
        )
        grow(self.trees_, table, rows)
        self.feature_importances_ = _combine_importances(self.trees_)
        return self


class RandomForestClassifier(_Forest):
    def __init__(self, n_estimators=100, max_depth=None, min_samples_split=2,
                 max_features="sqrt", bootstrap=True, seed=0):
        super().__init__(n_estimators, max_depth, min_samples_split,
                         max_features, bootstrap, seed)

    def fit(self, X, y):
        table = Table(X, y, classify=True)
        self.classes_ = table.classes
        return self._grow(DecisionTreeClassifier, table)

    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        classes = self.classes_.tolist()
        proba = np.zeros((X.shape[0], len(classes)))
        for tree, leaf in leaves(self.trees_, X):
            # trees grown on a bootstrap may have seen a subset of classes
            cols = [classes.index(c) for c in tree.classes_.tolist()]
            proba[:, cols] += tree.value_[leaf]
        return proba / len(self.trees_)

    def predict(self, X):
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]


class RandomForestRegressor(_Forest):
    def __init__(self, n_estimators=100, max_depth=None, min_samples_split=2,
                 max_features="third", bootstrap=True, seed=0):
        super().__init__(n_estimators, max_depth, min_samples_split,
                         max_features, bootstrap, seed)

    def fit(self, X, y):
        return self._grow(DecisionTreeRegressor, Table(X, y, classify=False))

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        preds = np.zeros(X.shape[0])
        for tree, leaf in leaves(self.trees_, X):
            preds += tree.value_[leaf]
        return preds / len(self.trees_)
