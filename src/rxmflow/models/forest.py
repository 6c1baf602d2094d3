"""Random forests over the CART trees.

Both forests share one fit loop; they differ only in the tree estimator
and in how tree outputs combine. Each tree gets its own rng seeded
seed + tree_index, so results are bit-identical regardless of how the
trees would be scheduled. Per-split feature subsampling defaults to
sqrt(p) for classification and p // 3 for regression; bootstrap
resampling is on by default.
"""

from __future__ import annotations

import numpy as np

from .tree import DecisionTreeClassifier, DecisionTreeRegressor


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

    def _fit_trees(self, X, y, tree_class):
        X = np.asarray(X, dtype=float)
        n = X.shape[0]
        max_features = _resolve_max_features(self.max_features, X.shape[1])
        self.trees_ = []
        for i in range(self.n_estimators):
            rng = np.random.default_rng(self.seed + i)
            idx = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            tree = tree_class(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                max_features=max_features,
                seed=self.seed + i,
            )
            self.trees_.append(tree.fit(X[idx], y[idx]))
        self.feature_importances_ = _combine_importances(self.trees_)
        return self


class RandomForestClassifier(_Forest):
    def __init__(self, n_estimators=100, max_depth=None, min_samples_split=2,
                 max_features="sqrt", bootstrap=True, seed=0):
        super().__init__(n_estimators, max_depth, min_samples_split,
                         max_features, bootstrap, seed)

    def fit(self, X, y):
        y = np.asarray(y)
        self.classes_ = np.array(sorted(set(y.tolist())))
        return self._fit_trees(X, y, DecisionTreeClassifier)

    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        classes = self.classes_.tolist()
        proba = np.zeros((X.shape[0], len(classes)))
        for tree in self.trees_:
            tree_proba = tree.predict_proba(X)
            # trees grown on a bootstrap may have seen a subset of classes
            cols = [classes.index(c) for c in tree.classes_.tolist()]
            proba[:, cols] += tree_proba
        return proba / len(self.trees_)

    def predict(self, X):
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]


class RandomForestRegressor(_Forest):
    def __init__(self, n_estimators=100, max_depth=None, min_samples_split=2,
                 max_features="third", bootstrap=True, seed=0):
        super().__init__(n_estimators, max_depth, min_samples_split,
                         max_features, bootstrap, seed)

    def fit(self, X, y):
        return self._fit_trees(X, np.asarray(y, dtype=float), DecisionTreeRegressor)

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        preds = np.zeros(X.shape[0])
        for tree in self.trees_:
            preds += tree.predict(X)
        return preds / len(self.trees_)
