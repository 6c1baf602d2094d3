"""CART decision trees: Gini impurity for classification, variance
reduction for regression.

Split search is vectorized per node: each candidate feature is sorted once
and impurity is evaluated at every boundary between distinct values via
cumulative sums. Left branch takes x <= threshold, where the threshold is
the midpoint between the two straddling values.
"""

from __future__ import annotations

import numpy as np


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value", "n_samples")

    def __init__(self, value, n_samples):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.value = value          # class-probability vector or mean target
        self.n_samples = n_samples

    @property
    def is_leaf(self):
        return self.left is None


def _gini_from_counts(counts, totals):
    # counts: (boundaries, classes); totals: (boundaries,)
    with np.errstate(invalid="ignore", divide="ignore"):
        p = counts / totals[:, None]
    return 1.0 - np.nansum(p * p, axis=1)


class _TreeBuilder:
    def __init__(self, classification, n_classes, max_depth, min_samples_split,
                 max_features, rng):
        self.classification = classification
        self.n_classes = n_classes
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.rng = rng
        self.importances = None

    def build(self, X, y):
        self.X = X
        self.y = y
        self.n_total = X.shape[0]
        self.importances = np.zeros(X.shape[1])
        return self._grow(np.arange(X.shape[0]), depth=0)

    def _leaf_value(self, idx):
        if self.classification:
            counts = np.bincount(self.y[idx], minlength=self.n_classes)
            return counts / counts.sum()
        return float(self.y[idx].mean())

    def _node_impurity(self, idx):
        if self.classification:
            counts = np.bincount(self.y[idx], minlength=self.n_classes)
            p = counts / counts.sum()
            return 1.0 - float(np.sum(p * p))
        return float(self.y[idx].var())

    def _grow(self, idx, depth):
        node = _Node(self._leaf_value(idx), len(idx))
        if len(idx) < self.min_samples_split:
            return node
        if self.max_depth is not None and depth >= self.max_depth:
            return node
        impurity = self._node_impurity(idx)
        if impurity <= 0.0:
            return node

        split = self._best_split(idx, impurity)
        if split is None:
            return node
        feature, threshold, gain = split
        mask = self.X[idx, feature] <= threshold
        left_idx = idx[mask]
        right_idx = idx[~mask]
        if len(left_idx) == 0 or len(right_idx) == 0:
            return node

        self.importances[feature] += (len(idx) / self.n_total) * gain
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(left_idx, depth + 1)
        node.right = self._grow(right_idx, depth + 1)
        return node

    def _best_split(self, idx, parent_impurity):
        n_features = self.X.shape[1]
        if self.max_features is None or self.max_features >= n_features:
            feats = np.arange(n_features)
        else:
            feats = self.rng.choice(n_features, size=self.max_features, replace=False)

        n = len(idx)
        best = None   # (gain, feature, threshold)
        y = self.y[idx]
        for f in feats:
            x = self.X[idx, f]
            order = np.argsort(x, kind="mergesort")
            xs = x[order]
            boundaries = np.nonzero(xs[1:] != xs[:-1])[0]
            if boundaries.size == 0:
                continue
            n_left = boundaries + 1
            n_right = n - n_left
            if self.classification:
                onehot = np.zeros((n, self.n_classes))
                onehot[np.arange(n), y[order]] = 1.0
                cum = np.cumsum(onehot, axis=0)
                left_counts = cum[boundaries]
                right_counts = cum[-1] - left_counts
                imp_left = _gini_from_counts(left_counts, n_left.astype(float))
                imp_right = _gini_from_counts(right_counts, n_right.astype(float))
            else:
                ys = y[order].astype(float)
                s1 = np.cumsum(ys)
                s2 = np.cumsum(ys * ys)
                lmean = s1[boundaries] / n_left
                imp_left = s2[boundaries] / n_left - lmean * lmean
                rsum = s1[-1] - s1[boundaries]
                rsq = s2[-1] - s2[boundaries]
                rmean = rsum / n_right
                imp_right = rsq / n_right - rmean * rmean
            weighted = (n_left * imp_left + n_right * imp_right) / n
            i = int(np.argmin(weighted))
            gain = parent_impurity - float(weighted[i])
            if gain <= 1e-15:
                continue
            if best is None or gain > best[0]:
                b = boundaries[i]
                best = (gain, int(f), float((xs[b] + xs[b + 1]) / 2.0))
        if best is None:
            return None
        gain, feature, threshold = best
        return feature, threshold, gain


def _predict_values(root, X, out):
    """Fill `out` (one row per row of X) with the leaf value each row reaches."""
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.value
            continue
        mask = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))
    return out


class DecisionTreeClassifier:
    def __init__(self, max_depth=None, min_samples_split=2, max_features=None, seed=0):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed = seed

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        self.classes_ = np.array(sorted(set(y.tolist())))
        lookup = {c: i for i, c in enumerate(self.classes_.tolist())}
        y_enc = np.array([lookup[v] for v in y.tolist()], dtype=int)
        builder = _TreeBuilder(
            classification=True,
            n_classes=len(self.classes_),
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            max_features=self.max_features,
            rng=np.random.default_rng(self.seed),
        )
        self.root_ = builder.build(X, y_enc)
        total = builder.importances.sum()
        self.feature_importances_ = (
            builder.importances / total if total > 0 else builder.importances
        )
        return self

    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        # always 2-D, also for a tree that saw a single class
        return _predict_values(self.root_, X, np.empty((X.shape[0], len(self.classes_))))

    def predict(self, X):
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]


class DecisionTreeRegressor:
    def __init__(self, max_depth=None, min_samples_split=2, max_features=None, seed=0):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed = seed

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        builder = _TreeBuilder(
            classification=False,
            n_classes=0,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            max_features=self.max_features,
            rng=np.random.default_rng(self.seed),
        )
        self.root_ = builder.build(X, y)
        total = builder.importances.sum()
        self.feature_importances_ = (
            builder.importances / total if total > 0 else builder.importances
        )
        return self

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        return _predict_values(self.root_, X, np.empty(X.shape[0]))
