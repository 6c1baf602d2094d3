"""CART decision trees: Gini impurity for classification, variance
reduction for regression.

A fitted tree is five flat arrays indexed by node id, in depth-first
order with the root at 0: `feature_` (-1 at a leaf), `threshold_`,
`left_`, `right_` (child ids) and `value_` (class-probability rows, or the
leaf means). Rows go left when x <= threshold, where the threshold is the
midpoint between the two straddling values.

Split search scores all of a node's drawn features in one pass: their
values are gathered as one (features, rows) array, each row is sorted
stably, and the impurity at every position comes from cumulative class
counts (or sums of y and y*y). Positions between equal values are ruled
out, the first best boundary is taken per feature and the first best
feature in draw order wins. A classification split hands its left and
right class counts down to the children.
"""

from __future__ import annotations

import numpy as np


class _Grower:
    """Grows one tree depth-first into flat node lists."""

    def __init__(self, X, y, n_classes, max_depth, min_samples_split,
                 max_features, rng):
        self.XT = np.ascontiguousarray(X.T)     # feature-major
        self.y = y
        self.n_classes = n_classes              # 0 for regression
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.rng = rng
        self.importances = np.zeros(X.shape[1])
        self.feature, self.threshold, self.left, self.right, self.value = [], [], [], [], []

    def grow(self, idx, depth, counts=None):
        """Add the subtree over rows `idx`; return its node id.

        `counts` are the rows' class counts when the parent's split search
        already has them.
        """
        node = len(self.feature)
        if self.n_classes:
            if counts is None:
                counts = np.bincount(self.y[idx], minlength=self.n_classes)
            value = p = counts / counts.sum()
        else:
            value = float(self.y[idx].mean())
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        if len(idx) < self.min_samples_split:
            return node
        if self.max_depth is not None and depth >= self.max_depth:
            return node
        impurity = 1.0 - float((p * p).sum()) if self.n_classes else float(self.y[idx].var())
        if impurity <= 0.0:
            return node

        split = self._best_split(idx, impurity)
        if split is None:
            return node
        feature, threshold, gain, n_left, left_counts, right_counts = split
        mask = self.XT[feature, idx] <= threshold
        left_idx = idx[mask]
        right_idx = idx[~mask]
        if len(left_idx) == 0 or len(right_idx) == 0:
            return node
        if len(left_idx) != n_left:
            # the midpoint rounded onto the upper value: recount the children
            left_counts = right_counts = None

        self.importances[feature] += (len(idx) / len(self.y)) * gain
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = self.grow(left_idx, depth + 1, left_counts)
        self.right[node] = self.grow(right_idx, depth + 1, right_counts)
        return node

    def _best_split(self, idx, parent_impurity):
        """(feature, threshold, gain, rows left, left counts, right counts) or None.

        Returns scalars and fresh count rows only, so the per-position
        arrays are freed before the caller recurses.
        """
        n_features = self.XT.shape[0]
        if self.max_features is None or self.max_features >= n_features:
            feats = np.arange(n_features)
        else:
            feats = self.rng.choice(n_features, size=self.max_features, replace=False)

        n = len(idx)
        drawn = feats[:, None]
        order = idx[self.XT[drawn, idx].argsort(axis=1, kind="mergesort")]
        xs = self.XT[drawn, order]                       # (features, rows), sorted
        ys = self.y[order]
        # position b splits the sorted rows into b + 1 left and n - b - 1 right
        n_left = np.arange(1, n)
        n_right = n - n_left
        if self.n_classes:
            cum = np.cumsum(ys[..., None] == np.arange(self.n_classes), axis=1)
            left = cum[:, :-1]
            right = cum[:, -1:] - left
            p_left = left / n_left[:, None]
            p_right = right / n_right[:, None]
            imp_left = 1.0 - (p_left * p_left).sum(axis=2)
            imp_right = 1.0 - (p_right * p_right).sum(axis=2)
        else:
            s1 = np.cumsum(ys, axis=1)
            s2 = np.cumsum(ys * ys, axis=1)
            lmean = s1[:, :-1] / n_left
            imp_left = s2[:, :-1] / n_left - lmean * lmean
            rmean = (s1[:, -1:] - s1[:, :-1]) / n_right
            imp_right = (s2[:, -1:] - s2[:, :-1]) / n_right - rmean * rmean
        weighted = (n_left * imp_left + n_right * imp_right) / n
        weighted[xs[:, 1:] == xs[:, :-1]] = np.inf      # not a boundary
        at = weighted.argmin(axis=1)
        gains = parent_impurity - weighted[np.arange(len(feats)), at]
        j = int(gains.argmax())
        if gains[j] <= 1e-15:
            return None
        b = int(at[j])
        threshold = float((xs[j, b] + xs[j, b + 1]) / 2.0)
        if not self.n_classes:
            return int(feats[j]), threshold, float(gains[j]), b + 1, None, None
        return (int(feats[j]), threshold, float(gains[j]), b + 1,
                cum[j, b].copy(), cum[j, -1] - cum[j, b])


class _Tree:
    """Shared fit and prediction of the two CART estimators."""

    def __init__(self, max_depth=None, min_samples_split=2, max_features=None, seed=0):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed = seed

    def _fit(self, X, y, n_classes):
        X = np.asarray(X, dtype=float)
        grower = _Grower(
            X, y, n_classes, self.max_depth, self.min_samples_split,
            self.max_features, np.random.default_rng(self.seed),
        )
        grower.grow(np.arange(X.shape[0]), depth=0)
        self.feature_ = np.array(grower.feature, dtype=np.intp)
        self.threshold_ = np.array(grower.threshold, dtype=float)
        self.left_ = np.array(grower.left, dtype=np.intp)
        self.right_ = np.array(grower.right, dtype=np.intp)
        self.value_ = np.array(grower.value, dtype=float)
        total = grower.importances.sum()
        self.feature_importances_ = (
            grower.importances / total if total > 0 else grower.importances
        )
        return self

    def _predict_values(self, X):
        """The leaf value each row of X reaches, one tree level at a time."""
        X = np.asarray(X, dtype=float)
        node = np.zeros(X.shape[0], dtype=np.intp)
        active = np.flatnonzero(self.feature_[node] >= 0)
        while active.size:
            at = node[active]
            goes_left = X[active, self.feature_[at]] <= self.threshold_[at]
            node[active] = np.where(goes_left, self.left_[at], self.right_[at])
            active = active[self.feature_[node[active]] >= 0]
        return self.value_[node]


class DecisionTreeClassifier(_Tree):
    def fit(self, X, y):
        y = np.asarray(y)
        self.classes_ = np.array(sorted(set(y.tolist())))
        lookup = {c: i for i, c in enumerate(self.classes_.tolist())}
        y_enc = np.array([lookup[v] for v in y.tolist()], dtype=int)
        return self._fit(X, y_enc, len(self.classes_))

    def predict_proba(self, X):
        # always 2-D, also for a tree that saw a single class
        return self._predict_values(X)

    def predict(self, X):
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]


class DecisionTreeRegressor(_Tree):
    def fit(self, X, y):
        return self._fit(X, np.asarray(y, dtype=float), 0)

    def predict(self, X):
        return self._predict_values(X)
