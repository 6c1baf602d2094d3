"""Isolation forest with path-length anomaly scores.

Each tree is grown on a subsample of psi = min(256, n) rows drawn without
replacement (per-tree rng seeded seed + tree_index), splitting on a random
feature at a uniform random value until isolation, the height limit
ceil(log2(psi)), or a constant node. A point's path length is its depth at
termination plus c(leaf_size), and the score is

    s(x) = 2 ** (-E[h(x)] / c(psi)),  c(m) = 2 * H(m - 1) - 2 * (m - 1) / m

with H(k) = ln(k) + Euler-Mascheroni. Scores near 1 isolate quickly and are
anomalous; dense duplicates score low.

Flagging: an explicit contamination fraction q flags exactly round(q * n)
rows by descending score, ties broken toward the lower row index; "auto"
flags rows scoring above the documented constant threshold 0.6.
"""

from __future__ import annotations

import math

import numpy as np

AUTO_SCORE_THRESHOLD = 0.6
_EULER_GAMMA = 0.5772156649015329


def valid_contamination(q: float) -> bool:
    """An explicit contamination fraction must lie in (0, 0.5]."""
    return 0.0 < q <= 0.5


def average_path_length(m: int | np.ndarray) -> np.ndarray:
    """c(m): expected path length of an unsuccessful BST search."""
    m = np.atleast_1d(np.asarray(m, dtype=float))
    out = np.zeros_like(m)
    out[m == 2] = 1.0
    big = m > 2
    out[big] = 2.0 * (np.log(m[big] - 1.0) + _EULER_GAMMA) - 2.0 * (m[big] - 1.0) / m[big]
    return out


class _IsoNode:
    __slots__ = ("feature", "threshold", "left", "right", "size")

    def __init__(self, size):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.size = size


def _grow(XT, idx, depth, height_limit, rng):
    """Grow a subtree over the rows idx of X, given as its transpose XT."""
    node = _IsoNode(len(idx))
    if depth >= height_limit or len(idx) <= 1:
        return node
    sub = XT[:, idx]
    mins = sub.min(axis=1)
    maxs = sub.max(axis=1)
    usable = np.nonzero(maxs > mins)[0]
    if usable.size == 0:
        return node
    # draws from rng exactly as rng.choice(usable) does, at a quarter the cost
    f = int(usable[rng.integers(usable.size)])
    threshold = float(rng.uniform(mins[f], maxs[f]))
    node.feature = f
    node.threshold = threshold
    mask = sub[f] < threshold
    node.left = _grow(XT, idx[mask], depth + 1, height_limit, rng)
    node.right = _grow(XT, idx[~mask], depth + 1, height_limit, rng)
    return node


def _tree_path_lengths(root, X):
    """Depth at termination plus c(leaf size), read from one table of c
    over the sizes up to the root's."""
    leaf_lengths = average_path_length(np.arange(root.size + 1))
    lengths = np.zeros(X.shape[0])
    stack = [(root, np.arange(X.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        if idx.size == 0:
            continue
        if node.left is None:
            lengths[idx] = depth + leaf_lengths[node.size]
            continue
        mask = X[idx, node.feature] < node.threshold
        stack.append((node.left, idx[mask], depth + 1))
        stack.append((node.right, idx[~mask], depth + 1))
    return lengths


class IsolationForest:
    def __init__(self, n_estimators=200, contamination="auto", max_samples=256, seed=0):
        self.n_estimators = n_estimators
        self.contamination = contamination
        self.max_samples = max_samples
        self.seed = seed

    def fit(self, X):
        X = np.asarray(X, dtype=float)
        n = X.shape[0]
        self.psi_ = min(self.max_samples, n)
        height_limit = max(1, math.ceil(math.log2(self.psi_)))
        XT = np.ascontiguousarray(X.T)    # a node gathers its rows as columns
        self.trees_ = []
        for i in range(self.n_estimators):
            rng = np.random.default_rng(self.seed + i)
            sample = rng.choice(n, size=self.psi_, replace=False)
            self.trees_.append(
                _grow(XT, sample, 0, height_limit, rng)
            )
        return self

    def score_samples(self, X):
        """Anomaly scores s(x) in (0, 1]; higher is more anomalous.

        A forest fitted to one row has c(psi) = 0 and no path to compare:
        every row scores 0.5, the "no distinct anomaly" value.
        """
        X = np.asarray(X, dtype=float)
        c_psi = average_path_length(self.psi_)[0]
        if c_psi == 0.0:
            return np.full(X.shape[0], 0.5)
        total = np.zeros(X.shape[0])
        for root in self.trees_:
            total += _tree_path_lengths(root, X)
        expected = total / len(self.trees_)
        return 2.0 ** (-expected / c_psi)

    def flag(self, scores) -> np.ndarray:
        """Boolean anomaly flags per the contamination policy."""
        scores = np.asarray(scores, dtype=float)
        n = scores.shape[0]
        if self.contamination == "auto":
            return scores > AUTO_SCORE_THRESHOLD
        q = float(self.contamination)
        k = int(round(q * n))
        flags = np.zeros(n, dtype=bool)
        if k <= 0:
            return flags
        order = np.lexsort((np.arange(n), -scores))
        flags[order[:k]] = True
        return flags
