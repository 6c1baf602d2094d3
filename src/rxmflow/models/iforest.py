"""Isolation forest with path-length anomaly scores.

Each tree is grown on a subsample of psi = min(256, n) rows drawn without
replacement (per-tree rng seeded seed + tree_index), splitting on a random
feature at a uniform random value until isolation, the height limit
H = max(1, ceil(log2(psi))), or a constant node. A point's path length is
its depth at termination plus c(leaf_size), and the score is

    s(x) = 2 ** (-E[h(x)] / c(psi)),  c(m) = 2 * H(m - 1) - 2 * (m - 1) / m

with H(k) = ln(k) + Euler-Mascheroni. Scores near 1 isolate quickly and are
anomalous; dense duplicates score low.

Flagging: an explicit contamination fraction q flags exactly round(q * n)
rows by descending score, ties broken toward the lower row index; "auto"
flags rows scoring above the documented constant threshold 0.6.

All trees grow in lockstep (`_grow_forest`). Each round takes the next
node of every tree, each tree popping its own depth-first stack (right
child under left), and finds the min and max of every feature over all
those nodes' rows with one segmented reduction per feature.

- Draws. Tree i draws its subsample with
  `default_rng(seed + i).choice(n, psi, replace=False)`. Each split then
  makes `integers(count)` over its `count` non-constant features, none
  when count == 1, and `uniform(lo, hi)` = lo + (hi - lo) * `random()` for
  the threshold. `lockstep.Streams` replays these draws from the rest of
  the tree's PCG64 stream (the stream itself is described in `lockstep`).
- Layout. A tree is a complete binary tree of height H: `feature_` and
  `threshold_` for each of its 2**H - 1 internal slots, the children of
  slot s at 2s + 1 (x < threshold) and 2s + 2, and `path_length_` for each
  of its 2**H bottom slots. A leaf at depth d fills its 2**(H - d) bottom
  slots with d + c(size), so the slots below it need no split.
- Scoring takes H steps per tree over all rows at once and adds the
  trees' path lengths in tree order.

Why the scores are bit-identical to a tree grown node by node: a tree's
stack splits its nodes in the same depth-first order, so it spends its
draws in the same order; min and max are exact in any order; the threshold
is the same float expression numpy computes; a row goes left on the same
`x < threshold` (NaN goes right); and a leaf's path length is the same sum,
added into the total in the same order.
"""

from __future__ import annotations

import math

import numpy as np

from .lockstep import Streams, ranges, stable_argsort

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


def _grow_forest(X, psi, height, seeds):
    """One isolation tree per seed over the rows of X, grown in lockstep.

    Returns `feature` and `threshold` per internal slot and the path length
    per bottom slot, one row per tree.
    """
    n, m = X.shape
    trees = len(seeds)
    XT = np.ascontiguousarray(X.T)      # a node gathers each feature's rows
    rows = np.empty((trees, psi), dtype=np.intp)
    rngs = []
    for t, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rows[t] = rng.choice(n, size=psi, replace=False)
        rngs.append(rng)
    rows = rows.ravel()                 # tree t's nodes are ranges of its psi rows
    draws = Streams(rngs, 2 * psi)      # two outputs per split cover psi - 1 splits
    feature = np.zeros((trees, 2 ** height - 1), dtype=np.intp)
    threshold = np.zeros((trees, 2 ** height - 1))

    # a tree's pending nodes: (start, end, depth, slot), top at sp - 1. Past
    # the roots, only nodes of 2 or more rows above the height limit are
    # stacked; a root of one row has no usable feature and is a leaf.
    stack = np.zeros((trees, height + 1, 4), dtype=np.intp)
    stack[:, 0, 0] = np.arange(trees) * psi
    stack[:, 0, 1] = stack[:, 0, 0] + psi
    sp = np.ones(trees, dtype=np.intp)
    leaves = []                         # (tree, slot, depth, size) per round

    while True:
        t = np.flatnonzero(sp)
        if not t.size:
            break
        sp[t] -= 1
        start, end, depth, slot = stack[t, sp[t]].T
        size = end - start
        seg = np.cumsum(size) - size    # each node's offset in the gathered rows
        idx = rows[ranges(start, size)]
        lo = np.empty((m, len(t)))
        hi = np.empty((m, len(t)))
        for f in range(m):              # one feature at a time bounds the peak
            values = XT[f].take(idx)
            lo[f] = np.minimum.reduceat(values, seg)
            hi[f] = np.maximum.reduceat(values, seg)
        usable = hi > lo
        counts = usable.sum(axis=0)
        split = counts > 0
        if not split.all():
            leaves.append((t[~split], slot[~split], depth[~split], size[~split]))
            keep = np.repeat(split, size)
            idx = idx[keep]
            t, start, depth, slot, size, counts = (
                a[split] for a in (t, start, depth, slot, size, counts))
            lo, hi, usable = lo[:, split], hi[:, split], usable[:, split]
            seg = np.cumsum(size) - size
            if not t.size:
                continue

        pick = np.zeros(len(t), dtype=np.intp)
        several = counts > 1
        pick[several] = draws.integers(t[several], counts[several])
        f = (np.cumsum(usable, axis=0) > pick).argmax(axis=0)    # the pick-th usable feature
        node = np.arange(len(t))
        a, b = lo[f, node], hi[f, node]
        if not np.isfinite(b - a).all():
            raise OverflowError("high - low range exceeds valid bounds")
        cut = a + (b - a) * draws.doubles(t)
        feature[t, slot] = f
        threshold[t, slot] = cut

        # stable partition of each node's rows: those below the cut first
        member = np.repeat(node, size)
        left = XT.ravel().take((f * n)[member] + idx) < cut[member]
        rows[ranges(start, size)] = idx[stable_argsort(2 * member + ~left, 2 * len(t))]
        n_left = np.add.reduceat(left, seg, dtype=np.intp)

        depth = depth + 1
        children = (
            (start + n_left, start + size, 2 * slot + 2),     # right, stacked under left
            (start, start + n_left, 2 * slot + 1),
        )
        top = sp[t]
        for c_start, c_end, c_slot in children:
            c_size = c_end - c_start
            grows = (c_size >= 2) & (depth < height)
            leaves.append((t[~grows], c_slot[~grows], depth[~grows], c_size[~grows]))
            g = np.flatnonzero(grows)
            stack[t[g], top[g]] = np.stack([c_start[g], c_end[g], depth[g], c_slot[g]], 1)
            top = top + grows
        sp[t] = top

    tree, slot, depth, size = (np.concatenate(a) for a in zip(*leaves))
    lengths = depth + average_path_length(np.arange(psi + 1))[size]
    width = 2 ** (height - depth)       # bottom slots under each leaf
    bottom = tree * 2 ** height + (slot - (2 ** depth - 1)) * width
    order = np.argsort(bottom)
    path_length = np.repeat(lengths[order], width[order]).reshape(trees, 2 ** height)
    return feature, threshold, path_length


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
        self.height_ = max(1, math.ceil(math.log2(self.psi_)))
        seeds = range(self.seed, self.seed + self.n_estimators)
        self.feature_, self.threshold_, self.path_length_ = _grow_forest(
            X, self.psi_, self.height_, seeds)
        return self

    def tree_path_lengths(self, X):
        """Each tree's path length for every row of X, tree after tree."""
        X = np.asarray(X, dtype=float)
        n = X.shape[0]
        if not X.shape[1]:
            X = np.zeros((n, 1))        # every tree is one leaf; any column reaches it
        XT = np.ascontiguousarray(X.T)
        flat = XT.ravel()
        rows = np.arange(n)
        bottom = 2 ** self.height_ - 1  # the first bottom slot
        for feature, threshold, lengths in zip(self.feature_, self.threshold_,
                                                self.path_length_):
            column = feature * n        # where each slot's feature starts in flat
            node = 2 - (XT[feature[0]] < threshold[0])     # every row leaves the root
            for _ in range(self.height_ - 1):
                left = flat.take(column.take(node) + rows) < threshold.take(node)
                node *= 2
                node += 2
                node -= left
            yield lengths.take(node - bottom)

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
        for lengths in self.tree_path_lengths(X):
            total += lengths
        expected = total / len(self.feature_)
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
