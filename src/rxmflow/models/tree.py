"""CART decision trees: Gini impurity for classification, variance
reduction for regression.

A fitted tree is five flat arrays indexed by node id, in depth-first
order with the root at 0: `feature_` (-1 at a leaf), `threshold_`,
`left_`, `right_` (child ids) and `value_` (class-probability rows, or the
leaf means). Rows go left when x <= threshold, where the threshold is the
midpoint between the two straddling values.

A split search scores every drawn feature of a node: the node's rows are
sorted by each feature's value, the impurity at every position between two
different values comes from cumulative class counts (or sums of y and
y*y), the first best position is taken per feature and the first best
feature in draw order wins.

Classification trees grow in lockstep, a group at a time (`grow_classifiers`).
Each tree keeps its own depth-first stack and its own rng, so it draws its
features in the same order and numbers its nodes in preorder as it would
alone. Each round takes the next node to search from every tree of the
group and scores all of them in one pass over flat arrays, one segment per
(node, drawn feature):

- values are replaced by their dense rank over the whole table, so one
  stable 16-bit radix sort by rank and a second by segment order every
  segment at once;
- class counts are prefix sums per class over the pass, made relative to
  each segment's start; they are integers, so exact;
- the Gini terms use the same float expressions, summed over a tree's own
  classes in the order a per-node `.sum()` takes (left to right below 8
  classes, numpy's pairwise order from 8 on), so the trees are
  bit-identical to trees searched one node at a time.

A node is a [start, end) range of its tree's row buffer; a split
partitions that range in place. A split hands its children their class
counts, unless the midpoint rounded onto the upper value, when the
children are counted from their rows.

Regression trees grow one node at a time (`_Grower`): flat cumulative sums
of float y across segments would round differently.
"""

from __future__ import annotations

import numpy as np

GROUP_TREES = 25          # classification trees grown in lockstep
PASS_ELEMENTS = 1 << 13   # (feature, row) elements per pass, past its first node


class _Grower:
    """Grows one regression tree depth-first into flat node lists."""

    def __init__(self, X, y, max_depth, min_samples_split, max_features, rng):
        self.XT = np.ascontiguousarray(X.T)     # feature-major
        self.y = y
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.rng = rng
        self.importances = np.zeros(X.shape[1])
        self.feature, self.threshold, self.left, self.right, self.value = [], [], [], [], []

    def grow(self, idx, depth):
        """Add the subtree over rows `idx`; return its node id."""
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(float(self.y[idx].mean()))
        if len(idx) < self.min_samples_split:
            return node
        if self.max_depth is not None and depth >= self.max_depth:
            return node
        impurity = float(self.y[idx].var())
        if impurity <= 0.0:
            return node

        split = self._best_split(idx, impurity)
        if split is None:
            return node
        feature, threshold, gain = split
        mask = self.XT[feature, idx] <= threshold
        left_idx = idx[mask]
        right_idx = idx[~mask]
        if len(left_idx) == 0 or len(right_idx) == 0:
            return node

        self.importances[feature] += (len(idx) / len(self.y)) * gain
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = self.grow(left_idx, depth + 1)
        self.right[node] = self.grow(right_idx, depth + 1)
        return node

    def _best_split(self, idx, parent_impurity):
        """(feature, threshold, gain) or None.

        Returns scalars only, so the per-position arrays are freed before
        the caller recurses.
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
        return int(feats[j]), threshold, float(gains[j])


class ClassTable:
    """A classification training table in the form the lockstep grower reads.

    `XT` is X feature-major, `ranks` the dense rank of each value within its
    feature (ties share a rank, and so do -0.0 and 0.0) and `y` the class
    codes, indices into `classes`. X holds no NaN: the pipeline imputes
    every gap before a model sees the matrix.
    """

    def __init__(self, X, y):
        y = np.asarray(y)
        self.classes = np.array(sorted(set(y.tolist())))
        lookup = {c: i for i, c in enumerate(self.classes.tolist())}
        self.y = np.array([lookup[v] for v in y.tolist()], dtype=np.intp)
        self.XT = np.ascontiguousarray(np.asarray(X, dtype=float).T)
        inverse = [np.unique(values, return_inverse=True)[1] for values in self.XT]
        self.ranks = np.array(inverse, dtype=np.int32).reshape(self.XT.shape)
        self.n_ranks = int(self.ranks.max()) + 1 if self.ranks.size else 1


def _stable_argsort(key, top):
    """Stable argsort of non-negative integers below `top`, 16 bits a pass."""
    order = np.argsort(key.astype(np.uint16), kind="stable")   # a radix sort
    shift = 16
    while top > 1 << shift:
        digit = (key[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def _square_sums(p, owner, own):
    """Sum of p * p down each column of the class-major `p`.

    Column i belongs to tree `owner[i]` and is summed over that tree's
    classes `own[owner[i]]` in the order its per-node `.sum()` takes.
    """
    sq = p * p
    if len(sq) < 8:
        return sq.sum(axis=0)       # left to right; a class the tree lacks adds +0.0
    out = np.empty(sq.shape[1])
    for g in np.unique(owner):      # pairwise order over the tree's own classes
        cols = np.flatnonzero(owner == g)
        out[cols] = np.ascontiguousarray(sq[np.ix_(own[g], cols)].T).sum(axis=1)
    return out


def _ranges(starts, lengths):
    """The positions start, start + 1, ... of each range, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) - np.repeat(ends - lengths - starts, lengths)


def _run_starts(values):
    """Mask of the positions where a run of equal values starts."""
    starts = np.empty(len(values), dtype=bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def _first_per_group(hits, group):
    """The first of the sorted `hits` in each run of equal `group[hits]`."""
    return hits[_run_starts(group[hits])]


class _Nodes:
    """One tree's node fields, in arrays that double when full."""

    def __init__(self, n_classes):
        self.size = 0
        self.feature = np.full(64, -1, dtype=np.int32)
        self.threshold = np.zeros(64)
        self.children = np.full((2, 64), -1, dtype=np.int32)     # left, right
        self.counts = np.zeros((64, n_classes), dtype=np.int32)

    def add(self, parent, side, counts):
        """Number the next node, link it to its parent and return its id."""
        node = self.size
        if node == len(self.feature):
            self.feature = np.concatenate([self.feature, np.full_like(self.feature, -1)])
            self.threshold = np.concatenate([self.threshold, np.zeros_like(self.threshold)])
            self.children = np.concatenate(
                [self.children, np.full_like(self.children, -1)], axis=1)
            self.counts = np.concatenate([self.counts, np.zeros_like(self.counts)])
        self.size = node + 1
        if parent >= 0:
            self.children[side, parent] = node
        self.counts[node] = counts
        return node


class _Lockstep:
    """Grows a group of classification trees, one searched node per tree per round.

    Tree g's rows (indices into the table) are row g of `buf`.
    """

    def __init__(self, table, rows, seeds, max_depth, min_samples_split, max_features):
        self.table = table
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        n_features = table.XT.shape[0]
        self.all_features = np.arange(n_features)
        draws = max_features is not None and max_features < n_features
        self.draw = max_features if draws else None
        self.rngs = [np.random.default_rng(seed) for seed in seeds]
        self.buf = np.array(rows, dtype=np.int32).reshape(len(rows), -1)
        self.flat = self.buf.reshape(-1)                # a view: splits write through
        n_trees, n_rows = self.buf.shape
        n_classes = len(table.classes)
        counts = np.array([np.bincount(table.y[r], minlength=n_classes) for r in self.buf],
                          dtype=np.intp).reshape(n_trees, n_classes).T
        self.own = [np.flatnonzero(c) for c in counts.T]
        impurity = self._impurity(counts, np.arange(n_trees))
        # a pending node: start, end, depth, parent, side (0 left), counts, impurity
        self.stacks = [[(0, n_rows, 0, -1, 0, counts[:, g], impurity[g])]
                       for g in range(n_trees)]
        self.nodes = [_Nodes(n_classes) for _ in range(n_trees)]
        self.importances = np.zeros((n_trees, n_features))

    def _impurity(self, counts, owner):
        """Gini impurity of each class-count column of tree `owner`."""
        return 1.0 - _square_sums(counts / counts.sum(axis=0), owner, self.own)

    def grow(self):
        active = list(range(len(self.stacks)))
        while active:
            batch, elements = [], 0
            for g in active:
                node = self._next_searched(g)
                if node is None:
                    continue
                size = (node[3] - node[2]) * len(node[4])
                if batch and elements + size > PASS_ELEMENTS:
                    self._search(batch)
                    batch, elements = [], 0
                batch.append(node)
                elements += size
            if batch:
                self._search(batch)
            active = [g for g in active if self.stacks[g]]
        return self

    def _next_searched(self, g):
        """Number tree g's pending nodes until one needs a split search.

        Returns (tree, node, start, end, drawn features, impurity, depth),
        or None when the tree is complete.
        """
        stack = self.stacks[g]
        while stack:
            start, end, depth, parent, side, counts, impurity = stack.pop()
            node = self.nodes[g].add(parent, side, counts)
            if end - start < self.min_samples_split:
                continue
            if self.max_depth is not None and depth >= self.max_depth:
                continue
            if impurity <= 0.0:
                continue
            if self.draw is None:
                feats = self.all_features
            else:
                feats = self.rngs[g].choice(len(self.all_features), size=self.draw,
                                            replace=False)
            return g, node, start, end, feats, impurity, depth
        return None

    def _search(self, batch):
        """Score every drawn feature of the batch's nodes in one pass; split them."""
        table = self.table
        n_rows, n_table = self.buf.shape[1], table.XT.shape[1]
        tree = np.array([b[0] for b in batch])
        start = np.array([b[2] for b in batch])
        size = np.array([b[3] for b in batch]) - start
        impurity = np.array([b[5] for b in batch])
        drawn = np.array([len(b[4]) for b in batch])

        # one segment per (node, drawn feature), in draw order
        seg_node = np.repeat(np.arange(len(batch)), drawn)
        seg_feat = np.concatenate([b[4] for b in batch])
        seg_len = size[seg_node]
        seg_end = np.cumsum(seg_len)
        seg_start = seg_end - seg_len
        seg = np.repeat(np.arange(len(seg_len)), seg_len)
        rows = self.flat[_ranges((tree * n_rows + start)[seg_node], seg_len)]
        rank = table.ranks.reshape(-1)[seg_feat[seg] * n_table + rows]
        order = _stable_argsort(rank, table.n_ranks)
        order = order[_stable_argsort(seg[order], len(seg_len))]
        rows, rank = rows[order], rank[order]

        # class counts left of each position, relative to its segment's start
        cum = np.cumsum(table.y[rows] == np.arange(len(table.classes))[:, None], axis=1)
        base = cum[:, seg_start - 1]
        base[:, 0] = 0
        total = cum[:, seg_end - 1] - base
        # a boundary: the next row is in the same segment and has a larger value
        at = np.flatnonzero((rank[1:] != rank[:-1]) & (seg[1:] == seg[:-1]))
        if not len(at):
            return
        at_seg = seg[at]
        owner = tree[seg_node[at_seg]]
        left = cum[:, at] - base[:, at_seg]
        right = total[:, at_seg] - left
        n_left = at + 1 - seg_start[at_seg]
        n_right = seg_len[at_seg] - n_left
        imp_left = 1.0 - _square_sums(left / n_left, owner, self.own)
        imp_right = 1.0 - _square_sums(right / n_right, owner, self.own)
        weighted = (n_left * imp_left + n_right * imp_right) / seg_len[at_seg]

        # the first best boundary of each segment, then each node's first best segment
        starts = _run_starts(at_seg)
        firsts = np.flatnonzero(starts)
        scored = at_seg[firsts]
        low = np.minimum.reduceat(weighted, firsts)
        hits = np.flatnonzero(weighted == low[np.cumsum(starts) - 1])
        gain = np.full(len(seg_len), -np.inf)
        gain[scored] = impurity[seg_node[scored]] - low
        best_at = np.zeros(len(seg_len), dtype=np.intp)
        best_at[scored] = at[_first_per_group(hits, at_seg)]
        seg_first = np.cumsum(drawn) - drawn
        best = np.maximum.reduceat(gain, seg_first)
        winner = _first_per_group(np.flatnonzero(gain == best[seg_node]), seg_node)
        split = np.flatnonzero(best > 1e-15)
        if not len(split):
            return
        self._split([batch[i] for i in split], winner[split], best[split],
                    seg_feat, seg_start, best_at, rows, cum, base, total)

    def _split(self, nodes, segs, gains, seg_feat, seg_start, best_at, rows, cum, base, total):
        """Partition each node's rows at its winning boundary and stack its children."""
        table = self.table
        n_rows, n_table = self.buf.shape[1], table.XT.shape[1]
        XT = table.XT.reshape(-1)
        tree = np.array([b[0] for b in nodes])
        start = np.array([b[2] for b in nodes])
        size = np.array([b[3] for b in nodes]) - start
        b = best_at[segs]
        feature = seg_feat[segs]
        threshold = (XT[feature * n_table + rows[b]] + XT[feature * n_table + rows[b + 1]]) / 2.0
        n_left = b + 1 - seg_start[segs]
        left = cum[:, b] - base[:, segs]
        right = total[:, segs] - left

        # stable in-place partition of every node's range: x <= threshold first
        where = _ranges(tree * n_rows + start, size)
        member = np.repeat(np.arange(len(nodes)), size)
        values = self.flat[where]
        goes_left = XT[feature[member] * n_table + values] <= threshold[member]
        self.flat[where] = values[_stable_argsort(2 * member + ~goes_left, 2 * len(nodes))]
        n_goes = np.bincount(member[goes_left], minlength=len(nodes))

        keep = np.flatnonzero((n_goes > 0) & (n_goes < size))
        for i in keep[n_goes[keep] != n_left[keep]]:
            # the midpoint rounded onto the upper value: count the children's rows
            g, mid, end = tree[i], start[i] + n_goes[i], start[i] + size[i]
            left[:, i] = np.bincount(table.y[self.buf[g, start[i]:mid]], minlength=len(left))
            right[:, i] = np.bincount(table.y[self.buf[g, mid:end]], minlength=len(left))
        child_impurity = self._impurity(
            np.concatenate([left[:, keep], right[:, keep]], axis=1), np.tile(tree[keep], 2))
        self.importances[tree[keep], feature[keep]] += (size[keep] / n_rows) * gains[keep]
        child_impurity = child_impurity.tolist()
        feature, threshold = feature.tolist(), threshold.tolist()
        starts, mids, ends = start.tolist(), (start + n_goes).tolist(), (start + size).tolist()
        for j, i in enumerate(keep.tolist()):
            g, node, depth = nodes[i][0], nodes[i][1], nodes[i][6] + 1
            self.nodes[g].feature[node] = feature[i]
            self.nodes[g].threshold[node] = threshold[i]
            stack = self.stacks[g]
            stack.append((mids[i], ends[i], depth, node, 1, right[:, i],
                          child_impurity[len(keep) + j]))
            stack.append((starts[i], mids[i], depth, node, 0, left[:, i], child_impurity[j]))

    def fill(self, trees):
        """Trim each tree's node arrays into its estimator."""
        classes = self.table.classes
        for g, tree in enumerate(trees):
            nodes, own = self.nodes[g], self.own[g]
            self.nodes[g] = None                 # free the spare capacity tree by tree
            k = nodes.size
            tree.classes_ = np.array(classes[own].tolist())
            tree.feature_ = nodes.feature[:k].copy()
            tree.threshold_ = nodes.threshold[:k].copy()
            tree.left_ = nodes.children[0, :k].copy()
            tree.right_ = nodes.children[1, :k].copy()
            counts = nodes.counts[:k, own]
            tree.value_ = counts / counts.sum(axis=1, keepdims=True)
            tree.feature_importances_ = _normalized(self.importances[g])


def grow_classifiers(trees, table, rows):
    """Fit each DecisionTreeClassifier of `trees` on its rows of `table`.

    `rows` iterates over the trees' row indices, in tree order; it is read
    one group at a time. The trees share max_depth, min_samples_split and
    max_features, and each draws its features from default_rng(tree.seed).
    """
    rows = iter(rows)
    for first in range(0, len(trees), GROUP_TREES):
        group = trees[first:first + GROUP_TREES]
        t = group[0]
        _Lockstep(
            table, [next(rows) for _ in group], [tree.seed for tree in group],
            t.max_depth, t.min_samples_split, t.max_features,
        ).grow().fill(group)


def _normalized(importances):
    total = importances.sum()
    return importances / total if total > 0 else importances


class _Tree:
    """Hyperparameters and prediction shared by the two CART estimators."""

    def __init__(self, max_depth=None, min_samples_split=2, max_features=None, seed=0):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed = seed

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
        table = ClassTable(X, y)
        grow_classifiers([self], table, [np.arange(len(table.y))])
        return self

    def predict_proba(self, X):
        # always 2-D, also for a tree that saw a single class
        return self._predict_values(X)

    def predict(self, X):
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]


class DecisionTreeRegressor(_Tree):
    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        grower = _Grower(
            X, np.asarray(y, dtype=float), self.max_depth, self.min_samples_split,
            self.max_features, np.random.default_rng(self.seed),
        )
        grower.grow(np.arange(X.shape[0]), depth=0)
        self.feature_ = np.array(grower.feature, dtype=np.int32)
        self.threshold_ = np.array(grower.threshold, dtype=float)
        self.left_ = np.array(grower.left, dtype=np.int32)
        self.right_ = np.array(grower.right, dtype=np.int32)
        self.value_ = np.array(grower.value, dtype=float)
        self.feature_importances_ = _normalized(grower.importances)
        return self

    def predict(self, X):
        return self._predict_values(X)
