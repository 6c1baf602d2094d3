"""CART decision trees: Gini impurity for classification, variance
reduction for regression.

A fitted tree is five flat arrays indexed by node id, in depth-first
order with the root at 0: `feature_` (-1 at a leaf), `threshold_`,
`left_`, `right_` (child ids) and `value_` (class-probability rows, or the
leaf means). Rows go left when x <= threshold, where the threshold is the
midpoint between the two straddling values. Prediction (`leaves`) walks a
block of trees at once, one level at a time.

A split search scores every drawn feature of a node: the node's rows are
sorted by each feature's value, the impurity at every position between two
different values comes from cumulative class counts (or sums of y and
y*y), the first best position is taken per feature and the first best
feature in draw order wins.

Trees grow in lockstep, every tree of a fit in one group (`grow`). Each
round takes the next node to search from every tree of the group and
scores them in passes over flat arrays, one segment per (node, drawn
feature). No step of a round is taken once per node in Python. A pass
holds PASS_ELEMENTS (feature, row) elements past its first node: each pass
has a fixed cost, and 2^14 makes about 40% fewer passes than 2^13 on a
table of a few thousand rows. Which pass a node falls in changes no tree,
since each node is scored in its own segments. A pass's large arrays are
views of buffers the group allocates once, for the largest pass it can
make: the C allocator hands the free top of its heap back to the system
once it passes a trim threshold, and a pass that took its arrays anew
would then fault again on every page it touches. The two kinds, `_Gini`
and `_Variance`, share the group (`_Lockstep`) and differ only in what a
tree's buffer holds, how a boundary is scored, how a split orders its rows
and what a node keeps.

- Draws. A tree's feature draws are the successive calls
  `default_rng(seed).choice(n_features, k, replace=False)`. With n_features
  and k fixed for a fit they depend on the seed alone, so
  `lockstep.Choices` replays them from the seed's PCG64 stream, a block of
  calls per tree at a time (the stream itself is described in `lockstep`).
- Rows. A tree's rows sit in one preallocated flat buffer for the group,
  each with an integer weight. A node's size is the sum of its weights, so
  `min_samples_split`, the impurity terms and the importances count
  bootstrap copies, as a tree grown on the bootstrap itself does.
- Node state. The nodes of a group share flat arrays, allocated once at
  2d - 1 nodes for a tree of d rows, of which only the nodes made are
  written. Each tree stacks the nodes it has yet to search. `fill`
  renumbers each tree into preorder from subtree sizes summed level by
  level.

What keeps every tree bit-identical to one grown node by node on the
bootstrap, copies and all:

- a tree's stack pops its searched nodes in the same depth-first order, so
  it spends its draws in the same order;
- values are replaced by their dense rank over the whole table, and one
  in-place sort of 64-bit keys that pack segment, rank and position
  (`lockstep.PackedSort`) orders every segment of a pass at once, ties by
  position as a stable sort by rank leaves them; copies of a row share its
  rank, so the boundaries between ranks are the same, in the same order,
  and the first best one and its midpoint threshold do not change;
- every score is the same float expression on the same numbers.

Classification. A tree holds the distinct rows of its bootstrap, each once,
weighted by its draw count; copies go the same way at every split, so the
search and the split skip them (scikit-learn's `n_node_samples` counts
distinct rows; matching it would change the trees). Class counts are
prefix sums of the weights per class over the pass, relative to each
segment's start: integers, so exact and equal to counts of the copies, kept
element-major so that a boundary reads one contiguous row; a last column
sums all weights, the size left of the boundary. The Gini terms are summed
over a tree's own classes in the order a per-node `.sum()` takes (left to
right below 8 classes, numpy's pairwise order from 8 on).
The search returns each splitting node's rows sorted by its winning
feature, and the split writes them back, weights alongside: over ascending
values x <= threshold is a prefix, so the children are its two parts. Row
order inside a node changes no tree, as the counts are integer sums and
rows that share a rank share a value (-0.0 and 0.0 aside, whose midpoints
read the same). The prefix's length is the search's count of distinct rows
below the winning boundary, whose straddling values are lo < hi: rounding
is monotone, so (lo + hi) / 2 lands in [lo, hi], and while it stays below
hi every row up to the boundary goes left and every row past it right. So
a split takes its children's sizes and class counts from the search, and
counts rows (`_goes_left`) only for a node whose threshold is not in
[lo, hi): the midpoint rounded onto hi, or lo + hi overflowed to +-inf.

Regression. Float sums of y depend on the order and grouping of their
terms, so a tree holds every row of its bootstrap, copies included, in
bootstrap order, each of weight 1 (adding y twice rounds differently from
adding 2y). A split partitions each node stably by x <= threshold, so its
rows keep the order a node-by-node grower's `idx[mask]` gives, and the
rank sort breaks ties as that grower's stable sort does. Sums that run
across ranges would round differently, so the running sums of y and y*y in
a segment, and a new node's mean and variance, come from a (ranges,
length) block of the ranges that share a length, summed along its rows as
numpy sums each range alone.
"""

from __future__ import annotations

import numpy as np

from .lockstep import Choices, PackedSort, ranges, stable_argsort

PASS_ELEMENTS = 1 << 14   # (feature, row) elements per pass, past its first node


class Table:
    """A training table in the form the lockstep grower reads.

    `XT` is X feature-major and `ranks` the dense rank of each value within
    its feature (ties share a rank, and so do -0.0 and 0.0). `y` holds the
    class codes, indices into `classes`, or, with `classes` None, the float
    targets. X holds no NaN: the pipeline imputes every gap before a model
    sees the matrix.
    """

    def __init__(self, X, y, classify):
        if classify:
            y = np.asarray(y)
            self.classes = np.array(sorted(set(y.tolist())))
            lookup = {c: i for i, c in enumerate(self.classes.tolist())}
            self.y = np.array([lookup[v] for v in y.tolist()], dtype=np.intp)
        else:
            self.classes, self.y = None, np.asarray(y, dtype=float)
        self.XT = np.ascontiguousarray(np.asarray(X, dtype=float).T)
        inverse = [np.unique(values, return_inverse=True)[1] for values in self.XT]
        self.ranks = np.array(inverse, dtype=np.int32).reshape(self.XT.shape)
        self.n_ranks = int(self.ranks.max()) + 1 if self.ranks.size else 1


def _square_sums(counts, size, owner, own):
    """Sum of p * p along each row of p = counts / size, counts element-major.

    Row i belongs to tree `owner[i]` and is summed over that tree's classes
    `own[owner[i]]` in the order its per-node `.sum()` takes. Below 8 classes
    that order does not depend on the tree, `owner` is not read, and the sum
    goes a class column at a time, with no (row, class) float array.
    """
    size = size.astype(float)       # as a true division of two integers takes it
    if counts.shape[1] < 8:         # left to right; a class the tree lacks adds +0.0
        out = np.divide(counts[:, 0], size)
        out *= out                  # no square is -0.0, so adding it to +0.0 gives itself
        p = np.empty_like(out)
        for c in range(1, counts.shape[1]):
            np.divide(counts[:, c], size, out=p)
            p *= p
            out += p
        return out
    sq = counts / size[:, None]
    sq *= sq
    out = np.empty(len(sq))
    for g in np.unique(owner):      # pairwise order over the tree's own classes
        at = np.flatnonzero(owner == g)
        out[at] = sq[np.ix_(at, own[g])].sum(axis=1)
    return out


def _run_starts(values):
    """Mask of the positions where a run of equal values starts."""
    starts = np.empty(len(values), dtype=bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def _first_per_group(hits, group):
    """The first of the sorted `hits` in each run of equal `group[hits]`."""
    return hits[_run_starts(group[hits])]


def _by_length(starts, lengths):
    """For each length among the ranges [start, start + length): the indices
    of the ranges of that length and their positions, one range a row."""
    order = np.argsort(lengths, kind="stable")
    bounds = np.append(np.flatnonzero(_run_starts(lengths[order])), len(order))
    for first, last in zip(bounds[:-1], bounds[1:]):
        ids = order[first:last]
        yield ids, starts[ids, None] + np.arange(lengths[ids[0]])


class _Lockstep:
    """Grows a group of trees, one searched node per tree per round.

    Tree g's rows are at `rows[offsets[g]:offsets[g + 1]]`, with `weights`
    beside them, unless the kind weighs every row 1. A node is a [start, end) range of these buffers. The nodes
    of the group are numbered as they are made, roots first; a node is made
    a leaf, its class counts or mean in `values`, and turned into a split
    when its search finds one. `stack[g, :top[g]]` holds the nodes tree g
    has yet to search, the next one last, as rows (node, start, end, depth,
    size) with their impurity in `stack_impurity`; a node too small, too
    deep or pure to be split is never stacked.

    A kind says what a bootstrap puts in the buffers (`_bootstrap`), what a
    node keeps (`_roots`, `_finish`), how a boundary is scored (`_prefix`,
    `_score`, `_hand_off`) and how a node splits (`_split`).
    """

    def __init__(self, table, rows, seeds, max_depth, min_samples_split, max_features):
        self.table = table
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        n_features, n_table = table.XT.shape
        n_trees = len(seeds)
        self.all_features = np.arange(n_features)
        draws = max_features is not None and max_features < n_features
        self.draws = Choices(seeds, n_features, max_features) if draws else None
        # n_table rows per tree, each drawn n_table times at most; the pages
        # past the rows written are never touched
        self.rows = np.empty(n_trees * n_table, dtype=np.int32)
        self.weights = np.empty(n_trees * n_table, dtype=np.min_scalar_type(n_table))
        self.offsets = np.zeros(n_trees + 1, dtype=np.intp)
        stats = []
        for g, r in enumerate(rows):            # one bootstrap at a time
            at, weights, root = self._bootstrap(r)
            end = self.offsets[g] + len(at)
            self.rows[self.offsets[g]:end] = at
            if weights is not None:
                self.weights[self.offsets[g]:end] = weights
            stats.append(root)
            self.offsets[g + 1] = end
        # a tree over d rows has 2d - 1 nodes at most, as each leaf holds
        # one at least; `_add` writes every field of a node it makes
        bound = 2 * int(self.offsets[-1]) - n_trees
        roots, self.n_rows, impurity = self._roots(stats, bound)
        # a pass searches one node per tree at most, so its cumulative counts
        # stay below every bootstrap's length times the features drawn, and
        # its elements below every buffer's length times the features drawn;
        # it outgrows PASS_ELEMENTS only by its first node
        drawn = n_features if self.draws is None else max_features
        self.count_type = np.int32 if self.n_rows.sum() * drawn < 2**31 else np.int64
        lengths = np.diff(self.offsets)
        elements = min(int(lengths.sum()) * drawn,
                       max(PASS_ELEMENTS, int(lengths.max()) * drawn))
        self.packed = PackedSort(n_trees * drawn, table.n_ranks, elements)
        self.buffers = self._buffers(elements)
        self.importances = np.zeros((n_trees, n_features))
        self.n_nodes = 0
        self.feature = np.empty(bound, dtype=np.int32)
        self.threshold = np.empty(bound)
        self.left = np.empty(bound, dtype=np.int32)
        self.right = np.empty(bound, dtype=np.int32)
        self.stack = np.zeros((n_trees, 16, 5), dtype=np.intp)
        self.stack_impurity = np.zeros((n_trees, 16))
        self.top = np.zeros(n_trees, dtype=np.intp)
        self._push(np.arange(n_trees),
                   np.column_stack([self._add(roots), self.offsets[:-1], self.offsets[1:],
                                    np.zeros(n_trees, dtype=np.intp), self.n_rows]),
                   impurity)

    def _buffers(self, elements):
        """A pass's large arrays, for `elements` elements at most; a pass
        works in views of their first elements."""
        return {"at": np.empty(elements, dtype=np.intp),
                "rank": np.empty(elements, dtype=self.table.ranks.dtype),
                "rows": np.empty(elements, dtype=self.rows.dtype)}

    def _add(self, values):
        """Make a leaf of each of `values` and return their ids."""
        first, n = self.n_nodes, len(values)
        made = slice(first, first + n)
        self.n_nodes = first + n
        self.values[made] = values
        self.feature[made] = -1
        self.threshold[made] = 0.0
        self.left[made] = -1
        self.right[made] = -1
        return np.arange(first, first + n)

    def _push(self, trees, pending, impurity):
        """Stack those of the (node, start, end, depth, size) rows that may be
        split, one row each of the distinct `trees`."""
        depth, size = pending[:, 3], pending[:, 4]
        searched = ~(impurity <= 0.0) & (size >= self.min_samples_split)
        if self.max_depth is not None:
            searched &= depth < self.max_depth
        trees = trees[searched]
        top = self.top[trees]
        if len(top) and top.max() == self.stack.shape[1]:
            self.stack = np.concatenate([self.stack, np.zeros_like(self.stack)], axis=1)
            self.stack_impurity = np.concatenate(
                [self.stack_impurity, np.zeros_like(self.stack_impurity)], axis=1)
        self.stack[trees, top] = pending[searched]
        self.stack_impurity[trees, top] = impurity[searched]
        self.top[trees] = top + 1

    def grow(self):
        while True:
            trees = np.flatnonzero(self.top)
            if not len(trees):
                # only the nodes and the importances are read from here on
                self.rows = self.weights = self.stack = self.stack_impurity = None
                self.draws = self.packed = self.buffers = None
                return self
            top = self.top[trees] - 1
            self.top[trees] = top
            pending, impurity = self.stack[trees, top], self.stack_impurity[trees, top]
            if self.draws is None:
                feats = np.broadcast_to(self.all_features, (len(trees), len(self.all_features)))
            else:
                feats = self.draws.next(trees)
            # passes of at most PASS_ELEMENTS (feature, row) elements past their first node
            elements = np.cumsum((pending[:, 2] - pending[:, 1]) * feats.shape[1])
            first = 0
            while first < len(trees):
                done = elements[first - 1] if first else 0
                last = max(first + 1, int(np.searchsorted(elements, done + PASS_ELEMENTS,
                                                          side="right")))
                batch = slice(first, last)
                found = self._search(trees[batch], pending[batch], impurity[batch], feats[batch])
                if found is not None:
                    self._split(*found)
                first = last

    def _search(self, tree, pending, impurity, feats):
        """Score every drawn feature of the pending nodes in one pass.

        Node i belongs to tree[i], is the row pending[i] of its stack and
        draws the features feats[i]. Returns the arguments of `_split` for
        the nodes that split, or None. The pass's large arrays are views of
        the group's buffers; what it returns is copied out of them.
        """
        table = self.table
        n_table = table.XT.shape[1]
        start, end, size = pending[:, 1], pending[:, 2], pending[:, 4]
        drawn = feats.shape[1]

        # one segment per (node, drawn feature), in draw order, end to end
        seg_node = np.repeat(np.arange(len(pending)), drawn)
        seg_feat = feats.reshape(-1)
        seg_len = (end - start)[seg_node]
        seg_end = np.cumsum(seg_len)
        seg_start = seg_end - seg_len
        n = int(seg_end[-1])
        # element i of the pass sits at i + lag[i] in the row buffer
        lag = np.repeat(start[seg_node] - seg_start, seg_len)
        where = np.add(self.packed.positions[:n], lag, out=self.buffers["at"][:n])
        rows = np.take(self.rows, where, out=self.buffers["rows"][:n])
        flat = np.repeat(seg_feat * n_table, seg_len)
        flat += rows
        rank = np.take(table.ranks.reshape(-1), flat, out=self.buffers["rank"][:n])
        del flat
        group = self.packed.sort(rank, seg_len)
        where = self.packed.unpack(group, out=where)
        where += lag
        del lag
        rows = np.take(self.rows, where, out=rows)

        # sums left of each position, relative to its segment's start; the
        # kind may overwrite `where` once it has read it
        sums = self._prefix(rows, where, seg_start, seg_len, seg_end)
        # a boundary: the next element has a larger rank in the same segment
        step = group[1:] != group[:-1]
        step[seg_start[1:] - 1] = False
        at = np.flatnonzero(step)
        del step
        if not len(at):
            return None
        at_seg = self.packed.segments(group[at])
        seg_size = size[seg_node]
        n_left, n_right, imp_left, imp_right = self._score(sums, at, at_seg, seg_size,
                                                           tree[seg_node])
        weighted = imp_left
        weighted *= n_left
        imp_right *= n_right
        weighted += imp_right
        del n_left, n_right, imp_right
        weighted /= seg_size[at_seg]

        # the first best boundary of each segment, then each node's first best segment
        starts = _run_starts(at_seg)
        firsts = np.flatnonzero(starts)
        scored = at_seg[firsts]
        low = np.empty(len(seg_len))
        low[scored] = np.minimum.reduceat(weighted, firsts)
        hits = np.flatnonzero(weighted == low[at_seg])
        del starts, weighted
        gain = np.full(len(seg_len), -np.inf)
        gain[scored] = impurity[seg_node[scored]] - low[scored]
        best_at = np.zeros(len(seg_len), dtype=np.intp)
        best_at[scored] = at[_first_per_group(hits, at_seg)]
        del at, at_seg, hits
        best = np.maximum.reduceat(gain, np.arange(0, len(seg_len), drawn))
        winner = _first_per_group(np.flatnonzero(gain == best[seg_node]), seg_node)
        split = np.flatnonzero(best > 1e-15)
        if not len(split):
            return None
        segs = winner[split]
        b = best_at[segs]
        feature = seg_feat[segs]
        XT = table.XT.reshape(-1)
        threshold = (XT[feature * n_table + rows[b]] + XT[feature * n_table + rows[b + 1]]) / 2.0
        return (tree[split], pending[split], best[split], feature, threshold,
                *self._hand_off(sums, b, segs, seg_start, seg_len, rows))

    def _hand_off(self, sums, b, segs, seg_start, seg_len, rows):
        """What the kind's `_split` takes besides the winners' thresholds."""
        return ()

    def _goes_left(self, rows, length, feature, threshold):
        """For the nodes' rows, node after node: each row's node, whether it
        goes left of its node's threshold, and how many go left per node."""
        n_table = self.table.XT.shape[1]
        member = np.repeat(np.arange(len(length)), length)
        goes_left = self.table.XT.reshape(-1)[feature[member] * n_table + rows] <= threshold[member]
        return member, goes_left, np.bincount(member[goes_left], minlength=len(length))

    def _branch(self, tree, pending, gains, feature, threshold, mid, keep, values, sizes,
                impurity):
        """Turn the nodes `keep` into splits with children [start, mid) and
        [mid, end), whose `values`, sizes and impurity run lefts then
        rights, and stack the children."""
        node, start, end, depth, size = pending[keep].T
        tree, mid, k = tree[keep], mid[keep], len(keep)
        self.importances[tree, feature[keep]] += (size / self.n_rows[tree]) * gains[keep]
        children = self._add(values)
        lefts, rights = children[:k], children[k:]
        self.feature[node], self.threshold[node] = feature[keep], threshold[keep]
        self.left[node], self.right[node] = lefts, rights
        depth = depth + 1
        # the right child goes below the left, to be searched after it
        self._push(tree, np.column_stack([rights, mid, end, depth, sizes[k:]]), impurity[k:])
        self._push(tree, np.column_stack([lefts, start, mid, depth, sizes[:k]]), impurity[:k])

    def _preorder(self, n_trees):
        """The group's node ids, tree after tree, each tree in preorder; each
        node's preorder id in its tree, with -1 appended for "no node"; and
        where each tree starts in the first."""
        n = self.n_nodes
        left, right = self.left[:n], self.right[:n]
        levels, frontier = [], np.arange(n_trees)          # the roots
        while len(frontier):
            inner = frontier[left[frontier] >= 0]
            levels.append(inner)
            frontier = np.concatenate([left[inner], right[inner]])
        size = np.ones(n, dtype=np.int32)                   # subtree sizes, deepest first
        for level in reversed(levels):
            size[level] += size[left[level]] + size[right[level]]
        offset = np.cumsum(size[:n_trees]) - size[:n_trees]
        at = np.empty(n, dtype=np.int32)                    # place in the group's order
        at[:n_trees] = offset
        pre = np.empty(n + 1, dtype=np.int32)               # preorder id in its tree,
        pre[:n_trees], pre[n] = 0, -1                       # then -1 for "no node"
        for level in levels:
            lefts, rights = left[level], right[level]
            below = size[lefts]
            at[lefts], at[rights] = at[level] + 1, at[level] + 1 + below
            pre[lefts], pre[rights] = pre[level] + 1, pre[level] + 1 + below
        del size, levels
        order = np.empty(n, dtype=np.int32)
        order[at] = np.arange(n, dtype=np.int32)
        return order, pre, offset

    def fill(self, trees):
        """Renumber each tree's nodes into preorder and hand them to its estimator.

        Each node array is freed as soon as it is copied into preorder, and
        the renumbering before the leaf values are made, so the group's
        nodes are not held twice over.
        """
        order, pre, offset = self._preorder(len(trees))
        fields = []
        for name in ("feature", "threshold", "left", "right", "values"):
            values = getattr(self, name)[order]
            setattr(self, name, None)
            if name in ("left", "right"):
                values = pre[values]
            fields.append(np.split(values, offset[1:]))
        del order, pre, values
        for g, (tree, *arrays, values) in enumerate(zip(trees, *fields)):
            tree.feature_, tree.threshold_, tree.left_, tree.right_ = arrays
            self._finish(g, tree, values)
            tree.feature_importances_ = _normalized(self.importances[g])


class _Gini(_Lockstep):
    """Classification trees: a tree's buffer holds the distinct rows of its
    bootstrap, in table order until its splits reorder them, weighted by
    their draw counts, and a node keeps its class counts."""

    def _bootstrap(self, r):
        copies = np.bincount(r, minlength=self.table.XT.shape[1])
        at = np.flatnonzero(copies)
        counts = np.bincount(self.table.y[at], weights=copies[at],
                             minlength=len(self.table.classes))
        return at, copies[at], counts

    def _roots(self, counts, bound):
        counts = np.array(counts, dtype=np.intp)
        n_rows = counts.sum(axis=1)             # each bootstrap's length
        self.own = [np.flatnonzero(c) for c in counts]
        self.values = np.empty((bound, counts.shape[1]), dtype=np.min_scalar_type(n_rows.max()))
        return counts, n_rows, self._impurity(counts, n_rows, np.arange(len(counts)))

    def _impurity(self, counts, size, owner):
        """Gini impurity of each row of class counts, of `size` rows of tree `owner`."""
        impurity = _square_sums(counts, size, owner, self.own)
        return np.subtract(1.0, impurity, out=impurity)

    def _class_counts(self, starts, lengths):
        """Element-major class counts of the rows [start, start + length)."""
        n_classes = len(self.table.classes)
        member = np.repeat(np.arange(len(starts)), lengths)
        where = ranges(starts, lengths)
        return np.bincount(member * n_classes + self.table.y[self.rows[where]],
                           weights=self.weights[where], minlength=len(starts) * n_classes
                           ).astype(np.intp).reshape(len(starts), n_classes)

    def _buffers(self, elements):
        n_classes = len(self.table.classes)
        return {**super()._buffers(elements),
                "weights": np.empty(elements, dtype=self.weights.dtype),
                "counts": np.empty((elements, n_classes + 1), dtype=self.count_type),
                "row_at": np.arange(0, elements * (n_classes + 1), n_classes + 1,
                                    dtype=np.min_scalar_type(elements * (n_classes + 1)))}

    def _prefix(self, rows, where, seg_start, seg_len, seg_end):
        """Weighted class counts left of each position, then their sum in a
        last column, and each segment's totals; element-major, so a boundary
        reads one row. Also the weights of the pass's rows."""
        n = len(rows)
        weight = np.take(self.weights, where, out=self.buffers["weights"][:n])
        cum = self.buffers["counts"][:n]
        cum.fill(0)
        cum[:, -1] = weight
        at = np.take(self.table.y, rows, out=where)
        at += self.buffers["row_at"][:n]
        cum.reshape(-1)[at] = weight
        np.cumsum(cum, axis=0, out=cum)
        base = cum.take(seg_start - 1, axis=0)      # take: faster row gathers
        base[0] = 0
        return cum, base, cum.take(seg_end - 1, axis=0) - base, weight

    def _score(self, sums, at, at_seg, seg_size, seg_tree):
        cum, base, total, _ = sums
        owner = seg_tree[at_seg] if total.shape[1] > 8 else None     # 8 classes or more, and sizes
        left = cum.take(at, axis=0)
        left -= base.take(at_seg, axis=0)
        n_left = left[:, -1].copy()
        imp_left = self._impurity(left[:, :-1], n_left, owner)
        right = total.take(at_seg, axis=0)
        right -= left
        del left
        n_right = right[:, -1].copy()
        return n_left, n_right, imp_left, self._impurity(right[:, :-1], n_right, owner)

    def _hand_off(self, sums, b, segs, seg_start, seg_len, rows):
        """The distinct rows below each winning boundary, the class counts on
        either side of it, and the winners' rows and weights in order."""
        cum, base, total, weight = sums
        left = cum.take(b, axis=0) - base.take(segs, axis=0)
        won = ranges(seg_start[segs], seg_len[segs])
        return (b + 1 - seg_start[segs], left[:, :-1], (total.take(segs, axis=0) - left)[:, :-1],
                rows[won], weight[won])

    def _split(self, tree, pending, gains, feature, threshold, n_left, left, right,
               rows, weights):
        """Write each node's `rows` and `weights` back in the order of its
        winning feature, so that x <= threshold is a prefix of its range;
        make and stack its children. `n_left` is the number of distinct rows
        below the winning boundary, and `left` and `right` the class counts
        on either side of it: the children's, unless the midpoint left the
        range between the two values either side of the boundary."""
        start, end = pending[:, 1], pending[:, 2]
        length = end - start
        where = ranges(start, length)
        self.rows[where], self.weights[where] = rows, weights
        # the values either side of each boundary; only a midpoint that
        # rounded onto the upper one, or a sum that overflowed, leaves them
        above = np.cumsum(length) - length + n_left
        lower = self.table.XT[feature, rows[above - 1]]
        upper = self.table.XT[feature, rows[above]]
        off = np.flatnonzero(~((lower <= threshold) & (threshold < upper)))
        n_goes = n_left
        if len(off):
            n_goes = n_left.copy()
            n_goes[off] = self._goes_left(self.rows[ranges(start[off], length[off])],
                                          length[off], feature[off], threshold[off])[2]
        mid = start + n_goes
        keep = np.flatnonzero((n_goes > 0) & (n_goes < length))
        moved = keep[n_goes[keep] != n_left[keep]]
        if len(moved):
            # the midpoint left the two values: count the children's rows
            left[moved] = self._class_counts(start[moved], n_goes[moved])
            right[moved] = self._class_counts(mid[moved], end[moved] - mid[moved])
        counts = np.concatenate([left[keep], right[keep]])
        sizes = counts.sum(axis=1)
        owner = np.concatenate([tree[keep], tree[keep]]) if counts.shape[1] >= 8 else None
        self._branch(tree, pending, gains, feature, threshold, mid, keep, counts, sizes,
                     self._impurity(counts, sizes, owner))

    def _finish(self, g, tree, counts):
        own = self.own[g]
        tree.classes_ = np.array(self.table.classes[own].tolist())
        counts = counts[:, own]
        tree.value_ = counts / counts.sum(axis=1, keepdims=True)


class _Variance(_Lockstep):
    """Regression trees: a tree's buffer holds every row of its bootstrap,
    in bootstrap order, each of weight 1, and a node keeps its mean."""

    def _bootstrap(self, r):
        y = self.table.y[r]
        return r, None, (y.mean(), y.var())

    def _roots(self, stats, bound):
        mean, var = np.array(stats).T
        self.values = np.empty(bound)
        return mean, np.diff(self.offsets), var

    def _stats(self, starts, lengths):
        """Mean and variance of y over each range [start, start + length)."""
        mean, var = np.empty(len(starts)), np.empty(len(starts))
        for ids, at in _by_length(starts, lengths):
            block = self.table.y[self.rows[at]]
            mean[ids], var[ids] = block.mean(axis=1), block.var(axis=1)
        return mean, var

    def _prefix(self, rows, where, seg_start, seg_len, seg_end):
        """Running sums of y and y*y within each segment, its totals, and
        where it starts."""
        y = self.table.y[rows]
        s1, s2 = np.empty(len(y)), np.empty(len(y))
        for _, at in _by_length(seg_start, seg_len):
            block = y[at]
            s1[at] = np.cumsum(block, axis=1)
            s2[at] = np.cumsum(block * block, axis=1)
        return s1, s2, s1[seg_end - 1], s2[seg_end - 1], seg_start

    def _score(self, sums, at, at_seg, seg_size, seg_tree):
        s1, s2, total1, total2, seg_start = sums
        n_left = at + 1 - seg_start[at_seg]         # every row has weight 1
        n_right = seg_size[at_seg] - n_left
        lmean = s1[at] / n_left
        rmean = (total1[at_seg] - s1[at]) / n_right
        return (n_left, n_right, s2[at] / n_left - lmean * lmean,
                (total2[at_seg] - s2[at]) / n_right - rmean * rmean)

    def _split(self, tree, pending, gains, feature, threshold):
        """Partition each node's range stably by x <= threshold, so that
        each child keeps its rows in bootstrap order; make and stack the
        children."""
        start, end = pending[:, 1], pending[:, 2]
        length = end - start
        where = ranges(start, length)
        rows = self.rows[where]
        member, goes_left, n_goes = self._goes_left(rows, length, feature, threshold)
        self.rows[where] = rows[stable_argsort(2 * member + ~goes_left, 2 * len(length))]
        mid = start + n_goes
        keep = np.flatnonzero((n_goes > 0) & (n_goes < length))
        sizes = np.concatenate([n_goes[keep], (end - mid)[keep]])
        mean, var = self._stats(np.concatenate([start[keep], mid[keep]]), sizes)
        self._branch(tree, pending, gains, feature, threshold, mid, keep, mean, sizes, var)

    def _finish(self, g, tree, means):
        tree.value_ = means


def grow(trees, table, rows):
    """Fit each tree of `trees`, all DecisionTreeClassifier or all
    DecisionTreeRegressor, on its rows of `table`, in one lockstep group.

    `rows` iterates over the trees' row indices, in tree order; each is
    read, stored and dropped before the next. The trees share max_depth,
    min_samples_split and max_features, and each draws its features as
    default_rng(tree.seed) would.
    """
    n_features, n_rows = table.XT.shape
    if not n_rows or not n_features:
        raise ValueError(f"cannot grow a tree on {n_rows} rows of {n_features} features")
    t = trees[0]
    kind = _Variance if table.classes is None else _Gini
    kind(table, rows, [tree.seed for tree in trees], t.max_depth, t.min_samples_split,
         t.max_features).grow().fill(trees)


def leaves(trees, X):
    """Each fitted tree of `trees` with the leaf each row of X reaches, in
    tree order.

    The trees walk in blocks of PASS_ELEMENTS // len(X) trees (one at
    least): a block's node arrays are laid end to end, and every (tree, row)
    of the block steps down one level at a time.
    """
    X = np.ascontiguousarray(X, dtype=float)
    n_rows, n_features = X.shape
    flat = X.reshape(-1)
    per_block = max(1, PASS_ELEMENTS // max(n_rows, 1))
    for first in range(0, len(trees), per_block):
        block = trees[first:first + per_block]
        sizes = np.array([len(t.feature_) for t in block])
        base = np.cumsum(sizes) - sizes
        shift = np.repeat(base, sizes)
        feature = np.concatenate([t.feature_ for t in block])
        threshold = np.concatenate([t.threshold_ for t in block])
        left = np.concatenate([t.left_ for t in block]) + shift
        right = np.concatenate([t.right_ for t in block]) + shift
        node = np.repeat(base, n_rows)
        row_at = np.tile(np.arange(0, n_rows * n_features, n_features), len(block))
        active = np.flatnonzero(feature[node] >= 0)
        while active.size:
            at = node[active]
            goes_left = flat[row_at[active] + feature[at]] <= threshold[at]
            node[active] = np.where(goes_left, left[at], right[at])
            active = active[feature[node[active]] >= 0]
        yield from zip(block, node.reshape(len(block), n_rows) - base[:, None])


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

    def _grow(self, table):
        grow([self], table, [np.arange(len(table.y))])
        return self

    def _predict_values(self, X):
        """The leaf value each row of X reaches."""
        ((_, leaf),) = leaves([self], X)
        return self.value_[leaf]


class DecisionTreeClassifier(_Tree):
    def fit(self, X, y):
        return self._grow(Table(X, y, classify=True))

    def predict_proba(self, X):
        # always 2-D, also for a tree that saw a single class
        return self._predict_values(X)

    def predict(self, X):
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]


class DecisionTreeRegressor(_Tree):
    def fit(self, X, y):
        return self._grow(Table(X, y, classify=False))

    def predict(self, X):
        return self._predict_values(X)
