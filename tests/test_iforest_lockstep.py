"""The lockstep isolation forest against trees grown node by node.

`_grow` and `_tree_path_lengths` below are the recursive grower and the
per-tree stack walk the forest used before it grew its trees in lockstep
and scored them as complete binary trees. Every score must equal theirs
bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rxmflow.models import IsolationForest
from rxmflow.models.iforest import average_path_length
from rxmflow.models.lockstep import Streams, bounded


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


def reference_trees(X, n_estimators, max_samples, seed):
    """The forest's trees, grown one node at a time."""
    n = X.shape[0]
    psi = min(max_samples, n)
    height_limit = max(1, math.ceil(math.log2(psi)))
    XT = np.ascontiguousarray(X.T)
    roots = []
    for i in range(n_estimators):
        rng = np.random.default_rng(seed + i)
        sample = rng.choice(n, size=psi, replace=False)
        roots.append(_grow(XT, sample, 0, height_limit, rng))
    return roots


@st.composite
def tables(draw):
    """Small tables with constant and two-valued columns and duplicate rows."""
    n = draw(st.integers(1, 90))
    kinds = draw(st.lists(st.sampled_from(["normal", "constant", "two", "few"]),
                          min_size=1, max_size=5))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {
        "normal": lambda: gen.normal(size=n).round(1),
        "constant": lambda: np.full(n, gen.normal()),
        "two": lambda: gen.choice([-1.0, 2.5], size=n),
        "few": lambda: gen.integers(0, 4, size=n).astype(float),
    }
    X = np.column_stack([columns[kind]() for kind in kinds])
    copies = draw(st.integers(0, n - 1))
    X[n - copies:] = X[0]               # the last rows repeat the first
    return X


@given(tables(), st.integers(1, 64), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_lockstep_forest_equals_trees_grown_node_by_node(X, psi, n_trees, seed):
    forest = IsolationForest(n_estimators=n_trees, max_samples=psi, seed=seed).fit(X)
    expected = [_tree_path_lengths(root, X)
                for root in reference_trees(X, n_trees, psi, seed)]
    got = list(forest.tree_path_lengths(X))
    assert len(got) == n_trees
    for lengths, reference in zip(got, expected):
        assert lengths.tobytes() == reference.tobytes()
    total = np.zeros(X.shape[0])
    for reference in expected:
        total += reference
    c_psi = average_path_length(forest.psi_)[0]
    scores = (np.full(X.shape[0], 0.5) if c_psi == 0.0
              else 2.0 ** (-(total / n_trees) / c_psi))
    assert forest.score_samples(X).tobytes() == scores.tobytes()


def test_nan_goes_right_as_in_the_reference_walk():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 3))
    forest = IsolationForest(n_estimators=12, max_samples=50, seed=9).fit(X)
    queries = X[:20].copy()
    queries[::3, 1] = np.nan
    queries[1::3, 0] = np.nan
    roots = reference_trees(X, 12, 50, 9)
    for lengths, root in zip(forest.tree_path_lengths(queries), roots):
        assert lengths.tobytes() == _tree_path_lengths(root, queries).tobytes()


def test_unbounded_range_raises_overflow_error_like_generator_uniform():
    X = np.array([[-np.inf], [0.0], [1.0]])
    with pytest.raises(OverflowError):
        reference_trees(X, 1, 3, 0)
    with pytest.raises(OverflowError):
        IsolationForest(n_estimators=1, seed=0).fit(X)


def test_bounded_marks_the_words_numpy_draws_again():
    # with bound 3, a word whose low half of word * 3 is below 2**32 % 3 = 1
    # is rejected: word 0 is, 2**31 gives 3 * 2**31 >> 32 = 1, and 5 gives 0
    values, rejected = bounded(np.array([0, 1 << 31, 5], dtype=np.uint64), np.full(3, 3))
    assert values.tolist() == [0, 1, 0]
    assert rejected.tolist() == [True, False, False]


@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    before=st.integers(0, 3),       # draws made before the replay: an odd count holds a half
    block=st.integers(1, 5),        # a short block is read again and again
    calls=st.lists(st.tuples(
        st.booleans(),
        st.sets(st.integers(0, 3), min_size=1),
        # at count 3 * 2**30 a quarter of all words are rejected
        st.lists(st.sampled_from([2, 13, 3 << 30]), min_size=4, max_size=4),
    ), min_size=1, max_size=60),
)
def test_stream_integers_redraw_rejected_words_as_generator_integers(seeds, before, block, calls):
    rngs = [np.random.default_rng(seed) for seed in seeds]
    twins = [np.random.default_rng(seed) for seed in seeds]
    for rng in rngs + twins:
        rng.integers(5, size=before)
    streams = Streams(rngs, block)
    for integers, chosen, counts in calls:
        trees = np.array(sorted(t for t in chosen if t < len(seeds)), dtype=np.intp)
        if not len(trees):
            continue
        if integers:
            values = streams.integers(trees, np.array(counts)[trees])
            assert values.tolist() == [int(twins[t].integers(counts[t])) for t in trees]
        else:                       # a double between leaves the held half alone
            doubles = streams.doubles(trees)
            assert doubles.tolist() == [twins[t].random() for t in trees]


def test_a_table_without_columns_scores_like_the_reference():
    X = np.zeros((30, 0))
    forest = IsolationForest(n_estimators=3, max_samples=16, seed=2).fit(X)
    for lengths, root in zip(forest.tree_path_lengths(X), reference_trees(X, 3, 16, 2)):
        assert lengths.tobytes() == _tree_path_lengths(root, X).tobytes()
