"""What the lockstep growers share: each tree's random draws, replayed from
its PCG64 stream, the index helpers of their flat row buffers, and the
packed key that sorts a search pass.

A tree's draws are what its own `numpy.random.Generator` would make. The
forests replay them for many trees at once, so this is the one module that
knows how a Generator spends its PCG64 outputs:

- a bounded integer draw takes one 32-bit word: the high half kept from the
  last output if one is held, else the low half of a fresh output, whose
  high half is then held. The word is bounded by Lemire's method (the high
  half of word * count), and numpy draws again while the low half of the
  product falls below 2**32 % count (Lemire, "Fast random integer
  generation in an interval", ACM TOMACS 2019);
- `random()` takes the top 53 bits of a fresh output and leaves a held half
  alone.

The replay computes only the accepted draws. A rejected word sends the tree
to `Streams.numpy`, which sets the tree's own Generator to where the replay
stands and lets numpy make the draws.
"""

from __future__ import annotations

import numpy as np

DRAW_BLOCK = 64           # feature draws replayed per tree at a time


def bounded(words, counts):
    """Lemire's draw on [0, count) from each 32-bit word, and a mask of the
    words numpy rejects and draws again."""
    span = counts.astype(np.uint64)
    m = words * span
    return (m >> 32).astype(np.intp), (m & 0xFFFFFFFF) < (1 << 32) % span


class Streams:
    """Each tree's stream of 32-bit words, from its Generator `rngs[t]` on.

    Row t of `raw` is a slot, then tree t's outputs, read `block` at a
    time. `raw` is little-endian on any host, so `halves` views its rows as
    32-bit halves, low half first, and the slot's high half, `halves[t, 1]`,
    sits just before the first output's low half: a half held over from an
    earlier output lives there. Tree t's next word is `halves[t, at[t]]`;
    an odd `at` is a held half. `start[t]` is the Generator's state where
    the row starts.
    """

    def __init__(self, rngs, block):
        self.rngs = rngs
        self.raw = np.zeros((len(rngs), block + 1), dtype="<u8")
        self.halves = self.raw.view("<u4")
        self.at = np.zeros(len(rngs), dtype=np.intp)
        self.start = [None] * len(rngs)
        for t in range(len(rngs)):
            self._read(t)

    def _read(self, t):
        """Take over tree t's stream from where its Generator stands."""
        bitgen = self.rngs[t].bit_generator
        self.start[t] = state = bitgen.state
        self.halves[t, 1] = state["uinteger"]
        self.at[t] = 2 - state["has_uint32"]
        self.raw[t, 1:] = bitgen.random_raw(self.raw.shape[1] - 1)

    def _reserve(self, trees, count):
        """Make sure each of `trees` has `count` unread words, a held half
        and 2 * block more at most."""
        for t in trees[self.at[trees] + count > self.halves.shape[1]]:
            self.numpy(t, lambda rng: None)

    def words(self, trees, count):
        """The next `count` words of each of `trees`, one row each, unspent."""
        self._reserve(trees, count)
        return self.halves[trees[:, None], self.at[trees][:, None] + np.arange(count)]

    def take(self, trees, counts):
        """Spend `counts` words of each of `trees`."""
        self.at[trees] += counts

    def integers(self, trees, counts):
        """`Generator.integers(count)` for each of `trees`, every count >= 2."""
        values, rejected = bounded(self.words(trees, 1)[:, 0], counts)
        self.take(trees[~rejected], 1)
        for i in np.flatnonzero(rejected):          # odds below count / 2**32 a word
            values[i] = self.numpy(trees[i], lambda rng, count=counts[i]: rng.integers(count))
        return values

    def doubles(self, trees):
        """`Generator.random()` for each of `trees`: the top 53 bits of a
        fresh output, which a held half outlasts."""
        self._reserve(trees, 3)
        at = self.at[trees]
        out = self.raw[trees, (at + 1) // 2]
        # a held half moves onto the spent output's high half, just before
        # the next word; with none held, a spent half is copied onto another
        self.halves[trees, at + 1 + at % 2] = self.halves[trees, at]
        self.at[trees] = at + 2
        return (out >> 11) * 2.0 ** -53

    def numpy(self, t, draw):
        """`draw(rng)` on tree t's own Generator, set to where the replay
        stands; the replay then goes on from where numpy leaves it."""
        at = self.at[t]
        bitgen = self.rngs[t].bit_generator
        bitgen.state = self.start[t]
        bitgen.advance(int((at + 1) // 2 - 1))      # which drops a held half
        state = bitgen.state
        held = int(at % 2)
        state["has_uint32"], state["uinteger"] = held, int(self.halves[t, at]) if held else 0
        bitgen.state = state
        value = draw(self.rngs[t])
        self._read(t)
        return value


class Choices:
    """Replays `default_rng(seed).choice(n, k, replace=False)`, call after
    call, for each of `seeds`, DRAW_BLOCK calls of a seed at a time.

    A call takes Floyd's sample, k bounded draws, then shuffles it with
    k - 1 more, so a block of calls reads a fixed run of words and is
    computed for all seeds at once.
    """

    def __init__(self, seeds, n, k):
        self.n, self.k = n, k
        self.block = DRAW_BLOCK
        self.streams = Streams([np.random.default_rng(seed) for seed in seeds],
                               (self.block * (2 * k - 1) + 1) // 2)
        self.rows = np.zeros((len(seeds), self.block, k), dtype=np.int64)
        self.used = np.full(len(seeds), self.block)

    def next(self, seeds):
        """The next draw of each of `seeds` (indices), one row each."""
        spent = seeds[self.used[seeds] == self.block]
        if len(spent):
            self._refill(spent)
        rows = self.rows[seeds, self.used[seeds]]
        self.used[seeds] += 1
        return rows

    def _refill(self, seeds):
        n, k, block = self.n, self.k, self.block
        self.used[seeds] = 0
        per = 2 * k - 1
        words = self.streams.words(seeds, block * per).reshape(len(seeds), block, per)
        # each word's number of outcomes
        bound = np.concatenate([np.arange(n - k + 1, n + 1), np.arange(k, 1, -1)])
        value, rejected = bounded(words, bound)
        if n > 10000 and k > n // 50:           # numpy shuffles the tail of arange(n) instead
            rejected[:] = True
        picks = np.empty((len(seeds), block, k), dtype=np.int64)
        for i in range(k):                      # Floyd: n - k + i if v is already picked
            v = value[..., i]
            picks[..., i] = np.where((picks[..., :i] == v[..., None]).any(axis=-1), n - k + i, v)
        flat = picks.reshape(-1, k)
        calls = np.arange(len(flat))
        for s, i in enumerate(range(k - 1, 0, -1)):  # the shuffle swaps i with a draw on [0, i]
            r = value[..., k + s].reshape(-1)
            held = flat[calls, r]
            flat[calls, r] = flat[:, i]
            flat[:, i] = held
        self.rows[seeds] = picks
        # each seed's calls before its first rejected word; numpy makes the rest
        accepted = np.where(rejected.any(axis=2), np.arange(block), block).min(axis=1)
        self.streams.take(seeds, accepted * per)
        for g, call in zip(seeds[accepted < block], accepted[accepted < block]):
            self.rows[g, call:] = self.streams.numpy(g, lambda rng, calls=block - call: [
                rng.choice(n, k, replace=False) for _ in range(calls)])


def ranges(starts, lengths):
    """The positions start, start + 1, ... of each range, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) - np.repeat(ends - lengths - starts, lengths)


def packed_widths(segments, ranks, positions):
    """The bits a `PackedSort` key gives an element's segment, rank and
    position, for `segments` segments, `ranks` ranks and `positions`
    elements at most; a ValueError if they add up to more than 64."""
    widths = tuple(max(int(count) - 1, 0).bit_length() for count in (segments, ranks, positions))
    if sum(widths) > 64:
        raise ValueError("a sort key of {} segment, {} rank and {} position bits does not "
                         "fit in 64 bits".format(*widths))
    return widths


class PackedSort:
    """Orders the elements of a pass by (segment, rank, position) with one
    in-place `np.sort` of uint64 keys packed in that order.

    The segments lie end to end, in order. Every key holds its element's
    position, so no two keys are equal and the sorted order is the one a
    stable sort by rank and then a stable sort by segment give. The key
    buffer is allocated once, for `positions` elements; the widths are
    those of `packed_widths`.
    """

    def __init__(self, segments, ranks, positions):
        _, self.rank_bits, self.position_bits = packed_widths(segments, ranks, positions)
        self.mask = np.uint64((1 << self.position_bits) - 1)
        self.key = np.empty(positions, dtype=np.uint64)
        self.positions = np.arange(positions, dtype=np.min_scalar_type(max(positions - 1, 0)))

    def sort(self, rank, seg_len):
        """The sorted keys of the elements [0, len(rank)), whose segments
        have the lengths `seg_len`; a view of the key buffer."""
        key = self.key[:len(rank)]
        np.copyto(key, rank, casting="unsafe")          # ranks are never negative
        key <<= self.position_bits
        shift = self.rank_bits + self.position_bits
        tag = np.repeat(np.arange(len(seg_len), dtype=np.uint64) << shift, seg_len)
        tag |= self.positions[:len(rank)]
        key |= tag
        key.sort()
        return key

    def unpack(self, key, out):
        """Into `out`, an intp array: the position each sorted key came
        from. Leaves in `key` its (segment, rank) part, equal exactly where
        both are."""
        np.bitwise_and(key, self.mask, out=out.view(np.uint64))
        key >>= self.position_bits
        return out

    def segments(self, groups):
        """The segment of each (segment, rank) part that `unpack` left."""
        return (groups >> self.rank_bits).astype(np.intp)


def stable_argsort(key, top):
    """Stable argsort of non-negative integers below `top`, 16 bits a pass."""
    order = np.argsort(key.astype(np.uint16), kind="stable")   # a radix sort
    shift = 16
    while top > 1 << shift:
        digit = (key[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order
