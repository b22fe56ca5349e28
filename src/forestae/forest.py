"""Decision-tree ensembles with leaf bookkeeping and region geometry.

Trees are stored breadth-first as flat arrays of their splits (feature /
threshold per node), from which child pointers and leaf ids follow, so routing
and region queries vectorize. Split literals are ``x_j < t`` on
continuous columns (strict, ties route right) and ``x_j == level`` on
categorical ones; the true branch is always the left child. Thresholds sit at
midpoints of adjacent observed values, so identical data + params + seed give
identical forests.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Column, Schema, Table

__all__ = [
    "ForestParams",
    "Tree",
    "Forest",
    "Region",
    "fit_supervised",
    "fit_completely_random",
    "fit_unsupervised",
    "route_table",
    "leaf_region",
    "assigned_region",
    "predict",
]

REGRESSION = "regression"
CLASSIFICATION = "classification"

_CR_SPLIT_TRIES = 32
_TIE_RTOL = 1e-12


class ForestError(ValueError):
    pass


@dataclass(frozen=True)
class ForestParams:
    """Ensemble hyperparameters.

    ``min_node_fraction`` is the per-split balance floor: each child must
    receive at least ceil(fraction * parent) split-learning samples.
    ``min_leaf`` additionally floors child sizes at an absolute count.
    ``honest`` halves each tree's sample: one half learns splits, the other
    sets leaf counts and label stats. ``mtry`` candidate columns are drawn
    per node (default round(sqrt(d)); values above d are capped at d).
    """

    n_trees: int = 100
    mtry: int | None = None
    min_node_fraction: float = 0.01
    min_leaf: int = 1
    max_depth: int | None = None
    subsample_fraction: float = 1.0
    bootstrap: bool = False
    honest: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ForestError("n_trees must be >= 1")
        if self.mtry is not None and self.mtry < 1:
            raise ForestError("mtry must be >= 1")
        if not (0.0 < self.min_node_fraction <= 0.5):
            raise ForestError("min_node_fraction must lie in (0, 0.5]")
        if not (0.0 < self.subsample_fraction <= 1.0):
            raise ForestError("subsample_fraction must lie in (0, 1]")
        if self.min_leaf < 1:
            raise ForestError("min_leaf must be >= 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ForestError("max_depth must be >= 0")


def breadth_first_layout(split: np.ndarray, first=0) -> tuple[np.ndarray, np.ndarray]:
    """Left child (-1 at leaves) and leaf id (-1 at splits) of every node of
    full binary trees stored breadth-first, one after another; ``first`` is
    each node's tree root. In its tree, the split of rank r has children
    1 + 2r and 2 + 2r, and a leaf's id is its rank among the leaves."""
    inner = np.cumsum(split) - split  # internal nodes before each node
    rank = inner - inner[first]
    left = np.where(split, first + 1 + 2 * rank, -1)
    leaf_id = np.where(split, -1, np.arange(split.size) - first - rank)
    return left, leaf_id


def equals_splits(n_levels: np.ndarray, feature: np.ndarray) -> np.ndarray:
    """Equals iff the split column is categorical (``n_levels[j] > 0``)."""
    return (feature >= 0) & (n_levels[np.maximum(feature, 0)] > 0)


@dataclass
class Tree:
    """One tree's slice of a ``Forest``'s arrays, and its Equals splits."""

    feature: np.ndarray
    threshold: np.ndarray
    is_equal: np.ndarray
    leaf_count: np.ndarray
    leaf_stat: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    @property
    def n_leaves(self) -> int:
        return self.leaf_count.shape[0]

    @property
    def left(self) -> np.ndarray:
        return breadth_first_layout(self.feature >= 0)[0]

    @property
    def right(self) -> np.ndarray:
        return np.where(self.feature >= 0, self.left + 1, -1)

    @property
    def leaf_id(self) -> np.ndarray:
        return breadth_first_layout(self.feature >= 0)[1]


@dataclass
class Forest:
    """Every tree's splits and leaves stacked tree after tree, as a bundle
    stores them: a tree's nodes in breadth-first order, then the next tree's,
    and its leaves in node order. The split mask ``feature >= 0`` fixes each
    tree's children and leaf ids, and the schema which splits are Equals."""

    n_nodes: np.ndarray  # (B,) int64 nodes per tree
    feature: np.ndarray  # int32 per node, -1 at leaves
    threshold: np.ndarray  # float64 per node: cut point, or level code for Equals
    leaf_count: np.ndarray  # int64 counting-sample size per leaf, all >= 1
    leaf_stat: np.ndarray  # (leaves,) means or (leaves, C) class counts
    schema: Schema
    feature_ranges: np.ndarray  # (d, 2) training min/max; NaN rows for categorical
    params: ForestParams
    kind: str  # "regression" | "classification" | "none"
    n_classes: int = 0
    # the routing table derived from the splits, built on first routing
    _nodes: "_Nodes | None" = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_trees(self) -> int:
        return self.n_nodes.size

    @property
    def n_leaves(self) -> np.ndarray:
        """(B,) leaves per tree: a full binary tree of n nodes has (n + 1) / 2."""
        return (self.n_nodes + 1) // 2

    @property
    def total_leaves(self) -> int:
        return self.leaf_count.size

    @property
    def leaf_offsets(self) -> np.ndarray:
        """Global leaf index = leaf_offsets[b] + local leaf id."""
        sizes = self.n_leaves
        return (np.cumsum(sizes) - sizes).astype(np.int64)

    @property
    def is_equal(self) -> np.ndarray:
        """Per node: an Equals split (on a categorical column)."""
        return equals_splits(self.schema.n_levels, self.feature)

    @property
    def trees(self) -> tuple[Tree, ...]:
        """Per-tree ``Tree`` views into the stacked arrays, built on each access."""
        nodes, leaves = np.cumsum(self.n_nodes)[:-1], self.leaf_offsets[1:]
        return tuple(Tree(*t) for t in zip(
            *(np.split(a, nodes) for a in (self.feature, self.threshold, self.is_equal)),
            *(np.split(a, leaves) for a in (self.leaf_count, self.leaf_stat))))

    def _node_table(self) -> "_Nodes":
        if self._nodes is None:
            starts = np.concatenate(([0], np.cumsum(self.n_nodes))).astype(np.int64)
            self._nodes = _node_arrays(starts, self.feature, self.threshold, self.is_equal,
                                       self.schema.n_columns)
        return self._nodes

    @property
    def box(self) -> "Region":
        """The training feature box as one cell: every level allowed."""
        masks = {j: np.ones(len(c.levels), dtype=bool)
                 for j, c in enumerate(self.schema.columns) if c.is_categorical}
        lo, hi = np.nan_to_num(self.feature_ranges).T
        return Region(self.schema, lo, hi, masks)


# ---------------------------------------------------------------------------
# growing


def _feature_ranges(schema: Schema, values: np.ndarray) -> np.ndarray:
    out = np.full((schema.n_columns, 2), np.nan)
    for j, col in enumerate(schema.columns):
        if not col.is_categorical:
            out[j, 0] = values[:, j].min()
            out[j, 1] = values[:, j].max()
    return out


# Most distinct sampled rows (expected) grown together in one chunk: numpy's
# per-call cost is paid once per depth level of a chunk. On a 2-vCPU x86 host
# a banknote fold's 500 trees (1,100 distinct of 1,700 rows per bag) grew in
# 1.30, 1.35 and 1.23 s at 20k, 40k and 60k (median of 5 fits, median of three
# rounds; within the host's spread), while the CLI fit's peak RSS read 71.5,
# 72.4 and 74.0 MB and growth's traced peak 7.7, 11.4 and 14.7 MB.
_CHUNK_SLOTS = 20_000
# Completely random chunks hold this many times more: their slots carry no
# per-column sort keys, and three bags of a 20k-row table then share each
# level's passes. On the same host the 25-tree clusters fold (20k rows,
# min_leaf 20) grew in 0.87-1.06, 0.83-0.96, 0.80-0.94 and 0.85-0.86 s
# (median of 3, two rounds) at scales 1, 3, 6 and 9, and the process's peak
# RSS read 46.0, 54.6, 64.1 and 85.1 MB.
_CR_CHUNK_SCALE = 3


@dataclass(frozen=True)
class _Sample:
    """The training table as growth reads it."""

    values: np.ndarray  # (n, d)
    n_levels: np.ndarray  # (d,) level count, 0 for continuous columns
    y: np.ndarray | None  # (n,) regression labels or class codes; None if unlabeled
    kind: str
    n_classes: int
    # honest label counts only: per column, its sorted distinct values if
    # continuous (else None), and each value's position in them (else 0)
    uniq: tuple | None
    rank: np.ndarray | None  # (n, d)
    place: np.ndarray | None  # CART only: (continuous columns, n) each row's stable rank


def _sample(table: Table, y, kind: str, n_classes: int, honest: bool, cr: bool) -> _Sample:
    """What growth reads of the table, built once for every tree: CART's
    stable ranks of the continuous columns and honest mode's value ranks."""
    values = table.values
    n_levels = table.schema.n_levels
    uniq = rank = place = None
    if honest:
        uniq = tuple(None if k else _sorted_unique(values[:, j]) for j, k in enumerate(n_levels))
        rank = np.zeros(values.shape, dtype=np.intp)
        for j, u in enumerate(uniq):
            if u is not None:
                rank[:, j] = np.searchsorted(u, values[:, j])
    if not cr:
        order = np.argsort(values[:, n_levels == 0], axis=0, kind="stable").T
        place = np.argsort(order, axis=1)  # ties keep row order
    return _Sample(values, n_levels, y, kind, n_classes, uniq, rank, place)


def _bag_size(params: ForestParams, n: int) -> int:
    return max(2, math.ceil(params.subsample_fraction * n))


def _split_slots(params: ForestParams, n: int) -> int:
    """Expected distinct rows in a tree's split sample: a bootstrap bag of s
    draws from n rows holds n (1 - (1 - 1/n)^s) of them."""
    s = _bag_size(params, n)
    if params.honest:
        s = max(1, s // 2)
    if params.bootstrap:
        s = round(-n * math.expm1(s * math.log1p(-1 / n)))
    return max(1, s)


def _draw_counts(bags: np.ndarray, n: int) -> np.ndarray:
    """(trees, n): how often each tree's bag drew each row."""
    t = bags.shape[0]
    return np.bincount((np.arange(t)[:, None] * n + bags).ravel(), minlength=t * n).reshape(t, n)


def _first_min(cost: np.ndarray, first: np.ndarray, lens: np.ndarray, slack=0.0) -> np.ndarray:
    """Index of the first ``cost`` within ``slack[g]`` of the lowest in each
    run ``first[g]`` to ``first[g] + lens[g]`` (runs back to back, none empty)."""
    hit = np.flatnonzero(cost <= np.repeat(np.minimum.reduceat(cost, first) + slack, lens))
    return hit[np.searchsorted(hit, first)]


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique`` of a NaN-free array, by sorting: on numpy 2.4 ``np.unique``
    without ``return_index`` imports ``numpy.ma``, 16 ms of process start."""
    a = np.sort(a, axis=None)
    return a[np.concatenate(([True], a[1:] != a[:-1]))[:a.size]]


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(a, a + l)`` over the pairs."""
    ends = np.cumsum(lens)
    return np.repeat(starts + lens - ends, lens) + np.arange(ends[-1])


def _key_bits(size: int) -> int:
    """Bits b of the low field of growth's sort keys ``(node << b) | (tree * n + place)``: both
    fields lie below ``size`` = trees * n, so each fits an int32 and a key an int64 while
    size < 2**31."""
    if size >= 1 << 31:
        raise ForestError(f"a chunk of trees x rows = {size} overflows growth's int64 sort keys")
    return size.bit_length()


def _segment_cumsum(a: np.ndarray, first: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Inclusive prefix sums of ``a`` along its last axis, restarted at each
    segment (``first`` index, ``lens`` long, back to back). Integer sums are
    exact, so they are one running sum less each segment's base. A float sum
    adds only its own segment's terms, in an order set by its index in the
    segment (a Hillis-Steele scan), so it does not depend on other segments."""
    if a.dtype.kind in "biu":
        out = np.cumsum(a, axis=-1)
        return out - np.repeat((out - a)[..., first], lens, axis=-1)
    local = np.arange(a.shape[-1]) - np.repeat(first, lens)
    out = a.copy()
    step, longest = 1, lens.max()
    while step < longest:
        at = np.flatnonzero(local >= step)
        out[..., at] += out[..., at - step]
        step *= 2
    return out


def _pick(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row, the ``floor(u * count)``-th True column of a mask given its
    running count ``cum`` along the row: a uniform pick among them for ``u``
    uniform on [0, 1)."""
    return (cum <= np.floor(u * cum[:, -1])[:, None]).sum(axis=1)


class _Chunk:
    """Trees grown together, breadth-first, one depth level per pass.

    A slot is one distinct sampled row of one tree, weighted by how often
    the tree's bag drew it (1 without bootstrap); slots are numbered tree by
    tree, rows ascending. Sizes, floors, stops and label sums weigh each slot
    by its draw count, so a tree is the one its bag's copies would grow. Open
    nodes are listed tree by tree in breadth-first order, and node k owns the
    contiguous positions ``live_start[k]`` to ``live_start[k] + node_len[k]``
    of ``live_slot``, which lists its slots by id (no padding) and is kept so
    by a stable partition after each level. CART keeps no order by value:
    each level sorts, per continuous column, only the slots of the nodes that
    drew it, by one integer key per slot that ranks (node, value, row).

    Every draw comes from the tree's own generator and every sum runs over
    one node's own slots, so a tree does not depend on the chunk it grows in.
    """

    def __init__(self, data: _Sample, params: ForestParams, seeds, cr: bool):
        self.data, self.params, self.cr = data, params, cr
        n, d = data.values.shape
        self.rngs = [np.random.default_rng(s) for s in seeds]
        # each tree's bag is the first draw of its own generator
        bag_size = _bag_size(params, n)
        bags = np.stack([g.choice(n, size=bag_size, replace=params.bootstrap) for g in self.rngs])
        if params.honest:
            perm = np.stack([g.permutation(bag) for g, bag in zip(self.rngs, bags)])
            half = max(1, bag_size // 2)
            bags, lab = perm[:, :half], _draw_counts(perm[:, half:], n)
            # label rows, distinct per tree; their draw counts set only the open rule
            self.lab_node, self.lab_row = np.nonzero(lab)  # open node, -1 once settled
            self.lab_w = lab[self.lab_node, self.lab_row]
            self.lab_x = data.values[self.lab_row].T  # (d, label rows)
            self.lab_rank = data.rank[self.lab_row].T
        count = _draw_counts(bags, n)
        tree, self.row = np.nonzero(count)
        if not params.honest:
            self.lab_row = self.row
        self.w = count[tree, self.row]
        self.x = data.values.T.take(self.row, axis=1)  # (d, slots)
        self.y = None if data.y is None else data.y[self.row]
        # two classes: each slot's class-1 weight above its weight, w1 << 32 | w, so one
        # running sum holds both (a CART chunk weighs at most trees * n < 2**31, _key_bits)
        two = data.kind == CLASSIFICATION and data.n_classes == 2
        self.w1 = ((self.y == 1) * self.w) << 32 | self.w if two else None
        self.mtry = min(params.mtry or max(1, round(math.sqrt(d))), d)
        self.live_slot = np.arange(tree.size)
        if not cr:  # per continuous column: each slot's tree * n + place, and its inverse
            self.bits = _key_bits(count.size)
            self.key, self.slot_of = {}, {}
            for j, place in zip(np.flatnonzero(data.n_levels == 0), data.place):
                self.key[j] = key = (tree * n + place[self.row]).astype(np.int32)
                self.slot_of[j] = np.empty(count.size, dtype=np.int32)  # read only at keys
                self.slot_of[j][key] = self.live_slot
        self.node_tree = np.arange(len(seeds))  # open nodes: tree,
        self.node_len = np.bincount(tree, minlength=len(seeds))  # slot count
        self.lab_leaf = np.full(self.lab_row.size, -1)  # node id of each label row's leaf

    def grow(self) -> dict:
        levels = []
        first = depth = 0
        max_depth = self.params.max_depth
        while self.node_tree.size:
            open_ = self._level_stats()
            if max_depth is not None and depth >= max_depth:
                open_[:] = False
            feat, cut = self._random_splits(open_) if self.cr else self._scored_splits(open_)
            eq = equals_splits(self.data.n_levels, feat)
            ids = first + np.arange(feat.size)
            levels.append((self.node_tree, feat, cut))
            self._advance(feat, cut, eq, ids)
            first += feat.size
            depth += 1
        return self._trees(levels)

    # -- one level -----------------------------------------------------------

    def _level_stats(self) -> np.ndarray:
        """Per open node: child floor, label sums and the stop rules; returns
        the nodes that may split."""
        p, data = self.params, self.data
        n_nodes, length = self.node_tree.size, self.node_len
        w = self.w[self.live_slot]
        self.live_node = np.repeat(np.arange(n_nodes), length)
        self.live_start = np.cumsum(length) - length
        self.node_m = m = np.add.reduceat(w, self.live_start)  # size: slot weight
        self.mc = np.maximum(p.min_leaf, np.ceil(p.min_node_fraction * m)).astype(np.intp)
        open_ = m >= np.maximum(2, 2 * self.mc)
        if p.honest:
            on = self.lab_node >= 0
            self.lab_n = np.bincount(self.lab_node[on], minlength=n_nodes)
            open_ &= np.bincount(self.lab_node[on], self.lab_w[on], minlength=n_nodes) >= 2
            self.lab_index = [self._label_index(j, on) for j in range(data.values.shape[1])]
        if self.cr:
            return open_
        y0 = self.y[self.live_slot]
        if data.kind == CLASSIFICATION:
            c = data.n_classes
            self.live_class = y0.astype(np.intp)
            key = self.live_node * c + self.live_class
            self.class_count = np.bincount(key, w, n_nodes * c).reshape(n_nodes, c)
            return open_ & (self.class_count.max(axis=1) < m)  # purity stop
        pure = np.minimum.reduceat(y0, self.live_start) == np.maximum.reduceat(y0, self.live_start)
        # labels centered per node keep prefix sums small
        self.mean = np.bincount(self.live_node, weights=w * y0, minlength=n_nodes) / m
        self.live_yc = y0 - self.mean[self.live_node]
        wyc = w * self.live_yc
        self.node_sum = np.bincount(self.live_node, weights=wyc, minlength=n_nodes)
        self.sse = np.bincount(self.live_node, weights=wyc * self.live_yc, minlength=n_nodes)
        return open_ & ~pure

    def _label_index(self, j: int, on: np.ndarray) -> np.ndarray:
        """Honest mode: label slots per (node, level) of categorical column
        j, or the sorted ``node * width + rank`` keys of continuous column j."""
        node = self.lab_node[on]
        n_nodes = self.node_tree.size
        if n_levels := self.data.n_levels[j]:
            key = node * n_levels + self.lab_x[j][on].astype(np.intp)
            return np.bincount(key, minlength=n_nodes * n_levels).reshape(n_nodes, n_levels)
        return np.sort(node * (len(self.data.uniq[j]) + 1) + self.lab_rank[j][on])

    def _label_below(self, j: int, nodes: np.ndarray, cut: np.ndarray) -> np.ndarray:
        """Honest mode: label slots of each node with column j below cut."""
        u, keys = self.data.uniq[j], self.lab_index[j]
        first = nodes * (len(u) + 1)
        return np.searchsorted(keys, first + np.searchsorted(u, cut)) - np.searchsorted(keys, first)

    def _draw(self, nodes: np.ndarray, width: int) -> np.ndarray:
        """``random((k, width))`` from each tree's own generator for its k
        open ``nodes`` (in order)."""
        counts = np.bincount(self.node_tree[nodes], minlength=len(self.rngs))
        parts = [self.rngs[t].random((k, width)) for t, k in enumerate(counts.tolist()) if k]
        return np.concatenate(parts) if parts else np.empty((0, width))

    def _scored_splits(self, open_: np.ndarray):
        """CART: each open node's best split over ``mtry`` candidate columns
        drawn per node; ties (``_slack``) go to the lowest column, then the
        leftmost cut or the lowest level."""
        n_nodes, d = open_.size, self.data.values.shape[1]
        nodes = np.flatnonzero(open_)
        cand = np.full((nodes.size, d), self.mtry >= d)
        if self.mtry < d:
            order = np.argsort(self._draw(nodes, d), axis=1)
            np.put_along_axis(cand, order[:, : self.mtry], True, axis=1)
        best = np.full(n_nodes, np.inf)
        feat = np.full(n_nodes, -1)
        cut = np.zeros(n_nodes)
        for j in range(d):
            at = nodes[cand[:, j]]
            if not at.size:
                continue
            score = self._score_categorical if self.data.n_levels[j] else self._score_continuous
            cost, c = score(j, at)
            better = cost < best[at] - self._slack(at)
            at = at[better]
            best[at], feat[at], cut[at] = cost[better], j, c[better]
        return feat, cut

    def _slack(self, nodes: np.ndarray):
        """Per node, the cost gap below which two splits tie. Regression costs
        of one partition differ by the rounding of label sums taken in row or
        column order, so a gap within ``_TIE_RTOL`` x the node's SSE is a tie;
        classification costs come from exact counts."""
        return _TIE_RTOL * self.sse[nodes] if self.data.kind == REGRESSION else 0.0

    def _score_continuous(self, j: int, nodes: np.ndarray):
        """Per node of ``nodes``, the lowest cost over cuts at midpoints
        between adjacent distinct values of column j that leave each child
        its floor, and that cut (inf where none is valid)."""
        length, m, mc = self.node_len[nodes], self.node_m[nodes], self.mc[nodes]
        slot = self._by_value(j, nodes, length)
        v, w = self.x[j][slot], (self.w if self.w1 is None else self.w1)[slot]
        end = np.cumsum(length)  # one past each node's last index in slot
        seg = end - length
        # the cut between i and i + 1 sends cw[i] - base of its node's weight
        # left. Every slot weighs 1 or more, so cw rises strictly, and the cuts
        # that leave each child its floor (mc <= n_left <= m - mc, so never
        # after a node's last slot) are its positions lo to hi - 1
        c = np.cumsum(w)  # two classes: class 1's running weight in the high 32 bits
        cw, c0 = c & 0xFFFFFFFF, c[seg] - w[seg]  # c0: the sums before each node
        base, top = c0 & 0xFFFFFFFF, cw[end - 1]
        lo = np.searchsorted(cw, base + mc, "left")
        hi = np.searchsorted(cw, top - mc, "right")
        # a mask over the positions: per node, runs of False, True, False
        runs = np.empty(3 * nodes.size, dtype=np.intp)
        runs[0::3], runs[1::3], runs[2::3] = lo - seg, hi - lo, end - hi
        ok = np.repeat(np.arange(runs.size) % 3 == 1, runs)[:-1]
        # ... at cuts between distinct values, where the midpoint does not
        # round onto the lower one (which would send it right)
        below, above = v[:-1], v[1:]
        mid = 0.5 * (below + above)
        ok &= (above > below) & (mid > below)
        i = np.flatnonzero(ok)
        if self.params.honest:
            k = np.searchsorted(end, i, "right")
            lab = self._label_below(j, nodes[k], mid[i])
            i = i[(lab >= 1) & (lab < self.lab_n[nodes[k]])]
        first = np.searchsorted(i, lo)  # a node's cuts are i[first:first + n_cut]
        n_cut = np.searchsorted(i, hi) - first
        cwi = cw[i]
        n_left = cwi - np.repeat(base, n_cut)
        n_right = np.repeat(top, n_cut) - cwi
        # label sums left of each cut: prefix sums over each node's slots
        if self.w1 is not None:
            # two classes: class 1's weight left and right of each cut
            c1i = c[i] >> 32
            l1 = c1i - np.repeat(c0 >> 32, n_cut)
            r1 = np.repeat(c[end - 1] >> 32, n_cut) - c1i
            l0, r0 = n_left - l1, n_right - r1
            cost = (n_left - (l0 * l0 + l1 * l1) / n_left) + (
                n_right - (r0 * r0 + r1 * r1) / n_right
            )
        elif self.data.kind == CLASSIFICATION:
            # exact counts of classes 1..C-1; class 0 is the rest
            up = (self.y[slot] == np.arange(1, self.data.n_classes)[:, None]) * w
            up = _segment_cumsum(up, seg, length)[:, i]
            left = np.vstack([n_left - up.sum(axis=0), up])
            right = self.class_count[np.repeat(nodes, n_cut)].T - left
            cost = (n_left - (left * left).sum(axis=0) / n_left) + (
                n_right - (right * right).sum(axis=0) / n_right
            )
        else:
            yc = (self.y[slot] - np.repeat(self.mean[nodes], length)) * w
            left = _segment_cumsum(yc, seg, length)[i]
            node = np.repeat(nodes, n_cut)
            right = self.node_sum[node] - left
            cost = self.sse[node] - left * left / n_left - right * right / n_right
        out_cost = np.full(nodes.size, np.inf)
        out_cut = np.zeros(nodes.size)
        has = n_cut > 0
        if has.any():
            best = _first_min(cost, first[has], n_cut[has], self._slack(nodes[has]))
            out_cost[has], out_cut[has] = cost[best], mid[i[best]]
        return out_cost, out_cut

    def _by_value(self, j: int, nodes: np.ndarray, length: np.ndarray) -> np.ndarray:
        """The slots of ``nodes``, node by node, each node's by (value of
        column j, row): one sort of unique ``(node << bits) | key`` int64s."""
        slot = self.live_slot[_ranges(self.live_start[nodes], length)]
        key = np.repeat(np.arange(nodes.size) << self.bits, length) | self.key[j][slot]
        key.sort()
        return self.slot_of[j][key & ((1 << self.bits) - 1)]

    def _score_categorical(self, j: int, nodes: np.ndarray):
        """Per node of ``nodes``, the lowest one-vs-rest cost over the levels
        of column j, and that level, from one bincount over the nodes' slots
        by (node, level)."""
        n_levels = self.data.n_levels[j]
        size, length = nodes.size * n_levels, self.node_len[nodes]
        at = _ranges(self.live_start[nodes], length)
        key = np.repeat(np.arange(nodes.size), length) * n_levels
        key += self.x[j][self.live_slot[at]].astype(np.intp)
        w = self.w[self.live_slot[at]]
        cnt = np.bincount(key, w, size).reshape(nodes.size, n_levels)
        m, mc = self.node_m[nodes, None], self.mc[nodes, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.data.kind == CLASSIFICATION:
                c = self.data.n_classes
                cl = np.bincount(key * c + self.live_class[at], w, size * c)
                cl = cl.reshape(nodes.size, n_levels, c)
                rest = self.class_count[nodes, None, :] - cl
                cost = (cnt - (cl * cl).sum(axis=2) / cnt) + (
                    (m - cnt) - (rest * rest).sum(axis=2) / (m - cnt)
                )
            else:
                s1 = np.bincount(key, weights=w * self.live_yc[at], minlength=size)
                s1 = s1.reshape(nodes.size, n_levels)
                s2 = self.node_sum[nodes, None] - s1
                cost = self.sse[nodes, None] - s1 * s1 / cnt - s2 * s2 / (m - cnt)
        ok = (cnt >= mc) & (m - cnt >= mc)
        if self.params.honest:
            lab = self.lab_index[j][nodes]
            ok &= (lab >= 1) & (lab < self.lab_n[nodes, None])
        cost = np.where(ok, cost, np.inf)
        best = np.argmax(cost <= (cost.min(axis=1) + self._slack(nodes))[:, None], axis=1)
        return cost[np.arange(nodes.size), best], best.astype(np.float64)

    def _random_splits(self, open_: np.ndarray):
        """Completely random: a uniform column among the node's non-constant
        ones and a uniform cut on (node min, node max) or a uniform present
        level. Each node draws ``_CR_SPLIT_TRIES`` tries at once and takes the
        first that keeps both child floors, or stays a leaf; the tries are
        tested in doubling batches (1, 1, 2, 4, ...) over every node still
        without a split, so a level runs a few passes, not one per try."""
        data, m, mc, length = self.data, self.node_m, self.mc, self.node_len
        n_nodes, d = open_.size, data.values.shape[1]
        # every column's values in position order, so a node's are contiguous,
        # and the slot weights, unless every slot weighs 1 (no bootstrap)
        x = self.x.take(self.live_slot, axis=1)
        w = self.w[self.live_slot] if self.params.bootstrap else None
        lo, hi = np.zeros((n_nodes, d)), np.zeros((n_nodes, d))
        count, present = {}, {}  # categorical column: weight, running level count
        for j in range(d):
            if n_levels := data.n_levels[j]:
                key = self.live_node * n_levels + x[j].astype(np.intp)
                count[j] = np.bincount(key, w, n_nodes * n_levels).reshape(n_nodes, -1)
                present[j] = np.cumsum(count[j] > 0, axis=1)
                hi[:, j] = present[j][:, -1] - 1  # eligible: two levels or more
            else:
                lo[:, j] = np.minimum.reduceat(x[j], self.live_start)
                hi[:, j] = np.maximum.reduceat(x[j], self.live_start)
        eligible = np.cumsum(hi > lo, axis=1)
        span = hi - lo
        x, width = x.ravel(), x.shape[1]
        feat = np.full(n_nodes, -1)
        cut = np.zeros(n_nodes)
        nodes = np.flatnonzero(open_ & (eligible[:, -1] > 0))
        # try t of node i reads tries[i, t]: (column, cut or level) uniforms
        tries = self._draw(nodes, 2 * _CR_SPLIT_TRIES).reshape(nodes.size, _CR_SPLIT_TRIES, 2)
        pending, t0 = np.arange(nodes.size), 0  # rows of tries still without a split
        while pending.size and t0 < _CR_SPLIT_TRIES:
            t1 = min(max(1, 2 * t0), _CR_SPLIT_TRIES)
            # one (node, try) pair per entry, node-major
            u = tries[pending, t0:t1].reshape(-1, 2)
            node = np.repeat(nodes[pending], t1 - t0)
            col = _pick(eligible[node], u[:, 0])
            low = lo[node, col]
            c = low + u[:, 1] * span[node, col]
            ok = c > low
            # split weight that each try sends left: a level's from the level
            # counts, a cut's by summing the weights below it
            n_left = np.zeros(node.size, dtype=np.intp)
            for j in count:
                sel = np.flatnonzero(col == j)
                c[sel] = level = _pick(present[j][node[sel]], u[sel, 1])
                ok[sel] = True
                n_left[sel] = count[j][node[sel], level]
            cont = np.flatnonzero(ok & (data.n_levels[col] == 0))
            if cont.size:
                k = node[cont]
                at = _ranges(col[cont] * width + self.live_start[k], length[k])
                below = x[at] < np.repeat(c[cont], length[k])
                if w is not None:
                    below = below * w[at % width]
                n_left[cont] = np.add.reduceat(below, np.cumsum(length[k]) - length[k],
                                               dtype=np.intp)
            ok &= (n_left >= mc[node]) & (m[node] - n_left >= mc[node])
            if self.params.honest:
                lab = np.zeros(node.size, dtype=np.intp)
                for j in _sorted_unique(col):
                    sel = np.flatnonzero(col == j)
                    if j in count:
                        lab[sel] = self.lab_index[j][node[sel], c[sel].astype(np.intp)]
                    else:
                        lab[sel] = self._label_below(j, node[sel], c[sel])
                ok &= (lab >= 1) & (lab < self.lab_n[node])
            ok = ok.reshape(pending.size, t1 - t0)
            won = ok.any(axis=1)
            first = np.flatnonzero(won) * (t1 - t0) + ok.argmax(axis=1)[won]
            feat[node[first]], cut[node[first]] = col[first], c[first]
            pending, t0 = pending[~won], t1
        return feat, cut

    def _advance(self, feat, cut, eq, ids) -> None:
        """Route the slots of split nodes to their children and lay out the
        next level: in each split node's range, left slots move first, then
        right ones, each in their order; ranges of new leaves are dropped and
        their slots settled to the leaf's node id."""
        split = feat >= 0
        node = self.live_node
        if self.params.honest:
            on = np.flatnonzero(self.lab_node >= 0)
            lnode = self.lab_node[on]
            lx = self.lab_x[np.maximum(feat, 0)[lnode], on]
            lab_left = np.where(eq[lnode], lx == cut[lnode], lx < cut[lnode])
            child = 2 * (np.cumsum(split) - 1)[lnode] + ~lab_left
            self.lab_leaf[on] = np.where(split[lnode], -1, ids[lnode])
            self.lab_node[on] = np.where(split[lnode], child, -1)
        else:  # label rows are the split slots
            settled = ~split[node]
            self.lab_leaf[self.live_slot[settled]] = ids[node[settled]]

        parents = np.flatnonzero(split)
        if not parents.size:
            self.node_tree = parents
            return
        # which of the split nodes' positions go left
        length = self.node_len[parents]
        at = _ranges(self.live_start[parents], length)
        slot = self.live_slot[at]
        t = np.repeat(cut[parents], length)
        x = self.x.ravel()[np.repeat(feat[parents] * self.x.shape[1], length) + slot]
        left = x < t
        if eq[parents].any():
            is_eq = np.repeat(eq[parents], length)
            left[is_eq] = x[is_eq] == t[is_eq]
        nl = np.add.reduceat(left, np.cumsum(length) - length, dtype=np.intp)
        nr = length - nl
        # stable partition: with c left slots among the first p + 1 of the split nodes'
        # positions, a left slot lands at c - 1 plus the right slots of earlier nodes,
        # a right one at p - c plus the left slots of its own and earlier nodes
        c = np.cumsum(left)
        to = np.where(left, np.repeat(np.cumsum(nr) - nr - 1, length) + c,
                      np.arange(at.size) + np.repeat(np.cumsum(nl), length) - c)
        self.live_slot = np.empty(at.size, dtype=np.intp)
        self.live_slot[to] = slot
        self.node_tree = np.repeat(self.node_tree[parents], 2)
        self.node_len = np.stack([nl, nr], axis=1).ravel()

    # -- output --------------------------------------------------------------

    def _trees(self, levels) -> dict:
        """The chunk's trees as ``Forest`` arrays, tree after tree in
        breadth-first order; leaf counts and stats come from the leaves of the
        distinct label rows, each counted once."""
        data = self.data
        tree, feat, cut = (np.concatenate(a) for a in zip(*levels))
        n_nodes = tree.size
        leaf, row = self.lab_leaf, self.lab_row
        counts = np.bincount(leaf, minlength=n_nodes)
        is_leaf = feat < 0
        if counts[is_leaf].min() < 1:
            raise ForestError("empty leaf after counting pass")
        if data.kind == CLASSIFICATION:
            c = data.n_classes
            key = leaf * c + data.y[row].astype(np.intp)
            stat = np.bincount(key, minlength=n_nodes * c).reshape(n_nodes, c).astype(np.float64)
        elif data.kind == REGRESSION:
            order = np.lexsort((data.y[row], leaf))  # a leaf's labels in ascending order
            stat = np.bincount(leaf[order], weights=data.y[row[order]], minlength=n_nodes)
            stat /= np.maximum(counts, 1)
        else:
            stat = np.zeros(n_nodes)
        nodes = np.argsort(tree, kind="stable")
        leaves = nodes[is_leaf[nodes]]
        return {"n_nodes": np.bincount(tree, minlength=len(self.rngs)),
                "feature": feat[nodes].astype(np.int32), "threshold": cut[nodes],
                "leaf_count": counts[leaves], "leaf_stat": stat[leaves]}


def _join(parts: list[dict]) -> dict:
    """The ``Forest`` arrays of consecutive groups of trees, as one forest's."""
    return {name: np.concatenate([p[name] for p in parts]) for name in parts[0]}


def _grow(data: _Sample, params: ForestParams, seeds, cr: bool) -> dict:
    """One tree per seed, grown in as few chunks of at most ``slots`` expected
    distinct sampled rows (or one tree) as hold them all, trees spread evenly."""
    slots = _CHUNK_SLOTS * (_CR_CHUNK_SCALE if cr else 1)
    per = max(1, slots // _split_slots(params, data.values.shape[0]))
    parts = np.array_split(np.arange(len(seeds)), -(-len(seeds) // per))
    return _join([_Chunk(data, params, [seeds[i] for i in part], cr).grow() for part in parts])


def _worker(args):
    return _grow(*args)


def _fit(table: Table, y, kind, n_classes, params: ForestParams, cr: bool, jobs: int) -> Forest:
    if table.n < 2:
        raise ForestError("need at least 2 rows")
    data = _sample(table, y, kind, n_classes, params.honest, cr)
    children = np.random.SeedSequence(params.seed).spawn(params.n_trees)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunks = np.array_split(np.arange(params.n_trees), min(jobs, params.n_trees))
        tasks = [(data, params, [children[i] for i in c], cr) for c in chunks if len(c)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            arrays = _join(list(pool.map(_worker, tasks)))
    else:
        arrays = _grow(data, params, children, cr)
    return Forest(
        **arrays,
        schema=table.schema,
        feature_ranges=_feature_ranges(table.schema, table.values),
        params=params,
        kind=kind,
        n_classes=n_classes,
    )


def fit_supervised(table: Table, labels, params: ForestParams, jobs: int = 1) -> Forest:
    """CART forest: variance-reduction splits for continuous labels, Gini for
    categorical ones. ``labels`` is a (Column, values) pair as returned by
    ``Table.column``.
    """
    col, y = labels
    y = np.asarray(y, dtype=np.float64)
    if y.shape[0] != table.n:
        raise ForestError("labels length must match table")
    if col.is_categorical:
        return _fit(table, y, CLASSIFICATION, len(col.levels), params, cr=False, jobs=jobs)
    return _fit(table, y, REGRESSION, 0, params, cr=False, jobs=jobs)


def fit_completely_random(table: Table, params: ForestParams, jobs: int = 1) -> Forest:
    """Label-free forest: uniform feature and uniform cut at every node."""
    return _fit(table, None, "none", 0, params, cr=True, jobs=jobs)


def fit_unsupervised(
    table: Table, params: ForestParams, rounds: int = 1, jobs: int = 1
) -> Forest:
    """Real-vs-marginal discriminator forest.

    Round 1 labels the real rows 1 and an independent column-wise resample 0,
    then fits a classifier on the stacked 2n rows. Later rounds regenerate the
    synthetic half by resampling columns within the current forest's leaves
    (weighted by real-row coverage) and refit, sharpening the partition toward
    the joint distribution.
    """
    from .data import marginal_synthesize

    if rounds < 1:
        raise ForestError("rounds must be >= 1")
    label_col = Column("__real__", ("synthetic", "real"))
    y = np.concatenate([np.ones(table.n), np.zeros(table.n)])

    def fit_round(synth_values: np.ndarray, round_params: ForestParams) -> Forest:
        stacked = Table(table.schema, np.vstack([table.values, synth_values]))
        return fit_supervised(stacked, (label_col, y), round_params, jobs=jobs)

    forest = fit_round(marginal_synthesize(table, params.seed).values, params)
    round_seeds = np.random.SeedSequence(params.seed).spawn(max(1, rounds - 1))
    for r in range(1, rounds):
        synth_values = _resample_within_leaves(
            forest, table.values, np.random.default_rng(round_seeds[r - 1])
        )
        forest = fit_round(synth_values, replace(params, seed=params.seed + r + 1))
    return forest


def _resample_within_leaves(forest: Forest, real_values: np.ndarray, rng) -> np.ndarray:
    """Each row: a random tree, a leaf drawn by real-row count, and every cell
    copied from a random real row of that leaf."""
    n, d = real_values.shape
    assigned = route_values(forest, real_values)
    out = np.empty_like(real_values)
    tree_pick = rng.integers(0, forest.n_trees, size=n)
    n_leaves = forest.n_leaves
    for b in _sorted_unique(tree_pick):
        rows = np.flatnonzero(tree_pick == b)
        leaves = assigned[:, b]
        counts = np.bincount(leaves, minlength=n_leaves[b])
        chosen = rng.choice(counts.shape[0], size=rows.shape[0], p=counts / counts.sum())
        members = np.argsort(leaves, kind="stable")  # real rows grouped by leaf
        first = np.cumsum(counts) - counts
        offset = rng.integers(0, counts[chosen, None], size=(rows.shape[0], d))
        out[rows] = real_values[members[first[chosen, None] + offset], np.arange(d)]
    return out


# ---------------------------------------------------------------------------
# routing


# (tree, row) cells routed per block, so that a step's arrays stay in cache. On
# a 2-vCPU x86 host, routing the seed-3027 perfbench folds' reference and query
# rows (banknote: 878 + 494 rows, 500 trees; clusters: 20k + 10k rows, 25
# trees) took 0.063-0.091 and 0.103-0.114 s at 2**15 cells (median of 15),
# 0.064-0.087 and 0.111-0.115 s at 2**16, and 0.10 and 0.18 s at 2**17. The
# walk's allocations beyond the output peak at 1.7 MB at 2**15 (banknote
# reference table), 3.4 MB at 2**16 and 6.7 MB at 2**17.
_ROUTE_CELLS = 1 << 15
# Values in a block's widened grid, so a table whose splits test many levels
# routes fewer rows per block and the block's memory stays bounded. On a
# 5,000-row table whose 25 completely random trees test 246 levels of one
# column, 2**17 values (524 rows a block) routed in 0.032 s against 0.035 s at
# 2**16 and 0.049 s at 2**15, with a 2.4 MB peak: the grid, its gathered
# categorical columns and their match mask.
_ROUTE_GRID = 1 << 17
# Node ids, packed keys and grid positions are int32 while they lie below this.
_INT32_LIMIT = 1 << 31


@dataclass(frozen=True)
class _Nodes:
    """Every tree's nodes stacked into one array set with global node ids.

    Routing tests every split as ``x < t`` on a column of the widened grid
    (``_widen``): the value columns, then one indicator column per (column,
    level) that some Equals split tests, -inf where the cell holds that level
    and +inf elsewhere (so the split's own threshold, the level code, sends
    exactly the matches left), then a sentinel column of zeros. ``key`` packs
    a node's step as ``((next + 1) << shift) | column``, where a split's next
    node is its left child and a leaf's is the leaf itself. A step gathers the
    key, the cell's grid value and the threshold, compares once, and takes
    ``(key >> shift) - (x < t)``: the left child if x < t, else the right one
    (left + 1). A leaf tests the sentinel column against +inf, so its cell
    always goes left, to the leaf.
    """

    starts: np.ndarray  # (B + 1,) global id of each tree's root; total at the end
    feature: np.ndarray  # -1 at leaves
    threshold: np.ndarray  # cut or level code at splits, +inf at leaves
    is_equal: np.ndarray  # Equals splits
    left: np.ndarray  # global ids, -1 at leaves; the right child is left + 1 (int32 if all fit)
    leaf_id: np.ndarray  # local leaf id, -1 at internal nodes (int32 if all fit)
    key: np.ndarray  # ((next + 1) << shift) | grid column; int32 if every key fits
    shift: int
    eq_column: np.ndarray  # (k,) value column of each indicator column
    eq_level: np.ndarray  # (k,) level code it marks
    width: int  # grid columns: values, indicators, sentinel


def _node_arrays(starts, feature, threshold, is_equal, n_columns: int) -> _Nodes:
    """A node table from its splits; the split mask fixes children and leaf ids."""
    split = feature >= 0
    is_equal = is_equal & split
    left, leaf_id = breadth_first_layout(split, np.repeat(starts[:-1], np.diff(starts)))
    threshold = np.where(split, threshold, np.inf)
    # one indicator column per (column, level) pair that an Equals split tests
    code = threshold[is_equal].astype(np.intp)
    span = int(code.max(initial=0)) + 1
    pairs, which = np.unique(feature[is_equal] * span + code, return_inverse=True)
    sentinel = int(n_columns) + pairs.size
    column = np.where(split, feature, sentinel)
    column[is_equal] = n_columns + which
    shift = max(1, sentinel.bit_length())
    key = np.where(split, left, np.arange(split.size))  # a leaf's next node is itself
    key += 1
    key <<= shift
    key |= column
    ids = np.int32 if split.size < _INT32_LIMIT else np.int64
    dtype = np.int32 if (split.size + 1) << shift <= _INT32_LIMIT else np.int64
    return _Nodes(starts, feature, threshold, is_equal, left.astype(ids), leaf_id.astype(ids),
                  key.astype(dtype), shift, pairs // span, (pairs % span).astype(np.float64),
                  sentinel + 1)


def _widen(nodes: _Nodes, values: np.ndarray) -> np.ndarray:
    """The row-major widened grid (see ``_Nodes``) of a block of value rows, flat."""
    m, d = values.shape
    grid = np.empty((m, nodes.width))
    grid[:, :d] = values
    grid[:, d:-1] = np.inf
    np.copyto(grid[:, d:-1], -np.inf, where=values[:, nodes.eq_column] == nodes.eq_level)
    grid[:, -1] = 0.0
    return grid.ravel()


def _descend(nodes: _Nodes, grid: np.ndarray, node: np.ndarray):
    """Walk tree-major cells down the stacked node table: with m rows in the
    flat widened ``grid``, cell ``b * m + i`` is row i starting at global node
    ``node[b * m + i]``, and ``node`` is advanced in place to each cell's leaf.
    Each depth step yields the walking cells' rows, their nodes, whether each
    takes the literal (left) and which of them are at a split; they move on
    when the caller resumes. A cell at a leaf loops on it, and walking cells
    are compacted once fewer than half of them are at a split: completely
    random trees are deep and unbalanced."""
    width, m = nodes.width, grid.size // nodes.width
    mask, shift, sentinel = (1 << nodes.shift) - 1, nodes.shift, width - 1
    cell, at = None, node.astype(np.intp, copy=False)  # cell: a walking cell's index in node
    row = np.arange(m, dtype=np.int32 if grid.size <= _INT32_LIMIT else np.int64)
    row = np.tile(row, node.size // m)
    base = row * width  # where each cell's grid row starts
    while True:
        key = nodes.key.take(at)
        col = (key & mask).astype(row.dtype, copy=False)  # a grid column, as a grid position
        split = col != sentinel
        n_split = np.count_nonzero(split)
        if 2 * n_split < at.size:  # also when none is left at a split
            keep = np.flatnonzero(split)
            if cell is None:
                node[:] = at
                cell = keep
            else:
                node[cell] = at
                cell = cell[keep]
            if not n_split:
                return
            at, row, base, key, col, split = (a[keep] for a in (at, row, base, key, col, split))
        col += base
        go_left = grid.take(col) < nodes.threshold.take(at)
        yield row, at, go_left, split
        key >>= shift  # the next node + 1: a split's right child, or the leaf + 1
        key -= go_left
        at = key.astype(np.intp, copy=False)  # the index type ``take`` reads without a cast


def route_values(forest: Forest, values: np.ndarray) -> np.ndarray:
    """Leaf ids (n x B) for a raw value grid aligned to the forest schema.

    All trees route together: every (tree, row) cell walks the stacked node
    table until it reaches a leaf.
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if values.shape[1] != forest.schema.n_columns:
        raise ForestError(f"rows have {values.shape[1]} columns; the forest has "
                          f"{forest.schema.n_columns}")
    return _route(forest._node_table(), values)


def _route(nodes: _Nodes, values: np.ndarray) -> np.ndarray:
    """Leaf ids (n x B) in every tree of the node table, a block of at most
    ``_ROUTE_CELLS`` cells and ``_ROUTE_GRID`` grid values (or one row) at a time."""
    n_trees = nodes.starts.size - 1
    out = np.empty((values.shape[0], n_trees), dtype=np.int32)
    step = max(1, min(_ROUTE_CELLS // n_trees, _ROUTE_GRID // nodes.width))
    for i in range(0, values.shape[0], step):
        block = values[i : i + step]
        node = np.repeat(nodes.starts[:-1], block.shape[0])
        deque(_descend(nodes, _widen(nodes, block), node), maxlen=0)  # walk, keeping no step
        out[i : i + step] = nodes.leaf_id[node].reshape(n_trees, -1).T
    return out


def route_table(forest: Forest, table: Table) -> tuple[np.ndarray, int]:
    """Route a table, remapping categorical levels by name.

    Returns (n x B leaf ids, count of unseen-level cells routed as mismatches).
    """
    from .data import align_to_schema

    values, unseen = align_to_schema(table, forest.schema)
    return route_values(forest, values), unseen


def predict(forest: Forest, x):
    """Mean leaf label over trees: scalar (or vector of class frequencies)."""
    if forest.kind not in (REGRESSION, CLASSIFICATION):
        raise ForestError("forest carries no label stats")
    single = np.asarray(x).ndim == 1
    stat = forest.leaf_stat
    if forest.kind == CLASSIFICATION:
        stat = stat / stat.sum(axis=1, keepdims=True)  # each leaf's class frequencies
    out = stat[route_values(forest, x) + forest.leaf_offsets].sum(axis=1) / forest.n_trees
    return out[0] if single else out


# ---------------------------------------------------------------------------
# regions


@dataclass
class Region:
    """A batch of axis-aligned closed cells: intervals ``[lo, hi]`` on
    continuous columns, allowed-level masks on categorical ones.

    ``lo`` and ``hi`` have shape ``(..., d)`` and each mask ``(..., L_j)``; a
    single cell is a batch of shape ``()``. Categorical columns keep
    ``lo = hi = 0``. Regions are never modified in place.
    """

    schema: Schema
    lo: np.ndarray
    hi: np.ndarray
    masks: dict[int, np.ndarray]

    def __getitem__(self, idx) -> "Region":
        """Index the batch dimensions."""
        return Region(
            self.schema, self.lo[idx], self.hi[idx], {j: m[idx] for j, m in self.masks.items()}
        )

    def intersect(self, other: "Region") -> "Region":
        """Coordinate-wise intersection, broadcasting the batch dimensions;
        emptiness is a result, not an error."""
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        masks = {j: m & other.masks[j] for j, m in self.masks.items()}
        return Region(self.schema, lo, hi, masks)

    def is_empty(self) -> np.ndarray:
        """Emptiness of every cell, shaped like the batch."""
        empty = np.any(self.lo > self.hi, axis=-1)
        for m in self.masks.values():
            empty = empty | ~m.any(axis=-1)
        return empty

    def sample(self, rng) -> np.ndarray:
        """One uniform draw per cell, shaped ``(..., d)``: continuous
        coordinates uniform on their intervals, categorical ones uniform on
        the allowed levels. ``rng`` is a Generator or a seed; a batch of n
        cells consumes one ``rng.random(n)`` per column, in column order.
        """
        if np.any(self.is_empty()):
            raise ForestError("cannot sample from an empty region")
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        d = self.schema.n_columns
        lo, hi = self.lo.reshape(-1, d), self.hi.reshape(-1, d)
        n = lo.shape[0]
        out = np.empty((n, d))
        for j, col in enumerate(self.schema.columns):
            u = rng.random(n)
            if col.is_categorical:
                m = self.masks[j].reshape(n, self.masks[j].shape[-1])
                pick = np.floor(u * m.sum(axis=1)).astype(np.intp)
                out[:, j] = np.argmax(np.cumsum(m, axis=1) > pick[:, None], axis=1)
            else:
                out[:, j] = lo[:, j] + u * (hi[:, j] - lo[:, j])
        return out.reshape(self.lo.shape)

    def contains(self, x) -> bool:
        """Whether the point x lies in this single cell."""
        x = np.asarray(x, dtype=np.float64)
        at = np.where([c.is_categorical for c in self.schema.columns], 0.0, x)
        levels = {j: np.arange(m.shape[-1]) == x[j] for j, m in self.masks.items()}
        point = Region(self.schema, at, at, levels)
        return not self.intersect(point).is_empty()


# Nodes whose leaf cells ``assigned_region`` takes at once: whole trees, at least
# one. On a 2-vCPU x86 host, a 500-tree banknote fold's synthetic-set cells (146,402
# nodes, 856 rows; medians of 9, six processes) took 63-87 ms at 2**14 with a 7.2 MB
# traced peak, 67-107 ms and 5.4 MB at 2**13, and 57-86 ms and 10.8 MB at 2**15.
_CELL_NODES = 1 << 14


def _leaf_cells(forest: Forest, b0: int, b1: int, roots: Region | None = None):
    """Every non-empty meet of a root cell with a leaf cell of trees ``b0`` to
    ``b1 - 1``: (root, block leaf, cell) triples sorted by root, then leaf; a
    block leaf is a global leaf id less ``leaf_offsets[b0]``.

    ``roots`` is a (k, d) batch of cells inside the feature box, the box when
    None. Each walks down every tree: a child's cell is its parent's narrowed on
    the split column alone, by the strict literal ``x < t`` (left: up to the
    largest float below the cut, so cells stay closed), its negation or an
    Equals level's mask, and kept only where that column stays non-empty.
    ``min`` and ``max`` are exact, so a cell is its root met with the leaf's
    cell. From the box every leaf has a cell: one without (a contradictory
    path) raises ``ForestError``."""
    table = forest._node_table()
    first, last = table.starts[b0], table.starts[b1]
    left = table.left[first:last] - first  # ids within the block; still < 0 at leaves
    feature, cut, is_equal = (a[first:last] for a in (table.feature, table.threshold,
                                                     table.is_equal))
    leaf_of = np.cumsum(left < 0) - 1  # block leaf of each leaf node: global leaves follow nodes
    from_box = roots is None
    roots = forest.box[None] if from_box else roots
    d, k = forest.schema.n_columns, len(roots.lo)
    # frontier entries: root, cell bounds (lo then hi) in one row, a mask per
    # categorical column; children copy their parents' rows, leaves first
    entries = [np.arange(k), np.hstack([roots.lo, roots.hi]), *roots.masks.values()]
    parent = np.repeat(np.arange(k), b1 - b0)
    node = np.tile(table.starts[b0:b1] - first, k)
    done, val = [], None
    while node.size:
        order = np.argsort(left[node] >= 0, kind="stable")
        node, parent = node[order], parent[order]
        entries = [a[parent] for a in entries]
        if val is not None:  # narrow each child on its parent's split column
            on_left, val = on_left[order], val[order]
            entries[1][np.arange(node.size), f[parent] + d * on_left] = val  # hi on the left
            for j, m in zip(roots.masks, entries[2:]):
                at = np.flatnonzero(eq[parent] & (f[parent] == j))
                code, side = c[parent[at]].astype(np.intp), on_left[at]
                m[at[side]] = False
                m[at, code] = side  # the level alone on the left, all but it on the right
        n_done = np.count_nonzero(left[node] < 0)
        done.append([node[:n_done], *(a[:n_done].copy() for a in entries)])  # frees the level
        node, entries = node[n_done:], [a[n_done:] for a in entries]
        f, c, eq = feature[node], cut[node], is_equal[node]
        lo, hi = (entries[1][np.arange(node.size), j] for j in (f, f + d))
        below = np.where(eq, hi, np.minimum(hi, np.nextafter(c, -np.inf)))
        above = np.where(eq, lo, np.maximum(lo, c))
        go_left, go_right = lo <= below, above <= hi
        for j, m in zip(roots.masks, entries[2:]):
            at = np.flatnonzero(eq & (f == j))
            allowed = m[at, c[at].astype(np.intp)]
            go_left[at] = allowed
            go_right[at] = m[at].sum(axis=1) > allowed  # another level is allowed
        # filter before gathering: only kept children copy their parent's entry
        li, ri = np.flatnonzero(go_left), np.flatnonzero(go_right)
        parent = np.concatenate([li, ri])
        node = np.concatenate([left[node[li]], left[node[ri]] + 1])
        on_left = np.arange(parent.size) < li.size
        val = np.concatenate([below[li], above[ri]])
    node, root, bounds, *masks = (np.concatenate(a) for a in zip(*done))
    leaf, n_leaves = leaf_of[node], int(leaf_of[-1]) + 1
    if from_box and leaf.size < n_leaves:
        missing = first + np.flatnonzero(left < 0)[np.setdiff1d(np.arange(n_leaves), leaf)[0]]
        b = int(np.searchsorted(table.starts, missing, "right")) - 1
        raise ForestError(f"leaf {table.leaf_id[missing]} of tree {b} has an empty cell: "
                          "its path is contradictory")
    order = np.argsort(root * n_leaves + leaf, kind="stable")
    bounds = bounds[order]
    return root[order], leaf[order], Region(forest.schema, bounds[:, :d], bounds[:, d:],
                                            {j: m[order] for j, m in zip(roots.masks, masks)})


def leaf_region(forest: Forest, b: int, leaf: int) -> Region:
    """Intersection of all split conditions on the root-to-leaf path, with
    unconstrained dimensions clipped to the training feature box.
    """
    if not (0 <= b < forest.n_trees and 0 <= leaf < forest.n_leaves[b]):
        raise ForestError(f"the forest has no leaf {leaf} in tree {b}")
    return _leaf_cells(forest, b, b + 1)[2][leaf]


def assigned_region(forest: Forest, leaf_ids: np.ndarray) -> Region:
    """Intersection of each row's assigned leaf cells.

    ``leaf_ids`` is (..., B) local ids; the result has batch shape (...). The
    leaf cells are built one block of trees at a time (``_CELL_NODES`` nodes,
    or one tree if it has more), so only one block's cells are held.
    """
    ids = np.asarray(leaf_ids, dtype=np.int64)
    starts, offsets = forest._node_table().starts, forest.leaf_offsets

    def tree_cells():
        b0 = 0
        while b0 < forest.n_trees:
            b1 = max(b0 + 1, int(np.searchsorted(starts, starts[b0] + _CELL_NODES, "right")) - 1)
            block = _leaf_cells(forest, b0, b1)[2]
            for b in range(b0, b1):
                yield block[ids[..., b] + (offsets[b] - offsets[b0])]
            b0 = b1

    return functools.reduce(Region.intersect, tree_cells())
