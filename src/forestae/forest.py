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
    "route",
    "route_table",
    "leaf_region",
    "region_intersect",
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
            self._nodes = _node_arrays(starts, self.feature.astype(np.intp), self.threshold,
                                       self.is_equal, self.schema.n_columns)
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
# 2.12, 1.92, 2.08, 2.04 and 1.86 s at 15k, 20k, 25k, 30k and 40k (median of 7,
# within the host's spread), while growth's peak RSS read 45.8, 47.5, 49.0,
# 50.5 and 55.4 MB at 15k, 20k, 25k, 30k and 50k.
_CHUNK_SLOTS = 20_000
# Completely random chunks hold this many times more: they also pay that cost
# once per redraw round, so three bags of a 20k-row table share each pass.
_CR_CHUNK_SCALE = 3


@dataclass(frozen=True)
class _Sample:
    """The training table as growth reads it."""

    values: np.ndarray  # (n, d)
    n_levels: np.ndarray  # (d,) level count, 0 for continuous columns
    y: np.ndarray | None  # (n,) regression labels or class codes; None if unlabeled
    kind: str
    n_classes: int
    # for honest label counts: per column, its sorted distinct values if
    # continuous (else None), and each value's position in them (else 0)
    uniq: tuple
    rank: np.ndarray  # (n, d)
    order: np.ndarray  # (continuous columns, n): rows by value, stable


def _sample(table: Table, y, kind: str, n_classes: int) -> _Sample:
    """Each continuous column is sorted here once, for every tree."""
    values = table.values
    n_levels = table.schema.n_levels
    uniq = tuple(None if k else _sorted_unique(values[:, j]) for j, k in enumerate(n_levels))
    rank = np.zeros(values.shape, dtype=np.intp)
    for j, u in enumerate(uniq):
        if u is not None:
            rank[:, j] = np.searchsorted(u, values[:, j])
    order = np.argsort(values[:, n_levels == 0], axis=0, kind="stable").T
    return _Sample(values, n_levels, y, kind, n_classes, uniq, rank, order)


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


def _first_min(group: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Index of the first lowest ``cost`` in each run of equal ``group``
    values (``group`` sorted)."""
    start = np.flatnonzero(np.concatenate(([True], group[1:] != group[:-1])))
    low = np.repeat(np.minimum.reduceat(cost, start), np.diff(start, append=group.size))
    hit = np.flatnonzero(cost == low)
    return hit[np.concatenate(([True], group[hit[1:]] != group[hit[:-1]]))]


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique`` of a NaN-free array, by sorting: on numpy 2.4 ``np.unique``
    without ``return_index`` imports ``numpy.ma``, 16 ms of process start."""
    a = np.sort(a, axis=None)
    return a[np.concatenate(([True], a[1:] != a[:-1]))[:a.size]]


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(a, a + l)`` over the pairs."""
    ends = np.cumsum(lens)
    return np.repeat(starts + lens - ends, lens) + np.arange(ends[-1])


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
    of each row of ``orders`` (shape ``(R, positions)``, no padding):
    ``orders[0]`` lists the node's slots by id and, for CART,
    ``orders[order_row[j]]`` by the value of continuous column j (presorted
    attribute lists, as in SLIQ: the table's sort restricted to each bag,
    then kept sorted by a stable partition after each level). Each level
    scores only the positions of nodes that drew a column, and partitions
    only the positions of nodes that split.

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
        cont = np.flatnonzero(data.n_levels == 0)
        self.order_row = {j: 1 + i for i, j in enumerate(cont)}
        self.mtry = min(params.mtry or max(1, round(math.sqrt(d))), d)
        orders = [np.arange(tree.size)]
        if not cr:  # each column's sort, restricted to every bag
            slot_of = np.full(count.shape, -1)
            slot_of[tree, self.row] = orders[0]
            for o in data.order:
                s = slot_of[:, o]
                orders.append(s[s >= 0])
        self.orders = np.stack(orders)
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
        self.live_slot = self.orders[0]
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
        drawn per node; ties go to the lowest column, then the leftmost cut. A
        regression cost within ``_TIE_RTOL`` x the node's SSE of the best so
        far is a tie."""
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
            # regression costs of one partition differ by the rounding of label
            # sums taken in each column's order, so a later column must win by more
            slack = _TIE_RTOL * self.sse[at] if self.data.kind == REGRESSION else 0.0
            better = cost < best[at] - slack
            at = at[better]
            best[at], feat[at], cut[at] = cost[better], j, c[better]
        return feat, cut

    def _score_continuous(self, j: int, nodes: np.ndarray):
        """Per node of ``nodes``, the lowest cost over cuts at midpoints
        between adjacent distinct values of column j that leave each child
        its floor, and that cut (inf where none is valid)."""
        length, m, mc = self.node_len[nodes], self.node_m[nodes], self.mc[nodes]
        slot = self.orders[self.order_row[j]][_ranges(self.live_start[nodes], length)]
        v, w = self.x[j][slot], self.w[slot]
        seg = np.cumsum(length) - length  # each node's first index in slot
        k = np.repeat(np.arange(nodes.size), length)
        # cut between i and i + 1 where each child keeps its floor; never
        # after a node's last slot, which leaves the right child empty
        n_left = _segment_cumsum(w, seg, length)
        i = np.flatnonzero((n_left >= mc[k]) & (n_left <= (m - mc)[k]))
        k = k[i]
        lo, hi = v[i], v[i + 1]
        mid = 0.5 * (lo + hi)
        # a midpoint rounded onto the lower value would send it right
        ok = (hi > lo) & (mid > lo)
        if self.params.honest:
            below = self._label_below(j, nodes[k], mid)
            ok &= (below >= 1) & (below < self.lab_n[nodes[k]])
        i, k, mid = i[ok], k[ok], mid[ok]
        node = nodes[k]
        n_left = n_left[i]
        n_right = m[k] - n_left
        # label sums left of each cut: prefix sums over each node's slots
        if self.data.kind == CLASSIFICATION:
            # exact counts of classes 1..C-1; class 0 is the rest
            up = (self.y[slot] == np.arange(1, self.data.n_classes)[:, None]) * w
            up = _segment_cumsum(up, seg, length)[:, i]
            left = np.vstack([n_left - up.sum(axis=0), up])
            right = self.class_count[node].T - left
            cost = (n_left - (left * left).sum(axis=0) / n_left) + (
                n_right - (right * right).sum(axis=0) / n_right
            )
        else:
            yc = (self.y[slot] - np.repeat(self.mean[nodes], length)) * w
            left = _segment_cumsum(yc, seg, length)[i]
            right = self.node_sum[node] - left
            cost = self.sse[node] - left * left / n_left - right * right / n_right
        out_cost = np.full(nodes.size, np.inf)
        out_cut = np.zeros(nodes.size)
        if k.size:
            first = _first_min(k, cost)
            out_cost[k[first]], out_cut[k[first]] = cost[first], mid[first]
        return out_cost, out_cut

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
        best = np.argmin(cost, axis=1)
        return cost[np.arange(nodes.size), best], best.astype(np.float64)

    def _random_splits(self, open_: np.ndarray):
        """Completely random: a uniform column among the node's non-constant
        ones and a uniform cut on (node min, node max) or a uniform present
        level, redrawn up to ``_CR_SPLIT_TRIES`` times for nodes whose draw
        breaks a child floor."""
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
        pending = np.flatnonzero(open_ & (eligible[:, -1] > 0))
        for _ in range(_CR_SPLIT_TRIES):
            if not pending.size:
                break
            u = self._draw(pending, 2)
            col = _pick(eligible[pending], u[:, 0])
            low = lo[pending, col]
            c = low + u[:, 1] * span[pending, col]
            ok = c > low
            # split weight of each pending node that its draw sends left: a
            # level's from the level counts, a cut's by summing the weights below it
            n_left = np.zeros(pending.size, dtype=np.intp)
            for j in count:
                sel = np.flatnonzero(col == j)
                c[sel] = level = _pick(present[j][pending[sel]], u[sel, 1])
                ok[sel] = True
                n_left[sel] = count[j][pending[sel], level]
            cont = np.flatnonzero(ok & (data.n_levels[col] == 0))
            if cont.size:
                node = pending[cont]
                at = _ranges(col[cont] * width + self.live_start[node], length[node])
                below = x[at] < np.repeat(c[cont], length[node])
                if w is not None:
                    below = below * w[at % width]
                n_left[cont] = np.add.reduceat(below, np.cumsum(length[node]) - length[node],
                                               dtype=np.intp)
            ok &= (n_left >= mc[pending]) & (m[pending] - n_left >= mc[pending])
            if self.params.honest:
                lab = np.zeros(pending.size, dtype=np.intp)
                for j in _sorted_unique(col):
                    sel = np.flatnonzero(col == j)
                    if j in count:
                        lab[sel] = self.lab_index[j][pending[sel], c[sel].astype(np.intp)]
                    else:
                        lab[sel] = self._label_below(j, pending[sel], c[sel])
                ok &= (lab >= 1) & (lab < self.lab_n[pending])
            feat[pending[ok]], cut[pending[ok]] = col[ok], c[ok]
            pending = pending[~ok]
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
        # stable partition of every order over the split nodes' positions, one
        # order at a time: with c left slots among the first p + 1 of them, a
        # left slot lands at c - 1 plus the right slots of earlier nodes, and
        # a right one at p - c plus the left slots of its own and earlier nodes
        to_left = np.repeat(np.cumsum(nr) - nr - 1, length)
        to_right = np.arange(at.size) + np.repeat(np.cumsum(nl), length)

        def partition(new, slot, g):
            c = np.cumsum(g)
            new[np.where(g, to_left + c, to_right - c)] = slot

        orders = np.empty((self.orders.shape[0], at.size), dtype=np.intp)
        partition(orders[0], slot, left)
        if orders.shape[0] > 1:  # CART's presorted orders
            goes_left = np.zeros(self.x.shape[1], dtype=bool)
            goes_left[slot] = left
            for old, new in zip(self.orders[1:], orders[1:]):
                slot = old[at]
                partition(new, slot, goes_left[slot])
        self.orders = orders
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
            stat = np.bincount(leaf, weights=data.y[row], minlength=n_nodes) / np.maximum(counts, 1)
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
    data = _sample(table, y, kind, n_classes)
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
    synth_values = marginal_synthesize(table, params.seed).values
    forest = None
    round_seeds = np.random.SeedSequence(params.seed).spawn(max(1, rounds - 1))
    for r in range(rounds):
        stacked = Table(table.schema, np.vstack([table.values, synth_values]))
        round_params = params if r == 0 else replace(params, seed=params.seed + r + 1)
        forest = fit_supervised(stacked, (label_col, y), round_params, jobs=jobs)
        if r + 1 < rounds:
            synth_values = _resample_within_leaves(
                forest, table.values, np.random.default_rng(round_seeds[r])
            )
    assert forest is not None
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
# a 2-vCPU x86 host, routing the reference tables of the 500-tree banknote fold
# (856 rows) and the 25-tree clusters fold (20k rows) took 0.077 and 0.102 s
# at 2**16 cells (median of 9), as at 2**15 and 2**17, against 0.092 and
# 0.119 s at 2**18, where routing's allocations peak at 22 MB, not 7 MB.
_ROUTE_CELLS = 1 << 16


@dataclass(frozen=True)
class _Nodes:
    """Every tree's nodes stacked into one array set with global node ids.

    The walk reads two arrays per step. ``key`` packs a node's next node and
    the column it tests as ``(next << shift) | column``: a split's next node is
    its left child, and a leaf's is the leaf itself, testing the sentinel
    column ``n_columns``. A leaf's threshold is +inf, so its cell "goes left"
    and stays.
    """

    starts: np.ndarray  # (B + 1,) global id of each tree's root; total at the end
    feature: np.ndarray  # intp, -1 at leaves
    threshold: np.ndarray  # +inf at leaves
    is_equal: np.ndarray  # Equals splits
    left: np.ndarray  # global ids, -1 at leaves; the right child is left + 1
    leaf_id: np.ndarray  # local leaf id, -1 at internal nodes
    key: np.ndarray  # int64 (next node << shift) | column
    shift: int
    n_columns: int


def _node_arrays(starts, feature, threshold, is_equal, n_columns: int) -> _Nodes:
    """A node table from its splits; the split mask fixes children and leaf ids."""
    split = feature >= 0
    left, leaf_id = breadth_first_layout(split, np.repeat(starts[:-1], np.diff(starts)))
    shift = max(1, int(n_columns).bit_length())
    nxt = np.where(split, left, np.arange(split.size))  # a leaf's next node is itself
    key = (nxt << shift) | np.where(split, feature, n_columns)
    return _Nodes(starts, feature, np.where(split, threshold, np.inf), is_equal & split, left,
                  leaf_id, key.astype(np.int64), shift, int(n_columns))


def _descend(nodes: _Nodes, values: np.ndarray, node: np.ndarray):
    """Walk tree-major cells down the stacked node table: with m rows of
    ``values``, cell ``b * m + i`` is row i starting at global node
    ``node[b * m + i]``, and ``node`` is advanced in place to each cell's leaf.
    Each depth step yields the walking cells' rows, their nodes, whether each
    takes the literal (left) and which of them are at a split; they move on
    when the caller resumes. A cell at a leaf loops on it, and walking cells
    are compacted once fewer than half of them are at a split: completely
    random trees are deep and unbalanced."""
    m, d = values.shape[0], nodes.n_columns
    flat = np.zeros((d + 1, m))  # transposed values and the leaves' sentinel column
    flat[:d] = values.T
    flat = flat.ravel()
    mask, shift = (1 << nodes.shift) - 1, nodes.shift
    equals = nodes.is_equal.any()
    cell, at = None, node  # cell: each walking cell's index in node, once compacted
    row = np.tile(np.arange(m), node.size // m)
    while True:
        key = nodes.key.take(at)
        col = key & mask
        split = col != d
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
            at, row, key, col, split = at[keep], row[keep], key[keep], col[keep], split[keep]
        col *= m
        col += row
        x = flat.take(col)
        thr = nodes.threshold.take(at)
        go_left = np.where(nodes.is_equal[at], x == thr, x < thr) if equals else x < thr
        yield row, at, go_left, split
        key >>= shift  # the next node: a split's left child, or the leaf itself
        key += ~go_left
        at = key


def route_values(forest: Forest, values: np.ndarray) -> np.ndarray:
    """Leaf ids (n x B) for a raw value grid aligned to the forest schema.

    All trees route together: every (tree, row) cell walks the stacked node
    table until it reaches a leaf.
    """
    return _route(forest._node_table(), np.atleast_2d(np.asarray(values, dtype=np.float64)))


def _route(nodes: _Nodes, values: np.ndarray) -> np.ndarray:
    """Leaf ids (n x B) in every tree of the node table, ``_ROUTE_CELLS`` at a time."""
    n_trees = nodes.starts.size - 1
    out = np.empty((values.shape[0], n_trees), dtype=np.int32)
    step = max(1, _ROUTE_CELLS // n_trees)
    for i in range(0, values.shape[0], step):
        block = values[i : i + step]
        node = np.repeat(nodes.starts[:-1], block.shape[0])
        deque(_descend(nodes, block, node), maxlen=0)  # walk, keeping no step
        out[i : i + step] = nodes.leaf_id[node].reshape(n_trees, -1).T
    return out


def route_table(forest: Forest, table: Table) -> tuple[np.ndarray, int]:
    """Route a table, remapping categorical levels by name.

    Returns (n x B leaf ids, count of unseen-level cells routed as mismatches).
    """
    from .data import align_to_schema

    values, unseen = align_to_schema(table, forest.schema)
    return route_values(forest, values), unseen


def route(forest: Forest, x) -> np.ndarray:
    """One leaf id per tree for a single row."""
    return route_values(forest, np.asarray(x, dtype=np.float64).reshape(1, -1))[0]


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


# Nodes whose leaf cells ``assigned_region`` builds at once: whole trees, at
# least one. On a 2-vCPU x86 host, the cells of the synthetic set of the
# 500-tree banknote fold (144,606 nodes, 856 rows) took 49 ms at 2**14 nodes
# (median of 9) with a 6.5 MB traced peak, against 52 ms and 5.1 MB at 2**13
# and 48 ms and 9.4 MB at 2**15.
_CELL_NODES = 1 << 14


def _leaf_cells(forest: Forest, b0: int, b1: int) -> Region:
    """Cells of every leaf of trees ``b0`` to ``b1 - 1``, (leaves, d) in global
    leaf order, built level by level over those trees' nodes.

    A root's cell is the training feature box; a child narrows its parent's
    cell by the split literal (left) or its negation (right). The literal
    ``x < t`` is strict, so a left child's upper bound is the largest float
    below the cut, and every cell is closed.
    """
    table = forest._node_table()
    first, last = table.starts[b0], table.starts[b1]
    left = table.left[first:last] - first  # ids within the block; still < 0 at leaves
    feature, cut, is_equal = (a[first:last] for a in (table.feature, table.threshold,
                                                     table.is_equal))
    rows, box = last - first, forest.box
    lo = np.tile(box.lo, (rows, 1))
    hi = np.tile(box.hi, (rows, 1))
    masks = {j: np.tile(m, (rows, 1)) for j, m in box.masks.items()}
    nodes = table.starts[b0:b1] - first
    while nodes.size:
        nodes = nodes[left[nodes] >= 0]
        l, f, c = left[nodes], feature[nodes], cut[nodes]
        r = l + 1
        for a in (lo, hi, *masks.values()):
            a[l] = a[nodes]
            a[r] = a[nodes]
        cont = ~is_equal[nodes]
        p, fc, cc = nodes[cont], f[cont], c[cont]
        hi[l[cont], fc] = np.minimum(hi[p, fc], np.nextafter(cc, -np.inf))
        lo[r[cont], fc] = np.maximum(lo[p, fc], cc)
        for j, m in masks.items():
            sel = is_equal[nodes] & (f == j)
            code = c[sel].astype(np.intp)
            allowed = m[nodes[sel], code]
            m[l[sel]] = False
            m[l[sel], code] = allowed
            m[r[sel], code] = False
            assert m[l[sel]].any(axis=1).all() and m[r[sel]].any(axis=1).all(), (
                "contradictory path"
            )
        nodes = np.concatenate([l, r])
    # global leaf ids follow node order
    return Region(forest.schema, lo, hi, masks)[np.flatnonzero(feature < 0)]


def leaf_region(forest: Forest, b: int, leaf: int) -> Region:
    """Intersection of all split conditions on the root-to-leaf path, with
    unconstrained dimensions clipped to the training feature box.
    """
    if not (0 <= b < forest.n_trees and 0 <= leaf < forest.n_leaves[b]):
        raise ForestError(f"the forest has no leaf {leaf} in tree {b}")
    return _leaf_cells(forest, b, b + 1)[leaf]


def region_intersect(regions) -> Region:
    """Intersection of an iterable of (broadcastable) regions."""
    return functools.reduce(Region.intersect, regions)


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
            block = _leaf_cells(forest, b0, b1)
            for b in range(b0, b1):
                yield block[ids[..., b] + (offsets[b] - offsets[b0])]
            b0 = b1

    return region_intersect(tree_cells())
