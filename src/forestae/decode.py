"""Decoders: map latent vectors back to feature space.

Four routes with different cost/accuracy trade-offs:

* k-NN regression against a synthetic training set that embeds exactly onto Z;
* split relabeling, turning the fitted trees into routers over the embedding;
* an exclusive-lasso relaxation scoring fuzzy leaf memberships, hardened (as
  relabeling's conflicting routed leaves are) onto the leaves of the
  best-agreeing reference row, which share a cell because the row lies in all
  of them;
* the exact leaf-assignment program for desk-scale forests: the forest's
  cells are enumerated once, and every row is scored against all of them.

All decoders emit schema-conformant tables; rows are independent, so query
batches can be processed in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Table
from .forest import (Forest, _descend, _first_min, _leaf_cells, _node_arrays, _ranges, _route,
                     _segment_cumsum, _sorted_unique, _widen, assigned_region, route_table,
                     route_values)
from .kernel import _leaf_join, leaf_design, leaf_profile
from .spectral import SpectralModel, reconstruct_kernel

__all__ = [
    "SyntheticTrainingSet",
    "IlpResult",
    "RelabeledForest",
    "build_synthetic_training",
    "knn_decode",
    "relabel_forest",
    "relabel_decode",
    "exclusive_lasso",
    "reference_leaf_assign",
    "lasso_decode",
    "ilp_decode",
]

_ZERO_DIST_EPS = 1e-12
# k-NN distances up to this share of max |Z| are exact matches: rows in the same
# leaves embed onto one point up to rounding, about 1e-15 of max |Z|
_COINCIDENT_RTOL = 1e-9
# (home leaf, leaf) box pairs, (query, leaf, dimension) gaps or (query, reference
# row) distances per block of the k-NN search; a block holds at least one query
_BRUTE_BLOCK_PAIRS = 2**16
_KNN_LEAF = 80  # reference rows per leaf of the k-NN search's k-d tree, at most
_RELABEL_CELLS = 2**15  # (reference row, tree) cells per block of trees relabeling walks
# Cells (rows x leaf columns) of the largest BVLS problem lasso decoding takes
# on; checked for every row before any is solved. On a 2-vCPU x86 host, rows
# of a 150-tree banknote fold at 0.7-0.9 million cells take 3.5-4.6 s each and
# 20-tree rows at 45k-96k cells 0.8-1.8 s, while 500-tree rows hold 5-13
# million cells and take 37-58 s each. A desk-scale 5-tree forest needs a few
# thousand.
_LASSO_MAX_CELLS = 10**6
# Cells times the next tree's leaves while exact decoding enumerates the forest's
# cells, and (cell, reference row) products it scores. On a 2-vCPU x86 host,
# `decode` of 40 rows of a mixed-decoders fold (data seed 1009, 300 reference
# rows, depth 6) takes 0.44-0.64 s at 56 MB peak RSS with 20 trees (5,245 cells:
# 1.6 million products) and 0.52-0.70 s at 61 MB with 25 trees (6,751 cells: 2.0
# million); 30 trees are refused. A desk-scale 5-tree forest needs 14 thousand.
_ILP_MAX_WORK = 2**21
_ILP_BLOCK = 2**16  # (row, cell, reference row) terms per block of scoring; enumeration has none
_TIE_TOL = 1e-12


class DecodeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# synthetic training set


@dataclass
class SyntheticTrainingSet:
    """Stand-in training rows drawn from each sample's assigned-leaf cell.

    Routes identically to the originals by construction, so it shares their
    kernel rows and embedding.
    """

    table: Table
    seed: int

    @property
    def n(self) -> int:
        return self.table.n


def _sample_cells(forest: Forest, leaf_ids: np.ndarray, seed: int) -> Table:
    """One uniform draw from the cell that each row's (m, B) local leaf ids share."""
    values = assigned_region(forest, leaf_ids).sample(np.random.default_rng(seed))
    return Table(forest.schema, values)


def build_synthetic_training(
    forest: Forest, table: Table, seed: int, leaf_ids: np.ndarray | None = None
) -> SyntheticTrainingSet:
    """One uniform draw per row from the intersection of its assigned leaves;
    ``leaf_ids`` is the table's (n x B) routing, if the caller already has it."""
    if leaf_ids is None:
        leaf_ids, _ = route_table(forest, table)
    synth = _sample_cells(forest, leaf_ids, seed)
    escaped = np.flatnonzero((route_values(forest, synth.values) != leaf_ids).any(axis=1))
    if escaped.size:
        raise DecodeError(f"synthetic row {escaped[0]} escaped its source regions")
    return SyntheticTrainingSet(table=synth, seed=seed)


# ---------------------------------------------------------------------------
# k-nearest neighbors


def _spans(cost: np.ndarray, limit: int):
    """Consecutive ranges ``(s, e)`` of items whose summed ``cost`` is at most
    ``limit``, or one item."""
    ends, s = np.cumsum(cost), 0
    while s < cost.size:
        e = max(s + 1, int(np.searchsorted(ends, ends[s] - cost[s] + limit, side="right")))
        yield s, e
        s = e


@dataclass
class _KdTree:
    """A k-d tree over the rows of Z with every leaf at one depth. Level i
    splits node j on ``axes[i][j]`` at ``cuts[i][j]`` (larger values go
    right). Leaf l holds ``sizes[l]`` rows: their ids ``ids[l]`` and
    coordinates ``padded[:, l]``, padded to one width with +inf rows, and its
    box ``lo[:, l]``, ``hi[:, l]``."""

    axes: list
    cuts: list
    sizes: np.ndarray
    lo: np.ndarray  # (d, leaves)
    hi: np.ndarray
    padded: np.ndarray  # (d, leaves, width)
    ids: np.ndarray  # (leaves, width)

    def home(self, q: np.ndarray) -> np.ndarray:
        """The leaf that each (m, d) query row descends to."""
        node = np.zeros(q.shape[0], dtype=np.intp)
        for axis, cut in zip(self.axes, self.cuts):
            node = 2 * node + (q[np.arange(q.shape[0]), axis[node]] >= cut[node])
        return node


def _kd_tree(Z: np.ndarray, leaf: int) -> _KdTree:
    """Each level splits every node at its median on its widest axis, by one
    ``lexsort`` of (node, value), until no leaf holds more than ``leaf`` rows;
    the nodes of a level differ in size by at most one row."""
    n, d = Z.shape
    depth = (-(-n // leaf) - 1).bit_length()  # the fewest halvings to at most `leaf` rows
    order, starts, axes, cuts = np.arange(n), np.array([0, n]), [], []
    for _ in range(depth):
        Zs, sizes = Z[order], np.diff(starts)
        spread = np.maximum.reduceat(Zs, starts[:-1]) - np.minimum.reduceat(Zs, starts[:-1])
        axis = np.argmax(spread, axis=1)
        node = np.repeat(np.arange(sizes.size), sizes)
        order = order[np.lexsort((Zs[np.arange(n), axis[node]], node))]
        mid = starts[:-1] + sizes // 2
        axes.append(axis)
        cuts.append(Z[order[mid], axis])
        starts = np.append(np.column_stack([starts[:-1], mid]).ravel(), n)
    Zs, sizes = Z[order], np.diff(starts)
    width = int(sizes.max())
    slot = np.arange(n) + np.repeat(np.arange(sizes.size) * width - starts[:-1], sizes)
    padded = np.full((d, sizes.size * width), np.inf)
    padded[:, slot] = Zs.T
    ids = np.zeros(sizes.size * width, dtype=np.intp)
    ids[slot] = order
    return _KdTree(axes, cuts, sizes, np.minimum.reduceat(Zs, starts[:-1]).T.copy(),
                   np.maximum.reduceat(Zs, starts[:-1]).T.copy(),
                   padded.reshape(d, sizes.size, width), ids.reshape(sizes.size, width))


def _knn_batch(Z0: np.ndarray, Z: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each query's k nearest rows of Z: (m, k) indices and distances, ascending.

    Squared distances are summed one dimension at a time in dimension order;
    those within a tolerance scaled to Z are exact matches and read 0, and
    equal distances go to the lowest index. The search is exact, over a k-d
    tree (``_kd_tree``). Each query's search is bounded by ``_kth_bound``, and
    a leaf is skipped where the squared gaps from the query to its box, summed
    in the same order, exceed the bound: rounding is monotone, so that sum
    never exceeds the distance to a row of the leaf. A block holds at most
    ``_BRUTE_BLOCK_PAIRS`` (query, leaf, dimension) gaps, then (query,
    reference row) distances, or one query; a row's neighbours do not depend on
    the rows searched with it. Coordinates must be finite.
    """
    m, d = Z0.shape
    idx = np.empty((m, k), dtype=np.intp)
    dist = np.empty((m, k))
    if not m:
        return idx, dist
    tol2 = (_COINCIDENT_RTOL * np.abs(Z).max(initial=0.0)) ** 2
    tree = _kd_tree(Z, _KNN_LEAF)
    home = tree.home(Z0)
    by_home = np.argsort(home, kind="stable")
    q, home = Z0[by_home].T.copy(), home[by_home]
    bound = _kth_bound(tree, q, home, k, tol2)
    leaves, first, count = _candidate_leaves(tree, q, home, bound)
    width = tree.ids.shape[1]
    for s, e in _spans(count * d, _BRUTE_BLOCK_PAIRS):
        qi = np.repeat(np.arange(s, e), count[s:e])
        li = leaves[_ranges(first[s:e], count[s:e])]
        gap2 = _gap2((tree.lo[j, li], tree.hi[j, li], q[j, qi], q[j, qi]) for j in range(d))
        keep = gap2 <= bound[qi]
        qi, li = qi[keep], li[keep]
        n_pairs = np.bincount(qi - s, minlength=e - s)
        for s2, e2 in _spans(n_pairs * width, _BRUTE_BLOCK_PAIRS):
            p0, p1 = n_pairs[:s2].sum(), n_pairs[:e2].sum()
            pq, pl = qi[p0:p1], li[p0:p1]
            d2 = _padded_sq_dist(q[:, pq], tree.padded, pl, tol2)
            r, c = np.nonzero(d2 <= bound[pq, None])
            rows = by_home[s + s2:s + e2]
            idx[rows], dist[rows] = _first_k(pq[r] - (s + s2), d2[r, c], tree.ids[pl[r], c],
                                             e2 - s2, k)
            del d2, r, c
    np.sqrt(dist, out=dist)
    return idx, dist


def _kth_bound(tree: _KdTree, q: np.ndarray, home: np.ndarray, k: int, tol2: float):
    """Each (d, m) query column's search bound: the k-th squared distance over
    its home leaf's parent block, or the smallest ancestor block of at least k
    rows, and at least ``tol2``, so that coincident rows stay in reach."""
    sizes, depth, width = tree.sizes, len(tree.axes), tree.ids.shape[1]
    up = min(1, depth)
    while up < depth and sizes.reshape(-1, 1 << up).sum(axis=1).min() < k:
        up += 1
    blocks = tree.padded.reshape(q.shape[0], -1, width << up)  # sibling leaves are adjacent
    bound = np.empty(q.shape[1])
    for s, e in _spans(np.full(bound.size, width << up), _BRUTE_BLOCK_PAIRS):
        d2 = _padded_sq_dist(q[:, s:e], blocks, home[s:e] >> up, tol2)
        bound[s:e] = np.partition(d2, k - 1, axis=1)[:, k - 1]
    return np.maximum(bound, tol2, out=bound)


def _candidate_leaves(tree: _KdTree, q: np.ndarray, home: np.ndarray, bound: np.ndarray):
    """The leaves within reach of the queries that share a home leaf, tested
    as one box against each leaf's box with their largest bound: the leaf
    list, and for each query (by home) its home's first entry and count."""
    first = np.flatnonzero(np.diff(home, prepend=-1))
    q_lo, q_hi = np.minimum.reduceat(q, first, axis=1), np.maximum.reduceat(q, first, axis=1)
    reach = np.maximum.reduceat(bound, first)
    n_leaves = tree.ids.shape[0]
    homes, leaves = [], []
    for s, e in _spans(np.full(first.size, n_leaves), _BRUTE_BLOCK_PAIRS):
        gap2 = _gap2((tree.lo[j], tree.hi[j], q_lo[j, s:e, None], q_hi[j, s:e, None])
                     for j in range(q.shape[0]))
        h, leaf = np.nonzero(gap2 <= reach[s:e, None])
        homes.append(h + s)
        leaves.append(leaf)
    count = np.bincount(np.concatenate(homes), minlength=first.size)
    group = np.repeat(np.arange(first.size), np.diff(first, append=home.size))
    return np.concatenate(leaves), (np.cumsum(count) - count)[group], count[group]


def _padded_sq_dist(q: np.ndarray, padded: np.ndarray, at: np.ndarray, tol2: float) -> np.ndarray:
    """Squared distances from each (d, m) query column to the (d, blocks,
    width) padded rows of its block ``at``, summed one dimension at a time;
    those up to ``tol2`` read 0, and pads +inf."""
    d2 = np.zeros((q.shape[1], padded.shape[2]))
    for j in range(q.shape[0]):
        diff = padded[j, at]
        np.subtract(q[j, :, None], diff, out=diff)
        diff *= diff
        d2 += diff
    d2[d2 <= tol2] = 0.0
    return d2


def _gap2(bounds) -> np.ndarray:
    """Squared gaps between boxes: the sum of max(lo - q_hi, q_lo - hi, 0)² over
    the (lo, hi, q_lo, q_hi) bounds of each dimension, in dimension order."""
    out = 0.0
    for lo, hi, q_lo, q_hi in bounds:
        gap = np.maximum(lo - q_hi, q_lo - hi)
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        out = out + gap
    return out


def _first_k(q: np.ndarray, d2: np.ndarray, idx: np.ndarray, m: int, k: int):
    """Each of m queries' first k candidates, ordered by squared distance and
    then index: ``q`` names each candidate's query, ascending, and every query
    has at least k."""
    order = np.argsort(d2)
    # then by query: a stable sort of the narrowest integers, a radix sort up to 16 bits
    order = order[np.argsort(q[order].astype(np.min_scalar_type(m)), kind="stable")]
    q, d2, idx = q[order], d2[order], idx[order]
    first = np.searchsorted(q, np.arange(m))
    tie = (q[1:] == q[:-1]) & (d2[1:] == d2[:-1])
    if tie.any():  # equal distances: sort by index each run that starts in a query's first k
        new = np.concatenate(([True], ~tie))
        run = np.cumsum(new) - 1
        run_start = np.flatnonzero(new)
        near = (run_start - first[q[run_start]] < k) & (np.diff(run_start, append=q.size) > 1)
        at = np.flatnonzero(near[run])
        idx[at] = idx[at][np.lexsort((idx[at], run[at]))]
    pick = first[:, None] + np.arange(k)
    return idx[pick], d2[pick]


def _inverse_distance_weights(dist: np.ndarray) -> np.ndarray:
    w = dist + _ZERO_DIST_EPS
    np.divide(1.0, w, out=w)
    exact = dist == 0.0
    hit = exact.any(axis=1)
    w[hit] = exact[hit].astype(np.float64)
    w /= w.sum(axis=1, keepdims=True)
    return w


def _embedding(Z0, d_z: int) -> np.ndarray:
    """``Z0`` as (m, d_z) float rows; an embedding of another width is refused."""
    Z0 = np.atleast_2d(np.asarray(Z0, dtype=np.float64))
    if Z0.ndim != 2 or Z0.shape[1] != d_z:
        raise DecodeError(f"the embedding has {Z0.shape[-1]} columns; the model has d_z = {d_z}")
    return Z0


def knn_decode(
    Z0: np.ndarray,
    model: SpectralModel,
    forest: Forest,
    synth: SyntheticTrainingSet,
    k: int,
    seed: int = 0,
    trace: list[dict] | None = None,
) -> Table:
    """Weighted neighbor average: continuous features take the weighted mean
    of synthetic neighbor values, categorical ones the weight-summed majority
    level (ties broken uniformly at random). Weights are inverse to distance;
    exact matches (zero distance) share all the weight equally.

    If ``trace`` is a list, one record per row is appended to it: the row,
    its neighbors' synthetic row indices (ascending distance) and weights.
    """
    _, Z = model.require_time()
    if not 1 <= k <= Z.shape[0]:
        raise DecodeError(f"k must lie in [1, {Z.shape[0]}]")
    Z0 = _embedding(Z0, model.d_z)
    bad = np.flatnonzero(~np.isfinite(Z0).all(axis=1))
    if bad.size:  # the search's box tests need finite coordinates
        raise DecodeError(f"embedding row {bad[0]} is not finite")
    if not np.isfinite(Z).all():
        raise DecodeError("the model's embedding is not finite")
    idx, dist = _knn_batch(Z0, Z, k)
    w = _inverse_distance_weights(dist)
    del dist
    m, rng = Z0.shape[0], np.random.default_rng(seed)
    if trace is not None:
        trace.extend({"row": i, "neighbors": idx[i].tolist(), "weights": w[i].tolist()}
                     for i in range(m))
    out = np.empty((m, synth.table.d))
    for j, col in enumerate(synth.table.schema.columns):
        column = synth.table.values[:, j]
        if not col.is_categorical:
            vals = column[idx]  # (m, k): this column of every neighbour
            vals *= w
            out[:, j] = vals.sum(axis=1)
            del vals
            continue
        # each row's weight per level: one bincount over row * n_levels + level
        # keys, which adds a row's weights in neighbour order
        n_levels = len(col.levels)
        key = column.astype(np.intp)[idx]
        key += np.arange(0, m * n_levels, n_levels)[:, None]
        scores = np.bincount(key.ravel(), w.ravel(), m * n_levels).reshape(m, n_levels)
        del key
        ties = scores >= scores.max(axis=1, keepdims=True) - _TIE_TOL
        pick = np.argmax(ties, axis=1).astype(np.float64)
        for i in np.flatnonzero(ties.sum(axis=1) > 1):
            pick[i] = rng.choice(np.flatnonzero(ties[i]))
        out[:, j] = pick
    return Table(synth.table.schema, out)


# ---------------------------------------------------------------------------
# split relabeling


@dataclass
class RelabeledForest:
    """The source forest's splits re-expressed on embedding axes, as flat
    per-node arrays in the order of its stacked node table (``feature >= 0``
    at the same splits).

    ``flip`` inverts a node's routing (z >= threshold goes left) when the
    best-matching latent split runs opposite to the original literal.
    """

    starts: np.ndarray  # (B + 1,) first node of each tree; the node count at the end
    feature: np.ndarray
    threshold: np.ndarray
    flip: np.ndarray
    d_z: int
    n_degenerate: int  # splits given a constant test
    reference: np.ndarray  # (n, B) the reference rows' global leaf ids in the source forest


def _runs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start and length of each run in sorted ``key``; each element's place in its run."""
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    lens = np.diff(first, append=key.size)
    return first, lens, np.arange(key.size) - np.repeat(first, lens)


def _axis_ranks(Z: np.ndarray) -> np.ndarray:
    """Each value's rank among the distinct values of its column."""
    out = np.empty(Z.shape, dtype=np.int64)
    for a in range(Z.shape[1]):
        out[:, a] = np.searchsorted(_sorted_unique(Z[:, a]), Z[:, a])
    return out


def _stable_order(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` of non-negative int64 keys: one
    ``np.sort`` of ``key << b | position``, b bits holding every position, or
    the stable argsort itself where those fields need more than 63 bits."""
    b = max(key.size - 1, 0).bit_length()
    if not key.size or int(key.max()) >> (63 - b):
        return np.argsort(key, kind="stable")
    return np.sort(key << b | np.arange(key.size)) & ((1 << b) - 1)


def _best_latent_splits(node: np.ndarray, Z: np.ndarray, labels: np.ndarray,
                        z_rank: np.ndarray):
    """Sorted node ids and each node's relabeled (feature, threshold, flip): the
    cut of one embedding axis that agrees with most of its rows' labels, found
    for all nodes by one stable sort by (node, axis, z) (``z_rank`` holds each
    z's ``_axis_ranks`` rank, so one integer key orders them), one segmented
    label cumsum and a first-best pick. Ties go to the lowest axis,
    then the first cut; gaps within ``_TIE_TOL`` x max |z| are ties, not cuts.
    A node with no cut between its labels gets a constant test toward its
    majority."""
    d = Z.shape[1]
    key = (node[:, None] * d + np.arange(d)).ravel()  # one segment per (node, axis)
    order = _stable_order(key * (z_rank.max(initial=0) + 1) + z_rank.ravel())
    key, z = key[order], Z.ravel()[order]
    first, lens, pos = _runs(key)
    cum1 = _segment_cumsum(labels[order // d].astype(np.int64), first, lens)
    size, n1 = np.repeat(lens, lens), np.repeat(cum1[first + lens - 1], lens)
    matches = 2 * cum1 - (pos + 1) + size - n1  # rows where "z below the cut" = label
    agree = np.maximum(matches, size - matches)
    tol = _TIE_TOL * np.repeat(np.maximum.reduceat(np.abs(z), first), lens)
    cuts = np.flatnonzero((pos + 1 < size) & (np.diff(z, append=np.inf) > tol)
                          & (n1 > 0) & (n1 < size))
    seg = first[key[first] % d == 0]  # each node's first segment
    ids, m, n_left = key[seg] // d, size[seg], n1[seg]
    feature, flip = np.zeros(ids.size, dtype=np.int32), np.zeros(ids.size, dtype=bool)
    threshold = np.where(2 * n_left >= m, np.inf, -np.inf)  # +inf sends all left
    if cuts.size:
        best = cuts[_first_min(-agree[cuts], *_runs(key[cuts] // d)[:2])]
        at = np.searchsorted(ids, key[best] // d)
        feature[at] = key[best] % d
        threshold[at] = 0.5 * (z[best] + z[best + 1])
        flip[at] = size[best] - matches[best] > matches[best]
    return ids, feature, threshold, flip


def relabel_forest(
    forest: Forest,
    model: SpectralModel,
    synth: SyntheticTrainingSet,
    n_synth: int = 256,
    seed: int = 0,
) -> RelabeledForest:
    """Re-express every split in embedding coordinates, scored on the
    reference rows, whose exact embedding is ``model.Z``: they walk down
    blocks of trees (at most ``_RELABEL_CELLS`` cells) one depth step at a
    time, and each step relabels all splits it reaches by their own literal
    (``_best_latent_splits``). A split scores at most ``n_synth`` of its rows,
    those first in a permutation drawn under ``seed``. A split no row reaches
    sends all left; constant splits are counted. The walk's leaves are kept as
    the reference rows' leaf ids, onto which ``relabel_decode`` hardens."""
    if n_synth < 1:
        raise DecodeError("n_synth must be >= 1")
    _, Z = model.require_time()
    nodes = forest._node_table()
    grid, n = _widen(nodes, synth.table.values), synth.n
    rank = np.random.default_rng(seed).permutation(n)
    z_rank = _axis_ranks(Z)
    split = nodes.feature >= 0
    out = (np.where(split, 0, -1).astype(np.int32), np.where(split, np.inf, 0.0),
           np.zeros(split.size, dtype=bool))
    leaves = np.empty((n, forest.n_trees), dtype=np.int64)
    width = max(1, _RELABEL_CELLS // n)
    for b in range(0, forest.n_trees, width):
        roots = nodes.starts[b:min(b + width, forest.n_trees)]
        node = np.repeat(roots, n)
        for row, at, label, inner in _descend(nodes, grid, node):
            row, at, label = row[inner], at[inner], label[inner]
            if row.size > n_synth:
                order = np.argsort(at * n + rank[row])  # a node's rows by rank
                keep = np.sort(order[_runs(at[order])[2] < n_synth])
                row, at, label = row[keep], at[keep], label[keep]
            ids, *relabeled = _best_latent_splits(at, Z[row], label, z_rank[row])
            for a, v in zip(out, relabeled):
                a[ids] = v
        leaves[:, b:b + roots.size] = nodes.leaf_id[node].reshape(roots.size, n).T
    return RelabeledForest(nodes.starts, *out, model.d_z, int(np.isinf(out[1][split]).sum()),
                           leaves + forest.leaf_offsets)


def route_relabeled(relabeled: RelabeledForest, Z0: np.ndarray) -> np.ndarray:
    """Local leaf ids (m x B) of embeddings routed down the relabeled trees,
    all trees at once through the walk that ``route_values`` takes. A flipped
    split sends z >= t left, so it tests the negated axis: -z < nextafter(-t,
    +inf) is exactly -z <= -t."""
    r = relabeled
    Z0 = np.atleast_2d(np.asarray(Z0, dtype=np.float64))
    nodes = _node_arrays(r.starts, r.feature + r.flip * r.d_z,
                         np.where(r.flip, np.nextafter(-r.threshold, np.inf), r.threshold),
                         np.zeros(r.flip.size, dtype=bool), 2 * r.d_z)
    return _route(nodes, np.hstack([Z0, -Z0]))


def relabel_decode(
    relabeled: RelabeledForest,
    original: Forest,
    Z0: np.ndarray,
    seed: int = 0,
    trace: list[dict] | None = None,
) -> Table:
    """Route embeddings through the relabeled trees and sample from the
    intersection of the original forest's assigned leaf cells. A row keeps its
    routed leaves when they share a cell; any other row is hardened onto the
    leaves of the best-agreeing reference row (``reference_leaf_assign``, each
    routed leaf scoring 1).

    If ``trace`` is a list, one record is appended to it: ``hardened_rows``,
    the number of rows whose routed leaves share no cell, and
    ``degenerate_nodes``, the relabeled splits given a constant test.
    """
    leaf_ids = route_relabeled(relabeled, _embedding(Z0, relabeled.d_z))
    conflict = assigned_region(original, leaf_ids).is_empty()
    if conflict.any():
        routed = leaf_ids[conflict] + original.leaf_offsets
        hardened = reference_leaf_assign(routed, np.ones(routed.shape), relabeled.reference)
        leaf_ids[conflict] = hardened - original.leaf_offsets
    if trace is not None:
        trace.append({"hardened_rows": int(conflict.sum()),
                      "degenerate_nodes": relabeled.n_degenerate})
    return _sample_cells(original, leaf_ids, seed)


# ---------------------------------------------------------------------------
# exclusive lasso + hardening


def exclusive_lasso(
    A: np.ndarray, y: np.ndarray, lam: float, groups: np.ndarray
) -> tuple[np.ndarray, bool, float, int]:
    """Exact minimizer of the exclusive-lasso relaxation.

    Minimizes ||y - A psi||^2 + lam * sum_trees (sum_leaves psi)^2 over
    psi in [0,1]^d. On that box the squared-l1 group penalty is ||G psi||^2
    for the tree-indicator matrix G, so the problem is the bounded-variable
    least squares [A; sqrt(lam) G] psi ~ [y; 0], solved by ``_bvls``, a numpy
    port of SciPy's BVLS (Stark & Parker 1995) that returns SciPy's result.
    The objective is exact; the minimizer need not be unique when there are
    more leaf columns than rows. Returns (psi, converged, objective,
    iterations).
    """
    if not (np.isfinite(lam) and lam > 0):
        raise DecodeError("penalty weight must be finite and positive")
    A = np.asarray(A, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(y)):
        raise DecodeError("non-finite kernel estimates")
    G = (_sorted_unique(groups)[:, None] == groups[None, :]).astype(np.float64)
    x, bound, status, nit = _bvls(
        np.vstack([A, np.sqrt(lam) * G]),
        np.concatenate([y, np.zeros(G.shape[0])]),
        # SciPy's default of d iterations stops short when there are more
        # leaves than neighbor rows; 3d is Lawson & Hanson's active-set bound
        max_iter=3 * A.shape[1],
    )
    # BVLS's steps can leave a variable it holds at a bound an ulp off it
    psi = np.where(bound != 0, bound > 0, np.clip(x, 0.0, 1.0))
    resid, gsum = y - A @ psi, G @ psi
    objective = float(resid @ resid + lam * (gsum @ gsum))
    return psi, bool(status > 0), objective, nit


# _bvls is ported from the bounded linear least-squares solver of SciPy 1.17
# (scipy.optimize._lsq, method "bvls"), under the following license:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.


def _bvls(A: np.ndarray, b: np.ndarray, max_iter: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    """min ||A x - b|| over x in [0, 1]^n, step for step as SciPy's bounded
    linear least squares with ``bounds=(0, 1), method="bvls"`` and the same
    ``max_iter``: the unbounded start, the initialization loop, and BVLS's
    loops A and B.

    Returns SciPy's (x, active_mask, status, nit): status 3 when the
    unbounded least-squares solution already lies in the box, 1 when the KKT
    conditions hold to 1e-10, 2 when the cost stops falling, 0 when
    ``max_iter`` steps run out. Only the bookkeeping that SciPy keeps for its
    verbose output is left out.
    """
    lb, ub, tol = 0.0, 1.0, 1e-10
    n = A.shape[1]
    x = np.linalg.lstsq(A, b, rcond=-1)[0]
    if np.all((x >= lb) & (x <= ub)):
        return x, np.zeros(n), 3, 0

    on_bound = np.zeros(n)
    mask = x <= lb
    x[mask] = lb
    on_bound[mask] = -1
    mask = x >= ub
    x[mask] = ub
    on_bound[mask] = 1

    free_set = on_bound == 0
    active_set = ~free_set
    free_set, = np.nonzero(free_set)

    r = A.dot(x) - b
    cost = 0.5 * np.dot(r, r)
    g = A.T.dot(r)
    iteration = 0

    # initialization: least squares on the free variables until it is
    # feasible, sending the variables that violate a bound to it
    while free_set.size > 0:
        iteration += 1
        A_free = A[:, free_set]
        b_free = b - A.dot(x * active_set)
        z = np.linalg.lstsq(A_free, b_free, rcond=None)[0]

        lbv = z < lb
        ubv = z > ub
        v = lbv | ubv
        if np.any(lbv):
            ind = free_set[lbv]
            x[ind] = lb
            active_set[ind] = True
            on_bound[ind] = -1
        if np.any(ubv):
            ind = free_set[ubv]
            x[ind] = ub
            active_set[ind] = True
            on_bound[ind] = 1
        ind = free_set[~v]
        x[ind] = z[~v]

        r = A.dot(x) - b
        cost = 0.5 * np.dot(r, r)
        g = A.T.dot(r)
        if np.any(v):
            free_set = free_set[~v]
        else:
            break

    max_iter += iteration
    status = None

    def kkt_violation() -> float:
        g_kkt = g * on_bound
        free = on_bound == 0
        g_kkt[free] = np.abs(g[free])
        return np.max(g_kkt)

    optimality = kkt_violation()
    for iteration in range(iteration, max_iter):  # loop A: free the most violating bound
        if optimality < tol:
            status = 1
        if status is not None:
            break

        on_bound[np.argmax(g * on_bound)] = 0
        while True:  # loop B: step toward the free least-squares solution
            free_set = on_bound == 0
            active_set = ~free_set
            free_set, = np.nonzero(free_set)

            x_free = x[free_set]
            A_free = A[:, free_set]
            b_free = b - A.dot(x * active_set)
            z = np.linalg.lstsq(A_free, b_free, rcond=None)[0]

            lbv, = np.nonzero(z < lb)
            ubv, = np.nonzero(z > ub)
            v = np.hstack((lbv, ubv))
            if v.size > 0:
                alphas = np.hstack((lb - x_free[lbv], ub - x_free[ubv])) / (z[v] - x_free[v])
                i = np.argmin(alphas)
                i_free = v[i]
                alpha = alphas[i]
                x_free *= 1 - alpha
                x_free += alpha * z
                x[free_set] = x_free
                on_bound[free_set[i_free]] = -1 if i < lbv.size else 1
            else:
                x[free_set] = z
                break

        r = A.dot(x) - b
        cost_new = 0.5 * np.dot(r, r)
        if cost - cost_new < tol * cost:
            status = 2
        cost = cost_new
        g = A.T.dot(r)
        optimality = kkt_violation()

    return x, on_bound, 0 if status is None else status, iteration + 1


def reference_leaf_assign(leaves: np.ndarray, scores: np.ndarray,
                          reference: np.ndarray) -> np.ndarray:
    """Harden leaf scores onto reference-row cells: for each of m rows, the
    row of ``reference`` (n, B global leaf ids) whose leaves carry the most of
    its score, ties to the lowest index; a reference row lies in all of its
    leaves, so their cells meet. ``leaves`` and ``scores`` (m, k) are each
    row's scored global leaf ids and scores (>= 0); other leaves score 0 and a
    leaf listed twice counts twice, so short rows pad with score 0. The sums
    are the kernel module's leaf join, a block of rows at a time."""
    leaves = np.asarray(leaves, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.int64)
    if (leaves.ndim != 2 or scores.shape != leaves.shape or not np.all(scores >= 0)
            or reference.ndim != 2 or not reference.shape[0]
            or np.any(leaves < 0) or np.any(reference < 0)):
        raise DecodeError("need (m, k) leaf ids >= 0 with their scores, all >= 0, and the "
                          "(n, B) leaf ids of at least one reference row")
    best = np.zeros(leaves.shape[0], dtype=np.int64)
    for s, e, agree in _leaf_join(leaves, scores, reference):
        best[s:e] = agree.argmax(axis=1)
    return reference[best]


def _strongest(khat: np.ndarray, cap: int) -> np.ndarray:
    """The (at most) ``cap`` reference rows of largest |khat|, ascending; the
    first ``cap`` rows when khat is all zero."""
    nz = np.flatnonzero(np.abs(khat) > 0)
    order = nz[np.argsort(-np.abs(khat[nz]), kind="stable")]
    neighbors = np.sort(order[: min(cap, order.shape[0])])
    if neighbors.size == 0:
        neighbors = np.arange(min(cap, khat.shape[0]))
    return neighbors


def lasso_decode(
    Z0: np.ndarray,
    model: SpectralModel,
    forest: Forest,
    synth: SyntheticTrainingSet,
    lam: float = 1e-4,
    sparsity_cap: int = 100,
    seed: int = 0,
    trace: list[dict] | None = None,
) -> Table:
    """Reconstruct kernel rows, reduce to the strongest neighbors, solve the
    exclusive lasso over the leaves those neighbors touch, harden every row's
    psi onto the leaves of the best-agreeing reference row
    (``reference_leaf_assign``), and sample from the cell those leaves share.

    If ``trace`` is a list, one record per row is appended to it: the row,
    the solver's objective, convergence flag and iteration count.
    """
    if sparsity_cap < 1:
        raise DecodeError("sparsity_cap must be >= 1")
    khat_all = reconstruct_kernel(_embedding(Z0, model.d_z), model)
    M = leaf_design(leaf_profile(forest, route_values(forest, synth.table.values)))
    B = forest.n_trees
    picked = [_strongest(khat, sparsity_cap) for khat in khat_all]
    col_ids = [_sorted_unique(M.cols[nb]) for nb in picked]
    for nb, cols in zip(picked, col_ids):
        # a row's problem stacks its neighbor rows over one group row per tree
        cells = (nb.size + B) * cols.size
        if cells > _LASSO_MAX_CELLS:
            raise DecodeError(
                f"an exclusive-lasso problem of {cells} cells (rows x leaf columns) exceeds "
                f"the budget of {_LASSO_MAX_CELLS}; use --decoder knn for forests this large"
            )
    # each row's leaf columns and their psi, padded with score 0
    leaves = np.zeros((len(picked), max((c.size for c in col_ids), default=0)), dtype=np.int64)
    scores = np.zeros(leaves.shape)
    for i, (neighbors, ids) in enumerate(zip(picked, col_ids)):
        cols = M.cols[neighbors]
        group_ids = np.searchsorted(forest.leaf_offsets, ids, side="right") - 1
        # each (row, tree) entry lands in its own column of the neighbour block
        A = np.zeros((neighbors.size, ids.size))
        A[np.arange(neighbors.size)[:, None], np.searchsorted(ids, cols)] = M.weights[cols]
        psi, converged, objective, iterations = exclusive_lasso(
            A, B * khat_all[i, neighbors], lam, group_ids
        )
        leaves[i, :ids.size], scores[i, :ids.size] = ids, psi
        if trace is not None:
            trace.append(dict(row=i, objective=objective, converged=converged,
                              iterations=iterations))
    assignments = reference_leaf_assign(leaves, scores, M.cols) - forest.leaf_offsets
    return _sample_cells(forest, assignments, seed)


# ---------------------------------------------------------------------------
# exact enumeration


@dataclass
class IlpResult:
    assignment: np.ndarray  # lexicographically first optimum
    objective: float
    n_optima: int
    optima: list[np.ndarray]

    @property
    def tie(self) -> bool:
        return self.n_optima > 1


def _check_ilp_work(work: int) -> None:
    if work > _ILP_MAX_WORK:
        raise DecodeError(f"assignment space exceeds the exact-enumeration budget ({work} > "
                          f"{_ILP_MAX_WORK}); use --decoder lasso or --decoder knn")


def _refinement(forest: Forest, n_rows: int) -> np.ndarray:
    """The non-empty cells of the forest's common refinement as (cells, B)
    local leaf ids, in lexicographic order: each tree in turn walks the cells
    so far down its splits (``_leaf_cells``). Cells never get fewer, as each
    tree's leaves tile every cell, so every step checks the budget on the
    products with ``n_rows`` that scoring will need."""
    region, cells = forest.box[None], np.zeros((1, 0), dtype=np.int64)
    for b, n_leaves in enumerate(forest.n_leaves.tolist()):
        _check_ilp_work(cells.shape[0] * max(n_leaves, n_rows))
        root, leaf, region = _leaf_cells(forest, b, b + 1, region)
        cells = np.column_stack([cells[root], leaf])
        if not cells.shape[0]:
            raise DecodeError("no feasible leaf assignment: every combination has empty overlap")
    _check_ilp_work(cells.shape[0] * n_rows)
    return cells


def _ilp_solve(khat: np.ndarray, forest: Forest, pi: np.ndarray) -> list[IlpResult]:
    """Exact minimizers of the leaf-assignment program for (m x n) kernel rows:
    the non-empty cells of the forest's common refinement are enumerated once,
    and each row scores every cell by the exact l1 objective |B khat - M psi|_1
    over the reference rows routed to ``pi``. The lexicographically first cell
    within ``_TIE_TOL`` of the minimum wins, and ``n_optima`` counts the cells
    within it. Each cell's M psi is summed once by the kernel module's leaf
    join, in tree order, and rows are scored in blocks of rows and of cells of
    at most ``_ILP_BLOCK`` terms (or one row and one cell), each (row, cell)
    summing its reference rows alone."""
    B, n = forest.n_trees, pi.shape[0]
    target = B * np.asarray(khat, dtype=np.float64)
    if target.shape[1] != n:
        raise DecodeError("kernel row length must match training assignments")
    cells = _refinement(forest, n)
    M = leaf_design(leaf_profile(forest, pi))
    design = np.empty((cells.shape[0], n))
    leaves = cells + forest.leaf_offsets
    for s, e, sums in _leaf_join(leaves, M.weights[leaves], M.cols):
        design[s:e] = sums
    results = []
    step = max(1, _ILP_BLOCK // design.size)  # rows per block
    width = max(1, _ILP_BLOCK // n)  # cells per block
    for s in range(0, target.shape[0], step):
        rows = target[s:s + step, None]
        objs = np.empty((rows.shape[0], design.shape[0]))
        for c in range(0, design.shape[0], width):
            objs[:, c:c + width] = np.abs(rows - design[c:c + width]).sum(axis=2)
        for obj in objs:
            tied = np.flatnonzero(obj <= obj.min() + _TIE_TOL)
            results.append(IlpResult(assignment=cells[tied[0]], objective=float(obj[tied[0]]),
                                     n_optima=tied.size, optima=list(cells[tied[:8]])))
    return results


def ilp_decode(
    Z0: np.ndarray,
    model: SpectralModel,
    forest: Forest,
    synth: SyntheticTrainingSet,
    seed: int = 0,
    trace: list[dict] | None = None,
) -> Table:
    """Reconstruct kernel rows, find each row's exact leaf assignment against
    one enumeration of the forest's cells, and sample from the assigned-leaf
    intersections.

    If ``trace`` is a list, one record per row is appended to it: the row,
    its optimal objective and the number of optima.
    """
    khat = reconstruct_kernel(_embedding(Z0, model.d_z), model)
    results = _ilp_solve(khat, forest, route_values(forest, synth.table.values))
    if trace is not None:
        trace.extend({"row": i, "objective": r.objective, "n_optima": r.n_optima}
                     for i, r in enumerate(results))
    assignments = np.reshape([r.assignment for r in results], (-1, forest.n_trees))
    return _sample_cells(forest, assignments, seed)
