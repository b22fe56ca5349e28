"""Decision-tree ensembles with leaf bookkeeping and region geometry.

Trees are stored as flat arrays (feature / threshold / children per node) so
routing and region queries vectorize. Split literals are ``x_j < t`` on
continuous columns (strict, ties route right) and ``x_j == level`` on
categorical ones; the true branch is always the left child. Thresholds sit at
midpoints of adjacent observed values, so identical data + params + seed give
identical forests.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
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


class ForestError(ValueError):
    pass


@dataclass(frozen=True)
class ForestParams:
    """Ensemble hyperparameters.

    ``min_node_fraction`` is the per-split balance floor: each child must
    receive at least ceil(fraction * parent) split-learning samples.
    ``min_leaf`` additionally floors child sizes at an absolute count.
    ``honest`` halves each tree's sample: one half learns splits, the other
    sets leaf counts and label stats.
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
        if not (0.0 < self.min_node_fraction <= 0.5):
            raise ForestError("min_node_fraction must lie in (0, 0.5]")
        if not (0.0 < self.subsample_fraction <= 1.0):
            raise ForestError("subsample_fraction must lie in (0, 1]")
        if self.min_leaf < 1:
            raise ForestError("min_leaf must be >= 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ForestError("max_depth must be >= 0")

    def to_dict(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "mtry": self.mtry,
            "min_node_fraction": self.min_node_fraction,
            "min_leaf": self.min_leaf,
            "max_depth": self.max_depth,
            "subsample_fraction": self.subsample_fraction,
            "bootstrap": self.bootstrap,
            "honest": self.honest,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(d: dict) -> "ForestParams":
        return ForestParams(**d)


@dataclass
class Tree:
    """Flat-array binary tree; leaf ids are contiguous 0..n_leaves-1."""

    feature: np.ndarray  # int32, -1 at leaves
    threshold: np.ndarray  # float64: cut point, or level code for Equals
    is_equal: np.ndarray  # bool: Equals split (categorical)
    left: np.ndarray  # int32, -1 at leaves
    right: np.ndarray  # int32, -1 at leaves
    node_count: np.ndarray  # int32 split-learning sample count per node
    leaf_id: np.ndarray  # int32, -1 at internal nodes
    leaf_count: np.ndarray  # int64 counting-sample size per leaf, all >= 1
    leaf_stat: np.ndarray  # (L,) means or (L, C) class counts

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    @property
    def n_leaves(self) -> int:
        return self.leaf_count.shape[0]


@dataclass
class Forest:
    trees: list[Tree]
    schema: Schema
    feature_ranges: np.ndarray  # (d, 2) training min/max; NaN rows for categorical
    params: ForestParams
    kind: str  # "regression" | "classification" | "none"
    n_classes: int = 0
    # node cells, built on first use: only the decoders read them, and they
    # depend on feature_ranges, which the Forest owns
    _boxes: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def total_leaves(self) -> int:
        return sum(t.n_leaves for t in self.trees)

    @property
    def leaf_offsets(self) -> np.ndarray:
        """Global leaf index = leaf_offsets[b] + local leaf id."""
        sizes = [t.n_leaves for t in self.trees]
        return np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)

    def _box_table(self) -> tuple:
        if self._boxes is None:
            self._boxes = _node_box_table(self)
        return self._boxes

    def node_boxes(self, b: int) -> "Region":
        """Cells of tree b's nodes, indexed by node."""
        boxes, starts, _ = self._box_table()
        return boxes[starts[b] : starts[b + 1]]

    def leaf_boxes(self, leaves) -> "Region":
        """Cells of the given global leaf ids (any shape)."""
        boxes, _, leaf_rows = self._box_table()
        return boxes[leaf_rows[leaves]]

    def to_dict(self) -> dict:
        return {
            "schema": self.schema.to_dict(),
            "feature_ranges": [
                [None, None] if np.isnan(lo) else [float(lo), float(hi)]
                for lo, hi in self.feature_ranges
            ],
            "params": self.params.to_dict(),
            "kind": self.kind,
            "n_classes": self.n_classes,
            "trees": [
                {
                    "feature": t.feature.tolist(),
                    "threshold": t.threshold.tolist(),
                    "is_equal": t.is_equal.astype(int).tolist(),
                    "left": t.left.tolist(),
                    "right": t.right.tolist(),
                    "node_count": t.node_count.tolist(),
                    "leaf_id": t.leaf_id.tolist(),
                    "leaf_count": t.leaf_count.tolist(),
                    "leaf_stat": t.leaf_stat.tolist(),
                }
                for t in self.trees
            ],
        }

    @staticmethod
    def from_dict(d: dict) -> "Forest":
        trees = []
        for td in d["trees"]:
            stat = np.asarray(td["leaf_stat"], dtype=np.float64)
            trees.append(
                Tree(
                    feature=np.asarray(td["feature"], dtype=np.int32),
                    threshold=np.asarray(td["threshold"], dtype=np.float64),
                    is_equal=np.asarray(td["is_equal"], dtype=bool),
                    left=np.asarray(td["left"], dtype=np.int32),
                    right=np.asarray(td["right"], dtype=np.int32),
                    node_count=np.asarray(td["node_count"], dtype=np.int32),
                    leaf_id=np.asarray(td["leaf_id"], dtype=np.int32),
                    leaf_count=np.asarray(td["leaf_count"], dtype=np.int64),
                    leaf_stat=stat,
                )
            )
        ranges = np.array(
            [[np.nan, np.nan] if r[0] is None else r for r in d["feature_ranges"]],
            dtype=np.float64,
        ).reshape(-1, 2)
        return Forest(
            trees=trees,
            schema=Schema.from_dict(d["schema"]),
            feature_ranges=ranges,
            params=ForestParams.from_dict(d["params"]),
            kind=d["kind"],
            n_classes=d["n_classes"],
        )


# ---------------------------------------------------------------------------
# growing


def _feature_ranges(schema: Schema, values: np.ndarray) -> np.ndarray:
    out = np.full((schema.n_columns, 2), np.nan)
    for j, col in enumerate(schema.columns):
        if not col.is_categorical:
            out[j, 0] = values[:, j].min()
            out[j, 1] = values[:, j].max()
    return out


def _min_child(m: int, params: ForestParams) -> int:
    return max(params.min_leaf, math.ceil(params.min_node_fraction * m))


def _best_continuous(v, ys, y2s, onehot, min_child, lab_sorted):
    """Best cut on one continuous feature; returns (cost, threshold) or None."""
    m = v.shape[0]
    order = np.argsort(v, kind="stable")
    vs = v[order]
    if vs[0] == vs[-1]:
        return None
    sizes = np.arange(1, m)
    valid = (vs[1:] > vs[:-1]) & (sizes >= min_child) & (m - sizes >= min_child)
    if lab_sorted is not None:
        thr_all = 0.5 * (vs[:-1] + vs[1:])
        lab_left = np.searchsorted(lab_sorted, thr_all)
        valid &= (lab_left >= 1) & (lab_left <= lab_sorted.shape[0] - 1)
    if not valid.any():
        return None
    if onehot is None:
        c1 = np.cumsum(ys[order])[:-1]
        c2 = np.cumsum(y2s[order])[:-1]
        t1, t2 = c1[-1] + ys[order][-1], c2[-1] + y2s[order][-1]
        cost = (c2 - c1 * c1 / sizes) + ((t2 - c2) - (t1 - c1) ** 2 / (m - sizes))
    else:
        cl = np.cumsum(onehot[order], axis=0)[:-1]
        tot = cl[-1] + onehot[order][-1]
        cost = (sizes - (cl * cl).sum(axis=1) / sizes) + (
            (m - sizes) - ((tot - cl) ** 2).sum(axis=1) / (m - sizes)
        )
    cost = np.where(valid, cost, np.inf)
    i = int(np.argmin(cost))
    return float(cost[i]), 0.5 * (vs[i] + vs[i + 1])


def _best_categorical(v, ys, y2s, onehot, min_child, lab_v, n_levels):
    """Best one-vs-rest Equals split; returns (cost, level code) or None."""
    m = v.shape[0]
    codes = v.astype(np.intp)
    cnt = np.bincount(codes, minlength=n_levels).astype(np.float64)
    valid = (cnt >= min_child) & (m - cnt >= min_child)
    if lab_v is not None:
        lab_cnt = np.bincount(lab_v.astype(np.intp), minlength=n_levels)
        valid &= (lab_cnt >= 1) & (lab_v.shape[0] - lab_cnt >= 1)
    if not valid.any():
        return None
    if onehot is None:
        s1 = np.bincount(codes, weights=ys, minlength=n_levels)
        s2 = np.bincount(codes, weights=y2s, minlength=n_levels)
        t1, t2 = ys.sum(), y2s.sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            cost = (s2 - s1 * s1 / cnt) + ((t2 - s2) - (t1 - s1) ** 2 / (m - cnt))
    else:
        n_cls = onehot.shape[1]
        cl = np.zeros((n_levels, n_cls))
        np.add.at(cl, codes, onehot)
        tot = onehot.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            cost = (cnt - (cl * cl).sum(axis=1) / cnt) + (
                (m - cnt) - ((tot - cl) ** 2).sum(axis=1) / (m - cnt)
            )
    cost = np.where(valid, cost, np.inf)
    i = int(np.argmin(cost))
    return float(cost[i]), float(i)


def _grow_tree(values, schema_cats, y, onehot, params, rng, completely_random):
    """Grow one tree; returns flat node arrays plus per-leaf row lists."""
    n = values.shape[0]
    d = values.shape[1]
    ssize = max(2, math.ceil(params.subsample_fraction * n))
    rows = rng.choice(n, size=ssize, replace=params.bootstrap)
    if params.honest:
        perm = rng.permutation(rows)
        half = max(1, ssize // 2)
        split_rows, label_rows = perm[:half], perm[half:]
    else:
        split_rows = label_rows = rows

    mtry = params.mtry or max(1, round(math.sqrt(d)))
    mtry = min(mtry, d)
    y2 = y * y if (y is not None and onehot is None) else None

    feature, threshold, is_equal = [], [], []
    left, right, node_count = [], [], []
    leaf_rows: list[np.ndarray] = []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        is_equal.append(False)
        left.append(-1)
        right.append(-1)
        node_count.append(0)
        return len(feature) - 1

    def make_leaf(idx, lrows):
        feature[idx] = -1
        leaf_rows.append(lrows)

    root = new_node()
    stack = [(root, split_rows, label_rows, 0)]
    while stack:
        idx, srows, lrows, depth = stack.pop()
        m = srows.shape[0]
        node_count[idx] = m
        min_child = _min_child(m, params)
        at_depth = params.max_depth is not None and depth >= params.max_depth
        if at_depth or m < max(2, 2 * min_child) or (params.honest and lrows.shape[0] < 2):
            make_leaf(idx, lrows)
            continue
        if not completely_random:
            ynode = y[srows]
            if onehot is None:
                if ynode.max() == ynode.min():
                    make_leaf(idx, lrows)
                    continue
            elif np.all(ynode == ynode[0]):
                make_leaf(idx, lrows)
                continue

        found = None
        if completely_random:
            found = _random_split(values, schema_cats, srows, lrows, min_child, params, rng)
        else:
            cands = rng.choice(d, size=mtry, replace=False)
            best_cost = np.inf
            oh = onehot[srows] if onehot is not None else None
            ys = y[srows] if onehot is None else None
            y2s = y2[srows] if onehot is None else None
            for f in cands:
                v = values[srows, f]
                n_levels = schema_cats[f]
                if n_levels == 0:
                    lab_sorted = np.sort(values[lrows, f]) if params.honest else None
                    res = _best_continuous(v, ys, y2s, oh, min_child, lab_sorted)
                else:
                    lab_v = values[lrows, f] if params.honest else None
                    res = _best_categorical(v, ys, y2s, oh, min_child, lab_v, n_levels)
                if res is not None and res[0] < best_cost:
                    best_cost = res[0]
                    found = (int(f), res[1], n_levels > 0)
        if found is None:
            make_leaf(idx, lrows)
            continue

        f, cut, eq = found
        feature[idx] = f
        threshold[idx] = cut
        is_equal[idx] = eq
        sv = values[srows, f]
        smask = (sv == cut) if eq else (sv < cut)
        lv = values[lrows, f]
        lmask = (lv == cut) if eq else (lv < cut)
        li, ri = new_node(), new_node()
        left[idx], right[idx] = li, ri
        # right pushed first so the left subtree is processed (and consumes
        # RNG draws) first, keeping growth order deterministic
        stack.append((ri, srows[~smask], lrows[~lmask], depth + 1))
        stack.append((li, srows[smask], lrows[lmask], depth + 1))

    return (
        np.asarray(feature, dtype=np.int32),
        np.asarray(threshold, dtype=np.float64),
        np.asarray(is_equal, dtype=bool),
        np.asarray(left, dtype=np.int32),
        np.asarray(right, dtype=np.int32),
        np.asarray(node_count, dtype=np.int32),
        leaf_rows,
    )


def _random_split(values, schema_cats, srows, lrows, min_child, params, rng):
    """Uniform feature + uniform cut, rejection-sampled against child floors."""
    d = values.shape[1]
    eligible = []
    for f in range(d):
        v = values[srows, f]
        if v.min() < v.max():
            eligible.append(f)
    if not eligible:
        return None
    for _ in range(_CR_SPLIT_TRIES):
        f = eligible[rng.integers(0, len(eligible))]
        v = values[srows, f]
        n_levels = schema_cats[f]
        if n_levels == 0:
            lo, hi = v.min(), v.max()
            cut = rng.uniform(lo, hi)
            if cut <= lo:
                continue
            mask = v < cut
        else:
            present = np.unique(v)
            cut = float(present[rng.integers(0, present.shape[0])])
            mask = v == cut
        nl = int(mask.sum())
        if nl < min_child or v.shape[0] - nl < min_child:
            continue
        if params.honest:
            lv = values[lrows, f]
            nll = int(((lv == cut) if n_levels else (lv < cut)).sum())
            if nll < 1 or lrows.shape[0] - nll < 1:
                continue
        return f, float(cut), n_levels > 0
    return None


def _finalize_tree(arrays, values, y, kind, n_classes) -> Tree:
    feature, threshold, is_equal, left, right, node_count, leaf_rows = arrays
    n_nodes = feature.shape[0]
    leaf_id = np.full(n_nodes, -1, dtype=np.int32)
    leaf_slots = np.flatnonzero(left < 0)
    leaf_id[leaf_slots] = np.arange(leaf_slots.shape[0], dtype=np.int32)
    n_leaves = leaf_slots.shape[0]
    counts = np.zeros(n_leaves, dtype=np.int64)
    if kind == CLASSIFICATION:
        stat = np.zeros((n_leaves, n_classes))
    else:
        stat = np.zeros(n_leaves)

    # processing order is a stack traversal, so recompute leaf membership by
    # routing the counting rows; duplicates from bootstrap count once
    tree = Tree(
        feature=feature,
        threshold=threshold,
        is_equal=is_equal,
        left=left,
        right=right,
        node_count=node_count,
        leaf_id=leaf_id,
        leaf_count=counts,
        leaf_stat=stat,
    )
    all_rows = np.unique(np.concatenate(leaf_rows)) if leaf_rows else np.array([], int)
    assigned = _route_tree(tree, values[all_rows])
    np.add.at(counts, assigned, 1)
    if counts.min(initial=1) < 1:
        raise ForestError("empty leaf after counting pass")
    if kind == CLASSIFICATION:
        np.add.at(stat, assigned, np.eye(n_classes)[y[all_rows].astype(np.intp)])
    elif kind == REGRESSION:
        np.add.at(stat, assigned, y[all_rows])
        stat /= counts
    return tree


def _build_trees(values, schema_cats, y, onehot, params, seeds, kind, n_classes, cr):
    out = []
    for s in seeds:
        rng = np.random.default_rng(s)
        arrays = _grow_tree(values, schema_cats, y, onehot, params, rng, cr)
        out.append(_finalize_tree(arrays, values, y, kind, n_classes))
    return out


def _worker(args):
    return _build_trees(*args)


def _fit(table: Table, y, kind, n_classes, params: ForestParams, cr: bool, jobs: int) -> Forest:
    if table.n < 2:
        raise ForestError("need at least 2 rows")
    values = table.values
    schema_cats = np.array(
        [len(c.levels) if c.is_categorical else 0 for c in table.schema.columns]
    )
    onehot = None
    if kind == CLASSIFICATION:
        onehot = np.eye(n_classes)[y.astype(np.intp)]
    children = np.random.SeedSequence(params.seed).spawn(params.n_trees)
    if jobs > 1:
        chunks = np.array_split(np.arange(params.n_trees), min(jobs, params.n_trees))
        tasks = [
            (values, schema_cats, y, onehot, params, [children[i] for i in c], kind, n_classes, cr)
            for c in chunks
            if len(c)
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_worker, tasks))
        trees = [t for part in parts for t in part]
    else:
        trees = _build_trees(values, schema_cats, y, onehot, params, children, kind, n_classes, cr)
    return Forest(
        trees=trees,
        schema=table.schema,
        feature_ranges=_feature_ranges(table.schema, values),
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
    n, d = real_values.shape
    assigned = route_values(forest, real_values)
    out = np.empty_like(real_values)
    tree_pick = rng.integers(0, forest.n_trees, size=n)
    for b in np.unique(tree_pick):
        rows = np.flatnonzero(tree_pick == b)
        leaves = assigned[:, b]
        counts = np.bincount(leaves, minlength=forest.trees[b].n_leaves)
        probs = counts / counts.sum()
        chosen = rng.choice(counts.shape[0], size=rows.shape[0], p=probs)
        order = np.argsort(leaves, kind="stable")
        starts = np.searchsorted(leaves[order], np.arange(counts.shape[0]))
        for i, leaf in zip(rows, chosen):
            members = order[starts[leaf] : starts[leaf] + counts[leaf]]
            picks = members[rng.integers(0, members.shape[0], size=d)]
            out[i] = real_values[picks, np.arange(d)]
    return out


# ---------------------------------------------------------------------------
# routing


def _route_tree(tree: Tree, values: np.ndarray) -> np.ndarray:
    node = np.zeros(values.shape[0], dtype=np.int32)
    while True:
        feat = tree.feature[node]
        active = feat >= 0
        if not active.any():
            break
        idx = np.flatnonzero(active)
        f = feat[idx]
        x = values[idx, f]
        thr = tree.threshold[node[idx]]
        eq = tree.is_equal[node[idx]]
        go_left = np.where(eq, x == thr, x < thr)
        node[idx] = np.where(go_left, tree.left[node[idx]], tree.right[node[idx]])
    return tree.leaf_id[node]


def route_values(forest: Forest, values: np.ndarray) -> np.ndarray:
    """Leaf ids (n x B) for a raw value grid aligned to the forest schema."""
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    out = np.empty((values.shape[0], forest.n_trees), dtype=np.int32)
    for b, tree in enumerate(forest.trees):
        out[:, b] = _route_tree(tree, values)
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
    values = np.atleast_2d(np.asarray(x, dtype=np.float64))
    single = np.asarray(x).ndim == 1
    assigned = route_values(forest, values)
    if forest.kind == REGRESSION:
        acc = np.zeros(values.shape[0])
        for b, tree in enumerate(forest.trees):
            acc += tree.leaf_stat[assigned[:, b]]
        out = acc / forest.n_trees
    else:
        acc = np.zeros((values.shape[0], forest.n_classes))
        for b, tree in enumerate(forest.trees):
            stat = tree.leaf_stat[assigned[:, b]]
            acc += stat / stat.sum(axis=1, keepdims=True)
        out = acc / forest.n_trees
    return out[0] if single else out


# ---------------------------------------------------------------------------
# regions


@dataclass
class Region:
    """A batch of axis-aligned cells: intervals on continuous columns (upper
    bound open when it came from a split literal), allowed-level masks on
    categorical ones.

    ``lo``, ``hi`` and ``hi_open`` have shape ``(..., d)`` and each mask
    ``(..., L_j)``; a single cell is a batch of shape ``()``. Categorical
    columns keep ``lo = hi = 0``. Regions are never modified in place.
    """

    schema: Schema
    lo: np.ndarray
    hi: np.ndarray
    hi_open: np.ndarray
    masks: dict[int, np.ndarray]

    def __getitem__(self, idx) -> "Region":
        """Index the batch dimensions."""
        return Region(
            self.schema, self.lo[idx], self.hi[idx], self.hi_open[idx],
            {j: m[idx] for j, m in self.masks.items()},
        )

    def intersect(self, other: "Region") -> "Region":
        """Coordinate-wise intersection, broadcasting the batch dimensions;
        emptiness is a result, not an error."""
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        hi_open = np.where(
            self.hi < other.hi,
            self.hi_open,
            np.where(self.hi > other.hi, other.hi_open, self.hi_open | other.hi_open),
        )
        masks = {j: m & other.masks[j] for j, m in self.masks.items()}
        return Region(self.schema, lo, hi, hi_open, masks)

    def is_empty(self) -> np.ndarray:
        """Emptiness of every cell, shaped like the batch."""
        empty = np.any((self.lo > self.hi) | ((self.lo == self.hi) & self.hi_open), axis=-1)
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
                m = self.masks[j].reshape(n, -1)
                pick = np.floor(u * m.sum(axis=1)).astype(np.intp)
                out[:, j] = np.argmax(np.cumsum(m, axis=1) > pick[:, None], axis=1)
            else:
                out[:, j] = np.where(
                    lo[:, j] == hi[:, j], lo[:, j], lo[:, j] + u * (hi[:, j] - lo[:, j])
                )
        return out.reshape(self.lo.shape)

    def contains(self, x) -> bool:
        """Whether the point x lies in this single cell."""
        x = np.asarray(x, dtype=np.float64)
        at = np.where([c.is_categorical for c in self.schema.columns], 0.0, x)
        levels = {j: np.arange(m.shape[-1]) == x[j] for j, m in self.masks.items()}
        point = Region(self.schema, at, at, np.zeros(at.shape, dtype=bool), levels)
        return not self.intersect(point).is_empty()


def _node_box_table(forest: Forest) -> tuple[Region, np.ndarray, np.ndarray]:
    """Cells of every node of every tree, built level by level.

    Returns the (total_nodes, d) batch in tree order, the first row of each
    tree (length B + 1) and the row of each global leaf id. A root's cell is
    the training feature box; a child narrows its parent's cell by the split
    literal (left) or its negation (right).
    """
    trees = forest.trees
    starts = np.concatenate([[0], np.cumsum([t.n_nodes for t in trees])]).astype(np.int64)

    left = np.concatenate([np.where(t.left >= 0, t.left + s, -1) for t, s in zip(trees, starts)])
    right = np.concatenate([np.where(t.right >= 0, t.right + s, -1) for t, s in zip(trees, starts)])
    feature = np.concatenate([t.feature for t in trees]).astype(np.intp)
    cut = np.concatenate([t.threshold for t in trees])
    is_equal = np.concatenate([t.is_equal for t in trees])
    rows = starts[-1]
    lo = np.tile(np.nan_to_num(forest.feature_ranges[:, 0]), (rows, 1))
    hi = np.tile(np.nan_to_num(forest.feature_ranges[:, 1]), (rows, 1))
    hi_open = np.zeros(lo.shape, dtype=bool)
    masks = {
        j: np.ones((rows, len(c.levels)), dtype=bool)
        for j, c in enumerate(forest.schema.columns)
        if c.is_categorical
    }
    nodes = starts[:-1]
    while nodes.size:
        nodes = nodes[left[nodes] >= 0]
        l, r, f, c = left[nodes], right[nodes], feature[nodes], cut[nodes]
        for a in (lo, hi, hi_open, *masks.values()):
            a[l] = a[nodes]
            a[r] = a[nodes]
        cont = ~is_equal[nodes]
        p, fc, cc = nodes[cont], f[cont], c[cont]
        hi_open[l[cont], fc] = (cc <= hi[p, fc]) | hi_open[p, fc]
        hi[l[cont], fc] = np.minimum(hi[p, fc], cc)
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
    for a in (lo, hi, hi_open, *masks.values()):
        a.flags.writeable = False  # the cells handed out are views of this table
    # internal nodes carry leaf id -1 and sort first
    leaf_rows = np.concatenate([
        s + np.argsort(t.leaf_id)[t.n_nodes - t.n_leaves :] for t, s in zip(trees, starts)
    ])
    return Region(forest.schema, lo, hi, hi_open, masks), starts, leaf_rows


def leaf_region(forest: Forest, b: int, leaf: int) -> Region:
    """Intersection of all split conditions on the root-to-leaf path, with
    unconstrained dimensions clipped to the training feature box.
    """
    if not 0 <= leaf < forest.trees[b].n_leaves:
        raise ForestError(f"tree {b} has no leaf {leaf}")
    return forest.leaf_boxes(forest.leaf_offsets[b] + leaf)


def region_intersect(regions) -> Region:
    """Intersection of an iterable of (broadcastable) regions."""
    return functools.reduce(Region.intersect, regions)


def assigned_region(forest: Forest, leaf_ids: np.ndarray) -> Region:
    """Intersection of each row's assigned leaf cells.

    ``leaf_ids`` is (..., B) local ids; the result has batch shape (...).
    """
    ids = np.asarray(leaf_ids, dtype=np.int64) + forest.leaf_offsets
    return region_intersect(forest.leaf_boxes(ids[..., b]) for b in range(forest.n_trees))
