import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from forestae import forest as forest_module
from forestae.bundle import forest_from_dict, forest_to_dict
from forestae.data import Column, Schema, Table
from forestae.forest import (
    Forest,
    ForestParams,
    ForestError,
    Tree,
    assigned_region,
    fit_completely_random,
    fit_supervised,
    fit_unsupervised,
    leaf_region,
    predict,
    region_intersect,
    route,
    route_table,
    route_values,
)
from conftest import forest_of, make_blobs, make_mixed


def _tree_bag(params: ForestParams, n: int, b: int, label_half: bool = False) -> np.ndarray:
    """Replay the subsample draw of tree b (same stream as fitting); with
    ``label_half``, the half of its shuffled bag that an honest tree counts."""
    children = np.random.SeedSequence(params.seed).spawn(params.n_trees)
    rng = np.random.default_rng(children[b])
    ssize = max(2, math.ceil(params.subsample_fraction * n))
    bag = rng.choice(n, size=ssize, replace=params.bootstrap)
    return rng.permutation(bag)[max(1, ssize // 2) :] if label_half else bag


def test_separable_single_split():
    table = Table(Schema((Column("x"),)), np.array([[0.1], [0.2], [0.8], [0.9]]))
    y = np.array([0.0, 0.0, 1.0, 1.0])
    params = ForestParams(n_trees=1, mtry=1, min_node_fraction=0.25, seed=0)
    f = fit_supervised(table, (Column("y", ("n", "p")), y), params)
    tree = f.trees[0]
    assert tree.n_leaves == 2
    thr = tree.threshold[0]
    assert 0.2 < thr <= 0.8
    stats = tree.leaf_stat
    assert np.all(stats.max(axis=1) == 2)  # both leaves pure, 2 samples each


def test_max_depth_zero_single_leaf():
    table, labels = make_blobs(30, 2, seed=1)
    params = ForestParams(n_trees=3, max_depth=0, seed=0)
    f = fit_supervised(table, (Column("y"), labels), params)
    for t in f.trees:
        assert t.n_leaves == 1
        assert t.leaf_count[0] == 30


def test_xor_oob_accuracy():
    rng = np.random.default_rng(42)
    X = rng.random((200, 2))
    y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(float)
    table = Table(Schema((Column("a"), Column("b"))), X)
    params = ForestParams(n_trees=100, bootstrap=True, min_leaf=2, seed=9)
    f = fit_supervised(table, (Column("y", ("0", "1")), y), params)
    votes = np.zeros((200, 2))
    for b, tree in enumerate(f.trees):
        bag = set(_tree_bag(params, 200, b).tolist())
        oob = np.array([i for i in range(200) if i not in bag])
        leaves = route_values(f, X[oob])[:, b]
        stat = tree.leaf_stat[leaves]
        votes[oob] += stat / stat.sum(axis=1, keepdims=True)
    covered = votes.sum(axis=1) > 0
    acc = np.mean(np.argmax(votes[covered], axis=1) == y[covered])
    assert acc > 0.85


def test_completely_random_depth_one():
    table, _ = make_blobs(40, 2, seed=2)
    f = fit_completely_random(table, ForestParams(n_trees=1, max_depth=1, seed=3))
    tree = f.trees[0]
    assert tree.n_leaves == 2
    assert tree.leaf_count.min() >= 1


def _fit_mode(mode: str, table: Table, params: ForestParams, jobs: int = 1) -> Forest:
    """Fit one of the growth modes on a make_mixed table."""
    x = table.values
    if mode == "completely_random":
        return fit_completely_random(table, params, jobs=jobs)
    if mode == "unsupervised":
        return fit_unsupervised(table, params, rounds=2, jobs=jobs)
    if mode == "regression":
        y = x[:, 0] + 0.5 * x[:, 1] + np.sin(3 * x[:, 1])
        return fit_supervised(table, (Column("y"), y), params, jobs=jobs)
    y = (x[:, 0] > 0).astype(float) + (x[:, 1] > 0.5)
    honest = replace(params, honest=True)
    return fit_supervised(table, (Column("y", ("p", "q", "r")), y), honest, jobs=jobs)


_MODES = ["completely_random", "regression", "honest_classification", "unsupervised"]


def _serialized(forest: Forest) -> str:
    return json.dumps(forest_to_dict(forest), sort_keys=True)


@pytest.mark.parametrize("mode", _MODES)
def test_fit_deterministic_serialization(mode):
    table = make_mixed(80, seed=5)
    params = ForestParams(n_trees=12, min_leaf=2, bootstrap=True, seed=21)
    a = _fit_mode(mode, table, params)
    assert _serialized(a) == _serialized(_fit_mode(mode, table, params))
    # parallel fitting must not change the result
    assert _serialized(a) == _serialized(_fit_mode(mode, table, params, jobs=2))


# sha256 of the serialized forests that test_fit_deterministic_serialization
# fits. Growth changes that only make fitting faster leave them as they are;
# a new split rule, draw order or bundle forest layout moves them.
_PINNED = {
    "completely_random": "3b8f0d0f219d684f227ea66e88920c58e3dadfa0e30b4e0d7ce5b78d14b2e6fa",
    "honest_classification": "95574935c0a4d7d2f3bec4a41b88b5571bceaf705ebd4fe7890f905ce6846c3e",
    "unsupervised": "d867bf5e24e098e7f2e122e517e704f4746c7a4f1c45e051db2d2619fe1374f9",
}


@pytest.mark.parametrize("mode", sorted(_PINNED))
def test_fit_matches_pinned_digest(mode):
    table = make_mixed(80, seed=5)
    params = ForestParams(n_trees=12, min_leaf=2, bootstrap=True, seed=21)
    digest = hashlib.sha256(_serialized(_fit_mode(mode, table, params)).encode()).hexdigest()
    assert digest == _PINNED[mode]


def _chunk_sizes(monkeypatch) -> list:
    """Trees per grown chunk, appended as chunks are made."""
    import forestae.forest as forest_module

    sizes = []

    class Chunk(forest_module._Chunk):
        def __init__(self, data, params, seeds, cr):
            sizes.append(len(seeds))
            super().__init__(data, params, seeds, cr)

    monkeypatch.setattr(forest_module, "_Chunk", Chunk)
    return sizes


@pytest.mark.parametrize("mode", _MODES)
def test_chunk_size_does_not_change_forest(mode, monkeypatch):
    import forestae.forest as forest_module

    table = make_mixed(60, seed=22)
    params = ForestParams(n_trees=8, min_leaf=2, bootstrap=True, seed=23)
    whole = _serialized(_fit_mode(mode, table, params))
    # _CHUNK_SLOTS counts a tree's expected distinct split rows: 38 of a
    # 60-row bag, 24 of an honest tree's 30 split draws, 76 on the
    # unsupervised 120-row stack
    grown = replace(params, honest=mode == "honest_classification")
    per_tree = forest_module._split_slots(grown, 2 * table.n if mode == "unsupervised" else table.n)
    scale = forest_module._CR_CHUNK_SCALE if mode == "completely_random" else 1
    sizes = _chunk_sizes(monkeypatch)
    for per in (1, 2, 4):  # trees per chunk
        monkeypatch.setattr(forest_module, "_CHUNK_SLOTS", -(-per * per_tree // scale))
        sizes.clear()
        assert _serialized(_fit_mode(mode, table, params)) == whole
        assert set(sizes) == {per}


# Digests recorded before growth weighed each distinct bag row by its draw
# count instead of growing on its copies: a continuous-only unsupervised
# bootstrap forest of the banknote fold's shape (min_leaf 4, trees reaching
# depth 10), where a third of each bag's draws are copies, and a subsampled
# classification forest on tied (rounded) values, where every row weighs 1.
_SHAPE_PINNED = {
    "deep_unsupervised": "bdc961d9d91beab7b2a595d7bdbeecfe31253bbbf1266529155740275b8508ed",
    "subsampled_classification": "c769548e917e099e7fcde26884fb1c9f09746db4db1c8b8b0f65ef9adf033c06",
}


@pytest.mark.parametrize("shape", sorted(_SHAPE_PINNED))
def test_fit_matches_pinned_digest_of_other_shapes(shape):
    if shape == "deep_unsupervised":
        table, _ = make_blobs(200, 4, seed=41)
        params = ForestParams(n_trees=12, max_depth=10, min_leaf=4, bootstrap=True, seed=43)
        forest = fit_unsupervised(table, params)
    else:
        mixed = make_mixed(120, seed=45)
        x = np.round(mixed.values, 1)
        y = (x[:, 0] > 0).astype(float) + (x[:, 1] > 0.5)
        params = ForestParams(n_trees=12, min_leaf=2, subsample_fraction=0.7, seed=47)
        forest = fit_supervised(Table(mixed.schema, x), (Column("y", ("p", "q", "r")), y), params)
    digest = hashlib.sha256(_serialized(forest).encode()).hexdigest()
    assert digest == _SHAPE_PINNED[shape]


# Completely random forests whose floors (min_leaf a tenth of n) make most
# draws fail, so nodes redraw for many rounds; digests recorded before the
# redraw loop was batched across trees.
_REDRAW_PINNED = {
    False: "165f7dbff2c2f9ab1bec3bd9fe4089db3de4078d326edfe122a4f743a38a667c",
    True: "56636e07c8f8200a3ba14a37f63df3dc107739999b6e8cbe51719d2080a8d2d9",
}


@pytest.mark.parametrize("honest", [False, True], ids=["plain", "honest"])
def test_redraw_heavy_completely_random_forest(honest, monkeypatch):
    import forestae.forest as forest_module

    table = make_mixed(300, seed=31)
    params = ForestParams(n_trees=12, min_leaf=30, bootstrap=True, honest=honest, seed=37)
    whole = _serialized(fit_completely_random(table, params))
    assert hashlib.sha256(whole.encode()).hexdigest() == _REDRAW_PINNED[honest]
    assert _serialized(fit_completely_random(table, params, jobs=2)) == whole
    sizes = _chunk_sizes(monkeypatch)
    per_tree = forest_module._split_slots(params, table.n)  # expected distinct split rows
    for per in (1, 2, 12):  # trees per chunk: one, two, all
        slots = -(-per * per_tree // forest_module._CR_CHUNK_SCALE)
        monkeypatch.setattr(forest_module, "_CHUNK_SLOTS", slots)
        sizes.clear()
        assert _serialized(fit_completely_random(table, params)) == whole
        assert sizes == [per] * (12 // per)


def _node_samples(tree: Tree, values: np.ndarray, rows: np.ndarray):
    """Rows (with repeats) reaching each node, and each node's depth; node
    order must be breadth-first, so parents come before children."""
    reach = [np.asarray(rows)] + [None] * (tree.n_nodes - 1)
    depth = np.zeros(tree.n_nodes, dtype=int)
    lefts, rights = tree.left, tree.right
    for node in range(tree.n_nodes):
        left, right = lefts[node], rights[node]
        if left < 0:
            continue
        assert node < left < right
        x = values[reach[node], tree.feature[node]]
        go = x == tree.threshold[node] if tree.is_equal[node] else x < tree.threshold[node]
        reach[left], reach[right] = reach[node][go], reach[node][~go]
        depth[left] = depth[right] = depth[node] + 1
    return reach, depth


def _impurity(y: np.ndarray, classification: bool) -> float:
    """Gini times size, or the sum of squared deviations."""
    if classification:
        counts = np.bincount(y.astype(int))
        return y.size - float((counts * counts).sum()) / y.size
    return float(((y - y.mean()) ** 2).sum())


def _all_split_costs(table, y, rows, lab, min_child, honest, classification) -> dict:
    """Brute force: the cost of every valid split of a node's sample, keyed
    by (feature, threshold or level, is_equal)."""
    x = table.values
    costs = {}
    for j, col in enumerate(table.schema.columns):
        v = x[rows, j]
        if col.is_categorical:
            splits = [(float(level), True) for level in range(len(col.levels))]
        else:
            u = np.unique(v)
            splits = [(0.5 * (a + b), False) for a, b in zip(u[:-1], u[1:])]
        for cut, eq in splits:
            left = v == cut if eq else v < cut
            if min(left.sum(), (~left).sum()) < min_child:
                continue
            if honest:
                lab_left = int((x[lab, j] == cut if eq else x[lab, j] < cut).sum())
                if not 1 <= lab_left <= lab.size - 1:
                    continue
            ys = y[rows]
            costs[j, cut, eq] = _impurity(ys[left], classification) + _impurity(
                ys[~left], classification
            )
    return costs


@pytest.mark.parametrize("classification", [True, False], ids=["classification", "regression"])
@pytest.mark.parametrize(
    ("honest", "mtry"), [(False, 3), (True, 3), (False, 1), (True, 1)],
    ids=["plain", "honest", "plain-mtry1", "honest-mtry1"],
)
def test_splits_match_brute_force(classification, honest, mtry):
    """Every split is a lowest-cost valid split of its node's sample
    (midpoint cuts and categorical levels): over all columns with mtry = d,
    and over its own column's splits with mtry = 1, where sibling nodes score
    different columns. With mtry = d every leaf either hit a stop rule or had
    no valid split."""
    n = 80
    table = make_mixed(n, seed=31)  # columns a, b continuous, c categorical
    x = table.values
    if classification:
        col, y = Column("y", ("p", "q", "r")), (x[:, 0] > 0).astype(float) + (x[:, 1] > 0.5)
    else:
        col, y = Column("y"), x[:, 0] + 0.5 * x[:, 1] + np.random.default_rng(32).normal(0, 0.3, n)
    params = ForestParams(
        n_trees=4, mtry=mtry, min_leaf=2, min_node_fraction=0.05, max_depth=6,
        bootstrap=True, honest=honest, seed=33,
    )
    forest = fit_supervised(table, (col, y), params)
    every_column = mtry == x.shape[1]
    children = np.random.SeedSequence(params.seed).spawn(params.n_trees)
    for b, tree in enumerate(forest.trees):
        rng = np.random.default_rng(children[b])
        bag = rng.choice(n, size=n, replace=True)
        if honest:
            perm = rng.permutation(bag)
            split_rows, label_rows = perm[: n // 2], perm[n // 2 :]
        else:
            split_rows = label_rows = bag
        reach, depth = _node_samples(tree, x, split_rows)
        lab_reach, _ = _node_samples(tree, x, label_rows)
        for node in range(tree.n_nodes):
            rows, lab = reach[node], lab_reach[node]
            m = rows.size
            min_child = max(params.min_leaf, math.ceil(params.min_node_fraction * m))
            costs = _all_split_costs(table, y, rows, lab, min_child, honest, classification)
            if tree.feature[node] >= 0:
                chosen = (int(tree.feature[node]), float(tree.threshold[node]), bool(tree.is_equal[node]))
                assert chosen in costs
                rivals = [c for key, c in costs.items() if every_column or key[0] == chosen[0]]
                assert costs[chosen] == pytest.approx(min(rivals), rel=1e-9, abs=1e-9)
            elif every_column:
                stopped = (
                    depth[node] >= params.max_depth
                    or m < max(2, 2 * min_child)
                    or (honest and lab.size < 2)
                    or np.unique(y[rows]).size == 1
                )
                assert stopped or not costs


def test_regression_ties_go_to_the_lowest_column(tmp_path):
    """Two columns that cut a node into the same two halves tie in exact
    arithmetic, though each sums the labels in its own order; the lower column
    must win. Banknote ``variance`` on the other columns, every column a
    candidate at every node (seed-0 bootstrap fold's unique rows)."""
    import subprocess
    import sys
    from pathlib import Path

    from forestae.data import bootstrap_split, load_csv

    data = tmp_path / "banknote.csv"
    scripts = Path(__file__).resolve().parent.parent / "scripts"
    subprocess.run([sys.executable, str(scripts / "make_banknote_analog.py"), str(data),
                    "--seed", "0"], check=True, capture_output=True)
    full = load_csv(data)
    table = full.take(np.unique(bootstrap_split(full.n, 0).train))
    x = table.drop("variance")
    forest = fit_supervised(x, table.column("variance"),
                            ForestParams(n_trees=10, mtry=4, min_leaf=2, seed=0))
    v, n_levels = x.values, x.schema.n_levels
    ties = 0
    for tree in forest.trees:
        reach, _ = _node_samples(tree, v, np.arange(x.n))
        for node in np.flatnonzero(tree.feature >= 0):
            rows, j = reach[node], tree.feature[node]
            go = v[rows, j] == tree.threshold[node] if tree.is_equal[node] else (
                v[rows, j] < tree.threshold[node])
            for lower in range(j):  # does a split of a lower column give these halves?
                a, b = v[rows[go], lower], v[rows[~go], lower]
                if n_levels[lower]:
                    same = any(np.all(p == p[0]) and not np.any(q == p[0])
                               for p, q in ((a, b), (b, a)))
                else:
                    same = a.max() < b.min() or b.max() < a.min()
                ties += same
    assert ties == 0


def test_resample_within_leaves_takes_cells_from_one_leaf(monkeypatch):
    import forestae.forest as forest_module

    table = make_mixed(60, seed=24)
    seen = []
    resample = forest_module._resample_within_leaves

    def spy(forest, values, rng):
        out = resample(forest, values, rng)
        seen.append((forest, out))
        return out

    monkeypatch.setattr(forest_module, "_resample_within_leaves", spy)
    fit_unsupervised(table, ForestParams(n_trees=1, min_leaf=4, seed=25), rounds=2)
    ((forest, out),) = seen
    leaves = route_values(forest, table.values)[:, 0]
    for row in out:
        assert any(
            all(np.any(table.values[leaves == leaf, j] == row[j]) for j in range(row.size))
            for leaf in np.unique(leaves)
        )


def test_forest_json_round_trip():
    table = make_mixed(60, seed=6)
    f = fit_unsupervised(table, ForestParams(n_trees=5, min_leaf=3, seed=2))
    back = forest_from_dict(json.loads(json.dumps(forest_to_dict(f))))
    assert _serialized(back) == _serialized(f)
    ids_a, _ = route_table(f, table)
    ids_b, _ = route_table(back, table)
    assert np.array_equal(ids_a, ids_b)


def test_leaf_diameter_shrinks_with_depth():
    rng = np.random.default_rng(7)
    table = Table(Schema((Column("a"), Column("b"))), rng.random((800, 2)))

    def mean_diameter(depth: int) -> float:
        f = fit_completely_random(
            table, ForestParams(n_trees=100, max_depth=depth, min_leaf=5, seed=11)
        )
        total, count = 0.0, 0
        for b in range(f.n_trees):
            box = forest_module._leaf_cells(f, b, b + 1)
            lo, hi = box.lo, box.hi
            total += float(np.linalg.norm(hi - lo, axis=1).sum())
            count += lo.shape[0]
        return total / count

    assert mean_diameter(8) < mean_diameter(4)


def test_route_examples(t2x4):
    forest, table, _ = t2x4
    assert route(forest, [0.2, 0.9]).tolist() == [0, 1]  # A, D
    # boundary routes right under strict less-than
    assert route(forest, [0.5, 0.5]).tolist() == [1, 1]
    ids, unseen = route_table(forest, table)
    assert unseen == 0
    for b, tree in enumerate(forest.trees):
        counts = np.bincount(ids[:, b], minlength=tree.n_leaves)
        assert np.array_equal(counts, tree.leaf_count)


def test_route_counts_identity_after_fit(monkeypatch):
    """Without subsampling, bootstrap or honesty each tree counts every
    training row once, so on every growth path the stored leaf counts are the
    counts of routing the training rows through the derived layout."""
    import forestae.forest as forest_module

    table = make_mixed(100, seed=8)
    x = table.values
    params = ForestParams(n_trees=10, min_leaf=4, seed=3)
    grow, trained = forest_module._fit, []  # the table each forest learned from
    monkeypatch.setattr(
        forest_module, "_fit", lambda t, *args, **kw: trained.append(t) or grow(t, *args, **kw)
    )
    forests = [
        fit_supervised(table, (Column("y"), x[:, 0] + x[:, 1]), params),
        fit_supervised(table, (Column("y", ("p", "q")), (x[:, 0] > 0).astype(float)), params),
        fit_unsupervised(table, params, rounds=2),  # the last fit is on real + resampled rows
        fit_completely_random(table, params),
    ]
    for f, rows in zip(forests, [trained[0], trained[1], trained[3], trained[4]]):
        ids, _ = route_table(f, rows)
        for b, tree in enumerate(f.trees):
            counts = np.bincount(ids[:, b], minlength=tree.n_leaves)
            assert np.array_equal(counts, tree.leaf_count)


@pytest.mark.parametrize("honest", [False, True], ids=["bootstrap", "honest"])
def test_route_counts_identity_with_copies(honest):
    """A bootstrap bag holds copies, and an honest tree counts only its label
    half: each leaf counts the tree's distinct counted rows that route to it."""
    table = make_mixed(100, seed=8)
    x = table.values
    params = ForestParams(n_trees=10, min_leaf=2, bootstrap=True, honest=honest, seed=3)
    f = fit_supervised(table, (Column("y", ("p", "q")), (x[:, 0] > 0).astype(float)), params)
    ids = route_values(f, x)
    for b, tree in enumerate(f.trees):
        rows = np.unique(_tree_bag(params, table.n, b, label_half=honest))
        assert np.array_equal(np.bincount(ids[rows, b], minlength=tree.n_leaves), tree.leaf_count)


def test_stacked_routing_matches_per_tree_walk(monkeypatch):
    import forestae.forest as forest_module

    table = make_mixed(90, seed=26)
    queries = make_mixed(41, seed=27).values
    # edge cells: NaN and both infinities in each continuous column, and an
    # unseen level (-1) in the categorical one, alone and all in one row
    edge = queries[:7].copy()
    for i, (j, v) in enumerate([(0, np.nan), (0, np.inf), (0, -np.inf), (1, np.nan),
                                (1, np.inf), (1, -np.inf), (2, -1.0)]):
        edge[i, j] = v
    queries = np.vstack([queries, edge, [[np.nan, np.inf, -1.0]]])
    assert queries.shape[0] % 3  # the last block of 3 rows is partial
    for f in (
        fit_completely_random(table, ForestParams(n_trees=7, min_leaf=2, seed=16)),
        fit_unsupervised(table, ForestParams(n_trees=5, min_leaf=3, seed=17)),
        fit_completely_random(table, ForestParams(n_trees=1, min_leaf=2, seed=18)),
        fit_completely_random(table, ForestParams(n_trees=3, max_depth=0, seed=19)),
    ):
        expected = np.empty((queries.shape[0], f.n_trees), dtype=int)
        for b, tree in enumerate(f.trees):
            left, right, leaf_id = tree.left, tree.right, tree.leaf_id
            for i, x in enumerate(queries):
                node = 0
                while left[node] >= 0:
                    v, thr = x[tree.feature[node]], tree.threshold[node]
                    go_left = v == thr if tree.is_equal[node] else v < thr
                    node = left[node] if go_left else right[node]
                expected[i, b] = leaf_id[node]
        for cells in (None, 3 * f.n_trees, 1):  # one block; blocks of 3 rows; of one row
            if cells is not None:
                monkeypatch.setattr(forest_module, "_ROUTE_CELLS", cells)
            assert np.array_equal(route_values(f, queries), expected)
            assert np.array_equal(route_values(f, queries[-1:]), expected[-1:])
            monkeypatch.undo()
    assert f.trees[0].n_leaves == 1  # the last forest's trees are single leaves


def test_unseen_level_routes_not_equal():
    table = make_mixed(50, seed=9)
    f = fit_completely_random(table, ForestParams(n_trees=5, min_leaf=3, seed=4))
    bigger = Schema(
        (Column("a"), Column("b"), Column("c", ("low", "high", "odd", "brand-new")))
    )
    q = Table(bigger, np.array([[0.0, 0.0, 3.0]]))
    ids, unseen = route_table(f, q)
    assert unseen == 1
    assert ids.shape == (1, f.n_trees)


def test_leaf_region_root_is_full_box(t2x4):
    forest, table, _ = t2x4
    single = forest_of(
        [forest.trees[0]],
        schema=forest.schema,
        feature_ranges=forest.feature_ranges,
        params=forest.params,
        kind="none",
    )
    assert np.array_equal(single.box.lo, [0.25, 0.25])
    assert np.array_equal(single.box.hi, [0.75, 0.75])
    # x0 < 0.5 is strict, so the closed cell ends one float below the cut
    reg = leaf_region(single, 0, 0)
    assert reg.lo[0] == 0.25 and reg.hi[0] == np.nextafter(0.5, -np.inf)
    assert reg.lo[1] == 0.25 and reg.hi[1] == 0.75


@pytest.mark.parametrize("b, leaf", [(-1, 0), (2, 0), (0, -1), (0, 2)])
def test_leaf_region_rejects_a_missing_tree_or_leaf(t2x4, b, leaf):
    forest, _, _ = t2x4  # two trees of two leaves
    with pytest.raises(ForestError, match=f"no leaf {leaf} in tree {b}"):
        leaf_region(forest, b, leaf)


def test_region_interval_intersection(t2x4):
    forest, _, _ = t2x4
    a = leaf_region(forest, 0, 0)  # x0 in [0.25, 0.5)
    b = leaf_region(forest, 1, 1)  # x1 in [0.5, 0.75]
    both = region_intersect([a, b])
    assert not both.is_empty()
    assert both.lo[0] == 0.25 and both.hi[0] == np.nextafter(0.5, -np.inf)
    assert both.lo[1] == 0.5 and both.hi[1] == 0.75
    # disjoint intervals collapse
    disjoint = region_intersect([leaf_region(forest, 0, 0), leaf_region(forest, 0, 1)])
    assert disjoint.is_empty()


def test_training_rows_inside_own_regions():
    table = make_mixed(80, seed=10)
    f = fit_completely_random(table, ForestParams(n_trees=8, min_leaf=2, seed=5))
    ids, _ = route_table(f, table)
    for i in range(table.n):
        regions = [leaf_region(f, b, int(ids[i, b])) for b in range(f.n_trees)]
        inter = region_intersect(regions)
        assert inter.contains(table.values[i])


def test_region_sample_degenerate_and_uniform():
    schema = Schema((Column("x"),))
    from forestae.forest import Region

    point = Region(schema, np.array([2.0]), np.array([2.0]), {})
    assert point.sample(0)[0] == 2.0
    box = Region(schema, np.array([0.0]), np.array([1.0]), {})
    rng = np.random.default_rng(12)
    draws = np.array([box.sample(rng)[0] for _ in range(10_000)])
    ks = scipy.stats.kstest(draws, "uniform").statistic
    assert ks < 0.02


def test_region_sample_routes_back():
    table = make_mixed(60, seed=13)
    f = fit_completely_random(table, ForestParams(n_trees=6, min_leaf=2, seed=6))
    ids, _ = route_table(f, table)
    box = assigned_region(f, ids)
    assert not box.is_empty().any()
    rng = np.random.default_rng(0)
    for _ in range(5):
        draws = box.sample(rng)
        redo = route_values(f, draws)
        assert np.array_equal(redo, ids)


@pytest.mark.parametrize("block_nodes", [1, 60, 10**9], ids=["per-tree", "blocks", "one"])
def test_assigned_region_over_tree_blocks_matches_per_tree_cells(monkeypatch, block_nodes):
    # cells built a block of trees at a time meet to exactly the per-tree
    # cells' intersection, Equals masks and empty cells included
    table = make_mixed(80, seed=21)
    f = fit_unsupervised(table, ForestParams(n_trees=9, min_leaf=2, seed=16))
    assert any(t.is_equal.any() for t in f.trees)
    rng = np.random.default_rng(5)
    drawn = np.column_stack([rng.integers(0, t.n_leaves, 40) for t in f.trees])
    ids = np.vstack([route_table(f, table)[0], drawn])
    want = region_intersect(forest_module._leaf_cells(f, b, b + 1)[ids[:, b]]
                            for b in range(f.n_trees))
    monkeypatch.setattr(forest_module, "_CELL_NODES", block_nodes)
    got = assigned_region(f, ids)
    assert np.array_equal(got.lo, want.lo) and np.array_equal(got.hi, want.hi)
    assert got.masks.keys() == want.masks.keys()
    assert all(np.array_equal(got.masks[j], m) for j, m in want.masks.items())
    assert got.is_empty()[:80].sum() == 0 and got.is_empty()[80:].any()


def test_predict_leaf_mean():
    table = Table(Schema((Column("x"),)), np.array([[0.0], [1.0]]))
    y = np.array([2.0, 4.0])
    f = fit_supervised(table, (Column("y"), y), ForestParams(n_trees=1, max_depth=0, seed=0))
    assert predict(f, [0.5]) == pytest.approx(3.0)


def test_predict_constant_labels():
    table, _ = make_blobs(30, 2, seed=3)
    y = np.full(30, 7.5)
    f = fit_supervised(table, (Column("y"), y), ForestParams(n_trees=5, seed=1))
    assert all(t.n_leaves == 1 for t in f.trees)
    assert predict(f, table.values[4]) == pytest.approx(7.5)


def test_gamma_balance_holds():
    table, labels = make_blobs(120, 3, seed=14)
    params = ForestParams(n_trees=6, min_node_fraction=0.3, seed=7)
    f = fit_supervised(table, (Column("y"), labels), params)
    for tree in f.trees:
        # without subsampling or bootstrap every tree learns from all rows
        reach, _ = _node_samples(tree, table.values, np.arange(table.n))
        lefts = tree.left
        for idx in np.flatnonzero(lefts >= 0):
            l, r = lefts[idx], lefts[idx] + 1
            need = math.ceil(0.3 * reach[idx].size)
            assert reach[l].size >= need and reach[r].size >= need


def test_leaf_regions_partition_by_grid_probe():
    table, _ = make_blobs(100, 2, seed=15)
    f = fit_completely_random(
        table, ForestParams(n_trees=4, max_depth=6, min_leaf=2, seed=8)
    )
    g = np.linspace(f.feature_ranges[0, 0], f.feature_ranges[0, 1], 17)
    h = np.linspace(f.feature_ranges[1, 0], f.feature_ranges[1, 1], 17)
    grid = np.array([[a, b] for a in g for b in h])
    for b in range(f.n_trees):
        hits = np.zeros(grid.shape[0], dtype=int)
        for leaf in range(f.trees[b].n_leaves):
            reg = leaf_region(f, b, leaf)
            hits += np.array([reg.contains(x) for x in grid], dtype=int)
        assert np.all(hits == 1)


def test_honest_counts_come_from_label_half():
    table, labels = make_blobs(100, 2, seed=16)
    params = ForestParams(n_trees=4, honest=True, seed=9)
    f = fit_supervised(table, (Column("y"), labels), params)
    for tree in f.trees:
        assert tree.leaf_count.min() >= 1
        assert tree.leaf_count.sum() == 50  # labeling half of the full sample


def test_unsupervised_round_one_matches_supervised_on_stack():
    from forestae.data import marginal_synthesize

    table = make_mixed(60, seed=17)
    params = ForestParams(n_trees=4, min_leaf=3, seed=12)
    uf = fit_unsupervised(table, params, rounds=1)
    synth = marginal_synthesize(table, params.seed)
    stacked = Table(table.schema, np.vstack([table.values, synth.values]))
    y = np.concatenate([np.ones(60), np.zeros(60)])
    sup = fit_supervised(stacked, (Column("__real__", ("synthetic", "real")), y), params)
    assert _serialized(uf) == _serialized(sup)


def _discriminator_oob_accuracy(forest: Forest, params: ForestParams, table: Table) -> float:
    """Out-of-bag accuracy of the real-vs-synthetic discriminator on its own
    stacked training rows (real rows labeled 1, marginal resample labeled 0)."""
    from forestae.data import marginal_synthesize

    synth = marginal_synthesize(table, params.seed)
    stack = np.vstack([table.values, synth.values])
    truth = np.concatenate([np.ones(table.n), np.zeros(table.n)])
    n2 = stack.shape[0]
    votes = np.zeros((n2, 2))
    ids = route_values(forest, stack)
    for b, tree in enumerate(forest.trees):
        bag = np.zeros(n2, dtype=bool)
        bag[_tree_bag(params, n2, b)] = True
        stat = tree.leaf_stat[ids[~bag, b]]
        votes[~bag] += stat / stat.sum(axis=1, keepdims=True)
    covered = votes.sum(axis=1) > 0
    return float(np.mean(np.argmax(votes[covered], axis=1) == truth[covered]))


def test_unsupervised_separates_blobs():
    table, _ = make_blobs(200, 3, seed=18)
    params = ForestParams(n_trees=30, bootstrap=True, min_leaf=3, seed=13)
    f = fit_unsupervised(table, params)
    assert _discriminator_oob_accuracy(f, params, table) > 0.6


def test_unsupervised_null_data_near_chance():
    # independent columns leave nothing to discriminate: held-out accuracy ~ 0.5
    from forestae.data import marginal_synthesize

    accs = []
    for s in range(20):
        rng = np.random.default_rng(s)
        schema = Schema((Column("a"), Column("b")))
        train = Table(schema, rng.normal(size=(150, 2)))
        test = Table(schema, rng.normal(size=(150, 2)))
        params = ForestParams(n_trees=20, bootstrap=True, seed=s)
        f = fit_unsupervised(train, params)
        stack = np.vstack([test.values, marginal_synthesize(test, seed=1000 + s).values])
        truth = np.concatenate([np.ones(150), np.zeros(150)])
        prob = predict(f, stack)
        accs.append(np.mean(np.argmax(prob, axis=1) == truth))
    assert abs(float(np.mean(accs)) - 0.5) < 0.05


def test_one_hot_routing_property():
    table = make_mixed(40, seed=19)
    f = fit_completely_random(table, ForestParams(n_trees=7, seed=14))
    ids, _ = route_table(f, table)
    assert ids.shape == (40, 7)
    for b, tree in enumerate(f.trees):
        assert np.all((0 <= ids[:, b]) & (ids[:, b] < tree.n_leaves))


def test_params_validation():
    with pytest.raises(ForestError):
        ForestParams(min_node_fraction=0.6)
    with pytest.raises(ForestError):
        ForestParams(subsample_fraction=0.0)
    with pytest.raises(ForestError):
        ForestParams(n_trees=0)
    for mtry in (0, -1):
        with pytest.raises(ForestError, match="mtry"):
            ForestParams(mtry=mtry)


def test_contradictory_categorical_path_asserts():
    # a path taking "c == a" and later "c == a" again on the not-equal side
    # cannot arise from fitting; the region builder refuses it outright
    schema = Schema((Column("c", ("a", "b")),))
    tree = Tree(
        feature=np.array([0, -1, 0, -1, -1], dtype=np.int32),
        threshold=np.array([0.0, 0.0, 0.0, 0.0, 0.0]),
        is_equal=np.array([True, False, True, False, False]),
        leaf_count=np.array([2, 1, 1], dtype=np.int64),
        leaf_stat=np.zeros(3),
    )
    forest = forest_of(
        [tree],
        schema=schema,
        feature_ranges=np.array([[np.nan, np.nan]]),
        params=ForestParams(n_trees=1, seed=0),
        kind="none",
    )
    with pytest.raises(AssertionError, match="contradictory"):
        leaf_region(forest, 0, 1)


def _leaves_under(tree: Tree, node: int) -> list[int]:
    left, leaf_id, stack, out = tree.left, tree.leaf_id, [node], []
    while stack:
        k = stack.pop()
        if left[k] < 0:
            out.append(int(leaf_id[k]))
        else:
            stack += [left[k], left[k] + 1]
    return out


@pytest.mark.parametrize("fit", [fit_unsupervised, fit_completely_random])
def test_cells_and_routing_agree_at_every_cut(fit):
    # each continuous split's cut lies in, and routes to, exactly one leaf, and
    # that leaf is under the right child; the float below the cut, under the left
    table = make_mixed(60, seed=20)
    f = fit(table, ForestParams(n_trees=3, min_leaf=2, seed=15))
    cat = [j for j, c in enumerate(f.schema.columns) if c.is_categorical]
    checked = 0
    for b, tree in enumerate(f.trees):
        cells = [leaf_region(f, b, leaf) for leaf in range(tree.n_leaves)]
        for k in np.flatnonzero((tree.feature >= 0) & ~tree.is_equal):
            j, cut, left = tree.feature[k], tree.threshold[k], tree.left[k]
            for child, at in ((left + 1, cut), (left, np.nextafter(cut, -np.inf))):
                under = _leaves_under(tree, child)
                # a point on the cut: the lower corner of a leaf cell under the
                # child that spans it, moved onto it
                spans = [c for c in (cells[leaf] for leaf in under) if c.lo[j] <= at <= c.hi[j]]
                assert spans, (b, k)
                x = spans[0].lo.copy()
                x[j] = at
                for jc in cat:
                    x[jc] = np.argmax(spans[0].masks[jc])
                hits = [leaf for leaf, c in enumerate(cells) if c.contains(x)]
                assert hits == [route(f, x)[b]] and hits[0] in under, (b, k)
                checked += 1
    assert checked >= 20
