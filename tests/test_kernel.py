import numpy as np
import pytest

from forestae.data import Column, Schema, Table
from forestae.forest import ForestParams, fit_completely_random, fit_supervised, predict, route
from forestae.kernel import (
    KernelError,
    feature_map,
    leaf_size_vector,
    mmd_squared,
    rf_kernel_cross,
    rf_kernel_train,
    scornet_kernel,
)
from conftest import forest_of, make_blobs, make_mixed, _stump
from forestae.forest import Tree


def test_leaf_size_vector_examples(t2x4):
    forest, _, _ = t2x4
    assert np.allclose(leaf_size_vector(forest), [0.5, 0.5, 0.5, 0.5])
    single = Tree(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.array([0.0]),
        is_equal=np.array([False]),
        leaf_count=np.array([10], dtype=np.int64),
        leaf_stat=np.zeros(1),
    )
    lone = forest_of(
        [single],
        schema=Schema((Column("x"),)),
        feature_ranges=np.array([[0.0, 1.0]]),
        params=ForestParams(n_trees=1),
        kind="none",
    )
    assert np.allclose(leaf_size_vector(lone), [0.1])


def test_leaf_counts_partition_sample():
    table = make_mixed(90, seed=1)
    f = fit_completely_random(table, ForestParams(n_trees=6, min_leaf=3, seed=2))
    for tree in f.trees:
        assert tree.leaf_count.sum() == 90


def test_feature_map_fixture_values(t2x4):
    forest, table, _ = t2x4
    phi1 = feature_map(forest, table.values[0])
    assert np.allclose(phi1.values, [1 / np.sqrt(2)] * 2)
    assert phi1.indices.tolist() == [0, 2]  # leaf A, leaf C globally
    phi2 = feature_map(forest, table.values[1])
    assert (phi1.dot(phi2) / forest.n_trees) == pytest.approx(0.25)
    phi4 = feature_map(forest, table.values[3])
    assert phi1.dot(phi4) == 0.0


def test_kernel_train_fixture_exact(t2x4):
    forest, table, K_expected = t2x4
    K = rf_kernel_train(forest, table)
    assert np.abs(K.toarray() - K_expected).max() <= 1e-12


def test_kernel_rows_and_columns_stochastic():
    table = make_mixed(120, seed=3)
    f = fit_completely_random(table, ForestParams(n_trees=25, min_leaf=2, seed=4))
    K = rf_kernel_train(f, table)
    assert np.abs(K.row_sums() - 1).max() <= 1e-10
    assert np.abs(np.asarray(K.matrix.sum(axis=0)).ravel() - 1).max() <= 1e-10


def test_single_leaf_forest_uniform_kernel():
    table = make_mixed(4, seed=5)
    f = fit_completely_random(table, ForestParams(n_trees=3, max_depth=0, seed=5))
    K = rf_kernel_train(f, table)
    assert np.allclose(K.toarray(), 0.25)


def test_cross_kernel_matches_train_rows(t2x4):
    forest, table, K_expected = t2x4
    K0 = rf_kernel_cross(forest, table, table)
    assert np.abs(K0.toarray() - K_expected).max() <= 1e-12
    assert np.abs(K0.row_sums() - 1).max() <= 1e-10


def test_cross_kernel_mixed_leaves(t2x4):
    forest, table, _ = t2x4
    # query in leaf A of tree 0 and leaf D of tree 1
    q = Table(table.schema, np.array([[0.3, 0.9]]))
    K0 = rf_kernel_cross(forest, q, table)
    assert np.allclose(K0.toarray(), [[0.25, 0.5, 0.0, 0.25]])


def test_cross_kernel_empty_leaf_strictness(t2x4):
    forest, table, _ = t2x4
    # reference covering only leaf A / leaf C leaves the others unpopulated
    ref = Table(table.schema, table.values[:1])
    q = Table(table.schema, np.array([[0.7, 0.7]]))
    with pytest.raises(KernelError):
        rf_kernel_cross(forest, q, ref)
    # renormalized mode keeps rows on the simplex when some tree contributes
    q2 = Table(table.schema, np.array([[0.3, 0.9]]))
    K0 = rf_kernel_cross(forest, q2, ref, strict=False)
    assert K0.skipped_leaf_cells == 1
    assert K0.row_sums()[0] == pytest.approx(1.0)


def test_factored_dot_matches_matrix():
    table = make_mixed(120, seed=4)
    f = fit_completely_random(table, ForestParams(n_trees=8, min_leaf=2, seed=4))
    ref = table.take(np.arange(90))  # leaves only the other rows reach are empty
    X = np.random.default_rng(4).normal(size=(table.n, 3))
    K = rf_kernel_train(f, table)
    strict = rf_kernel_cross(f, table.take(np.arange(30, 60)), table)
    loose = rf_kernel_cross(f, table, ref, strict=False)
    assert loose.skipped_leaf_cells > 0 and loose.scale is not None
    for kern in (K, strict, loose):
        Y = X[: kern.n_cols]
        assert np.abs(kern.dot(Y) - kern.matrix @ Y).max() <= 1e-12
        assert np.abs(kern.dot(Y[:, 0]) - kern.matrix @ Y[:, 0]).max() <= 1e-12
        assert np.abs(kern.row_sums() - 1).max() <= 1e-10


def test_factor_products_equal_csr_products_exactly():
    # the numpy factor products accumulate in SciPy's CSR/CSC order, so they
    # give the same bits as the CSR factors K.matrix is built from
    table = make_mixed(120, seed=5)
    f = fit_completely_random(table, ForestParams(n_trees=9, min_leaf=2, seed=5))
    ref = table.take(np.arange(90))
    rng = np.random.default_rng(5)
    K = rf_kernel_train(f, table)
    strict = rf_kernel_cross(f, table.take(np.arange(30, 60)), table)
    loose = rf_kernel_cross(f, table, ref, strict=False)
    assert loose.scale is not None
    for kern in (K, strict, loose):
        Fl, Fr = kern.left.tocsr(), kern.right.tocsr()
        for shape in ((kern.n_cols,), (kern.n_cols, 4)):
            X = rng.normal(size=shape)
            T = Fr.T @ X
            assert np.array_equal(kern.right.tdot(X), T)
            assert np.array_equal(kern.left.dot(T), Fl @ T)
            expected = Fl @ T / f.n_trees
            if kern.scale is not None:
                expected *= kern.scale.reshape((-1,) + (1,) * (len(shape) - 1))
            assert np.array_equal(kern.dot(X), expected)


@pytest.mark.parametrize("block_pairs", [None, 500])
def test_toarray_equals_csr_toarray_exactly(monkeypatch, block_pairs):
    # the numpy build sums in SciPy's CSR product order, scales by 1/B like
    # SciPy and then by the renormalisation; 500 pairs split the rows into blocks
    from forestae import kernel

    if block_pairs is not None:
        monkeypatch.setattr(kernel, "_JOIN_PAIRS", block_pairs)
    table = make_mixed(120, seed=5)
    f = fit_completely_random(table, ForestParams(n_trees=9, min_leaf=2, seed=5))
    K = rf_kernel_train(f, table)
    strict = rf_kernel_cross(f, table.take(np.arange(30, 60)), table)
    loose = rf_kernel_cross(f, table, table.take(np.arange(90)), strict=False)
    assert loose.scale is not None
    if block_pairs is not None:
        pairs = np.bincount(K.right.cols.ravel())[K.left.cols].sum(axis=1)
        assert pairs.sum() > 4 * block_pairs
    for kern in (K, strict, loose):
        dense = kern.toarray()
        assert dense.dtype == np.float64 and dense.shape == (kern.n_rows, kern.n_cols)
        assert dense.tobytes() == kern.matrix.toarray().tobytes()


@pytest.mark.parametrize("block_pairs", [1, 7, 2**20])
def test_leaf_join_sums_in_entry_order(monkeypatch, block_pairs):
    # S[i, r] = sum_j w[i, j] [r lies in leaf cols[i, j]], each sum taken in
    # entry order, whatever the blocks; 4 trees of 4 leaves, whose last leaf
    # holds no reference row
    from forestae import kernel

    monkeypatch.setattr(kernel, "_JOIN_PAIRS", block_pairs)
    rng = np.random.default_rng(8)
    reference = rng.integers(0, 3, (30, 4)) + 4 * np.arange(4)
    cols = rng.integers(0, 16, (9, 6))
    cols[0, 1] = cols[0, 0]  # a leaf listed twice
    cols[1, :] = 4 * np.arange(6) % 16 + 3  # only empty leaves
    weights = rng.random(cols.shape)
    weights[rng.random(cols.shape) < 0.3] = 0.0
    want = np.zeros((9, 30))
    for i in range(9):
        for r in range(30):
            for j in range(6):
                if reference[r, cols[i, j] // 4] == cols[i, j]:
                    want[i, r] += weights[i, j]
    got, done = np.full(want.shape, np.nan), 0
    for r0, r1, sums in kernel._leaf_join(cols, weights, reference):
        assert r0 == done < r1
        got[r0:r1], done = sums, r1
    assert done == 9 and got.tobytes() == want.tobytes()
    assert not list(kernel._leaf_join(cols[:0], weights[:0], reference))


def test_scornet_kernel_examples(t2x4):
    forest, table, _ = t2x4
    p = table.values
    assert scornet_kernel(forest, p[0], p[1]) == 0.5
    assert scornet_kernel(forest, p[0], p[0]) == 1.0
    assert scornet_kernel(forest, p[0], p[3]) == 0.0


def test_gram_identity_feature_map_vs_kernel():
    table = make_mixed(60, seed=6)
    f = fit_completely_random(table, ForestParams(n_trees=10, min_leaf=2, seed=7))
    K = rf_kernel_train(f, table).toarray()
    phis = [feature_map(f, row) for row in table.values]
    for i in range(table.n):
        for j in range(i, table.n):
            gram = phis[i].dot(phis[j]) / f.n_trees
            assert abs(gram - K[i, j]) <= 1e-12


def test_kernel_psd():
    for seed in range(3):
        table = make_mixed(80, seed=seed)
        f = fit_completely_random(table, ForestParams(n_trees=15, min_leaf=2, seed=seed))
        K = rf_kernel_train(f, table).toarray()
        assert np.linalg.eigvalsh(K).min() >= -1e-8


def test_same_support_as_scornet():
    table = make_mixed(50, seed=8)
    f = fit_completely_random(table, ForestParams(n_trees=8, min_leaf=2, seed=9))
    K = rf_kernel_train(f, table).toarray()
    from forestae.forest import route_table

    ids, _ = route_table(f, table)
    coloc = np.zeros((50, 50))
    for b in range(f.n_trees):
        coloc += ids[:, b][:, None] == ids[:, b][None, :]
    assert np.array_equal(K > 0, coloc > 0)


def test_prediction_identity_vs_kernel_row():
    # the normalized kernel reproduces the forest output exactly; the
    # unnormalized colocation rate does not
    table, labels = make_blobs(80, 3, seed=10)
    y = labels + 0.3 * table.values[:, 0]
    params = ForestParams(
        n_trees=12, min_leaf=3, subsample_fraction=1.0, honest=False, seed=11
    )
    f = fit_supervised(table, (Column("y"), y), params)
    rng = np.random.default_rng(1)
    queries = Table(table.schema, rng.normal(0, 2.5, size=(100, 3)))
    K0 = rf_kernel_cross(f, queries, table)
    via_kernel = K0.matrix @ y
    direct = predict(f, queries.values)
    assert np.abs(direct - via_kernel).max() <= 1e-10

    from forestae.forest import route_table

    qids, _ = route_table(f, queries)
    tids, _ = route_table(f, table)
    scornet_rows = np.zeros((100, 80))
    for b in range(f.n_trees):
        scornet_rows += qids[:, b][:, None] == tids[:, b][None, :]
    scornet_rows /= f.n_trees
    assert np.abs(direct - scornet_rows @ y).max() > 1e-3


def test_mmd_identical_samples_zero(t2x4):
    forest, table, _ = t2x4
    assert mmd_squared(table, table, forest, table) == 0.0
    one = Table(table.schema, table.values[:1])
    assert mmd_squared(one, one, forest, table) == 0.0


def test_mmd_separates_distributions():
    wins = 0
    for s in range(5):
        table, _ = make_blobs(200, 2, seed=s)
        f = fit_completely_random(table, ForestParams(n_trees=40, min_leaf=4, seed=s))
        rng = np.random.default_rng(100 + s)
        a1 = Table(table.schema, rng.normal(-2, 1, (80, 2)))
        a2 = Table(table.schema, rng.normal(-2, 1, (80, 2)))
        b1 = Table(table.schema, rng.normal(2, 1, (80, 2)))
        same = mmd_squared(a1, a2, f, table)
        diff = mmd_squared(a1, b1, f, table)
        wins += same < diff
    assert wins >= 4


def test_bootstrap_training_keeps_double_stochasticity():
    table = make_mixed(70, seed=12)
    f = fit_completely_random(
        table, ForestParams(n_trees=10, bootstrap=True, min_leaf=2, seed=13)
    )
    K = rf_kernel_train(f, table)
    assert np.abs(K.row_sums() - 1).max() <= 1e-10
    assert np.abs(np.asarray(K.matrix.sum(axis=0)).ravel() - 1).max() <= 1e-10
