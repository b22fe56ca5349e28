import itertools

import numpy as np
import pytest
import scipy.stats

from forestae.data import Column, Schema, Table
from forestae.decode import (
    DecodeError,
    _bvls,
    build_synthetic_training,
    exclusive_lasso,
    ilp_decode,
    _inverse_distance_weights,
    _knn_batch,
    knn_decode,
    lasso_decode,
    reference_leaf_assign,
    relabel_decode,
    relabel_forest,
    route_relabeled,
)
from forestae.forest import (
    ForestParams,
    Tree,
    assigned_region,
    breadth_first_layout,
    fit_completely_random,
    fit_unsupervised,
    leaf_region,
    route_table,
    route_values,
)
from forestae.kernel import rf_kernel_cross, rf_kernel_train
from forestae.spectral import eigendecompose, reconstruct_kernel, with_time
from conftest import forest_of, make_blobs, make_mixed, _stump
from oracles import (
    all_pairs_meet,
    all_pairs_refinement,
    ilp_decode_exact,
    knn_average_add_at,
    level_fill_leaf_cells,
    region_intersect,
    relabel_decode_two_pass,
)


def _pipeline(table, trees=12, min_leaf=3, d_z=3, seed=0, max_depth=None):
    f = fit_completely_random(
        table, ForestParams(n_trees=trees, min_leaf=min_leaf, max_depth=max_depth, seed=seed)
    )
    K = rf_kernel_train(f, table)
    model = with_time(eigendecompose(K, d_z), 1.0)
    synth = build_synthetic_training(f, table, seed=seed + 1)
    return f, model, synth


# ---------------------------------------------------------------------------
# synthetic training set


def test_synthetic_rows_route_identically():
    table = make_mixed(80, seed=1)
    f, model, synth = _pipeline(table, seed=2)
    redo, _ = route_table(f, synth.table)
    assert np.array_equal(redo, route_table(f, table)[0])


def test_synthetic_set_of_reordered_columns_is_in_the_forest_schema(mixed_fold_1009, tmp_path):
    # the draws are in the forest's column order, whatever the caller's
    from forestae.bundle import load_bundle
    from forestae.data import load_csv

    train, bundle, _ = mixed_fold_1009
    forest = load_bundle(bundle).forest
    rows = [line.split(",") for line in train.read_text().splitlines()]
    order = [rows[0].index(c) for c in ("c", "a", "g", "b")]
    (tmp_path / "cagb.csv").write_text("".join(",".join(r[j] for j in order) + "\n"
                                               for r in rows))
    table, reordered = load_csv(train), load_csv(tmp_path / "cagb.csv")
    assert reordered.schema.names == ["c", "a", "g", "b"]
    own = build_synthetic_training(forest, table, seed=1010)
    other = build_synthetic_training(forest, reordered, seed=1010)
    assert own.table.schema == other.table.schema == forest.schema
    assert np.array_equal(own.table.values, other.table.values)
    assert np.array_equal(own.table.values, load_bundle(bundle).synth.table.values)


def test_synthetic_row_escaping_its_cell_is_a_decode_error(monkeypatch):
    # a draw that routes elsewhere is refused by name, also under python -O
    from forestae.forest import Region

    table = make_mixed(60, seed=2)
    f = fit_completely_random(table, ForestParams(n_trees=4, min_leaf=3, seed=2))
    leaf_ids = route_table(f, table)[0]
    other = int(np.flatnonzero((leaf_ids != leaf_ids[0]).any(axis=1))[0])
    sample = Region.sample

    def swapped(self, rng):
        out = sample(self, rng)
        out[[0, other]] = out[[other, 0]]
        return out

    monkeypatch.setattr(Region, "sample", swapped)
    with pytest.raises(DecodeError, match="synthetic row 0 escaped its source regions"):
        build_synthetic_training(f, table, seed=3)


def test_synthetic_rows_in_one_ulp_cell():
    # two stumps cut at b and at the next float c, so rows at b share the
    # one-ulp cell [b, c): a draw must not round onto the cut c
    b = np.nextafter(1.0, 2.0)
    c = np.nextafter(b, 2.0)
    values = np.tile([1.0, b, c], 10)[:, None]
    table = Table(Schema((Column("x"),)), values)
    forest = forest_of(
        [_stump(0, b, (10, 20)), _stump(0, c, (20, 10))],
        schema=table.schema,
        feature_ranges=np.array([[1.0, c]]),
        params=ForestParams(n_trees=2, seed=0),
        kind="none",
    )
    at_b = values[:, 0] == b
    for seed in range(20):
        synth = build_synthetic_training(forest, table, seed)
        assert np.all(synth.table.values[at_b, 0] == b)


def test_single_leaf_forest_synthesizes_inside_box():
    table = make_mixed(40, seed=3)
    f = fit_completely_random(table, ForestParams(n_trees=3, max_depth=0, seed=3))
    synth = build_synthetic_training(f, table, seed=4)
    for j, col in enumerate(table.schema.columns):
        if col.is_categorical:
            continue
        lo, hi = f.feature_ranges[j]
        assert np.all((synth.table.values[:, j] >= lo) & (synth.table.values[:, j] <= hi))


def test_synthetic_set_never_builds_the_forest_wide_cell_table():
    # leaf cells are built a block of trees at a time, so the build's traced
    # peak stays far below the (nodes x d) lo/hi table of every node
    import tracemalloc

    rng = np.random.default_rng(22)
    table = Table(Schema(tuple(Column(f"x{j}") for j in range(8))), rng.normal(size=(600, 8)))
    f = fit_completely_random(table, ForestParams(n_trees=100, min_leaf=1, seed=22))
    ids = route_values(f, table.values)
    node_table_bytes = sum(t.n_nodes for t in f.trees) * table.schema.n_columns * 16
    tracemalloc.start()
    try:
        build_synthetic_training(f, table, seed=23, leaf_ids=ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < node_table_bytes / 2


def test_deep_forest_synthetic_close_to_original():
    table, _ = make_blobs(60, 2, seed=5)
    f = fit_completely_random(table, ForestParams(n_trees=40, min_leaf=1, seed=5))
    synth = build_synthetic_training(f, table, seed=6)
    gap = np.abs(synth.table.values - table.values).max()
    assert gap < 0.5  # deep trees isolate points into narrow cells


# ---------------------------------------------------------------------------
# k-NN


def _one_row(z0, Z, k):
    """One row's neighbours, distances and weights, as ``knn_decode`` finds them."""
    idx, dist = _knn_batch(np.atleast_2d(z0), Z, k)
    return idx[0], dist[0], _inverse_distance_weights(dist)[0]


def test_knn_exact_match_single_neighbor():
    Z = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    indices, _, weights = _one_row([1.0, 1.0], Z, k=1)
    assert indices.tolist() == [1]
    assert weights.tolist() == [1.0]


def test_knn_equidistant_split():
    Z = np.array([[-1.0], [1.0], [5.0]])
    _, _, weights = _one_row([0.0], Z, k=2)
    assert np.allclose(weights, [0.5, 0.5])


def test_knn_weights_simplex_and_monotone():
    rng = np.random.default_rng(7)
    Z = rng.normal(size=(50, 3))
    _, distances, weights = _one_row(rng.normal(size=3), Z, k=10)
    assert weights.sum() == pytest.approx(1.0)
    assert np.all(np.diff(distances) >= 0)
    assert np.all(np.diff(weights) <= 1e-15)
    model, synth, Z0 = _knn_mixed_fixture(4, 50, 3, seed=7)
    for k in (0, 51):
        with pytest.raises(DecodeError, match=r"k must lie in \[1, 50\]"):
            knn_decode(Z0, model, None, synth, k=k)


@pytest.mark.parametrize("width", [2, 4])
def test_knn_decode_refuses_an_embedding_of_another_width(width):
    table = make_mixed(50, seed=8)
    f, model, synth = _pipeline(table, seed=8)
    with pytest.raises(DecodeError, match="d_z = 3"):
        knn_decode(np.zeros((4, width)), model, f, synth, k=5)


def test_knn_decode_k1_returns_synthetic_row():
    table = make_mixed(50, seed=8)
    f, model, synth = _pipeline(table, seed=8)
    out = knn_decode(model.Z[:7], model, f, synth, k=1, seed=0)
    assert np.array_equal(out.values, synth.table.values[:7])


def test_knn_decode_unanimous_category():
    # when all neighbors carry the same level, the majority rule returns it
    schema = Schema((Column("x"), Column("c", ("a", "b"))))
    rng = np.random.default_rng(9)
    vals = np.column_stack([rng.normal(size=30), (rng.random(30) < 0.5).astype(float)])
    table = Table(schema, vals)
    f, model, synth = _pipeline(table, trees=6, min_leaf=2, d_z=2, seed=9)
    from forestae.decode import SyntheticTrainingSet

    forced = synth.table.values.copy()
    forced[:, 1] = 1.0
    unanimous = SyntheticTrainingSet(
        table=Table(schema, forced), seed=synth.seed
    )
    out = knn_decode(model.Z[:5], model, f, unanimous, k=5, seed=0)
    assert np.all(out.values[:, 1] == 1.0)


def test_knn_decode_distortion_improves_with_dimension():
    # held-out queries: training rows re-embed exactly onto themselves and
    # would make the trend degenerate
    table, _ = make_blobs(300, 4, seed=10)
    test, _ = make_blobs(120, 4, seed=99)
    from forestae.metrics import distortion
    from forestae.spectral import nystrom_embed

    f = fit_completely_random(table, ForestParams(n_trees=120, min_leaf=5, seed=10))
    K = rf_kernel_train(f, table)
    full = eigendecompose(K, 4)
    synth = build_synthetic_training(f, table, seed=11)
    K0 = rf_kernel_cross(f, test, table, strict=False)
    scores = []
    for d_z in (1, 4):
        model = with_time(full.truncate(d_z), 1.0)
        Z0 = nystrom_embed(K0, model)
        out = knn_decode(Z0, model, f, synth, k=20, seed=12)
        scores.append(distortion(test, out).combined)
    assert scores[1] < scores[0]


def _stable_argsort_knn(Z0, Z, k):
    """Reference search: all squared differences at once, stable argsort."""
    d2 = ((Z0[:, None, :] - Z[None, :, :]) ** 2).sum(axis=2)
    idx = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return idx, np.sqrt(np.take_along_axis(d2, idx, axis=1))


@pytest.mark.parametrize("d", [2, 25])
def test_knn_numpy_search_blocked_equals_unblocked(monkeypatch, d):
    # integer grid points: many equal distances, so the lowest index must win
    from forestae import decode

    rng = np.random.default_rng(d)
    Z = rng.integers(0, 3, size=(60, d)).astype(np.float64)
    Z0 = rng.integers(0, 3, size=(23, d)).astype(np.float64)
    whole = decode._knn_batch(Z0, Z, 7)
    monkeypatch.setattr(decode, "_BRUTE_BLOCK_PAIRS", 3 * Z.shape[0])  # 3 queries per block
    blocked = decode._knn_batch(Z0, Z, 7)
    ref_idx, ref_dist = _stable_argsort_knn(Z0, Z, 7)
    assert np.array_equal(blocked[0], whole[0]) and np.array_equal(blocked[1], whole[1])
    assert np.array_equal(whole[0], ref_idx)
    assert np.allclose(whole[1], ref_dist, rtol=1e-15, atol=0.0)


def test_knn_above_break_even_uses_kdtree(monkeypatch):
    import scipy.spatial

    from forestae import decode

    built = []

    class SpyTree(scipy.spatial.cKDTree):
        def __init__(self, data):
            built.append(data.shape)
            super().__init__(data)

    monkeypatch.setattr(scipy.spatial, "cKDTree", SpyTree)
    monkeypatch.setattr(decode, "_BRUTE_MAX_PAIRS", 12 * 50)
    rng = np.random.default_rng(3)
    Z = rng.normal(size=(50, 3))  # tie-free
    at, above = rng.normal(size=(12, 3)), rng.normal(size=(13, 3))
    decode._knn_batch(at, Z, 5)
    assert built == []
    idx, dist = decode._knn_batch(above, Z, 5)
    assert built == [(50, 3)]
    ref_idx, ref_dist = _stable_argsort_knn(above, Z, 5)
    assert np.array_equal(idx, ref_idx)
    assert np.allclose(dist, ref_dist)
    # integer grid points tie at the k-th neighbour, zero distances included:
    # the lowest indices win, as in the numpy search of fewer rows
    Z = rng.integers(0, 3, size=(50, 3)).astype(np.float64)
    above = rng.integers(0, 3, size=(13, 3)).astype(np.float64)
    idx, dist = decode._knn_batch(above, Z, 5)
    assert len(built) == 2
    ref_idx, ref_dist = _stable_argsort_knn(above, Z, 5)
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(dist, ref_dist)
    for rows in (slice(0, 1), slice(5, 9)):  # below the break-even: numpy alone
        part = decode._knn_batch(above[rows], Z, 5)
        assert len(built) == 2
        assert np.array_equal(part[0], idx[rows]) and np.array_equal(part[1], dist[rows])


def test_knn_kdtree_blocks_equal_the_stable_argsort(monkeypatch):
    # integer grid points: ties across the k-th neighbour and zero distances;
    # blocks of 4 queries split the batch, and each block's rows get the
    # neighbours that the whole batch and the reference search give them
    from forestae import decode

    rng = np.random.default_rng(31)
    Z = rng.integers(0, 3, size=(50, 3)).astype(np.float64)
    Z0 = np.vstack([Z[:5], rng.integers(0, 3, size=(14, 3))]).astype(np.float64)
    monkeypatch.setattr(decode, "_BRUTE_MAX_PAIRS", 10)
    whole = decode._knn_batch(Z0, Z, 5)
    monkeypatch.setattr(decode, "_BRUTE_BLOCK_PAIRS", 4 * 6)  # 4 queries of k + 1 neighbours
    blocked = decode._knn_batch(Z0, Z, 5)
    ref_idx, ref_dist = _stable_argsort_knn(Z0, Z, 5)
    assert (ref_dist == 0).any() and (ref_dist[:, -1] == ref_dist[:, -2]).any()
    for idx, dist in (whole, blocked):
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(dist, ref_dist)


def _knn_mixed_fixture(m, n, d_z, seed, grid=False):
    """A k-NN decode problem without a forest: reference embedding, queries,
    and a synthetic table of 4 continuous and 3 categorical columns."""
    from forestae.decode import SyntheticTrainingSet
    from forestae.spectral import SpectralModel

    rng = np.random.default_rng(seed)
    if grid:  # half-integer queries between integer points: equal weights, tied votes
        Z = rng.integers(0, 4, size=(n, d_z)).astype(np.float64)
        Z0 = rng.integers(0, 4, size=(m, d_z)) + 0.5
    else:
        Z, Z0 = rng.normal(size=(n, d_z)), rng.normal(size=(m, d_z))
    model = SpectralModel(n=n, d_z=d_z, eigenvalues=np.ones(d_z), V=np.zeros((n, d_z)), t=1.0,
                          Z=Z)
    columns = tuple(Column(f"x{j}") for j in range(4)) + tuple(
        Column(f"c{j}", tuple("abcd"[:j + 2])) for j in range(3))
    values = np.column_stack([rng.normal(size=(n, 4))]
                             + [rng.integers(0, j + 2, n) for j in range(3)]).astype(np.float64)
    return model, SyntheticTrainingSet(Table(Schema(columns), values), seed=0), Z0


@pytest.mark.parametrize("k", [2, 4, 8])
def test_knn_vote_equals_the_add_at_oracle(k):
    model, synth, Z0 = _knn_mixed_fixture(300, 120, 2, seed=k, grid=True)
    out = knn_decode(Z0, model, None, synth, k=k, seed=41)
    idx, dist = _knn_batch(Z0, model.Z, k)
    ref, draws = knn_average_add_at(_inverse_distance_weights(dist), idx, synth.table.values,
                                    synth.table.schema, seed=41)
    assert draws > 0
    assert np.array_equal(out.values, ref)


def test_knn_decode_memory_is_a_few_rows_by_neighbours():
    # above the break-even: neither the search nor the averaging holds a
    # (rows x neighbours x dimensions) or (rows x neighbours x columns) array,
    # so the traced peak is a few (m, k) float arrays, whatever d or d_z
    import tracemalloc

    import scipy.spatial  # imported before tracing starts

    from forestae import decode

    m, n, d_z, k = 10_000, 20_000, 4, 20
    assert m * n > decode._BRUTE_MAX_PAIRS
    model, synth, Z0 = _knn_mixed_fixture(m, n, d_z, seed=43)
    tracemalloc.start()
    try:
        knn_decode(Z0, model, None, synth, k=k, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * m * k * 8


def test_knn_coincident_neighbors_share_weight():
    # distances at rounding scale are exact matches: equal weights, and the
    # lowest indices fill the slots whatever the rounding
    Z = np.array([[1.0, 0.0], [1.0, 3e-16], [1.0, -1e-16], [2.0, 0.0]])
    indices, distances, weights = _one_row([1.0, 1e-16], Z, k=2)
    assert indices.tolist() == [0, 1]
    assert distances.tolist() == [0.0, 0.0]
    assert weights.tolist() == [0.5, 0.5]


def test_knn_decode_ignores_rounding_shift_of_coincident_rows(tmp_path):
    # a shallow forest puts many training rows in the same leaves; their
    # embeddings then coincide up to rounding, and every training row's
    # re-embedding has such neighbors
    from forestae.data import save_csv
    from forestae.spectral import nystrom_embed

    table = make_mixed(150, seed=4)
    f, model, synth = _pipeline(table, trees=5, max_depth=3, d_z=2, seed=4)
    Z0 = nystrom_embed(rf_kernel_cross(f, table, synth.table, strict=False), model)
    paths = []
    for shift in (0.0, 1e-14):
        paths.append(tmp_path / f"out{shift}.csv")
        save_csv(knn_decode(Z0 + shift, model, f, synth, k=20, seed=0), paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ---------------------------------------------------------------------------
# relabeling


@pytest.mark.parametrize("size", [1, 2, 100, 1000])
def test_stable_order_equals_the_stable_argsort(size, monkeypatch):
    # many ties; keys up to the largest that packs with a position into 63
    # bits, and keys above it, which fall back to the argsort
    from forestae.decode import _stable_order

    stable_argsort, fallbacks = np.argsort, []

    def counted(*args, **kwargs):
        fallbacks.append(1)
        return stable_argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    rng = np.random.default_rng(size)
    top = 1 << (63 - (size - 1).bit_length())  # the smallest key that does not pack
    for high, packs in ((8, True), (top, True), (top + 8, False))[:1 if size == 1 else 3]:
        key = high - 8 + rng.integers(0, 8, size)
        order = _stable_order(key)
        assert len(fallbacks) == (not packs)
        assert np.array_equal(order, stable_argsort(key, kind="stable"))
        fallbacks.clear()


@pytest.mark.filterwarnings("ignore:kernel graph appears disconnected")
def test_relabel_separable_split_has_perfect_smc():
    table, _ = make_blobs(80, 2, seed=13, separation=6.0)
    f = forest_of(
        [_stump(0, 0.0, (40, 40))],
        schema=table.schema,
        feature_ranges=np.array(
            [[table.values[:, 0].min(), table.values[:, 0].max()],
             [table.values[:, 1].min(), table.values[:, 1].max()]]
        ),
        params=ForestParams(n_trees=1, seed=0),
        kind="none",
    )
    K = rf_kernel_train(f, table)
    model = with_time(eigendecompose(K, 1), 1.0)
    synth = build_synthetic_training(f, table, seed=14)
    rl = relabel_forest(f, model, synth, n_synth=128, seed=15)
    assert rl.smc[0] == 1.0


def test_relabel_topology_identical():
    table = make_mixed(70, seed=16)
    f, model, synth = _pipeline(table, trees=5, max_depth=3, seed=16)
    rl = relabel_forest(f, model, synth, n_synth=64, seed=17)
    # the split mask fixes the breadth-first layout
    assert np.array_equal(rl.starts, f._node_table().starts)
    assert np.array_equal(np.concatenate([t.feature for t in f.trees]) >= 0, rl.feature >= 0)


def test_relabel_routing_agreement_on_blobs():
    from forestae.forest import fit_supervised

    table, labels = make_blobs(150, 3, seed=18, separation=4.0)
    f = fit_supervised(
        table,
        (Column("y", ("a", "b")), labels),
        ForestParams(n_trees=20, min_leaf=8, max_depth=4, bootstrap=True, seed=18),
    )
    K = rf_kernel_train(f, table)
    model = with_time(eigendecompose(K, 3), 1.0)
    synth = build_synthetic_training(f, table, seed=19)
    rl = relabel_forest(f, model, synth, n_synth=256, seed=19)
    latent = route_relabeled(rl, model.Z)
    original, _ = route_table(f, table)
    agreement = np.mean(latent == original)
    assert agreement >= 0.7


@pytest.mark.filterwarnings("ignore:kernel graph appears disconnected")
def test_relabel_decode_oracle_case():
    table, _ = make_blobs(80, 2, seed=20, separation=6.0)
    f = forest_of(
        [_stump(0, 0.0, (40, 40))],
        schema=table.schema,
        feature_ranges=np.array(
            [[table.values[:, 0].min(), table.values[:, 0].max()],
             [table.values[:, 1].min(), table.values[:, 1].max()]]
        ),
        params=ForestParams(n_trees=1, seed=0),
        kind="none",
    )
    K = rf_kernel_train(f, table)
    model = with_time(eigendecompose(K, 1), 1.0)
    synth = build_synthetic_training(f, table, seed=21)
    rl = relabel_forest(f, model, synth, n_synth=128, seed=22)
    source_ids = route_table(f, table)[0]
    assert np.array_equal(route_relabeled(rl, model.Z), source_ids)
    out = relabel_decode(rl, f, model.Z, seed=23)
    redo, _ = route_table(f, out)
    assert np.array_equal(redo, source_ids)


@pytest.mark.parametrize("width", [2, 4])
def test_relabel_decode_refuses_an_embedding_of_another_width(width):
    table = make_mixed(60, seed=24)
    f, model, synth = _pipeline(table, trees=6, max_depth=3, seed=24)
    rl = relabel_forest(f, model, synth, n_synth=64, seed=25)
    with pytest.raises(DecodeError, match="d_z = 3"):
        relabel_decode(rl, f, np.zeros((4, width)))


@pytest.mark.parametrize("decoder", [lasso_decode, ilp_decode])
@pytest.mark.parametrize("width", [2, 4])
def test_lasso_and_ilp_decode_refuse_an_embedding_of_another_width(decoder, width):
    table = make_mixed(60, seed=24)
    f, model, synth = _pipeline(table, trees=6, max_depth=3, seed=24)
    with pytest.raises(DecodeError, match="d_z = 3"):
        decoder(np.zeros((4, width)), model, f, synth)


def test_relabel_decode_rows_inside_assigned_regions():
    table = make_mixed(60, seed=24)
    f, model, synth = _pipeline(table, trees=8, max_depth=3, seed=24)
    rl = relabel_forest(f, model, synth, n_synth=64, seed=25)
    out = relabel_decode(rl, f, model.Z[:10], seed=26)
    latent_ids = route_relabeled(rl, model.Z[:10])
    decoded_ids, _ = route_table(f, out)
    # wherever the latent assignment was feasible, the decoded row realizes it
    for i in range(10):
        regions = [leaf_region(f, b, int(latent_ids[i, b])) for b in range(f.n_trees)]
        if not region_intersect(regions).is_empty():
            assert np.array_equal(decoded_ids[i], latent_ids[i])


def _route_relabeled_per_tree(rl, Z0):
    """Reference routing: each relabeled tree walked on its own, a flipped
    split sending z >= t left. Also returns how many (row, flipped split)
    visits met z == t exactly."""
    out = np.empty((Z0.shape[0], rl.starts.size - 1), dtype=np.int32)
    ties = 0
    for b, (s, e) in enumerate(zip(rl.starts[:-1], rl.starts[1:])):
        feature, threshold, flip = rl.feature[s:e], rl.threshold[s:e], rl.flip[s:e]
        left, leaf_id = breadth_first_layout(feature >= 0)
        node = np.zeros(Z0.shape[0], dtype=np.intp)
        while True:
            active = left[node] >= 0
            if not active.any():
                break
            idx = np.flatnonzero(active)
            z, t = Z0[idx, feature[node[idx]]], threshold[node[idx]]
            ties += int(((z == t) & flip[node[idx]]).sum())
            go_left = (z < t) ^ flip[node[idx]]
            node[idx] = left[node[idx]] + ~go_left
        out[:, b] = leaf_id[node]
    return out, ties


@pytest.mark.parametrize("seed", range(3))
def test_route_relabeled_matches_per_tree_walk(seed):
    table = make_mixed(90, seed=50 + seed)
    f, model, synth = _pipeline(table, trees=8, min_leaf=3, seed=50 + seed)
    rl = relabel_forest(f, model, synth, n_synth=64, seed=seed)
    assert rl.flip.any()
    rng = np.random.default_rng(seed)
    # random points, and points whose every coordinate is one of its axis's
    # finite thresholds or a neighbouring float, so splits meet z == t
    cut = np.flatnonzero((rl.feature >= 0) & np.isfinite(rl.threshold))
    on = np.empty((2000, model.d_z))
    for j in range(model.d_z):
        t = rl.threshold[cut[rl.feature[cut] == j]]
        t = np.concatenate([t, t, np.nextafter(t, np.inf), np.nextafter(t, -np.inf)])
        on[:, j] = rng.choice(t, on.shape[0])
    Z0 = np.vstack([model.Z, rng.normal(size=(200, model.d_z)) * np.abs(model.Z).max(), on])
    ref, ties = _route_relabeled_per_tree(rl, Z0)
    assert ties > 0
    assert np.array_equal(route_relabeled(rl, Z0), ref)


def test_route_relabeled_edge_cells_match_scalar_walk(monkeypatch):
    # each row walked node by node, a flipped split sending z >= t left: NaN
    # goes right everywhere, +inf left at flipped splits; one row alone, and
    # blocks whose last one is partial
    import forestae.forest as forest_module

    table = make_mixed(90, seed=53)
    f, model, synth = _pipeline(table, trees=6, min_leaf=3, seed=53)
    rl = relabel_forest(f, model, synth, n_synth=64, seed=4)
    assert rl.flip.any()
    edge = np.repeat(model.Z[:3], 3, axis=0)
    edge[np.arange(9), np.arange(9) % model.d_z] = np.tile([np.nan, np.inf, -np.inf], 3)
    Z0 = np.vstack([model.Z[:40], edge, np.full((1, model.d_z), np.nan)])
    assert Z0.shape[0] % 3
    expected = np.empty((Z0.shape[0], f.n_trees), dtype=np.int32)
    for b, (s, e) in enumerate(zip(rl.starts[:-1], rl.starts[1:])):
        feature, threshold, flip = rl.feature[s:e], rl.threshold[s:e], rl.flip[s:e]
        left, leaf_id = breadth_first_layout(feature >= 0)
        for i, z in enumerate(Z0):
            node = 0
            while left[node] >= 0:
                v, t = z[feature[node]], threshold[node]
                node = left[node] + (not (v >= t if flip[node] else v < t))
            expected[i, b] = leaf_id[node]
    for cells in (None, 3 * f.n_trees, 1):
        if cells is not None:
            monkeypatch.setattr(forest_module, "_ROUTE_CELLS", cells)
        assert np.array_equal(route_relabeled(rl, Z0), expected)
        assert np.array_equal(route_relabeled(rl, Z0[-1]), expected[-1:])
        monkeypatch.undo()


def _best_latent_split(Z0: np.ndarray, labels: np.ndarray):
    """Reference for one node: (dim, threshold, flip, matches) maximizing
    agreement with labels, or None when no cut exists."""
    m = Z0.shape[0]
    n1 = int(labels.sum())
    best = None
    for kdim in range(Z0.shape[1]):
        z = Z0[:, kdim]
        order = np.argsort(z, kind="stable")
        zs = z[order]
        valid = np.diff(zs) > 1e-12 * np.abs(zs).max()
        if not valid.any():
            continue
        cum1 = np.cumsum(labels[order].astype(np.int64))[:-1]
        matches = 2 * cum1 - np.arange(1, m) + (m - n1)
        agree = np.where(valid, np.maximum(matches, m - matches), -1)
        i = int(np.argmax(agree))
        if best is None or agree[i] > best[3]:
            best = (kdim, 0.5 * (zs[i] + zs[i + 1]), bool(m - matches[i] > matches[i]),
                    int(agree[i]))
    return best


def _relabel_by_node(f, Z, values, rank=None, cap=None):
    """The reference relabeling node by node, tree by tree: route the rows
    down the original tree and score each split on the rows reaching it, or on
    the ``cap`` of them of lowest ``rank``. Returns (feature, threshold, flip,
    smc) over the stacked nodes of all trees."""
    out = []
    for tree in f.trees:
        feat = np.where(tree.feature >= 0, 0, -1)
        thr = np.where(tree.feature >= 0, np.inf, 0.0)
        flip = np.zeros(tree.n_nodes, dtype=bool)
        smc = np.full(tree.n_nodes, np.nan)
        rows = {0: np.arange(values.shape[0])}
        for idx in range(tree.n_nodes):
            if tree.feature[idx] < 0:
                continue
            r = rows.get(idx, np.arange(0))
            col = values[r, tree.feature[idx]]
            labels = (col == tree.threshold[idx]) if tree.is_equal[idx] else (
                col < tree.threshold[idx])
            rows[tree.left[idx]], rows[tree.left[idx] + 1] = r[labels], r[~labels]
            if cap is not None and r.size > cap:
                scored = np.sort(np.argsort(rank[r])[:cap])
                r, labels = r[scored], labels[scored]
            m, n_left = r.size, int(labels.sum())
            best = _best_latent_split(Z[r], labels) if 0 < n_left < m else None
            if best is None:
                if m:
                    thr[idx] = np.inf if 2 * n_left >= m else -np.inf
                    smc[idx] = max(n_left, m - n_left) / m
                continue
            feat[idx], thr[idx], flip[idx], smc[idx] = best[0], best[1], best[2], best[3] / m
        out.append((feat, thr, flip, smc))
    return tuple(np.concatenate(a) for a in zip(*out))


@pytest.mark.parametrize("cells", [2**16, 2**7])
@pytest.mark.parametrize("kind", ["completely_random", "unsupervised"])
def test_relabel_matches_per_node_brute_force(monkeypatch, kind, cells):
    # with no binding cap every split scores all the reference rows reaching
    # it; small blocks walk the trees a few at a time
    from forestae import decode
    from forestae.forest import fit_unsupervised

    monkeypatch.setattr(decode, "_RELABEL_CELLS", cells)
    table = make_mixed(90, seed=7)
    if kind == "unsupervised":
        f = fit_unsupervised(table, ForestParams(n_trees=6, min_leaf=3, seed=7))
        model = with_time(eigendecompose(rf_kernel_train(f, table), 3), 1.0)
        synth = build_synthetic_training(f, table, 8)
    else:
        f, model, synth = _pipeline(table, trees=6, min_leaf=3, seed=7)
    rl = relabel_forest(f, model, synth, n_synth=synth.n, seed=3)
    feat, thr, flip, smc = _relabel_by_node(f, model.Z, synth.table.values)
    assert np.array_equal(rl.feature, feat)
    assert np.array_equal(rl.threshold, thr)
    assert np.array_equal(rl.flip, flip)
    assert np.array_equal(rl.smc, smc, equal_nan=True)
    n_splits = sum(int((tree.feature >= 0).sum()) for tree in f.trees)
    assert rl.n_degenerate == int(np.isinf(thr).sum()) < n_splits


def test_relabel_fixed_seed_with_binding_cap_is_deterministic():
    table = make_mixed(80, seed=9)
    f, model, synth = _pipeline(table, trees=6, min_leaf=3, seed=9)
    runs = [relabel_forest(f, model, synth, n_synth=10, seed=s) for s in (4, 4, 5)]
    fields = ("feature", "threshold", "flip", "smc")

    def same(a, b):
        return all(np.array_equal(getattr(a, k), getattr(b, k), equal_nan=True)
                   for k in fields)

    assert same(runs[0], runs[1]) and runs[0].n_degenerate == runs[1].n_degenerate
    assert not same(runs[0], runs[2])  # the cap binds: the seed picks the rows
    # each split scores the 10 of its rows that come first in the seed's permutation
    rank = np.random.default_rng(4).permutation(synth.n)
    ref = _relabel_by_node(f, model.Z, synth.table.values, rank, cap=10)
    for k, v in zip(fields, ref):
        assert np.array_equal(getattr(runs[0], k), v, equal_nan=True)


def test_best_latent_split_ignores_rounding_gaps():
    # every embedding value comes in tied copies whose labels disagree, so a
    # cut inside a tie would beat every real cut once rounding separates them
    from forestae.decode import _axis_ranks, _best_latent_splits

    rng = np.random.default_rng(42)
    Z0 = np.repeat(rng.normal(size=(6, 2)), 5, axis=0)
    labels = rng.random(30) < 0.5
    node = np.zeros(30, dtype=np.intp)
    base = _best_latent_splits(node, Z0, labels, _axis_ranks(Z0))
    Z1 = Z0 + rng.uniform(-1e-14, 1e-14, Z0.shape)
    moved = _best_latent_splits(node, Z1, labels, _axis_ranks(Z1))
    for k in (0, 1, 3, 4):  # node id, axis, flip, agreement
        assert np.array_equal(moved[k], base[k])
    assert abs(moved[2][0] - base[2][0]) <= 1e-12
    ref = _best_latent_split(Z0, labels)
    assert (base[1][0], base[3][0], base[4][0] * 30) == (ref[0], ref[2], ref[3])


@pytest.mark.parametrize("decoder", ["lasso", "relabel"])
def test_hardening_blocks_do_not_change_the_output(monkeypatch, decoder):
    # one row per block against one block for all rows
    from forestae import kernel

    table = make_mixed(80, seed=60)
    f, model, synth = _pipeline(table, trees=6, max_depth=3, seed=60)
    Z0 = np.random.default_rng(61).normal(size=(12, model.d_z)) * np.abs(model.Z).max()
    outs, traces = [], []
    for pairs in (2**20, 1):
        monkeypatch.setattr(kernel, "_JOIN_PAIRS", pairs)
        trace = []
        if decoder == "lasso":
            out = lasso_decode(Z0, model, f, synth, seed=62, trace=trace)
        else:
            rl = relabel_forest(f, model, synth, n_synth=64, seed=62)
            out = relabel_decode(rl, f, Z0, seed=62, trace=trace)
        outs.append(out.values)
        traces.append(trace)
    assert np.array_equal(outs[0], outs[1]) and traces[0] == traces[1]
    if decoder == "relabel":
        assert traces[0][0]["hardened_rows"] > 0


def test_relabel_decode_hardens_conflicting_rows_onto_reference_cells():
    # training embeddings mostly route to leaves that share a cell, far-off
    # points mostly do not
    table = make_mixed(80, seed=64)
    f, model, synth = _pipeline(table, trees=8, max_depth=4, seed=64)
    rl = relabel_forest(f, model, synth, n_synth=64, seed=65)
    offsets = f.leaf_offsets
    assert np.array_equal(rl.reference, route_table(f, table)[0] + offsets)
    Z0 = np.vstack([model.Z[:30], np.random.default_rng(66).normal(size=(30, model.d_z))
                    * np.abs(model.Z).max()])
    routed = route_relabeled(rl, Z0)
    conflict = assigned_region(f, routed).is_empty()
    assert 0 < conflict.sum() < Z0.shape[0]
    trace = []
    decoded = route_values(f, relabel_decode(rl, f, Z0, seed=67, trace=trace).values)
    assert trace == [{"hardened_rows": int(conflict.sum())}]
    assert np.array_equal(decoded[~conflict], routed[~conflict])
    # a conflicting row is sampled in the cell of its best-agreeing reference row
    agree = (rl.reference[None] == (routed[conflict] + offsets)[:, None]).sum(axis=2)
    assert np.array_equal(decoded[conflict] + offsets, rl.reference[agree.argmax(axis=1)])


def test_relabel_decode_equals_the_two_pass_oracle(mixed_fold_1009):
    # one draw over the routed ids with the hardened rows' ids written in is
    # the draw over routed cells patched with the hardened rows' cells
    from forestae.bundle import load_bundle

    _, bundle, emb = mixed_fold_1009
    b = load_bundle(bundle)
    Z0 = np.loadtxt(emb, delimiter=",", skiprows=1)
    rl = relabel_forest(b.forest, b.model, b.synth, seed=1010)
    trace = []
    out = relabel_decode(rl, b.forest, Z0, seed=1010, trace=trace)
    assert trace == [{"hardened_rows": 11}] and Z0.shape[0] == 200
    ref = relabel_decode_two_pass(rl, b.forest, Z0, seed=1010)
    assert out.schema == ref.schema
    assert out.values.tobytes() == ref.values.tobytes()


# ---------------------------------------------------------------------------
# exclusive lasso


def test_exclusive_lasso_large_penalty_zeroes_out():
    rng = np.random.default_rng(27)
    phi = rng.integers(0, 2, size=(6, 4)).astype(float)
    s = np.full(4, 0.5)
    psi, converged, obj, _ = exclusive_lasso(phi * s, rng.random(6), 1e6, np.zeros(4, dtype=int))
    assert converged
    assert np.abs(psi).max() < 1e-4


def test_exclusive_lasso_matches_grid_oracle():
    # one tree, three leaves; target equals the column of leaf 1
    phi = np.eye(3)
    s = np.array([0.5, 0.25, 0.125])
    khat = phi[:, 1] * s[1]
    groups = np.zeros(3, dtype=int)
    psi, _, obj, _ = exclusive_lasso(phi * s, khat, 1e-4, groups)
    assert int(np.argmax(psi)) == 1

    grid = np.linspace(0, 1, 21)
    best_val, best_psi = np.inf, None
    A = phi * s[None, :]
    for cand in itertools.product(grid, repeat=3):
        cand = np.array(cand)
        val = float(((khat - A @ cand) ** 2).sum() + 1e-4 * cand.sum() ** 2)
        if val < best_val:
            best_val, best_psi = val, cand
    assert int(np.argmax(best_psi)) == 1
    assert obj <= best_val + 1e-9


def test_exclusive_lasso_satisfies_kkt():
    # box-constrained optimality: the objective's gradient is >= 0 where psi
    # sits at 0, <= 0 where it sits at 1, and vanishes in between
    rng = np.random.default_rng(28)
    phi = rng.integers(0, 2, size=(20, 12)).astype(float)
    s = rng.uniform(0.1, 1.0, 12)
    groups = np.repeat(np.arange(3), 4)
    A, y, lam = phi * s, rng.normal(size=20), 0.05
    psi, converged, obj, iterations = exclusive_lasso(A, y, lam, groups)
    assert converged and iterations >= 0
    gsum = np.bincount(groups, weights=psi)
    grad = 2.0 * (A.T @ (A @ psi - y)) + 2.0 * lam * gsum[groups]
    tol = 1e-8
    assert np.all((psi >= 0.0) & (psi <= 1.0))
    assert np.all(grad[psi == 0.0] >= -tol)
    assert np.all(grad[psi == 1.0] <= tol)
    inner = (psi > 0.0) & (psi < 1.0)
    assert np.all(np.abs(grad[inner]) <= tol)
    resid = y - A @ psi
    assert obj == pytest.approx(float(resid @ resid + lam * gsum @ gsum), rel=1e-12)


def test_exclusive_lasso_final_at_most_zero_vector():
    rng = np.random.default_rng(29)
    phi = rng.integers(0, 2, size=(10, 6)).astype(float)
    s = rng.uniform(0.1, 1.0, 6)
    y = rng.normal(size=10)
    _, _, obj, _ = exclusive_lasso(phi * s, y, 0.01, np.zeros(6, dtype=int))
    assert obj <= float(y @ y) + 1e-12


def _bvls_cases():
    """Random box problems: in-bounds starts, wide and tall systems, sparse
    rows, repeated columns."""
    rng = np.random.default_rng(41)
    for trial in range(120):
        m, n = (int(v) for v in rng.integers(1, 30, size=2))
        A = rng.normal(size=(m, n))
        if trial % 3 == 0:
            A *= rng.random((m, n)) < 0.2  # sparse rows, some all zero
        if trial % 5 == 0:
            A[:, n // 2:] = A[:, : n - n // 2][:, ::-1] * 0.7  # rank deficient: repeated columns
        if trial % 4 == 0:
            b = A @ rng.uniform(0.1, 0.9, n)  # a consistent system: the start may lie in the box
        else:
            b = 3.0 * rng.normal(size=m)
        yield A, b, int(rng.integers(1, 3 * n + 2))


def _bvls_matching_scipy(A, b, max_iter):
    """The port's result, checked bit for bit against SciPy's BVLS."""
    from scipy.optimize import lsq_linear

    ref = lsq_linear(A, b, bounds=(0.0, 1.0), method="bvls", max_iter=max_iter)
    x, active, status, nit = _bvls(A, b, max_iter)
    assert x.tobytes() == ref.x.tobytes()
    assert active.tobytes() == ref.active_mask.tobytes()
    assert (status, nit) == (ref.status, ref.nit)
    return x, active, status, nit


def test_bvls_port_equals_scipy_exactly():
    statuses = {_bvls_matching_scipy(A, b, max_iter)[2] for A, b, max_iter in _bvls_cases()}
    assert {0, 1, 3} <= statuses
    assert sum(A.shape[1] > A.shape[0] for A, _, _ in _bvls_cases()) > 20


def test_bvls_port_equals_scipy_on_lasso_problems(monkeypatch):
    # the stacked [A; sqrt(lam) G] systems lasso decoding builds
    from forestae import decode

    steps = []

    def compared(A, b, max_iter):
        out = _bvls_matching_scipy(A, b, max_iter)
        steps.append(out[3])
        return out

    monkeypatch.setattr(decode, "_bvls", compared)
    table = make_mixed(120, seed=39)
    f, model, synth = _pipeline(table, trees=20, max_depth=None, seed=39)
    lasso_decode(model.Z[:3], model, f, synth, seed=40)
    assert len(steps) == 3 and min(steps) > 10


# ---------------------------------------------------------------------------
# hardening onto reference-row cells


def _reference(forest, table):
    """The reference rows' global leaf ids."""
    return route_table(forest, table)[0] + forest.leaf_offsets


def _harden(vals, forest, reference):
    """One row hardened from a dense score per global leaf, as local leaf ids."""
    leaves = np.arange(forest.total_leaves)[None]
    picks = reference_leaf_assign(leaves, np.asarray(vals, dtype=float)[None], reference)
    return picks[0] - forest.leaf_offsets


def test_hardening_one_hot_fixed_point(t2x4):
    forest, table, _ = t2x4
    reference = _reference(forest, table)
    for truth in route_table(forest, table)[0]:
        vals = np.zeros(4)
        vals[truth + forest.leaf_offsets] = 1.0
        assert np.array_equal(_harden(vals, forest, reference), truth)


def test_hardening_fixture_picks(t2x4):
    forest, table, _ = t2x4
    # favor leaf A (tree 0) and leaf D (tree 1): reference row p1 lies in both
    picks = _harden([0.9, 0.1, 0.2, 0.8], forest, _reference(forest, table))
    assert picks.tolist() == [0, 1]
    region = region_intersect([leaf_region(forest, b, int(l)) for b, l in enumerate(picks)])
    assert not region.is_empty()
    with pytest.raises(DecodeError, match="all >= 0"):
        _harden([0.9, -0.1, 0.2, 0.8], forest, _reference(forest, table))
    with pytest.raises(DecodeError, match="at least one reference row"):
        _harden([0.9, 0.1, 0.2, 0.8], forest, np.zeros((0, 2), dtype=int))


def test_greedy_random_instances_terminate_consistently():
    # hardening picks greedily the reference row of most agreement; on random
    # scores over 100 random forests that pick is a reference row's leaves,
    # and its cells meet pairwise and all at once
    rng = np.random.default_rng(30)
    for trial in range(100):
        table = make_mixed(40, seed=trial)
        f = fit_completely_random(
            table, ForestParams(n_trees=5, max_depth=3, min_leaf=2, seed=trial)
        )
        reference = _reference(f, table)
        picks = _harden(rng.random(f.total_leaves), f, reference)
        assert (reference == picks + f.leaf_offsets).all(axis=1).any()
        regions = [leaf_region(f, b, int(l)) for b, l in enumerate(picks)]
        for a, b in itertools.combinations(range(f.n_trees), 2):
            assert not region_intersect([regions[a], regions[b]]).is_empty()
        assert not region_intersect(regions).is_empty()


def test_greedy_replays_one_pass_rule_on_random_forests():
    # brute-force replay of every row of one call: the one-pass rule picks the
    # leaves of the first reference row whose leaves carry the most score;
    # scores on a 1/8 grid sum exactly, so equal agreements tie exactly
    rng = np.random.default_rng(43)
    ties = 0
    for trial in range(30):
        table = make_mixed(40, seed=100 + trial)
        f = fit_completely_random(
            table, ForestParams(n_trees=6, max_depth=3, min_leaf=2, seed=trial)
        )
        reference = _reference(f, table)
        m, k = 5, f.total_leaves // 2
        # each row scores a random half of the leaves and pads with leaf 0 at
        # score 0; the last row scores nothing
        leaves = np.argsort(rng.random((m, f.total_leaves)), axis=1)[:, :k]
        vals = np.floor(rng.random((m, k)) * 4) / 8
        vals[leaves < f.trees[0].n_leaves] = 0.0  # an unscored tree
        vals[-1] = 0.0
        leaves = np.hstack([leaves, np.zeros((m, 1), dtype=int)])
        vals = np.hstack([vals, np.zeros((m, 1))])
        picks = reference_leaf_assign(leaves, vals, reference)
        assert picks.shape == (m, f.n_trees)
        for i in range(m):
            dense = np.zeros(f.total_leaves)
            dense[leaves[i, :k]] = vals[i, :k]
            agree = [float(dense[r].sum()) for r in reference]
            ties += agree.count(max(agree)) > 1
            assert np.array_equal(picks[i], reference[agree.index(max(agree))])
            regions = [leaf_region(f, b, int(l)) for b, l in enumerate(picks[i] - f.leaf_offsets)]
            assert not region_intersect(regions).is_empty()
    assert ties > 0


# ---------------------------------------------------------------------------
# exact assignment


def _injective_grid_forest():
    """3 trees x <=4 leaves over a 5x4 grid of well-separated points."""
    xs, ys = np.arange(5) * 2.0, np.arange(4) * 2.0
    pts = np.array([[x, y] for x in xs for y in ys])
    schema = Schema((Column("x"), Column("y")))
    table = Table(schema, pts)

    def chain(feature, cuts, counts):
        # right-leaning chain of splits on one feature: split k sits at node
        # 2k, its children at 2k + 1 (a leaf) and 2k + 2
        n_nodes = 2 * len(cuts) + 1
        feat = np.full(n_nodes, -1, dtype=np.int32)
        thr = np.zeros(n_nodes)
        feat[0:-1:2] = feature
        thr[0:-1:2] = cuts
        return Tree(
            feature=feat,
            threshold=thr,
            is_equal=np.zeros(n_nodes, dtype=bool),
            leaf_count=np.asarray(counts, dtype=np.int64),
            leaf_stat=np.zeros(len(counts)),
        )

    trees = [
        chain(1, [1.0, 3.0, 5.0], [5, 5, 5, 5]),  # partitions by y
        chain(0, [1.0, 3.0, 5.0], [4, 4, 4, 8]),  # x in {0},{1},{2},{3,4}
        chain(0, [7.0], [16, 4]),  # x <= 3 vs x = 4
    ]
    forest = forest_of(
        trees,
        schema=schema,
        feature_ranges=np.array([[0.0, 8.0], [0.0, 6.0]]),
        params=ForestParams(n_trees=3, seed=0),
        kind="none",
    )
    return forest, table


def test_ilp_recovers_true_assignment_from_exact_rows():
    forest, table = _injective_grid_forest()
    ids, _ = route_table(forest, table)
    assert np.unique(ids, axis=0).shape[0] == 20  # injective leaf signatures
    K0 = rf_kernel_cross(forest, table, table)
    dense = K0.toarray()
    for i in range(20):
        res = ilp_decode_exact(dense[i], forest, ids)
        assert res.objective <= 1e-12
        assert res.n_optima == 1
        assert np.array_equal(res.assignment, ids[i])


def test_ilp_counterexample_reports_two_optima():
    # two binary axes, two single-split trees, two diagonal training points
    schema = Schema((Column("x0"), Column("x1")))
    table = Table(schema, np.array([[0.0, 0.0], [1.0, 1.0]]))
    forest = forest_of(
        [_stump(0, 0.5, (1, 1)), _stump(1, 0.5, (1, 1))],
        schema=schema,
        feature_ranges=np.array([[0.0, 1.0], [0.0, 1.0]]),
        params=ForestParams(n_trees=2, seed=0),
        kind="none",
    )
    ids, _ = route_table(forest, table)
    res = ilp_decode_exact(np.array([0.5, 0.5]), forest, ids)
    assert res.n_optima == 2
    assert res.tie
    assert res.objective <= 1e-12
    # the tied optima are the two off-diagonal assignments
    opts = {tuple(o.tolist()) for o in res.optima}
    assert opts == {(0, 1), (1, 0)}


def test_ilp_rejects_oversized_instance():
    # one leaf per row in each of 10 trees: the cells times 300 reference rows
    # outgrow the work budget within a few trees
    table = make_mixed(300, seed=31)
    f = fit_completely_random(table, ForestParams(n_trees=10, min_leaf=1, seed=31))
    ids, _ = route_table(f, table)
    with pytest.raises(DecodeError, match="--decoder lasso or --decoder knn"):
        ilp_decode_exact(np.full(300, 1 / 300), f, ids)


def _brute_force_ilp(khat, forest, ids):
    """Reference for exact decoding: every combination of one leaf per tree in
    lexicographic order, its cell recomputed from the leaf cells and its l1
    objective from the leaf counts. Returns the combinations within 1e-12 of
    the minimum and the first one's objective."""
    combos = np.array(list(itertools.product(*(range(t.n_leaves) for t in forest.trees))))
    combos = combos[~assigned_region(forest, combos).is_empty()]
    counts = [np.bincount(ids[:, b], minlength=t.n_leaves) for b, t in enumerate(forest.trees)]
    objs = np.empty(len(combos))
    for c, combo in enumerate(combos):
        acc = np.zeros(ids.shape[0])
        for b, leaf in enumerate(combo):
            acc += (ids[:, b] == leaf) / max(counts[b][leaf], 1)
        objs[c] = np.abs(forest.n_trees * khat - acc).sum()
    tied = np.flatnonzero(objs <= objs.min() + 1e-12)
    return combos[tied], objs[tied[0]]


@pytest.mark.parametrize("seed", range(4))
def test_ilp_matches_brute_force_enumeration(seed):
    table = make_mixed(40, seed=50 + seed)
    f = fit_completely_random(table, ForestParams(n_trees=3 + seed % 2, max_depth=3,
                                                  min_leaf=2, seed=seed))
    ids, _ = route_table(f, table)
    rng = np.random.default_rng(seed)
    rows = {
        "random": rng.random(40) * 2 / 40,
        "kernel": rf_kernel_cross(f, table, table).toarray()[seed],
        "zero": np.zeros(40),  # every cell of populated leaves scores B: ties
    }
    for name, khat in rows.items():
        res = ilp_decode_exact(khat, f, ids)
        tied, objective = _brute_force_ilp(khat, f, ids)
        assert np.array_equal(res.assignment, tied[0]), name
        assert res.n_optima == len(tied), name
        assert np.array_equal(np.array(res.optima), tied[:8]), name
        assert abs(res.objective - objective) <= 1e-12, name
    assert res.n_optima > 1


@pytest.mark.parametrize("block", [1, 100, 5000])
def test_ilp_blocks_do_not_change_the_results(monkeypatch, block):
    # against one block for everything: one cell per block (1, 100), and a
    # few cells per block (5000 terms over 60 reference rows)
    from forestae import decode

    table = make_mixed(60, seed=70)
    f, model, synth = _pipeline(table, trees=4, max_depth=3, seed=70)
    Z0 = np.vstack([model.Z[:5], np.random.default_rng(71).normal(size=(5, model.d_z))
                    * np.abs(model.Z).max()])
    khat = reconstruct_kernel(Z0, model)
    pi = route_values(f, synth.table.values)
    runs = []
    for b in (2**40, block):
        monkeypatch.setattr(decode, "_ILP_BLOCK", b)
        runs.append(decode._ilp_solve(khat, f, pi))
    for want, got in zip(*runs, strict=True):
        assert np.array_equal(want.assignment, got.assignment)
        assert (want.objective, want.n_optima) == (got.objective, got.n_optima)
        assert np.array_equal(want.optima, got.optima)


def test_ilp_infeasible_instance_errors(t2x4):
    forest, table, _ = t2x4
    ids, _ = route_table(forest, table)
    # well-formed trees tile their feature box, so infeasibility needs a broken
    # forest: here a box whose x0 range is inverted, which neither child of
    # tree 0's x0 split meets
    from dataclasses import replace

    ranges = forest.feature_ranges.copy()
    ranges[0] = ranges[0, ::-1]
    broken = replace(forest, feature_ranges=ranges)
    with pytest.raises(DecodeError, match="no feasible"):
        ilp_decode_exact(np.full(4, 0.25), broken, ids)


def _oracle_forest(name):
    """The ilp tests' forests, and a mixed fold fitted unsupervised at depth 6
    and completely at random at depth 5."""
    if name == "grid":
        return _injective_grid_forest()[0]
    if name == "stumps":
        return forest_of([_stump(0, 0.5, (1, 1)), _stump(1, 0.5, (1, 1))],
                         schema=Schema((Column("x0"), Column("x1"))),
                         feature_ranges=np.array([[0.0, 1.0], [0.0, 1.0]]),
                         params=ForestParams(n_trees=2, seed=0), kind="none")
    if name.startswith("brute"):
        seed = int(name[-1])
        return fit_completely_random(make_mixed(40, seed=50 + seed), ForestParams(
            n_trees=3 + seed % 2, max_depth=3, min_leaf=2, seed=seed))
    table = make_mixed(300, seed=1009)
    if name == "twenty":
        return fit_unsupervised(table, ForestParams(n_trees=20, max_depth=3, min_leaf=3,
                                                    seed=1010))
    fit, depth = {"mixed-unsup": (fit_unsupervised, 6),
                  "mixed-cr": (fit_completely_random, 5)}[name]
    return fit(table, ForestParams(n_trees=12, max_depth=depth, min_leaf=3, seed=1009))


def _assert_same_cells(got, want):
    assert np.array_equal(got.lo, want.lo) and np.array_equal(got.hi, want.hi)
    assert list(got.masks) == list(want.masks)
    assert all(np.array_equal(got.masks[j], m) for j, m in want.masks.items())


@pytest.mark.parametrize("name", ["grid", "stumps", *(f"brute{s}" for s in range(4)), "twenty",
                                  "mixed-unsup", "mixed-cr"])
def test_cell_descent_matches_level_fill_and_all_pairs_oracles(name):
    # the descent reproduces the level fill's leaf cells, the all-pairs meet's
    # cells and order from given roots, and the all-pairs refinement, bit for bit
    from forestae import decode
    from forestae.forest import Region, _leaf_cells

    f = _oracle_forest(name)
    for b0, b1 in [(b, b + 1) for b in range(f.n_trees)] + [(0, f.n_trees)]:
        root, leaf, cells = _leaf_cells(f, b0, b1)
        want = level_fill_leaf_cells(f, b0, b1)
        assert not root.any() and np.array_equal(leaf, np.arange(want.lo.shape[0]))
        _assert_same_cells(cells, want)
    assert np.array_equal(decode._refinement(f, 40), all_pairs_refinement(f, 40))
    # roots: the box; one float wide across the cut of the first tree's root
    # (the box again where that is a leaf or an Equals split); and the lowest
    # quarter of every interval with the first level of each mask
    box, j, t = f.box, f.feature[0], f.threshold[0]
    lo, hi = np.tile(box.lo, (3, 1)), np.tile(box.hi, (3, 1))
    if j >= 0 and not f.is_equal[0]:
        lo[1, j], hi[1, j] = np.nextafter(t, -np.inf), t
    hi[2] = 0.75 * box.lo + 0.25 * box.hi
    masks = {c: np.vstack([m, m, np.arange(m.size) == 0]) for c, m in box.masks.items()}
    roots = Region(f.schema, lo, hi, masks)
    partial = []
    for b in range(f.n_trees):
        got = _leaf_cells(f, b, b + 1, roots)
        want = all_pairs_meet(roots, level_fill_leaf_cells(f, b, b + 1))
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        _assert_same_cells(got[2], want[2])
        partial.append(np.count_nonzero(got[0] == 2) < f.n_leaves[b])
    assert any(partial)  # the lowest quarter meets only some leaves of a tree


def test_ilp_dominates_greedy_on_toy_instances():
    forest, table = _injective_grid_forest()
    ids, _ = route_table(forest, table)
    K0 = rf_kernel_cross(forest, table, table).toarray()
    counts = [np.bincount(ids[:, b], minlength=t.n_leaves) for b, t in enumerate(forest.trees)]

    def objective(assign) -> float:
        acc = np.zeros(table.n)
        for b, l in enumerate(assign):
            acc[ids[:, b] == l] += 1.0 / counts[b][l]
        return float(np.abs(forest.n_trees * K0[i] - acc).sum())

    rng = np.random.default_rng(32)
    reference = ids + forest.leaf_offsets
    for i in (0, 7, 19):
        exact = ilp_decode_exact(K0[i], forest, ids)
        hardened = _harden(rng.random(forest.total_leaves), forest, reference)
        assert exact.objective <= objective(hardened) + 1e-12


# ---------------------------------------------------------------------------
# lasso decoder end to end


def test_lasso_decode_recovers_training_assignments():
    forest, table = _injective_grid_forest()
    K = rf_kernel_train(forest, table)
    model = with_time(eigendecompose(K, 19), 1.0)
    synth = build_synthetic_training(forest, table, seed=33)
    out = lasso_decode(model.Z, model, forest, synth, seed=34)
    ids, _ = route_table(forest, table)
    redo, _ = route_table(forest, out)
    assert np.array_equal(redo, ids)


def test_lasso_decode_sparsity_cap_noop_when_large():
    table = make_mixed(40, seed=35)
    f, model, synth = _pipeline(table, trees=6, max_depth=3, seed=35)
    a = lasso_decode(model.Z[:4], model, f, synth, sparsity_cap=40, seed=36)
    b = lasso_decode(model.Z[:4], model, f, synth, sparsity_cap=10_000, seed=36)
    assert np.array_equal(a.values, b.values)


def test_lasso_decode_converges_on_twenty_trees():
    table = make_mixed(120, seed=39)
    f, model, synth = _pipeline(table, trees=20, max_depth=None, seed=39)
    trace: list[dict] = []
    out = lasso_decode(model.Z[:5], model, f, synth, seed=40, trace=trace)
    assert out.n == 5
    assert [r["row"] for r in trace] == list(range(5))
    assert all(r["converged"] for r in trace), trace
    assert all(np.isfinite(r["objective"]) for r in trace)


def test_lasso_budget_checked_before_any_row_is_solved(monkeypatch):
    from forestae import decode
    from forestae.decode import _strongest
    from forestae.kernel import leaf_design, leaf_profile
    from forestae.spectral import reconstruct_kernel

    table = make_mixed(120, seed=39)
    f, model, synth = _pipeline(table, trees=20, max_depth=None, seed=39)
    M = leaf_design(leaf_profile(f, route_values(f, synth.table.values)))
    cells = max((nb.size + f.n_trees) * np.unique(M.cols[nb]).size
                for nb in (_strongest(k, 100) for k in reconstruct_kernel(model.Z[:5], model)))
    assert cells <= decode._LASSO_MAX_CELLS  # 20-tree forests stay inside the budget
    monkeypatch.setattr(decode, "_LASSO_MAX_CELLS", cells)
    assert lasso_decode(model.Z[:5], model, f, synth, seed=40).n == 5
    solved = []
    monkeypatch.setattr(decode, "exclusive_lasso", lambda *a: solved.append(a))
    monkeypatch.setattr(decode, "_LASSO_MAX_CELLS", cells - 1)
    with pytest.raises(DecodeError, match=f"{cells} cells.*knn"):
        lasso_decode(model.Z[:5], model, f, synth, seed=40)
    assert solved == []


def test_lasso_rejects_a_many_tree_forest_at_once(monkeypatch):
    from forestae import decode

    # about 5.6 million cells a row, as on a 500-tree banknote fold
    table = make_mixed(150, seed=42)
    f, model, synth = _pipeline(table, trees=300, min_leaf=2, seed=42)
    solved = []
    monkeypatch.setattr(decode, "exclusive_lasso", lambda *a: solved.append(a))
    with pytest.raises(DecodeError, match="exceeds the budget.*knn"):
        lasso_decode(model.Z[:3], model, f, synth, seed=43)
    assert solved == []


def test_lasso_decode_rows_inside_schema():
    table = make_mixed(50, seed=37)
    f, model, synth = _pipeline(table, trees=6, max_depth=3, seed=37)
    out = lasso_decode(model.Z[:6], model, f, synth, seed=38)
    assert out.schema == table.schema
    for j, col in enumerate(table.schema.columns):
        if col.is_categorical:
            assert set(out.values[:, j]) <= set(range(len(col.levels)))
        else:
            lo, hi = f.feature_ranges[j]
            assert np.all((out.values[:, j] >= lo) & (out.values[:, j] <= hi))
