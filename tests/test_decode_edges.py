"""Edge paths: hardening where pairwise overlap does not imply a common cell,
decode fallbacks, and out-of-sample algebra at unusual settings."""

import numpy as np
import pytest

from forestae.data import Column, Schema, Table
from forestae.decode import (
    DecodeError,
    RelabeledForest,
    build_synthetic_training,
    ilp_decode,
    knn_decode,
    lasso_decode,
    reference_leaf_assign,
    relabel_decode,
    relabel_forest,
)
from forestae.forest import (
    ForestParams,
    Tree,
    leaf_region,
    route_table,
    route_values,
)
from forestae.kernel import rf_kernel_cross, rf_kernel_train
from forestae.spectral import eigendecompose, nystrom_embed, with_time
from conftest import forest_of, make_mixed, _stump
from oracles import region_intersect


def _equals_stump(level: float, counts) -> Tree:
    """Single Equals split on column 0: x == level goes left."""
    return Tree(
        feature=np.array([0, -1, -1], dtype=np.int32),
        threshold=np.array([level, 0.0, 0.0]),
        is_equal=np.array([True, False, False]),
        leaf_count=np.array(counts, dtype=np.int64),
        leaf_stat=np.zeros(2),
    )


@pytest.mark.parametrize("leaves, scores, reference", [
    ([[-1, 0]], [[1.0, 1.0]], [[0, 2]]),  # a negative leaf id
    ([[0, 1]], [[1.0, 1.0]], [[-1, 2]]),  # a negative reference leaf id
    ([[0, 1]], [[1.0, -1.0]], [[0, 2]]),  # a negative score
    ([[0, 1]], [[1.0, 1.0]], np.zeros((0, 2), dtype=int)),  # no reference row
], ids=["leaf", "reference", "score", "empty"])
def test_reference_leaf_assign_rejects_malformed_input(leaves, scores, reference):
    with pytest.raises(DecodeError, match="need"):
        reference_leaf_assign(np.array(leaves), np.array(scores), np.array(reference))


def test_hardening_one_vs_rest_stumps_give_feasible_cell():
    # three one-vs-rest trees over one 3-level column: the "not equal" leaves
    # {b,c}, {a,c}, {a,b} overlap pairwise yet share no level, so picking each
    # tree's favorite alone would give an infeasible triple
    schema = Schema((Column("c", ("a", "b", "c")),))
    forest = forest_of(
        [_equals_stump(0.0, (1, 2)), _equals_stump(1.0, (1, 2)), _equals_stump(2.0, (1, 2))],
        schema=schema,
        feature_ranges=np.array([[np.nan, np.nan]]),
        params=ForestParams(n_trees=3, seed=0),
        kind="none",
    )
    reference = route_values(forest, np.array([[0.0], [1.0], [2.0]])) + forest.leaf_offsets
    vals = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])  # favor every right leaf
    picks = reference_leaf_assign(np.arange(6)[None], vals[None], reference)[0]
    # every reference row lies in two of the right leaves: the tie goes to
    # row 0 (level a), in tree 0's left leaf {a}
    assert np.array_equal(picks, reference[0])
    picks = picks - forest.leaf_offsets
    assert picks.tolist() == [0, 1, 1]
    regions = [leaf_region(forest, b, int(l)) for b, l in enumerate(picks)]
    assert not region_intersect(regions).is_empty()


def test_relabel_decode_fallback_on_infeasible_routing():
    # two stumps on the same axis; force the relabeled router into the
    # incompatible (left of 0.4, right of 0.6) pair for every query
    schema = Schema((Column("x"),))
    original = forest_of(
        [_stump(0, 0.4, (2, 3)), _stump(0, 0.6, (3, 2))],
        schema=schema,
        feature_ranges=np.array([[0.0, 1.0]]),
        params=ForestParams(n_trees=2, seed=0),
        kind="none",
    )

    # tree 0's router sends every query left, tree 1's every query right
    relabeled = RelabeledForest(
        starts=np.array([0, 3, 6]),
        feature=np.array([0, -1, -1, 0, -1, -1], dtype=np.int32),
        threshold=np.array([np.inf, 0.0, 0.0, -np.inf, 0.0, 0.0]),
        flip=np.zeros(6, dtype=bool),
        d_z=1,
        n_degenerate=0,
        reference=route_values(original, np.array([[0.1], [0.5], [0.9]])) + original.leaf_offsets,
    )
    out = relabel_decode(relabeled, original, np.zeros((4, 1)), seed=3)
    # reference rows 0 and 2 each share one routed leaf; the tie goes to row
    # 0, so every row is sampled in its cell, x < 0.4
    redo = route_values(original, out.values)
    assert np.array_equal(redo, np.zeros((4, 2)))
    for i in range(4):
        regions = [leaf_region(original, b, int(redo[i, b])) for b in range(2)]
        assert regions[0].contains(out.values[i]) and regions[1].contains(out.values[i])


@pytest.mark.parametrize("decoder", ["knn", "relabel", "lasso", "ilp"])
def test_empty_embedding_decodes_to_empty_table(decoder):
    # the schema has a categorical column, whose level masks must reshape
    # to (0, levels)
    from forestae.forest import fit_completely_random

    table = make_mixed(60, seed=62)
    f = fit_completely_random(table, ForestParams(n_trees=3, max_depth=3, min_leaf=3, seed=62))
    model = with_time(eigendecompose(rf_kernel_train(f, table), 2), 1.0)
    synth = build_synthetic_training(f, table, seed=63)
    Z0 = np.empty((0, 2))
    if decoder == "knn":
        out = knn_decode(Z0, model, f, synth, k=5)
    elif decoder == "relabel":
        out = relabel_decode(relabel_forest(f, model, synth, n_synth=32), f, Z0)
    elif decoder == "lasso":
        out = lasso_decode(Z0, model, f, synth)
    else:
        out = ilp_decode(Z0, model, f, synth)
    assert out.schema == table.schema and out.values.shape == (0, table.d)


def test_nystrom_self_consistency_at_time_zero():
    table = make_mixed(60, seed=4)
    from forestae.forest import fit_completely_random

    f = fit_completely_random(table, ForestParams(n_trees=10, min_leaf=3, seed=4))
    K = rf_kernel_train(f, table)
    model = with_time(eigendecompose(K, 3), 0.0)
    K0 = rf_kernel_cross(f, table, table)
    Z0 = nystrom_embed(K0, model)
    assert np.abs(Z0 - model.Z).max() <= 1e-8


def test_cli_lasso_decoder_with_categorical_data(tmp_path):
    from forestae.cli import main
    from forestae.data import load_csv, save_csv

    table = make_mixed(40, seed=6)
    data = tmp_path / "train.csv"
    save_csv(table, data)
    bundle = tmp_path / "m.json"
    assert main(["fit", str(data), "--mode", "completely_random", "--d-z", "2",
                 "--trees", "6", "--max-depth", "3", "--min-leaf", "3",
                 "--out", str(bundle), "--seed", "6"]) == 0
    emb, out = tmp_path / "emb.csv", tmp_path / "dec.csv"
    assert main(["encode", str(bundle), str(data), "--out", str(emb)]) == 0
    head = tmp_path / "emb8.csv"
    head.write_text("\n".join(emb.read_text().splitlines()[:9]) + "\n")
    assert main(["decode", str(bundle), str(head), "--decoder", "lasso",
                 "--lambda", "1e-4", "--sparsity-cap", "30",
                 "--out", str(out), "--seed", "7"]) == 0
    decoded = load_csv(out, schema_hint=table.schema)
    assert decoded.n == 8
    assert decoded.schema == table.schema


def test_knn_decode_brute_force_path_matches_kdtree():
    # the search in 25 dimensions agrees with SciPy's cKDTree, an independent oracle
    from forestae.decode import _knn_batch

    rng = np.random.default_rng(8)
    Z = rng.normal(size=(40, 25))
    Z0 = rng.normal(size=(5, 25))
    idx_b, dist_b = _knn_batch(Z0, Z, 4)
    from scipy.spatial import cKDTree

    dist_t, idx_t = cKDTree(Z).query(Z0, k=4)
    assert np.array_equal(idx_b, idx_t)
    assert np.allclose(dist_b, dist_t)
