import gzip
import json
from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestae.bundle import (
    BundleError,
    _check_trees,
    bundle_from_parts,
    decode_array,
    encode_array,
    forest_digest,
    forest_to_dict,
    load_bundle,
    save_bundle,
)
from forestae.decode import build_synthetic_training
from forestae.forest import ForestParams, fit_completely_random, route_table
from forestae.kernel import rf_kernel_train, write_coordinate, write_dense_csv
from forestae.spectral import eigendecompose, with_time
from conftest import make_mixed


@pytest.fixture
def parts():
    table = make_mixed(50, seed=1)
    forest = fit_completely_random(table, ForestParams(n_trees=8, min_leaf=3, seed=2))
    K = rf_kernel_train(forest, table)
    model = with_time(eigendecompose(K, 2), 1.0)
    synth = build_synthetic_training(forest, table, seed=3)
    return forest, model, synth, K


def test_bundle_round_trip_preserves_components(tmp_path, parts):
    forest, model, synth, _ = parts
    b = bundle_from_parts(forest, model, synth)
    path = tmp_path / "m.json"
    save_bundle(b, path)
    back = load_bundle(path)
    assert np.array_equal(back.model.Z, model.Z)
    assert np.array_equal(route_table(back.forest, back.synth.table)[0],
                          route_table(forest, synth.table)[0])
    assert back.forest_sha == b.forest_sha


def test_bundle_version_checked(tmp_path, parts):
    forest, model, synth, _ = parts
    path = tmp_path / "m.json"
    save_bundle(bundle_from_parts(forest, model, synth), path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(BundleError, match="version"):
        load_bundle(path)


def test_bundle_hash_guards_consistency(tmp_path, parts):
    forest, model, synth, _ = parts
    path = tmp_path / "m.json"
    save_bundle(bundle_from_parts(forest, model, synth), path)
    doc = json.loads(path.read_text())
    threshold = decode_array(doc["forest"]["arrays"]["threshold"])
    threshold[0] = 123.456
    doc["forest"]["arrays"]["threshold"] = encode_array(threshold)
    path.write_text(json.dumps(doc))
    with pytest.raises(BundleError, match="hash"):
        load_bundle(path)


def test_bundle_v1_rejected(tmp_path, parts):
    # version 2 stored child pointers and leaf ids, version 3 the dropped
    # constant eigenpair's lambda0 and v0_max_dev; all older formats are refused
    forest, model, synth, _ = parts
    path = tmp_path / "m.json"
    save_bundle(bundle_from_parts(forest, model, synth), path)
    doc = json.loads(path.read_text())
    for version in (1, 2, 3):
        doc["format_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(BundleError, match=f"version {version}.*refit"):
            load_bundle(path)


def test_saved_bundle_holds_no_derived_fields(tmp_path, parts):
    forest, model, synth, _ = parts
    path = tmp_path / "m.json"
    save_bundle(bundle_from_parts(forest, model, synth), path)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 4
    assert set(doc["spectral"]) == {"eigenvalues", "V", "t"}
    assert "leaf_ids" not in doc["synthetic"]
    # each tree's split mask implies its children, leaf ids and leaf total,
    # and the schema which splits are Equals tests
    assert set(doc["forest"]["arrays"]) == {
        "feature", "threshold", "leaf_count", "leaf_stat", "n_nodes", "feature_ranges",
    }
    assert "schema" not in doc  # stored once, with the forest


def test_array_codec_round_trips_dtype_and_shape():
    for a in (np.arange(6, dtype=np.int32).reshape(2, 3), np.array([True, False]),
              np.array([[np.nan, 1.5]]), np.zeros((0, 4))):
        back = decode_array(json.loads(json.dumps(encode_array(a))))
        assert back.dtype == a.dtype and back.shape == a.shape
        assert np.array_equal(back, a, equal_nan=True)
        back[...] = 0  # decoded arrays are writable


def _tamper(forest, edit):
    """A copy of the forest with ``edit(tree)`` applied to its first tree."""
    forest = deepcopy(forest)
    edit(forest.trees[0])
    return forest


def _first_leaf(tree):
    return int(np.flatnonzero(tree.feature < 0)[0])


def _cycle(tree):
    # the root and the first leaf swap places: the mask still has 2I + 1
    # nodes, but the first split now comes after node 1, its implied left
    # child, so routing would loop
    swap = [0, _first_leaf(tree)]
    tree.feature[swap], tree.threshold[swap] = tree.feature[swap[::-1]], tree.threshold[swap[::-1]]


def _leaf_to_split(tree):
    tree.feature[_first_leaf(tree)] = 0


def _threshold(value, equals: bool):
    """Set the first Equals split's level code, or the first cut."""
    def edit(tree):
        tree.threshold[np.flatnonzero((tree.feature >= 0) & (tree.is_equal == equals))[0]] = value

    return edit


def _empty_leaf(tree):
    tree.leaf_count[0] = 0


def _feature_past_schema(tree):
    tree.feature[0] = 99


@pytest.mark.parametrize("edit, message", [
    (_cycle, "not after its parent"),
    (_leaf_to_split, "not make a full binary tree"),
    (_empty_leaf, "leaf count"),
    (_feature_past_schema, "column"),
    *(pytest.param(_threshold(code, True), "level code", id=f"_equals_code_{code}-level code")
      for code in (7, -1, 0.5)),
    *(pytest.param(_threshold(cut, False), "finite cut", id=f"_cut_{cut}-finite cut")
      for cut in (np.nan, np.inf)),
])
def test_malformed_tree_rejected_with_valid_digest(tmp_path, parts, edit, message):
    forest, model, synth, _ = parts
    path = tmp_path / "m.json"
    save_bundle(bundle_from_parts(forest, model, synth), path)
    bad = _tamper(forest, edit)
    doc = json.loads(path.read_text())
    doc["forest"], doc["forest_sha"] = forest_to_dict(bad), forest_digest(bad)
    path.write_text(json.dumps(doc))
    with pytest.raises(BundleError, match=message):
        load_bundle(path)


@st.composite
def _breadth_first_masks(draw):
    """Split masks of 1-3 random full binary trees, each in breadth-first
    order: nodes are decided in order, and every split adds two pending
    nodes."""
    masks = []
    for splits in draw(st.lists(st.lists(st.booleans(), max_size=12), min_size=1, max_size=3)):
        mask, pending = [], 1
        while pending:
            split = len(mask) < len(splits) and splits[len(mask)]
            mask.append(split)
            pending += 1 if split else -1
        masks.append(mask)
    return masks


def _tree_arrays(masks) -> dict:
    split = np.concatenate([np.array(m, dtype=bool) for m in masks])
    n_leaves = int((~split).sum())
    return {
        "feature": np.where(split, 0, -1).astype(np.int32),
        "threshold": np.where(split, 0.5, 0.0),
        "leaf_count": np.ones(n_leaves, dtype=np.int64),
        "leaf_stat": np.zeros(n_leaves),
        "n_nodes": np.array([len(m) for m in masks], dtype=np.int64),
    }


@settings(max_examples=60, deadline=None)
@given(_breadth_first_masks())
def test_check_trees_accepts_breadth_first_masks_and_rejects_every_bit_flip(masks):
    n_levels = np.zeros(1, dtype=np.int64)  # one continuous column
    a = _tree_arrays(masks)
    _check_trees(a, n_levels)
    for i in range(a["feature"].size):
        flipped = dict(a, feature=a["feature"].copy())
        flipped["feature"][i] = -1 - flipped["feature"][i]  # -1 <-> 0
        with pytest.raises(BundleError):
            _check_trees(flipped, n_levels)


def test_bundle_from_parts_digests_once_and_checks_shapes(parts, monkeypatch):
    import forestae.bundle as bundle_module

    forest, model, synth, _ = parts
    digest = bundle_module.forest_digest
    calls = []
    monkeypatch.setattr(
        bundle_module, "forest_digest", lambda f: calls.append(f) or digest(f)
    )
    b = bundle_from_parts(forest, model, synth)
    assert len(calls) == 1 and b.forest_sha == digest(forest)
    with pytest.raises(BundleError, match="disagree on n"):
        bundle_from_parts(forest, model, replace(synth, table=synth.table.take(np.arange(3))))


def test_gzip_payload_matches_plain(tmp_path, parts):
    forest, model, synth, _ = parts
    b = bundle_from_parts(forest, model, synth)
    plain, packed = tmp_path / "m.json", tmp_path / "m.json.gz"
    save_bundle(b, plain)
    save_bundle(b, packed)
    assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()


def test_kernel_exports(tmp_path, parts):
    _, _, _, K = parts
    coord = tmp_path / "k.txt"
    write_coordinate(K, coord)
    lines = coord.read_text().splitlines()
    assert len(lines) == K.matrix.nnz
    i, j, v = lines[0].split()
    assert float(v) > 0

    dense = tmp_path / "k.csv"
    write_dense_csv(K, dense)
    grid = np.loadtxt(dense, delimiter=",")
    assert np.allclose(grid, K.toarray())
