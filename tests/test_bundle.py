import gzip
import json
from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest

from forestae.bundle import (
    BundleError,
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
    forest, model, synth, _ = parts
    path = tmp_path / "m.json"
    save_bundle(bundle_from_parts(forest, model, synth), path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(BundleError, match="version 1.*refit"):
        load_bundle(path)


def test_saved_bundle_holds_no_derived_fields(tmp_path, parts):
    forest, model, synth, _ = parts
    path = tmp_path / "m.json"
    save_bundle(bundle_from_parts(forest, model, synth), path)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 2
    assert "Z" not in doc["spectral"] and "leaf_ids" not in doc["synthetic"]
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
    return int(np.flatnonzero(tree.leaf_id >= 0)[0])


def _cycle(tree):
    # one leaf becomes a split whose children are the root
    i = _first_leaf(tree)
    tree.feature[i], tree.left[i], tree.right[i], tree.leaf_id[i] = 0, 0, 0, -1


def _child_out_of_range(tree):
    tree.left[0] = tree.n_nodes


def _duplicate_leaf_id(tree):
    leaves = np.flatnonzero(tree.leaf_id >= 0)
    tree.leaf_id[leaves[1]] = tree.leaf_id[leaves[0]]


def _empty_leaf(tree):
    tree.leaf_count[0] = 0


def _feature_past_schema(tree):
    tree.feature[0] = 99


@pytest.mark.parametrize("edit, message", [
    (_cycle, "not after its parent"),
    (_child_out_of_range, "out of range"),
    (_duplicate_leaf_id, "leaf ids"),
    (_empty_leaf, "leaf count"),
    (_feature_past_schema, "column"),
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
