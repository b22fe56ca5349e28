import gzip
import json
from dataclasses import replace

import numpy as np
import pytest

from forestae.bundle import BundleError, bundle_from_parts, load_bundle, save_bundle
from forestae.decode import build_synthetic_training
from forestae.forest import ForestParams, fit_completely_random
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
    assert np.array_equal(back.synth.leaf_ids, synth.leaf_ids)
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
    doc["forest"]["trees"][0]["threshold"][0] = 123.456
    path.write_text(json.dumps(doc))
    with pytest.raises(BundleError, match="hash"):
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
