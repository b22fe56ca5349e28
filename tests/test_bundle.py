import gzip
import hashlib
import io
import json
import re
import warnings
from copy import deepcopy
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestae import bundle as bundle_module
from forestae.bundle import (
    FORMAT_VERSION,
    GZIP_LEVEL,
    BundleError,
    ModelBundle,
    _check_trees,
    _dumps,
    _forest_parts,
    _read,
    _write,
    bundle_from_parts,
    forest_digest,
    load_bundle,
    save_bundle,
)
from forestae.data import Column, Schema, Table
from forestae.decode import SyntheticTrainingSet, build_synthetic_training
from forestae.forest import ForestParams, fit_completely_random, fit_supervised, route_table
from forestae.kernel import rf_kernel_train, write_coordinate, write_dense_csv
from forestae.spectral import SpectralModel, eigendecompose, with_time
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


def _rewrite(path, edit):
    """Apply ``edit(header, arrays)`` to a saved bundle's container as stored."""
    header, arrays = _read(path)
    edit(header, arrays)
    _write(path, header, arrays)


def _save(path, forest, model, synth):
    """Save a bundle of these parts under the forest's own digest."""
    save_bundle(ModelBundle(forest.schema, forest, model, synth, forest_digest(forest)), path)


def test_bundle_version_checked(tmp_path, parts):
    forest, model, synth, _ = parts
    path = tmp_path / "m.json"
    _save(path, forest, model, synth)
    _rewrite(path, lambda header, _: header.update(format_version=99))
    with pytest.raises(BundleError, match="version 99"):
        load_bundle(path)


def test_bundle_hash_guards_consistency(tmp_path, parts):
    forest, model, synth, _ = parts
    path = tmp_path / "m.json"
    _save(path, forest, model, synth)

    def edit(header, arrays):
        arrays["threshold"][0] = 123.456

    _rewrite(path, edit)
    with pytest.raises(BundleError, match="hash"):
        load_bundle(path)


def test_bundle_v1_rejected(tmp_path):
    # version 2 stored child pointers and leaf ids, version 3 the dropped
    # constant eigenpair's lambda0 and v0_max_dev, version 4 base64 arrays
    # inside the JSON; each is one line of JSON, so its first line is the whole
    # document, and all older formats are refused
    for version in (1, 2, 3, 4):
        doc = _dumps({"format_version": version, "forest": {"arrays": {}}, "forest_sha": "0"})
        for name, data in (("m.json", doc), ("m.json.gz", gzip.compress(doc))):
            path = tmp_path / name
            path.write_bytes(data)
            with pytest.raises(BundleError, match=f"version {version}.*refit"):
                load_bundle(path)


_README = b"# forestae\n\nAutoencoding tabular data with random forests.\n"


@pytest.mark.parametrize("name, payload, message", [
    ("README.md", _README, "is not a bundle: its first line is not JSON"),
    ("m.json.gz", gzip.compress(b"hello\nworld\n"), "is not a bundle: its first line is not JSON"),
    ("m.json", b'{"format_version":5}\n', "array list is malformed"),
    ("m.json", b"[1,2]\n", "is not a bundle: its first line is not a JSON object"),
    ("m.json.gz", _README, "is not a readable gzip file"),
    ("m.json", bytes(np.random.default_rng(0).integers(0, 256, 3000, dtype=np.uint8)),
     "is not a bundle: its first line is not JSON"),
    ("m.json", b'{"format_version":5,"arrays":[["V","<q9",[2]]]}\n', "array list is malformed"),
    ("m.json", b'{"format_version":5,"arrays":[["V","<f8",[4611686018427387904]]]}\n',
     "ends inside its V array"),
], ids=["text", "gzipped-text", "no-arrays", "json-list", "not-gzip", "random-bytes",
        "unknown-dtype", "huge-shape"])
def test_a_file_that_is_not_a_bundle_raises_bundle_error_naming_it(tmp_path, name, payload,
                                                                    message):
    path = tmp_path / name
    path.write_bytes(payload)
    with pytest.raises(BundleError, match=f"{name}.*{message}"):
        load_bundle(path)


def test_a_header_without_its_schema_raises_bundle_error(tmp_path, parts):
    forest, model, synth, _ = parts
    path = tmp_path / "m.json"
    _save(path, forest, model, synth)
    _rewrite(path, lambda header, _: header.pop("schema"))
    with pytest.raises(BundleError, match="m.json: the bundle header is malformed.*schema"):
        load_bundle(path)


@pytest.mark.parametrize("t", ["abc", [1], -1, -0.5, float("inf"), float("nan"), True, 10**400],
                         ids=["string", "list", "negative-int", "negative", "infinity", "nan",
                              "bool", "huge-int"])
def test_a_bad_diffusion_time_raises_bundle_error_naming_the_file(tmp_path, parts, t):
    forest, model, synth, _ = parts
    path = tmp_path / "m.json"
    _save(path, forest, model, synth)
    _rewrite(path, lambda header, _: header.update(t=t))
    with pytest.raises(BundleError, match="m.json: the diffusion time t=.* is not a finite"):
        load_bundle(path)


@pytest.mark.parametrize("t", [None, 0, 2, 0.5])
def test_a_null_or_finite_non_negative_diffusion_time_loads(tmp_path, parts, t):
    forest, model, synth, _ = parts
    path = tmp_path / "m.json"
    _save(path, forest, model, synth)
    _rewrite(path, lambda header, _: header.update(t=t))
    back = load_bundle(path).model
    assert back.t == t and (back.Z is None) == (t is None)


def test_saved_bundle_holds_no_derived_fields(tmp_path, parts):
    forest, model, synth, _ = parts
    path = tmp_path / "m.json"
    _save(path, forest, model, synth)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header["format_version"] == 5
    # the schema is stored once, with the forest; the spectral model is its
    # eigenpairs and t, and the synthetic set its rows and seed
    assert set(header) == {"arrays", "format_version", "forest_sha", "kind", "n_classes",
                           "params", "schema", "synthetic_seed", "t"}
    # each tree's split mask implies its children, leaf ids and leaf total,
    # and the schema which splits are Equals tests
    assert [name for name, _, _ in header["arrays"]] == [
        "n_nodes", "feature", "threshold", "leaf_count", "leaf_stat", "feature_ranges",
        "eigenvalues", "V", "synthetic",
    ]
    # thresholds are stored at splits only
    assert header["arrays"][2][2] == [int(np.count_nonzero(forest.feature >= 0))]


def test_array_codec_round_trips_dtype_and_shape(tmp_path):
    arrays = {
        "ints": np.arange(6, dtype=np.int32).reshape(2, 3),
        "flags": np.array([True, False]),
        "nan": np.array([[np.nan, 1.5]]),
        "empty": np.zeros((0, 4)),
        "signed_zero": np.array([0.0, -0.0]),
        "wide": np.array([-1, 2**40], dtype=np.int64),
        "counts": np.array([[3.0, 0.0], [70000.0, 1.0]]),
    }
    _write(tmp_path / "a.json", {"format_version": FORMAT_VERSION}, arrays)
    header, back = _read(tmp_path / "a.json")
    assert header == {"format_version": FORMAT_VERSION}
    for name, a in arrays.items():
        b = back[name].astype(a.dtype)
        assert b.shape == a.shape and b.tobytes() == a.tobytes(), name
        back[name][...] = 0  # read arrays are writable
    stored = {name: b.dtype.str for name, b in back.items()}
    assert stored == {"ints": "|u1", "flags": "|b1", "nan": "<f2", "empty": "|u1",
                      "signed_zero": "<f2", "wide": "<i8", "counts": "<u4"}


def _fit_kind(kind, table):
    params = ForestParams(n_trees=6, min_leaf=3, bootstrap=True, seed=7)
    x = table.values
    if kind == "regression":  # non-integral leaf means
        return fit_supervised(table, (Column("y"), x[:, 0] + np.sin(3 * x[:, 1])), params)
    if kind == "classification":  # integral class counts
        y = (x[:, 0] > 0).astype(float) + (x[:, 1] > 0.5)
        return fit_supervised(table, (Column("y", ("p", "q", "r")), y), params)
    return fit_completely_random(table, params)


@pytest.mark.parametrize("kind", ["classification", "regression", "completely_random"])
def test_narrowed_arrays_load_back_bit_for_bit(tmp_path, kind):
    table = make_mixed(60, seed=4)
    forest = _fit_kind(kind, table)
    model = with_time(eigendecompose(rf_kernel_train(forest, table), 2), 1.0)
    synth = build_synthetic_training(forest, table, 3)
    _save(tmp_path / "m.json.gz", forest, model, synth)
    back = load_bundle(tmp_path / "m.json.gz")
    pairs = [(a, getattr(back.forest, name)) for name, a in _forest_parts(forest)[1].items()]
    pairs += [(model.V, back.model.V), (model.eigenvalues, back.model.eigenvalues),
              (synth.table.values, back.synth.table.values)]
    for a, b in pairs:
        assert b.dtype == a.dtype and b.shape == a.shape and b.tobytes() == a.tobytes()
    stored = {name: a.dtype for name, a in _read(tmp_path / "m.json.gz")[1].items()}
    assert stored["leaf_count"].kind == "u" and stored["feature"] == np.int8
    assert stored["leaf_stat"] == (np.float64 if kind == "regression" else np.uint8)
    assert np.isnan(back.forest.feature_ranges[2]).all()  # the categorical column's box


@pytest.mark.parametrize("suffix", [".json", ".json.gz"])
def test_truncated_or_trailing_bytes_rejected(tmp_path, parts, suffix):
    forest, model, synth, _ = parts
    plain = tmp_path / "m.json"
    _save(plain, forest, model, synth)
    raw = plain.read_bytes()
    path = tmp_path / f"bad{suffix}"
    for payload, message in ((raw[:-1], "ends inside its synthetic array"),
                             (raw + b"\0", "bytes after its last array")):
        path.write_bytes(gzip.compress(payload) if suffix == ".json.gz" else payload)
        with pytest.raises(BundleError, match=message):
            load_bundle(path)


@pytest.mark.parametrize("value", [0.25, -0.0])
def test_writer_refuses_nonzero_leaf_thresholds(tmp_path, parts, value):
    forest = deepcopy(parts[0])
    forest.threshold[forest.feature < 0] = value
    with pytest.raises(BundleError, match="leaf's threshold"):
        _save(tmp_path / "m.json", forest, *parts[1:3])
    assert not (tmp_path / "m.json").exists()


def test_writer_refuses_arrays_that_would_not_load_back(tmp_path, parts):
    forest = replace(parts[0], leaf_count=parts[0].leaf_count.astype(np.int32))
    with pytest.raises(BundleError, match="leaf_count array is int32, not int64"):
        _save(tmp_path / "m.json", forest, *parts[1:3])


def _pinned_bundle():
    """A small fixed-seed bundle whose spectral part is set by hand, so its
    bytes do not depend on the eigensolver."""
    table = make_mixed(30, seed=1)
    forest = fit_completely_random(table, ForestParams(n_trees=3, min_leaf=3, seed=2))
    V = np.arange(60, dtype=np.float64).reshape(30, 2) / 64
    model = with_time(SpectralModel(30, 2, np.array([0.5, 0.25]), V), 1.0)
    return bundle_from_parts(forest, model, SyntheticTrainingSet(table, 3))


# sha256 of _pinned_bundle's uncompressed bytes; a change to the format moves it
_PINNED_BUNDLE = "75c344bc6299638a032962a62c21fc179391a9d67d81f3048fc37b2ae45ad344"


def test_bundle_bytes_match_pinned_digest(tmp_path):
    save_bundle(_pinned_bundle(), tmp_path / "m.json")
    assert hashlib.sha256((tmp_path / "m.json").read_bytes()).hexdigest() == _PINNED_BUNDLE


def test_same_bundle_gives_the_same_bytes_at_two_paths(tmp_path):
    (tmp_path / "a").mkdir()
    first, second = tmp_path / "a" / "m.json.gz", tmp_path / "other.json.gz"
    save_bundle(_pinned_bundle(), first)
    save_bundle(_pinned_bundle(), second)
    assert first.read_bytes() == second.read_bytes()


def _tamper(forest, edit):
    """A copy of the forest with ``edit(tree)`` applied to its first tree."""
    forest = deepcopy(forest)
    edit(forest.trees[0])
    return forest


def _first_leaf(tree):
    return int(np.flatnonzero(tree.feature < 0)[0])


def _reversed_ranges(arrays):
    ranges = arrays["feature_ranges"].astype(np.float64)
    arrays["feature_ranges"] = np.column_stack([ranges[:, 1] + 1.0, ranges[:, 0]])


@pytest.mark.parametrize("edit, message", [
    (lambda h, a: a.pop("leaf_stat"), "the bundle lacks its leaf_stat array"),
    (lambda h, a: a.update(threshold=a["threshold"][:-1]), "tree arrays do not match"),
    (lambda h, a: a.update(feature=np.where(a["feature"] >= 0, 99, a["feature"])),
     "a split names column >= 3"),
    (lambda h, a: a.update(feature_ranges=a["feature_ranges"][:1]),
     r"feature_ranges is not shaped \(3, 2\)"),
    (lambda h, a: _reversed_ranges(a), "feature_ranges has a continuous row"),
    (lambda h, a: h.update(forest_sha="0" * 64), "forest hash mismatch"),
    (lambda h, a: a.update(eigenvalues=a["eigenvalues"][:1]), "eigenvalue count"),
    (lambda h, a: a.update(synthetic=a["synthetic"][:-1]),
     "spectral model and synthetic set disagree on n"),
], ids=["missing-array", "threshold-count", "check-trees", "ranges-shape", "ranges-order",
        "digest", "eigenvalue-count", "synthetic-rows"])
def test_every_check_after_the_header_names_the_file(tmp_path, parts, edit, message):
    forest, model, synth, _ = parts
    path = tmp_path / "m.json"
    _save(path, forest, model, synth)
    _rewrite(path, edit)
    with pytest.raises(BundleError, match=f"^{re.escape(str(path))}: {message}"):
        load_bundle(path)


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
    _save(path, _tamper(forest, edit), model, synth)
    with pytest.raises(BundleError, match=message):
        load_bundle(path)


def _without_leaf_stat(path, forest, model, synth):
    _save(path, forest, model, synth)
    _rewrite(path, lambda _, arrays: arrays.pop("leaf_stat"))


def _two_feature_ranges(path, forest, model, synth):
    _save(path, replace(forest, feature_ranges=forest.feature_ranges[:2]), model, synth)


def _ranges(row: int, low: float, high: float):
    """Save with one continuous row of ``feature_ranges`` set to (low, high)."""
    def edit(path, forest, model, synth):
        ranges = forest.feature_ranges.copy()
        ranges[row] = low, high
        _save(path, replace(forest, feature_ranges=ranges), model, synth)

    return edit


def _short_thresholds(path, forest, model, synth):
    _save(path, forest, model, synth)
    _rewrite(path, lambda _, arrays: arrays.update(threshold=arrays["threshold"][:-1]))


def _fractional_feature(path, forest, model, synth):
    _save(path, forest, model, synth)
    _rewrite(path, lambda _, arrays: arrays.update(feature=arrays["feature"] + 0.5))


@pytest.mark.parametrize("edit, message", [
    (_without_leaf_stat, "lacks its leaf_stat array"),
    (_two_feature_ranges, r"feature_ranges is not shaped \(3, 2\)"),
    pytest.param(_ranges(0, 1.0, -1.0), "feature_ranges", id="_inverted_range-feature_ranges"),
    pytest.param(_ranges(1, -1.0, np.inf), "feature_ranges", id="_infinite_range-feature_ranges"),
    (_short_thresholds, "do not match the per-tree sizes"),
    (_fractional_feature, "lacks its feature array as int32 or narrower"),
])
def test_malformed_forest_arrays_rejected_with_valid_digest(tmp_path, parts, edit, message):
    path = tmp_path / "m.json"
    edit(path, *parts[:3])
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


def _one_shot(b, stored: dict) -> bytes:
    """The bundle built whole: its header line, then every array cast to its
    ``stored`` dtype, one after another."""
    forest, m = b.forest, b.model
    arrays = {
        "n_nodes": forest.n_nodes, "feature": forest.feature,
        "threshold": forest.threshold[forest.feature >= 0], "leaf_count": forest.leaf_count,
        "leaf_stat": forest.leaf_stat, "feature_ranges": forest.feature_ranges,
        "eigenvalues": m.eigenvalues, "V": m.V, "synthetic": b.synth.table.values,
    }
    header = {
        "format_version": FORMAT_VERSION, "schema": asdict(forest.schema),
        "params": asdict(forest.params), "kind": forest.kind, "n_classes": forest.n_classes,
        "forest_sha": b.forest_sha, "t": m.t, "synthetic_seed": b.synth.seed,
        "arrays": [[name, stored[name], list(a.shape)] for name, a in arrays.items()],
    }
    return (json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"
            + b"".join(a.astype(stored[name]).tobytes() for name, a in arrays.items()))


@pytest.mark.parametrize("suffix", [".json", ".json.gz"])
@pytest.mark.parametrize("block", [7, 1 << 16])
def test_streamed_write_equals_the_one_shot_form(tmp_path, parts, monkeypatch, suffix, block):
    forest, model, synth, _ = parts
    b = bundle_from_parts(forest, model, synth)
    monkeypatch.setattr(bundle_module, "_WRITE_ITEMS", block)  # 7: every array in slices
    path = tmp_path / f"m{suffix}"
    save_bundle(b, path)
    with (gzip.open if suffix == ".json.gz" else open)(path, "rb") as fh:
        stored = {name: dtype for name, dtype, _ in json.loads(fh.readline())["arrays"]}
    expected = _one_shot(b, stored)
    if suffix == ".json.gz":
        buf = io.BytesIO()
        with gzip.GzipFile(filename="", fileobj=buf, mode="wb", mtime=0,
                           compresslevel=GZIP_LEVEL) as fh:
            fh.write(expected)
        expected = buf.getvalue()
    assert path.read_bytes() == expected


@pytest.fixture(scope="module")
def bundle_100():
    """A fitted 100-tree bundle: its forest arrays outweigh every other
    allocation of a save."""
    rng = np.random.default_rng(24)
    table = Table(Schema(tuple(Column(f"x{j}") for j in range(8))), rng.normal(size=(600, 8)))
    forest = fit_completely_random(table, ForestParams(n_trees=100, min_leaf=1, seed=24))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "kernel graph appears disconnected")
        model = with_time(eigendecompose(rf_kernel_train(forest, table), 2), 1.0)
    return bundle_from_parts(forest, model, build_synthetic_training(forest, table, seed=25))


def _traced_peak(fn) -> int:
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _stored_forest_arrays(forest) -> list[np.ndarray]:
    return list(_forest_parts(forest)[1].values())


def test_forest_digest_reads_the_arrays_in_place(bundle_100):
    forest = bundle_100.forest
    forest_bytes = sum(a.nbytes for a in _stored_forest_arrays(forest))
    assert _traced_peak(lambda: forest_digest(forest)) < 0.05 * forest_bytes


@pytest.mark.parametrize("suffix", [".json", ".json.gz"])
def test_streamed_write_never_holds_the_whole_text(tmp_path, bundle_100, suffix):
    # the write holds the split thresholds (half the largest array) and one
    # cast of them; gzip adds its deflate state and one block's output, about
    # 0.45 MB. Holding the whole file too would add its 0.77 MB.
    arrays = _stored_forest_arrays(bundle_100.forest)
    largest = max(a.nbytes for a in (*arrays, bundle_100.model.V, bundle_100.synth.table.values))
    peak = _traced_peak(lambda: save_bundle(bundle_100, tmp_path / f"m{suffix}"))
    assert peak < 1.5 * largest + (1 << 19 if suffix == ".json.gz" else 0)


@pytest.mark.parametrize("suffix", [".json", ".json.gz"])
def test_save_holds_no_stacked_copy_of_the_forest(tmp_path, bundle_100, suffix):
    # a stacked copy of the forest arrays alone would hold their bytes
    peak = _traced_peak(lambda: save_bundle(bundle_100, tmp_path / f"m{suffix}"))
    assert peak < sum(a.nbytes for a in _stored_forest_arrays(bundle_100.forest))


def test_loaded_trees_are_views_of_the_stacked_arrays(tmp_path, parts):
    forest, model, synth, _ = parts
    save_bundle(bundle_from_parts(forest, model, synth), tmp_path / "m.json")
    back = load_bundle(tmp_path / "m.json").forest
    for tree in back.trees:
        for name in ("feature", "threshold", "leaf_count", "leaf_stat"):
            assert np.shares_memory(getattr(tree, name), getattr(back, name))


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
