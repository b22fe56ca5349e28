"""Versioned on-disk persistence for a fitted pipeline; the only module that
knows the layout.

A bundle stores what cannot be recomputed: the forest with its schema, the
eigenpairs and diffusion time, and the synthetic training rows. The embedding
``Z`` is recomputed on load, and so are each tree's child pointers and leaf
ids (from its breadth-first split mask) and its Equals splits (from the
schema); the commands that need the synthetic rows' leaves route them. Each
array is stored once as little-endian bytes (``encode_array``) inside
canonical JSON (sorted keys), so a fixed seed yields byte-identical bundles;
paths ending in .gz are gzipped.
"""

from __future__ import annotations

import base64
import gzip
import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import Column, Schema, Table
from .decode import SyntheticTrainingSet
from .forest import Forest, ForestParams, Tree, breadth_first_layout, equals_splits
from .spectral import SpectralModel, with_time

FORMAT_VERSION = 4
# zlib level 6: measured against the default 9 on fitted bundles, 4-11x faster
# to write and at most 4 % larger; level 5 is 8 % larger on 500-tree forests
GZIP_LEVEL = 6

__all__ = [
    "ModelBundle", "save_bundle", "load_bundle", "forest_digest", "forest_to_dict",
    "forest_from_dict", "encode_array", "decode_array",
]

# Stored tree fields: one entry per node, then one per leaf
_PER_NODE = ("feature", "threshold")
_PER_LEAF = ("leaf_count", "leaf_stat")


class BundleError(ValueError):
    pass


def _dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _canonical(a) -> np.ndarray:
    a = np.asarray(a)
    return np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<"))


def encode_array(a) -> dict:
    """Self-describing JSON form of an array: dtype, shape, base64 bytes."""
    a = _canonical(a)
    data = base64.b64encode(a.tobytes()).decode("ascii")
    return {"dtype": a.dtype.str, "shape": list(a.shape), "data": data}


def decode_array(d: dict) -> np.ndarray:
    buf = bytearray(base64.b64decode(d["data"]))  # a writable buffer
    return np.frombuffer(buf, dtype=np.dtype(d["dtype"])).reshape(d["shape"])


def _forest_parts(forest: Forest) -> tuple[dict, dict]:
    """The forest's small JSON fields, and its arrays: one stacked array per
    stored ``Tree`` field plus the per-tree node counts."""
    trees = forest.trees
    meta = {"schema": asdict(forest.schema), "params": asdict(forest.params),
            "kind": forest.kind, "n_classes": forest.n_classes}
    arrays = {name: np.concatenate([getattr(t, name) for t in trees])
              for name in _PER_NODE + _PER_LEAF}
    arrays["n_nodes"] = np.array([t.n_nodes for t in trees], dtype=np.int64)
    arrays["feature_ranges"] = forest.feature_ranges
    return meta, arrays


def forest_digest(forest: Forest) -> str:
    """sha256 over the forest's JSON fields and its canonical array bytes."""
    meta, arrays = _forest_parts(forest)
    h = hashlib.sha256(_dumps(meta))
    for name in sorted(arrays):
        a = _canonical(arrays[name])
        h.update(_dumps([name, a.dtype.str, a.shape]))
        h.update(a.tobytes())
    return h.hexdigest()


def forest_to_dict(forest: Forest) -> dict:
    meta, arrays = _forest_parts(forest)
    return {**meta, "arrays": {name: encode_array(a) for name, a in arrays.items()}}


def _check_trees(a: dict, n_levels: np.ndarray) -> None:
    """Reject stacked tree arrays that routing could not walk to a leaf.

    Each tree's split mask must describe a full binary tree in breadth-first
    order: 2I + 1 nodes for I splits, and the implied left child of every
    split after it, so every path descends. Splits name schema columns and
    test a finite cut or, on a categorical column, one of its level codes;
    every leaf counts at least one row.
    """
    sizes = a["n_nodes"]
    if sizes.ndim != 1 or not sizes.size or np.any(sizes < 1) or any(
        a[name].shape[:1] != (sizes.sum(),) for name in _PER_NODE
    ):
        raise BundleError("tree arrays do not match the per-tree sizes")
    split = a["feature"] >= 0
    roots = np.cumsum(sizes) - sizes
    n_splits = np.add.reduceat(split.astype(np.int64), roots)
    if np.any(sizes != 2 * n_splits + 1):
        raise BundleError("a tree's split mask does not make a full binary tree")
    if any(a[name].shape[:1] != ((n_splits + 1).sum(),) for name in _PER_LEAF):
        raise BundleError("tree arrays do not match the per-tree sizes")
    left, _ = breadth_first_layout(split, np.repeat(roots, sizes))
    if np.any(left[split] <= np.flatnonzero(split)):
        raise BundleError("an implied child is not after its parent")
    feature, code = a["feature"][split], a["threshold"][split]
    if np.any(feature >= n_levels.size):
        raise BundleError(f"a split names column >= {n_levels.size}")
    levels = n_levels[feature]
    is_code = (code == np.floor(code)) & (code >= 0) & (code < levels)
    if not np.all(np.where(levels > 0, is_code, np.isfinite(code))):
        raise BundleError("a split's threshold is neither a finite cut nor a level code")
    if np.any(a["leaf_count"] < 1):
        raise BundleError("a leaf count is below 1")


def forest_from_dict(d: dict) -> Forest:
    arrays = {name: decode_array(v) for name, v in d["arrays"].items()}
    schema = Schema(tuple(
        Column(c["name"], c["levels"] and tuple(c["levels"])) for c in d["schema"]["columns"]
    ))
    n_levels = schema.n_levels
    _check_trees(arrays, n_levels)
    sizes = arrays["n_nodes"]
    node_cuts, leaf_cuts = np.cumsum(sizes)[:-1], np.cumsum((sizes + 1) // 2)[:-1]
    feature, threshold = (np.split(arrays[k], node_cuts) for k in _PER_NODE)
    leaf_count, leaf_stat = (np.split(arrays[k], leaf_cuts) for k in _PER_LEAF)
    trees = [Tree(f, t, equals_splits(n_levels, f), c, s)
             for f, t, c, s in zip(feature, threshold, leaf_count, leaf_stat)]
    return Forest(trees, schema, arrays["feature_ranges"], ForestParams(**d["params"]),
                  d["kind"], d["n_classes"])


@dataclass
class ModelBundle:
    schema: Schema
    forest: Forest
    model: SpectralModel
    synth: SyntheticTrainingSet
    forest_sha: str

    def check_shapes(self) -> None:
        if self.model.eigenvalues.shape != (self.model.d_z,):
            raise BundleError("eigenvalue count does not match the embedding dimension")
        if self.model.n != self.synth.n:
            raise BundleError("spectral model and synthetic set disagree on n")

    def validate(self) -> None:
        self.check_shapes()
        if forest_digest(self.forest) != self.forest_sha:
            raise BundleError("forest hash mismatch: bundle components are inconsistent")


def bundle_from_parts(
    forest: Forest, model: SpectralModel, synth: SyntheticTrainingSet
) -> ModelBundle:
    bundle = ModelBundle(forest.schema, forest, model, synth, forest_digest(forest))
    bundle.check_shapes()  # the digest was just computed from this forest
    return bundle


def save_bundle(bundle: ModelBundle, path: str | Path) -> None:
    bundle.validate()
    m = bundle.model  # n, d_z and Z follow from the eigenpairs and t
    doc = {
        "format_version": FORMAT_VERSION,
        "forest": forest_to_dict(bundle.forest),
        "forest_sha": bundle.forest_sha,
        "spectral": {"eigenvalues": encode_array(m.eigenvalues), "V": encode_array(m.V),
                     "t": m.t},
        "synthetic": {"values": encode_array(bundle.synth.table.values),
                      "seed": bundle.synth.seed},
    }
    payload = _dumps(doc)
    path = Path(path)
    if path.suffix == ".gz":
        # fixed mtime and no embedded filename keep the container byte-stable
        with open(path, "wb") as raw, gzip.GzipFile(
            filename="", fileobj=raw, mode="wb", mtime=0, compresslevel=GZIP_LEVEL
        ) as fh:
            fh.write(payload)
    else:
        path.write_bytes(payload)


def load_bundle(path: str | Path) -> ModelBundle:
    path = Path(path)
    raw = path.read_bytes()
    if path.suffix == ".gz":
        raw = gzip.decompress(raw)
    doc = json.loads(raw)
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise BundleError(f"unsupported bundle format version {version!r}; "
                          f"refit the model to write version {FORMAT_VERSION}")
    forest = forest_from_dict(doc["forest"])
    s, syn = doc["spectral"], doc["synthetic"]
    V = decode_array(s["V"])
    model = SpectralModel(V.shape[0], V.shape[1], decode_array(s["eigenvalues"]), V)
    synth = SyntheticTrainingSet(Table(forest.schema, decode_array(syn["values"])), syn["seed"])
    if s["t"] is not None:
        model = with_time(model, s["t"])
    bundle = ModelBundle(forest.schema, forest, model, synth, doc["forest_sha"])
    bundle.validate()
    return bundle
