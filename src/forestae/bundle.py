"""Versioned on-disk persistence for a fitted pipeline; the only module that
knows the layout.

A bundle stores what cannot be recomputed: the forest with its schema, the
eigenpairs and diffusion time, and the synthetic training rows. The embedding
``Z`` and the rows' leaf ids are recomputed on load. Each array is stored once
as little-endian bytes (``encode_array``) inside canonical JSON (sorted keys),
so a fixed seed yields byte-identical bundles; paths ending in .gz are gzipped.
"""

from __future__ import annotations

import base64
import gzip
import hashlib
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .data import Column, Schema, Table
from .decode import SyntheticTrainingSet
from .forest import Forest, ForestParams, Tree
from .spectral import SpectralModel, with_time

FORMAT_VERSION = 2

__all__ = [
    "ModelBundle", "save_bundle", "load_bundle", "forest_digest", "forest_to_dict",
    "forest_from_dict", "encode_array", "decode_array",
]

# Tree fields with one entry per leaf; the others have one per node
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
    ``Tree`` field plus the per-tree sizes."""
    trees = forest.trees
    meta = {"schema": asdict(forest.schema), "params": asdict(forest.params),
            "kind": forest.kind, "n_classes": forest.n_classes}
    arrays = {f.name: np.concatenate([getattr(t, f.name) for t in trees]) for f in fields(Tree)}
    arrays["n_nodes"] = np.array([t.n_nodes for t in trees], dtype=np.int64)
    arrays["n_leaves"] = np.array([t.n_leaves for t in trees], dtype=np.int64)
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


def _check_trees(a: dict, d: int) -> None:
    """Reject stacked tree arrays that routing could not walk to a leaf.

    Nodes are stored parent-first: each child id lies after its parent's and
    inside its tree, and every non-root node has exactly one parent. A tree's
    leaves carry the ids 0..L-1, each with a count of at least one.
    """
    sizes, n_leaves = a["n_nodes"], a["n_leaves"]
    if sizes.shape != n_leaves.shape or np.any(sizes < 1) or any(
        a[f.name].shape[:1] != ((n_leaves if f.name in _PER_LEAF else sizes).sum(),)
        for f in fields(Tree)
    ):
        raise BundleError("tree arrays do not match the per-tree sizes")
    tree = np.repeat(np.arange(sizes.size), sizes)
    root = (np.cumsum(sizes) - sizes)[tree]  # global id of each node's tree root
    local = np.arange(tree.size) - root
    inner = a["feature"] >= 0
    kids = np.stack([a["left"], a["right"]])
    if np.any((kids >= 0) != inner) or np.any((a["leaf_id"] >= 0) == inner):
        raise BundleError("a node is neither a split with two children nor a leaf")
    if np.any(a["feature"] >= d):
        raise BundleError(f"a split names column >= {d}")
    kids = kids[:, inner]
    if np.any((kids <= local[inner]) | (kids >= sizes[tree[inner]])):
        raise BundleError("a child id is out of range or not after its parent's")
    if not np.array_equal(np.sort((kids + root[inner]).ravel()), np.flatnonzero(local > 0)):
        raise BundleError("a node is not the child of exactly one node")
    key = (np.cumsum(n_leaves) - n_leaves)[tree] + a["leaf_id"]  # global leaf id
    if np.any(a["leaf_id"] >= n_leaves[tree]) or not np.array_equal(
        np.sort(key[~inner]), np.arange(n_leaves.sum())
    ):
        raise BundleError("a tree's leaf ids are not 0..L-1")
    if np.any(a["leaf_count"] < 1):
        raise BundleError("a leaf count is below 1")


def forest_from_dict(d: dict) -> Forest:
    arrays = {name: decode_array(v) for name, v in d["arrays"].items()}
    schema = Schema(tuple(
        Column(c["name"], c["levels"] and tuple(c["levels"])) for c in d["schema"]["columns"]
    ))
    _check_trees(arrays, schema.n_columns)
    node_cuts, leaf_cuts = (np.cumsum(arrays[k])[:-1] for k in ("n_nodes", "n_leaves"))
    split = [
        np.split(arrays[f.name], leaf_cuts if f.name in _PER_LEAF else node_cuts)
        for f in fields(Tree)
    ]
    return Forest([Tree(*parts) for parts in zip(*split)], schema, arrays["feature_ranges"],
                  ForestParams(**d["params"]), d["kind"], d["n_classes"])


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
                     "lambda0": m.lambda0, "v0_max_dev": m.v0_max_dev, "t": m.t},
        "synthetic": {"values": encode_array(bundle.synth.table.values),
                      "seed": bundle.synth.seed},
    }
    payload = _dumps(doc)
    path = Path(path)
    if path.suffix == ".gz":
        # fixed mtime and no embedded filename keep the container byte-stable
        with open(path, "wb") as raw, gzip.GzipFile(
            filename="", fileobj=raw, mode="wb", mtime=0
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
    model = SpectralModel(V.shape[0], V.shape[1], decode_array(s["eigenvalues"]), V,
                          s["lambda0"], s["v0_max_dev"])
    synth = SyntheticTrainingSet(Table(forest.schema, decode_array(syn["values"])), syn["seed"])
    if s["t"] is not None:
        model = with_time(model, s["t"])
    bundle = ModelBundle(forest.schema, forest, model, synth, doc["forest_sha"])
    bundle.validate()
    return bundle
