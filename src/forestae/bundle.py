"""Versioned on-disk persistence for a fitted pipeline; the only module that
knows the layout.

A bundle stores what cannot be recomputed: the forest with its schema, the
eigenpairs and diffusion time, and the synthetic training rows. The embedding
``Z`` is recomputed on load, and so are each tree's child pointers and leaf
ids (from its breadth-first split mask) and its Equals splits (from the
schema); the commands that need the synthetic rows' leaves route them. Each
array is stored once as little-endian bytes (``encode_array``) inside
canonical JSON (sorted keys), so a fixed seed yields byte-identical bundles;
paths ending in .gz are gzipped. The JSON is written as a stream, one array's
text at a time.
"""

from __future__ import annotations

import base64
import contextlib
import gzip
import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import Column, Schema, Table
from .decode import SyntheticTrainingSet
from .forest import Forest, ForestParams, breadth_first_layout
from .spectral import SpectralModel, with_time

FORMAT_VERSION = 4
# zlib level 6: measured against the default 9 on fitted bundles, 4-11x faster
# to write and at most 4 % larger; level 5 is 8 % larger on 500-tree forests
GZIP_LEVEL = 6
# Characters per file write. The encoder yields an array's base64 text as one
# chunk while it still holds the unquoted string; encoding and compressing the
# chunk in slices adds no third whole copy. Saving the 500-tree banknote bundle
# (4.7 MB of JSON) traced a 7.2 MB peak this way, against 10.4 MB with whole
# chunks.
_WRITE_BLOCK = 1 << 16

__all__ = [
    "ModelBundle", "save_bundle", "load_bundle", "forest_digest", "forest_to_dict",
    "forest_from_dict", "encode_array", "decode_array",
]

# Stored forest arrays, each the ``Forest`` field of its name: the per-tree
# node counts, one entry per node, one per leaf, and the training feature box
_PER_NODE = ("feature", "threshold")
_PER_LEAF = ("leaf_count", "leaf_stat")
_ARRAYS = ("n_nodes", *_PER_NODE, *_PER_LEAF, "feature_ranges")


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
    """The forest's small JSON fields, and its stored arrays, not copied."""
    meta = {"schema": asdict(forest.schema), "params": asdict(forest.params),
            "kind": forest.kind, "n_classes": forest.n_classes}
    return meta, {name: getattr(forest, name) for name in _ARRAYS}


def forest_digest(forest: Forest) -> str:
    """sha256 over the forest's JSON fields and its canonical array bytes."""
    meta, arrays = _forest_parts(forest)
    h = hashlib.sha256(_dumps(meta))
    for name in sorted(arrays):
        a = _canonical(arrays[name])
        h.update(_dumps([name, a.dtype.str, a.shape]))
        h.update(a)
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
    missing = [name for name in _ARRAYS if name not in d["arrays"]]
    if missing:
        raise BundleError(f"the forest lacks its {', '.join(missing)} array")
    arrays = {name: decode_array(d["arrays"][name]) for name in _ARRAYS}
    schema = Schema(tuple(
        Column(c["name"], c["levels"] and tuple(c["levels"])) for c in d["schema"]["columns"]
    ))
    _check_trees(arrays, schema.n_levels)
    if arrays["feature_ranges"].shape != (schema.n_columns, 2):
        raise BundleError(f"feature_ranges is not shaped ({schema.n_columns}, 2)")
    return Forest(**arrays, schema=schema, params=ForestParams(**d["params"]), kind=d["kind"],
                  n_classes=d["n_classes"])


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
    meta, arrays = _forest_parts(bundle.forest)
    # arrays stay numpy here; the encoder base64-encodes each one when it
    # reaches it, so the whole JSON text never exists at once
    doc = {
        "format_version": FORMAT_VERSION,
        "forest": {**meta, "arrays": arrays},
        "forest_sha": bundle.forest_sha,
        "spectral": {"eigenvalues": m.eigenvalues, "V": m.V, "t": m.t},
        "synthetic": {"values": bundle.synth.table.values, "seed": bundle.synth.seed},
    }
    chunks = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                              default=encode_array).iterencode(doc)
    path = Path(path)
    with open(path, "wb") as raw:
        # fixed mtime and no embedded filename keep the container byte-stable;
        # the stream is never flushed midway, which would change its bytes
        with (gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0,
                            compresslevel=GZIP_LEVEL)
              if path.suffix == ".gz" else contextlib.nullcontext(raw)) as fh:
            for chunk in chunks:
                for i in range(0, len(chunk), _WRITE_BLOCK):
                    fh.write(chunk[i:i + _WRITE_BLOCK].encode())


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
