"""Versioned on-disk persistence for a fitted pipeline; the only module that
knows the layout. A bundle stores what cannot be recomputed: the forest with
its schema, the eigenpairs and diffusion time, and the synthetic rows; load
derives ``Z``, each tree's children and leaf ids from its breadth-first split
mask, its Equals splits and its 0.0 leaf thresholds. The file is one line of
canonical JSON, then each array's little-endian bytes in the narrowest dtype
that gives them back, written as it comes; .gz paths are gzipped.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import json
import math
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import Column, Schema, Table
from .decode import SyntheticTrainingSet
from .forest import Forest, ForestParams, breadth_first_layout
from .spectral import SpectralModel, with_time

FORMAT_VERSION = 5
# zlib level 6, on the banknote and clusters bundles: level 9 is 0.1-0.9 % smaller
# and 2.6-6.3x slower to save, level 1 1.4-3.7 % larger and 1.2-3.0x faster
GZIP_LEVEL = 6

__all__ = ["ModelBundle", "save_bundle", "load_bundle", "forest_digest"]

# Stored forest arrays, each the ``Forest`` field of its name: the per-tree
# node counts, one entry per node, one per leaf, and the training feature box
_PER_NODE = ("feature", "threshold")
_PER_LEAF = ("leaf_count", "leaf_stat")
_ARRAYS = ("n_nodes", *_PER_NODE, *_PER_LEAF, "feature_ranges")
# every stored array in write order, and its dtype in memory
_DTYPES = {**dict.fromkeys((*_ARRAYS, "eigenvalues", "V", "synthetic"), np.dtype("<f8")),
           "n_nodes": np.dtype("<i8"), "feature": np.dtype("<i4"), "leaf_count": np.dtype("<i8")}
# narrower stored dtypes, tried narrowest first; integers stay integers
_NARROW = tuple(np.dtype(t) for t in ("u1", "i1", "<u2", "<i2", "<f2", "<u4", "<i4", "<f4"))
_WRITE_ITEMS = 1 << 15  # elements cast and written at once; bounds zlib's output buffer
# bytes read at a time: memory follows the bytes a file holds, not the array
# sizes its header declares
_READ_BYTES = 1 << 20


class BundleError(ValueError):
    pass


def _dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _canonical(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.asarray(a).dtype.newbyteorder("<"))


def _narrowest(a: np.ndarray) -> np.dtype:
    """The narrowest dtype whose round trip gives ``a``'s bytes back."""
    flat = _canonical(a).reshape(-1)
    bits = f"<u{flat.itemsize}"  # compared as bytes: -0.0 and NaN stay floats
    with np.errstate(invalid="ignore", over="ignore"):
        for t in _NARROW:
            if (t.itemsize < flat.itemsize and t.kind in "ui" + flat.dtype.kind
                    and np.array_equal(flat.astype(t).astype(flat.dtype).view(bits),
                                       flat.view(bits))):
                return t
    return flat.dtype


def _write(path: str | Path, header: dict, arrays: dict) -> None:
    """The container: one JSON line, ``header`` and each array's [name, stored
    dtype, shape], then the arrays' bytes in that order."""
    stored = {name: _narrowest(a) for name, a in arrays.items()}
    header = {**header, "arrays": [[k, stored[k].str, list(a.shape)] for k, a in arrays.items()]}
    # fixed mtime and no embedded filename keep the container byte-stable;
    # the stream is never flushed midway, which would change its bytes
    with open(path, "wb") as raw, (
        gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0, compresslevel=GZIP_LEVEL)
        if Path(path).suffix == ".gz" else contextlib.nullcontext(raw)
    ) as fh:
        fh.write(_dumps(header) + b"\n")
        for name, a in arrays.items():
            flat = _canonical(a).reshape(-1)
            for i in range(0, flat.size, _WRITE_ITEMS):
                fh.write(flat[i:i + _WRITE_ITEMS].astype(stored[name]))


def _header(line: bytes, path) -> dict:
    """The container's first line as a current-version header whose array
    list reads as stored arrays."""
    try:
        header = json.loads(line)  # a version 1-4 file is one JSON line
    except ValueError:  # not UTF-8 or not JSON
        raise BundleError(f"{path} is not a bundle: its first line is not JSON") from None
    if not isinstance(header, dict):
        raise BundleError(f"{path} is not a bundle: its first line is not a JSON object")
    if (version := header.get("format_version")) != FORMAT_VERSION:
        raise BundleError(f"{path}: unsupported bundle format version {version!r}; "
                          f"refit the model to write version {FORMAT_VERSION}")
    entries = header.get("arrays")
    if not isinstance(entries, list) or not all(map(_is_entry, entries)):
        raise BundleError(f"{path}: the bundle header's array list is malformed")
    return header


def _is_entry(e) -> bool:
    """Whether ``e`` reads as [name, bool or number dtype, shape]."""
    if not (isinstance(e, list) and len(e) == 3 and isinstance(e[0], str)
            and isinstance(e[1], str) and isinstance(e[2], list)
            and all(type(n) is int and n >= 0 for n in e[2])):
        return False
    try:
        return np.dtype(e[1]).kind in "biuf"
    except (TypeError, ValueError):
        return False


def _read(path: str | Path) -> tuple[dict, dict]:
    """The header of a current-version container and its arrays as stored;
    a file that is not one raises ``BundleError`` naming it."""
    try:
        with (gzip.open if Path(path).suffix == ".gz" else open)(path, "rb") as fh:
            header = _header(fh.readline(), path)
            arrays = {}
            for name, dtype, shape in header.pop("arrays"):
                size = np.dtype(dtype).itemsize * math.prod(shape)
                buf = bytearray()  # a writable buffer
                while len(buf) < size and (block := fh.read(min(size - len(buf), _READ_BYTES))):
                    buf += block
                if len(buf) != size:
                    raise BundleError(f"{path}: the bundle ends inside its {name} array")
                arrays[name] = np.frombuffer(buf, dtype=dtype).reshape(shape)
            if fh.read(1):
                raise BundleError(f"{path}: the bundle has bytes after its last array")
    except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise BundleError(f"{path} is not a readable gzip file: {exc}") from None
    return header, arrays


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


def bundle_from_parts(forest: Forest, model: SpectralModel,
                      synth: SyntheticTrainingSet) -> ModelBundle:
    bundle = ModelBundle(forest.schema, forest, model, synth, forest_digest(forest))
    bundle.check_shapes()  # the digest was just computed from this forest
    return bundle


def save_bundle(bundle: ModelBundle, path: str | Path) -> None:
    bundle.validate()
    m = bundle.model  # n, d_z and Z follow from the eigenpairs and t
    meta, arrays = _forest_parts(bundle.forest)
    arrays.update(eigenvalues=m.eigenvalues, V=m.V, synthetic=bundle.synth.table.values)
    if name := next((k for k, a in arrays.items() if a.dtype != _DTYPES[k]), None):
        raise BundleError(f"the {name} array is {arrays[name].dtype}, not {_DTYPES[name]}")
    if arrays["threshold"][arrays["feature"] < 0].view("<u8").any():  # a bit set: not +0.0
        raise BundleError("a leaf's threshold is not 0.0; only split thresholds are stored")
    arrays["threshold"] = arrays["threshold"][arrays["feature"] >= 0]
    _write(path, {"format_version": FORMAT_VERSION, **meta, "forest_sha": bundle.forest_sha,
                  "t": m.t, "synthetic_seed": bundle.synth.seed}, arrays)


def load_bundle(path: str | Path) -> ModelBundle:
    header, stored = _read(path)
    a = {}
    for name, target in _DTYPES.items():  # widened back to the in-memory dtypes
        if name not in stored or not np.can_cast(stored[name].dtype, target):
            raise BundleError(f"the bundle lacks its {name} array as {target} or narrower")
        a[name] = stored[name].astype(target, copy=False)
    split = a["feature"] >= 0
    if a["threshold"].shape != (np.count_nonzero(split),):
        raise BundleError("tree arrays do not match the per-tree sizes")
    a["threshold"] = np.zeros(split.shape)
    a["threshold"][split] = stored["threshold"]
    try:
        schema = Schema(tuple(Column(c["name"], c["levels"] and tuple(c["levels"]))
                              for c in header["schema"]["columns"]))
        params = ForestParams(**header["params"])
        kind, n_classes, t, seed, sha = (header[k] for k in (
            "kind", "n_classes", "t", "synthetic_seed", "forest_sha"))
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleError(f"{path}: the bundle header is malformed ({exc!r})") from None
    _check_trees(a, schema.n_levels)
    if a["feature_ranges"].shape != (schema.n_columns, 2):
        raise BundleError(f"feature_ranges is not shaped ({schema.n_columns}, 2)")
    lo, hi = a["feature_ranges"][schema.n_levels == 0].T
    if not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi)):
        raise BundleError("feature_ranges has a continuous row that is not finite low <= high")
    forest = Forest(**{k: a[k] for k in _ARRAYS}, schema=schema, kind=kind, params=params,
                    n_classes=n_classes)
    model = SpectralModel(*a["V"].shape, a["eigenvalues"], a["V"])
    synth = SyntheticTrainingSet(Table(schema, a["synthetic"]), seed)
    if t is not None:
        model = with_time(model, t)
    bundle = ModelBundle(schema, forest, model, synth, sha)
    bundle.validate()
    return bundle
