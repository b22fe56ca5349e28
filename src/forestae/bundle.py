"""Versioned on-disk persistence for a fitted pipeline.

A bundle carries the schema, the fitted forest, the spectral model (with
diffusion time applied), and the synthetic training set that stands in for the
training data downstream. Serialization is canonical JSON (sorted keys), so a
fixed seed yields byte-identical bundles; paths ending in .gz are gzipped.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Schema, Table
from .decode import SyntheticTrainingSet
from .forest import Forest
from .spectral import SpectralModel

FORMAT_VERSION = 1

__all__ = ["ModelBundle", "save_bundle", "load_bundle", "forest_digest"]


class BundleError(ValueError):
    pass


def forest_digest(forest: Forest) -> str:
    payload = json.dumps(forest.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class ModelBundle:
    schema: Schema
    forest: Forest
    model: SpectralModel
    synth: SyntheticTrainingSet
    forest_sha: str

    def check_shapes(self) -> None:
        if self.model.n != self.synth.n:
            raise BundleError("spectral model and synthetic set disagree on n")
        if self.model.Z is not None and self.model.Z.shape[0] != self.model.n:
            raise BundleError("embedding row count mismatch")

    def validate(self) -> None:
        self.check_shapes()
        if forest_digest(self.forest) != self.forest_sha:
            raise BundleError("forest hash mismatch: bundle components are inconsistent")


def bundle_from_parts(
    forest: Forest, model: SpectralModel, synth: SyntheticTrainingSet
) -> ModelBundle:
    bundle = ModelBundle(
        schema=forest.schema,
        forest=forest,
        model=model,
        synth=synth,
        forest_sha=forest_digest(forest),
    )
    bundle.check_shapes()  # the digest was just computed from this forest
    return bundle


def save_bundle(bundle: ModelBundle, path: str | Path) -> None:
    bundle.validate()
    doc = {
        "format_version": FORMAT_VERSION,
        "schema": bundle.schema.to_dict(),
        "forest": bundle.forest.to_dict(),
        "forest_sha": bundle.forest_sha,
        "spectral": bundle.model.to_dict(),
        "synthetic": {
            "values": bundle.synth.table.values.tolist(),
            "leaf_ids": bundle.synth.leaf_ids.tolist(),
            "seed": bundle.synth.seed,
        },
    }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
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
        raise BundleError(f"unsupported bundle format version {version!r}")
    schema = Schema.from_dict(doc["schema"])
    forest = Forest.from_dict(doc["forest"])
    model = SpectralModel.from_dict(doc["spectral"])
    synth = SyntheticTrainingSet(
        table=Table(schema, np.asarray(doc["synthetic"]["values"], dtype=np.float64)),
        leaf_ids=np.asarray(doc["synthetic"]["leaf_ids"], dtype=np.int32),
        seed=doc["synthetic"]["seed"],
    )
    bundle = ModelBundle(
        schema=schema,
        forest=forest,
        model=model,
        synth=synth,
        forest_sha=doc["forest_sha"],
    )
    bundle.validate()
    return bundle
