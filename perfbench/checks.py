"""Output checks for encode and decode results, and the decode distortion.

The checks read the files a command wrote and compare them with the
workload's generated inputs; they never compare bundles byte for byte.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from forestae.data import load_csv
from forestae.metrics import distortion


def _read(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name}: empty file")
    return rows[0], rows[1:]


def _finite(token: str) -> bool:
    try:
        return math.isfinite(float(token))
    except ValueError:
        return False


class Reference:
    """The generated inputs that every output of one run is checked against."""

    def __init__(self, work: Path) -> None:
        train = load_csv(work / "train.csv")
        self.query = load_csv(work / "query.csv", schema_hint=train.schema)
        self.header = list(self.query.schema.names)
        # levels the fitted schema knows: categorical cells must stay inside
        self.levels = {
            j: set(col.levels)
            for j, col in enumerate(train.schema.columns)
            if col.is_categorical
        }

    @property
    def n_query(self) -> int:
        return self.query.n

    def embedding_error(self, path: Path, rows: int, d_z: int) -> str | None:
        """Why an encode output is wrong, or None when it passes."""
        header, body = _read(path)
        if header != [f"KPC{j + 1}" for j in range(d_z)]:
            return f"embedding header {header[:8]} is not KPC1..KPC{d_z}"
        if len(body) != rows:
            return f"embedding has {len(body)} rows, expected {rows}"
        for i, row in enumerate(body):
            if len(row) != d_z or not all(_finite(t) for t in row):
                return f"embedding row {i} is not {d_z} finite numbers"
        return None

    def decoded_error(self, path: Path, rows: int) -> tuple[str | None, float]:
        """(why a decode output is wrong or None, its combined distortion)."""
        header, body = _read(path)
        if header != self.header:
            return f"decoded columns {header} differ from {self.header}", 1.0
        if len(body) != rows:
            return f"decoded {len(body)} rows, expected {rows}", 1.0
        for i, row in enumerate(body):
            if len(row) != len(header):
                return f"decoded row {i} has {len(row)} cells", 1.0
            for j, token in enumerate(row):
                levels = self.levels.get(j)
                if levels is None and not _finite(token):
                    return f"decoded row {i} column {header[j]!r} is not finite: {token!r}", 1.0
                if levels is not None and token not in levels:
                    return f"decoded row {i} column {header[j]!r} has unknown level {token!r}", 1.0
        decoded = load_csv(path, schema_hint=self.query.schema)
        score = distortion(self.query.take(range(rows)), decoded).combined
        if not 0.0 <= score <= 1.0:
            return f"distortion {score} outside [0, 1]", 1.0
        return None, score
