"""Mixed-type tabular data: schemas, tables, splits, and marginal resampling.

Tables hold a single float64 value grid. Continuous cells are finite reals;
categorical cells are level indices stored as floats (exact for any realistic
level count). Level order is first-appearance order and is serialized with the
schema so routing stays stable across sessions.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Column",
    "Schema",
    "Table",
    "SplitIndices",
    "load_csv",
    "save_csv",
    "bootstrap_split",
    "marginal_synthesize",
    "align_to_schema",
]


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class Column:
    """One typed column: continuous when ``levels`` is None, else categorical."""

    name: str
    levels: tuple[str, ...] | None = None

    @property
    def is_categorical(self) -> bool:
        return self.levels is not None


@dataclass(frozen=True)
class Schema:
    columns: tuple[Column, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise DataError("duplicate column names")
        for c in self.columns:
            if c.levels is not None:
                if len(c.levels) == 0:
                    raise DataError(f"categorical column {c.name!r} has no levels")
                if len(set(c.levels)) != len(c.levels):
                    raise DataError(f"duplicate levels in column {c.name!r}")

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def n_levels(self) -> np.ndarray:
        """Level count per column, 0 for continuous ones."""
        return np.array([len(c.levels) if c.is_categorical else 0 for c in self.columns])

    def index_of(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise KeyError(name)


@dataclass(frozen=True)
class Table:
    """Immutable n x d value grid over a schema; safe for concurrent reads."""

    schema: Schema
    values: np.ndarray
    n_dropped_rows: int = 0

    def __post_init__(self) -> None:
        v = self.values
        if v.ndim != 2 or v.shape[1] != self.schema.n_columns:
            raise DataError("value grid does not match schema arity")
        if v.dtype != np.float64:
            object.__setattr__(self, "values", v.astype(np.float64))
            v = self.values
        for j, col in enumerate(self.schema.columns):
            cells = v[:, j]
            if col.is_categorical:
                if cells.size and (
                    np.any(cells != np.floor(cells))
                    or cells.min(initial=0) < 0
                    or cells.max(initial=0) >= len(col.levels)
                ):
                    raise DataError(f"categorical index out of range in {col.name!r}")
            elif cells.size and not np.all(np.isfinite(cells)):
                raise DataError(f"non-finite value in continuous column {col.name!r}")
        v.setflags(write=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> tuple[Column, np.ndarray]:
        j = self.schema.index_of(name)
        return self.schema.columns[j], self.values[:, j].copy()

    def drop(self, name: str) -> "Table":
        j = self.schema.index_of(name)
        cols = tuple(c for i, c in enumerate(self.schema.columns) if i != j)
        return Table(Schema(cols), np.delete(self.values, j, axis=1))

    def take(self, rows: np.ndarray) -> "Table":
        return Table(self.schema, self.values[np.asarray(rows, dtype=np.intp)].copy())


@dataclass(frozen=True)
class SplitIndices:
    train: np.ndarray
    holdout: np.ndarray
    seed: int


def _parse_continuous(token: str) -> float:
    x = float(token)
    if not math.isfinite(x):
        raise ValueError(token)
    return x


def _parse_column(tokens) -> np.ndarray | None:
    """The cells as floats, or None if any is non-numeric or none is finite."""
    try:
        values = np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))
    except ValueError:
        return None
    return values if np.isfinite(values).any() else None


_MISSING = frozenset({"", "NA", "NAN", "-NAN", "+NAN"})


def _is_missing(token: str) -> bool:
    return token.strip().upper() in _MISSING


def load_csv(path: str | Path, schema_hint: Schema | None = None) -> Table:
    """Load a header-ed CSV, inferring kinds unless overridden by the hint.

    Columns containing any non-numeric token, or no finite number, are
    inferred categorical, with levels in first-appearance order; a non-finite
    number (``inf``, ``1e999``) among finite ones is an error. Rows with missing cells
    (empty, ``NA``, ``nan``, ``-nan``, ``+nan``) are dropped and counted on
    ``Table.n_dropped_rows``. Tokens unseen by a hinted categorical
    column extend that column's level list (first-appearance order after the
    hint's levels).
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file")
    header, body = rows[0], rows[1:]
    d = len(header)
    kept, dropped = [], 0
    for row in body:
        if len(row) != d:
            raise DataError(f"{path}: row with {len(row)} cells, expected {d}")
        if any(map(_is_missing, row)):
            dropped += 1
        else:
            kept.append(row)
    if not kept:
        raise DataError(f"{path}: no complete rows after filtering")

    hint_by_name = {}
    if schema_hint is not None:
        hint_by_name = {c.name: c for c in schema_hint.columns}

    columns: list[Column] = []
    grid = np.empty((len(kept), d), dtype=np.float64)
    for j, (name, tokens) in enumerate(zip(header, zip(*kept))):
        hinted = hint_by_name.get(name)
        values = None if hinted is not None and hinted.is_categorical else _parse_column(tokens)
        categorical = hinted.is_categorical if hinted is not None else values is None
        if categorical:
            levels: list[str] = list(hinted.levels) if hinted and hinted.levels else []
            index = {lv: i for i, lv in enumerate(levels)}
            for i, tok in enumerate(tokens):
                if tok not in index:
                    index[tok] = len(levels)
                    levels.append(tok)
                grid[i, j] = index[tok]
            columns.append(Column(name, tuple(levels)))
        else:
            try:
                if values is None or not np.isfinite(values).all():  # find the first bad cell
                    for tok in tokens:
                        _parse_continuous(tok)
            except ValueError as exc:
                why = (f"declared continuous but cell {exc} is not" if hinted is not None
                       else f"is numeric but cell {exc} is not finite")
                raise DataError(f"{path}: column {name!r} {why}") from exc
            grid[:, j] = values
            columns.append(Column(name))
    return Table(Schema(tuple(columns)), grid, n_dropped_rows=dropped)


def save_csv(table: Table, path: str | Path) -> None:
    """Write a table as RFC-4180 CSV; continuous cells use exact float repr."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.schema.names)
        for row in table.values:
            out = []
            for j, col in enumerate(table.schema.columns):
                if col.is_categorical:
                    out.append(col.levels[int(row[j])])
                else:
                    out.append(repr(float(row[j])))
            writer.writerow(out)


def bootstrap_split(n: int, seed: int) -> SplitIndices:
    """Draw n indices with replacement; the absent ones form the holdout.

    An empty holdout retries with seed+1, seed+2, ...; for n >= 2 a draw
    misses some row with probability at least 1/2, so the loop ends.
    """
    if n < 2:
        raise DataError("bootstrap_split needs n >= 2")
    for s in itertools.count(seed):
        train = np.random.default_rng(s).integers(0, n, size=n)
        mask = np.ones(n, dtype=bool)
        mask[train] = False
        holdout = np.flatnonzero(mask)
        if holdout.size:
            return SplitIndices(train=train, holdout=holdout, seed=s)


def marginal_synthesize(table: Table, seed: int) -> Table:
    """Resample each column independently with replacement.

    Per-column empirical support is preserved exactly; inter-column dependence
    is broken by construction.
    """
    if table.n < 2:
        raise DataError("marginal_synthesize needs n >= 2")
    rng = np.random.default_rng(seed)
    out = np.empty_like(table.values)
    for j in range(table.d):
        out[:, j] = table.values[rng.integers(0, table.n, size=table.n), j]
    return Table(table.schema, out)


def align_to_schema(table: Table, schema: Schema) -> tuple[np.ndarray, int]:
    """Re-express a table's grid in another schema's level indices.

    Columns are matched by name and must agree in kind. Levels unseen by the
    target schema map to -1 (routed as "not equal" everywhere); the count of
    such cells is returned for warning summaries.
    """
    out = np.empty((table.n, schema.n_columns), dtype=np.float64)
    unseen = 0
    for j, col in enumerate(schema.columns):
        src_col, cells = table.column(col.name)
        if src_col.is_categorical != col.is_categorical:
            raise DataError(f"column {col.name!r} kind mismatch")
        if not col.is_categorical:
            out[:, j] = cells
            continue
        target = {lv: i for i, lv in enumerate(col.levels)}
        remap = np.array([target.get(lv, -1) for lv in src_col.levels], dtype=np.float64)
        mapped = remap[cells.astype(np.intp)]
        unseen += int(np.sum(mapped < 0))
        out[:, j] = mapped
    return out, unseen


def conform_table(table: Table, schema: Schema) -> Table:
    """Project a table onto another schema: select columns by name and remap
    level indices. Levels the target schema does not know are rejected.
    """
    values, unseen = align_to_schema(table, schema)
    if unseen:
        raise DataError(f"{unseen} cells carry levels unknown to the target schema")
    return Table(schema, values)


def table_equal(a: Table, b: Table) -> bool:
    return (
        a.schema == b.schema
        and a.values.shape == b.values.shape
        and bool(np.all(a.values == b.values))
    )
