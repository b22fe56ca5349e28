"""Reference implementations the tests compare the package against: the
one-row routing and kernel API of the paper's definitions, one-row exact
decoding, region intersection, the leaf-cell builders that the single
cell descent (``forest._leaf_cells``) replaced, k-NN averaging by
``np.add.at``, relabel decoding that patches its hardened rows' cells, and
the CSV reader and writers that handled one cell or row at a time."""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from forestae.data import Column, DataError, Schema, Table
from forestae.decode import (_TIE_TOL, DecodeError, IlpResult, _check_ilp_work, _embedding,
                             _ilp_solve, reference_leaf_assign, route_relabeled)
from forestae.forest import Forest, Region, _leaf_cells, assigned_region, route_values
from forestae.cli import UsageError
from forestae.kernel import KernelError


def route(forest: Forest, x) -> np.ndarray:
    """One leaf id per tree for a single row."""
    return route_values(forest, np.asarray(x, dtype=np.float64).reshape(1, -1))[0]


def leaf_size_vector(forest: Forest) -> np.ndarray:
    """Inverse stored leaf counts, in global leaf order (length d_phi)."""
    counts = forest.leaf_count.astype(np.float64)
    if counts.min(initial=1) < 1:
        raise KernelError("zero-count leaf")
    return 1.0 / counts


@dataclass(frozen=True)
class FeatureMapVector:
    """Sparse canonical feature map: exactly one entry per tree."""

    indices: np.ndarray  # (B,) global leaf ids
    values: np.ndarray  # (B,) = 1/sqrt(leaf count)
    d_phi: int

    def dot(self, other: "FeatureMapVector") -> float:
        _, ia, ib = np.intersect1d(self.indices, other.indices, return_indices=True)
        return float(np.dot(self.values[ia], other.values[ib]))


def feature_map(forest: Forest, x) -> FeatureMapVector:
    s = leaf_size_vector(forest)
    leaves = route(forest, x).astype(np.int64) + forest.leaf_offsets
    return FeatureMapVector(indices=leaves, values=np.sqrt(s[leaves]), d_phi=forest.total_leaves)


def scornet_kernel(forest: Forest, x, x2) -> float:
    """Unnormalized colocation rate: the share of trees where x and x2 meet."""
    a = route(forest, x)
    b = route(forest, x2)
    return float(np.mean(a == b))


def ilp_decode_exact(khat_row: np.ndarray, forest: Forest, pi: np.ndarray) -> IlpResult:
    """Exact minimizer of the leaf-assignment program for one kernel row."""
    return _ilp_solve(np.asarray(khat_row)[None], forest, pi)[0]


def region_intersect(regions) -> Region:
    """Intersection of an iterable of (broadcastable) regions."""
    return functools.reduce(Region.intersect, regions)


def level_fill_leaf_cells(forest: Forest, b0: int, b1: int) -> Region:
    """Cells of every leaf of trees ``b0`` to ``b1 - 1``, (leaves, d) in global
    leaf order, built level by level over those trees' nodes: every node's
    cell starts as the feature box, and a child copies its parent's and
    narrows it by the split literal (left) or its negation (right)."""
    table = forest._node_table()
    first, last = table.starts[b0], table.starts[b1]
    left = table.left[first:last] - first
    feature, cut, is_equal = (a[first:last] for a in (table.feature, table.threshold,
                                                     table.is_equal))
    rows, box = last - first, forest.box
    lo = np.tile(box.lo, (rows, 1))
    hi = np.tile(box.hi, (rows, 1))
    masks = {j: np.tile(m, (rows, 1)) for j, m in box.masks.items()}
    nodes = table.starts[b0:b1] - first
    while nodes.size:
        nodes = nodes[left[nodes] >= 0]
        l, f, c = left[nodes], feature[nodes], cut[nodes]
        r = l + 1
        for a in (lo, hi, *masks.values()):
            a[l] = a[nodes]
            a[r] = a[nodes]
        cont = ~is_equal[nodes]
        p, fc, cc = nodes[cont], f[cont], c[cont]
        hi[l[cont], fc] = np.minimum(hi[p, fc], np.nextafter(cc, -np.inf))
        lo[r[cont], fc] = np.maximum(lo[p, fc], cc)
        for j, m in masks.items():
            sel = is_equal[nodes] & (f == j)
            code = c[sel].astype(np.intp)
            allowed = m[nodes[sel], code]
            m[l[sel]] = False
            m[l[sel], code] = allowed
            m[r[sel], code] = False
        nodes = np.concatenate([l, r])
    return Region(forest.schema, lo, hi, masks)[np.flatnonzero(feature < 0)]


def all_pairs_meet(roots: Region, leaves: Region):
    """(root, leaf, cell) of every non-empty meet of a root with a leaf cell,
    in row-major order of the (root, leaf) pairs, in blocks of 2**16 pairs."""
    step = max(1, 2**16 // leaves.lo.shape[0])
    f, l = np.concatenate([
        np.argwhere(~roots[s:s + step, None].intersect(leaves).is_empty()) + (s, 0)
        for s in range(0, roots.lo.shape[0], step)
    ]).T
    return f, l, roots[f].intersect(leaves[l])


def all_pairs_refinement(forest: Forest, n_rows: int) -> np.ndarray:
    """The common refinement as ``decode._refinement`` enumerated it before the
    cell descent: each step meets every cell so far with every leaf cell of the
    next tree and keeps the non-empty pairs in row-major order."""
    region, cells = forest.box[None], np.zeros((1, 0), dtype=np.int64)
    for b, n_leaves in enumerate(forest.n_leaves.tolist()):
        _check_ilp_work(cells.shape[0] * max(n_leaves, n_rows))
        f, l, region = all_pairs_meet(region, level_fill_leaf_cells(forest, b, b + 1))
        cells = np.column_stack([cells[f], l])
        if not cells.shape[0]:
            raise DecodeError("no feasible leaf assignment: every combination has empty overlap")
    _check_ilp_work(cells.shape[0] * n_rows)
    return cells


def knn_average_add_at(w: np.ndarray, idx: np.ndarray, synth_values: np.ndarray, schema,
                       seed: int):
    """``knn_decode``'s averaging as it was before the one-column gathers:
    every neighbour's whole row gathered at once, (m, k, d), and categorical
    scores summed by ``np.add.at``; ties are drawn column by column, rows
    ascending. Returns the decoded values and the number of draws."""
    rng = np.random.default_rng(seed)
    vals = synth_values[idx]
    (m, k), draws = idx.shape, 0
    out = np.empty((m, synth_values.shape[1]))
    for j, col in enumerate(schema.columns):
        if not col.is_categorical:
            out[:, j] = (w * vals[:, :, j]).sum(axis=1)
            continue
        scores = np.zeros((m, len(col.levels)))
        np.add.at(scores, (np.repeat(np.arange(m), k), vals[:, :, j].astype(np.intp).ravel()),
                  w.ravel())
        ties = scores >= scores.max(axis=1, keepdims=True) - _TIE_TOL
        pick = np.argmax(ties, axis=1).astype(np.float64)
        for i in np.flatnonzero(ties.sum(axis=1) > 1):
            pick[i] = rng.choice(np.flatnonzero(ties[i]))
            draws += 1
        out[:, j] = pick
    return out, draws


def relabel_decode_two_pass(relabeled, original: Forest, Z0, seed: int = 0) -> Table:
    """``relabel_decode`` as it was before the shared sampling tail: the routed
    rows' cells are built once, the hardened rows' cells are built again and
    written into them field by field, and the patched cells are sampled."""
    leaf_ids = route_relabeled(relabeled, _embedding(Z0, relabeled.d_z))
    region = assigned_region(original, leaf_ids)
    conflict = region.is_empty()
    if conflict.any():
        routed = leaf_ids[conflict] + original.leaf_offsets
        hardened = reference_leaf_assign(routed, np.ones(routed.shape), relabeled.reference)
        cells = assigned_region(original, hardened - original.leaf_offsets)
        for a, h in ((region.lo, cells.lo), (region.hi, cells.hi),
                     *((m, cells.masks[j]) for j, m in region.masks.items())):
            a[conflict] = h
    return Table(original.schema, region.sample(np.random.default_rng(seed)))


_MISSING = frozenset({"", "NA", "NAN", "-NAN", "+NAN"})


def _parse_continuous(token: str) -> float:
    x = float(token)
    if not math.isfinite(x):
        raise ValueError(token)
    return x


def _parse_column(tokens) -> np.ndarray | None:
    try:
        values = np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))
    except ValueError:
        return None
    return values if np.isfinite(values).any() else None


def load_csv_per_cell(path, schema_hint: Schema | None = None) -> Table:
    """``data.load_csv`` as it was before the column-at-a-time reader: every
    cell is tested for a missing token, and level codes are assigned one cell
    at a time. Its errors read as ``load_csv``'s do: a duplicate name fails at
    the header, and a row of the wrong width is named by its number."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file")
    header, body = rows[0], rows[1:]
    for j, name in enumerate(header):
        if name in header[:j]:
            raise DataError(f"{path}: column {name!r} appears twice in the header")
    d = len(header)
    kept, dropped = [], 0
    for i, row in enumerate(body):
        if len(row) != d:
            raise DataError(f"{path}: row {i + 2} has {len(row)} cells, the header has {d}")
        if any(tok.strip().upper() in _MISSING for tok in row):
            dropped += 1
        else:
            kept.append(row)
    if not kept:
        raise DataError(f"{path}: no complete rows after filtering")
    hint_by_name = {c.name: c for c in schema_hint.columns} if schema_hint is not None else {}
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
                if values is None or not np.isfinite(values).all():
                    for tok in tokens:
                        _parse_continuous(tok)
            except ValueError as exc:
                why = (f"declared continuous but cell {exc} is not" if hinted is not None
                       else f"is numeric but cell {exc} is not finite")
                raise DataError(f"{path}: column {name!r} {why}") from exc
            grid[:, j] = values
            columns.append(Column(name))
    return Table(Schema(tuple(columns)), grid, n_dropped_rows=dropped)


def save_csv_per_row(table: Table, path) -> None:
    """``data.save_csv`` as it was: ``csv.writer`` once per row, ``repr`` once
    per continuous cell."""
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


def read_embedding_csv_per_row(path) -> np.ndarray:
    """``cli._read_embedding_csv`` as it was, parsing one row at a time."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise UsageError(f"{path}: empty embedding file")
    d = len(rows[0])
    out = np.empty((len(rows) - 1, d), dtype=np.float64)
    for i, row in enumerate(rows[1:]):
        if len(row) != d:
            raise UsageError(f"{path}: row {i + 2} has {len(row)} cells, the header has {d}")
        try:
            out[i] = [float(x) for x in row]
        except ValueError:
            raise UsageError(f"{path}: row {i + 2} has a non-numeric cell") from None
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:
        raise UsageError(f"{path}: row {bad[0] + 2} has a non-finite cell")
    return out


def write_embedding_csv_per_row(path, Z0: np.ndarray, d_z: int) -> None:
    """``cli._write_embedding_csv`` as it was, before it became ``save_csv``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"KPC{j + 1}" for j in range(d_z)])
        for row in np.atleast_2d(Z0):
            writer.writerow([repr(float(v)) for v in row])


def write_coordinate_per_entry(K, path) -> None:
    """``kernel.write_coordinate`` as it was: one write per stored entry."""
    coo = K.matrix.tocoo()
    with open(path, "w", encoding="utf-8") as fh:
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{int(i)} {int(j)} {float(v)!r}\n")
