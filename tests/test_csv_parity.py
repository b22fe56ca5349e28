"""The column-at-a-time CSV reader and writers against the per-cell ones they
replaced (``oracles.py``): a seeded sweep of awkward files and tables, which
must read to equal tables, write byte-identical files and fail with identical
error text. The kernel exports, streamed from K's row blocks, are checked
against writers of the whole K."""

import csv
import io

import numpy as np
import pytest

from forestae.cli import UsageError, _read_embedding_csv, _write_embedding_csv
from forestae.data import Column, DataError, Schema, Table, load_csv, save_csv
from forestae.forest import ForestParams, fit_completely_random
from forestae import kernel
from forestae.kernel import rf_kernel_cross, rf_kernel_train, write_coordinate, write_dense_csv
from conftest import make_mixed
from oracles import (load_csv_per_cell, read_embedding_csv_per_row, save_csv_per_row,
                     write_coordinate_per_entry, write_dense_csv_one_shot,
                     write_embedding_csv_per_row)

NAMES = ["a", "b c", "d,e", 'q"t', "ü", "", "x\ny", "KPC1", " pad "]
LEVELS = ["a", "b,c", 'say "hi"', "two\nlines", "cr\rend", "crlf\r\nend", " edge ", "naïve",
          "日本語", "", "-0", "inf", "1e999", "x"]
FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 3.0, -17.0, 1e16, 0.1, 2.5e-7]
MISSING = ["", "NA", " nan ", "-NAN"]
NON_FINITE = ["inf", "-inf", "1e999", " -Infinity "]


def _float(rng) -> float:
    if rng.random() < 0.5:
        return FLOATS[rng.integers(len(FLOATS))]
    return float(rng.normal() * 10.0 ** rng.integers(-5, 6))


def _number_text(rng) -> str:
    x = _float(rng)
    spelling = rng.integers(5)
    if spelling == 1 and x == int(x) and abs(x) < 1e15:
        return str(int(x))  # an integral value written as an integer
    if spelling == 2:
        return f" {x!r} "
    if spelling == 3:
        return f"{x:.3g}"
    return repr(x)


def _cell(rng, kind: str) -> str:
    if rng.random() < 0.08:
        return MISSING[rng.integers(len(MISSING))]
    if kind == "cat" or (kind == "mixed" and rng.random() < 0.3):
        return LEVELS[rng.integers(len(LEVELS))]
    if kind == "inf" and rng.random() < 0.3:
        return NON_FINITE[rng.integers(len(NON_FINITE))]
    return _number_text(rng)


def _file(rng, path) -> list[str]:
    """A random CSV at ``path``; returns its header."""
    d, n = int(rng.integers(1, 6)), int(rng.integers(0, 9))
    header = list(rng.choice(NAMES, size=d, replace=False))
    kinds = rng.choice(["num", "cat", "mixed", "inf"], size=d, p=[0.4, 0.3, 0.15, 0.15])
    rows = [[_cell(rng, k) for k in kinds] for _ in range(n)]
    if rows and rng.random() < 0.1:  # one row a cell short or a cell long
        row = rows[rng.integers(len(rows))]
        row.append("1.0") if rng.random() < 0.5 else row.pop()
    buf = io.StringIO()
    term = "\r\n" if rng.random() < 0.5 else "\n"
    writer = csv.writer(buf, lineterminator=term)
    writer.writerow(header)
    writer.writerows(rows)
    if rng.random() < 0.1:
        buf.write(term)  # a trailing blank line
    path.write_bytes(buf.getvalue().encode("utf-8-sig" if rng.random() < 0.3 else "utf-8"))
    return header


def _hint(rng, header) -> Schema | None:
    if rng.random() < 0.6:
        return None
    names = list(rng.choice(header + ["elsewhere"], size=rng.integers(1, len(header) + 2),
                            replace=False))
    return Schema(tuple(
        Column(name) if rng.random() < 0.5
        else Column(name, tuple(rng.choice(LEVELS, size=rng.integers(1, 4), replace=False)))
        for name in names))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DataError, UsageError) as exc:
        return type(exc), str(exc)


def _same_table(a, b) -> bool:
    return (a.schema == b.schema and a.n_dropped_rows == b.n_dropped_rows
            and a.values.shape == b.values.shape and a.values.tobytes() == b.values.tobytes())


def _random_table(rng, n: int) -> Table:
    d = int(rng.integers(1, 5))
    cols, grid = [], np.empty((n, d))
    for j, name in enumerate(rng.choice(NAMES, size=d, replace=False)):
        if rng.random() < 0.5:
            cols.append(Column(str(name)))
            grid[:, j] = [_float(rng) for _ in range(n)]
        else:
            levels = tuple(rng.choice(LEVELS, size=rng.integers(1, 6), replace=False))
            cols.append(Column(str(name), levels))
            grid[:, j] = rng.integers(0, len(levels), size=n)
    return Table(Schema(tuple(cols)), grid)


def test_load_and_save_match_the_per_cell_reader_and_writer(tmp_path):
    rng = np.random.default_rng(35)
    path, new, old = tmp_path / "t.csv", tmp_path / "new.csv", tmp_path / "old.csv"
    read = errors = 0
    for _ in range(400):
        hint = _hint(rng, _file(rng, path))
        got, want = _outcome(load_csv, path, hint), _outcome(load_csv_per_cell, path, hint)
        if isinstance(want, tuple):
            assert got == want
            errors += 1
            continue
        assert _same_table(got, want)
        save_csv(got, new)
        save_csv_per_row(got, old)
        assert new.read_bytes() == old.read_bytes()
        read += 1
    assert read > 100 and errors > 50  # the sweep reaches both sides


def test_save_csv_matches_the_per_row_writer(tmp_path):
    # sizes around the 512-row block, single columns, empty levels and names
    rng = np.random.default_rng(36)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    for n in [0, 1, 2, 511, 512, 513, 1030] + list(rng.integers(0, 40, size=60)):
        table = _random_table(rng, int(n))
        save_csv(table, new)
        save_csv_per_row(table, old)
        assert new.read_bytes() == old.read_bytes()
    lone = Table(Schema((Column("", ("", "a,b")),)), np.array([[0.0], [1.0], [0.0]]))
    save_csv(lone, new)
    save_csv_per_row(lone, old)
    assert new.read_bytes() == old.read_bytes() == b'""\r\n""\r\n"a,b"\r\n""\r\n'
    empty = Table(Schema(()), np.empty((2, 0)))  # no columns: blank lines
    save_csv(empty, new)
    save_csv_per_row(empty, old)
    assert new.read_bytes() == old.read_bytes() == b"\r\n\r\n\r\n"


def _embedding_file(rng, path) -> None:
    d, n = int(rng.integers(0, 5)), int(rng.integers(0, 8))
    cells = ["1.5", " -2 ", "5e-324", "-0.0", "1e308", "x", "", "inf", "nan", "1e999"]
    p = np.array([0.3, 0.2, 0.1, 0.1, 0.1, 0.04, 0.04, 0.04, 0.04, 0.04])
    rows = [[f"KPC{j + 1}" for j in range(d)]]
    for _ in range(n):
        width = d if rng.random() < 0.85 else int(rng.integers(0, d + 2))
        rows.append(list(rng.choice(cells, size=width, p=p)))
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    if rng.random() < 0.1:
        buf.write("\r\n")
    path.write_bytes(buf.getvalue().encode("utf-8-sig" if rng.random() < 0.3 else "utf-8"))


def test_embedding_reader_and_writer_match_the_per_row_ones(tmp_path):
    rng = np.random.default_rng(37)
    path, new, old = tmp_path / "z.csv", tmp_path / "new.csv", tmp_path / "old.csv"
    errors = 0
    for _ in range(300):
        _embedding_file(rng, path)
        got, want = (_outcome(_read_embedding_csv, path),
                     _outcome(read_embedding_csv_per_row, path))
        if isinstance(want, tuple):
            assert got == want
            errors += 1
        else:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert 50 < errors < 250
    path.write_bytes(b"")
    assert _outcome(_read_embedding_csv, path) == _outcome(read_embedding_csv_per_row, path)
    for n in [0, 1, 511, 512, 513, 1100]:
        d_z = int(rng.integers(1, 5))
        Z0 = np.array([_float(rng) for _ in range(n * d_z)]).reshape(n, d_z)
        _write_embedding_csv(new, Z0, d_z)
        write_embedding_csv_per_row(old, Z0, d_z)
        assert new.read_bytes() == old.read_bytes()


def test_write_coordinate_matches_the_per_entry_writer(tmp_path, monkeypatch):
    # the export streams K's join blocks; the oracle writes K.matrix entry by entry
    monkeypatch.setattr(kernel, "_JOIN_PAIRS", 2**12)
    table = make_mixed(150, seed=3)
    forest = fit_completely_random(table, ForestParams(n_trees=8, min_leaf=25, seed=4))
    K = rf_kernel_train(forest, table)
    assert sum(1 for _ in K.blocks()) > 1  # more than one join block
    write_coordinate(K, tmp_path / "new.txt")
    write_coordinate_per_entry(K, tmp_path / "old.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


def test_write_dense_csv_matches_the_one_shot_writer(tmp_path, monkeypatch):
    # a train kernel and a renormalized cross kernel, several join blocks each
    monkeypatch.setattr(kernel, "_JOIN_PAIRS", 500)
    table = make_mixed(120, seed=5)
    forest = fit_completely_random(table, ForestParams(n_trees=9, min_leaf=2, seed=5))
    loose = rf_kernel_cross(forest, table, table.take(np.arange(90)), strict=False)
    assert loose.scale is not None
    for K in (rf_kernel_train(forest, table), loose):
        assert sum(1 for _ in K.blocks()) > 4
        write_dense_csv(K, tmp_path / "new.csv")
        write_dense_csv_one_shot(K, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        # %.18e keeps every bit, so the text also reads back as SciPy's K
        assert np.array_equal(np.loadtxt(tmp_path / "new.csv", delimiter=","),
                              K.matrix.toarray())


@pytest.mark.parametrize("seed", [1, 2])
def test_save_csv_holds_one_block_at_a_time(tmp_path, seed):
    # formatting 512 rows at a time keeps the writer's peak far below the
    # 20,000-row table's text (about 2.6 MB)
    import tracemalloc

    rng = np.random.default_rng(seed)
    schema = Schema(tuple(Column(f"x{j}") for j in range(5))
                    + (Column("c", ("red", "green", "blue")), Column("k", ("a,b", "c"))))
    values = np.column_stack([rng.normal(size=(20_000, 5)),
                              rng.integers(0, 3, 20_000), rng.integers(0, 2, 20_000)])
    table = Table(schema, values)
    tracemalloc.start()
    try:
        save_csv(table, tmp_path / "t.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert (tmp_path / "t.csv").stat().st_size > 2_000_000
