import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestae.data import (
    Column,
    DataError,
    Schema,
    Table,
    align_to_schema,
    bootstrap_split,
    load_csv,
    marginal_synthesize,
    save_csv,
    table_equal,
)


def test_load_csv_infers_kinds(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1.5,x\n2.0,y\n")
    t = load_csv(p)
    assert t.schema.columns[0] == Column("a")
    assert t.schema.columns[1] == Column("b", ("x", "y"))
    assert t.n == 2
    assert t.values[0, 0] == 1.5 and t.values[1, 1] == 1.0


def test_load_csv_schema_hint_forces_categorical(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1.5,x\n2.0,y\n")
    with pytest.raises(DataError):
        Schema((Column("a", ()),))  # empty level lists are rejected outright
    hint = Schema((Column("a", ("1.5",)),))
    t = load_csv(p, schema_hint=hint)
    assert t.schema.columns[0].levels == ("1.5", "2.0")


def test_load_csv_drops_and_counts_missing_rows(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1.5,x\n1.5,\n")
    t = load_csv(p)
    assert t.n == 1
    assert t.n_dropped_rows == 1


def test_load_csv_rejects_nonfinite_and_bad_kind(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a\ninf\n")
    t = load_csv(p)  # inf parses as non-numeric token -> categorical
    assert t.schema.columns[0].is_categorical
    p.write_text("a\n1.0\n")
    hint = Schema((Column("a"),))
    p.write_text("a\nfoo\n")
    with pytest.raises(DataError):
        load_csv(p, schema_hint=hint)


def test_load_csv_empty_after_filtering(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n,\n")
    with pytest.raises(DataError):
        load_csv(p)


def test_save_load_round_trip(tmp_path):
    schema = Schema((Column("x"), Column("c", ("a", "b,with comma"))))
    values = np.array([[0.1, 0.0], [1e-17, 1.0], [-3.25, 1.0], [7.0, 0.0]])
    t = Table(schema, values)
    p = tmp_path / "t.csv"
    save_csv(t, p)
    back = load_csv(p, schema_hint=schema)
    assert table_equal(t, back)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1, max_size=20))
def test_save_load_bit_exact_floats(tmp_path_factory, xs):
    tmp = tmp_path_factory.mktemp("csv")
    schema = Schema((Column("x"),))
    t = Table(schema, np.array(xs).reshape(-1, 1))
    p = tmp / "t.csv"
    save_csv(t, p)
    back = load_csv(p, schema_hint=schema)
    assert np.array_equal(back.values, t.values)


def test_bootstrap_split_complement(t2x4):
    s = bootstrap_split(4, seed=11)
    assert set(s.holdout) == set(range(4)) - set(s.train.tolist())
    assert s.holdout.size >= 1


def test_bootstrap_split_deterministic():
    a = bootstrap_split(50, seed=3)
    b = bootstrap_split(50, seed=3)
    assert np.array_equal(a.train, b.train) and np.array_equal(a.holdout, b.holdout)


def test_bootstrap_split_oob_size_concentrates():
    # |holdout| ~ n / e for n = 1000; simulation over 100 seeds
    sizes = [bootstrap_split(1000, seed=s).holdout.size for s in range(100)]
    assert min(sizes) >= 300 and max(sizes) <= 440


@given(st.integers(min_value=2, max_value=200), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_bootstrap_split_partition_property(n, seed):
    s = bootstrap_split(n, seed)
    assert s.train.shape == (n,)
    assert np.all((0 <= s.train) & (s.train < n))
    assert not set(s.holdout) & set(s.train.tolist())


def test_marginal_synthesize_preserves_support():
    t = Table(Schema((Column("x"),)), np.arange(10.0).reshape(-1, 1))
    out = marginal_synthesize(t, seed=0)
    assert set(out.values[:, 0]) <= set(t.values[:, 0])


def test_marginal_synthesize_breaks_correlation():
    rng = np.random.default_rng(0)
    x = rng.normal(size=1000)
    t = Table(Schema((Column("a"), Column("b"))), np.column_stack([x, x]))
    out = marginal_synthesize(t, seed=1)
    rho = np.corrcoef(out.values[:, 0], out.values[:, 1])[0, 1]
    assert abs(rho) < 0.1


def test_marginal_synthesize_deterministic(t2x4):
    _, table, _ = t2x4
    a = marginal_synthesize(table, seed=5)
    b = marginal_synthesize(table, seed=5)
    assert table_equal(a, b)


def test_align_to_schema_counts_unseen():
    src = Table(
        Schema((Column("c", ("a", "b", "new")),)),
        np.array([[0.0], [2.0], [1.0]]),
    )
    target = Schema((Column("c", ("a", "b")),))
    values, unseen = align_to_schema(src, target)
    assert unseen == 1
    assert values[1, 0] == -1.0


def test_table_rejects_bad_cells():
    schema = Schema((Column("x"), Column("c", ("a",))))
    with pytest.raises(DataError):
        Table(schema, np.array([[np.inf, 0.0]]))
    with pytest.raises(DataError):
        Table(schema, np.array([[0.0, 1.0]]))  # level index out of range


def test_load_csv_reads_whitespace_padded_numbers(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n 1.5 ,x\n2.0\t,y\n")
    t = load_csv(p)
    assert t.schema.columns[0] == Column("a")
    assert t.values[:, 0].tolist() == [1.5, 2.0]


@pytest.mark.parametrize("cell", ["inf", "-inf", "1e999", " -1e999 "])
def test_load_csv_non_finite_number_in_numeric_column_is_an_error(tmp_path, cell):
    p = tmp_path / "t.csv"
    p.write_text(f"a,b\n1.0,2.0\n2.0,{cell}\n3.0,4.0\n")
    with pytest.raises(DataError) as err:
        load_csv(p)
    assert str(err.value) == f"{p}: column 'b' is numeric but cell {cell} is not finite"


def test_load_csv_signed_nan_is_missing_and_inf_without_finite_numbers_is_a_level(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b,c,d\n1.0,-nan,x,inf\n2.0,3.0,inf,1e999\n4.0,+NaN,y,inf\n5.0,6.0,x,inf\n")
    t = load_csv(p)
    assert t.schema.columns[:2] == (Column("a"), Column("b"))
    assert t.schema.columns[2] == Column("c", ("inf", "x"))
    assert t.schema.columns[3] == Column("d", ("1e999", "inf"))  # no finite number
    assert t.values[:, 1].tolist() == [3.0, 6.0]
    assert t.n == 2 and t.n_dropped_rows == 2


def test_load_csv_drops_and_counts_na_rows(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1.0,x\nNA,y\n2.0, na \nnan,x\n3.0,NaN\n4.0,y\n")
    t = load_csv(p)
    assert t.values[:, 0].tolist() == [1.0, 4.0]
    assert t.schema.columns[1] == Column("b", ("x", "y"))
    assert t.n_dropped_rows == 4


@pytest.mark.parametrize(
    "cells, bad",
    [
        (["1.0", "inf", "foo"], "cell inf is not finite"),
        (["1.0", "-nan", "1e999"], "cell 1e999 is not finite"),
        (["1.0", "foo", "inf"], "cell 'foo' is not a number"),
    ],
)
def test_load_csv_hinted_continuous_error_names_first_bad_cell(tmp_path, cells, bad):
    p = tmp_path / "t.csv"
    p.write_text("a\n" + "\n".join(cells) + "\n")
    with pytest.raises(DataError) as err:
        load_csv(p, schema_hint=Schema((Column("a"),)))
    assert str(err.value) == f"{p}: column 'a' declared continuous but {bad}"


def test_load_csv_reads_a_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" starts the file with a BOM, which must not reach the first name
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text("a,b\n1.5,x\n2.0,y\n", encoding="utf-8")
    marked.write_text("a,b\n1.5,x\n2.0,y\n", encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    t = load_csv(marked)
    assert t.schema.names == ["a", "b"]
    assert table_equal(t, load_csv(plain))


def test_load_csv_names_the_row_of_the_wrong_width(tmp_path):
    # a trailing blank line is a row of no cells
    p = tmp_path / "q.csv"
    p.write_text("a,b,c,d\n1,2,3,4\n\n")
    with pytest.raises(DataError) as err:
        load_csv(p)
    assert str(err.value) == f"{p}: row 3 has 0 cells, the header has 4"
    p.write_text("a,b\n1,2\n3\n4,5,6\n")
    with pytest.raises(DataError) as err:
        load_csv(p)
    assert str(err.value) == f"{p}: row 3 has 1 cells, the header has 2"


def test_load_csv_names_a_duplicate_column(tmp_path):
    p = tmp_path / "dup.csv"
    p.write_text("a,b,a\n1,x,2\n3,y,4\n")
    with pytest.raises(DataError) as err:
        load_csv(p)
    assert str(err.value) == f"{p}: column 'a' appears twice in the header"
