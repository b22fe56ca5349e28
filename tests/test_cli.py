import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import forestae
from forestae.bundle import load_bundle
from forestae.cli import main
from forestae.data import Table, load_csv, save_csv
from forestae.decode import (
    DecodeError,
    knn_decode,
    lasso_decode,
    relabel_forest,
    route_relabeled,
)
from forestae.forest import ForestError, ForestParams, assigned_region, route_table
from forestae.kernel import SparseKernelMatrix, leaf_profile, rf_kernel_train
from forestae.spectral import SpectralError, reconstruct_kernel, with_time
from conftest import make_mixed
from oracles import ilp_decode_exact


def _write_blobs_csv(path, n=80, seed=0, with_label=True):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack([rng.normal(-2, 1, (half, 3)), rng.normal(2, 1, (n - half, 3))])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("a,b,c" + (",grp\n" if with_label else "\n"))
        for i, row in enumerate(X):
            cells = ",".join(repr(float(v)) for v in row)
            fh.write(cells + (f",g{int(i >= half)}\n" if with_label else "\n"))
    return path


@pytest.fixture
def fitted(tmp_path):
    data = _write_blobs_csv(tmp_path / "train.csv", n=60, seed=1)
    bundle = tmp_path / "model.json"
    rc = main([
        "fit", str(data), "--mode", "completely_random", "--d-z", "3",
        "--trees", "15", "--min-leaf", "3", "--out", str(bundle), "--seed", "5",
    ])
    assert rc == 0
    return data, bundle


def test_fit_round_trips_bundle(fitted):
    data, bundle = fitted
    b = load_bundle(bundle)
    assert b.model.Z is not None and b.model.Z.shape == (60, 3)
    again = load_bundle(bundle)
    assert np.array_equal(b.model.Z, again.model.Z)


def test_fit_deterministic_bytes(tmp_path, capsys):
    for n, solver in ((50, "dense"), (850, "lanczos")):
        data = _write_blobs_csv(tmp_path / f"train{n}.csv", n=n, seed=2)
        out1, out2 = tmp_path / f"{n}-1.json", tmp_path / f"{n}-2.json"
        args = ["fit", str(data), "--mode", "unsupervised", "--d-z", "2",
                "--trees", "10", "--min-leaf", "3", "--seed", "9"]
        assert main(args + ["--verbose", "--out", str(out1)]) == 0
        err = capsys.readouterr().err
        assert f"eig={solver}" in err
        # the report's bundle size is the file's, in MB
        assert f"bundle_mb={out1.stat().st_size / 1e6:.3f}" in err
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        # growing the trees in two processes must not change the bundle
        out3 = tmp_path / f"{n}-3.json"
        assert main(args + ["--jobs", "2", "--out", str(out3)]) == 0
        assert out1.read_bytes() == out3.read_bytes()
    # the gzip container must not record the output file name
    gz1, gz2 = tmp_path / "first.json.gz", tmp_path / "second-name.json.gz"
    assert main(args + ["--out", str(gz1)]) == 0
    assert main(args + ["--out", str(gz2)]) == 0
    assert gz1.read_bytes() == gz2.read_bytes()


def test_fit_rejects_oversized_dimension(tmp_path, capsys):
    data = _write_blobs_csv(tmp_path / "train.csv", n=20, seed=3)
    rc = main(["fit", str(data), "--mode", "completely_random", "--d-z", "20",
               "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert "d-z" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:kernel graph appears disconnected")
@pytest.mark.parametrize("mode", ["unsupervised", "completely_random"])
def test_fit_on_one_ulp_cells(tmp_path, mode):
    # every pair of three adjacent floats: the leaf cells are one ulp wide, and
    # a synthetic draw must not round onto a cut
    values = ["1.0", "1.0000000000000002", "1.0000000000000004"]
    data = tmp_path / "ulp.csv"
    data.write_text("a,b\n" + "".join(f"{values[i % 3]},{values[i // 3 % 3]}\n"
                                      for i in range(90)))
    assert main(["fit", str(data), "--mode", mode, "--d-z", "1", "--trees", "50",
                 "--min-leaf", "1", "--seed", "3", "--out", str(tmp_path / "m.json")]) == 0


def test_gzip_bundle_container(tmp_path):
    data = _write_blobs_csv(tmp_path / "train.csv", n=40, seed=4)
    bundle = tmp_path / "model.json.gz"
    assert main(["fit", str(data), "--mode", "completely_random", "--d-z", "2",
                 "--trees", "8", "--out", str(bundle), "--seed", "1"]) == 0
    assert load_bundle(bundle).model.d_z == 2


def test_encode_training_rows_match_bundle(fitted, tmp_path):
    data, bundle = fitted
    out = tmp_path / "emb.csv"
    assert main(["encode", str(bundle), str(data), "--out", str(out)]) == 0
    Z0 = np.loadtxt(out, delimiter=",", skiprows=1)
    b = load_bundle(bundle)
    assert np.abs(Z0 - b.model.Z).max() <= 1e-8
    header = out.read_text().splitlines()[0]
    assert header == "KPC1,KPC2,KPC3"


def test_encode_empty_query_file(fitted, tmp_path):
    _, bundle = fitted
    empty = tmp_path / "empty.csv"
    empty.write_text("a,b,c\n")
    out = tmp_path / "emb.csv"
    assert main(["encode", str(bundle), str(empty), "--out", str(out)]) == 0
    assert out.read_text().splitlines() == ["KPC1,KPC2,KPC3"]


def test_encode_and_decode_read_a_byte_order_mark(fitted, tmp_path):
    # Excel's "CSV UTF-8" starts the file with a BOM; the bundle was fitted on a BOM-less table
    data, bundle = fitted
    bom = b"\xef\xbb\xbf"
    marked = tmp_path / "marked.csv"
    marked.write_bytes(bom + data.read_bytes())
    plain_emb, marked_emb = tmp_path / "plain_emb.csv", tmp_path / "marked_emb.csv"
    assert main(["encode", str(bundle), str(data), "--out", str(plain_emb)]) == 0
    assert main(["encode", str(bundle), str(marked), "--out", str(marked_emb)]) == 0
    assert marked_emb.read_bytes() == plain_emb.read_bytes()
    marked_emb.write_bytes(bom + plain_emb.read_bytes())
    outs = []
    for emb in (plain_emb, marked_emb):
        outs.append(tmp_path / f"dec_{emb.stem}.csv")
        assert main(["decode", str(bundle), str(emb), "--decoder", "knn", "--k", "3",
                     "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    header_only = tmp_path / "header_only.csv"
    header_only.write_bytes(bom + b"a,b,c\n")
    assert main(["encode", str(bundle), str(header_only), "--out", str(marked_emb)]) == 0
    assert marked_emb.read_text().splitlines() == ["KPC1,KPC2,KPC3"]


def test_encode_names_the_row_of_a_trailing_blank_line(fitted, tmp_path, capsys):
    data, bundle = fitted
    query = tmp_path / "q.csv"
    query.write_text("".join(data.read_text().splitlines(keepends=True)[:2]) + "\n")
    assert main(["encode", str(bundle), str(query), "--out", str(tmp_path / "z.csv")]) == 1
    assert f"{query}: row 3 has 0 cells, the header has 4" in capsys.readouterr().err


def test_fit_names_a_duplicate_column(tmp_path, capsys):
    data = tmp_path / "dup.csv"
    data.write_text("a,b,a\n" + "".join(f"{i},{i % 3},{-i}\n" for i in range(10)))
    assert main(["fit", str(data), "--d-z", "2", "--trees", "3",
                 "--out", str(tmp_path / "m.json")]) == 1
    assert f"{data}: column 'a' appears twice in the header" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:kernel graph appears disconnected")
def test_encode_warns_on_unseen_level(tmp_path, capsys):
    rng = np.random.default_rng(6)
    data = tmp_path / "train.csv"
    with open(data, "w") as fh:
        fh.write("x,c\n")
        for i in range(40):
            fh.write(f"{rng.normal()!r},{'u' if i % 2 else 'v'}\n")
    bundle = tmp_path / "m.json"
    assert main(["fit", str(data), "--mode", "unsupervised", "--d-z", "2",
                 "--trees", "10", "--out", str(bundle), "--seed", "2"]) == 0
    query = tmp_path / "q.csv"
    query.write_text("x,c\n0.5,brand-new\n")
    out = tmp_path / "emb.csv"
    assert main(["encode", str(bundle), str(query), "--out", str(out)]) == 0
    assert "unseen-level" in capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 2
    # roundtrip refuses unseen levels, but reports rows that reach leaves
    # holding only marginal-synthetic rows as encode does
    query.write_text("x,c\n-1.0,v\n1.0,u\n")
    for command in ("encode", "roundtrip"):
        assert main([command, str(bundle), str(query), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "warnings: 0 unseen-level cells, 5 empty-leaf tree cells renormalized" in err


def test_roundtrip_refuses_unseen_levels_as_usage_error(tmp_path, capsys):
    # distortion against a level the bundle never saw is undefined, so the
    # error names the column and its count of unseen cells, and writes nothing
    data = tmp_path / "train.csv"
    data.write_text("x,c\n" + "".join(f"{0.1 * i!r},{'uv'[i % 2]}\n" for i in range(40)))
    bundle = tmp_path / "m.json"
    assert main(["fit", str(data), "--mode", "unsupervised", "--d-z", "2",
                 "--trees", "10", "--out", str(bundle), "--seed", "2"]) == 0
    query = tmp_path / "q.csv"
    query.write_text("x,c\n0.5,brand-new\n1.5,u\n2.5,other\n")
    out = tmp_path / "rec.csv"
    assert main(["roundtrip", str(bundle), str(query), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and "2 cell(s) of column 'c'" in err
    assert not out.exists()


def test_fit_never_builds_the_kernel_matrix(tmp_path, monkeypatch, capsys):
    # past the dense cutoff fit needs only products with the factored kernel
    def refuse(self):
        raise AssertionError("fit built the n x n kernel")

    monkeypatch.setattr(SparseKernelMatrix, "matrix", property(refuse))
    data = _write_blobs_csv(tmp_path / "train.csv", n=850, seed=7, with_label=False)
    assert main(["fit", str(data), "--mode", "completely_random", "--d-z", "2",
                 "--trees", "6", "--min-leaf", "10", "--seed", "3", "--verbose",
                 "--out", str(tmp_path / "m.json.gz")]) == 0
    err = capsys.readouterr().err
    assert "nnz(F)=5100" in err and "eig=lanczos" in err and "residual_max=" in err
    assert int(err.split("eig_products=")[1].split()[0]) > 0
    drift = float(err.split("row_sum_drift=")[1].split()[0])
    assert 0.0 <= drift <= 1e-8 and "at_one=0" in err
    assert float(err.split("peak_rss_mb=")[1].split()[0]) > 0


@pytest.mark.parametrize("dense", [False, True])
def test_export_kernel_writes_the_train_kernel(tmp_path, dense):
    data = _write_blobs_csv(tmp_path / "train.csv", n=50, seed=8, with_label=False)
    bundle, path = tmp_path / "m.json", tmp_path / "k.txt"
    assert main(["fit", str(data), "--mode", "completely_random", "--d-z", "2",
                 "--trees", "7", "--min-leaf", "5", "--seed", "4", "--out", str(bundle),
                 "--export-kernel", str(path), *(["--dense"] if dense else [])]) == 0
    K = rf_kernel_train(load_bundle(bundle).forest, load_csv(data)).matrix
    if dense:
        assert np.array_equal(np.loadtxt(path, delimiter=","), K.toarray())
    else:
        coo = K.tocoo()
        expected = [f"{i} {j} {v!r}" for i, j, v in zip(coo.row, coo.col, coo.data.tolist())]
        assert path.read_text().splitlines() == expected


@pytest.mark.filterwarnings("ignore:kernel graph appears disconnected")
def test_encode_query_without_populated_leaf_fails(tmp_path, capsys):
    # the discriminator puts leaves where only marginal draws fell; a query
    # landing in such a leaf in every tree has no kernel row to embed
    rng = np.random.default_rng(0)
    data = tmp_path / "train.csv"
    X = np.vstack([rng.normal(-2, 0.3, (40, 2)), rng.normal(2, 0.3, (40, 2))])
    data.write_text("a,b\n" + "".join(f"{x!r},{y!r}\n" for x, y in X.tolist()))
    bundle = tmp_path / "m.json"
    assert main(["fit", str(data), "--mode", "unsupervised", "--trees", "2",
                 "--min-leaf", "1", "--d-z", "2", "--seed", "0", "--out", str(bundle)]) == 0
    b = load_bundle(bundle)
    populated = leaf_profile(b.forest, b.synth.table).weights > 0
    grid = np.stack(np.meshgrid(np.linspace(-3, 3, 61), np.linspace(-3, 3, 61)), -1)
    grid = grid.reshape(-1, 2)
    ids = route_table(b.forest, Table(b.schema, grid))[0] + b.forest.leaf_offsets
    lost = grid[~populated[ids].any(axis=1)]
    assert lost.shape[0] > 0
    query = tmp_path / "q.csv"
    query.write_text("a,b\n{!r},{!r}\n".format(*lost[0].tolist()))
    rc = main(["encode", str(bundle), str(query), "--out", str(tmp_path / "z.csv")])
    assert rc == 1
    assert "shares no populated leaf" in capsys.readouterr().err


def test_decode_knn_k1_returns_synthetic_rows(fitted, tmp_path):
    data, bundle = fitted
    emb, out = tmp_path / "emb.csv", tmp_path / "dec.csv"
    assert main(["encode", str(bundle), str(data), "--out", str(emb)]) == 0
    assert main(["decode", str(bundle), str(emb), "--decoder", "knn", "--k", "1",
                 "--out", str(out)]) == 0
    decoded = load_csv(out)
    b = load_bundle(bundle)
    assert np.abs(decoded.values - b.synth.table.values).max() <= 1e-12


def test_decode_ilp_matches_module_oracle(tmp_path):
    data = _write_blobs_csv(tmp_path / "train.csv", n=30, seed=7)
    bundle = tmp_path / "m.json"
    assert main(["fit", str(data), "--mode", "completely_random", "--d-z", "2",
                 "--trees", "3", "--max-depth", "2", "--min-leaf", "3",
                 "--out", str(bundle), "--seed", "3"]) == 0
    emb, out = tmp_path / "emb.csv", tmp_path / "dec.csv"
    assert main(["encode", str(bundle), str(data), "--out", str(emb)]) == 0
    trace = tmp_path / "trace.jsonl"
    assert main(["decode", str(bundle), str(emb), "--decoder", "ilp",
                 "--out", str(out), "--trace", str(trace), "--seed", "4"]) == 0
    b = load_bundle(bundle)
    Z0 = np.loadtxt(emb, delimiter=",", skiprows=1)
    khat = reconstruct_kernel(Z0, b.model)
    recs = [json.loads(line) for line in trace.read_text().splitlines()]
    for i in (0, 5, 11):
        res = ilp_decode_exact(khat[i], b.forest, route_table(b.forest, b.synth.table)[0])
        assert res.objective == pytest.approx(recs[i]["objective"])


def test_decode_ilp_trace_on_twenty_trees(tmp_path):
    # 4.5e17 combinations of one leaf per tree, far past a per-assignment
    # search, but only 130 non-empty cells
    data = tmp_path / "train.csv"
    save_csv(make_mixed(300, seed=1009), data)
    bundle, emb, head = tmp_path / "m.json", tmp_path / "emb.csv", tmp_path / "head.csv"
    assert main(["fit", str(data), "--mode", "unsupervised", "--trees", "20", "--max-depth", "3",
                 "--min-leaf", "3", "--d-z", "2", "--out", str(bundle), "--seed", "1010"]) == 0
    assert main(["encode", str(bundle), str(data), "--out", str(emb)]) == 0
    head.write_text("".join(emb.read_text().splitlines(keepends=True)[:41]))
    trace, out = tmp_path / "trace.jsonl", tmp_path / "dec.csv"
    assert main(["decode", str(bundle), str(head), "--decoder", "ilp", "--out", str(out),
                 "--trace", str(trace), "--seed", "1010"]) == 0
    b = load_bundle(bundle)
    assert np.prod([float(t.n_leaves) for t in b.forest.trees]) > 1e6
    recs = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [r["row"] for r in recs] == list(range(40)) and load_csv(out).n == 40
    khat = reconstruct_kernel(np.loadtxt(head, delimiter=",", skiprows=1), b.model)
    pi = route_table(b.forest, b.synth.table)[0]
    for i in (0, 17, 39):
        res = ilp_decode_exact(khat[i], b.forest, pi)
        assert (res.objective, res.n_optima) == (recs[i]["objective"], recs[i]["n_optima"])


def test_decode_lasso_trace_records(fitted, tmp_path):
    data, bundle = fitted
    emb, out, trace = tmp_path / "emb.csv", tmp_path / "dec.csv", tmp_path / "t.jsonl"
    assert main(["encode", str(bundle), str(data), "--out", str(emb)]) == 0
    head = tmp_path / "head.csv"
    head.write_text("".join(emb.read_text().splitlines(keepends=True)[:4]))
    assert main(["decode", str(bundle), str(head), "--decoder", "lasso",
                 "--out", str(out), "--trace", str(trace), "--seed", "2"]) == 0
    recs = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [r["row"] for r in recs] == [0, 1, 2]
    for r in recs:
        assert set(r) == {"row", "objective", "converged", "iterations"}
        assert r["converged"] is True and r["objective"] >= 0.0
        assert isinstance(r["iterations"], int)
    untraced = tmp_path / "plain.csv"
    assert main(["decode", str(bundle), str(head), "--decoder", "lasso",
                 "--out", str(untraced), "--seed", "2"]) == 0
    assert untraced.read_bytes() == out.read_bytes()


def _cli_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(Path(forestae.__file__).resolve().parents[1])}


def _scipy_modules_after(code: str, packages: tuple[str, ...] = ("scipy",)) -> list[str]:
    """The modules of ``packages`` that a fresh interpreter holds after running
    ``code``."""
    below = tuple(p + "." for p in packages)
    code += ("; import json, sys; print(json.dumps(sorted(m for m in sys.modules "
             f"if m in {packages!r} or m.startswith({below!r}))))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=_cli_env())
    return json.loads(done.stdout.splitlines()[-1])


# packages that a one-process command should not import
_LAZY = ("scipy", "numpy.ma", "multiprocessing", "concurrent.futures.process")


def test_cli_import_leaves_scipy_optimize_unloaded():
    # SciPy is imported only where it is needed: k-NN searches above the
    # kd-tree break-even (scipy.spatial) and the coordinate kernel export
    # (scipy.sparse); the process pool only for --jobs > 1
    assert _scipy_modules_after("import forestae.cli", _LAZY) == []


def test_dense_fit_and_lasso_decode_load_no_scipy(fitted, tmp_path):
    data, bundle = fitted
    emb, head = tmp_path / "emb.csv", tmp_path / "head.csv"
    assert main(["encode", str(bundle), str(data), "--out", str(emb)]) == 0
    head.write_text("".join(emb.read_text().splitlines(keepends=True)[:4]))
    fit = ["fit", str(data), "--mode", "completely_random", "--d-z", "3", "--trees", "15",
           "--min-leaf", "3", "--seed", "5", "--out", str(tmp_path / "m.json")]
    for call in (
        fit,
        fit + ["--export-kernel", str(tmp_path / "k.csv"), "--dense"],
        fit + ["--export-kernel", str(tmp_path / "k.txt")],
        ["decode", str(bundle), str(head), "--decoder", "lasso", "--out", str(tmp_path / "l.csv")],
    ):
        code = f"from forestae.cli import main; assert main({call!r}) == 0"
        # np.unique's hash path imports numpy.ma, 16 ms of a desk-scale command
        assert _scipy_modules_after(code, ("scipy", "numpy.ma")) == [], call
    assert (tmp_path / "k.csv").is_file() and (tmp_path / "k.txt").is_file()
    assert load_csv(tmp_path / "l.csv").n == 3


def test_lanczos_fit_loads_no_scipy(tmp_path):
    # above the dense cutoff of 800 rows the eigensolve is Lanczos in numpy
    data = _write_blobs_csv(tmp_path / "train.csv", n=850, seed=7, with_label=False)
    call = ["fit", str(data), "--mode", "completely_random", "--d-z", "2", "--trees", "3",
            "--min-leaf", "10", "--seed", "3", "--verbose", "--out", str(tmp_path / "m.json")]
    code = ("import io, sys; from forestae.cli import main; sys.stderr = err = io.StringIO(); "
            f"assert main({call!r}) == 0; sys.stderr = sys.__stderr__; "
            "assert 'eig=lanczos' in err.getvalue(), err.getvalue()")
    assert _scipy_modules_after(code, _LAZY) == []


@pytest.mark.parametrize("shape", [
    ("--trees", "1", "--max-depth", "1", "--d-z", "1"),
    ("--trees", "2", "--max-depth", "1", "--d-z", "2"),
    ("--trees", "2", "--max-depth", "2", "--d-z", "3"),
])
def test_lanczos_fits_low_rank_kernels(tmp_path, monkeypatch, capsys, shape):
    # a kernel of a few shallow trees has rank at most their leaf count, so
    # the Krylov basis reaches an invariant subspace long before it is full
    from forestae import spectral

    rng = np.random.default_rng(11)
    data = tmp_path / "train.csv"
    rows = rng.normal(size=(850, 2)).tolist()
    data.write_text("a,b\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows))
    fit = ["fit", str(data), "--mode", "completely_random", *shape, "--seed", "3", "--verbose"]
    assert main(fit + ["--out", str(tmp_path / "lanczos.json")]) == 0
    assert "eig=lanczos" in capsys.readouterr().err
    monkeypatch.setattr(spectral, "_DENSE_CUTOFF", 1000)
    assert main(fit + ["--out", str(tmp_path / "dense.json")]) == 0
    assert "eig=dense" in capsys.readouterr().err
    lanczos, dense = (load_bundle(tmp_path / f"{s}.json").model for s in ("lanczos", "dense"))
    assert np.abs(lanczos.eigenvalues - dense.eigenvalues).max() <= 1e-12
    assert np.abs(lanczos.V @ lanczos.V.T - dense.V @ dense.V.T).max() <= 1e-8


def test_decode_lasso_over_budget_exits_1_naming_knn(fitted, tmp_path, monkeypatch, capsys):
    from forestae import decode

    data, bundle = fitted
    emb = tmp_path / "emb.csv"
    assert main(["encode", str(bundle), str(data), "--out", str(emb)]) == 0
    monkeypatch.setattr(decode, "_LASSO_MAX_CELLS", 100)
    assert main(["decode", str(bundle), str(emb), "--decoder", "lasso",
                 "--out", str(tmp_path / "l.csv")]) == 1
    assert "--decoder knn" in capsys.readouterr().err
    assert not (tmp_path / "l.csv").exists()


def test_encode_ilp_relabel_load_no_scipy(tmp_path):
    data = _write_blobs_csv(tmp_path / "train.csv", n=30, seed=7)
    bundle, emb = tmp_path / "m.json", tmp_path / "z.csv"
    assert main(["fit", str(data), "--mode", "completely_random", "--d-z", "2",
                 "--trees", "3", "--max-depth", "2", "--min-leaf", "3",
                 "--out", str(bundle), "--seed", "3"]) == 0
    calls = [["encode", str(bundle), str(data), "--out", str(emb)]] + [
        ["decode", str(bundle), str(emb), "--decoder", d, "--out", str(tmp_path / f"{d}.csv")]
        for d in ("ilp", "relabel")
    ]
    code = f"from forestae.cli import main; assert [main(a) for a in {calls!r}] == [0, 0, 0]"
    assert _scipy_modules_after(code, _LAZY) == []
    assert (tmp_path / "ilp.csv").is_file() and (tmp_path / "relabel.csv").is_file()


def test_decode_knn_below_break_even_loads_no_scipy(fitted, tmp_path):
    data, bundle = fitted
    emb, out = tmp_path / "emb.csv", tmp_path / "knn.csv"
    assert main(["encode", str(bundle), str(data), "--out", str(emb)]) == 0
    call = ["decode", str(bundle), str(emb), "--decoder", "knn", "--out", str(out)]
    code = f"from forestae.cli import main; assert main({call!r}) == 0"
    assert _scipy_modules_after(code, ("scipy", "numpy.ma")) == []
    assert load_csv(out).n == 60


def test_decode_knn_trace_from_one_search(fitted, tmp_path, monkeypatch):
    from forestae import decode

    data, bundle = fitted
    emb, out, trace = tmp_path / "emb.csv", tmp_path / "dec.csv", tmp_path / "t.jsonl"
    assert main(["encode", str(bundle), str(data), "--out", str(emb)]) == 0
    knn_batch, searches = decode._knn_batch, []

    def counted(*args):
        searches.append(args[0].shape)
        return knn_batch(*args)

    monkeypatch.setattr(decode, "_knn_batch", counted)
    assert main(["decode", str(bundle), str(emb), "--decoder", "knn", "--k", "4",
                 "--out", str(out), "--trace", str(trace)]) == 0
    assert searches == [(60, 3)]
    monkeypatch.undo()
    untraced = tmp_path / "plain.csv"
    assert main(["decode", str(bundle), str(emb), "--decoder", "knn", "--k", "4",
                 "--out", str(untraced)]) == 0
    assert untraced.read_bytes() == out.read_bytes()
    recs = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [r["row"] for r in recs] == list(range(60))
    Z0 = np.loadtxt(emb, delimiter=",", skiprows=1)
    _, Z = load_bundle(bundle).model.require_time()
    for r, z0 in zip(recs, Z0):  # each row searched on its own finds the same neighbours
        idx, dist = decode._knn_batch(z0[None], Z, 4)
        weights = decode._inverse_distance_weights(dist)
        assert r["neighbors"] == idx[0].tolist() and r["weights"] == weights[0].tolist()


def test_encode_rejects_cyclic_tree_without_hanging(tmp_path):
    from dataclasses import replace

    from forestae.bundle import forest_digest, save_bundle

    data = _write_blobs_csv(tmp_path / "train.csv", n=40, seed=6, with_label=False)
    bundle = tmp_path / "m.json"
    assert main(["fit", str(data), "--mode", "completely_random", "--d-z", "2",
                 "--trees", "3", "--min-leaf", "3", "--out", str(bundle), "--seed", "1"]) == 0
    b = load_bundle(bundle)
    tree = b.forest.trees[1]  # its arrays are views of the forest's
    # the root and the first leaf swap places: the first split then comes
    # after its implied left child (node 1), so routing would loop
    swap = [0, int(np.flatnonzero(tree.feature < 0)[0])]
    tree.feature[swap], tree.threshold[swap] = tree.feature[swap[::-1]], tree.threshold[swap[::-1]]
    save_bundle(replace(b, forest_sha=forest_digest(b.forest)), bundle)
    done = subprocess.run(
        [sys.executable, "-m", "forestae.cli", "encode", str(bundle), str(data),
         "--out", str(tmp_path / "emb.csv")],
        capture_output=True, text=True, env=_cli_env(), timeout=60,
    )
    assert done.returncode == 1
    assert "BundleError" in done.stderr and "parent" in done.stderr


def test_decode_ilp_refuses_contradictory_path_under_optimization(tmp_path):
    from dataclasses import replace

    from forestae.bundle import forest_digest, save_bundle

    data = _write_blobs_csv(tmp_path / "train.csv", n=40, seed=6, with_label=False)
    bundle, emb = tmp_path / "m.json", tmp_path / "emb.csv"
    assert main(["fit", str(data), "--mode", "completely_random", "--d-z", "2",
                 "--trees", "3", "--min-leaf", "3", "--out", str(bundle), "--seed", "1"]) == 0
    assert main(["encode", str(bundle), str(data), "--out", str(emb)]) == 0
    b = load_bundle(bundle)
    tree = b.forest.trees[0]  # its arrays are views of the forest's
    # a split's left child repeats the split: the child's right side is empty
    p = next(int(k) for k in np.flatnonzero(tree.feature >= 0) if tree.feature[tree.left[k]] >= 0)
    child = tree.left[p]
    tree.feature[child], tree.threshold[child] = tree.feature[p], tree.threshold[p]
    save_bundle(replace(b, forest_sha=forest_digest(b.forest)), bundle)
    # -O strips asserts: the refusal must not be one
    done = subprocess.run(
        [sys.executable, "-O", "-m", "forestae.cli", "decode", str(bundle), str(emb),
         "--decoder", "ilp", "--out", str(tmp_path / "dec.csv")],
        capture_output=True, text=True, env=_cli_env(), timeout=60,
    )
    assert done.returncode == 1
    assert "ForestError" in done.stderr and "contradictory" in done.stderr, done.stderr


def test_decode_unknown_decoder_usage_error(fitted, tmp_path):
    data, bundle = fitted
    emb = tmp_path / "emb.csv"
    assert main(["encode", str(bundle), str(data), "--out", str(emb)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["decode", str(bundle), str(emb), "--decoder", "nope",
              "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_roundtrip_reports_distortion(fitted, tmp_path, capsys):
    data, bundle = fitted
    out = tmp_path / "recon.csv"
    rc = main(["roundtrip", str(bundle), str(data), "--decoder", "knn", "--k", "5",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["combined"] <= 1.0
    assert load_csv(out).n == 60


def test_roundtrip_refuses_one_query_row_before_writing(fitted, tmp_path, capsys):
    data, bundle = fitted
    one = tmp_path / "one.csv"
    one.write_text("".join(data.read_text().splitlines(keepends=True)[:2]))
    out = tmp_path / "rec.csv"
    assert main(["roundtrip", str(bundle), str(one), "--k", "5", "--out", str(out)]) == 2
    assert "at least 2 query rows" in capsys.readouterr().err
    assert not out.exists()


def test_roundtrip_of_a_header_only_file_is_usage_error(fitted, tmp_path, capsys):
    # refused for its row count, not as a file without complete rows
    data, bundle = fitted
    header = tmp_path / "header.csv"
    header.write_text(data.read_text().splitlines(keepends=True)[0])
    out = tmp_path / "rec.csv"
    assert main(["roundtrip", str(bundle), str(header), "--k", "5", "--out", str(out)]) == 2
    assert "at least 2 query rows to measure distortion; got 0" in capsys.readouterr().err
    assert not out.exists()


def test_roundtrip_supervised_bundle_ignores_label_column(tmp_path, capsys):
    # the data file still carries the label column; distortion is computed on
    # the feature schema only
    data = _write_blobs_csv(tmp_path / "train.csv", n=60, seed=15, with_label=True)
    bundle = tmp_path / "m.json"
    assert main(["fit", str(data), "--mode", "supervised", "--label", "grp",
                 "--d-z", "2", "--trees", "20", "--min-leaf", "3",
                 "--out", str(bundle), "--seed", "2"]) == 0
    rc = main(["roundtrip", str(bundle), str(data), "--k", "5",
               "--out", str(tmp_path / "rec.csv")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["per_feature"]) == 3


# fewer trees for lasso and ilp: 20 take lasso seconds, and exceed ilp's cell budget
@pytest.mark.parametrize("decoder, trees", [("knn", 20), ("relabel", 20), ("lasso", 8),
                                            ("ilp", 8)])
def test_bench_row_count_and_ranges(tmp_path, decoder, trees):
    data = _write_blobs_csv(tmp_path / "train.csv", n=70, seed=8)
    out = tmp_path / "bench.csv"
    rc = main(["bench", str(data), "--rates", "0.5,1.0", "--bootstraps", "2",
               "--mode", "completely_random", "--trees", str(trees), "--min-leaf", "3",
               "--decoder", decoder, "--k", "5", "--out", str(out), "--seed", "11"])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        assert 0.0 <= float(row["distortion"]) <= 1.0
        assert row["decoder"] == decoder
    assert sorted({row["rate"] for row in rows}) == ["0.5", "1.0"]


@pytest.mark.parametrize("rows", [2, 3])
def test_bench_on_a_tiny_table_is_usage_error(tmp_path, capsys, rows):
    # seed 0 keeps 1 distinct training row of 2, and 1 held-out row of 3
    data = tmp_path / "tiny.csv"
    data.write_text("a,b\n" + "".join(f"{i}.0,{i * i}.5\n" for i in range(rows)))
    out = tmp_path / "bench.csv"
    assert main(["bench", str(data), "--mode", "completely_random", "--bootstraps", "1",
                 "--rates", "0.5", "--k", "1", "--out", str(out), "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert "distinct training row(s)" in err and "at least 2" in err and "--d-z" not in err
    assert not out.exists()


def test_bench_parallel_matches_serial(tmp_path):
    data = _write_blobs_csv(tmp_path / "train.csv", n=60, seed=9)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bench", str(data), "--rates", "0.4,1.0", "--bootstraps", "2",
            "--mode", "completely_random", "--trees", "10", "--min-leaf", "3",
            "--k", "3", "--seed", "13"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b), "--jobs", "2"]) == 0
    with open(a, newline="") as fh:
        rows_a = [{k: v for k, v in r.items() if k != "runtime_s"} for r in csv.DictReader(fh)]
    with open(b, newline="") as fh:
        rows_b = [{k: v for k, v in r.items() if k != "runtime_s"} for r in csv.DictReader(fh)]
    assert rows_a == rows_b


@pytest.mark.parametrize(
    "body, message",
    [
        ("1.0,abc\n", "non-numeric"),
        ("1.0,2.0\n3.0\n", "row 3 has 1 cells"),
        ("1.0,2.0\n1.0,nan\n", "row 3 has a non-finite cell"),
        ("inf,2.0\n", "row 2 has a non-finite cell"),
    ],
)
def test_decode_malformed_embedding_usage_error(fitted, tmp_path, capsys, body, message):
    _, bundle = fitted
    emb = tmp_path / "bad.csv"
    emb.write_text("KPC1,KPC2\n" + body)
    rc = main(["decode", str(bundle), str(emb), "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.csv" in err and message in err


@pytest.mark.parametrize("decoder", ["knn", "relabel", "lasso", "ilp"])
def test_decode_non_finite_embedding_usage_error_every_decoder(fitted, tmp_path, capsys, decoder):
    _, bundle = fitted
    emb = tmp_path / "bad.csv"
    emb.write_text("KPC1,KPC2,KPC3\n0.0,0.0,0.0\n0.0,-inf,0.0\n")
    out = tmp_path / "r.csv"
    rc = main(["decode", str(bundle), str(emb), "--out", str(out), "--decoder", decoder])
    assert rc == 2
    assert "row 3 has a non-finite cell" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("decode", "--n-synth", "0"),
        ("decode", "--n-synth", "-3"),
        ("decode", "--sparsity-cap", "0"),
        ("decode", "--sparsity-cap", "-1"),
        ("roundtrip", "--n-synth", "0"),
        ("roundtrip", "--sparsity-cap", "-1"),
        ("bench", "--sparsity-cap", "0"),
        ("fit", "--t", "nan"),
        ("fit", "--t", "inf"),
        ("fit", "--t", "-1"),
        ("bench", "--t", "nan"),
        ("decode", "--k", "0"),
        ("roundtrip", "--k", "-2"),
        ("bench", "--k", "0"),
        ("decode", "--lambda", "0"),
        ("decode", "--lambda", "-1"),
        ("decode", "--lambda", "nan"),
        ("roundtrip", "--lambda", "inf"),
        ("bench", "--lambda", "nan"),
        ("bench", "--bootstraps", "0"),
        ("bench", "--rates", "abc"),
        ("bench", "--rates", "0.5,"),
        ("bench", "--rates", "1.5"),
        ("encode", "--jobs", "2"),
        ("decode", "--jobs", "2"),
        ("roundtrip", "--jobs", "3"),
    ],
)
def test_decoder_flags_below_one_are_usage_errors(fitted, tmp_path, capsys, command, flag, value):
    # numeric flags outside their domain exit 2 before any work, and the
    # library calls they feed refuse the same values
    data, bundle = fitted
    emb = tmp_path / "emb.csv"
    assert main(["encode", str(bundle), str(data), "--out", str(emb)]) == 0
    decoder = {"--n-synth": "relabel", "--sparsity-cap": "lasso", "--lambda": "lasso",
               "--k": "knn"}.get(flag)
    head = {"fit": [str(data), "--d-z", "2"], "decode": [str(bundle), str(emb)],
            "encode": [str(bundle), str(data)], "roundtrip": [str(bundle), str(data)],
            "bench": [str(data), "--verbose"]}[command]
    rc = main([command, *head, *(["--decoder", decoder] if decoder else []), flag, value,
               "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    rule = {"--t": "finite and >= 0", "--lambda": "finite and > 0",
            "--rates": "comma-separated numbers in (0, 1]",
            "--jobs": f"1 for {command}; only fit and bench run in parallel"}.get(flag, ">= 1")
    assert f"{flag} must be {rule}" in capsys.readouterr().err
    b = load_bundle(bundle)
    Z = b.model.Z[:2]
    library = {
        "--n-synth": (">= 1", lambda: relabel_forest(b.forest, b.model, b.synth,
                                                     n_synth=int(value))),
        "--sparsity-cap": (">= 1", lambda: lasso_decode(Z, b.model, b.forest, b.synth,
                                                        sparsity_cap=int(value))),
        "--k": ("k must lie", lambda: knn_decode(Z, b.model, b.forest, b.synth, k=int(value))),
        "--lambda": ("finite and positive",
                     lambda: lasso_decode(Z, b.model, b.forest, b.synth, lam=float(value))),
        "--t": ("finite and non-negative", lambda: with_time(b.model, float(value))),
    }
    if flag not in library:  # a bench-only flag
        return
    message, call = library[flag]
    with pytest.raises((DecodeError, SpectralError), match=message):
        call()


def test_query_commands_accept_jobs_one(fitted, tmp_path):
    # perfbench passes --jobs 1 to every command
    data, bundle = fitted
    emb, out = tmp_path / "emb.csv", tmp_path / "out.csv"
    assert main(["encode", str(bundle), str(data), "--jobs", "1", "--out", str(emb)]) == 0
    assert main(["decode", str(bundle), str(emb), "--jobs", "1", "--out", str(out)]) == 0
    assert main(["roundtrip", str(bundle), str(data), "--jobs", "1", "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "command, flag, value, rule",
    [
        ("fit", "--jobs", "0", "be >= 1"),
        ("fit", "--jobs", "-3", "be >= 1"),
        ("bench", "--jobs", "0", "be >= 1"),
        ("fit", "--rounds", "0", "be >= 1"),
        ("bench", "--rounds", "-1", "be >= 1"),
        ("fit", "--trees", "0", "be >= 1"),
        ("bench", "--trees", "-2", "be >= 1"),
        ("fit", "--mtry", "0", "be >= 1"),
        ("fit", "--mtry", "-1", "be >= 1"),
        ("bench", "--mtry", "0", "be >= 1"),
        ("fit", "--min-leaf", "0", "be >= 1"),
        ("fit", "--gamma", "0.9", "lie in (0, 0.5]"),
        ("fit", "--gamma", "nan", "lie in (0, 0.5]"),
        ("fit", "--subsample", "0", "lie in (0, 1]"),
        ("fit", "--max-depth", "-1", "be >= 0"),
    ],
)
def test_forest_flags_outside_domain_are_usage_errors(tmp_path, capsys, command, flag, value, rule):
    # exit 2 before any work; the library refuses the same forest parameters
    data = _write_blobs_csv(tmp_path / "train.csv", n=30)
    out = tmp_path / "out"
    head = ["--d-z", "2"] if command == "fit" else []
    assert main([command, str(data), *head, flag, value, "--out", str(out)]) == 2
    assert f"usage error: {flag} must {rule}" in capsys.readouterr().err
    assert not out.exists()
    field = {"--trees": "n_trees", "--mtry": "mtry", "--min-leaf": "min_leaf",
             "--gamma": "min_node_fraction", "--subsample": "subsample_fraction",
             "--max-depth": "max_depth"}.get(flag)
    if field:
        with pytest.raises(ForestError, match=field):
            ForestParams(**{field: float(value)})


def test_fit_dense_without_export_kernel_is_usage_error(tmp_path, capsys):
    data = _write_blobs_csv(tmp_path / "train.csv", n=30)
    out = tmp_path / "m.json"
    assert main(["fit", str(data), "--d-z", "2", "--dense", "--out", str(out)]) == 2
    assert "usage error: --dense must come with --export-kernel" in capsys.readouterr().err
    assert not out.exists()


def test_decode_relabel_traces_degenerate_nodes_and_hardened_rows(tmp_path):
    # an unsupervised forest has splits whose reference rows all go one way
    data = _write_blobs_csv(tmp_path / "train.csv", n=60, seed=1, with_label=False)
    bundle, emb = tmp_path / "m.json", tmp_path / "z.csv"
    assert main(["fit", str(data), "--mode", "unsupervised", "--d-z", "2", "--trees", "3",
                 "--out", str(bundle), "--seed", "1"]) == 0
    assert main(["encode", str(bundle), str(data), "--out", str(emb)]) == 0
    trace = tmp_path / "t.jsonl"
    assert main(["decode", str(bundle), str(emb), "--decoder", "relabel", "--n-synth", "32",
                 "--out", str(tmp_path / "r.csv"), "--trace", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert set(rec) == {"hardened_rows", "degenerate_nodes"}
    b = load_bundle(bundle)
    relabeled = relabel_forest(b.forest, b.model, b.synth, n_synth=32, seed=0)
    constant = int(np.isinf(relabeled.threshold[relabeled.feature >= 0]).sum())
    assert rec["degenerate_nodes"] == relabeled.n_degenerate == constant > 0
    # hardened rows: those whose routed leaves share no cell
    Z0 = np.loadtxt(emb, delimiter=",", skiprows=1)
    routed = route_relabeled(relabeled, Z0)
    assert rec["hardened_rows"] == int(assigned_region(b.forest, routed).is_empty().sum())


@pytest.mark.parametrize("decoder", ["knn", "relabel", "lasso", "ilp"])
def test_roundtrip_trace_matches_decode_trace(tmp_path, decoder):
    data = _write_blobs_csv(tmp_path / "train.csv", n=30, seed=7)
    bundle, emb = tmp_path / "m.json", tmp_path / "emb.csv"
    assert main(["fit", str(data), "--mode", "completely_random", "--d-z", "2",
                 "--trees", "3", "--max-depth", "2", "--min-leaf", "3",
                 "--out", str(bundle), "--seed", "3"]) == 0
    assert main(["encode", str(bundle), str(data), "--out", str(emb)]) == 0
    outs = {}
    for command, source in (("decode", emb), ("roundtrip", data)):
        out, trace = tmp_path / f"{command}.csv", tmp_path / f"{command}.jsonl"
        assert main([command, str(bundle), str(source), "--decoder", decoder, "--seed", "4",
                     "--out", str(out), "--trace", str(trace)]) == 0
        outs[command] = (out.read_bytes(), trace.read_text())
    assert outs["roundtrip"] == outs["decode"]
    assert outs["decode"][1].count("\n") == (1 if decoder == "relabel" else 30)


def test_bench_rounds_reach_unsupervised_fit(tmp_path):
    data = _write_blobs_csv(tmp_path / "train.csv", n=60, seed=9, with_label=False)
    args = ["bench", str(data), "--rates", "0.4,1.0", "--bootstraps", "1",
            "--mode", "unsupervised", "--trees", "10", "--min-leaf", "3", "--seed", "13"]
    scores = []
    for rounds, out in (("1", tmp_path / "r1.csv"), ("2", tmp_path / "r2.csv")):
        assert main(args + ["--rounds", rounds, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            scores.append([float(r["distortion"]) for r in csv.DictReader(fh)])
    assert scores[0] != scores[1]


def test_decode_empty_embedding_file(fitted, tmp_path):
    _, bundle = fitted
    emb = tmp_path / "empty.csv"
    emb.write_text("KPC1,KPC2,KPC3\n")
    out = tmp_path / "dec.csv"
    assert main(["decode", str(bundle), str(emb), "--out", str(out)]) == 0
    assert out.read_text().splitlines() == ["a,b,c,grp"]


def test_latent_rate_rounding_half_up():
    from forestae.cli import _dz_for_rate

    assert _dz_for_rate(0.1, 5) == 1  # floor of one dimension
    assert _dz_for_rate(0.5, 5) == 3  # 2.5 rounds up
    assert _dz_for_rate(0.3, 5) == 2
    assert _dz_for_rate(1.0, 5) == 5
    assert _dz_for_rate(0.1, 14) == 1
    assert _dz_for_rate(0.25, 14) == 4


def test_missing_file_runtime_error(tmp_path, capsys):
    rc = main(["fit", str(tmp_path / "nope.csv"), "--d-z", "2",
               "--out", str(tmp_path / "m.json")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_supervised_fit_of_a_label_only_table_is_usage_error(tmp_path, capsys):
    data = tmp_path / "y.csv"
    data.write_text("y\n1.0\n2.0\n3.0\n4.0\n5.0\n", encoding="utf-8")
    assert main(["fit", str(data), "--mode", "supervised", "--label", "y", "--d-z", "1",
                 "--out", str(tmp_path / "m.json")]) == 2
    assert "no feature columns, only the label 'y'" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command", ["fit", "bench"])
def test_unknown_label_is_usage_error(tmp_path, capsys, command):
    data = _write_blobs_csv(tmp_path / "train.csv", n=30, seed=3)
    extra = ["--d-z", "2"] if command == "fit" else ["--bootstraps", "1"]
    assert main([command, str(data), "--mode", "supervised", "--label", "nosuch", *extra,
                 "--trees", "3", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "--label 'nosuch' is not a column of the table" in err
    assert "its columns are 'a', 'b', 'c', 'grp'" in err


def test_encode_and_roundtrip_name_every_missing_column(fitted, tmp_path, capsys):
    _, bundle = fitted  # fitted on columns a, b, c and grp
    query = tmp_path / "query.csv"
    query.write_text("b,extra\n0.5,1.0\n-0.5,2.0\n", encoding="utf-8")
    for cmd in ("encode", "roundtrip"):
        out = tmp_path / f"{cmd}.csv"
        assert main([cmd, str(bundle), str(query), "--out", str(out)]) == 2
        assert "lacks the bundle's column(s) 'a', 'c', 'grp'" in capsys.readouterr().err
        assert not out.exists()


def test_encode_and_roundtrip_refuse_incomplete_query_rows(tmp_path, capsys):
    # fit drops and counts a row with a missing cell; encode and roundtrip must
    # emit one row per input row, so they refuse the file and write nothing
    data = tmp_path / "banknote.csv"
    scripts = Path(__file__).resolve().parent.parent / "scripts"
    subprocess.run([sys.executable, str(scripts / "make_banknote_analog.py"), str(data),
                    "--seed", "0"], check=True, capture_output=True)
    lines = data.read_text(encoding="utf-8").splitlines(keepends=True)
    train, query = tmp_path / "train.csv", tmp_path / "query.csv"
    train.write_text("".join(lines[:301]) + "NA,1.0,2.0,3.0,genuine\n", encoding="utf-8")
    cells = lines[301].split(",")
    cells[2] = "NA"
    query.write_text(lines[0] + ",".join(cells) + "".join(lines[302:306]), encoding="utf-8")
    bundle = tmp_path / "m.json.gz"
    assert main(["fit", str(train), "--trees", "20", "--min-leaf", "4", "--d-z", "2",
                 "--out", str(bundle), "--seed", "1", "--verbose"]) == 0
    assert "dropped 1 incomplete rows" in capsys.readouterr().err
    for cmd in ("encode", "roundtrip"):
        out = tmp_path / f"{cmd}.csv"
        assert main([cmd, str(bundle), str(query), "--out", str(out)]) == 2
        assert "1 incomplete row(s)" in capsys.readouterr().err
        assert not out.exists()


def test_embedding_demo_separates_true_labels(tmp_path):
    # the demo runs fit then encode; true labels must separate better than
    # the shuffled 95th percentile it prints
    script = Path(__file__).resolve().parent.parent / "scripts" / "embedding_demo.py"
    proc = subprocess.run([sys.executable, str(script), str(tmp_path)],
                          capture_output=True, text=True, env=_cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    true = float(proc.stdout.split("(true labels): ")[1].split()[0])
    shuffled_p95 = float(proc.stdout.split("95th pct ")[1].split()[0])
    assert true > shuffled_p95
