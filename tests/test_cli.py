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
from forestae.data import Table, load_csv
from forestae.decode import ilp_decode_exact
from forestae.forest import route_table
from forestae.kernel import SparseKernelMatrix, leaf_profile, rf_kernel_train
from forestae.spectral import reconstruct_kernel


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


def test_fit_deterministic_bytes(tmp_path):
    data = _write_blobs_csv(tmp_path / "train.csv", n=50, seed=2)
    out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
    args = ["fit", str(data), "--mode", "unsupervised", "--d-z", "2",
            "--trees", "10", "--min-leaf", "3", "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # growing the trees in two processes must not change the bundle
    out3 = tmp_path / "m3.json"
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


def test_encode_warns_on_unseen_level(tmp_path, capsys):
    rng = np.random.default_rng(6)
    data = tmp_path / "train.csv"
    with open(data, "w") as fh:
        fh.write("x,c\n")
        for i in range(40):
            fh.write(f"{rng.normal()!r},{'u' if i % 2 else 'v'}\n")
    bundle = tmp_path / "m.json"
    assert main(["fit", str(data), "--mode", "completely_random", "--d-z", "2",
                 "--trees", "10", "--out", str(bundle), "--seed", "2"]) == 0
    query = tmp_path / "q.csv"
    query.write_text("x,c\n0.5,brand-new\n")
    out = tmp_path / "emb.csv"
    assert main(["encode", str(bundle), str(query), "--out", str(out)]) == 0
    assert "unseen-level" in capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 2


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
        assert set(r) == {"row", "objective", "converged", "iterations", "repaired"}
        assert r["converged"] is True and r["objective"] >= 0.0
        assert isinstance(r["iterations"], int) and isinstance(r["repaired"], bool)
    untraced = tmp_path / "plain.csv"
    assert main(["decode", str(bundle), str(head), "--decoder", "lasso",
                 "--out", str(untraced), "--seed", "2"]) == 0
    assert untraced.read_bytes() == out.read_bytes()


def _cli_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(Path(forestae.__file__).resolve().parents[1])}


def test_cli_import_leaves_scipy_optimize_unloaded():
    # the lasso solver imports scipy.optimize and k-NN decoding scipy.spatial on
    # first use; no other command pays for them
    code = ("import sys, forestae.cli; "
            "print('scipy.optimize' in sys.modules, 'scipy.spatial' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=_cli_env())
    assert done.stdout.strip() == "False False"


def test_encode_rejects_cyclic_tree_without_hanging(tmp_path):
    from forestae.bundle import forest_digest, forest_to_dict

    data = _write_blobs_csv(tmp_path / "train.csv", n=40, seed=6, with_label=False)
    bundle = tmp_path / "m.json"
    assert main(["fit", str(data), "--mode", "completely_random", "--d-z", "2",
                 "--trees", "3", "--min-leaf", "3", "--out", str(bundle), "--seed", "1"]) == 0
    forest = load_bundle(bundle).forest
    tree = forest.trees[1]
    leaf = int(np.flatnonzero(tree.leaf_id >= 0)[0])
    # the leaf becomes a split whose children are the root: routing would loop
    tree.feature[leaf], tree.left[leaf], tree.right[leaf], tree.leaf_id[leaf] = 0, 0, 0, -1
    doc = json.loads(bundle.read_text())
    doc["forest"], doc["forest_sha"] = forest_to_dict(forest), forest_digest(forest)
    bundle.write_text(json.dumps(doc))
    done = subprocess.run(
        [sys.executable, "-m", "forestae.cli", "encode", str(bundle), str(data),
         "--out", str(tmp_path / "emb.csv")],
        capture_output=True, text=True, env=_cli_env(), timeout=60,
    )
    assert done.returncode == 1
    assert "BundleError" in done.stderr and "parent" in done.stderr


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


def test_bench_row_count_and_ranges(tmp_path):
    data = _write_blobs_csv(tmp_path / "train.csv", n=70, seed=8)
    out = tmp_path / "bench.csv"
    rc = main(["bench", str(data), "--rates", "0.5,1.0", "--bootstraps", "2",
               "--mode", "completely_random", "--trees", "20", "--min-leaf", "3",
               "--k", "5", "--out", str(out), "--seed", "11"])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        assert 0.0 <= float(row["distortion"]) <= 1.0
        assert row["decoder"] == "knn"
    assert sorted({row["rate"] for row in rows}) == ["0.5", "1.0"]


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
    [("1.0,abc\n", "non-numeric"), ("1.0,2.0\n3.0\n", "row 3 has 1 cells")],
)
def test_decode_malformed_embedding_usage_error(fitted, tmp_path, capsys, body, message):
    _, bundle = fitted
    emb = tmp_path / "bad.csv"
    emb.write_text("KPC1,KPC2\n" + body)
    rc = main(["decode", str(bundle), str(emb), "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.csv" in err and message in err


def test_decode_relabel_traces_dropped_draws(tmp_path):
    # an unsupervised forest has leaves holding only synthetic-class rows, so
    # some node draws meet no reference row in any tree
    data = _write_blobs_csv(tmp_path / "train.csv", n=60, seed=1, with_label=False)
    bundle, emb = tmp_path / "m.json", tmp_path / "z.csv"
    assert main(["fit", str(data), "--mode", "unsupervised", "--d-z", "2", "--trees", "3",
                 "--out", str(bundle), "--seed", "1"]) == 0
    assert main(["encode", str(bundle), str(data), "--out", str(emb)]) == 0
    trace = tmp_path / "t.jsonl"
    assert main(["decode", str(bundle), str(emb), "--decoder", "relabel", "--n-synth", "32",
                 "--out", str(tmp_path / "r.csv"), "--trace", str(trace)]) == 0
    rec = json.loads(trace.read_text().splitlines()[0])
    assert rec["dropped_draws"] > 0 and rec["degenerate_nodes"] >= 0


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
