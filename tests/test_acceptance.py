"""Acceptance suite: one test per release criterion, each at its stated
tolerance and wall-clock budget. A summary line per criterion is printed by
the conftest hook."""

import csv
import itertools
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from forestae.data import Column, Schema, Table, load_csv
from forestae.decode import (
    build_synthetic_training,
    ilp_decode_exact,
    knn_decode,
    reference_leaf_assign,
)
from forestae.forest import (
    ForestParams,
    fit_completely_random,
    fit_supervised,
    fit_unsupervised,
    leaf_region,
    region_intersect,
    route_table,
)
from forestae.kernel import mmd_squared, rf_kernel_cross, rf_kernel_train
from forestae.metrics import distortion, separation_ratio
from forestae.spectral import (
    eigendecompose,
    nystrom_embed,
    reconstruct_kernel,
    with_time,
)
from forestae.bundle import load_bundle
from forestae.cli import main as cli_main
from conftest import forest_of, make_blobs, make_mixed

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()

    def check(self) -> None:
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, f"runtime {elapsed:.1f}s exceeds {self.seconds}s budget"


def _five_datasets():
    rng = np.random.default_rng(0)
    blob, _ = make_blobs(300, 3, seed=1)
    mixed = make_mixed(500, seed=2)
    wide, _ = make_blobs(1000, 5, seed=3)
    uniform = Table(
        Schema((Column("u0"), Column("u1"))), rng.random((200, 2))
    )
    skew = Table(
        Schema((Column("s0"), Column("s1"), Column("flag", ("f", "t")))),
        np.column_stack(
            [rng.exponential(2, 400), rng.normal(0, 3, 400), (rng.random(400) < 0.3).astype(float)]
        ),
    )
    return [blob, mixed, wide, uniform, skew]


def test_c01_double_stochasticity():
    budget = Budget(30)
    for i, table in enumerate(_five_datasets()):
        n_trees = 10 if i % 2 == 0 else 100
        params = ForestParams(n_trees=n_trees, min_leaf=3, bootstrap=True, seed=i)
        if i == 1:
            forest = fit_unsupervised(table, params)
        else:
            forest = fit_completely_random(table, params)
        K = rf_kernel_train(forest, table)
        assert np.abs(K.row_sums() - 1).max() <= 1e-10
        assert np.abs(np.asarray(K.matrix.sum(axis=0)).ravel() - 1).max() <= 1e-10
    budget.check()


def test_c02_positive_semidefinite():
    budget = Budget(10)
    for seed in range(10):
        table = make_mixed(150, seed=seed)
        forest = fit_completely_random(
            table, ForestParams(n_trees=20, min_leaf=2, seed=seed)
        )
        K = rf_kernel_train(forest, table).toarray()
        assert np.linalg.eigvalsh(K).min() >= -1e-8
    budget.check()


def test_c03_prediction_functional_identity():
    budget = Budget(10)
    table, labels = make_blobs(200, 3, seed=4)
    y = labels + 0.25 * table.values[:, 1]
    params = ForestParams(
        n_trees=25, min_leaf=3, subsample_fraction=1.0, honest=False, seed=5
    )
    forest = fit_supervised(table, (Column("y"), y), params)
    rng = np.random.default_rng(6)
    queries = Table(table.schema, rng.normal(0, 2.5, size=(100, 3)))
    K0 = rf_kernel_cross(forest, queries, table)
    from forestae.forest import predict, route_table as _route

    direct = predict(forest, queries.values)
    assert np.abs(direct - K0.matrix @ y).max() <= 1e-10

    qids, _ = _route(forest, queries)
    tids, _ = _route(forest, table)
    scornet = np.zeros((100, 200))
    for b in range(forest.n_trees):
        scornet += qids[:, b][:, None] == tids[:, b][None, :]
    scornet /= forest.n_trees
    assert np.abs(direct - scornet @ y).max() > 1e-3
    budget.check()


def test_c04_nystrom_self_consistency_via_cli(tmp_path):
    budget = Budget(10)
    from forestae.data import save_csv

    datasets = [make_blobs(60, 2, seed=7)[0], make_blobs(90, 3, seed=8)[0], make_mixed(80, seed=9)]
    for seed, table in enumerate(datasets):
        data = tmp_path / f"train{seed}.csv"
        save_csv(table, data)
        bundle = tmp_path / f"m{seed}.json"
        assert cli_main([
            "fit", str(data), "--mode", "completely_random", "--d-z", "2",
            "--trees", "20", "--min-leaf", "3", "--out", str(bundle),
            "--seed", str(seed),
        ]) == 0
        emb = tmp_path / f"emb{seed}.csv"
        assert cli_main(["encode", str(bundle), str(data), "--out", str(emb)]) == 0
        Z0 = np.loadtxt(emb, delimiter=",", skiprows=1)
        assert np.abs(Z0 - load_bundle(bundle).model.Z).max() <= 1e-8
    budget.check()


def test_c05_reconstruction_error_monotone():
    budget = Budget(10)
    table = make_mixed(64, seed=9)
    forest = fit_completely_random(table, ForestParams(n_trees=15, min_leaf=2, seed=9))
    K = rf_kernel_train(forest, table)
    dense = K.toarray()
    full = with_time(eigendecompose(K, 63), 1.0)
    errs = []
    for d_z in (1, 2, 4, 8, 16, 32, 63):
        model = full.truncate(d_z)
        errs.append(np.linalg.norm(reconstruct_kernel(model.Z, model) - dense))
    assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 1e-6
    budget.check()


def test_c06_synthetic_training_invariant():
    budget = Budget(10)
    table = make_mixed(150, seed=10)
    forest = fit_completely_random(table, ForestParams(n_trees=25, min_leaf=3, seed=10))
    K = rf_kernel_train(forest, table)
    model = with_time(eigendecompose(K, 4), 1.0)
    synth = build_synthetic_training(forest, table, seed=11)
    redo, _ = route_table(forest, synth.table)
    assert np.array_equal(redo, route_table(forest, table)[0])  # 100% identical assignments
    K0 = rf_kernel_cross(forest, synth.table, table)
    Z0 = nystrom_embed(K0, model)
    assert np.abs(Z0 - model.Z).max() <= 1e-8
    budget.check()


def test_c07_exact_assignment_uniqueness():
    budget = Budget(5)
    from test_decode import _injective_grid_forest, _stump

    forest, table = _injective_grid_forest()
    ids, _ = route_table(forest, table)
    dense = rf_kernel_cross(forest, table, table).toarray()
    for i in range(20):
        res = ilp_decode_exact(dense[i], forest, ids)
        assert res.objective <= 1e-12
        assert res.n_optima == 1
        assert np.array_equal(res.assignment, ids[i])

    # the two-point counterexample admits exactly two tied optima
    schema = Schema((Column("x0"), Column("x1")))
    pair = Table(schema, np.array([[0.0, 0.0], [1.0, 1.0]]))
    cx = forest_of(
        [_stump(0, 0.5, (1, 1)), _stump(1, 0.5, (1, 1))],
        schema=schema,
        feature_ranges=np.array([[0.0, 1.0], [0.0, 1.0]]),
        params=ForestParams(n_trees=2, seed=0),
        kind="none",
    )
    pids, _ = route_table(cx, pair)
    res = ilp_decode_exact(np.array([0.5, 0.5]), cx, pids)
    assert res.n_optima == 2 and res.objective <= 1e-12
    budget.check()


def test_c08_hardening_termination():
    budget = Budget(5)
    rng = np.random.default_rng(12)
    count = 0
    for fseed in range(10):
        table = make_mixed(40, seed=fseed)
        forest = fit_completely_random(
            table, ForestParams(n_trees=5, max_depth=3, min_leaf=2, seed=fseed)
        )
        # the training routing is the reference
        reference = route_table(forest, table)[0] + forest.leaf_offsets
        for _ in range(10):
            scores = rng.random((1, forest.total_leaves))
            leaves = np.arange(forest.total_leaves)[None]
            pick = reference_leaf_assign(leaves, scores, reference)[0]
            assert (reference == pick).all(axis=1).any()  # some reference row's leaves
            picks = pick - forest.leaf_offsets
            regions = [leaf_region(forest, b, int(l)) for b, l in enumerate(picks)]
            assert len(picks) == forest.n_trees  # one leaf per tree
            for a, b in itertools.combinations(range(forest.n_trees), 2):
                assert not region_intersect([regions[a], regions[b]]).is_empty()
            assert not region_intersect(regions).is_empty()
            count += 1
    assert count == 100
    budget.check()


def test_c09_knn_decoder_consistency_trend():
    budget = Budget(120)
    per_seed_scores = []
    for seed in range(10):
        table, _ = make_blobs(500, 4, seed=100 + seed)
        holdout, _ = make_blobs(150, 4, seed=500 + seed)
        forest = fit_completely_random(
            table, ForestParams(n_trees=300, min_leaf=5, seed=seed)
        )
        K = rf_kernel_train(forest, table)
        full = eigendecompose(K, 4)
        synth = build_synthetic_training(forest, table, seed=seed)
        K0 = rf_kernel_cross(forest, holdout, table, strict=False)
        scores = []
        for d_z in (1, 2, 3, 4):
            model = with_time(full.truncate(d_z), 1.0)
            Z0 = nystrom_embed(K0, model)
            out = knn_decode(Z0, model, forest, synth, k=20, seed=seed)
            scores.append(distortion(holdout, out).combined)
        per_seed_scores.append(scores)
    arr = np.array(per_seed_scores)
    means = arr.mean(axis=0)
    assert np.all(np.diff(means) < 0), f"mean distortion not strictly decreasing: {means}"
    rhos = [scipy.stats.spearmanr([1, 2, 3, 4], s).statistic for s in per_seed_scores]
    assert float(np.mean(rhos)) <= -0.8
    budget.check()


def test_c10_headline_benchmark(tmp_path):
    budget = Budget(600)
    data = tmp_path / "banknote.csv"
    subprocess.run(
        [sys.executable, str(SCRIPTS / "make_banknote_analog.py"), str(data), "--seed", "0"],
        check=True,
    )
    table = load_csv(data)
    assert table.n == 1372 and table.schema.n_columns == 5
    out = tmp_path / "bench.csv"
    rc = cli_main([
        "bench", str(data), "--bootstraps", "10", "--mode", "unsupervised",
        "--trees", "500", "--min-leaf", "4", "--max-depth", "12", "--tree-bootstrap",
        "--k", "20", "--jobs", "2", "--out", str(out), "--seed", "1",
    ])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 100  # 10 rates x 10 bootstraps
    by_rate = {}
    for row in rows:
        by_rate.setdefault(row["rate"], []).append(float(row["distortion"]))
    best = min(float(np.mean(v)) for v in by_rate.values())
    assert best <= 0.30, f"best mean distortion {best:.3f} exceeds 0.30"
    budget.check()


def test_c11_embedding_separates_clusters():
    budget = Budget(60)
    rng = np.random.default_rng(13)
    centers = np.array([[-4, -4, 0], [4, -4, 0], [-4, 4, 0], [4, 4, 0]], dtype=float)
    labels = rng.integers(0, 4, size=400)
    values = centers[labels] + rng.normal(scale=1.0, size=(400, 3))
    table = Table(Schema((Column("x0"), Column("x1"), Column("x2"))), values)
    forest = fit_supervised(
        table,
        (Column("y", ("a", "b", "c", "d")), labels.astype(float)),
        ForestParams(n_trees=100, min_leaf=4, bootstrap=True, seed=14),
    )
    K = rf_kernel_train(forest, table)
    model = with_time(eigendecompose(K, 2), 1.0)
    true_ratio = separation_ratio(model.Z, labels)
    shuffled = [
        separation_ratio(model.Z, rng.permutation(labels)) for _ in range(100)
    ]
    assert true_ratio > np.quantile(shuffled, 0.95)
    budget.check()


def test_c12_mmd_direction():
    budget = Budget(60)
    wins = 0
    for seed in range(20):
        table, _ = make_blobs(400, 2, seed=200 + seed)
        forest = fit_completely_random(
            table, ForestParams(n_trees=40, min_leaf=4, seed=seed)
        )
        rng = np.random.default_rng(300 + seed)
        schema = table.schema
        same_a = Table(schema, rng.normal(-2, 1, (200, 2)))
        same_b = Table(schema, rng.normal(-2, 1, (200, 2)))
        other = Table(schema, rng.normal(2, 1, (200, 2)))
        same = mmd_squared(same_a, same_b, forest, table)
        diff = mmd_squared(same_a, other, forest, table)
        wins += same < diff
    assert wins >= 19, f"only {wins}/20 seeds ordered correctly"
    budget.check()


def test_c13_fixture_exactness(t2x4):
    budget = Budget(1)
    forest, table, K_expected = t2x4
    K = rf_kernel_train(forest, table)
    assert np.abs(K.toarray() - K_expected).max() <= 1e-12
    # the constant pair (1, 1/2) is exact and deflated: K·1 = 1
    assert np.abs(K.row_sums() - 1.0).max() <= 1e-12
    model = eigendecompose(K, 3)
    assert np.abs(model.eigenvalues - np.array([0.5, 0.5, 0.0])).max() <= 1e-10
    budget.check()
