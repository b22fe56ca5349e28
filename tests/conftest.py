"""Shared fixtures: the hand-built two-tree forest over four points, plus
synthetic dataset helpers used across the suite. Also prints one summary line
per acceptance criterion."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from forestae.data import Column, Schema, Table
from forestae.forest import Forest, ForestParams, Tree

_CRITERIA = {
    "test_c01": "double stochasticity",
    "test_c02": "positive semidefiniteness",
    "test_c03": "prediction functional identity",
    "test_c04": "Nystrom self-consistency (CLI)",
    "test_c05": "kernel reconstruction monotonicity",
    "test_c06": "synthetic training invariant",
    "test_c07": "exact assignment uniqueness",
    "test_c08": "hardening termination",
    "test_c09": "k-NN decoder consistency trend",
    "test_c10": "headline benchmark analog",
    "test_c11": "embedding cluster separation",
    "test_c12": "MMD direction",
    "test_c13": "fixture exactness",
}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    key = name.split("_", 2)
    tag = "_".join(key[:2])
    label = _CRITERIA.get(tag, name)
    status = "PASS" if report.outcome == "passed" else "FAIL"
    print(f"\n[{tag.replace('test_c', 'AC-')}] {label}: {status} ({report.duration:.1f}s)")


ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def mixed_fold_1009(tmp_path_factory):
    """The benchmark's mixed-decoders fold of data seed 1009 (``perfbench/
    workloads.py``), fitted and encoded by the CLI at the workload's flags and
    CLI seed 1010: (train CSV, bundle, query embedding CSV)."""
    from forestae.cli import main

    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOADS["mixed-decoders"]
    work = tmp_path_factory.mktemp("mixed1009")
    workload.make_inputs(ROOT, work, 1009)
    train, bundle, emb = work / "train.csv", work / "model.json.gz", work / "z.csv"
    seed = ["--seed", "1010"]
    assert main(["fit", str(train), *workload.fit_args, *seed, "--out", str(bundle)]) == 0
    assert main(["encode", str(bundle), str(work / "query.csv"), *seed, "--out", str(emb)]) == 0
    return train, bundle, emb


def forest_of(trees, **fields) -> Forest:
    """A forest of hand-built ``Tree``s, stacked tree after tree; ``fields``
    are its other ``Forest`` fields. Each tree's Equals splits must be the
    ones its schema implies."""
    forest = Forest(
        n_nodes=np.array([t.n_nodes for t in trees], dtype=np.int64),
        **{name: np.concatenate([getattr(t, name) for t in trees])
           for name in ("feature", "threshold", "leaf_count", "leaf_stat")},
        **fields,
    )
    assert all(np.array_equal(t.is_equal, s.is_equal) for t, s in zip(trees, forest.trees))
    return forest


def _stump(feature: int, threshold: float, counts) -> Tree:
    """Single-split tree: x[feature] < threshold goes left."""
    return Tree(
        feature=np.array([feature, -1, -1], dtype=np.int32),
        threshold=np.array([threshold, 0.0, 0.0]),
        is_equal=np.array([False, False, False]),
        leaf_count=np.array(counts, dtype=np.int64),
        leaf_stat=np.zeros(2),
    )


@pytest.fixture
def t2x4():
    """Four points, two single-split trees.

    Tree 0 splits x0 < 0.5: leaf A = {p0, p1}, leaf B = {p2, p3}.
    Tree 1 splits x1 < 0.5: leaf C = {p0, p2}, leaf D = {p1, p3}.
    Known kernel: [[.5,.25,.25,0],[.25,.5,0,.25],[.25,0,.5,.25],[0,.25,.25,.5]].
    """
    schema = Schema((Column("x0"), Column("x1")))
    points = np.array([[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]])
    table = Table(schema, points)
    forest = forest_of(
        [_stump(0, 0.5, (2, 2)), _stump(1, 0.5, (2, 2))],
        schema=schema,
        feature_ranges=np.array([[0.25, 0.75], [0.25, 0.75]]),
        params=ForestParams(n_trees=2, seed=0),
        kind="none",
    )
    K_expected = np.array(
        [
            [0.50, 0.25, 0.25, 0.00],
            [0.25, 0.50, 0.00, 0.25],
            [0.25, 0.00, 0.50, 0.25],
            [0.00, 0.25, 0.25, 0.50],
        ]
    )
    return forest, table, K_expected


def make_blobs(n: int, d: int, seed: int, separation: float = 4.0) -> tuple[Table, np.ndarray]:
    """Two Gaussian blobs separated along every axis; returns (table, labels)."""
    rng = np.random.default_rng(seed)
    half = n // 2
    a = rng.normal(-separation / 2, 1.0, size=(half, d))
    b = rng.normal(separation / 2, 1.0, size=(n - half, d))
    values = np.vstack([a, b])
    labels = np.concatenate([np.zeros(half), np.ones(n - half)])
    schema = Schema(tuple(Column(f"x{j}") for j in range(d)))
    return Table(schema, values), labels


def make_mixed(n: int, seed: int) -> Table:
    """Mixed continuous/categorical table with cross-column dependence."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(0, 1, n)
    x1 = x0 * 0.8 + rng.normal(0, 0.5, n)
    cat = (x0 > 0).astype(float)
    cat[rng.random(n) < 0.1] = 2.0
    schema = Schema(
        (Column("a"), Column("b"), Column("c", ("low", "high", "odd")))
    )
    return Table(schema, np.column_stack([x0, x1, cat]))
