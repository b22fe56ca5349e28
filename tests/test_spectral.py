import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import forestae
from forestae.data import Column, Schema, Table, load_csv
from forestae.forest import ForestParams, fit_completely_random
from forestae.kernel import rf_kernel_train, rf_kernel_cross
from forestae.spectral import (
    SpectralError,
    SpectralModel,
    diffusion_map,
    eigendecompose,
    nystrom_embed,
    reconstruct_kernel,
    with_time,
)
from conftest import forest_of, make_mixed, make_blobs


def _fitted(n=80, seed=0, trees=12, min_leaf=2):
    table = make_mixed(n, seed=seed)
    f = fit_completely_random(table, ForestParams(n_trees=trees, min_leaf=min_leaf, seed=seed))
    K = rf_kernel_train(f, table)
    return table, f, K


def test_fixture_eigenvalues(t2x4):
    forest, table, _ = t2x4
    K = rf_kernel_train(forest, table)
    model = eigendecompose(K, 3)
    assert np.allclose(model.eigenvalues, [0.5, 0.5, 0.0], atol=1e-10)
    assert (model.solver, model.products) == ("dense", 0)


def test_leading_pair_constant_for_connected_kernel():
    # the deflated pair is K's top one: every retained eigenvalue lies below 1
    # and every retained vector is orthogonal to the constant
    _, _, K = _fitted()
    assert np.abs(K.row_sums() - 1.0).max() <= 1e-12
    model = eigendecompose(K, 4)
    assert model.eigenvalues[0] < 1 - 1e-8
    assert np.abs(model.V.sum(axis=0)).max() <= 1e-10


def test_uniform_kernel_all_zero():
    table = make_mixed(10, seed=1)
    f = fit_completely_random(table, ForestParams(n_trees=4, max_depth=0, seed=1))
    K = rf_kernel_train(f, table)
    model = eigendecompose(K, 3)
    assert np.abs(model.eigenvalues).max() <= 1e-10


def test_orthonormal_columns_and_residuals():
    _, _, K = _fitted(n=120, seed=2)
    model = eigendecompose(K, 6)
    gram = model.V.T @ model.V
    assert np.abs(gram - np.eye(6)).max() <= 1e-8
    resid = np.linalg.norm(K.matrix @ model.V - model.V * model.eigenvalues, axis=0)
    assert resid.max() <= 1e-8


def test_sign_convention_deterministic():
    _, _, K = _fitted(n=60, seed=3)
    a = eigendecompose(K, 3)
    b = eigendecompose(K, 3)
    assert np.array_equal(a.V, b.V)
    for j in range(3):
        i = int(np.argmax(np.abs(a.V[:, j])))
        assert a.V[i, j] > 0


def test_diffusion_map_time_scaling():
    _, _, K = _fitted(n=70, seed=4)
    model = eigendecompose(K, 3)
    Z0 = diffusion_map(model, 0.0)
    assert np.allclose(Z0, np.sqrt(model.n) * model.V)
    Z1 = diffusion_map(model, 1.0)
    norms = np.linalg.norm(Z1, axis=0)
    assert np.allclose(norms, np.sqrt(model.n) * np.abs(model.eigenvalues), atol=1e-8)
    Z2 = diffusion_map(model, 2.0)
    assert np.allclose(Z2, Z1 * model.eigenvalues[None, :])


def _lanczos_kernel():
    """A train kernel past the dense cutoff."""
    table, _ = make_blobs(863, 3, seed=21)
    f = fit_completely_random(table, ForestParams(n_trees=10, min_leaf=5, seed=21))
    return rf_kernel_train(f, table)


def test_sparse_eigensolve_is_bit_reproducible():
    # past the dense cutoff the Lanczos path runs; its start vector is fixed
    K = _lanczos_kernel()
    a, b = eigendecompose(K, 3), eigendecompose(K, 3)
    assert np.array_equal(a.V, b.V)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_factored_lanczos_matches_dense_eigh():
    K = _lanczos_kernel()
    model = eigendecompose(K, 3)
    assert model.solver == "lanczos" and model.residual_max <= 1e-8 and model.products > 0
    vals, vecs = np.linalg.eigh(K.toarray())
    vals, vecs = vals[::-1][:4], vecs[:, ::-1][:, :4]
    assert np.abs(vals[0] - 1.0) <= 1e-10
    assert np.abs(model.eigenvalues - vals[1:]).max() <= 1e-10
    # the same subspace: projectors agree whatever the signs
    assert np.abs(model.V @ model.V.T - vecs[:, 1:] @ vecs[:, 1:].T).max() <= 1e-8


def test_lanczos_bits_do_not_depend_on_blas_threads():
    # threaded BLAS splits long dot products by thread count, so the solver's
    # n-long sums avoid it: the same seed gives the same bundle on any host
    code = """if True:
        import hashlib
        import numpy as np
        from forestae.kernel import TRAIN, LeafFactor, SparseKernelMatrix
        from forestae.spectral import eigendecompose
        rng = np.random.default_rng(0)
        x = np.sort(rng.uniform(0.0, 1.0, 20000))
        cols = np.floor(x[:, None] * 40 + rng.uniform(0.0, 1.0, 5)).astype(np.int64)
        cols += np.arange(5) * 41
        F = LeafFactor(cols, 1.0 / np.sqrt(np.bincount(cols.ravel(), minlength=205)))
        model = eigendecompose(SparseKernelMatrix(left=F, right=F, n_trees=5, role=TRAIN), 3)
        print(model.solver, hashlib.sha256(model.V.tobytes()).hexdigest())
    """
    src = str(Path(forestae.__file__).resolve().parents[1])
    outputs = {
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                       env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                            "OMP_NUM_THREADS": threads}).stdout
        for threads in ("1", "2")
    }
    assert len(outputs) == 1 and outputs.pop().startswith("lanczos ")


def test_lanczos_restart_cap_raises(monkeypatch):
    from forestae import spectral

    monkeypatch.setattr(spectral, "_MAX_RESTARTS", 1)
    with pytest.raises(SpectralError, match="eigensolver did not converge"):
        eigendecompose(_lanczos_kernel(), 3)


def test_fractional_time_with_negative_eigenvalue_rejected():
    model = SpectralModel(
        n=4,
        d_z=1,
        eigenvalues=np.array([-0.5]),
        V=np.ones((4, 1)) * 0.5,
    )
    assert diffusion_map(model, 2.0) is not None
    with pytest.raises(SpectralError):
        diffusion_map(model, 0.5)


def test_nystrom_self_consistency():
    table, f, K = _fitted(n=90, seed=5)
    model = with_time(eigendecompose(K, 4), 1.0)
    K0 = rf_kernel_cross(f, table, table)
    Z0 = nystrom_embed(K0, model)
    assert np.abs(Z0 - model.Z).max() <= 1e-8


def test_nystrom_uniform_row_maps_to_origin():
    _, _, K = _fitted(n=50, seed=6)
    model = with_time(eigendecompose(K, 3), 1.0)
    from forestae.kernel import CROSS, LeafFactor, SparseKernelMatrix

    # K0 = left rightᵀ / n_trees: one leaf of weight 1 holds the query and all
    # 50 reference rows, so 1/50 in each of the 50 entries
    uniform = SparseKernelMatrix(
        left=LeafFactor(np.zeros((1, 1), dtype=np.int64), np.ones(1)),
        right=LeafFactor(np.zeros((50, 1), dtype=np.int64), np.ones(1)),
        n_trees=50, role=CROSS,
    )
    Z0 = nystrom_embed(uniform, model)
    assert np.abs(Z0).max() <= 1e-8


def test_nystrom_duplicate_rows_identical():
    table, f, K = _fitted(n=40, seed=7)
    model = with_time(eigendecompose(K, 3), 1.0)
    dup = Table(table.schema, np.vstack([table.values[:1], table.values[:1]]))
    K0 = rf_kernel_cross(f, dup, table)
    Z0 = nystrom_embed(K0, model)
    assert np.array_equal(Z0[0], Z0[1])


def test_reconstruct_full_spectrum_recovers_kernel():
    table, f, K = _fitted(n=40, seed=8)
    model = with_time(eigendecompose(K, 39), 1.0)
    K0 = reconstruct_kernel(model.Z, model)
    assert np.abs(K0 - K.toarray()).max() <= 1e-6


def test_reconstruct_error_monotone_in_dimension():
    table, f, K = _fitted(n=60, seed=9)
    dense = K.toarray()
    full = with_time(eigendecompose(K, 59), 1.0)
    errs = []
    for d_z in (1, 2, 4, 8, 16, 32, 59):
        model = full.truncate(d_z)
        K0 = reconstruct_kernel(model.Z, model)
        errs.append(np.linalg.norm(K0 - dense))
    assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 1e-6


def test_reconstruct_zero_row_raw_mode():
    _, _, K = _fitted(n=30, seed=10)
    model = with_time(eigendecompose(K, 3), 1.0)
    assert np.allclose(reconstruct_kernel(np.zeros((1, 3)), model), 1.0 / 30)


def test_dirichlet_energy_of_eigenvectors_is_minimal():
    table, labels = make_blobs(90, 2, seed=12)
    f = fit_completely_random(table, ForestParams(n_trees=20, min_leaf=3, seed=12))
    K = rf_kernel_train(f, table)
    dense = K.toarray()
    d_z = 2
    model = eigendecompose(K, d_z)

    def energy(V: np.ndarray) -> float:
        sq = (V * V).sum(axis=1)
        return float(np.sum(dense * ((sq[:, None] + sq[None, :]) - 2 * (V @ V.T))))

    base = energy(model.V)
    rng = np.random.default_rng(0)
    for _ in range(100):
        Q, _ = np.linalg.qr(rng.normal(size=(90, d_z)))
        assert energy(Q) >= base - 1e-9


def test_truncate_matches_smaller_decomposition():
    _, _, K = _fitted(n=90, seed=14)  # dense path
    full = with_time(eigendecompose(K, 6), 0.5)
    for d in (1, 3, 6):
        small = with_time(eigendecompose(K, d), 0.5)
        cut = full.truncate(d)
        assert cut.d_z == d and cut.t == 0.5
        for a, b in ((cut.eigenvalues, small.eigenvalues), (cut.V, small.V), (cut.Z, small.Z)):
            assert a.shape == b.shape and np.abs(a - b).max() <= 1e-12
    with pytest.raises(SpectralError):
        full.truncate(7)


def test_d_z_bounds_checked():
    _, _, K = _fitted(n=20, seed=13)
    with pytest.raises(SpectralError):
        eigendecompose(K, 0)
    with pytest.raises(SpectralError):
        eigendecompose(K, 20)


def test_disconnected_kernel_warns(t2x4):
    forest, table, _ = t2x4
    # two copies of the same stump produce a two-component kernel graph
    disconnected = forest_of(
        [forest.trees[0], forest.trees[0]],
        schema=forest.schema,
        feature_ranges=forest.feature_ranges,
        params=forest.params,
        kind="none",
    )
    K = rf_kernel_train(disconnected, table)
    with pytest.warns(UserWarning, match="disconnected: 2 components"):
        model = eigendecompose(K, 2)
    assert model.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)


def test_double_eigenvalue_one_dense_and_lanczos_agree(monkeypatch):
    # three groups of 300 rows whose leaves never mix groups: each of 10 trees
    # cuts each group into 6 leaves at random, so λ = 1 is left twice after
    # the constant pair is deflated
    from forestae import spectral
    from forestae.kernel import TRAIN, LeafFactor, SparseKernelMatrix

    rng = np.random.default_rng(0)
    group = np.repeat(np.arange(3), 300)[:, None]
    cols = np.arange(10) * 18 + group * 6 + rng.integers(0, 6, (900, 10))
    F = LeafFactor(cols, 1.0 / np.sqrt(np.bincount(cols.ravel(), minlength=180)))
    K = SparseKernelMatrix(left=F, right=F, n_trees=10, role=TRAIN)
    with pytest.warns(UserWarning, match="disconnected: 3 components"):
        lanczos = eigendecompose(K, 3)
    monkeypatch.setattr(spectral, "_DENSE_CUTOFF", 1000)
    with pytest.warns(UserWarning, match="disconnected: 3 components"):
        dense = eigendecompose(K, 3)
    assert (lanczos.solver, dense.solver) == ("lanczos", "dense")
    assert lanczos.at_one == dense.at_one == 2
    assert np.abs(lanczos.V @ lanczos.V.T - dense.V @ dense.V.T).max() <= 1e-8


def _mixed_benchmark_table(seed: int, tmp_path) -> Table:
    """The 300 training rows of the perfbench mixed-decoders table at a data
    seed, written and loaded as that workload does."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, 500)
    b = 0.8 * a + rng.normal(0.0, 0.5, 500)
    c = np.where(a > 0, "high", "low").astype(object)
    c[rng.random(500) < 0.1] = "odd"
    g = np.where(b + rng.normal(0.0, 0.5, 500) > 0, "up", "down")
    path = tmp_path / f"mixed{seed}.csv"
    path.write_text("a,b,c,g\n" + "".join(
        f"{float(a[i])!r},{float(b[i])!r},{c[i]},{g[i]}\n" for i in range(300)
    ), encoding="utf-8")
    return load_csv(path)


@pytest.mark.parametrize("seed", [14, 17, 19])
def test_disconnected_kernel_dense_and_lanczos_agree(seed, tmp_path, monkeypatch):
    # mixed-decoders folds whose 5-tree kernel graph has two components
    from scipy.sparse.csgraph import connected_components

    from forestae import spectral
    from forestae.forest import fit_unsupervised

    table = _mixed_benchmark_table(seed, tmp_path)
    params = ForestParams(n_trees=5, max_depth=3, min_leaf=3, seed=seed + 1)
    K = rf_kernel_train(fit_unsupervised(table, params), table)
    n_parts, part = connected_components(K.matrix, directed=False)
    assert n_parts == 2
    with pytest.warns(UserWarning, match="disconnected: 2 components"):
        dense = with_time(eigendecompose(K, 2), 1.0)
    monkeypatch.setattr(spectral, "_DENSE_CUTOFF", 0)
    with pytest.warns(UserWarning, match="disconnected: 2 components"):
        lanczos = with_time(eigendecompose(K, 2), 1.0)
    assert (dense.solver, lanczos.solver) == ("dense", "lanczos")
    assert dense.at_one == lanczos.at_one == 1
    assert max(dense.row_sum_drift, lanczos.row_sum_drift) <= 1e-8
    signs = np.sign(np.sum(dense.Z * lanczos.Z, axis=0))
    assert np.abs(dense.Z - lanczos.Z * signs).max() <= 1e-10
    # the lambda = 1 coordinate is the centred component indicator
    assert dense.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)
    u = part - part.mean()
    z = dense.Z[:, 0]
    assert np.abs(z - (z @ u) / (u @ u) * u).max() <= 1e-10


def _drifting_kernel():
    """A train kernel whose rows sum to 1.01."""
    from dataclasses import replace

    from forestae.kernel import LeafFactor

    _, _, K = _fitted(n=30, seed=15)
    F = LeafFactor(K.right.cols, K.right.weights * 1.01)
    return replace(K, left=F, right=F)


def test_non_stochastic_kernel_rejected():
    with pytest.raises(SpectralError, match="sum to 1"):
        eigendecompose(_drifting_kernel(), 3)


def test_non_stochastic_kernel_rejected_by_lanczos(monkeypatch):
    # the Lanczos path checks the drift on the factored product it iterates with
    from forestae import spectral

    monkeypatch.setattr(spectral, "_DENSE_CUTOFF", 0)
    with pytest.raises(SpectralError, match="sum to 1"):
        eigendecompose(_drifting_kernel(), 3)


def test_zero_eigenvalue_dimensions_zeroed(t2x4):
    forest, table, _ = t2x4
    K = rf_kernel_train(forest, table)
    model = with_time(eigendecompose(K, 3), 1.0)  # third eigenvalue is 0
    K0 = rf_kernel_cross(forest, table, table)
    with pytest.warns(UserWarning, match="zero-eigenvalue"):
        Z0 = nystrom_embed(K0, model)
    assert np.abs(Z0[:, 2]).max() == 0.0
