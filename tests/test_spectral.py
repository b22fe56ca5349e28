import numpy as np
import pytest

from forestae.data import Column, Schema, Table
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
from conftest import make_mixed, make_blobs


def _fitted(n=80, seed=0, trees=12, min_leaf=2):
    table = make_mixed(n, seed=seed)
    f = fit_completely_random(table, ForestParams(n_trees=trees, min_leaf=min_leaf, seed=seed))
    K = rf_kernel_train(f, table)
    return table, f, K


def test_fixture_eigenvalues(t2x4):
    forest, table, _ = t2x4
    K = rf_kernel_train(forest, table)
    model = eigendecompose(K, 3)
    assert model.lambda0 == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(model.eigenvalues, [0.5, 0.5, 0.0], atol=1e-10)


def test_leading_pair_constant_for_connected_kernel():
    _, _, K = _fitted()
    model = eigendecompose(K, 4)
    assert model.lambda0 == pytest.approx(1.0, abs=1e-8)
    assert model.v0_max_dev <= 1e-6


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


def test_sparse_eigensolve_is_bit_reproducible():
    # past the dense cutoff the Lanczos path runs; its start vector is fixed
    table, _ = make_blobs(863, 3, seed=21)
    f = fit_completely_random(table, ForestParams(n_trees=10, min_leaf=5, seed=21))
    K = rf_kernel_train(f, table)
    a, b = eigendecompose(K, 3), eigendecompose(K, 3)
    assert np.array_equal(a.V, b.V)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_factored_lanczos_matches_dense_eigh():
    table, _ = make_blobs(863, 3, seed=21)
    f = fit_completely_random(table, ForestParams(n_trees=10, min_leaf=5, seed=21))
    K = rf_kernel_train(f, table)
    model = eigendecompose(K, 3)
    assert model.solver == "lanczos" and model.residual_max <= 1e-8
    vals, vecs = np.linalg.eigh(K.toarray())
    vals, vecs = vals[::-1][:4], vecs[:, ::-1][:, :4]
    assert np.abs(model.lambda0 - vals[0]) <= 1e-10
    assert np.abs(model.eigenvalues - vals[1:]).max() <= 1e-10
    # the same subspace: projectors agree whatever the signs
    assert np.abs(model.V @ model.V.T - vecs[:, 1:] @ vecs[:, 1:].T).max() <= 1e-8


def test_fractional_time_with_negative_eigenvalue_rejected():
    model = SpectralModel(
        n=4,
        d_z=1,
        eigenvalues=np.array([-0.5]),
        V=np.ones((4, 1)) * 0.5,
        lambda0=1.0,
        v0_max_dev=0.0,
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
    import scipy.sparse as sp

    from forestae.kernel import CROSS, SparseKernelMatrix

    # K0 = left rightᵀ / n_trees: 1/50 in each of the 50 entries
    uniform = SparseKernelMatrix(
        left=sp.csr_matrix(np.ones((1, 1))), right=sp.csr_matrix(np.ones((50, 1))),
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
    row = reconstruct_kernel(np.zeros((1, 3)), model, add_constant=False)
    assert np.abs(row).max() == 0.0
    with_const = reconstruct_kernel(np.zeros((1, 3)), model)
    assert np.allclose(with_const, 1.0 / 30)


def test_reconstruct_stochastic_mode():
    _, _, K = _fitted(n=30, seed=11)
    model = with_time(eigendecompose(K, 2), 1.0)
    rng = np.random.default_rng(0)
    K0 = reconstruct_kernel(rng.normal(size=(5, 2)), model, stochastic=True)
    assert K0.min() >= 0
    assert np.allclose(K0.sum(axis=1), 1.0)


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
    from forestae.forest import Forest

    disconnected = Forest(
        trees=[forest.trees[0], forest.trees[0]],
        schema=forest.schema,
        feature_ranges=forest.feature_ranges,
        params=forest.params,
        kind="none",
    )
    K = rf_kernel_train(disconnected, table)
    with pytest.warns(UserWarning, match="disconnected"):
        model = eigendecompose(K, 2)
    assert model.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)


def test_zero_eigenvalue_dimensions_zeroed(t2x4):
    forest, table, _ = t2x4
    K = rf_kernel_train(forest, table)
    model = with_time(eigendecompose(K, 3), 1.0)  # third eigenvalue is 0
    K0 = rf_kernel_cross(forest, table, table)
    with pytest.warns(UserWarning, match="zero-eigenvalue"):
        Z0 = nystrom_embed(K0, model)
    assert np.abs(Z0[:, 2]).max() == 0.0
