"""Spectral embedding of the kernel matrix and its out-of-sample algebra.

The kernel acts as a Markov transition operator; its top eigenpairs (after
dropping the constant leading pair) give diffusion-map coordinates
Z = sqrt(n) * V * Lambda^t. Unseen points extend linearly via
Z0 = K0 Z Lambda^{-1}, and kernel rows are recoverable as K0_hat = Z0 Lambda Z^+,
where the pseudo-inverse is closed-form because V has orthonormal columns.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .kernel import CROSS, TRAIN, SparseKernelMatrix

__all__ = [
    "SpectralModel",
    "eigendecompose",
    "diffusion_map",
    "with_time",
    "nystrom_embed",
    "reconstruct_kernel",
]

_RESIDUAL_TOL = 1e-8
_ZERO_EIG_TOL = 1e-12
_DENSE_CUTOFF = 800


class SpectralError(ValueError):
    pass


@dataclass
class SpectralModel:
    """Top eigenpairs of a train kernel, minus the constant leading pair."""

    n: int
    d_z: int
    eigenvalues: np.ndarray  # (d_z,) descending
    V: np.ndarray  # (n, d_z) orthonormal columns
    lambda0: float
    v0_max_dev: float  # max deviation of the dropped eigenvector from constant
    t: float | None = None
    Z: np.ndarray | None = None
    # fit-time diagnostics, not stored in bundles
    solver: str | None = None  # "dense" or "lanczos"
    residual_max: float | None = None  # largest ||K v - lambda v|| over the pairs

    def truncate(self, d_z: int) -> "SpectralModel":
        """The leading d_z coordinates, diffusion time kept."""
        if not 1 <= d_z <= self.d_z:
            raise SpectralError(f"d_z must lie in [1, {self.d_z}], got {d_z}")
        return dataclasses.replace(
            self,
            d_z=d_z,
            eigenvalues=self.eigenvalues[:d_z],
            V=self.V[:, :d_z],
            Z=None if self.Z is None else self.Z[:, :d_z],
        )

    def require_time(self) -> tuple[float, np.ndarray]:
        if self.t is None or self.Z is None:
            raise SpectralError("diffusion time not applied; call with_time first")
        return self.t, self.Z


def eigendecompose(K: SparseKernelMatrix, d_z: int) -> SpectralModel:
    """Top d_z+1 eigenpairs of a symmetric train kernel, constant pair dropped.

    Small or nearly full problems use a dense solver; otherwise a restarted
    Lanczos iteration runs on the factored kernel (products v -> K.dot(v), so
    K is never formed) from a fixed start vector.
    Eigenvector signs are fixed so each vector's largest-magnitude entry is
    positive, and residuals ||K v - lambda v|| are checked against 1e-8.
    """
    if K.role != TRAIN:
        raise SpectralError("eigendecompose expects a train-role kernel")
    n = K.n_rows
    if not (1 <= d_z <= n - 1):
        raise SpectralError(f"d_z must lie in [1, n-1], got {d_z} with n={n}")
    k = d_z + 1
    if n <= _DENSE_CUTOFF or k >= n - 1:
        solver = "dense"
        vals, vecs = np.linalg.eigh(K.toarray())
        vals, vecs = vals[::-1][:k], vecs[:, ::-1][:, :k]
    else:
        solver = "lanczos"
        op = spla.LinearOperator((n, n), matvec=K.dot, matmat=K.dot, dtype=np.float64)
        try:
            # a seeded start vector keeps the result bit-reproducible; not the
            # constant vector, which is K's leading eigenvector and stalls Lanczos
            v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
            vals, vecs = spla.eigsh(op, k=k, which="LA", v0=v0)
        except spla.ArpackNoConvergence as exc:
            raise SpectralError(f"eigensolver did not converge: {exc}") from exc
        order = np.argsort(vals)[::-1]
        vals, vecs = vals[order], vecs[:, order]

    # orient deterministically: largest-magnitude entry positive
    for j in range(vecs.shape[1]):
        i = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[i, j] < 0:
            vecs[:, j] = -vecs[:, j]

    resid = float(np.linalg.norm(K.dot(vecs) - vecs * vals[None, :], axis=0).max())
    if resid > _RESIDUAL_TOL:
        raise SpectralError(f"eigenpair residual {resid:.3e} exceeds {_RESIDUAL_TOL}")

    lambda0 = float(vals[0])
    v0 = vecs[:, 0]
    v0_dev = float(np.max(np.abs(v0 - v0.mean())))
    retained = vals[1:]
    if np.any(retained > 1 - _RESIDUAL_TOL):
        warnings.warn(
            "kernel graph appears disconnected: retained eigenvalue(s) at 1; "
            "embedding coordinates are constant per component",
            stacklevel=2,
        )
    return SpectralModel(
        n=n,
        d_z=d_z,
        eigenvalues=retained.astype(np.float64),
        V=vecs[:, 1:].astype(np.float64),
        lambda0=lambda0,
        v0_max_dev=v0_dev,
        solver=solver,
        residual_max=resid,
    )


def _power(eigenvalues: np.ndarray, t: float) -> np.ndarray:
    if t < 0:
        raise SpectralError("diffusion time must be non-negative")
    if np.any(eigenvalues < 0) and t != int(t):
        raise SpectralError("fractional diffusion time with a negative eigenvalue")
    return np.power(eigenvalues, t)


def diffusion_map(model: SpectralModel, t: float) -> np.ndarray:
    """Training embedding Z = sqrt(n) * V * Lambda^t."""
    return np.sqrt(model.n) * model.V * _power(model.eigenvalues, t)[None, :]


def with_time(model: SpectralModel, t: float) -> SpectralModel:
    return dataclasses.replace(model, t=t, Z=diffusion_map(model, t))


def nystrom_embed(K0: SparseKernelMatrix, model: SpectralModel) -> np.ndarray:
    """Project kernel rows into the embedding: Z0 = K0 Z Lambda^{-1}.

    K0 V is taken through the factors, Fq (Frᵀ V) / B: Frᵀ V is a per-leaf
    table, so no query x reference block is formed.

    Dimensions with a zero eigenvalue carry no out-of-sample information and
    are emitted as zero columns (with a warning).
    """
    if K0.role not in (CROSS, TRAIN):
        raise SpectralError("nystrom_embed expects a kernel matrix")
    if K0.n_cols != model.n:
        raise SpectralError(f"kernel has {K0.n_cols} columns, model expects {model.n}")
    t, _ = model.require_time()
    lam = model.eigenvalues
    dead = np.abs(lam) < _ZERO_EIG_TOL
    if dead.any():
        warnings.warn(f"{int(dead.sum())} zero-eigenvalue dimension(s) dropped", stacklevel=2)
    coef = np.zeros_like(lam)
    live = ~dead
    coef[live] = np.sqrt(model.n) * _power(lam[live], t) / lam[live]
    return K0.dot(model.V) * coef[None, :]


def reconstruct_kernel(
    Z0: np.ndarray,
    model: SpectralModel,
    stochastic: bool = False,
    add_constant: bool = True,
) -> np.ndarray:
    """Estimate kernel rows from embeddings: K0_hat = Z0 Lambda Z^+.

    With orthonormal V the pseudo-inverse is Lambda^{-t} V^T / sqrt(n), so
    K0_hat = Z0 diag(lambda^{1-t}) V^T / sqrt(n). The dropped constant pair
    contributes 1/n to every entry of the true kernel and is added back by
    default so the output targets the kernel itself. ``stochastic`` clips
    negatives and renormalizes rows onto the simplex.
    """
    t, _ = model.require_time()
    Z0 = np.atleast_2d(np.asarray(Z0, dtype=np.float64))
    if Z0.shape[1] != model.d_z:
        raise SpectralError(f"embedding has {Z0.shape[1]} columns, model expects {model.d_z}")
    lam = model.eigenvalues
    live = np.abs(lam) >= _ZERO_EIG_TOL
    coef = np.zeros_like(lam)
    if np.any(lam[live] < 0) and (1.0 - t) != int(1.0 - t):
        raise SpectralError("fractional exponent on a negative eigenvalue")
    coef[live] = np.power(lam[live], 1.0 - t)
    K0 = (Z0 * coef[None, :]) @ model.V.T / np.sqrt(model.n)
    if add_constant:
        K0 = K0 + 1.0 / model.n
    if stochastic:
        K0 = np.clip(K0, 0.0, None)
        sums = K0.sum(axis=1, keepdims=True)
        sums[sums == 0] = 1.0
        K0 = K0 / sums
    return K0
