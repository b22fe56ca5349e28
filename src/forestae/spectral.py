"""Spectral embedding of the kernel matrix and its out-of-sample algebra.

The kernel acts as a Markov transition operator; its top eigenpairs (after
deflating the constant leading pair) give diffusion-map coordinates
Z = sqrt(n) * V * Lambda^t. Unseen points extend linearly via
Z0 = K0 Z Lambda^{-1}, and kernel rows are recoverable as K0_hat = Z0 Lambda Z^+,
where the pseudo-inverse is closed-form because V has orthonormal columns.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

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
_MAX_RESTARTS = 300  # Lanczos restarts before the solve is declared non-convergent
_BREAKDOWN = 1e-12  # Lanczos β below this share of the projection norm is rounding


class SpectralError(ValueError):
    pass


@dataclass
class SpectralModel:
    """Top eigenpairs of a train kernel with its constant pair deflated."""

    n: int
    d_z: int
    eigenvalues: np.ndarray  # (d_z,) descending
    V: np.ndarray  # (n, d_z) orthonormal columns
    t: float | None = None
    Z: np.ndarray | None = None
    # fit-time diagnostics, not stored in bundles
    solver: str | None = None  # "dense" or "lanczos"
    residual_max: float | None = None  # largest residual over the deflated pairs
    row_sum_drift: float | None = None  # max |K·1 − 1|, checked before deflating
    at_one: int | None = None  # retained eigenvalues at 1, one per extra kernel-graph component
    products: int | None = None  # operator products the Lanczos solve took, 0 for dense

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
    """Top d_z eigenpairs of K − 11ᵀ/n for a doubly stochastic train kernel K.

    Every product with K is ``K.dot``, on the deflated operator X -> K X −
    mean(X). It first checks max |K·1 − 1| ≤ 1e-8, which makes (1, 1/√n) an
    exact eigenpair, and deflating it leaves K's other pairs; so on a
    disconnected kernel graph a retained λ = 1 vector is orthogonal to the
    constant whatever the solver's rounding. Small or nearly full problems
    use dense ``eigh`` on ``K.toarray()``; otherwise a thick-restart Lanczos
    iteration (``_lanczos``) runs on the operator from a fixed start vector,
    so K is never formed. Eigenvector signs are fixed so each vector's
    largest-magnitude entry is positive, and residuals are checked against
    1e-8 on the operator.
    """
    if K.role != TRAIN:
        raise SpectralError("eigendecompose expects a train-role kernel")
    n = K.n_rows
    if not (1 <= d_z <= n - 1):
        raise SpectralError(f"d_z must lie in [1, n-1], got {d_z} with n={n}")

    def dot(X: np.ndarray) -> np.ndarray:
        return K.dot(X) - X.mean(axis=0)

    drift = float(np.abs(dot(np.ones(n))).max())
    if drift > _RESIDUAL_TOL:
        raise SpectralError(f"kernel rows sum to 1 only within {drift:.3e}; "
                            "the constant pair cannot be deflated")
    if n <= _DENSE_CUTOFF or d_z >= n - 1:
        solver, products = "dense", 0
        vals, vecs = np.linalg.eigh(K.toarray() - 1.0 / n)
        vals, vecs = vals[::-1][:d_z], vecs[:, ::-1][:, :d_z]
    else:
        solver = "lanczos"
        vals, vecs, products = _lanczos(dot, n, d_z)

    # orient deterministically: largest-magnitude entry positive
    for j in range(vecs.shape[1]):
        i = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[i, j] < 0:
            vecs[:, j] = -vecs[:, j]

    resid = float(np.linalg.norm(dot(vecs) - vecs * vals[None, :], axis=0).max())
    if resid > _RESIDUAL_TOL:
        raise SpectralError(f"eigenpair residual {resid:.3e} exceeds {_RESIDUAL_TOL}")

    at_one = int(np.sum(vals > 1 - _RESIDUAL_TOL))
    if at_one:
        warnings.warn(
            f"kernel graph appears disconnected: {1 + at_one} components; "
            "the coordinates at eigenvalue 1 are constant per component",
            stacklevel=2,
        )
    return SpectralModel(
        n=n,
        d_z=d_z,
        eigenvalues=vals.astype(np.float64),
        V=vecs.astype(np.float64),
        solver=solver,
        residual_max=resid,
        row_sum_drift=drift,
        at_one=at_one,
        products=products,
    )


def _lanczos(dot, n: int, k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Top k eigenpairs of the symmetric operator ``dot`` on R^n, descending,
    and the number of products taken.

    Thick-restart Lanczos (Wu & Simon, SIAM J. Matrix Anal. Appl. 22(2),
    2000) with full reorthogonalization: a basis of ARPACK's default size
    max(2k + 1, 20) is grown from a seeded start vector; each new vector is
    orthogonalized against the whole basis twice (``_orthogonalize``), and the
    projected matrix is read off those coefficients. At a full basis the Ritz
    pairs are taken; when the top k residual estimates β|s| are at machine
    precision they are returned, otherwise the basis restarts from the
    leading Ritz vectors and the last Lanczos vector. When β falls to
    rounding level the basis spans an invariant subspace (a low-rank kernel),
    its pairs are exact, and the iteration goes on from a fresh seeded vector
    orthogonal to the basis. The n-long sums run in ``einsum``, not BLAS,
    whose threaded kernels would make the bits depend on the thread count.
    """
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(0)  # a seeded start keeps the result bit-reproducible
    m = min(max(2 * k + 1, 20), n)
    keep = k + (m - k) // 2  # Ritz vectors kept at a restart
    basis = np.empty((m + 1, n))  # one basis vector per row
    H = np.zeros((m, m))
    v = rng.uniform(-1.0, 1.0, n)
    basis[0] = v / _norm(v)
    start, products = 0, 0
    for _ in range(_MAX_RESTARTS):
        for j in range(start, m):
            w = dot(basis[j])
            products += 1
            h = _orthogonalize(w, basis[: j + 1])
            H[: j + 1, j] = H[j, : j + 1] = h
            beta = _norm(w)
            if beta <= _BREAKDOWN * _norm(h):
                beta = 0.0
                w = rng.uniform(-1.0, 1.0, n)
                _orthogonalize(w, basis[: j + 1])
                basis[j + 1] = w / _norm(w)
            else:
                basis[j + 1] = w / beta
        theta, S = np.linalg.eigh(H)
        theta, S = theta[::-1], S[:, ::-1]
        estimate = beta * np.abs(S[-1, :k])
        if np.all(estimate <= eps * np.maximum(eps ** (2 / 3), np.abs(theta[:k]))):
            return theta[:k], np.einsum("ji,jk->ki", S[:, :k], basis[:m]), products
        basis[:keep] = np.einsum("ji,jk->ik", S[:, :keep], basis[:m])
        basis[keep] = basis[m]
        H[:] = 0.0
        H[:keep, :keep] = np.diag(theta[:keep])
        start = keep
    raise SpectralError("eigensolver did not converge")


def _orthogonalize(w: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Remove from w, in place, its components along the orthonormal rows of
    Q by two passes of classical Gram-Schmidt; return the coefficients."""
    h = np.einsum("ij,j->i", Q, w)
    w -= np.einsum("i,ij->j", h, Q)
    c = np.einsum("ij,j->i", Q, w)
    w -= np.einsum("i,ij->j", c, Q)
    return h + c


def _norm(w: np.ndarray) -> float:
    return float(np.sqrt(np.einsum("i,i->", w, w)))


def _power(eigenvalues: np.ndarray, t: float) -> np.ndarray:
    if not (np.isfinite(t) and t >= 0):
        raise SpectralError("diffusion time must be finite and non-negative")
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
    table, and each query row gathers its B entries, so no query x reference
    block is formed.

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


def reconstruct_kernel(Z0: np.ndarray, model: SpectralModel) -> np.ndarray:
    """Estimate kernel rows from embeddings: K0_hat = Z0 Lambda Z^+ + 1/n.

    With orthonormal V the pseudo-inverse is Lambda^{-t} V^T / sqrt(n), so
    K0_hat = Z0 diag(lambda^{1-t}) V^T / sqrt(n); the deflated constant pair
    adds 1/n to every entry of the kernel.
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
    return (Z0 * coef[None, :]) @ model.V.T / np.sqrt(model.n) + 1.0 / model.n
