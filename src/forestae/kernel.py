"""The exact forest kernel: average of per-tree colocation indicators, each
normalized by the leaf's reference-sample count.

Normalization always runs over a designated reference table (the forest's
training data, or the synthetic stand-in that routes identically). That makes
the train matrix doubly stochastic and keeps cross rows on the simplex. Leaf
counts stored on the trees (fitting or labeling sample) back the feature-map
view; the two coincide for full-sample, non-honest forests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import Table
from .forest import Forest, route, route_table

__all__ = [
    "SparseKernelMatrix",
    "LeafProfile",
    "leaf_profile",
    "leaf_size_vector",
    "feature_map",
    "rf_kernel_train",
    "rf_kernel_cross",
    "scornet_kernel",
    "mmd_squared",
]

TRAIN = "train"
CROSS = "cross"


class KernelError(ValueError):
    pass


@dataclass
class SparseKernelMatrix:
    """Row-sparse kernel block; entries lie in (0, 1]."""

    matrix: sp.csr_matrix
    role: str
    unseen_levels: int = 0
    skipped_leaf_cells: int = 0

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1]

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=1)).ravel()

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()


@dataclass
class LeafProfile:
    """Routing of a reference table: leaf ids (n x B) and per-leaf counts."""

    leaf_ids: np.ndarray
    counts: list[np.ndarray]
    offsets: np.ndarray

    @property
    def n(self) -> int:
        return self.leaf_ids.shape[0]

    @property
    def counts_flat(self) -> np.ndarray:
        return np.concatenate(self.counts)

    @property
    def weights(self) -> np.ndarray:
        """Per global leaf: 1/sqrt(reference count), 0 for unpopulated leaves."""
        counts = self.counts_flat.astype(np.float64)
        w = np.zeros_like(counts)
        hit = counts > 0
        w[hit] = 1.0 / np.sqrt(counts[hit])
        return w


def leaf_profile(forest: Forest, reference: Table | np.ndarray) -> LeafProfile:
    """Profile of a reference table, or of its (n x B) leaf ids if already routed."""
    if isinstance(reference, Table):
        ids, _ = route_table(forest, reference)
    else:
        ids = reference
    counts = [
        np.bincount(ids[:, b], minlength=t.n_leaves).astype(np.int64)
        for b, t in enumerate(forest.trees)
    ]
    return LeafProfile(leaf_ids=ids, counts=counts, offsets=forest.leaf_offsets)


def _membership(forest: Forest, leaf_ids: np.ndarray, weights: np.ndarray) -> sp.csr_matrix:
    """CSR with one weighted entry per (row, tree) at that row's global leaf."""
    n, n_trees = leaf_ids.shape
    cols = (leaf_ids.astype(np.int64) + forest.leaf_offsets[None, :]).ravel()
    data = weights[cols]
    indptr = np.arange(0, n * n_trees + 1, n_trees)
    return sp.csr_matrix((data, cols, indptr), shape=(n, forest.total_leaves))


def leaf_design(forest: Forest, profile: LeafProfile) -> sp.csr_matrix:
    """M = Phi S: each reference row's B leaves, weighted 1/count.

    For a one-hot-per-tree leaf choice psi, M psi is B times the kernel row of
    any point in those leaves. Reference rows only touch populated leaves.
    """
    return _membership(forest, profile.leaf_ids, 1.0 / np.maximum(profile.counts_flat, 1))


def rf_kernel_train(forest: Forest, table: Table) -> SparseKernelMatrix:
    """Symmetric doubly stochastic kernel over the reference table's rows."""
    profile = leaf_profile(forest, table)
    F = _membership(forest, profile.leaf_ids, profile.weights)
    K = (F @ F.T) / forest.n_trees
    K = (K + K.T) * 0.5
    K.sort_indices()
    return SparseKernelMatrix(matrix=K.tocsr(), role=TRAIN)


def cross_from_ids(
    forest: Forest,
    q_ids: np.ndarray,
    profile: LeafProfile,
    strict: bool = True,
    unseen_levels: int = 0,
) -> SparseKernelMatrix:
    """Cross kernel of routed queries (m x B leaf ids) against a profile."""
    w = profile.weights
    q_cols = q_ids.astype(np.int64) + profile.offsets[None, :]
    empty = w[q_cols] == 0  # (m, B) cells whose leaf holds no reference row
    n_empty = int(empty.sum())
    if n_empty and strict:
        raise KernelError(
            f"{n_empty} query/tree cells landed in leaves with no reference rows; "
            "pass strict=False to renormalize over the remaining trees"
        )
    Fq = _membership(forest, q_ids, w)
    Fr = _membership(forest, profile.leaf_ids, w)
    K0 = (Fq @ Fr.T) / forest.n_trees
    if n_empty:
        contributing = forest.n_trees - empty.sum(axis=1)
        if np.any(contributing == 0):
            raise KernelError("a query row shares no populated leaf with the reference")
        scale = forest.n_trees / contributing
        K0 = sp.diags(scale) @ K0
    return SparseKernelMatrix(
        matrix=K0.tocsr(),
        role=CROSS,
        unseen_levels=unseen_levels,
        skipped_leaf_cells=n_empty,
    )


def rf_kernel_cross(
    forest: Forest, queries: Table, reference: Table, strict: bool = True
) -> SparseKernelMatrix:
    """Kernel rows for query points against the reference normalization.

    Each row sums to 1 whenever every query shares a leaf with at least one
    reference point in every tree; otherwise strict mode raises, and
    non-strict mode averages over the populated trees only.
    """
    q_ids, unseen = route_table(forest, queries)
    profile = leaf_profile(forest, reference)
    return cross_from_ids(forest, q_ids, profile, strict=strict, unseen_levels=unseen)


def leaf_size_vector(forest: Forest) -> np.ndarray:
    """Inverse stored leaf counts, concatenated over trees (length d_phi)."""
    counts = np.concatenate([t.leaf_count for t in forest.trees]).astype(np.float64)
    if counts.min(initial=1) < 1:
        raise KernelError("zero-count leaf")
    return 1.0 / counts


@dataclass(frozen=True)
class FeatureMapVector:
    """Sparse canonical feature map: exactly one entry per tree."""

    indices: np.ndarray  # (B,) global leaf ids
    values: np.ndarray  # (B,) = 1/sqrt(leaf count)
    d_phi: int

    def dot(self, other: "FeatureMapVector") -> float:
        _, ia, ib = np.intersect1d(self.indices, other.indices, return_indices=True)
        return float(np.dot(self.values[ia], other.values[ib]))


def feature_map(forest: Forest, x) -> FeatureMapVector:
    s = leaf_size_vector(forest)
    leaves = route(forest, x).astype(np.int64) + forest.leaf_offsets
    return FeatureMapVector(indices=leaves, values=np.sqrt(s[leaves]), d_phi=forest.total_leaves)


def scornet_kernel(forest: Forest, x, x2) -> float:
    """Unnormalized colocation rate: the share of trees where x and x2 meet."""
    a = route(forest, x)
    b = route(forest, x2)
    return float(np.mean(a == b))


def mmd_squared(sample_a: Table, sample_b: Table, forest: Forest, reference: Table) -> float:
    """Plug-in squared maximum mean discrepancy under the forest kernel.

    Biased V-statistic (i = j terms included): mean over a-a pairs minus twice
    the a-b mean plus the b-b mean, with kernel evaluations normalized by the
    reference table's leaf counts.
    """
    w = leaf_profile(forest, reference).weights

    def member(t: Table) -> sp.csr_matrix:
        return _membership(forest, route_table(forest, t)[0], w)

    Fa, Fb = member(sample_a), member(sample_b)
    B = forest.n_trees

    def block_mean(Fx, Fy) -> float:
        return float((Fx @ Fy.T).sum()) / (B * Fx.shape[0] * Fy.shape[0])

    return block_mean(Fa, Fa) - 2.0 * block_mean(Fa, Fb) + block_mean(Fb, Fb)


def write_coordinate(K: SparseKernelMatrix, path) -> None:
    """Text export: one `row col value` line per stored entry."""
    coo = K.matrix.tocoo()
    with open(path, "w", encoding="utf-8") as fh:
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{int(i)} {int(j)} {float(v)!r}\n")


def write_dense_csv(K: SparseKernelMatrix, path, limit: int = 2000) -> None:
    if max(K.n_rows, K.n_cols) > limit:
        raise KernelError(f"dense export limited to {limit} rows/cols")
    np.savetxt(path, K.toarray(), delimiter=",")
