"""The exact forest kernel: average of per-tree colocation indicators, each
normalized by the leaf's reference-sample count.

Normalization always runs over a designated reference table (the forest's
training data, or the synthetic stand-in that routes identically). That makes
the train matrix doubly stochastic and keeps cross rows on the simplex. Leaf
counts stored on the trees (fitting or labeling sample) back the feature-map
view; the two coincide for full-sample, non-honest forests.

A kernel block is kept as its leaf-membership factors, K = Fq Frᵀ / B, with
one entry per (row, tree); products with K cost O(rows · B) and the n × n
matrix is built only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Table
from .forest import Forest, route, route_table

__all__ = [
    "LeafFactor",
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
# (row, reference row) pairs per block of ``_leaf_join``, both the pairs that
# share a leaf and the dense sums. On a 2-vCPU x86 host (min of 15 calls),
# hardening the 516 rows of the seed-1009 banknote fold (500 trees) takes
# 111-124 ms at 8.6 MiB traced peak, against 123-133 ms and 14.5 MiB at 2**18,
# and the dense K of 800 of its rows 131-142 ms at 18.6 MiB, against 139-148
# ms and 23.4 MiB at 2**18.
_JOIN_PAIRS = 2**16


class KernelError(ValueError):
    pass


@dataclass(frozen=True)
class LeafFactor:
    """An (n x L) leaf-membership factor with exactly one entry per (row,
    tree), at the row's global leaf and weighted by that leaf.

    Products run in numpy in the accumulation order of SciPy's CSR/CSC
    products, so they equal products with ``tocsr()`` bit for bit.
    """

    cols: np.ndarray  # (n, B) global leaf ids
    weights: np.ndarray  # (L,) one weight per global leaf

    @property
    def shape(self) -> tuple[int, int]:
        return self.cols.shape[0], self.weights.shape[0]

    @property
    def nnz(self) -> int:
        return self.cols.size

    def dot(self, T: np.ndarray) -> np.ndarray:
        """F T for a per-leaf table T (L,) or (L, k): a sum over trees, in tree order."""
        cols = np.ascontiguousarray(self.cols.T)  # (B, n): one contiguous row per tree
        vals = np.take(self.weights, cols).reshape(cols.shape + (1,) * (T.ndim - 1))
        out = np.zeros((cols.shape[1],) + T.shape[1:])
        for c, v in zip(cols, vals):
            out += v * np.take(T, c, axis=0)
        return out

    def tdot(self, X: np.ndarray) -> np.ndarray:
        """Fᵀ X for X (n,) or (n, k): a per-leaf bincount over rows in ascending order."""
        flat, vals = self.cols.ravel(), self.weights[self.cols]
        L = self.shape[1]
        sums = [np.bincount(flat, weights=(vals * x[:, None]).ravel(), minlength=L)
                for x in (X[:, None] if X.ndim == 1 else X).T]
        return np.stack(sums, axis=1).reshape((L,) + X.shape[1:])

    def tocsr(self):
        """F as a SciPy CSR matrix, entries in tree order within each row."""
        import scipy.sparse as sp  # costly import; only K.matrix needs it

        n, n_trees = self.cols.shape
        indptr = np.arange(0, n * n_trees + 1, n_trees)
        return sp.csr_matrix((self.weights[self.cols].ravel(), self.cols.ravel(), indptr),
                             shape=self.shape)


@dataclass
class SparseKernelMatrix:
    """Kernel block K = diag(scale) Fq Frᵀ / B kept as its factors.

    ``left`` (Fq, m x L) and ``right`` (Fr, n x L) hold one 1/sqrt(count)
    entry per (row, tree) at the row's global leaf; a train kernel has the
    same F on both sides. ``scale`` renormalizes rows over their populated
    trees (non-strict cross kernels). Entries lie in (0, 1].
    """

    left: LeafFactor
    right: LeafFactor
    n_trees: int
    role: str
    scale: np.ndarray | None = None
    unseen_levels: int = 0
    skipped_leaf_cells: int = 0

    @property
    def n_rows(self) -> int:
        return self.left.shape[0]

    @property
    def n_cols(self) -> int:
        return self.right.shape[0]

    def dot(self, X: np.ndarray) -> np.ndarray:
        """K @ X without forming K: scale ⊙ Fq (Frᵀ X) / B."""
        out = self.left.dot(self.right.tdot(X)) / self.n_trees
        if self.scale is not None:
            out *= self.scale.reshape((-1,) + (1,) * (out.ndim - 1))
        return out

    @cached_property
    def matrix(self):
        """K itself as a SciPy CSR matrix, built on first access: symmetrized
        and index-sorted for a train kernel."""
        import scipy.sparse as sp  # costly import; only coordinate export needs it

        K = (self.left.tocsr() @ self.right.tocsr().T) / self.n_trees
        if self.role == TRAIN:
            K = (K + K.T) * 0.5
            K.sort_indices()
        if self.scale is not None:
            K = sp.diags(self.scale) @ K
        return K.tocsr()

    def row_sums(self) -> np.ndarray:
        return self.dot(np.ones(self.n_cols))

    def toarray(self) -> np.ndarray:
        """K as a dense array, built in numpy from the factors; it equals
        ``matrix.toarray()`` bit for bit.

        ``_leaf_join`` sums each row's weight products in tree order, the
        accumulation order of SciPy's CSR product. F Fᵀ is exactly symmetric,
        so symmetrizing a train kernel changes no bit. Like SciPy, the sums are
        multiplied by 1/B rather than divided by B, and then by ``scale``.
        """
        left, right = self.left, self.right
        out = np.empty((self.n_rows, self.n_cols))
        for r0, r1, sums in _leaf_join(left.cols, (left.weights * right.weights)[left.cols],
                                       right.cols):
            out[r0:r1] = sums
        out *= 1.0 / self.n_trees
        if self.scale is not None:
            out *= self.scale[:, None]
        return out


def _leaf_join(cols: np.ndarray, weights: np.ndarray, reference: np.ndarray):
    """Dense row blocks ``(r0, r1, S[r0:r1])`` of S[i, r] = Σ_j weights[i, j]
    · [reference row r lies in leaf cols[i, j]].

    ``cols`` and ``weights`` are (m, k) global leaf ids with one weight per
    entry; ``reference`` is the (n, B) global leaf ids of the reference rows.
    The reference cells are sorted by leaf once, entries of weight 0 are
    skipped, and each block's sums are one bincount over the (row, reference
    row) pairs that share a leaf, in entry order and, within a leaf, in
    reference-row order. A block holds at most ``_JOIN_PAIRS`` such pairs and
    dense sums, or one row.
    """
    m, n = cols.shape[0], reference.shape[0]
    flat = reference.ravel()
    members = np.argsort(flat, kind="stable") // reference.shape[1]  # reference rows by leaf
    sizes = np.bincount(flat, minlength=int(cols.max(initial=-1)) + 1)
    starts = np.cumsum(sizes) - sizes
    lens = np.where(weights != 0, sizes[cols], 0)
    pairs = np.concatenate([[0], np.cumsum(lens.sum(axis=1))])
    r0 = 0
    while r0 < m:
        r1 = int(np.searchsorted(pairs, pairs[r0] + _JOIN_PAIRS, side="right")) - 1
        r1 = max(r0 + 1, min(r1, r0 + _JOIN_PAIRS // n, m))
        c = lens[r0:r1].ravel()
        at = np.repeat(starts[cols[r0:r1]].ravel() - np.cumsum(c) + c, c)
        at += np.arange(pairs[r1] - pairs[r0])
        rows = np.repeat(np.arange(r1 - r0), lens[r0:r1].sum(axis=1))
        sums = np.bincount(rows * n + members[at], weights=np.repeat(weights[r0:r1].ravel(), c),
                           minlength=(r1 - r0) * n)
        yield r0, r1, sums.reshape(r1 - r0, n)
        r0 = r1


@dataclass
class LeafProfile:
    """Routing of a reference table: its global leaf ids (n x B) and the
    reference rows in each global leaf (L,)."""

    cols: np.ndarray
    counts: np.ndarray

    @cached_property
    def weights(self) -> np.ndarray:
        """Per global leaf: 1/sqrt(reference count), 0 for unpopulated leaves."""
        counts = self.counts.astype(np.float64)
        w = np.zeros_like(counts)
        hit = counts > 0
        w[hit] = 1.0 / np.sqrt(counts[hit])
        return w

    @cached_property
    def membership(self) -> LeafFactor:
        """Fr: each reference row's B leaves, weighted 1/sqrt(count)."""
        return LeafFactor(self.cols, self.weights)


def leaf_profile(forest: Forest, reference: Table | np.ndarray) -> LeafProfile:
    """Profile of a reference table, or of its (n x B) leaf ids if already routed."""
    if isinstance(reference, Table):
        ids, _ = route_table(forest, reference)
    else:
        ids = reference
    cols = ids.astype(np.int64) + forest.leaf_offsets
    return LeafProfile(cols, np.bincount(cols.ravel(), minlength=forest.total_leaves))


def leaf_design(profile: LeafProfile) -> LeafFactor:
    """M = Phi S: each reference row's B leaves, weighted 1/count.

    For a one-hot-per-tree leaf choice psi, M psi is B times the kernel row of
    any point in those leaves. Reference rows only touch populated leaves.
    """
    return LeafFactor(profile.cols, 1.0 / np.maximum(profile.counts, 1))


def rf_kernel_train(forest: Forest, table: Table | np.ndarray) -> SparseKernelMatrix:
    """Symmetric doubly stochastic kernel over the reference table's rows,
    kept as K = F Fᵀ / B; ``table`` may also be its (n x B) leaf ids."""
    F = leaf_profile(forest, table).membership
    return SparseKernelMatrix(left=F, right=F, n_trees=forest.n_trees, role=TRAIN)


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
    w = profile.weights
    q_cols = q_ids.astype(np.int64) + forest.leaf_offsets
    empty = w[q_cols] == 0  # (m, B) cells whose leaf holds no reference row
    n_empty = int(empty.sum())
    if n_empty and strict:
        raise KernelError(
            f"{n_empty} query/tree cells landed in leaves with no reference rows; "
            "pass strict=False to renormalize over the remaining trees"
        )
    scale = None
    if n_empty:
        contributing = forest.n_trees - empty.sum(axis=1)
        if np.any(contributing == 0):
            raise KernelError("a query row shares no populated leaf with the reference")
        scale = forest.n_trees / contributing
    return SparseKernelMatrix(
        left=LeafFactor(q_cols, w),
        right=profile.membership,
        n_trees=forest.n_trees,
        role=CROSS,
        scale=scale,
        unseen_levels=unseen,
        skipped_leaf_cells=n_empty,
    )


def leaf_size_vector(forest: Forest) -> np.ndarray:
    """Inverse stored leaf counts, in global leaf order (length d_phi)."""
    counts = forest.leaf_count.astype(np.float64)
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

    def mean_map(t: Table) -> np.ndarray:
        # a block mean of K = Fx Fyᵀ / B is a dot of F's column means
        F = LeafFactor(route_table(forest, t)[0].astype(np.int64) + forest.leaf_offsets, w)
        return F.tdot(np.ones(t.n)) / t.n

    diff = mean_map(sample_a) - mean_map(sample_b)
    return float(diff @ diff) / forest.n_trees


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
