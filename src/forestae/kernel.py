"""The exact forest kernel: average of per-tree colocation indicators, each
normalized by the leaf's reference-sample count.

Normalization always runs over a designated reference table (the forest's
training data, or the synthetic stand-in that routes identically). That makes
the train matrix doubly stochastic and keeps cross rows on the simplex. The
leaf counts stored on the trees (fitting or labeling sample) coincide with the
reference counts for full-sample, non-honest forests.

A kernel block is kept as its leaf-membership factors, K = Fq Frᵀ / B, with
one entry per (row, tree); products with K cost O(rows · B). Its entries come
only from ``SparseKernelMatrix.blocks``, dense row blocks of one leaf join, so
no command needs SciPy for them; SciPy's ``matrix`` is kept as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Table
from .forest import Forest, route_table

__all__ = [
    "LeafFactor",
    "SparseKernelMatrix",
    "LeafProfile",
    "leaf_profile",
    "rf_kernel_train",
    "rf_kernel_cross",
    "mmd_squared",
]

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

    cols: np.ndarray  # (n, B) global leaf ids, stored tree-major (``cols.T`` contiguous)
    weights: np.ndarray  # (L,) one weight per global leaf

    @property
    def shape(self) -> tuple[int, int]:
        return self.cols.shape[0], self.weights.shape[0]

    @property
    def nnz(self) -> int:
        return self.cols.size

    def dot(self, T: np.ndarray) -> np.ndarray:
        """F T for a per-leaf table T (L,) or (L, k), a column at a time: a sum
        over trees, in tree order."""
        if T.ndim == 2:
            return np.stack([self.dot(t) for t in T.T], axis=1)
        vals = np.take(T * self.weights, self.cols.T)  # (B, n): one row per tree
        # numpy adds axis 0 row after row, but sums a lone column pairwise
        return np.add.reduce(vals, axis=0) if vals.shape[1] > 1 else vals.cumsum(axis=0)[-1]

    def tdot(self, X: np.ndarray) -> np.ndarray:
        """Fᵀ X for X (n,) or (n, k): a per-leaf bincount over rows in ascending order."""
        if X.ndim == 2:
            return np.stack([self.tdot(x) for x in X.T], axis=1)
        cols = self.cols.T
        vals = self.weights[cols]
        vals *= X
        return np.bincount(cols.ravel(), weights=vals.ravel(), minlength=self.shape[1])

    def tocsr(self):
        """F as a SciPy CSR matrix (tree order within each row), for ``K.matrix``;
        SciPy comes with the ``test`` extra."""
        import scipy.sparse as sp  # costly import; only the oracle needs it

        n, n_trees = self.cols.shape
        indptr = np.arange(0, n * n_trees + 1, n_trees)
        return sp.csr_matrix((self.weights[self.cols].ravel(), self.cols.ravel(), indptr),
                             shape=self.shape)


@dataclass
class SparseKernelMatrix:
    """Kernel block K = diag(scale) Fq Frᵀ / B kept as its factors.

    ``left`` (Fq, m x L) and ``right`` (Fr, n x L) hold one 1/sqrt(count)
    entry per (row, tree) at the row's global leaf; a train kernel is one
    whose two factors are the same object. ``scale`` renormalizes rows over
    their populated trees (non-strict cross kernels). Entries lie in (0, 1].
    """

    left: LeafFactor
    right: LeafFactor
    n_trees: int
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
        """K as a SciPy CSR matrix, built on first access: symmetrized and
        index-sorted for a train kernel. It is the oracle that tests and
        perfbench's traced run read; nothing in the package calls it, and it
        needs SciPy, which comes with the ``test`` extra."""
        import scipy.sparse as sp  # costly import; only the oracle needs it

        K = (self.left.tocsr() @ self.right.tocsr().T) / self.n_trees
        if self.left is self.right:
            K = (K + K.T) * 0.5
            K.sort_indices()
        if self.scale is not None:
            K = sp.diags(self.scale) @ K
        return K.tocsr()

    def row_sums(self) -> np.ndarray:
        return self.dot(np.ones(self.n_cols))

    def blocks(self):
        """K's dense row blocks ``(r0, r1, K[r0:r1])``, equal to ``matrix``'s
        rows bit for bit.

        ``_leaf_join`` sums each row's weight products in tree order, the
        accumulation order of SciPy's CSR product. F Fᵀ is exactly symmetric,
        so symmetrizing a train kernel changes no bit. Like SciPy, the sums are
        multiplied by 1/B rather than divided by B, and then by ``scale``.
        """
        left, right = self.left, self.right
        for r0, r1, sums in _leaf_join(left.cols, (left.weights * right.weights)[left.cols],
                                       right.cols):
            sums *= 1.0 / self.n_trees
            if self.scale is not None:
                sums *= self.scale[r0:r1, None]
            yield r0, r1, sums

    def toarray(self) -> np.ndarray:
        """K as a dense array, assembled from ``blocks``."""
        out = np.empty((self.n_rows, self.n_cols))
        for r0, r1, block in self.blocks():
            out[r0:r1] = block
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
    flat = reference.T.ravel()  # tree-major; a leaf lies in one tree, so its rows ascend
    members = np.argsort(flat, kind="stable") % n  # reference rows by leaf
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
    cols = _global_leaves(forest, ids)
    return LeafProfile(cols, np.bincount(cols.T.ravel(), minlength=forest.total_leaves))


def _global_leaves(forest: Forest, ids: np.ndarray) -> np.ndarray:
    """Global leaf ids (n x B) of local ones, stored tree-major: ``.T`` is contiguous."""
    cols = np.array(ids.T, dtype=np.int64, order="C")
    cols += forest.leaf_offsets[:, None]
    return cols.T


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
    return SparseKernelMatrix(left=F, right=F, n_trees=forest.n_trees)


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
    q_cols = _global_leaves(forest, q_ids)
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
        scale=scale,
        unseen_levels=unseen,
        skipped_leaf_cells=n_empty,
    )


def mmd_squared(sample_a: Table, sample_b: Table, forest: Forest, reference: Table) -> float:
    """Plug-in squared maximum mean discrepancy under the forest kernel.

    Biased V-statistic (i = j terms included): mean over a-a pairs minus twice
    the a-b mean plus the b-b mean, with kernel evaluations normalized by the
    reference table's leaf counts.
    """
    w = leaf_profile(forest, reference).weights

    def mean_map(t: Table) -> np.ndarray:
        # a block mean of K = Fx Fyᵀ / B is a dot of F's column means
        F = LeafFactor(_global_leaves(forest, route_table(forest, t)[0]), w)
        return F.tdot(np.ones(t.n)) / t.n

    diff = mean_map(sample_a) - mean_map(sample_b)
    return float(diff @ diff) / forest.n_trees


def write_coordinate(K: SparseKernelMatrix, path) -> None:
    """Text export: one `row col value` line per non-zero entry, row-major."""
    with open(path, "w", encoding="utf-8") as fh:
        for r0, _, block in K.blocks():
            i, j = np.nonzero(block)
            fh.write("".join(map("{} {} {!r}\n".format, (i + r0).tolist(), j.tolist(),
                                 block[i, j].tolist())))


def write_dense_csv(K: SparseKernelMatrix, path, limit: int = 2000) -> None:
    if max(K.n_rows, K.n_cols) > limit:
        raise KernelError(f"dense export limited to {limit} rows/cols")
    with open(path, "w", encoding="utf-8") as fh:
        for _, _, block in K.blocks():
            np.savetxt(fh, block, delimiter=",")
