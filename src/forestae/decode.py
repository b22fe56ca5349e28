"""Decoders: map latent vectors back to feature space.

Four routes with different cost/accuracy trade-offs:

* k-NN regression against a synthetic training set that embeds exactly onto Z;
* split relabeling, turning the fitted trees into routers over the embedding;
* an exclusive-lasso relaxation scoring fuzzy leaf memberships, hardened by a
  greedy clique-repair pass;
* exact enumeration of the leaf-assignment program for desk-scale forests.

All decoders emit schema-conformant tables; rows are independent, so query
batches can be processed in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Table
from .forest import Forest, Region, assigned_region, region_intersect, route_table, route_values
from .kernel import cross_from_ids, leaf_design, leaf_profile
from .spectral import SpectralModel, nystrom_embed, reconstruct_kernel

__all__ = [
    "SyntheticTrainingSet",
    "NeighborSet",
    "FuzzyAssignment",
    "GreedyResult",
    "IlpResult",
    "RelabeledForest",
    "build_synthetic_training",
    "knn_neighbors",
    "knn_decode",
    "relabel_forest",
    "relabel_decode",
    "exclusive_lasso",
    "greedy_leaf_assign",
    "lasso_decode",
    "ilp_decode_exact",
    "ilp_decode",
]

_ZERO_DIST_EPS = 1e-12
_KDTREE_MAX_DIM = 20
_ILP_MAX_COMBINATIONS = 10**6
_TIE_TOL = 1e-12


class DecodeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# synthetic training set


@dataclass
class SyntheticTrainingSet:
    """Stand-in training rows drawn from each sample's assigned-leaf cell.

    Routes identically to the originals by construction, so it shares their
    kernel rows and embedding.
    """

    table: Table
    seed: int

    @property
    def n(self) -> int:
        return self.table.n


def build_synthetic_training(
    forest: Forest, table: Table, seed: int, leaf_ids: np.ndarray | None = None
) -> SyntheticTrainingSet:
    """One uniform draw per row from the intersection of its assigned leaves;
    ``leaf_ids`` is the table's (n x B) routing, if the caller already has it."""
    if leaf_ids is None:
        leaf_ids, _ = route_table(forest, table)
    values = assigned_region(forest, leaf_ids).sample(np.random.default_rng(seed))
    synth = Table(table.schema, values)
    check, _ = route_table(forest, synth)
    assert np.array_equal(check, leaf_ids), "synthetic row escaped its source regions"
    return SyntheticTrainingSet(table=synth, seed=seed)


# ---------------------------------------------------------------------------
# k-nearest neighbors


@dataclass
class NeighborSet:
    indices: np.ndarray  # ascending distance
    distances: np.ndarray
    weights: np.ndarray  # simplex, non-increasing in distance


def _knn_batch(Z0: np.ndarray, Z: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    if Z.shape[1] <= _KDTREE_MAX_DIM:
        from scipy.spatial import cKDTree  # costly import; only k-NN decoding needs it

        dist, idx = cKDTree(Z).query(Z0, k=k)
    else:
        d2 = ((Z0[:, None, :] - Z[None, :, :]) ** 2).sum(axis=2)
        idx = np.argsort(d2, axis=1, kind="stable")[:, :k]
        dist = np.sqrt(np.take_along_axis(d2, idx, axis=1))
    if k == 1:
        dist, idx = dist[:, None], idx[:, None]
    return idx, dist


def _inverse_distance_weights(dist: np.ndarray) -> np.ndarray:
    w = 1.0 / (dist + _ZERO_DIST_EPS)
    exact = dist == 0.0
    hit = exact.any(axis=1)
    w[hit] = exact[hit].astype(np.float64)
    return w / w.sum(axis=1, keepdims=True)


def knn_neighbors(z0: np.ndarray, Z: np.ndarray, k: int) -> NeighborSet:
    """The k nearest training embeddings, weighted inversely to distance.

    Exact matches (zero distance) absorb all the weight, split equally.
    """
    if not 1 <= k <= Z.shape[0]:
        raise DecodeError(f"k must lie in [1, {Z.shape[0]}]")
    idx, dist = _knn_batch(np.atleast_2d(z0), Z, k)
    w = _inverse_distance_weights(dist)
    return NeighborSet(indices=idx[0], distances=dist[0], weights=w[0])


def knn_decode(
    Z0: np.ndarray,
    model: SpectralModel,
    forest: Forest,
    synth: SyntheticTrainingSet,
    k: int,
    seed: int = 0,
) -> Table:
    """Weighted neighbor average: continuous features take the weighted mean
    of synthetic neighbor values, categorical ones the weight-summed majority
    level (ties broken uniformly at random).
    """
    _, Z = model.require_time()
    if not 1 <= k <= Z.shape[0]:
        raise DecodeError(f"k must lie in [1, {Z.shape[0]}]")
    Z0 = np.atleast_2d(np.asarray(Z0, dtype=np.float64))
    idx, dist = _knn_batch(Z0, Z, k)
    w = _inverse_distance_weights(dist)
    rng = np.random.default_rng(seed)
    vals = synth.table.values[idx]  # (m, k, d)
    m = Z0.shape[0]
    out = np.empty((m, synth.table.d))
    for j, col in enumerate(synth.table.schema.columns):
        if not col.is_categorical:
            out[:, j] = (w * vals[:, :, j]).sum(axis=1)
            continue
        n_levels = len(col.levels)
        scores = np.zeros((m, n_levels))
        rows = np.repeat(np.arange(m), k)
        np.add.at(scores, (rows, vals[:, :, j].astype(np.intp).ravel()), w.ravel())
        best = scores.max(axis=1, keepdims=True)
        ties = scores >= best - _TIE_TOL
        pick = np.argmax(ties, axis=1).astype(np.float64)
        multi = ties.sum(axis=1) > 1
        for i in np.flatnonzero(multi):
            pick[i] = rng.choice(np.flatnonzero(ties[i]))
        out[:, j] = pick
    return Table(synth.table.schema, out)


# ---------------------------------------------------------------------------
# split relabeling


@dataclass
class RelabeledTree:
    """Same topology as the source tree, but splits test embedding axes.

    ``flip`` inverts a node's routing (z < threshold goes right) when the
    best-matching latent split runs opposite to the original literal.
    """

    feature: np.ndarray
    threshold: np.ndarray
    flip: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_id: np.ndarray
    smc: np.ndarray  # per-node split agreement on the synthetic draws


@dataclass
class RelabeledForest:
    trees: list[RelabeledTree]
    d_z: int
    n_degenerate: int
    n_dropped_draws: int = 0  # node draws that fell only in unpopulated leaves


def _best_latent_split(Z0: np.ndarray, labels: np.ndarray):
    """(dim, threshold, flip, matches) maximizing agreement with labels."""
    m = Z0.shape[0]
    n1 = int(labels.sum())
    best = None
    for kdim in range(Z0.shape[1]):
        z = Z0[:, kdim]
        order = np.argsort(z, kind="stable")
        zs = z[order]
        valid = zs[:-1] < zs[1:]
        if not valid.any():
            continue
        cum1 = np.cumsum(labels[order].astype(np.int64))[:-1]
        sizes = np.arange(1, m)
        matches = 2 * cum1 - sizes + (m - n1)
        matches = np.where(valid, matches, -1)
        agree = np.maximum(matches, m - matches)
        agree = np.where(valid, agree, -1)
        i = int(np.argmax(agree))
        if best is None or agree[i] > best[3]:
            flip = (m - matches[i]) > matches[i]
            best = (kdim, 0.5 * (zs[i] + zs[i + 1]), bool(flip), int(agree[i]))
    return best


def relabel_forest(
    forest: Forest,
    model: SpectralModel,
    synth: SyntheticTrainingSet,
    n_synth: int = 256,
    seed: int = 0,
) -> RelabeledForest:
    """Re-express every split in embedding coordinates.

    Per internal node: draw ``n_synth`` rows uniformly from the node's region,
    embed them through the cross kernel + out-of-sample extension, label each
    by the original split literal, and install the latent axis/threshold with
    the highest simple matching coefficient. Draws that land only in leaves
    holding no reference row have no embedding; they are dropped (counted).
    Nodes whose remaining draws all route one way get a constant split toward
    the majority side (counted).
    """
    profile = leaf_profile(forest, route_values(forest, synth.table.values))
    populated = profile.counts_flat > 0
    rng = np.random.default_rng(seed)
    degenerate = dropped = 0
    out_trees = []
    for b, tree in enumerate(forest.trees):
        boxes = forest.node_boxes(b)
        feat = np.full(tree.n_nodes, -1, dtype=np.int32)
        thr = np.zeros(tree.n_nodes)
        flip = np.zeros(tree.n_nodes, dtype=bool)
        smc = np.full(tree.n_nodes, np.nan)
        for idx in range(tree.n_nodes):
            if tree.left[idx] < 0:
                continue
            draws = boxes[np.full(n_synth, idx)].sample(rng)
            q_ids = route_values(forest, draws)
            keep = populated[q_ids + profile.offsets].any(axis=1)
            dropped += int(n_synth - keep.sum())
            draws, q_ids = draws[keep], q_ids[keep]
            m = draws.shape[0]
            col = draws[:, tree.feature[idx]]
            labels = (col == tree.threshold[idx]) if tree.is_equal[idx] else (
                col < tree.threshold[idx]
            )
            n_left = int(labels.sum())
            best = None
            if 0 < n_left < m:
                K0 = cross_from_ids(forest, q_ids, profile, strict=False)
                Z0 = nystrom_embed(K0, model)
                best = _best_latent_split(Z0, labels)
            if best is None:
                # constant split: +inf sends everything left, -inf right
                feat[idx] = 0
                thr[idx] = np.inf if n_left * 2 >= m else -np.inf
                smc[idx] = max(n_left, m - n_left) / m if m else np.nan
                degenerate += 1
                continue
            feat[idx], thr[idx], flip[idx] = best[0], best[1], best[2]
            smc[idx] = best[3] / m
        out_trees.append(
            RelabeledTree(
                feature=feat,
                threshold=thr,
                flip=flip,
                left=tree.left.copy(),
                right=tree.right.copy(),
                leaf_id=tree.leaf_id.copy(),
                smc=smc,
            )
        )
    return RelabeledForest(out_trees, model.d_z, degenerate, dropped)


def route_relabeled(relabeled: RelabeledForest, Z0: np.ndarray) -> np.ndarray:
    Z0 = np.atleast_2d(np.asarray(Z0, dtype=np.float64))
    out = np.empty((Z0.shape[0], len(relabeled.trees)), dtype=np.int32)
    for b, tree in enumerate(relabeled.trees):
        node = np.zeros(Z0.shape[0], dtype=np.int32)
        while True:
            active = tree.left[node] >= 0
            if not active.any():
                break
            idx = np.flatnonzero(active)
            f = tree.feature[node[idx]]
            go_left = (Z0[idx, f] < tree.threshold[node[idx]]) ^ tree.flip[node[idx]]
            node[idx] = np.where(go_left, tree.left[node[idx]], tree.right[node[idx]])
        out[:, b] = tree.leaf_id[node]
    return out


def relabel_decode(
    relabeled: RelabeledForest,
    original: Forest,
    Z0: np.ndarray,
    seed: int = 0,
) -> Table:
    """Route embeddings through the relabeled trees, then sample from the
    intersection of the original forest's corresponding leaf regions. Empty
    intersections fall back to greedy repair seeded with the assignments.
    """
    leaf_ids = route_relabeled(relabeled, Z0)
    rng = np.random.default_rng(seed)
    offsets = original.leaf_offsets
    for i in np.flatnonzero(assigned_region(original, leaf_ids).is_empty()):
        fuzzy = FuzzyAssignment(
            values=np.ones(original.n_trees),
            leaf_ids=leaf_ids[i].astype(np.int64) + offsets,
            groups=np.arange(original.n_trees),
        )
        leaf_ids[i] = greedy_leaf_assign(fuzzy, original, seed=int(rng.integers(2**31))).assignment
    return Table(original.schema, assigned_region(original, leaf_ids).sample(rng))


# ---------------------------------------------------------------------------
# exclusive lasso + greedy assignment


@dataclass
class FuzzyAssignment:
    """Soft leaf memberships over a reduced leaf set, grouped by tree."""

    values: np.ndarray  # in [0, 1]
    leaf_ids: np.ndarray  # global leaf indices
    groups: np.ndarray  # tree index per entry
    converged: bool = True
    objective: float = 0.0
    iterations: int = 0


def exclusive_lasso(
    A: np.ndarray, y: np.ndarray, lam: float, groups: np.ndarray
) -> tuple[np.ndarray, bool, float, int]:
    """Exact minimizer of the exclusive-lasso relaxation.

    Minimizes ||y - A psi||^2 + lam * sum_trees (sum_leaves psi)^2 over
    psi in [0,1]^d. On that box the squared-l1 group penalty is ||G psi||^2
    for the tree-indicator matrix G, so the problem is the bounded-variable
    least squares [A; sqrt(lam) G] psi ~ [y; 0], solved by BVLS (Stark &
    Parker 1995). Returns (psi, converged, objective, iterations).
    """
    from scipy.optimize import lsq_linear  # costly import; only this decoder needs it

    if lam <= 0:
        raise DecodeError("penalty weight must be positive")
    A = np.asarray(A, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(y)):
        raise DecodeError("non-finite kernel estimates")
    G = (np.unique(groups)[:, None] == groups[None, :]).astype(np.float64)
    res = lsq_linear(
        np.vstack([A, np.sqrt(lam) * G]),
        np.concatenate([y, np.zeros(G.shape[0])]),
        bounds=(0.0, 1.0),
        method="bvls",
        # SciPy's default of d iterations stops short when there are more
        # leaves than neighbor rows; 3d is Lawson & Hanson's active-set bound
        max_iter=3 * A.shape[1],
    )
    # BVLS's steps can leave a variable it holds at a bound an ulp off it
    bound = res.active_mask
    psi = np.where(bound != 0, bound > 0, np.clip(res.x, 0.0, 1.0))
    resid, gsum = y - A @ psi, G @ psi
    objective = float(resid @ resid + lam * (gsum @ gsum))
    return psi, bool(res.status > 0), objective, int(res.nit)


@dataclass
class GreedyResult:
    assignment: np.ndarray  # (B,) local leaf ids
    rounds: int
    repaired: bool


def _bron_kerbosch_pivot(adj: np.ndarray) -> list[frozenset]:
    """All maximal cliques (deterministic order) with pivoting."""
    n = adj.shape[0]
    nbrs = [frozenset(np.flatnonzero(adj[v]).tolist()) - {v} for v in range(n)]
    cliques: list[frozenset] = []

    def expand(r: set, p: set, x: set) -> None:
        if not p and not x:
            cliques.append(frozenset(r))
            return
        pivot = max(sorted(p | x), key=lambda u: len(p & nbrs[u]))
        for v in sorted(p - nbrs[pivot]):
            expand(r | {v}, p & nbrs[v], x & nbrs[v])
            p.remove(v)
            x.add(v)

    expand(set(), set(range(n)), set())
    return cliques


def greedy_leaf_assign(p_hat: FuzzyAssignment, forest: Forest, seed: int = 0) -> GreedyResult:
    """Harden fuzzy leaf scores into consistent one-hot-per-tree assignments.

    Each round picks, per tree, the highest-scoring leaf intersecting the
    current feasible region, builds the pairwise-overlap graph over trees, and
    either stops (complete graph) or shrinks the feasible region to a maximal
    clique's common cell. Ties and clique choices are uniform (seeded). If the
    final assignment has no common cell (possible with categorical level
    sets), a consistent assignment is repaired by routing a point sampled from
    the last feasible region; the repair is flagged.
    """
    rng = np.random.default_rng(seed)
    B = forest.n_trees
    offsets = forest.leaf_offsets
    flat = np.zeros(forest.total_leaves)
    flat[p_hat.leaf_ids.astype(np.intp)] = p_hat.values
    # a tree without scores weighs its leaves uniformly
    p_full = [
        p if p.sum() != 0 else np.full(p.shape, 1.0 / p.shape[0])
        for p in np.split(flat, offsets[1:])
    ]
    leaves = _tree_leaf_boxes(forest)
    box = forest.node_boxes(0)[0]  # the training feature box
    cap = B * max(t.n_leaves for t in forest.trees)
    picks = np.zeros(B, dtype=np.int64)
    rounds = 0
    while rounds < cap:
        rounds += 1
        for b in range(B):
            ok = ~leaves[b].intersect(box).is_empty()
            vals = np.where(ok, p_full[b], -np.inf)
            top = vals.max()
            tied = np.flatnonzero(vals == top)
            picks[b] = tied[0] if tied.shape[0] == 1 else tied[rng.integers(tied.shape[0])]
        picked = forest.leaf_boxes(offsets + picks)
        adj = ~picked[:, None].intersect(picked[None, :]).is_empty()
        if adj.all():
            break
        np.fill_diagonal(adj, True)
        cliques = _bron_kerbosch_pivot(adj)
        if len(cliques) == 1:
            members = sorted(cliques[0])
        else:
            common = frozenset.intersection(*cliques)
            if common:
                members = sorted(common)
            else:
                members = sorted(cliques[rng.integers(len(cliques))])
        new_box = region_intersect(picked[b] for b in members)
        if new_box.is_empty():
            break  # categorical sets broke pairwise-implies-common; repair below
        box = new_box

    if not region_intersect(picked[b] for b in range(B)).is_empty():
        return GreedyResult(assignment=picks.copy(), rounds=rounds, repaired=False)
    x = box.sample(rng)
    repaired = route_values(forest, x[None, :])[0].astype(np.int64)
    return GreedyResult(assignment=repaired, rounds=rounds, repaired=True)


def _tree_leaf_boxes(forest: Forest) -> list[Region]:
    """Per tree, the cells of its leaves indexed by local leaf id."""
    return [
        forest.leaf_boxes(np.arange(o, o + t.n_leaves))
        for o, t in zip(forest.leaf_offsets, forest.trees)
    ]


def lasso_decode(
    Z0: np.ndarray,
    model: SpectralModel,
    forest: Forest,
    synth: SyntheticTrainingSet,
    lam: float = 1e-4,
    sparsity_cap: int = 100,
    seed: int = 0,
    trace: list[dict] | None = None,
) -> Table:
    """Reconstruct kernel rows, reduce to the strongest neighbors, solve the
    exclusive lasso over the leaves those neighbors touch, harden greedily,
    and sample from the assigned-leaf intersection.

    If ``trace`` is a list, one record per row is appended to it: the row,
    the solver's objective, convergence flag and iteration count, and whether
    greedy hardening had to repair the assignment.
    """
    Z0 = np.atleast_2d(np.asarray(Z0, dtype=np.float64))
    khat_all = reconstruct_kernel(Z0, model)
    M = leaf_design(forest, leaf_profile(forest, route_values(forest, synth.table.values)))
    rng = np.random.default_rng(seed)
    B = forest.n_trees
    assignments = np.empty((Z0.shape[0], B), dtype=np.int64)
    for i in range(Z0.shape[0]):
        khat = khat_all[i]
        nz = np.flatnonzero(np.abs(khat) > 0)
        order = nz[np.argsort(-np.abs(khat[nz]), kind="stable")]
        neighbors = np.sort(order[: min(sparsity_cap, order.shape[0])])
        if neighbors.size == 0:
            neighbors = np.arange(min(sparsity_cap, khat.shape[0]))
        rows = M[neighbors]
        col_ids = np.unique(rows.indices)
        group_ids = np.searchsorted(forest.leaf_offsets, col_ids, side="right") - 1
        psi, converged, objective, iterations = exclusive_lasso(
            rows[:, col_ids].toarray(), B * khat[neighbors], lam, group_ids
        )
        fuzzy = FuzzyAssignment(
            values=psi,
            leaf_ids=col_ids,
            groups=group_ids,
            converged=converged,
            objective=objective,
            iterations=iterations,
        )
        greedy = greedy_leaf_assign(fuzzy, forest, seed=int(rng.integers(2**31)))
        assignments[i] = greedy.assignment
        if trace is not None:
            trace.append(dict(row=i, objective=objective, converged=converged,
                              iterations=iterations, repaired=greedy.repaired))
    return Table(forest.schema, assigned_region(forest, assignments).sample(rng))


# ---------------------------------------------------------------------------
# exact enumeration


@dataclass
class IlpResult:
    assignment: np.ndarray  # lexicographically first optimum
    objective: float
    n_optima: int
    optima: list[np.ndarray]

    @property
    def tie(self) -> bool:
        return self.n_optima > 1


def ilp_decode_exact(khat_row: np.ndarray, forest: Forest, pi: np.ndarray) -> IlpResult:
    """Exact minimizer of the leaf-assignment program for one kernel row.

    Depth-first enumeration over per-tree leaves, pruning branches whose
    partial region intersection is already empty; exact l1 objective against
    B * khat over the training rows. Ties are reported and broken by
    lexicographic leaf order.
    """
    B = forest.n_trees
    sizes = [t.n_leaves for t in forest.trees]
    combos = 1
    for s in sizes:
        combos *= s
        if combos > _ILP_MAX_COMBINATIONS:
            raise DecodeError(
                "assignment space exceeds the exact-enumeration budget; "
                "use lasso_decode for forests this large"
            )
    n = pi.shape[0]
    target = B * np.asarray(khat_row, dtype=np.float64)
    if target.shape[0] != n:
        raise DecodeError("kernel row length must match training assignments")
    M = leaf_design(forest, leaf_profile(forest, pi)).tocsc()
    # per global leaf: the reference rows it holds and their 1/count weights
    rows = np.split(M.indices.astype(np.intp), M.indptr[1:-1])
    vals = np.split(M.data, M.indptr[1:-1])
    offsets = forest.leaf_offsets
    leaves = _tree_leaf_boxes(forest)

    acc = np.zeros(n)
    current = np.zeros(B, dtype=np.int64)
    best: dict = {"obj": np.inf, "assign": None, "n": 0, "optima": []}

    def descend(b: int, region: Region | None) -> None:
        if b == B:
            obj = float(np.abs(target - acc).sum())
            if obj < best["obj"] - _TIE_TOL:
                best["obj"] = obj
                best["assign"] = current.copy()
                best["n"] = 1
                best["optima"] = [current.copy()]
            elif abs(obj - best["obj"]) <= _TIE_TOL:
                best["n"] += 1
                if len(best["optima"]) < 8:
                    best["optima"].append(current.copy())
            return
        nxt = leaves[b] if region is None else leaves[b].intersect(region)
        for l in np.flatnonzero(~nxt.is_empty()):
            current[b] = l
            c = offsets[b] + l
            acc[rows[c]] += vals[c]
            descend(b + 1, nxt[l])
            acc[rows[c]] -= vals[c]
        return

    descend(0, None)
    if best["assign"] is None:
        raise DecodeError("no feasible leaf assignment: every combination has empty overlap")
    return IlpResult(
        assignment=best["assign"],
        objective=best["obj"],
        n_optima=best["n"],
        optima=best["optima"],
    )


def ilp_decode(
    Z0: np.ndarray,
    model: SpectralModel,
    forest: Forest,
    synth: SyntheticTrainingSet,
    seed: int = 0,
    trace: list[dict] | None = None,
) -> Table:
    """Reconstruct kernel rows, enumerate each row's exact leaf assignment,
    and sample from the assigned-leaf intersections.

    If ``trace`` is a list, one record per row is appended to it: the row,
    its optimal objective and the number of optima.
    """
    khat = reconstruct_kernel(np.atleast_2d(np.asarray(Z0, dtype=np.float64)), model)
    pi = route_values(forest, synth.table.values)
    assignments = np.empty((khat.shape[0], forest.n_trees), dtype=np.int64)
    for i, row in enumerate(khat):
        res = ilp_decode_exact(row, forest, pi)
        assignments[i] = res.assignment
        if trace is not None:
            trace.append({"row": i, "objective": res.objective, "n_optima": res.n_optima})
    values = assigned_region(forest, assignments).sample(np.random.default_rng(seed))
    return Table(forest.schema, values)
