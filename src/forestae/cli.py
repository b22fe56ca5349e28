"""Command-line pipeline: fit, encode, decode, roundtrip, bench.

Exit codes: 0 success, 1 runtime error, 2 usage error. Every command is
deterministic under a fixed --seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bundle as bundle_io
from . import decode as dec
from . import kernel as ker
from . import spectral
from .data import Table, bootstrap_split, conform_table, load_csv, save_csv
from .forest import (
    ForestError,
    ForestParams,
    fit_completely_random,
    fit_supervised,
    fit_unsupervised,
    route_table,
)
from .metrics import distortion

MODES = ("supervised", "completely_random", "unsupervised")
DECODERS = ("knn", "relabel", "lasso", "ilp")


class UsageError(ValueError):
    pass


def _forest_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trees", type=int, default=100, help="number of trees")
    p.add_argument("--mtry", type=int, default=None,
                   help="candidate features per split (default round(sqrt(columns)); "
                   "values above the column count are capped)")
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--min-leaf", type=int, default=1)
    p.add_argument("--gamma", type=float, default=0.01, help="min child fraction per split")
    p.add_argument("--subsample", type=float, default=1.0, help="per-tree subsample fraction")
    p.add_argument("--tree-bootstrap", action="store_true", help="per-tree bootstrap resampling")
    p.add_argument("--honest", action="store_true", help="split structure/labels on halves")
    p.add_argument("--rounds", type=int, default=1, help="discriminator refit rounds")


def _decoder_flags(p: argparse.ArgumentParser, trace: bool = True) -> None:
    p.add_argument("--decoder", choices=DECODERS, default="knn")
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--lambda", dest="penalty", type=float, default=1e-4,
                   help="exclusive-lasso penalty weight")
    p.add_argument("--sparsity-cap", type=int, default=100)
    p.add_argument("--n-synth", type=int, default=256,
                   help="relabel: at most this many reference rows score a split")
    if trace:
        p.add_argument("--trace", default=None, help="write per-row diagnostics JSONL here")


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--verbose", action="store_true")


# ForestParams fields by the flag that sets them, for usage errors
_FOREST_FLAGS = {
    "n_trees": "--trees", "mtry": "--mtry", "min_node_fraction": "--gamma",
    "min_leaf": "--min-leaf", "max_depth": "--max-depth", "subsample_fraction": "--subsample",
}


def _params(args, seed: int) -> ForestParams:
    return ForestParams(
        n_trees=args.trees,
        mtry=args.mtry,
        min_node_fraction=args.gamma,
        min_leaf=args.min_leaf,
        max_depth=args.max_depth,
        subsample_fraction=args.subsample,
        bootstrap=args.tree_bootstrap,
        honest=args.honest,
        seed=seed,
    )


def _fit_pipeline(table: Table, mode: str, label: str | None, params: ForestParams,
                  d_z: int, t: float, seed: int, jobs: int, rounds: int):
    if not 1 <= d_z <= table.n - 1:
        raise UsageError(f"--d-z must lie in [1, n-1]; got {d_z} with n={table.n}")
    if mode == "supervised":
        if label is None:
            raise UsageError("--label is required for supervised mode")
        labels = table.column(label)
        features = table.drop(label)
        forest = fit_supervised(features, labels, params, jobs=jobs)
    elif mode == "completely_random":
        features = table
        forest = fit_completely_random(table, params, jobs=jobs)
    else:
        features = table
        forest = fit_unsupervised(table, params, rounds=rounds, jobs=jobs)
    leaf_ids, _ = route_table(forest, features)  # routed once for the kernel and synth set
    K = ker.rf_kernel_train(forest, leaf_ids)
    model = spectral.with_time(spectral.eigendecompose(K, d_z), t)
    synth = dec.build_synthetic_training(forest, features, seed, leaf_ids=leaf_ids)
    return features, forest, K, model, synth


def cmd_fit(args) -> int:
    _check_flags(args)
    table = load_csv(args.data)
    if table.n_dropped_rows and args.verbose:
        print(f"dropped {table.n_dropped_rows} incomplete rows", file=sys.stderr)
    params = _params(args, args.seed)
    _, forest, K, model, synth = _fit_pipeline(
        table, args.mode, args.label, params, args.d_z, args.t, args.seed, args.jobs, args.rounds
    )
    bundle_io.save_bundle(bundle_io.bundle_from_parts(forest, model, synth), args.out)
    if args.export_kernel:
        if args.dense:
            ker.write_dense_csv(K, args.export_kernel)
        else:
            ker.write_coordinate(K, args.export_kernel)
    if args.verbose:
        import resource  # only the report reads it

        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux
        print(f"fit: n={model.n} trees={forest.n_trees} leaves={forest.total_leaves} "
              f"d_z={model.d_z} nnz(F)={K.right.nnz} eig={model.solver} "
              f"eig_products={model.products} residual_max={model.residual_max:.2e} "
              f"row_sum_drift={model.row_sum_drift:.2e} at_one={model.at_one} "
              f"peak_rss_mb={peak_mb:.1f}", file=sys.stderr)
    return 0


def _read_embedding_csv(path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise UsageError(f"{path}: empty embedding file")
    d = len(rows[0])
    out = np.empty((len(rows) - 1, d), dtype=np.float64)
    for i, row in enumerate(rows[1:]):
        if len(row) != d:
            raise UsageError(f"{path}: row {i + 2} has {len(row)} cells, the header has {d}")
        try:
            out[i] = [float(x) for x in row]
        except ValueError:
            raise UsageError(f"{path}: row {i + 2} has a non-numeric cell") from None
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:
        raise UsageError(f"{path}: row {bad[0] + 2} has a non-finite cell")
    return out


def _write_embedding_csv(path, Z0: np.ndarray, d_z: int) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"KPC{j + 1}" for j in range(d_z)])
        for row in np.atleast_2d(Z0):
            writer.writerow([repr(float(v)) for v in row])


def _csv_has_rows(path) -> bool:
    """Whether the CSV holds a row after its header; reads at most two rows."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        return next(reader, None) is not None and next(reader, None) is not None


def _load_queries(path, schema) -> Table:
    """Query rows for encode and roundtrip, which must emit one row per input row."""
    queries = load_csv(path, schema_hint=schema)
    if queries.n_dropped_rows:
        raise UsageError(f"{path}: {queries.n_dropped_rows} incomplete row(s) with a missing cell")
    return queries


def cmd_encode(args) -> int:
    _check_flags(args)
    b = bundle_io.load_bundle(args.bundle)
    if not _csv_has_rows(args.data):
        _write_embedding_csv(args.out, np.empty((0, b.model.d_z)), b.model.d_z)
        return 0
    Z0 = _embed(b, _load_queries(args.data, b.schema))
    _write_embedding_csv(args.out, Z0, b.model.d_z)
    return 0


def _embed(b, queries: Table) -> np.ndarray:
    """Nyström embedding of the query rows through the cross kernel, with a
    warning line when it met unseen levels or renormalized empty-leaf cells."""
    K0 = ker.rf_kernel_cross(b.forest, queries, b.synth.table, strict=False)
    if K0.unseen_levels or K0.skipped_leaf_cells:
        print(
            f"warnings: {K0.unseen_levels} unseen-level cells, "
            f"{K0.skipped_leaf_cells} empty-leaf tree cells renormalized",
            file=sys.stderr,
        )
    return spectral.nystrom_embed(K0, b.model)


def _check_flags(args) -> None:
    """Usage errors for numeric flags outside their domain; each command
    checks the flags it has."""
    for flag in ("n_synth", "sparsity_cap", "k", "jobs", "rounds", "bootstraps"):
        if getattr(args, flag, 1) < 1:
            raise UsageError(f"--{flag.replace('_', '-')} must be >= 1")
    if hasattr(args, "trees"):  # ForestParams holds the forest flags' domains
        try:
            _params(args, args.seed)
        except ForestError as exc:
            field, rule = str(exc).split(" ", 1)
            raise UsageError(f"{_FOREST_FLAGS[field]} {rule}") from None
    t = getattr(args, "t", 0.0)
    if not (math.isfinite(t) and t >= 0):
        raise UsageError("--t must be finite and >= 0")
    lam = getattr(args, "penalty", 1.0)
    if not (math.isfinite(lam) and lam > 0):
        raise UsageError("--lambda must be finite and > 0")
    if getattr(args, "dense", False) and not args.export_kernel:
        raise UsageError("--dense must come with --export-kernel")


def _decode_rows(b, Z0: np.ndarray, args) -> tuple[Table, list[dict]]:
    trace: list[dict] = []
    sink = trace if args.trace else None
    if args.decoder == "knn":
        out = dec.knn_decode(Z0, b.model, b.forest, b.synth, k=args.k, seed=args.seed,
                             trace=sink)
    elif args.decoder == "relabel":
        relabeled = dec.relabel_forest(b.forest, b.model, b.synth, args.n_synth, args.seed)
        out = dec.relabel_decode(relabeled, b.forest, Z0, seed=args.seed, trace=sink)
        if args.trace:
            trace[0]["degenerate_nodes"] = relabeled.n_degenerate
    elif args.decoder == "lasso":
        out = dec.lasso_decode(
            Z0, b.model, b.forest, b.synth, lam=args.penalty, sparsity_cap=args.sparsity_cap,
            seed=args.seed, trace=sink,
        )
    else:
        out = dec.ilp_decode(Z0, b.model, b.forest, b.synth, seed=args.seed, trace=sink)
    return out, trace


def _write_trace(path, records: list[dict]) -> None:
    """The decoder's diagnostics as JSONL at ``--trace``, when it is given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")


def cmd_decode(args) -> int:
    _check_flags(args)
    b = bundle_io.load_bundle(args.bundle)
    Z0 = _read_embedding_csv(args.embeddings)
    if Z0.shape[1] != b.model.d_z:
        raise UsageError(f"embeddings have {Z0.shape[1]} columns, bundle expects {b.model.d_z}")
    if Z0.shape[0] == 0:
        save_csv(Table(b.schema, np.empty((0, b.schema.n_columns))), args.out)
        return 0
    out, trace = _decode_rows(b, Z0, args)
    save_csv(out, args.out)
    _write_trace(args.trace, trace)
    return 0


def _refuse_unseen_levels(path, queries: Table, schema) -> None:
    """roundtrip's distortion against a level the bundle never saw is
    undefined; the hinted load appends such levels after the bundle's own."""
    unseen = []
    for col in schema.columns:
        if col.is_categorical:
            n = int(np.count_nonzero(queries.column(col.name)[1] >= len(col.levels)))
            if n:
                unseen.append(f"{n} cell(s) of column {col.name!r}")
    if unseen:
        raise UsageError(f"{path}: {', '.join(unseen)} carry levels the bundle never saw; "
                         "distortion against them is undefined")


def cmd_roundtrip(args) -> int:
    _check_flags(args)
    b = bundle_io.load_bundle(args.bundle)
    queries = _load_queries(args.data, b.schema)
    _refuse_unseen_levels(args.data, queries, b.schema)
    queries = conform_table(queries, b.schema)
    out, trace = _decode_rows(b, _embed(b, queries), args)
    save_csv(out, args.out)
    _write_trace(args.trace, trace)
    report = distortion(queries, out)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def _dz_for_rate(rate: float, d_x: int) -> int:
    # round-half-up with a floor of one dimension
    return max(1, int(np.floor(rate * d_x + 0.5)))


def _bench_one(table: Table, name: str, rates: list[float], args) -> list[dict]:
    """One bootstrap fold of ``bench``: fit on its de-duplicated training
    rows, then embed and decode the held-out rows at every rate, with the
    fold's seed in ``args.seed``."""
    split = bootstrap_split(table.n, args.seed)
    train = table.take(np.unique(split.train))  # de-duplicated kernel reference
    test = table.take(split.holdout)
    if args.mode == "supervised":
        test = test.drop(args.label)
    t0 = time.perf_counter()
    d_x = test.schema.n_columns
    dims = [min(_dz_for_rate(r, d_x), train.n - 1) for r in rates]
    feats_train, forest, _, full, synth = _fit_pipeline(
        train, args.mode, args.label, _params(args, args.seed), max(dims), args.t, args.seed,
        jobs=1, rounds=args.rounds,
    )
    K0 = ker.rf_kernel_cross(forest, test, feats_train, strict=False)
    b = bundle_io.bundle_from_parts(forest, full, synth)
    shared = time.perf_counter() - t0
    rows = []
    for rate, d_z in zip(rates, dims):
        t1 = time.perf_counter()
        model = full.truncate(d_z)
        Z0 = spectral.nystrom_embed(K0, model)
        out, _ = _decode_rows(replace(b, model=model), Z0, args)
        score = distortion(test, out)
        rows.append(
            {
                "dataset": name,
                "rate": rate,
                "d_z": d_z,
                "seed": args.seed,
                "decoder": args.decoder,
                "distortion": score.combined,
                "runtime_s": round(shared / len(rates) + time.perf_counter() - t1, 4),
            }
        )
    return rows


def _rates(text: str) -> list[float]:
    try:
        rates = [float(r) for r in text.split(",")]
    except ValueError:
        rates = []
    if not rates or any(not 0 < r <= 1 for r in rates):
        raise UsageError("--rates must be comma-separated numbers in (0, 1]")
    return rates


def cmd_bench(args) -> int:
    _check_flags(args)
    rates = _rates(args.rates)
    if args.mode == "supervised" and not args.label:
        raise UsageError("--label is required for supervised mode")
    run = functools.partial(_bench_one, load_csv(args.data), Path(args.data).stem, rates)
    folds = [argparse.Namespace(**{**vars(args), "seed": args.seed + i})
             for i in range(args.bootstraps)]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            chunks = list(pool.map(run, folds))
    else:
        chunks = [run(fold) for fold in folds]
    rows = [r for chunk in chunks for r in chunk]
    rows.sort(key=lambda r: (r["rate"], r["seed"]))
    fields = ["dataset", "rate", "d_z", "seed", "decoder", "distortion", "runtime_s"]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    if args.verbose:
        best = min(rows, key=lambda r: r["distortion"])
        print(f"best row: rate={best['rate']} distortion={best['distortion']:.4f}",
              file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forestae",
        description="Random-forest autoencoder: kernel extraction, diffusion-map "
        "embeddings, and decoders back to feature space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit forest + embedding and write a model bundle")
    p.add_argument("data")
    p.add_argument("--mode", choices=MODES, default="unsupervised")
    p.add_argument("--label", default=None)
    p.add_argument("--d-z", type=int, required=True)
    p.add_argument("--t", type=float, default=1.0, help="diffusion time (0 = raw eigenvectors)")
    p.add_argument("--out", required=True)
    p.add_argument("--export-kernel", default=None)
    p.add_argument("--dense", action="store_true", help="export the kernel as dense CSV")
    _forest_flags(p)
    _common_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("encode", help="embed a CSV through a fitted bundle")
    p.add_argument("bundle")
    p.add_argument("data")
    p.add_argument("--out", required=True)
    _common_flags(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="map an embedding CSV back to feature space")
    p.add_argument("bundle")
    p.add_argument("embeddings")
    p.add_argument("--out", required=True)
    _decoder_flags(p)
    _common_flags(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("roundtrip", help="encode then decode a CSV; print distortion")
    p.add_argument("bundle")
    p.add_argument("data")
    p.add_argument("--out", required=True)
    _decoder_flags(p)
    _common_flags(p)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("bench", help="compression/distortion sweep over latent rates")
    p.add_argument("data")
    p.add_argument("--rates", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    p.add_argument("--bootstraps", type=int, default=10)
    p.add_argument("--mode", choices=MODES, default="unsupervised")
    p.add_argument("--label", default=None)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--out", required=True)
    _decoder_flags(p, trace=False)
    _forest_flags(p)
    _common_flags(p)
    p.set_defaults(func=cmd_bench, trace=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - module context reported, exit 1
        print(f"error [{type(exc).__module__}.{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
