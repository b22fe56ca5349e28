"""Traced run: the CLI's calls made in-process, with a span around each.

Each forestae command is replayed as a top-level span (``cli.fit``,
``cli.encode``, ``cli.decode_<decoder>``) whose children are the public
functions that command calls, in the same order. A layer's time is its self
time: span duration minus the part its child spans cover. A command's span
coverage is the share of its wall time that child spans cover; the rest is
work no span names.

Probes outside the command spans measure what the program does not expose
from outside: routing on its own, a second eigensolve on the same kernel
(determinism), a second save under another file name (byte stability) and the
forest digest.
"""

from __future__ import annotations

import contextlib
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from forestae import (
    build_synthetic_training,
    cli,
    eigendecompose,
    fit_completely_random,
    fit_unsupervised,
    load_csv,
    nystrom_embed,
    relabel_decode,
    relabel_forest,
    rf_kernel_cross,
    rf_kernel_train,
    save_csv,
    spectral,
    with_time,
)
from forestae.bundle import bundle_from_parts, forest_digest, load_bundle, save_bundle
from forestae.forest import route_table
from workloads import slice_csv

COMMANDS = ("fit", "encode", *(f"decode_{d}" for d in cli.DECODERS))
IMPORT_REPEATS = 3


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    children: list[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; read out when the pass ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append(Span(name, parent, time.perf_counter(), time.process_time()))
        if parent is not None:
            self.spans[parent].children.append(idx)
        self._open.append(idx)
        try:
            yield
        finally:
            s = self.spans[idx]
            s.end, s.cpu_end = time.perf_counter(), time.process_time()
            self._open.pop()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def covered(self, s: Span) -> float:
        return sum(self.spans[c].duration for c in s.children)

    def self_time(self, name: str) -> float:
        """Summed self time of every span with this name; 0 if none ran."""
        return sum(s.duration - self.covered(s) for s in self.named(name))


# Figures measured outside the spans. Those of a layer that did not run, in
# this workload or because an earlier command failed, read 0.
PROBES = (
    "forest.nodes", "forest.leaves", "forest.nodes_per_s", "forest.route_cells_per_s",
    "kernel.train_nnz", "kernel.train_density", "kernel.train_bytes_computed",
    "kernel.cross_nnz", "kernel.empty_leaf_share", "spectral.eig_path",
    "spectral.residual_max", "spectral.repeat_max_abs_diff", "bundle.json_bytes",
    "bundle.path_independent", "data.rows_loaded", "decode.relabel_degenerate_nodes",
    "decode.ilp_ties", "decode.failed_rows",
)


def _fit_forest(a, table):
    params = cli._params(a, a.seed)
    if a.mode == "unsupervised":
        return fit_unsupervised(table, params, rounds=a.rounds, jobs=a.jobs)
    if a.mode == "completely_random":
        return fit_completely_random(table, params, jobs=a.jobs)
    raise ValueError(f"traced run has no replay for mode {a.mode!r}")


def _fit(tr: Tracer, a, other_path, stats: dict) -> None:
    """`forestae fit`, then the probes on what it built."""
    span = tr.span
    with span("cli.fit"):
        with span("data.load_csv"):
            table = load_csv(a.data)
        with span("forest.fit"):
            forest = _fit_forest(a, table)
        with span("kernel.train"):
            K = rf_kernel_train(forest, table)
        with span("spectral.eig"):
            raw = eigendecompose(K, a.d_z)
        with span("spectral.with_time"):
            model = with_time(raw, a.t)
        with span("decode.synth"):
            synth = build_synthetic_training(forest, table, a.seed)
        with span("bundle.from_parts"):
            bundle = bundle_from_parts(forest, model, synth)
        with span("bundle.save"):
            save_bundle(bundle, a.out)
    stats["data.rows_loaded"] += table.n

    n, nnz = K.n_rows, int(K.matrix.nnz)
    nodes = sum(t.n_nodes for t in forest.trees)
    again = eigendecompose(K, a.d_z)
    with span("bundle.digest"):
        forest_digest(forest)
    save_bundle(bundle, other_path)
    with open(a.out, "rb") as fh:
        saved = fh.read()
    stats.update({
        "forest.nodes": nodes,
        "forest.leaves": forest.total_leaves,
        "forest.nodes_per_s": nodes / tr.self_time("forest.fit"),
        "kernel.train_nnz": nnz,
        "kernel.train_density": nnz / n**2,
        "kernel.train_bytes_computed": int(
            K.matrix.data.nbytes + K.matrix.indices.nbytes + K.matrix.indptr.nbytes
        ),
        # eigendecompose's own branch: dense up to the cutoff, Lanczos above
        "spectral.eig_path": int(n > spectral._DENSE_CUTOFF and a.d_z + 1 < n - 1),
        "spectral.residual_max": float(np.max(np.linalg.norm(
            K.matrix @ raw.V - raw.V * raw.eigenvalues, axis=0
        ))),
        "spectral.repeat_max_abs_diff": max(
            float(np.max(np.abs(again.V - raw.V))),
            float(np.max(np.abs(again.eigenvalues - raw.eigenvalues))),
        ),
        "bundle.json_bytes": int.from_bytes(saved[-4:], "little"),  # gzip ISIZE
        "bundle.path_independent": int(saved == other_path.read_bytes()),
    })


def _encode(tr: Tracer, e, stats: dict) -> None:
    """`forestae encode`, then routing timed on its own."""
    span = tr.span
    with span("cli.encode"):
        with span("bundle.load"):
            b = load_bundle(e.bundle)
        with span("cli.csv_has_rows"):
            cli._csv_has_rows(e.data)  # the generated queries always have rows
        with span("data.load_csv"):
            queries = load_csv(e.data, schema_hint=b.schema)
        with span("kernel.cross"):
            K0 = rf_kernel_cross(b.forest, queries, b.synth.table, strict=False)
        with span("spectral.nystrom"):
            Z0 = nystrom_embed(K0, b.model)
        with span("cli.write_embeddings"):
            cli._write_embedding_csv(e.out, Z0, b.model.d_z)
    stats["data.rows_loaded"] += queries.n

    cells = queries.n * b.forest.n_trees
    with span("forest.route"):
        route_table(b.forest, queries)
    stats.update({
        "forest.route_cells_per_s": cells / tr.self_time("forest.route"),
        "kernel.cross_nnz": int(K0.matrix.nnz),
        "kernel.empty_leaf_share": K0.skipped_leaf_cells / cells,
    })


def _decode(tr: Tracer, d, stats: dict) -> None:
    """`forestae decode --decoder <d.decoder>`."""
    span = tr.span
    with span(f"cli.decode_{d.decoder}"):
        with span("bundle.load"):
            b = load_bundle(d.bundle)
        with span("cli.read_embeddings"):
            Z0 = cli._read_embedding_csv(d.embeddings)
        if d.decoder == "relabel":  # its two calls are two layers
            with span("decode.relabel_fit"):
                relabeled = relabel_forest(b.forest, b.model, b.synth, d.n_synth, d.seed)
            stats["decode.relabel_degenerate_nodes"] += relabeled.n_degenerate
            with span("decode.relabel"):
                table = relabel_decode(relabeled, b.forest, Z0, seed=d.seed)
        else:
            with span(f"decode.{d.decoder}"):
                table, records = cli._decode_rows(b, Z0, d)
            stats["decode.ilp_ties"] += sum(r["n_optima"] > 1 for r in records)
        with span("data.save_csv"):
            save_csv(table, d.out)


def _why(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def traced_fold(workload, fold, tag: str):
    """One replay of the workload's commands on one fold.

    A command that raises fails, as the CLI would exit 1, and so does every
    command after it that needs its output; the layers they would have run
    read 0, and each decode that cannot run counts its rows in
    ``decode.failed_rows``. Returns (metrics, attempted, failures, wrong
    outputs).
    """
    work, ref = fold.dir, fold.ref
    tr = Tracer()
    parser = cli.build_parser()
    seed = ["--seed", str(fold.cli_seed), "--jobs", "1"]
    bundle_path = work / f"model{tag}.json.gz"
    emb = work / f"z{tag}.csv"
    stats = dict.fromkeys(PROBES, 0)
    # a decoder that fails scores 1.0; one the workload does not run reads 0
    quality = {f"decode.{d}_distortion": 0.0 for d in cli.DECODERS}
    quality.update({f"decode.{d.decoder}_distortion": 1.0 for d in workload.decodes})
    failures: list[str] = []
    wrong: list[str] = []

    a = parser.parse_args(["fit", str(work / "train.csv"), *workload.fit_args, *seed,
                           "--out", str(bundle_path)])
    blocked = None  # why the decodes cannot run
    try:
        _fit(tr, a, work / f"other-name{tag}.json.gz", stats)
    except Exception as exc:  # noqa: BLE001 - the CLI maps any error to exit 1
        failures += [f"fit: {_why(exc)}", "encode: not run: fit failed"]
        blocked = "fit failed"
    if not blocked:
        e = parser.parse_args(["encode", str(bundle_path), str(work / "query.csv"), *seed,
                               "--out", str(emb)])
        try:
            _encode(tr, e, stats)
            error = ref.embedding_error(emb, ref.n_query, a.d_z)
            if error:
                wrong.append(error)
        except Exception as exc:  # noqa: BLE001
            error = _why(exc)
        if error:
            failures.append(f"encode: {error}")
            blocked = "encode failed"

    for dec in workload.decodes:
        rows = dec.rows_of(ref.n_query)
        if blocked:
            failures.append(f"{dec.command}: not run: {blocked}")
            stats["decode.failed_rows"] += rows
            continue
        src = emb
        if rows < ref.n_query:
            src = work / f"z{tag}_{rows}.csv"
            slice_csv(emb, src, rows)
        out = work / f"{dec.command}{tag}.csv"
        d = parser.parse_args(["decode", str(bundle_path), str(src), "--decoder", dec.decoder,
                               *dec.args, *seed, "--out", str(out)])
        d.trace = dec.decoder == "ilp"  # _decode_rows returns ilp's n_optima only when asked
        try:
            _decode(tr, d, stats)
            error, score = ref.decoded_error(out, rows)
            quality[f"decode.{dec.decoder}_distortion"] = score
            if error:
                wrong.append(error)
        except Exception as exc:  # noqa: BLE001
            error = _why(exc)
        if error:
            failures.append(f"{dec.command}: {error}")
            stats["decode.failed_rows"] += rows

    t = tr.self_time
    loads = [s.duration for s in tr.named("bundle.load")]
    metrics = {
        **stats,
        **quality,
        "forest.fit_s": t("forest.fit"),
        "forest.route_s": t("forest.route"),
        "kernel.train_s": t("kernel.train"),
        "kernel.cross_s": t("kernel.cross"),
        "spectral.eig_s": t("spectral.eig"),
        "spectral.nystrom_s": t("spectral.nystrom"),
        "decode.synth_s": t("decode.synth"),
        "decode.knn_s": t("decode.knn"),
        "decode.relabel_fit_s": t("decode.relabel_fit"),
        "decode.relabel_s": t("decode.relabel"),
        "decode.lasso_s": t("decode.lasso"),
        "decode.ilp_s": t("decode.ilp"),
        "data.load_csv_s": t("data.load_csv"),
        "data.save_csv_s": t("data.save_csv"),
        "bundle.save_s": t("bundle.save"),
        "bundle.digest_s": t("bundle.digest"),
        "bundle.load_s": statistics.median(loads) if loads else 0.0,
    }
    for cmd in COMMANDS:
        spans = tr.named(f"cli.{cmd}")
        wall = sum(s.duration for s in spans)
        metrics[f"cli.{cmd}_cpu_s"] = sum(s.cpu_end - s.cpu_start for s in spans)
        metrics[f"cli.{cmd}_span_coverage"] = (
            sum(tr.covered(s) for s in spans) / wall if wall > 0 else 0.0
        )
    return metrics, 2 + len(workload.decodes), failures, wrong


def import_seconds(env: dict) -> float:
    """Median time a fresh interpreter takes to import the CLI module."""
    probe = ("import time; t = time.perf_counter(); import forestae.cli; "
             "print(time.perf_counter() - t)")
    times = [
        float(subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(IMPORT_REPEATS)
    ]
    return statistics.median(times)


def traced(workload, folds, seconds: float, deadline: float, env: dict):
    passes = []
    start = time.monotonic()
    while not passes or (time.monotonic() - start < seconds and time.monotonic() < deadline):
        tag = f"_{len(passes)}"
        passes.append([traced_fold(workload, f, tag) for f in folds])
    samples = [r[0] for results in passes for r in results]
    metrics = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    # failures add up over the folds of a pass instead of taking the median fold
    metrics["decode.failed_rows"] = statistics.median(
        sum(r[0]["decode.failed_rows"] for r in results) for results in passes
    )
    attempted = sum(r[1] for results in passes for r in results)
    failures = [f for results in passes for r in results for f in r[2]]
    wrong = [w for results in passes for r in results for w in r[3]]
    metrics["failed_share"] = len(failures) / attempted
    metrics["cli.import_s"] = import_seconds(env)
    context = {"passes": len(passes), "failures": failures}
    return metrics, attempted, len(failures), not wrong, context
