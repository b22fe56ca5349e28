#!/usr/bin/env python3
"""forestae benchmark: `forestae fit`, `encode` and `decode` on seeded workloads.

    python3 perfbench/run.py --workload banknote-unsup --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports and runs forestae from
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the noise context (host facts and, per command, wall and CPU seconds and
peak RSS). Metric names and units come from ``BENCHMARK.json``.

``--trace 0`` runs every command as its own process, one after another (a
closed loop with one client, ``--jobs 1``), and reports the end-to-end
metrics. ``--trace 1`` calls the same public functions in-process, in the
order the CLI calls them, with a span around each call (see ``traced.py``),
and reports the per-layer metrics.

A pass runs the workload on each of its folds (independent inputs, see
``workloads.py``): fit once, then encode and decode ``repeats`` times. Passes
repeat until ``--seconds`` have passed, at least once; metrics are medians.
Set-up (making every fold's inputs) runs at least three times and for at least
a second; ``setup_s`` is the median round.
End-to-end times are scaled by host-speed probes timed around the commands
(see ``host_probe`` and ``Command.probe_s``); the context line keeps the raw
wall times.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS, slice_csv  # noqa: E402 - the benchmark's own modules

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0  # a cheap set-up repeats until this much time has passed
# One BLAS thread everywhere, like --jobs 1, so that a command's time does not
# depend on what else runs on the other core.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PROBE_LOOPS = 1_000_000
PROBE_REF_S = 0.1  # nominal probe time: adjusted seconds are seconds at this host speed
PROBE_ELASTICITY = 0.7  # share of a probe's slow-down that a command shows (see host_probe)
RUN_BUDGET_S = 170.0  # no command may run past this; a run must end within 180 s
# (command start or end, probe seconds) of the probe taken just before or after it
PROBE_LOG: list[tuple[float, float]] = []


@dataclass
class Fold:
    """One independent set of inputs: its own directory, data seed and CLI seed."""

    index: int
    dir: Path
    data_seed: int
    cli_seed: int
    ref: object = None  # checks.Reference, made once the inputs exist


@dataclass
class Command:
    """One finished (or skipped) forestae process."""

    name: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int | None
    error: str | None = None
    planned_rows: int = 0  # rows the command was asked to produce
    rows: int = 0  # rows it produced that passed every check
    distortion: float = 1.0
    fold: int = 0
    start: float = 0.0  # perf_counter time
    end: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def probe_s(self) -> float:
        """Median probe time within the command's own duration either side of it.

        A long command averages the host's speed over a long stretch, which
        two 0.1 s probes catch worse than their own jitter; so a long command
        is scaled by the probes of a long stretch around it, and a short one by
        those right around it. 0 for a command that did not run.
        """
        reach = self.end - self.start
        near = [p for t, p in PROBE_LOG if self.start - reach <= t <= self.end + reach]
        return statistics.median(near) if near else 0.0

    @property
    def adjusted_s(self) -> float:
        return adjusted(self.wall_s, self.probe_s)

    def record(self) -> dict:
        return {
            "cmd": self.name, "fold": self.fold, "wall_s": self.wall_s, "cpu_s": self.cpu_s,
            "probe_s": self.probe_s, "adjusted_s": self.adjusted_s,
            "peak_rss_mb": self.peak_rss_mb, "exit_code": self.exit_code,
            "rows": self.rows, "distortion": self.distortion, "error": self.error,
        }


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes right now: the host's current speed.

    On a shared 2-vCPU VM, other tenants make the per-instruction speed swing
    by a fifth or more within seconds to minutes; CPU time moves with wall
    time, so it is not scheduling or steal. There the probe, timed around a
    command, followed that swing (correlation about 0.9 over 50 repeats of one
    encode), so each timing is scaled to the nominal probe time PROBE_REF_S.
    Scaling each command by only the two probes around it made the 10-seed
    spread of a 10-20 s fit worse than raw (0.25-0.32 against 0.05-0.22), so
    a command takes the median probe over its own duration either side
    (Command.probe_s). Commands also slow down less than this tight loop does:
    over 340 commands of 40 runs, log wall time rose 0.68 times as fast as log
    probe time, which is the exponent that leaves the least variance; hence
    PROBE_ELASTICITY. Unscaled, median times moved by up to a third between
    two sets of ten runs half an hour apart; scaled, by about a tenth.
    Raw wall times stay in the context line.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += (i * i) % 7
    return time.perf_counter() - t0


def adjusted(wall_s: float, probe_s: float) -> float:
    """Wall seconds scaled to the host speed at which the probe takes PROBE_REF_S."""
    return wall_s * (PROBE_REF_S / probe_s) ** PROBE_ELASTICITY if probe_s > 0 else wall_s


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_forestae(name: str, argv: list[str], log: Path, deadline: float) -> Command:
    """Run `forestae <argv>` as a child and collect its own rusage via wait4."""
    timeout = max(1.0, deadline - time.monotonic())
    before = host_probe()
    t0 = time.perf_counter()
    with open(log, "wb") as fh:
        proc = subprocess.Popen(
            [sys.executable, "-m", "forestae.cli", *argv],
            stdout=fh, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    t1 = time.perf_counter()
    PROBE_LOG.extend([(t0, before), (t1, host_probe())])
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    error = None
    if code != 0:
        tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
        error = f"exit {code}: {tail[0] if tail else ''}"
    return Command(
        name=name,
        wall_s=t1 - t0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,
        exit_code=code,
        error=error,
        start=t0,
        end=t1,
    )


def d_z_of(workload) -> int:
    return int(workload.fit_args[workload.fit_args.index("--d-z") + 1])


def _skipped(workload, ref, reason: str, decodes_only: bool = False) -> list[Command]:
    """Commands that could not run because an earlier one failed."""
    cmds = [] if decodes_only else [Command("encode", 0.0, 0.0, 0.0, None, reason,
                                            planned_rows=ref.n_query)]
    return cmds + [
        Command(d.command, 0.0, 0.0, 0.0, None, reason, planned_rows=d.rows_of(ref.n_query))
        for d in workload.decodes if d.end_to_end
    ]


def query_commands(workload, fold: Fold, bundle: Path, deadline: float, tag: str):
    """encode → each decode on the fold's queries, one process each."""
    work, ref = fold.dir, fold.ref
    seed = ["--seed", str(fold.cli_seed), "--jobs", "1"]
    emb = work / f"z{tag}.csv"
    enc = run_forestae(
        "encode", ["encode", str(bundle), str(work / "query.csv"), *seed, "--out", str(emb)],
        work / f"encode{tag}.log", deadline,
    )
    enc.planned_rows = ref.n_query
    if enc.ok:
        enc.error = ref.embedding_error(emb, ref.n_query, d_z_of(workload))
    if not enc.ok:
        return [enc, *_skipped(workload, ref, "not run: encode failed", decodes_only=True)]
    enc.rows = ref.n_query
    commands = [enc]
    for dec in (d for d in workload.decodes if d.end_to_end):
        rows = dec.rows_of(ref.n_query)
        src = emb
        if rows < ref.n_query:
            src = work / f"z{tag}_{rows}.csv"
            slice_csv(emb, src, rows)
        out = work / f"{dec.command}{tag}.csv"
        cmd = run_forestae(
            dec.command,
            ["decode", str(bundle), str(src), "--decoder", dec.decoder, *dec.args, *seed,
             "--out", str(out)],
            work / f"{dec.command}{tag}.log", deadline,
        )
        cmd.planned_rows = rows
        if cmd.ok:
            cmd.error, cmd.distortion = ref.decoded_error(out, rows)
        if cmd.ok:
            cmd.rows = rows
        commands.append(cmd)
    return commands


def untraced_fold(workload, fold: Fold, deadline: float, tag: str):
    """fit once, then the query commands ``workload.repeats`` times.

    Returns (fit command, bundle bytes, one command list per repeat).
    """
    bundle = fold.dir / f"model{tag}.json.gz"
    fit = run_forestae(
        "fit",
        ["fit", str(fold.dir / "train.csv"), *workload.fit_args,
         "--seed", str(fold.cli_seed), "--jobs", "1", "--out", str(bundle)],
        fold.dir / f"fit{tag}.log", deadline,
    )
    size = bundle.stat().st_size if fit.ok and bundle.exists() else 0
    if fit.ok and not size:
        fit.error = "fit wrote no bundle"
    rounds = [
        query_commands(workload, fold, bundle, deadline, f"{tag}_{r}") if fit.ok
        else _skipped(workload, fold.ref, "not run: fit failed")
        for r in range(workload.repeats)
    ]
    for c in (fit, *(c for cmds in rounds for c in cmds)):
        c.fold = fold.index
    return fit, size, rounds


def pass_metrics(workload, results) -> dict:
    """End-to-end metrics of one pass over every fold.

    Times are host-adjusted (see ``host_probe``). fit_s is the mean over the
    folds. A sample is one repeat of the query commands on one fold. A
    command's rate is the rows it produced, counting only rows that passed
    every check, over its time, both summed over the samples: lasso's time
    swings between two modes from fold to fold, and a median would land on one
    or the other. Every decoder counts the same however many rows it decodes
    and however slow it is: decode_rows_per_s is the geometric mean of the
    decoders' rates, and fidelity is one minus the mean of their combined
    distortions, row-weighted over the samples; a failed command scores 1.0 on
    the rows it was asked for.
    """
    samples = [cmds for _, _, rounds in results for cmds in rounds]
    decoders = {d.command for d in workload.decodes if d.end_to_end}

    def rate(name: str) -> float:
        picked = [c for cmds in samples for c in cmds if c.name == name]
        wall = sum(c.adjusted_s for c in picked)
        return sum(c.rows for c in picked) / wall if wall > 0 else 0.0

    decode_rates = [rate(name) for name in sorted(decoders)]

    def distortion(name: str) -> float:
        runs = [c for cmds in samples for c in cmds if c.name == name]
        return sum(c.planned_rows * (c.distortion if c.ok else 1.0) for c in runs) / sum(
            c.planned_rows for c in runs
        )

    return {
        "fit_s": statistics.fmean(fit.adjusted_s for fit, _, _ in results),
        "encode_rows_per_s": rate("encode"),
        "decode_rows_per_s": (
            statistics.geometric_mean(decode_rates) if min(decode_rates) > 0 else 0.0
        ),
        "decode_fidelity": 1.0 - statistics.fmean(distortion(name) for name in sorted(decoders)),
        "bundle_mb": statistics.median(size for _, size, _ in results) / 1e6,
    }


def untraced(workload, folds: list[Fold], seconds: float, deadline: float):
    passes = []
    start = time.monotonic()
    while not passes or (time.monotonic() - start < seconds and time.monotonic() < deadline):
        tag = f"_{len(passes)}"
        passes.append([untraced_fold(workload, f, deadline, tag) for f in folds])
    per_pass = [pass_metrics(workload, results) for results in passes]
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    commands = [
        c for results in passes for fit, _, rounds in results
        for c in (fit, *(c for cmds in rounds for c in cmds))
    ]
    metrics["peak_rss_mb"] = max(c.peak_rss_mb for c in commands)
    wrong = [c for c in commands if c.exit_code == 0 and not c.ok]
    failed = sum(1 for c in commands if not c.ok)
    context = {"passes": len(passes), "commands": [c.record() for c in commands]}
    return metrics, len(commands), failed, not wrong, context


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read through its own API."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to other guests so far, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def host_facts(steal_at_start: float | None) -> dict:
    import numpy
    import scipy

    steal = steal_seconds()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "loadavg": os.getloadavg(),
        "steal_s": None if steal is None or steal_at_start is None else steal - steal_at_start,
    }


def make_folds(workload, work: Path, seed: int) -> list[Fold]:
    """Each fold's data seed and CLI seed derive from the workload seed."""
    folds = []
    for i in range(workload.folds):
        data_seed = (seed * 1009 + i) % 2**31
        folds.append(Fold(i, work / f"fold{i}", data_seed, (data_seed + 1) % 2**31))
    return folds


def timed_setup(workload, folds: list[Fold]) -> float:
    """Make every fold's inputs at least SETUP_REPEATS times and for at least
    SETUP_MIN_S; setup_s is the median time of one round, host-adjusted."""
    times = []
    probe_before = host_probe()
    start = time.perf_counter()
    while len(times) < SETUP_REPEATS or time.perf_counter() - start < SETUP_MIN_S:
        t0 = time.perf_counter()
        for f in folds:
            f.dir.mkdir(parents=True, exist_ok=True)
            workload.make_inputs(ROOT, f.dir, f.data_seed)
        times.append(time.perf_counter() - t0)
    return adjusted(statistics.median(times), (probe_before + host_probe()) / 2)


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name → unit from BENCHMARK.json; per-layer names must match layers.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if trace:
        layers = json.loads((BENCH_DIR / "layers.json").read_text(encoding="utf-8"))
        mapped = [name for layer in layers["layers"] for name in layer["metrics"]]
        if sorted(mapped) != sorted(units):
            raise SystemExit("benchmark bug: layers.json and BENCHMARK.json per_layer differ")
    return units


def main(argv=None) -> int:

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ.update(SINGLE_THREAD)  # before numpy loads, here and in every child
    host_probe()  # warm-up: the interpreter specialises the loop on its first run
    begin = time.monotonic()
    steal_at_start = steal_seconds()
    missing = [p for p in (SRC / "forestae" / "cli.py", ROOT / "scripts" / "make_clusters.py",
                           ROOT / "scripts" / "make_banknote_analog.py") if not p.is_file()]
    if missing:
        print(f"not a forestae checkout: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)  # bytecode once, so no timed command compiles
    sys.path.insert(0, str(SRC))
    from checks import Reference

    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    folds = make_folds(workload, work, args.seed)
    try:
        setup_s = timed_setup(workload, folds)
        for f in folds:
            f.ref = Reference(f.dir)
        deadline = begin + RUN_BUDGET_S
        if args.trace:
            from traced import traced

            metrics, attempted, failed, correct, context = traced(
                workload, folds, args.seconds, deadline, child_env()
            )
        else:
            metrics, attempted, failed, correct, context = untraced(
                workload, folds, args.seconds, deadline
            )
            metrics["setup_s"] = setup_s
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it

    units = declared_metrics(bool(args.trace))
    if set(metrics) != set(units):
        raise SystemExit(f"benchmark bug: metrics {sorted(set(metrics) ^ set(units))} "
                         "differ from BENCHMARK.json")
    context.update(workload=workload.name, seed=args.seed, trace=args.trace,
                   host=host_facts(steal_at_start))
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
