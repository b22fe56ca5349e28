"""A fixed-seed sweep of small random tables through every CLI command.

Each table has 2-40 rows of constant, one-level, integer-coded, duplicated,
categorical and continuous columns, and is fitted in a random mode with random
growth flags. Its query file may carry perturbed values, an unseen level, a
non-numeric cell, an extra column or too few columns. Every run must succeed,
fail with a usage error (exit 2), or fail with exit 1 naming an error class
of ``forestae``; a bare Python error (``builtins.KeyError``, ...) fails the
sweep.
"""

import re

import numpy as np

from forestae.cli import DECODERS, MODES, main

_KINDS = ("continuous", "continuous", "categorical", "integer", "constant", "one level",
          "duplicate")
_FLAGS = (("--honest",), ("--tree-bootstrap",), ("--subsample", "0.5"), ("--max-depth", "0"),
          ("--rounds", "2"), ("--min-leaf", "3"))


def _column(rng, n: int, kind: str, columns: list) -> list[str]:
    if kind == "duplicate" and columns:
        return list(columns[rng.integers(len(columns))])
    if kind == "categorical":
        return [str(v) for v in rng.choice(["p", "q", "r"][: rng.integers(2, 4)], n)]
    if kind == "integer":
        return [str(v) for v in rng.integers(0, 3, n)]
    if kind == "constant":
        return ["1.5"] * n
    if kind == "one level":
        return ["a"] * n
    return [repr(float(v)) for v in rng.normal(size=n)]


def _write(path, header: list[str], columns: list[list[str]]) -> None:
    rows = "".join(",".join(row) + "\n" for row in zip(*columns))
    path.write_text(",".join(header) + "\n" + rows, encoding="utf-8")


def _query(rng, header: list[str], columns: list[list[str]]):
    """Rows drawn from the table, perturbed, then broken one way or none."""
    rows = rng.integers(len(columns[0]), size=rng.integers(1, 6))
    out = []
    for cells in columns:
        picked = [cells[i] for i in rows]
        if all(_is_number(c) for c in cells):
            picked = [repr(float(c) + rng.normal(0, 0.1)) for c in picked]
        out.append(picked)
    header = list(header)
    fault = rng.integers(6)
    j = rng.integers(len(out))
    if fault == 1:
        out[j][0] = "unseen"  # an unseen level, or a non-numeric continuous cell
    elif fault == 2:
        header.append("extra")
        out.append(["0.0"] * len(rows))
    elif fault == 3:
        del header[j], out[j]
        if not header:
            header, out = ["extra"], [["0.0"] * len(rows)]
    return header, out


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _run(capsys, argv: list[str]) -> int:
    rc = main(argv)
    err = capsys.readouterr().err
    if rc == 1:
        found = re.search(r"^error \[([\w.]+)\]", err, re.M)
        assert found and found.group(1).startswith("forestae."), (argv, err)
    else:
        assert rc in (0, 2), (argv, rc, err)
    return rc


def test_cli_sweep_exits_cleanly(tmp_path, capsys):
    rng = np.random.default_rng(2026)
    for case in range(120):
        n, d = int(rng.integers(2, 41)), int(rng.integers(1, 5))
        columns: list[list[str]] = []
        for _ in range(d):
            columns.append(_column(rng, n, _KINDS[rng.integers(len(_KINDS))], columns))
        header = [f"x{j}" for j in range(d)]
        data, bundle = tmp_path / f"t{case}.csv", tmp_path / f"m{case}.json"
        _write(data, header, columns)
        mode = MODES[rng.integers(len(MODES))]
        growth = ["--mode", mode, "--trees", str(rng.integers(1, 6)),
                  *_FLAGS[rng.integers(len(_FLAGS))], "--t", str(rng.choice([0.0, 1.0])),
                  "--seed", str(case)]
        if mode == "supervised" and rng.random() < 0.9:
            growth += ["--label", header[rng.integers(d)] if rng.random() < 0.8 else "nosuch"]
        d_z = str(rng.integers(1, 4))
        if case % 4 == 0:
            decoder = DECODERS[rng.integers(len(DECODERS))]
            _run(capsys, ["bench", str(data), *growth, "--rates", "0.5,1.0", "--bootstraps", "1",
                          "--decoder", decoder, "--k", "3", "--out", str(tmp_path / "b.csv")])
        if _run(capsys, ["fit", str(data), *growth, "--d-z", d_z, "--out", str(bundle)]):
            continue
        query, emb = tmp_path / f"q{case}.csv", tmp_path / f"z{case}.csv"
        _write(query, *_query(rng, header, columns))
        for decoder in DECODERS:
            _run(capsys, ["roundtrip", str(bundle), str(query), "--decoder", decoder, "--k", "3",
                          "--out", str(tmp_path / "r.csv")])
        if _run(capsys, ["encode", str(bundle), str(query), "--out", str(emb)]) == 0:
            for decoder in DECODERS:
                _run(capsys, ["decode", str(bundle), str(emb), "--decoder", decoder, "--k", "3",
                              "--out", str(tmp_path / "d.csv")])
