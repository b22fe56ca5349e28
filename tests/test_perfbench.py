"""The benchmark's traced run calls the package in-process: tree node counts,
the kernel's CSR matrix, the CLI's decode step and relabel's degenerate-node
count. A refactor that breaks one of these shows up here as a failed command,
not only as a rise in the benchmark's failed share."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_mixed_decoders_run_has_no_failures():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed-decoders", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0, report
