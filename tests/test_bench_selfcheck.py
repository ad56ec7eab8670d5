"""The benchmark's self-check passes.

``bench/selfcheck.py`` checks the benchmark's own arithmetic: its output
checkers, self-time sums, best-pace pricing, and that ``BENCHMARK.json``
names exactly the metrics ``bench/run.py`` prints. It runs here in a fresh
process, as it runs from the command line, so a change to the package or the
benchmark that breaks it fails the test suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "-B", "bench/selfcheck.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("selfcheck passed"), proc.stdout
