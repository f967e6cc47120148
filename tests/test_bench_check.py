"""Smoke test of the benchmark's correctness mode.

``bench/run.py --check`` builds machines with the positional model
constructors, evaluates them through ``unary_values`` and writes documents
with ``serialize_automaton``; every answer is checked against the
benchmark's own exact oracles.  A change to that API surface fails here
rather than first in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_check_reports_no_unexpected_failure():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--check"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
