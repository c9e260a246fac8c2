"""Tier-1 smoke test of the benchmark: every workload at tiny sizes.

``perfbench/selfcheck.py`` runs each workload's commands, checks their
artifacts (including the simulate tables' cell and replication counts and
the ``simlab.DESK_PROFILE`` sizing hook) and that every metric is emitted.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selfcheck_passes():
    res = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selfcheck.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert res.returncode == 0, res.stdout[-3000:] + res.stderr[-3000:]
