"""The benchmark's output checks as a test: `bench/selfcheck.py` feeds each
check a correct output and deliberately broken ones, so a program change
that breaks the report, export or lookup checks fails here."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "selfcheck.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
