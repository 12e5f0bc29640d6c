"""The behaviour contract as a test: for the reference seed, the replay
workload's ledger export keeps the SHA-256 stored in
`bench/replay_export.json`."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_reference_replay_export_matches_stored_digest():
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "export_sha.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
