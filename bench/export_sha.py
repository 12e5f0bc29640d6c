"""SHA-256 of the replay workload's ledger export, for a reference seed.

    python3 bench/export_sha.py           # replay, compare with the stored digest
    python3 bench/export_sha.py --write   # replay, store the digest anew

For the same seed and inputs the export must stay byte-identical, so a
change that keeps the program's behaviour leaves this digest as it is.
The replay uses the `replay` workload's inputs at its full size.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import BENCH, OUT, load_program

STORED = BENCH / "replay_export.json"
REFERENCE_SEED = 1


def measure(workdir: Path) -> dict:
    import workloads
    replay = workloads.Replay(REFERENCE_SEED, workdir)
    result = replay.run_round(keep=True)
    if result.failed:
        raise RuntimeError(f"{result.failed} replay steps failed")
    return {"seed": REFERENCE_SEED, "sessions": workloads.REPLAY_SESSIONS,
            "hosts": workloads.HOSTS, "events": replay.first["export"].count("\n"),
            "sha256": result.digest}


def stored() -> dict:
    return json.loads(STORED.read_text(encoding="utf-8"))


def main(argv: list[str]) -> int:
    load_program()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="export-sha-", dir=OUT))
    try:
        measured = measure(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(measured))
    if argv == ["--write"]:
        STORED.write_text(json.dumps(measured, indent=1) + "\n", encoding="utf-8")
        return 0
    if measured != stored():
        print(f"differs from {STORED.name}: {json.dumps(stored())}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
