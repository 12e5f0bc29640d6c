"""Benchmark of enclavebroker: three workloads behind one command.

    python3 bench/run.py --workload replay|audit|wire --seed N --seconds S --trace 0|1

Builds nothing: the program is imported from `src/` of the checkout the
script sits in, and the run fails without printing a result when it is
missing. Inputs come from `--seed`. The run repeats whole rounds of the
workload (see `workloads.py`), each in a fresh interpreter
(`one_round.py`), until S seconds have passed. It checks the first round's
outputs in full and every later round against the first, and prints as
its last line one JSON object: `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` the program's layers are wrapped with span recorders and the
metrics are the per-layer ones. Details of the run go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"


def load_program() -> None:
    """Import enclavebroker from this checkout's src/, and from nowhere else."""
    package = ROOT / "src" / "enclavebroker"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no program source at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import enclavebroker
    if Path(enclavebroker.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: enclavebroker imported from {enclavebroker.__file__}, not {package}")


def percentile(values: list[int], q: float) -> int:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(rounds: list[dict], cpu_clock: bool) -> dict:
    """Per-round figures of the same fixed work, taken over the run's rounds.

    On the wall clock (wire) that is their median. On the thread's CPU clock
    (replay, audit) steal is already left out, and the outlying rounds are
    fast ones: phases when a shared core frees up lifted round rates by half
    for minutes at a time. There it is the slower quartile of the rounds.
    """
    def typical(f, slow_is_high=True):
        values = [f(r) for r in rounds]
        if not cpu_clock or len(values) < 2:
            return statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return q3 if slow_is_high else q1

    values = {
        "setup_s": (typical(lambda r: r["setup_s"]), "s"),
        "ops_per_s": (typical(lambda r: len(r["latencies_ns"]) / r["timed_s"], False), "ops/s"),
        "op_us_p50": (typical(lambda r: percentile(r["latencies_ns"], 0.50)) / 1e3, "us"),
        "op_us_p99": (typical(lambda r: percentile(r["latencies_ns"], 0.99)) / 1e3, "us"),
        "peak_rss_mb": (typical(lambda r: r["peak_rss_mb"]), "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run_round(args, workdir: Path, index: int) -> dict:
    """One round in a fresh interpreter (`one_round.py`), so that no round
    inherits the heap another one left behind."""
    prefix = workdir / f"round{index}"
    command = [sys.executable, str(BENCH / "one_round.py"), args.workload, str(args.seed),
               str(workdir), str(args.trace), "1" if index == 1 else "0", str(prefix)]
    proc = subprocess.Popen(command)
    try:
        code = proc.wait()
    finally:
        if proc.poll() is None:   # interrupted: let the round stop its own children
            proc.terminate()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"round {index} exited with {code}")
    return json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("replay", "audit", "wire"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    load_program()
    import tracing
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=OUT))
    try:
        rounds, problems, stats, service = [], [], {}, (0, 0, 0, 0)
        start = time.perf_counter()
        while True:
            r = run_round(args, workdir, len(rounds) + 1)
            rounds.append(r)
            print(f"round {len(rounds)}: setup {r['setup_s']:.3f} s, {len(r['latencies_ns'])} "
                  f"ops in {r['timed_s']:.3f} s, {r['failed']} failed", flush=True)
            problems += r["problems"]
            for name, entry in r["stats"].items():
                stats[name] = [a + b for a, b in zip(stats.get(name, (0, 0, 0, 0)), entry)]
            service = tuple(a + b for a, b in zip(service, r["service"]))
            if time.perf_counter() - start >= args.seconds:
                break
        problems += [f"round {i} output differs from round 1"
                     for i, r in enumerate(rounds[1:], 2) if r["digest"] != rounds[0]["digest"]]
        if args.trace:
            (workdir / "round1.spans.tsv.gz").replace(OUT / f"{label}.spans.tsv.gz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = tracing.layer_metrics(stats, len(rounds), service)
    else:
        metrics = end_to_end(rounds, WORKLOADS[args.workload].cpu_clock)
    result = {
        "correct": not problems,
        "attempted": sum(len(r["latencies_ns"]) for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    (OUT / f"{label}.json").write_text(json.dumps({
        **result, "problems": problems, "rounds": [
            {"setup_s": r["setup_s"], "timed_s": r["timed_s"], "ops": len(r["latencies_ns"]),
             "failed": r["failed"], "op_us_p50": percentile(r["latencies_ns"], 0.50) / 1e3,
             "op_us_p99": percentile(r["latencies_ns"], 0.99) / 1e3,
             "peak_rss_mb": r["peak_rss_mb"]} for r in rounds],
    }, indent=1), encoding="utf-8")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
