"""Run one round of a workload in a fresh interpreter.

    python3 bench/one_round.py WORKLOAD SEED WORKDIR TRACE FIRST PREFIX

`run.py` starts one of these per round, so that every round starts from a
fresh heap, as `enclave-broker run` does. In one long-lived process, a
round that followed another often ran slower than the first: up to a
quarter slower on audit's report scans. That made a run's figures depend on
its round count. The round's figures go to PREFIX.json. FIRST=1 also checks
the round's outputs. TRACE=1 installs the span wrappers and adds their
aggregate; on the first round it also writes the spans to
PREFIX.spans.tsv.gz.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

from run import load_program


def main(argv: list[str]) -> int:
    name, seed, workdir, trace, first, prefix = argv
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))   # stop a serve child too
    load_program()
    import tracing
    import workloads

    tracer = None
    if trace == "1":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = workloads.WORKLOADS[name](int(seed), Path(workdir), tracer)
    r = workload.run_round(keep=first == "1")
    result = {"setup_s": r.setup_s, "timed_s": r.timed_s, "latencies_ns": r.latencies_ns,
              "failed": r.failed, "digest": r.digest, "peak_rss_mb": r.peak_rss_mb,
              "problems": [], "stats": {}, "service": (0, 0, 0, 0)}
    if first == "1":
        result["problems"] = workload.check()
    if tracer is not None:
        spans = tracer.take() + r.spans
        result["stats"] = tracing.aggregate(spans)
        if r.wire_timing is not None:
            result["service"] = tracing.service_sums(r.spans, **r.wire_timing)
        if first == "1":
            tracing.write_spans(f"{prefix}.spans.tsv.gz", spans)
    Path(f"{prefix}.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
