"""Serve the broker with the benchmark's span wrappers installed.

The traced `wire` run starts this in place of `enclave-broker serve`, so
the server's own layers are traced from the benchmark's files:

    python3 -u bench/traced_serve.py TOPOLOGY DIRECTORY SEED SPANS_OUT

It prints the same `{"listening": "host:port"}` line, serves until its
standard input closes, then writes its spans to SPANS_OUT as JSON (one
list of `[name, start_ns, end_ns, parent, size]` per thread) and exits.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    topology, directory, seed, spans_out = argv
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from enclavebroker import configio, service

    broker = configio.build_broker(topology, directory, seed=int(seed))
    server = service.BrokerServer(broker, ("127.0.0.1", 0))
    server.serve_in_thread()
    host, port = server.address
    print(json.dumps({"listening": f"{host}:{port}"}), flush=True)
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        server.server_close()
        Path(spans_out).write_text(json.dumps(tracer.take()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
