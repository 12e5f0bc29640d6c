"""Span tracing installed from the benchmark's side, for traced runs only.

`install()` replaces the public methods of each layer's main class, and
the public functions of `configio` and `service`, with wrappers that
record one span per call: name, start, end and parent span. Spans stay in
memory, one list per thread, and are aggregated into per-layer figures
(calls, busy time, self time) between rounds. Untraced runs never install
the wrappers, so end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import threading
import time

# Module of the program -> the class whose public methods are its layer
# boundary (None: the module's own public functions).
LAYERS = {
    "sessions": "SessionBroker",
    "enclave": "Enclave",
    "policy": "PolicyEngine",
    "identity": "Directory",
    "egress": "EgressControl",
    "ledger": "AuditLedger",
    "broker": "Broker",
    "configio": None,
    "service": None,
}

# Spans whose `size` field records the amount of work the call faced.
SIZES = {"ledger.verify_chain": len}  # events in the ledger when verified


class Tracer:
    def __init__(self) -> None:
        self.recording = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list] = []

    def _thread_state(self):
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lock:
                self._threads.append(local.spans)
            return local.spans, local.stack

    def wrap(self, name: str, fn):
        size_of = SIZES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            spans, stack = tracer._thread_state()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            size = size_of(args[0]) if size_of is not None else 0
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, size)

        return traced

    def take(self) -> list[list]:
        """Hand over the spans of every thread and start afresh. Call only
        while no traced call is running: span ids are list positions."""
        with self._lock:
            taken = [list(spans) for spans in self._threads]
            for spans in self._threads:
                spans.clear()
        return taken


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary named in LAYERS."""
    for module_name, class_name in LAYERS.items():
        module = importlib.import_module(f"enclavebroker.{module_name}")
        if class_name is None:
            owner = module
            members = [(n, f) for n, f in vars(module).items()
                       if inspect.isfunction(f) and f.__module__ == module.__name__]
        else:
            owner = getattr(module, class_name)
            members = [(n, f) for n, f in vars(owner).items() if inspect.isfunction(f)]
        for fname, fn in members:
            if fname.startswith("_"):
                continue
            setattr(owner, fname, tracer.wrap(f"{module_name}.{fname}", fn))


def aggregate(span_lists: list[list], into: dict | None = None) -> dict:
    """Per span name: [calls, busy ns, self ns, summed size]."""
    stats = {} if into is None else into
    for spans in span_lists:
        child_ns = [0] * len(spans)
        for name, start, end, parent, size in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent, size) in enumerate(spans):
            entry = stats.get(name)
            if entry is None:
                entry = stats[name] = [0, 0, 0, 0]
            duration = end - start
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_ns[i]
            entry[3] += size
    return stats


def write_spans(path, span_lists: list[list]) -> int:
    """Write spans as gzipped tab-separated lines:
    thread, id, parent, name, start_ns, end_ns. Returns the span count."""
    count = 0
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
        out.write("thread\tid\tparent\tname\tstart_ns\tend_ns\n")
        for thread, spans in enumerate(span_lists):
            for i, (name, start, end, parent, _size) in enumerate(spans):
                out.write(f"{thread}\t{i}\t{parent}\t{name}\t{start}\t{end}\n")
            count += len(spans)
    return count


# Per-layer metric -> (span name, statistic, unit). Every traced run reports
# all of them; a layer that does no work on a workload reads 0.
PER_LAYER = {
    "sessions.open_session.us_per_call": ("sessions.open_session", "us_per_call", "us"),
    "sessions.open_sessions.calls": ("sessions.open_sessions", "calls", "count"),
    "sessions.open_sessions.us_per_call": ("sessions.open_sessions", "us_per_call", "us"),
    "sessions.close_session.us_per_call": ("sessions.close_session", "us_per_call", "us"),
    "sessions.expire_retained.ms_per_call": ("sessions.expire_retained", "ms_per_call", "ms"),
    "enclave.provision_vm.us_per_call": ("enclave.provision_vm", "us_per_call", "us"),
    "enclave.destroy_vm.us_per_call": ("enclave.destroy_vm", "us_per_call", "us"),
    "enclave.is_reachable.us_per_call": ("enclave.is_reachable", "us_per_call", "us"),
    "policy.check_access.us_per_call": ("policy.check_access", "us_per_call", "us"),
    "identity.verify_mfa.us_per_call": ("identity.verify_mfa", "us_per_call", "us"),
    "egress.attempt_clipboard.us_per_call": ("egress.attempt_clipboard", "us_per_call", "us"),
    "egress.attempt_file_egress.us_per_call": ("egress.attempt_file_egress", "us_per_call", "us"),
    "ledger.append.calls": ("ledger.append", "calls", "count"),
    "ledger.append.us_per_call": ("ledger.append", "us_per_call", "us"),
    "ledger.export_text.ms_per_call": ("ledger.export_text", "ms_per_call", "ms"),
    "ledger.compliance_report.ms_per_call": ("ledger.compliance_report", "ms_per_call", "ms"),
    "ledger.verify_chain.us_per_event": ("ledger.verify_chain", "us_per_event", "us"),
    "ledger.reconstruct_session.us_per_call": ("ledger.reconstruct_session", "us_per_call", "us"),
    "ledger.resolve_identity.us_per_call": ("ledger.resolve_identity", "us_per_call", "us"),
    "broker.op.self_us_per_call": ("broker.op", "self_us_per_call", "us"),
    "configio.build_broker.ms_per_call": ("configio.build_broker", "ms_per_call", "ms"),
}
SERVICE = {
    "service.handle_request_line.us_per_call": "us",
    "service.transport.us_per_req": "us",
    "service.response_bytes_per_req": "B",
}


def layer_metrics(stats: dict, rounds: int, service: tuple | None) -> dict:
    """`stats` from aggregate() over all rounds; `service` from
    service_sums() over all rounds, or None when no server was traced."""
    metrics = {}
    for metric, (span, statistic, unit) in PER_LAYER.items():
        calls, busy_ns, self_ns, size = stats.get(span, (0, 0, 0, 0))
        if statistic == "calls":
            value = calls / rounds
        elif statistic == "us_per_event":
            value = busy_ns / size / 1e3 if size else 0.0
        elif calls == 0:
            value = 0.0
        elif statistic == "self_us_per_call":
            value = self_ns / calls / 1e3
        else:
            value = busy_ns / calls / (1e6 if statistic == "ms_per_call" else 1e3)
        metrics[metric] = {"value": value, "unit": unit}
    handler_ns, rtt_ns, size_b, count = service or (0, 0, 0, 0)
    values = {
        "service.handle_request_line.us_per_call": handler_ns / count / 1e3 if count else 0.0,
        "service.transport.us_per_req": (rtt_ns - handler_ns) / count / 1e3 if count else 0.0,
        "service.response_bytes_per_req": size_b / count if count else 0.0,
    }
    for metric, unit in SERVICE.items():
        metrics[metric] = {"value": values[metric], "unit": unit}
    return metrics


def service_sums(server_spans: list[list], first: int, count: int,
                 rtt_ns: list[int], sizes: list[int]) -> tuple[int, int, int, int]:
    """Server handler time, client round trip and response bytes summed over
    requests first..first+count-1 of one connection. Requests on it are
    sequential, so the n-th handler span answers the n-th request."""
    handled = sorted((start, end) for spans in server_spans
                     for name, start, end, _parent, _size in spans
                     if name == "service.handle_request_line")
    if len(handled) != len(rtt_ns):
        raise RuntimeError(f"{len(handled)} handler spans for {len(rtt_ns)} requests")
    window = slice(first, first + count)
    return (sum(end - start for start, end in handled[window]), sum(rtt_ns[window]),
            sum(sizes[window]), count)
