"""Local wire service: newline-delimited JSON over TCP.

One request, one response. Requests are ``{"id": ..., "op": ..., "args": {}}``
and responses ``{"id": ..., "ok": true, "result": ...}`` or
``{"id": ..., "ok": false, "error": {"code": ..., "message": ...}}``.
Malformed requests get an error response; nothing is silently dropped. A
request line longer than ``MAX_REQUEST_BYTES`` is answered once with
``bad-request`` and its connection is closed.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading

from .broker import Broker
from .errors import BindFailure, BrokerError

# The longest request line a connection may send, newline included.
MAX_REQUEST_BYTES = 1 << 20


def _error_response(request_id, code: str, message: str) -> dict:
    return {"id": request_id, "ok": False, "error": {"code": code, "message": message}}


def handle_request_line(broker: Broker, line: str) -> dict:
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        return _error_response(None, "bad-request", f"not json: {exc.msg}")
    if not isinstance(request, dict) or "op" not in request:
        return _error_response(
            request.get("id") if isinstance(request, dict) else None,
            "bad-request", "request must be an object with an 'op' field")
    request_id = request.get("id")
    try:
        result = broker.op(request["op"], request.get("args", {}))
    except BrokerError as exc:
        return _error_response(request_id, exc.code, str(exc))
    except Exception as exc:  # noqa: BLE001 - service fault barrier
        return _error_response(request_id, "internal-error", repr(exc))
    return {"id": request_id, "ok": True, "result": result}


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        while True:
            line = self.rfile.readline(MAX_REQUEST_BYTES + 1)
            if not line:
                return
            if len(line) > MAX_REQUEST_BYTES:
                # Discard the rest of the line before answering: closing with
                # input unread would reset the connection and lose the answer.
                while line and not line.endswith(b"\n"):
                    line = self.rfile.readline(MAX_REQUEST_BYTES)
                self._reply(_error_response(
                    None, "bad-request", f"request line over {MAX_REQUEST_BYTES} bytes"))
                return
            try:
                line = line.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                self._reply(_error_response(None, "bad-request", f"not utf-8: {exc.reason}"))
                continue
            if not line:
                continue
            self._reply(handle_request_line(self.server.broker, line))

    def _reply(self, response: dict) -> None:
        self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
        self.wfile.flush()


class BrokerServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, broker: Broker, address: tuple[str, int]):
        try:
            super().__init__(address, _Handler)
        except OSError as exc:
            raise BindFailure(f"{address[0]}:{address[1]}: {exc}") from exc
        self.broker = broker

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address

    def serve_in_thread(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


def parse_address(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise BindFailure(f"address must be host:port, got {address!r}")
    return host, int(port)


def request(address: tuple[str, int], op: str, args: dict | None = None,
            request_id=None, timeout: float = 10.0) -> dict:
    """One-shot client call; returns the decoded response record."""
    payload = json.dumps({"id": request_id, "op": op, "args": args or {}}) + "\n"
    with socket.create_connection(address, timeout=timeout) as conn:
        conn.sendall(payload.encode("utf-8"))
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = conn.recv(65536)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf.decode("utf-8"))
