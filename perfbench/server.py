"""Loopback model server for the gen-remote workload.

Speaks the qadb remote backend protocol over HTTP/1.1 keep-alive:
``POST {"inputs": [...], "max_candidates": n, "decode_mode": m}`` returns
``{"outputs": [[candidate, ...], ...]}``, answered by ``StubBackend`` with
no added delay. It is one process with one thread, so it serves one
connection at a time.

Each reply goes out in a single send on a socket with ``TCP_NODELAY``:
a reply written as headers and body in two sends meets the Nagle /
delayed-ACK stall (~40 ms) on every call.

``GET /stats`` returns the counters (requests, prompts, bytes in and out,
busy seconds, 5xx replies, and the monotonic time the first request since
the last reset arrived); ``GET /stats?reset=1`` also resets them.

Run: ``python3 perfbench/server.py`` -- prints ``PORT <n>`` once listening
on 127.0.0.1.
"""

from __future__ import annotations

import http.server
import json
import socket
import sys
import time
from pathlib import Path


def new_counters() -> dict:
    return {
        "requests": 0,
        "prompts": 0,
        "bytes_in": 0,
        "bytes_out": 0,
        "busy_s": 0.0,
        "errors_5xx": 0,
        "first_request_at": None,
    }


def frame_reply(status: int, reason: str, body: bytes) -> bytes:
    """A whole HTTP/1.1 keep-alive reply as one buffer."""
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n\r\n"
    )
    return head.encode("ascii") + body


def answer(payload: dict, backend) -> dict:
    """Run one protocol request through ``backend``; raises ValueError if malformed."""
    from qadb.backend import GenerationRequest
    from qadb.errors import ProtocolError

    inputs = payload.get("inputs")
    if not isinstance(inputs, list):
        raise ValueError("'inputs' must be a list")
    max_candidates = payload.get("max_candidates", 1)
    decode_mode = payload.get("decode_mode", "greedy")
    outputs = []
    for prompt in inputs:
        request = GenerationRequest(prompt, max_candidates, decode_mode)
        try:
            outputs.append(list(backend.generate(request).candidates))
        except ProtocolError as exc:
            raise ValueError(str(exc)) from exc
    return {"outputs": outputs}


class Handler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _send(self, status: int, reason: str, body: bytes) -> None:
        self.wfile.write(frame_reply(status, reason, body))

    def do_GET(self):
        counters = self.server.counters
        if not self.path.startswith("/stats"):
            self._send(404, "Not Found", b"{}")
            return
        self._send(200, "OK", json.dumps(counters).encode())
        if "reset=1" in self.path:
            self.server.counters = new_counters()

    def do_POST(self):
        start = time.monotonic()
        counters = self.server.counters
        if counters["first_request_at"] is None:
            counters["first_request_at"] = start
        counters["requests"] += 1
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        counters["bytes_in"] += len(body)
        try:
            payload = json.loads(body)
            counters["prompts"] += len(payload.get("inputs") or ())
            reply = json.dumps(answer(payload, self.server.backend)).encode()
            status, reason = 200, "OK"
        except (ValueError, AttributeError) as exc:
            reply = json.dumps({"error": str(exc)}).encode()
            status, reason = 400, "Bad Request"
        except Exception as exc:  # the server must keep serving; the client sees a 5xx
            reply = json.dumps({"error": repr(exc)}).encode()
            status, reason = 500, "Internal Server Error"
            counters["errors_5xx"] += 1
        self._send(status, reason, reply)
        counters["bytes_out"] += len(reply)
        counters["busy_s"] += time.monotonic() - start

    def log_message(self, *args):
        pass


def make_server(port: int = 0) -> http.server.HTTPServer:
    from qadb import StubBackend

    server = http.server.HTTPServer(("127.0.0.1", port), Handler)
    server.counters = new_counters()
    server.backend = StubBackend()
    return server


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    server = make_server()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
