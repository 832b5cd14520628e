"""Open-loop HTTP load generator over a fixed number of keep-alive sockets.

Requests arrive on a precomputed schedule.  Each connection thread takes
the next request in schedule order, waits until it is due, sends it and
reads the reply, so at most ``connections`` requests are in flight and any
request due while every connection is busy waits in the client queue.
Latency is timed from the request's due time, which charges that wait to
the system under test.  Lateness is the generator's own slack: how long
after ``max(due, connection free)`` the request actually went out.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

#: Give up on one request after this many seconds (counts as failed).
REQUEST_TIMEOUT = 30.0


class HttpConn:
    """Minimal HTTP/1.1 keep-alive client: one request in one send()."""

    def __init__(self, host: str, port: int, timeout: float = REQUEST_TIMEOUT) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self.sock: Optional[socket.socket] = None
        self._buf = b""

    def _connect(self) -> socket.socket:
        if self.sock is None:
            self.sock = socket.create_connection((self.host, self.port), self.timeout)
            self._buf = b""
        return self.sock

    def close(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            finally:
                self.sock = None

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        """``(status, body bytes)``; raises ``OSError`` on transport errors."""
        sock = self._connect()
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
        if body is not None:
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        try:
            sock.sendall(head.encode("ascii") + b"\r\n" + (body or b""))
            return self._read_response()
        except OSError:
            self.close()
            raise

    def _read_response(self):
        while b"\r\n\r\n" not in self._buf:
            self._fill()
        head, self._buf = self._buf.split(b"\r\n\r\n", 1)
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length, close = 0, False
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        while len(self._buf) < length:
            self._fill()
        payload, self._buf = self._buf[:length], self._buf[length:]
        if close:
            self.close()
        return status, payload

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buf += chunk


@dataclass
class Phase:
    """Per-phase accounting: what was sent, what came back, how late."""

    name: str
    rate: float = 0.0
    scheduled: int = 0
    sent: int = 0
    ok: int = 0
    failed: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    records: List[tuple] = field(default_factory=list)
    aborted: bool = False

    def summary(self) -> dict:
        out = {"phase": self.name, "rate": self.rate, "scheduled": self.scheduled,
               "sent": self.sent, "ok": self.ok, "failed": self.failed,
               "aborted": self.aborted}
        if self.latencies_ms:
            lat = np.asarray(self.latencies_ms)
            out["latency_ms"] = tail_summary(lat)
        if self.late_ms:
            late = np.asarray(self.late_ms)
            out["late_ms"] = {"p50": float(np.median(late)),
                              "p99": float(np.percentile(late, 99)),
                              "max": float(late.max())}
        return out


def tail_percentile(n: int) -> Optional[float]:
    """Highest of 99, 95, 90, 50 with at least ten samples beyond it."""
    for pct in (99.0, 95.0, 90.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct
    return None


def tail_summary(values: np.ndarray) -> dict:
    out = {"n": int(len(values)), "p50": float(np.median(values))}
    pct = tail_percentile(len(values))
    if pct is not None:
        out[f"p{pct:g}"] = float(np.percentile(values, pct))
    return out


def encode(body: dict, rid: int) -> bytes:
    """JSON body with the benchmark's request id as its first field (the
    API ignores unknown fields; server-side spans use it to join)."""
    return json.dumps({"rid": rid, **body}, separators=(",", ":")).encode()


def run_open_loop(
    address,
    ops: Sequence,
    dues: np.ndarray,
    phase: Phase,
    *,
    connections: int = 2,
    rid_base: int = 0,
    check: Optional[Callable[[int, object, int, bytes], bool]] = None,
    abort_latency_s: Optional[float] = None,
    until_s: Optional[float] = None,
    conns: Optional[List[HttpConn]] = None,
) -> Phase:
    """Send ``ops[i]`` at ``start + dues[i]`` over ``connections`` sockets.

    ``check(i, op, status, payload)`` decides success (default: HTTP 200).
    With ``abort_latency_s`` the phase stops sending once any request's
    latency exceeds it, and with ``until_s`` once that many seconds have
    passed; requests never sent are not counted as sent.
    Every record is ``(i, rid, due, send, recv, ok)`` in absolute
    ``time.perf_counter()`` seconds (CLOCK_MONOTONIC, shared with servers).
    """
    host, port = address
    if conns is None:
        conns = [HttpConn(host, port) for _ in range(connections)]
    bodies = [encode(op.body, rid_base + i) for i, op in enumerate(ops)]
    n = len(ops)
    phase.scheduled += n
    lock = threading.Lock()
    cursor = [0]
    stop = threading.Event()
    start = time.perf_counter() + 0.02
    deadline = start + until_s if until_s is not None else float("inf")

    def worker(conn: HttpConn) -> None:
        free = time.perf_counter()
        while not stop.is_set():
            with lock:
                i = cursor[0]
                if i >= n:
                    return
                cursor[0] = i + 1
            due = start + dues[i]
            if due > deadline or time.perf_counter() > deadline:
                return
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            op = ops[i]
            try:
                status, payload = conn.request("POST", op.path, bodies[i])
                ok = status == 200 and (check is None or check(i, op, status, payload))
            except OSError:
                ok = False
            recv = time.perf_counter()
            with lock:
                phase.sent += 1
                phase.ok += ok
                phase.failed += not ok
                phase.latencies_ms.append((recv - due) * 1e3)
                phase.late_ms.append((sent - max(due, free)) * 1e3)
                phase.records.append((i, rid_base + i, due, sent, recv, ok))
            free = recv
            if abort_latency_s is not None and recv - due > abort_latency_s:
                phase.aborted = True
                stop.set()

    threads = [threading.Thread(target=worker, args=(c,), daemon=True) for c in conns]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return phase
