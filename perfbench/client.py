"""A minimal closed-loop HTTP/1.1 client over one connection (stdlib only).

The client keeps its connection alive while the server allows it and
reconnects only when the server closes it, the way any keep-alive client
behaves; :attr:`Connection.connects` counts the TCP connects it opened.
It never retries: a call that fails in transport comes back with status 0.
Each call returns its timestamps so the caller can split call latency
from the client's own time (sending, then reading the reply once its
first byte arrived).
"""

from __future__ import annotations

import socket
import time
from typing import Dict, NamedTuple, Tuple

_HEAD_END = b"\r\n\r\n"


class Call(NamedTuple):
    status: int
    body: bytes
    start: float        # before connect / send
    sent: float         # request fully handed to the kernel
    first_byte: float   # first reply bytes received
    end: float          # reply fully read

    @property
    def latency(self) -> float:
        return self.end - self.start


def build_request(method: str, path: str, body: bytes = b"") -> bytes:
    """The complete request bytes; built once, before any timing."""
    head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
    return head.encode("latin-1") + body


class ProtocolViolation(RuntimeError):
    """The server's reply could not be parsed as HTTP/1.x."""


def _parse_head(head: bytes) -> Tuple[int, Dict[str, str], bool]:
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ProtocolViolation(f"bad status line {lines[0]!r}")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    connection = headers.get("connection", "").lower()
    if parts[0] == "HTTP/1.0":
        keep = connection == "keep-alive"
    else:
        keep = connection != "close"
    return int(parts[1]), headers, keep


class Connection:
    """One client connection, re-opened only when the server closes it."""

    def __init__(self, host: str, port: int, timeout: float = 120.0):
        self.address = (host, port)
        self.timeout = timeout
        self.sock = None
        self.connects = 0

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(self.address, timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.connects += 1
        return sock

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def call(self, request: bytes) -> Call:
        """One exchange; a transport error is returned as a failed call.

        The request is never re-sent: a reset connection or a malformed
        reply gives status 0, which the run counts as failed.
        """
        start = time.perf_counter()
        try:
            return self._exchange(request, start)
        except (OSError, ProtocolViolation):
            self.close()
            now = time.perf_counter()
            return Call(0, b"", start, now, now, now)

    def _exchange(self, request: bytes, start: float) -> Call:
        if self.sock is None:
            self.sock = self._connect()
        sock = self.sock
        sock.sendall(request)
        sent = time.perf_counter()
        data = sock.recv(1 << 16)
        first_byte = time.perf_counter()
        if not data:
            raise ConnectionError("server closed the connection before replying")
        buffer = bytearray(data)
        split = buffer.find(_HEAD_END)
        while split < 0:
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ProtocolViolation("connection closed inside the reply head")
            buffer += chunk
            split = buffer.find(_HEAD_END)
        status, headers, keep = _parse_head(bytes(buffer[:split]))
        length = int(headers.get("content-length", -1))
        if length < 0:
            raise ProtocolViolation("reply has no Content-Length")
        body_start = split + len(_HEAD_END)
        while len(buffer) - body_start < length:
            chunk = sock.recv(max(length - (len(buffer) - body_start), 1 << 16))
            if not chunk:
                raise ProtocolViolation("connection closed inside the reply body")
            buffer += chunk
        body = bytes(buffer[body_start:body_start + length])
        end = time.perf_counter()
        if not keep:
            # Read to the server's close before closing: the side that
            # closes first keeps the TIME_WAIT entry, and client-side ones
            # would pile up in the ephemeral port range across runs.
            while sock.recv(1 << 16):
                pass
            self.close()
        return Call(status, body, start, sent, first_byte, end)
